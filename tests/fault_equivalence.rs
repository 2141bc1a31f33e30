//! The fault-injection subsystem (DESIGN.md §11) — partitions, symbolic
//! link latency, payload corruption, crash-recovery persistence — as rows
//! of the strategy matrix (`tests/common/matrix.rs`), and the semantics
//! of each axis.
//!
//! * **Determinism** — for every fault axis, `run_sharded` at any worker
//!   count keeps the serial key, dedup is canonically invisible, and
//!   snapshots taken *mid-partition* resume to the same run, also sharded
//!   with dedup on.
//! * **Semantics** — traced runs prove the mechanisms do what they
//!   claim: no delivery crosses an active cut, healing restores
//!   reachability, deferred deliveries arrive exactly `extra_ms` late,
//!   and the persistent window survives a crash while volatile state
//!   resets.
//! * **Randomization** — proptest sweeps the same checks over random
//!   topology sizes and axis choices.

mod common;

use common::collect;
use common::matrix::{check, trace_events, Column, Row, SERIAL};
use proptest::prelude::*;
use sde::net::FailureKind;
use sde::prelude::*;
use sde_bench::with_fault_axes;
use std::collections::HashMap;

/// One packet under one fault axis.
fn fault_row(name: &str, topology: Topology, axis: FailureKind) -> Row {
    let scenario = with_fault_axes(collect(topology, 1), &[axis]);
    Row::new(format!("{name}-{}", axis.name()), scenario)
}

/// Every fault axis alone on `topology`.
fn axis_rows(name: &str, topology: Topology) -> Vec<Row> {
    let rows = FailureKind::AXES.map(|axis| fault_row(name, topology.clone(), axis));
    rows.to_vec()
}

/// The axis rows of line(4) and of the 2×2 grid.
fn fault_rows() -> Vec<Row> {
    let grid = axis_rows("grid2x2", Topology::grid(2, 2));
    [axis_rows("line4", Topology::line(4)), grid].concat()
}

#[test]
fn fault_axes_are_bit_identical_across_worker_counts() {
    check(
        &fault_rows(),
        &Algorithm::ALL,
        &[1, 2, 4].map(Column::sharded),
    );
}

#[test]
fn fault_axes_are_canonically_invisible_to_dedup() {
    check(&fault_rows(), &Algorithm::ALL, &[SERIAL.dedup()]);
}

/// Pausing every 5 events lands several pauses where partition lineages
/// hold a live `partition_until` deadline and unspent fault budgets, all
/// of which the snapshot codec must carry.
#[test]
fn checkpoint_resume_mid_partition_matches_straight_run() {
    check(
        &fault_rows(),
        &Algorithm::ALL,
        &[SERIAL.interrupted_via_bytes(5)],
    );
}

/// A fault plan *and* dedup *and* checkpoint/resume *and* the sharded
/// engine, all at once.
#[test]
fn interrupted_parallel_dedup_fault_runs_match_straight_runs() {
    let column = Column::sharded(2).dedup().interrupted(7);
    check(
        &axis_rows("line4", Topology::line(4)),
        &Algorithm::ALL,
        &[column],
    );
}

#[test]
fn resume_under_a_different_fault_plan_is_refused() {
    let base = collect(Topology::line(3), 1);
    let scenario = with_fault_axes(base.clone(), &[FailureKind::Partition]);
    let mut engine = Engine::new(scenario.clone(), Algorithm::Sds);
    let outcome = engine.run_until(Budget::events(3));
    assert_eq!(outcome, RunOutcome::Paused, "run too small to pause");
    let snap = engine.snapshot();

    // Same workload, different fault plan: the stored budgets and
    // partition deadlines would silently change meaning.
    let other = with_fault_axes(base.clone(), &[FailureKind::Latency]);
    match Engine::resume(other, &snap) {
        Err(SnapshotError::ScenarioMismatch(what)) => assert_eq!(what, "fault_plan"),
        other => panic!("expected a fault_plan mismatch, got {other:?}"),
    }
    // The faultless base is refused too.
    assert!(matches!(
        Engine::resume(base, &snap),
        Err(SnapshotError::ScenarioMismatch("fault_plan"))
    ));
    // The matching plan resumes fine.
    let mut resumed = Engine::resume(scenario, &snap).expect("matching plan must resume");
    while resumed.run_until(Budget::events(64)) != RunOutcome::Complete {}
}

// --- semantics: traced invariants ------------------------------------------

/// Scans the serial trace of `packets` packets on line(`k`) under the
/// partition axis and asserts its contract: while a lineage's cut is
/// active every cut-crossing delivery is swallowed (`PartitionDrop`), no
/// `Deliver` reaches the partitioned node before its heal deadline, and —
/// when `expect_heal` — at least one lineage delivers to the partitioned
/// node *after* its deadline (healing restores reachability).
fn check_partition_trace(k: u16, packets: u16, alg: Algorithm, expect_heal: bool) {
    let label = format!("line{k}-{packets}pkt-partition/{alg}");
    let scenario = with_fault_axes(
        collect(Topology::line(k), packets),
        &[FailureKind::Partition],
    );
    // `partition_until` is inherited on fork, so propagate each state's
    // deadline to its descendants as the (serially ordered) trace grows.
    let mut until: HashMap<u64, u64> = HashMap::new();
    let mut now = 0u64;
    let mut drops = 0usize;
    let mut healed_deliveries = 0usize;
    for ev in &trace_events(&scenario, alg) {
        match ev {
            TraceEvent::Dispatch { time, .. } => now = *time,
            TraceEvent::Fork { parent, child, .. } => {
                if let Some(&u) = until.get(parent) {
                    until.insert(*child, u);
                }
            }
            TraceEvent::PartitionDrop {
                state,
                until: deadline,
                ..
            } => {
                drops += 1;
                assert!(
                    now < *deadline,
                    "{label}: partition swallowed a delivery at {now} ≥ heal {deadline}"
                );
                until.insert(*state, *deadline);
            }
            TraceEvent::Deliver { state, node: 0, .. } => {
                if let Some(&u) = until.get(state) {
                    assert!(
                        now >= u,
                        "{label}: state {state} received across an active cut at {now} < {u}"
                    );
                    healed_deliveries += 1;
                }
            }
            _ => {}
        }
    }
    assert!(drops > 0, "{label}: the partition axis never fired");
    if expect_heal {
        assert!(
            healed_deliveries > 0,
            "{label}: no delivery after any heal deadline — healing never \
             restored reachability"
        );
    }
}

#[test]
fn partition_heals_and_never_leaks_deliveries() {
    // 3 packets on a 3-node line: heal candidates land between the 2nd
    // and 3rd delivery, so partitioned lineages observe both the active
    // cut (drops) and the healed network (a late delivery).
    for alg in Algorithm::ALL {
        check_partition_trace(3, 3, alg, true);
    }
}

/// Scans the serial trace of `packets` packets on line(`k`) under the
/// latency axis and asserts its contract: every `Send → Deliver` delta is
/// exactly the base link latency, except deliveries to the latency node
/// (node 0), which may additionally be `extra_ms` late — nothing earlier,
/// nothing in between, nothing later.
fn check_latency_trace(k: u16, packets: u16, alg: Algorithm) {
    let label = format!("line{k}-{packets}pkt-latency/{alg}");
    let scenario = with_fault_axes(collect(Topology::line(k), packets), &[FailureKind::Latency]);
    let extra_ms = scenario.failures.latency_extra_ms();
    let base_ms = scenario.link_latency_ms;
    let mut sent: HashMap<u64, u64> = HashMap::new();
    let mut now = 0u64;
    let mut on_time = 0usize;
    let mut deferred = 0usize;
    for ev in &trace_events(&scenario, alg) {
        match ev {
            TraceEvent::Dispatch { time, .. } => now = *time,
            TraceEvent::Send { packet, .. } => {
                sent.entry(*packet).or_insert(now);
            }
            TraceEvent::Deliver { node, packet, .. } => {
                let t0 = sent[packet];
                let delta = now - t0;
                if delta == base_ms {
                    on_time += 1;
                } else {
                    assert_eq!(
                        delta,
                        base_ms + extra_ms,
                        "{label}: packet {packet} to node {node} took {delta} ms \
                         (allowed: {base_ms} or {})",
                        base_ms + extra_ms
                    );
                    assert_eq!(
                        *node, 0,
                        "{label}: only the latency node may see deferred deliveries"
                    );
                    deferred += 1;
                }
            }
            _ => {}
        }
    }
    assert!(on_time > 0, "{label}: no on-time delivery at all");
    assert!(
        deferred > 0,
        "{label}: the latency axis never deferred a delivery"
    );
}

#[test]
fn deferred_deliveries_respect_the_latency_bound() {
    for alg in Algorithm::ALL {
        check_latency_trace(3, 2, alg);
    }
}

/// Reads the (concrete) low byte a persist-app counter holds in `state`.
fn counter(state: &SdeState, addr: u32) -> u64 {
    state
        .vm
        .memory_byte(addr)
        .as_const()
        .expect("persist counters are concrete")
}

#[test]
fn persistent_window_survives_crash_while_volatile_resets() {
    use sde::os::apps::persist::{self, PersistConfig};
    use sde::os::layout;

    let topology = Topology::line(2);
    let cfg = PersistConfig {
        source: NodeId(1),
        ..PersistConfig::default()
    };
    let programs = persist::programs(&topology, &cfg);
    let base = Scenario::new(topology, programs)
        .with_duration_ms(1000)
        .with_history_tracking(true);
    let scenario = with_fault_axes(base, &[FailureKind::CrashRecovery]);

    for alg in Algorithm::ALL {
        let mut engine = Engine::new(scenario.clone(), alg);
        engine.run_in_place();
        let mut crashed = 0usize;
        let mut crashed_with_history = 0usize;
        for s in engine.states().filter(|s| s.node == NodeId(0)) {
            let boots = counter(s, layout::BOOT_COUNT);
            match boots {
                1 => {} // never crashed
                2 => {
                    crashed += 1;
                    // Volatile state reset: the receive counter restarts
                    // from zero, and on_boot's volatile marker was re-set
                    // by the post-crash boot.
                    assert_eq!(
                        counter(s, layout::SEQ),
                        1,
                        "{alg}/{}: on_boot must run after the crash",
                        s.id
                    );
                    // Persistent state survived: the sequence high-water
                    // mark may only come from *pre-crash* receives, since
                    // the crashing branch misses its packet. A state that
                    // crashed on the 2nd delivery proves survival.
                    let high = counter(s, layout::PERSIST_SEQ);
                    let received = counter(s, layout::RECEIVED);
                    assert!(
                        high >= received,
                        "{alg}/{}: persistent high-water {high} lost ground to \
                         post-crash receives {received}",
                        s.id
                    );
                    if high > received {
                        crashed_with_history += 1;
                    }
                }
                n => panic!("{alg}/{}: impossible boot count {n} (budget is 1)", s.id),
            }
        }
        assert!(crashed > 0, "{alg}: the crashrec axis never fired");
        assert!(
            crashed_with_history > 0,
            "{alg}: no state kept a pre-crash persistent value — the \
             persistence window did not observably survive"
        );
    }
}

// --- randomized sweeps ------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random topology × axis: sharded runs keep the serial key and the
    /// mapper invariants hold with the fault subsystem active.
    #[test]
    fn random_fault_scenarios_stay_deterministic(
        k in 3u16..5,
        ring in any::<bool>(),
        axis_idx in 0usize..4,
        workers in 2usize..5,
    ) {
        let (name, topology) = match ring {
            true => (format!("ring{k}"), Topology::ring(k)),
            false => (format!("line{k}"), Topology::line(k)),
        };
        let row = fault_row(&name, topology, FailureKind::AXES[axis_idx]);
        check(&[row], &Algorithm::ALL, &[Column::sharded(workers)]);
    }

    /// Random line lengths and packet counts: the latency bound holds on
    /// every delivery of every lineage.
    #[test]
    fn latency_bound_holds_on_random_lines(k in 3u16..5, packets in 1u16..3) {
        check_latency_trace(k, packets, Algorithm::Sds);
    }

    /// Random partition scenarios: no delivery ever crosses an active
    /// cut (heal-side reachability is pinned by the deterministic test —
    /// short random runs may legitimately end before any heal deadline).
    #[test]
    fn no_delivery_crosses_an_active_cut_on_random_lines(k in 3u16..5, packets in 1u16..4) {
        check_partition_trace(k, packets, Algorithm::Sds, false);
    }
}
