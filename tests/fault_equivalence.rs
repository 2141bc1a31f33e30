//! Differential and invariant tests for the extended fault-injection
//! subsystem (DESIGN.md §11): partitions, symbolic link latency, payload
//! corruption, and crash-recovery persistence.
//!
//! Three layers of evidence:
//!
//! * **Determinism** — for every fault axis, `run_sharded` at any
//!   worker count is bit-identical to the sequential run
//!   ([`RunReport::equivalence_key`]), dedup is canonically invisible,
//!   and a checkpoint taken *mid-partition* resumes to the same run.
//! * **Semantics** — traced runs prove the mechanisms do what they
//!   claim: no delivery crosses an active cut, healing restores
//!   reachability, deferred deliveries arrive exactly `extra_ms` late,
//!   and the persistent window survives a crash while volatile state
//!   resets.
//! * **Randomization** — proptest sweeps the same invariants over
//!   random topology sizes and axis choices.

#[path = "common/fingerprints.rs"]
mod fingerprints;

use fingerprints::{dscenario_fingerprints, path_sets};
use proptest::prelude::*;
use sde::prelude::*;
use sde_bench::{with_fault_axes, FaultAxis};
use sde_core::Engine;
use sde_os::apps::collect::{self, CollectConfig};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Faultless collect base: `packets` packets from the far end to node 0.
fn collect_base(topology: Topology, packets: u16) -> Scenario {
    let k = topology.len() as u16;
    let cfg = CollectConfig {
        source: NodeId(k - 1),
        sink: NodeId(0),
        interval_ms: 1000,
        packet_count: packets,
        strict_sink: false,
    };
    let programs = collect::programs(&topology, &cfg);
    Scenario::new(topology, programs)
        .with_duration_ms(1000 * u64::from(packets) + 2000)
        .with_history_tracking(true)
        .with_state_cap(60_000)
}

/// The matrix: every fault axis alone, on a line and on the 2×2 grid.
fn fault_matrix() -> Vec<(String, Scenario)> {
    let mut out = Vec::new();
    for (topo_name, topology) in [
        ("line4", Topology::line(4)),
        ("grid2x2", Topology::grid(2, 2)),
    ] {
        let base = collect_base(topology, 1);
        for axis in FaultAxis::ALL {
            out.push((
                format!("{topo_name}-{axis}"),
                with_fault_axes(base.clone(), &[axis]),
            ));
        }
    }
    out
}

// --- determinism: worker counts --------------------------------------------

#[test]
fn fault_axes_are_bit_identical_across_worker_counts() {
    for (label, scenario) in fault_matrix() {
        for alg in Algorithm::ALL {
            let seq = Engine::new(scenario.clone(), alg).run();
            let seq_key = seq.equivalence_key();
            for workers in [1usize, 2, 4] {
                let par = Engine::new(scenario.clone(), alg).run_sharded(workers);
                assert_eq!(
                    par.equivalence_key(),
                    seq_key,
                    "[{label}] {alg} diverged at {workers} workers"
                );
            }
        }
    }
}

// --- determinism: dedup on/off ---------------------------------------------

/// Canonical, symbol-id-free fingerprint (dedup replays clone survivor
/// expressions, so raw digests legitimately differ; see
/// `dedup_equivalence.rs`).
#[derive(Debug, PartialEq, Eq)]
struct Canonical {
    paths: Vec<(NodeId, Vec<u64>)>,
    dscenarios: BTreeSet<Vec<(u16, u64)>>,
    total_states: usize,
    live_states: usize,
    events: u64,
    packets: u64,
    groups: usize,
    aborted: bool,
}

fn canonical_run(scenario: &Scenario, alg: Algorithm, dedup: bool) -> (Canonical, RunReport) {
    let mut engine = Engine::new(scenario.clone(), alg).with_dedup(dedup);
    engine.run_in_place();
    canonical_finish(engine)
}

/// Canonicalizes a finished engine and consumes it into its report.
fn canonical_finish(engine: Engine) -> (Canonical, RunReport) {
    let paths = path_sets(&engine);
    let dscenarios = dscenario_fingerprints(&engine);
    let report = engine.into_report();
    let canonical = Canonical {
        paths,
        dscenarios,
        total_states: report.total_states,
        live_states: report.live_states,
        events: report.events,
        packets: report.packets,
        groups: report.groups,
        aborted: report.aborted,
    };
    (canonical, report)
}

#[test]
fn fault_axes_are_canonically_invisible_to_dedup() {
    for (label, scenario) in fault_matrix() {
        for alg in Algorithm::ALL {
            let (off, off_report) = canonical_run(&scenario, alg, false);
            let (on, on_report) = canonical_run(&scenario, alg, true);
            assert_eq!(
                on, off,
                "[{label}] {alg}: dedup changed what the fault run explored"
            );
            assert!(
                on_report.states_executed <= off_report.states_executed,
                "[{label}] {alg}: dedup executed {} states, plain run {}",
                on_report.states_executed,
                off_report.states_executed
            );
        }
    }
}

// --- determinism: checkpoint/resume mid-partition --------------------------

#[test]
fn checkpoint_resume_mid_partition_matches_straight_run() {
    // Pause every 5 events with a full serialize/deserialize round trip:
    // several pauses land while partition lineages hold a live
    // `partition_until` deadline and un-spent fault budgets, all of
    // which the v3 codec must carry.
    for (label, scenario) in fault_matrix() {
        for alg in Algorithm::ALL {
            let straight = Engine::new(scenario.clone(), alg).run();
            let mut engine = Engine::new(scenario.clone(), alg);
            let mut pauses = 0usize;
            while engine.run_until(Budget::events(5)) != RunOutcome::Complete {
                let bytes = engine.snapshot().to_bytes();
                let snap = EngineSnapshot::from_bytes(&bytes).expect("snapshot bytes must decode");
                engine = Engine::resume(scenario.clone(), &snap).expect("snapshot must resume");
                pauses += 1;
            }
            assert!(pauses > 0, "[{label}] {alg}: run too small to pause");
            assert_eq!(
                engine.into_report().equivalence_key(),
                straight.equivalence_key(),
                "[{label}] {alg} diverged across {pauses} mid-fault pauses"
            );
        }
    }
}

/// Combined stress: a fault plan *and* dedup *and* checkpoint/resume
/// *and* the sharded engine, all at once. Resumed runs restart with a cold memo index, so the
/// comparison is canonical (what was explored), mirroring
/// `dedup_equivalence.rs`.
#[test]
fn interrupted_parallel_dedup_fault_runs_match_straight_runs() {
    let base = collect_base(Topology::line(4), 1);
    for axis in FaultAxis::ALL {
        let scenario = with_fault_axes(base.clone(), &[axis]);
        for alg in Algorithm::ALL {
            let (straight, _) = canonical_run(&scenario, alg, true);
            let mut engine = Engine::new(scenario.clone(), alg).with_dedup(true);
            let mut pauses = 0usize;
            while engine.run_until_sharded(2, Budget::events(7)) != RunOutcome::Complete {
                let snap = if pauses < 2 {
                    let bytes = engine.snapshot().to_bytes();
                    EngineSnapshot::from_bytes(&bytes).expect("snapshot bytes must decode")
                } else {
                    engine.snapshot()
                };
                engine = Engine::resume(scenario.clone(), &snap).expect("snapshot must resume");
                assert!(
                    engine.dedup_enabled(),
                    "[{axis}] {alg}: resume dropped the dedup flag"
                );
                pauses += 1;
            }
            assert!(pauses > 0, "[{axis}] {alg}: run too small to pause");
            let (interrupted, _) = canonical_finish(engine);
            assert_eq!(
                interrupted, straight,
                "[{axis}] {alg}: interrupted sharded dedup fault run diverged \
                 after {pauses} pauses"
            );
        }
    }
}

#[test]
fn resume_under_a_different_fault_plan_is_refused() {
    let base = collect_base(Topology::line(3), 1);
    let scenario = with_fault_axes(base.clone(), &[FaultAxis::Partition]);
    let mut engine = Engine::new(scenario.clone(), Algorithm::Sds);
    let outcome = engine.run_until(Budget::events(3));
    assert_eq!(outcome, RunOutcome::Paused, "run too small to pause");
    let snap = engine.snapshot();

    // Same workload, different fault plan: the stored budgets and
    // partition deadlines would silently change meaning.
    let other = with_fault_axes(base.clone(), &[FaultAxis::Latency]);
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

/// Runs `scenario` serially with a trace sink and returns the events.
fn traced_run(scenario: &Scenario, alg: Algorithm) -> Vec<TraceEvent> {
    let sink = Arc::new(RingSink::default());
    Engine::new(scenario.clone(), alg)
        .with_trace_sink(sink.clone() as Arc<dyn TraceSink>)
        .run();
    assert_eq!(sink.dropped(), 0, "trace ring must not evict in tests");
    sink.take().into_iter().map(|t| t.ev).collect()
}

/// Scans a serial trace and asserts the partition contract: while a
/// lineage's cut is active every cut-crossing delivery is swallowed
/// (`PartitionDrop`), no `Deliver` reaches the partitioned node before
/// its heal deadline, and — when `expect_heal` — at least one lineage
/// delivers to the partitioned node *after* its deadline (healing
/// restores reachability).
fn check_partition_trace(label: &str, events: &[TraceEvent], expect_heal: bool) {
    // `partition_until` is inherited on fork, so propagate each state's
    // deadline to its descendants as the (serially ordered) trace grows.
    let mut until: HashMap<u64, u64> = HashMap::new();
    let mut now = 0u64;
    let mut drops = 0usize;
    let mut healed_deliveries = 0usize;
    for ev in events {
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
    let base = collect_base(Topology::line(3), 3);
    let scenario = with_fault_axes(base, &[FaultAxis::Partition]);
    for alg in Algorithm::ALL {
        let events = traced_run(&scenario, alg);
        check_partition_trace(&format!("line3-partition/{alg}"), &events, true);
    }
}

/// Scans a serial trace and asserts the latency contract: every
/// `Send → Deliver` delta is exactly the base link latency, except
/// deliveries to the latency node (node 0), which may additionally be
/// `extra_ms` late — nothing earlier, nothing in between, nothing later.
fn check_latency_trace(label: &str, events: &[TraceEvent], base_ms: u64, extra_ms: u64) {
    let mut sent: HashMap<u64, u64> = HashMap::new();
    let mut now = 0u64;
    let mut on_time = 0usize;
    let mut deferred = 0usize;
    for ev in events {
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
    let base = collect_base(Topology::line(3), 2);
    let scenario = with_fault_axes(base, &[FaultAxis::Latency]);
    for alg in Algorithm::ALL {
        let events = traced_run(&scenario, alg);
        check_latency_trace(
            &format!("line3-latency/{alg}"),
            &events,
            scenario.link_latency_ms,
            scenario.faults.latency_extra_ms(),
        );
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
    let scenario = with_fault_axes(base, &[FaultAxis::CrashRec]);

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

    /// Random topology × axis: sharded runs stay bit-identical and the
    /// mapper invariants hold with the fault subsystem active.
    #[test]
    fn random_fault_scenarios_stay_deterministic(
        k in 3u16..5,
        ring in any::<bool>(),
        axis_idx in 0usize..4,
        workers in 2usize..5,
    ) {
        let topology = if ring { Topology::ring(k) } else { Topology::line(k) };
        let base = collect_base(topology, 1);
        let axis = FaultAxis::ALL[axis_idx];
        let scenario = with_fault_axes(base, &[axis]);
        for alg in Algorithm::ALL {
            let mut engine = Engine::new(scenario.clone(), alg);
            engine.run_in_place();
            prop_assert!(
                engine.mapper().check_invariants().is_none(),
                "{axis}/{alg}: {:?}", engine.mapper().check_invariants()
            );
            let seq_key = engine.into_report().equivalence_key();
            let par = Engine::new(scenario.clone(), alg).run_sharded(workers);
            prop_assert_eq!(
                par.equivalence_key(), seq_key,
                "{}/{} diverged at {} workers", axis, alg, workers
            );
        }
    }

    /// Random line lengths and packet counts: the latency bound holds on
    /// every delivery of every lineage.
    #[test]
    fn latency_bound_holds_on_random_lines(k in 3u16..5, packets in 1u16..3) {
        let base = collect_base(Topology::line(k), packets);
        let scenario = with_fault_axes(base, &[FaultAxis::Latency]);
        let events = traced_run(&scenario, Algorithm::Sds);
        check_latency_trace(
            &format!("line{k}-{packets}pkt"),
            &events,
            scenario.link_latency_ms,
            scenario.faults.latency_extra_ms(),
        );
    }

    /// Random partition scenarios: no delivery ever crosses an active
    /// cut (heal-side reachability is pinned by the deterministic test —
    /// short random runs may legitimately end before any heal deadline).
    #[test]
    fn no_delivery_crosses_an_active_cut_on_random_lines(k in 3u16..5, packets in 1u16..4) {
        let base = collect_base(Topology::line(k), packets);
        let scenario = with_fault_axes(base, &[FaultAxis::Partition]);
        let events = traced_run(&scenario, Algorithm::Sds);
        check_partition_trace(&format!("line{k}-{packets}pkt"), &events, false);
    }
}
