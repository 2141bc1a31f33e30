//! Engine-level behavior: the KleeNet execution model, the three failure
//! models, and resource-cap semantics.

mod common;

use common::{failure_model, grid_collect, line_collect, ring_hello};
use sde::prelude::*;
use sde_core::Engine;

#[test]
fn hello_ring_counts_neighbors() {
    let mut engine = Engine::new(ring_hello(6), Algorithm::Sds);
    engine.run_in_place();
    for s in engine.states() {
        let neighbors =
            s.vm.memory_byte(sde::os::layout::NEIGHBORS)
                .as_const()
                .expect("concrete");
        assert_eq!(
            neighbors, 2,
            "{}: every ring node hears both neighbors",
            s.id
        );
    }
}

#[test]
fn collect_delivers_all_packets_without_failures() {
    // Strict sink, no failure model: the assert must NOT fire.
    let scenario = line_collect(4, &[], 5, true).with_duration_ms(8000);
    let report = sde_core::run(&scenario, Algorithm::Sds);
    assert!(report.bugs.is_empty());
    assert_eq!(report.total_states, 4, "no symbolic input → no forks");

    let mut engine = Engine::new(
        line_collect(4, &[], 5, true).with_duration_ms(8000),
        Algorithm::Sds,
    );
    engine.run_in_place();
    let sink = engine.states().find(|s| s.node == NodeId(0)).unwrap();
    assert_eq!(
        sink.vm.memory_byte(sde::os::layout::RECEIVED).as_const(),
        Some(5)
    );
}

#[test]
fn drop_budget_limits_forking() {
    // One drop node with budget 1: exactly one drop fork no matter how
    // many packets pass through.
    let scenario = line_collect(3, &[1], 4, false);
    let report = sde_core::run(&scenario, Algorithm::Sds);
    // Initial 3 + drop sibling + conflict-driven receiver forks; the
    // drop decision itself is binary → exactly 2 dstates.
    assert_eq!(report.groups, 2);
    assert_eq!(report.mapper.branches_seen, 1, "only one drop fork");
}

#[test]
fn packet_duplication_forks_and_delivers_twice() {
    let scenario = line_collect(3, &[], 1, false)
        .with_failures(failure_model("duplicate", &[NodeId(0)]))
        .with_duration_ms(4000);
    let mut engine = Engine::new(scenario, Algorithm::Sds);
    engine.run_in_place();
    // The sink forked into {delivered once, delivered twice}.
    let sinks: Vec<_> = engine.states().filter(|s| s.node == NodeId(0)).collect();
    assert_eq!(sinks.len(), 2);
    let mut received: Vec<u64> = sinks
        .iter()
        .map(|s| {
            s.vm.memory_byte(sde::os::layout::RECEIVED)
                .as_const()
                .expect("concrete counter")
        })
        .collect();
    received.sort_unstable();
    assert_eq!(received, vec![1, 2]);
}

#[test]
fn node_reboot_clears_memory_and_reruns_boot() {
    let scenario = line_collect(3, &[], 2, false)
        .with_failures(failure_model("reboot", &[NodeId(0)]))
        .with_duration_ms(5000);
    let mut engine = Engine::new(scenario, Algorithm::Sds);
    engine.run_in_place();
    let sinks: Vec<_> = engine.states().filter(|s| s.node == NodeId(0)).collect();
    assert_eq!(sinks.len(), 2, "reboot decision forks the sink");
    let mut counts: Vec<u64> = sinks
        .iter()
        .map(|s| {
            s.vm.memory_byte(sde::os::layout::RECEIVED)
                .as_const()
                .unwrap()
        })
        .collect();
    counts.sort_unstable();
    // Non-rebooting branch accepted both packets; the rebooting branch
    // lost its counter (and the packet that triggered the reboot) but
    // accepted the second one.
    assert_eq!(counts, vec![1, 2]);
}

#[test]
fn state_cap_aborts_cob() {
    let scenario = grid_collect(3, 3, 10_000, false).with_state_cap(100);
    let report = sde_core::run(&scenario, Algorithm::Cob);
    assert!(report.aborted);
    assert!(report.total_states >= 100);
    // SDS under the same cap finishes comfortably.
    let scenario = grid_collect(3, 3, 10_000, false).with_state_cap(100_000);
    let report = sde_core::run(&scenario, Algorithm::Sds);
    assert!(!report.aborted);
}

#[test]
fn time_series_is_monotone_in_totals() {
    let scenario = grid_collect(3, 3, 6000, false).with_sample_every(4);
    let report = sde_core::run(&scenario, Algorithm::Cow);
    let samples = report.series.samples();
    assert!(samples.len() > 2, "sampling produced data");
    for pair in samples.windows(2) {
        assert!(pair[1].total_states >= pair[0].total_states);
        assert!(pair[1].virtual_ms >= pair[0].virtual_ms);
        assert!(pair[1].wall_ms >= pair[0].wall_ms);
    }
    assert_eq!(
        report.peak_bytes,
        report.series.peak_bytes().max(report.final_bytes)
    );
}

#[test]
fn virtual_time_stops_at_duration() {
    let scenario = line_collect(3, &[], 100, false).with_duration_ms(3500);
    let report = sde_core::run(&scenario, Algorithm::Sds);
    assert!(report.virtual_ms <= 3500);
    // 3 packets fit into 3.5 s at 1 packet/s (t = 1000, 2000, 3000).
    let mut engine = Engine::new(
        line_collect(3, &[], 100, false).with_duration_ms(3500),
        Algorithm::Sds,
    );
    engine.run_in_place();
    let source = engine.states().find(|s| s.node == NodeId(2)).unwrap();
    assert_eq!(
        source.vm.memory_byte(sde::os::layout::SEQ).as_const(),
        Some(3)
    );
}

#[test]
fn instructions_and_packets_are_counted() {
    let scenario = ring_hello(4);
    let report = sde_core::run(&scenario, Algorithm::Cob);
    assert!(report.instructions > 0);
    assert_eq!(report.packets, 8, "4 nodes × 2 neighbors");
    assert_eq!(
        report.events,
        4 /* boots */ + 4 /* timers */ + 8 /* delivers */
    );
}

/// Failure budgets are spent *before* forking: the delivery that decides
/// a symbolic drop debits the dropping state's budget. A budget spent
/// before a checkpoint must therefore stay spent across the resume
/// boundary — resuming must not re-fork the same drop, and the final
/// drop-fork count must equal an uninterrupted run's.
#[test]
fn drop_budget_spent_before_checkpoint_stays_spent_after_resume() {
    use sde::trace::{ForkReason, RingSink, TraceEvent, TraceSink};
    use std::sync::Arc;

    let count_drop_forks = |sink: &RingSink| {
        sink.take()
            .into_iter()
            .filter(|te| {
                matches!(
                    te.ev,
                    TraceEvent::Fork {
                        reason: ForkReason::Drop,
                        ..
                    }
                )
            })
            .count()
    };
    let budgets_by_state = |engine: &Engine| {
        let mut budgets: Vec<_> = engine.states().map(|s| (s.id.0, s.budgets)).collect();
        budgets.sort_unstable_by_key(|entry| entry.0);
        budgets
    };

    let scenario = line_collect(3, &[1], 2, false);

    // Straight-run baseline: how many drop forks does the budget admit?
    let straight_sink = Arc::new(RingSink::default());
    Engine::new(scenario.clone(), Algorithm::Sds)
        .with_trace_sink(straight_sink.clone() as Arc<dyn TraceSink>)
        .run();
    let straight_drops = count_drop_forks(&straight_sink);
    assert!(straight_drops > 0, "scenario must exercise the drop budget");

    // Interrupted after every event, with a full serialize→deserialize
    // round trip at each pause. Budgets must survive each boundary
    // verbatim: a resume that reset them would re-fork spent drops.
    let sink = Arc::new(RingSink::default());
    let mut engine = Engine::new(scenario.clone(), Algorithm::Sds)
        .with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    let mut pauses = 0usize;
    while engine.run_until(Budget::events(1)) == RunOutcome::Paused {
        let before = budgets_by_state(&engine);
        let bytes = engine.snapshot().to_bytes();
        let snap = EngineSnapshot::from_bytes(&bytes).expect("snapshot bytes must decode");
        engine = Engine::resume(scenario.clone(), &snap)
            .expect("snapshot must resume")
            .with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
        assert_eq!(
            before,
            budgets_by_state(&engine),
            "failure budgets must survive the resume boundary"
        );
        pauses += 1;
    }
    assert!(pauses > 0, "run too small to pause");
    assert_eq!(
        count_drop_forks(&sink),
        straight_drops,
        "a drop budget spent before a checkpoint must not fork again after resume"
    );
}

/// The earliest time an event is pending at, read through a snapshot.
fn earliest_pending(engine: &Engine) -> Option<u64> {
    let mut earliest: Option<u64> = None;
    engine.snapshot().edit_queue(|_, time, _, _, _| {
        earliest = Some(earliest.map_or(*time, |e| e.min(*time)));
    });
    earliest
}

/// Pause granularity (DESIGN.md §8): the serial loop checks its budget
/// between any two events, the sharded loop only between virtual-time
/// batches — so a sharded pause never leaves an event pending at the
/// time it paused at, and a serial one does inside a batch.
#[test]
fn serial_pauses_per_event_and_sharded_per_batch() {
    let scenario = line_collect(4, &[1, 2], 2, false);
    for alg in Algorithm::ALL {
        let mut serial = Engine::new(scenario.clone(), alg);
        let (mut events, mut inside_a_batch) = (0, 0);
        while serial.run_until(Budget::events(1)) == RunOutcome::Paused {
            let now = serial.snapshot().events_processed();
            assert_eq!(now, events + 1, "{alg}: a serial segment is one event");
            events = now;
            inside_a_batch += usize::from(earliest_pending(&serial) == Some(serial.now()));
        }
        assert!(
            inside_a_batch > 0,
            "{alg}: a serial run pauses inside a batch"
        );

        let mut sharded = Engine::new(scenario.clone(), alg);
        let mut pauses = 0;
        while sharded.run_until_sharded(2, Budget::events(1)) == RunOutcome::Paused {
            pauses += 1;
            let pending = earliest_pending(&sharded);
            assert!(
                pending.is_none_or(|t| t > sharded.now()),
                "{alg}: a sharded run paused at {} with an event pending then",
                sharded.now()
            );
        }
        assert!(
            (1..events).contains(&pauses),
            "{alg}: {pauses} sharded pauses for {events} events"
        );
    }
}

/// DESIGN.md §11: a delivery decides its fault models in one fixed order,
/// and symbols are minted in it. Every model is armed on the relay of a
/// line, every delivery to it crosses a cut with two heal candidates, so
/// its first delivery mints one decision per model — the nested heal
/// choice on the partitioned branch, the corruption byte on the corrupted
/// one — in that order.
#[test]
fn a_delivery_decides_its_faults_in_the_documented_order() {
    let relay = NodeId(1);
    let scenario = line_collect(3, &[1], 2, false);
    let d = scenario.duration_ms;
    let failures = FailureConfig::new()
        .with_partition(vec![(relay, NodeId(0)), (relay, NodeId(2))], [d / 4, d / 2])
        .with_latency([relay], 30, 1)
        .with_crash_recovery(
            [relay],
            1,
            sde::os::layout::PERSIST_BASE,
            sde::os::layout::PERSIST_SIZE,
        )
        .with_corruption([relay], 1)
        .with_drops([relay], 1)
        .with_duplicates([relay], 1)
        .with_reboots([relay], 1);
    let scenario = scenario.with_failures(failures);
    for alg in Algorithm::ALL {
        let mut engine = Engine::new(scenario.clone(), alg);
        engine.run_in_place();
        let minted: Vec<&str> = (engine.symbols().iter())
            .filter(|v| v.node() == relay.0)
            .map(|v| v.name())
            .take(9)
            .collect();
        assert_eq!(
            minted,
            ["part", "heal", "lat", "drop", "dup", "reboot", "crash", "cor", "corb"],
            "{alg}"
        );
    }
}
