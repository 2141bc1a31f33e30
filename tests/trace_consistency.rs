//! Trace ↔ report consistency: for a sweep of seeded scenarios, the
//! counters reconstructed by folding over the recorded event stream must
//! *exactly* equal what [`RunReport`], [`RunReport::trace`] and the
//! solver's own [`SolverStats`] say — forks by reason, packet fates,
//! dispatches by kind, and solver queries per answering layer. A missed
//! or double-recorded instrumentation site breaks an equality here. The
//! seeded sweep covers the failure model's drop, duplicate and reboot
//! forks; the fault-plan rows cover latency, corruption, crash-recovery,
//! partition and heal forks.

mod common;

use common::seeded::scenario_from_seed;
use sde::prelude::*;
use sde::trace::{
    DispatchKind, ForkReason, GroupLayer, QueryLayer, RingSink, TraceEvent, TraceSink, Verdict,
};
use std::sync::Arc;

/// Every counter reconstructible from an event stream.
#[derive(Debug, Default, PartialEq, Eq)]
struct Recount {
    boots: u64,
    dispatch: [u64; DispatchKind::ALL.len()],
    forks: [u64; ForkReason::ALL.len()],
    sends: u64,
    delivers: u64,
    drops: u64,
    partition_drops: u64,
    queries: u64,
    query_layers: [u64; 3], // fold, exact, solve
    verdicts: [u64; 3],     // sat, unsat, unknown
    group_layers: [u64; 4], // exact, reuse, ucore, solve
}

fn recount(events: &[TraceEvent]) -> Recount {
    let mut c = Recount::default();
    for ev in events {
        match ev {
            TraceEvent::Boot { .. } => c.boots += 1,
            TraceEvent::Dispatch { kind, .. } => c.dispatch[*kind as usize] += 1,
            TraceEvent::Fork { reason, .. } => c.forks[*reason as usize] += 1,
            TraceEvent::Send { .. } => c.sends += 1,
            TraceEvent::Deliver { .. } => c.delivers += 1,
            TraceEvent::Drop { .. } => c.drops += 1,
            TraceEvent::PartitionDrop { .. } => c.partition_drops += 1,
            TraceEvent::Query { layer, verdict, .. } => {
                c.queries += 1;
                c.query_layers[match layer {
                    QueryLayer::Fold => 0,
                    QueryLayer::Exact => 1,
                    QueryLayer::Solve => 2,
                }] += 1;
                c.verdicts[match verdict {
                    Verdict::Sat => 0,
                    Verdict::Unsat => 1,
                    Verdict::Unknown => 2,
                }] += 1;
            }
            TraceEvent::QueryGroup { layer } => {
                c.group_layers[match layer {
                    GroupLayer::Exact => 0,
                    GroupLayer::Reuse => 1,
                    GroupLayer::Ucore => 2,
                    GroupLayer::Solve => 3,
                }] += 1;
            }
            _ => {}
        }
    }
    c
}

/// Runs `scenario` under `alg` with a recording sink and asserts that the
/// recount of its events equals the report's counters; returns the
/// recount.
fn check(label: &str, scenario: &Scenario, alg: Algorithm) -> Recount {
    let sink = Arc::new(RingSink::default());
    let report = Engine::new(scenario.clone(), alg)
        .with_trace_sink(sink.clone() as Arc<dyn TraceSink>)
        .run();
    assert_eq!(sink.dropped(), 0, "[{label}] {alg} trace ring evicted");
    let events: Vec<TraceEvent> = sink.take().into_iter().map(|te| te.ev).collect();
    let c = recount(&events);
    let t = &report.trace;
    let s = &report.solver;
    let ctx = format!("[{label}] {alg}");

    // Engine-side counters.
    assert_eq!(c.boots, t.boots, "{ctx}: boots");
    assert_eq!(
        c.dispatch,
        t.dispatches,
        "{ctx}: dispatches by kind {:?}",
        DispatchKind::ALL
    );
    assert_eq!(
        c.forks,
        t.forks,
        "{ctx}: forks by reason {:?}",
        ForkReason::ALL
    );
    assert_eq!(
        c.forks.iter().sum::<u64>(),
        (report.total_states - c.boots as usize) as u64,
        "{ctx}: every non-root state is exactly one fork event"
    );

    // Packet fates. A delivery an active partition swallows is a
    // `PartitionDrop` event, not a `Drop`, and the summary counts both
    // as dropped (DESIGN.md §11).
    assert_eq!(c.sends, report.packets, "{ctx}: sends");
    assert_eq!(c.delivers, t.packets_delivered, "{ctx}: deliveries");
    assert_eq!(
        c.drops + c.partition_drops,
        t.packets_dropped,
        "{ctx}: drops"
    );

    // Solver layers: one Query event per solver query, layer split
    // matching the cache counters exactly; no group is answered by the
    // retired UNSAT-core layer.
    assert_eq!(c.queries, s.queries, "{ctx}: query count");
    assert_eq!(
        c.query_layers[1], s.cache_hits,
        "{ctx}: exact-layer queries"
    );
    assert_eq!(c.group_layers[0], s.group_cache_hits, "{ctx}: group hits");
    assert_eq!(c.group_layers[1], s.model_reuse_hits, "{ctx}: reuse hits");
    assert_eq!(c.group_layers[2], 0, "{ctx}: ucore groups");
    assert_eq!(c.verdicts[0], s.sat, "{ctx}: sat verdicts");
    assert_eq!(c.verdicts[1], s.unsat, "{ctx}: unsat verdicts");
    assert_eq!(c.verdicts[2], s.unknown, "{ctx}: unknown verdicts");
    c
}

#[test]
fn trace_counters_equal_report_counters() {
    for i in 0..10u64 {
        let seed = 0xc0de ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (label, scenario) = scenario_from_seed(seed);
        for alg in Algorithm::ALL {
            check(&label, &scenario, alg);
        }
    }
}

/// Every fault axis on a collect line and on the 3×3 sense grid: the five
/// fault-plan fork reasons reconcile with the summary, and each of them,
/// and a partition-swallowed delivery, occurs at least once.
#[test]
fn fault_plan_forks_equal_report_counters() {
    use sde::net::FailureKind;
    use sde_bench::with_fault_axes;
    let rows = [
        ("collect line4", common::collect(Topology::line(4), 2)),
        ("sense grid3", sde_bench::symbolic_grid(3)),
    ];
    let mut total = Recount::default();
    for (label, scenario) in rows {
        let scenario = with_fault_axes(scenario, &FailureKind::AXES);
        for alg in Algorithm::ALL {
            let c = check(label, &scenario, alg);
            for (sum, n) in total.forks.iter_mut().zip(c.forks) {
                *sum += n;
            }
            total.partition_drops += c.partition_drops;
            total.queries += c.queries;
        }
    }
    for reason in [
        ForkReason::Latency,
        ForkReason::Corrupt,
        ForkReason::Crash,
        ForkReason::Partition,
        ForkReason::Heal,
    ] {
        assert!(
            total.forks[reason as usize] > 0,
            "no {reason:?} fork: {total:?}"
        );
    }
    assert!(total.partition_drops > 0, "no partition drop: {total:?}");
    assert!(total.queries > 0, "no solver query: {total:?}");
}
