//! Conformance oracle sweep: exhaustive concrete enumeration vs the
//! dscenario sets of COB, COW and SDS (DESIGN.md §9).
//!
//! The paper's §III claims the three state mapping algorithms explore
//! identical scenario sets, and §II-A claims every explored path has a
//! concrete replay. [`sde::core::oracle`] checks both from the outside:
//! enumerate *every* concrete input assignment through the non-forking
//! replay path, canonicalize each run into a path-class outcome, and
//! demand the symbolic side covers exactly that set — nothing missing
//! (unsoundness), nothing phantom (over-approximation).
//!
//! The sweep spans four topologies (line, ring, grid, mesh), three
//! workloads (collect, flood, sense) and three failure models (drop,
//! duplicate, reboot — alone and mixed), each under all three
//! algorithms; a seeded fuzz loop adds randomized small scenarios on
//! top. Every verdict here is *exhaustive*: the scenarios are sized so
//! that no enumeration, domain, or testgen cap ever truncates.

#[path = "common/faults.rs"]
mod faults;
#[path = "common/grid.rs"]
mod grid;
#[path = "common/line.rs"]
mod line;
#[path = "common/mesh.rs"]
mod mesh;
#[path = "common/ring.rs"]
mod ring;

use grid::grid_collect;
use line::line_collect;
use mesh::mesh_flood;
use ring::ring_hello;
use sde::core::oracle::{conformance_against, ground_truth, GroundTruth, OracleConfig};
use sde::prelude::*;
use sde_bench::{with_fault_axes, FaultAxis};

/// Shared check: compute the ground truth once, then demand every
/// algorithm's dscenario set matches it exactly and exhaustively.
fn assert_all_algorithms_conform(
    label: &str,
    scenario: &Scenario,
    cfg: &OracleConfig,
) -> GroundTruth {
    let truth = ground_truth(scenario, cfg);
    assert!(
        truth.exhaustive(),
        "{label}: ground truth truncated (replays {}, capped domains {:?}) — grow the caps or \
         shrink the scenario, a truncated sweep proves nothing",
        truth.replays,
        truth.domain_truncated
    );
    assert!(
        !truth.outcomes.is_empty(),
        "{label}: empty ground truth — the scenario never ran"
    );
    for alg in Algorithm::ALL {
        let report = conformance_against(&truth, scenario, alg, None, cfg);
        assert!(
            report.is_clean() && report.exhaustive(),
            "{label}/{}: {}\n{}\n{}",
            alg.name(),
            report.summary(),
            report.missing.join("\n"),
            report.phantom.join("\n"),
        );
        assert_eq!(
            report.matched,
            truth.outcomes.len(),
            "{label}/{}: every ground-truth outcome must be matched",
            alg.name()
        );
    }
    truth
}

// --- topology sweep under the drop failure model ---------------------------

#[test]
fn line_collect_with_drops_conforms() {
    let scenario = line_collect(3, &[0, 1], 2, false);
    let truth = assert_all_algorithms_conform("line3-drop", &scenario, &OracleConfig::default());
    // Two droppable hops: the input space is small but not degenerate.
    assert!(
        truth.outcomes.len() >= 4,
        "{} outcomes",
        truth.outcomes.len()
    );
}

#[test]
fn grid_collect_with_route_drops_conforms() {
    let scenario = grid_collect(2, 2, 4000, false);
    assert_all_algorithms_conform("grid2x2-drop", &scenario, &OracleConfig::default());
}

#[test]
fn mesh_flood_with_drops_everywhere_conforms() {
    let scenario = mesh_flood(3, 1);
    let truth = assert_all_algorithms_conform("mesh3-drop", &scenario, &OracleConfig::default());
    assert!(
        truth.outcomes.len() >= 2,
        "{} outcomes",
        truth.outcomes.len()
    );
}

#[test]
fn ring_hello_without_failures_conforms() {
    // No symbolic inputs at all: the ground truth is the single concrete
    // run, and no algorithm may invent a second one.
    let scenario = ring_hello(4);
    let truth = assert_all_algorithms_conform("ring4-none", &scenario, &OracleConfig::default());
    assert_eq!(truth.outcomes.len(), 1);
    assert_eq!(truth.assignments, 1);
}

// --- failure-model sweep ---------------------------------------------------

/// Collect on a short line with an arbitrary failure configuration.
fn line_with_failures(k: u16, packets: u16, failures: FailureConfig) -> Scenario {
    let topology = Topology::line(k);
    let cfg = CollectConfig {
        source: NodeId(k - 1),
        sink: NodeId(0),
        interval_ms: 1000,
        packet_count: packets,
        strict_sink: false,
    };
    let programs = sde::os::apps::collect::programs(&topology, &cfg);
    Scenario::new(topology, programs)
        .with_failures(failures)
        .with_duration_ms(1000 * u64::from(packets) + 2000)
        .with_history_tracking(true)
}

#[test]
fn duplicate_failure_model_conforms() {
    let failures = FailureConfig::new().with_duplicates([NodeId(0), NodeId(1)], 1);
    let scenario = line_with_failures(3, 2, failures);
    let truth =
        assert_all_algorithms_conform("line3-duplicate", &scenario, &OracleConfig::default());
    assert!(
        truth.outcomes.len() >= 2,
        "{} outcomes",
        truth.outcomes.len()
    );
}

#[test]
fn reboot_failure_model_conforms() {
    let failures = FailureConfig::new().with_reboots([NodeId(1)], 1);
    let scenario = line_with_failures(3, 2, failures);
    let truth = assert_all_algorithms_conform("line3-reboot", &scenario, &OracleConfig::default());
    assert!(
        truth.outcomes.len() >= 2,
        "{} outcomes",
        truth.outcomes.len()
    );
}

#[test]
fn mixed_failure_models_conform() {
    // Drop, duplicate and reboot budgets in one scenario: the enumeration
    // must interleave all three decision kinds correctly.
    let failures = FailureConfig::new()
        .with_drops([NodeId(0)], 1)
        .with_duplicates([NodeId(1)], 1)
        .with_reboots([NodeId(1)], 1);
    let scenario = line_with_failures(3, 2, failures);
    let truth = assert_all_algorithms_conform("line3-mixed", &scenario, &OracleConfig::default());
    assert!(
        truth.outcomes.len() >= 4,
        "{} outcomes",
        truth.outcomes.len()
    );
}

// --- extended fault-axis sweep (DESIGN.md §11) -----------------------------

/// Faultless collect on the paper's 2×2 grid — the second topology of
/// the fault-axis matrix (the first is the 3-node line).
fn grid_base() -> Scenario {
    let topology = Topology::grid(2, 2);
    let cfg = CollectConfig {
        source: NodeId(3),
        sink: NodeId(0),
        interval_ms: 1000,
        packet_count: 1,
        strict_sink: false,
    };
    let programs = sde::os::apps::collect::programs(&topology, &cfg);
    Scenario::new(topology, programs)
        .with_duration_ms(4000)
        .with_history_tracking(true)
}

/// One fault axis, layered alone on two topologies, under all three
/// algorithms: a divergence here is attributable to a single fault
/// mechanism on a single topology.
fn check_fault_axis(axis: FaultAxis) {
    for (name, base) in [
        ("line3", line_with_failures(3, 1, FailureConfig::new())),
        ("grid2x2", grid_base()),
    ] {
        let scenario = with_fault_axes(base, &[axis]);
        let label = format!("{name}-{axis}");
        let truth = assert_all_algorithms_conform(&label, &scenario, &OracleConfig::default());
        assert!(
            truth.outcomes.len() >= 2,
            "{label}: a fault axis must split the outcome set ({} outcomes)",
            truth.outcomes.len()
        );
    }
}

#[test]
fn partition_axis_conforms() {
    check_fault_axis(FaultAxis::Partition);
}

#[test]
fn latency_axis_conforms() {
    check_fault_axis(FaultAxis::Latency);
}

#[test]
fn corruption_axis_conforms() {
    check_fault_axis(FaultAxis::Corrupt);
}

#[test]
fn crash_recovery_axis_conforms() {
    check_fault_axis(FaultAxis::CrashRec);
}

#[test]
fn crash_recovery_persist_workload_conforms() {
    // The persist workload is *built* to observe the crash-recovery
    // split: a persistent boot counter and sequence high-water mark
    // against volatile mirrors. Its outcome set under the crashrec axis
    // must still enumerate exactly.
    use sde::os::apps::persist::{self, PersistConfig};
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
    let truth = assert_all_algorithms_conform(
        "line2-persist-crashrec",
        &scenario,
        &OracleConfig::default(),
    );
    assert!(
        truth.outcomes.len() >= 2,
        "{} outcomes",
        truth.outcomes.len()
    );
}

#[test]
fn truncated_fault_sweeps_are_flagged_not_silent() {
    // Corruption mints a W8 byte input (domain 256). Capping the oracle's
    // per-axis domain below that must surface as an explicit truncation
    // flag on the ground truth *and* the conformance report — a capped
    // verdict must never look like a full one.
    let scenario = with_fault_axes(
        line_with_failures(2, 1, FailureConfig::new()),
        &[FaultAxis::Corrupt],
    );
    let cfg = OracleConfig {
        domains: sde::core::oracle::Domains::new().with_max_domain(16),
        ..OracleConfig::default()
    };
    let truth = ground_truth(&scenario, &cfg);
    assert!(
        !truth.exhaustive(),
        "a 16-value cap on a 256-value byte domain must truncate"
    );
    assert!(
        truth.domain_truncated.iter().any(|n| n.contains("cor")),
        "the corruption input must be named in the truncation flags: {:?}",
        truth.domain_truncated
    );
    let report = conformance_against(&truth, &scenario, Algorithm::Sds, None, &cfg);
    assert!(
        !report.exhaustive(),
        "the conformance report must inherit the truncation: {}",
        report.summary()
    );
    assert!(!report.domain_truncated.is_empty());

    // The enumeration cap is surfaced the same way.
    let capped = OracleConfig {
        max_assignments: 3,
        ..OracleConfig::default()
    };
    let truth = ground_truth(&scenario, &capped);
    assert!(truth.truncated, "3 replays cannot cover a byte domain");
    assert!(!truth.exhaustive());
}

// --- data-symbolic workload (inputs beyond failure decisions) --------------

#[test]
fn sense_readings_conform_with_domain_hint() {
    use sde::os::apps::sense::{self, SenseConfig};
    let topology = Topology::line(2);
    let cfg = SenseConfig {
        source: NodeId(1),
        sink: NodeId(0),
        interval_ms: 1000,
        packet_count: 1,
        max_reading: 7,
        levels: 2,
        parity_guard: false,
    };
    let programs = sense::programs(&topology, &cfg);
    let scenario = Scenario::new(topology, programs)
        .with_duration_ms(3000)
        .with_history_tracking(true);
    // Enumerate past the program's own `assume(reading <= 7)` on purpose:
    // the out-of-range tail must land in `infeasible`, not in the outcome
    // set — and the symbolic side must still match exactly.
    let cfg = OracleConfig {
        domains: sde::core::oracle::Domains::new().with_hint("reading", 15),
        ..OracleConfig::default()
    };
    let truth = assert_all_algorithms_conform("line2-sense", &scenario, &cfg);
    assert_eq!(
        truth.assignments, 8,
        "readings 0..=7 are feasible: {truth:?}"
    );
    assert_eq!(truth.infeasible, 8, "readings 8..=15 fail the assume");
    assert!(
        truth.outcomes.len() < truth.assignments,
        "classification buckets the 8 feasible readings into fewer path classes"
    );
    // The `reading <= 7` bound lives in the *source's* path condition,
    // so the sink forks locally on both classification arms; the lazily
    // cross-producted dscenarios pairing globally-contradictory states
    // must be reported as unsolvable (and filtered, not replayed).
    let report = conformance_against(&truth, &scenario, Algorithm::Cob, None, &cfg);
    assert!(
        report.unsolvable > 0,
        "cross-node data constraints should make some dscenarios globally UNSAT: {}",
        report.summary()
    );
}

// --- seeded fuzz loop ------------------------------------------------------

/// splitmix64: tiny deterministic seed expander (no RNG dependency).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives a small random collect scenario from one seed: topology,
/// packet count and failure model all vary, but every input domain is
/// boolean and the node count stays tiny, so the exhaustive enumeration
/// never needs truncation and the conformance verdict is always total.
fn fuzz_scenario(seed: u64) -> (String, Scenario) {
    let mut s = seed;
    let mut next = || splitmix64(&mut s);
    let k = 2 + (next() % 2) as u16; // 2..=3 nodes
    let (topo_name, topology) = match next() % 2 {
        0 => (format!("line{k}"), Topology::line(k)),
        _ => (format!("ring{}", k + 1), Topology::ring(k + 1)),
    };
    let n = topology.len() as u16;
    let packets = 1 + (next() % 2) as u16;
    let victims: Vec<NodeId> = (0..n).filter(|_| next() % 2 == 0).map(NodeId).collect();
    let fail_name = faults::FAILURE_MODELS[(next() % 3) as usize];
    let failures = faults::failure_model(fail_name, &victims);
    let cfg = CollectConfig {
        source: NodeId(n - 1),
        sink: NodeId(0),
        interval_ms: 1000,
        packet_count: packets,
        strict_sink: false,
    };
    let programs = sde::os::apps::collect::programs(&topology, &cfg);
    let scenario = Scenario::new(topology, programs)
        .with_failures(failures)
        .with_duration_ms(1000 * u64::from(packets) + 2000)
        .with_history_tracking(true);
    let label = format!("seed{seed}:{topo_name}-{packets}pkt-{fail_name}@{victims:?}");
    (label, scenario)
}

#[test]
fn seeded_random_scenarios_conform() {
    for seed in 0..8 {
        let (label, scenario) = fuzz_scenario(seed);
        assert_all_algorithms_conform(&label, &scenario, &OracleConfig::default());
    }
}
