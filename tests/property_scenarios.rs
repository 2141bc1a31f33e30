//! Property-based end-to-end tests: random topologies, random failure
//! placements, random workload parameters — the paper's invariants must
//! hold on all of them.
//!
//! * SDS never produces duplicate states (§III-D);
//! * COW and SDS represent exactly the same dscenario sets as COB
//!   (correctness baseline, §III-A);
//! * state counts are ordered COB ≥ COW ≥ SDS;
//! * mapper bookkeeping stays internally consistent.

#[path = "common/seeded.rs"]
mod seeded;

use proptest::prelude::*;
use sde::prelude::*;
use sde_core::Engine;
use sde_os::apps::collect::{self, CollectConfig};

#[derive(Debug, Clone)]
struct RandomScenario {
    topology_kind: u8,
    k: u16,
    drop_mask: u64,
    packets: u16,
}

fn random_scenarios() -> impl Strategy<Value = RandomScenario> {
    (0u8..4, 3u16..7, any::<u64>(), 1u16..3).prop_map(|(topology_kind, k, drop_mask, packets)| {
        RandomScenario {
            topology_kind,
            k,
            drop_mask,
            packets,
        }
    })
}

fn build(rs: &RandomScenario) -> Scenario {
    let topology = match rs.topology_kind {
        0 => Topology::line(rs.k),
        1 => Topology::ring(rs.k),
        2 => Topology::grid(2, rs.k.div_ceil(2)),
        _ => Topology::full_mesh(rs.k.min(4)),
    };
    let k = topology.len() as u16;
    let source = NodeId(k - 1);
    let sink = NodeId(0);
    let cfg = CollectConfig {
        source,
        sink,
        interval_ms: 1000,
        packet_count: rs.packets,
        strict_sink: false,
    };
    // Random subset of nodes may drop (excluding the source, which never
    // receives anything anyway).
    let drops: Vec<NodeId> = (0..k)
        .filter(|i| *i != source.0 && rs.drop_mask & (1 << (i % 64)) != 0)
        .map(NodeId)
        .collect();
    let failures = FailureConfig::new().with_drops(drops, 1);
    let programs = collect::programs(&topology, &cfg);
    Scenario::new(topology, programs)
        .with_failures(failures)
        .with_duration_ms(1000 * u64::from(rs.packets) + 2000)
        .with_history_tracking(true)
        .with_state_cap(60_000)
}

fn fingerprints(engine: &Engine) -> std::collections::BTreeSet<Vec<(u16, u64)>> {
    let mut out = std::collections::BTreeSet::new();
    for dscenario in engine.mapper().dscenarios() {
        let mut fp: Vec<(u16, u64)> = dscenario
            .iter()
            .filter_map(|id| engine.state(*id))
            .map(|s| (s.node.0, s.vm.path_digest()))
            .collect();
        fp.sort_unstable();
        out.insert(fp);
    }
    out
}

// ---------------------------------------------------------------------------
// Seeded fuzz: `seeded::scenario_from_seed` is a deterministic
// u64-seeded generator over the full topology × app × failure-model mix.
// Unlike the proptest strategies above, a failure here prints the exact
// seed, so `scenario_from_seed(<seed>)` reproduces the case in
// isolation. (The trace test suites sweep the same generator.)
// ---------------------------------------------------------------------------

use seeded::scenario_from_seed;

const FUZZ_SEEDS: u64 = 32;

/// For ≥ 32 seeds: every algorithm's sharded run is bit-identical to its
/// sequential run (worker count also seed-derived), the three algorithms
/// represent the same dscenario sets, and mapper invariants hold. On
/// failure the message leads with the seed.
#[test]
fn seeded_scenarios_are_parallel_and_algorithm_equivalent() {
    for i in 0..FUZZ_SEEDS {
        let seed = 0xc0ffee ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (label, scenario) = scenario_from_seed(seed);
        let workers = [2usize, 3, 4, 8][(seed % 4) as usize];

        let mut keys = Vec::new();
        let mut baseline: Option<std::collections::BTreeSet<Vec<(u16, u64)>>> = None;
        let mut aborted = false;
        for alg in Algorithm::ALL {
            let mut engine = Engine::new(scenario.clone(), alg);
            engine.run_in_place();
            aborted |= engine.states().count() >= scenario.state_cap;
            let fp = fingerprints(&engine);
            assert!(
                engine.mapper().check_invariants().is_none(),
                "[{label}] {alg} mapper invariants"
            );
            // dscenario-set equivalence across COB/COW/SDS (skipped when
            // any run hit the cap: partial explorations are incomparable).
            if !aborted {
                match &baseline {
                    None => baseline = Some(fp),
                    Some(b) => assert_eq!(&fp, b, "[{label}] {alg} dscenarios diverged from COB"),
                }
            }
            keys.push((alg, engine.into_report().equivalence_key()));
        }

        for (alg, seq_key) in &keys {
            let par = Engine::new(scenario.clone(), *alg).run_sharded(workers);
            assert_eq!(
                &par.equivalence_key(),
                seq_key,
                "[{label}] {alg} sharded({workers}) diverged from sequential"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sds_is_duplication_free_on_random_scenarios(rs in random_scenarios()) {
        let scenario = build(&rs);
        let report = sde_core::run(&scenario, Algorithm::Sds);
        prop_assume!(!report.aborted);
        prop_assert_eq!(report.duplicate_states, 0, "{:?}", rs);
    }

    #[test]
    fn algorithms_agree_on_random_scenarios(rs in random_scenarios()) {
        let scenario = build(&rs);
        let mut engines: Vec<Engine> = Algorithm::ALL
            .iter()
            .map(|alg| Engine::new(scenario.clone(), *alg))
            .collect();
        for e in &mut engines {
            e.run_in_place();
        }
        // Skip rare cap-aborted COB runs: partial exploration cannot be
        // compared.
        prop_assume!(engines.iter().all(|e| {
            e.states().count() < scenario.state_cap
        }));
        let baseline = fingerprints(&engines[0]);
        for e in &engines[1..] {
            prop_assert_eq!(
                &fingerprints(e),
                &baseline,
                "{} diverged on {:?}",
                e.mapper().name(),
                rs
            );
            prop_assert!(e.mapper().check_invariants().is_none());
        }
        // Size ordering.
        let counts: Vec<usize> = engines.iter().map(|e| e.states().count()).collect();
        prop_assert!(counts[0] >= counts[1], "COB {} < COW {}", counts[0], counts[1]);
        prop_assert!(counts[1] >= counts[2], "COW {} < SDS {}", counts[1], counts[2]);
    }

    #[test]
    fn replays_never_fork_on_random_scenarios(rs in random_scenarios()) {
        let scenario = build(&rs);
        let mut engine = Engine::new(scenario.clone(), Algorithm::Sds);
        engine.run_in_place();
        prop_assume!(engine.states().count() < scenario.state_cap);
        let cases = sde_core::testgen::generate(&engine, 3);
        for case in &cases.cases {
            let preset = sde::vm::Preset::from_model(&case.model, engine.symbols());
            let replay = Engine::new(scenario.clone(), Algorithm::Sds)
                .with_preset(preset)
                .run();
            prop_assert_eq!(replay.total_states, scenario.node_count(), "{:?}", rs);
        }
    }
}
