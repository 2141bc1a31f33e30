//! Property-based end-to-end tests: random topologies, random failure
//! placements, random workload parameters — the paper's invariants must
//! hold on all of them.
//!
//! * SDS never produces duplicate states (§III-D);
//! * COW and SDS represent exactly the same dscenario sets as COB
//!   (correctness baseline, §III-A);
//! * state counts are ordered COB ≥ COW ≥ SDS;
//! * mapper bookkeeping stays internally consistent.

mod common;

use common::matrix::{assert_algorithms_agree, check, dscenario_fingerprints, seeded_row, Column};
use common::random::{build, random_scenarios};
use common::seeded::seeds;
use proptest::prelude::*;
use sde::prelude::*;

/// Seeded fuzz over `seeded::scenario_from_seed`, the full topology × app
/// × failure-model mix: for 32 seeds, the sharded column (worker count
/// also seed-derived) keeps every algorithm's serial key, the three
/// algorithms represent the same dscenarios, and the mapper invariants
/// hold. Unlike the proptest strategies below, a failure prints the exact
/// seed, so `scenario_from_seed(<seed>)` reproduces the case in
/// isolation.
#[test]
fn seeded_scenarios_are_parallel_and_algorithm_equivalent() {
    for seed in seeds(0xc0ffee, 32) {
        let row = seeded_row(seed);
        assert_algorithms_agree(&row);
        let workers = [2, 3, 4, 8][(seed % 4) as usize];
        check(&[row], &Algorithm::ALL, &[Column::sharded(workers)]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sds_is_duplication_free_on_random_scenarios(rs in random_scenarios(3..7)) {
        let scenario = build(&rs);
        let report = sde_core::run(&scenario, Algorithm::Sds);
        prop_assume!(!report.aborted);
        prop_assert_eq!(report.duplicate_states, 0, "{:?}", rs);
    }

    #[test]
    fn algorithms_agree_on_random_scenarios(rs in random_scenarios(3..7)) {
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
        let baseline = dscenario_fingerprints(&engines[0]);
        for e in &engines[1..] {
            prop_assert_eq!(
                &dscenario_fingerprints(e),
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
    fn replays_never_fork_on_random_scenarios(rs in random_scenarios(3..7)) {
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
