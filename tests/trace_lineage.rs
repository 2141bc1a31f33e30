//! Lineage invariants (property-tested): the fork events of any traced
//! run form a forest rooted at the k initial states — every final state
//! is reachable from exactly one root, no state has two parents, and
//! children are always allocated after their parents.

mod common;

use common::seeded::scenario_from_seed;
use proptest::prelude::*;
use sde::prelude::*;
use sde::trace::{Lineage, RingSink, TraceEvent, TraceSink};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fork_events_form_a_rooted_forest(seed in any::<u64>()) {
        let (label, scenario) = scenario_from_seed(seed);
        for alg in Algorithm::ALL {
            let sink = Arc::new(RingSink::default());
            let report = Engine::new(scenario.clone(), alg)
                .with_trace_sink(sink.clone() as Arc<dyn TraceSink>)
                .run();
            let events: Vec<TraceEvent> =
                sink.take().into_iter().map(|te| te.ev).collect();

            let lineage = Lineage::from_events(events.iter())
                .unwrap_or_else(|e| panic!("[{label}] {alg}: {e}"));
            // validate() checks: non-empty roots, children allocated
            // after parents, every mentioned state reachable from a
            // root. from_events() already rejected double parents.
            lineage
                .validate()
                .unwrap_or_else(|e| panic!("[{label}] {alg}: {e}"));

            // One root per scenario node, and the forest covers exactly
            // the states the report counts.
            prop_assert_eq!(
                lineage.roots().len(),
                scenario.node_count(),
                "[{}] {}: one root per node", label, alg
            );
            prop_assert_eq!(
                lineage.states().len(),
                report.total_states,
                "[{}] {}: forest covers every created state", label, alg
            );
            prop_assert_eq!(
                lineage.fork_count(),
                report.total_states - lineage.roots().len(),
                "[{}] {}: every non-root state has exactly one parent", label, alg
            );

            // Ancestry chains terminate at a root for every state.
            for state in lineage.states() {
                let chain = lineage
                    .ancestry(*state)
                    .unwrap_or_else(|| panic!("[{label}] {alg}: state {state} unreachable"));
                prop_assert!(chain[0].created_by.is_none());
                prop_assert_eq!(chain.last().unwrap().state, *state);
            }
        }
    }
}
