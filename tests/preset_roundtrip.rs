//! Property tests for the model → preset → replay round-trip.
//!
//! A solver [`Model`] keys inputs by `SymId` — the global creation index,
//! which a non-forking replay does not reproduce. [`Preset::from_model`]
//! re-keys by the run-independent `(node, name, occurrence)` replay key.
//! Two properties make that translation trustworthy:
//!
//! 1. **Round-trip:** for every test case a symbolic run generates, the
//!    derived preset answers every input the replay actually requests
//!    with the model's value — and the only misses are inputs the model
//!    genuinely leaves unconstrained (a dscenario doesn't constrain what
//!    it never branched on).
//! 2. **Collision determinism:** sibling states of one lineage mint
//!    distinct `SymId`s sharing a replay key; when a (possibly merged)
//!    model constrains several of them, the latest-minted one wins —
//!    deterministically, independent of insertion order.

mod common;

use common::line_collect;
use proptest::prelude::*;
use sde::prelude::*;
use sde_core::testgen;
use sde_vm::Preset;

// ---------------------------------------------------------------------------
// 1. collision determinism, over random collision patterns
// ---------------------------------------------------------------------------

proptest! {
    /// Random batches of variables over a handful of replay keys, random
    /// subsets constrained with random values: `from_model` must pick,
    /// for every key, the value of the *latest-minted* constrained
    /// variable — whatever the sizes, overlaps and values.
    fn from_model_resolves_collisions_to_latest_minted(
        vars in proptest::collection::vec((0u16..3, 0u32..3, any::<u64>(), any::<bool>()), 1..24)
    ) {
        let mut symbols = SymbolTable::new();
        let mut model = Model::new();
        // Latest constrained var per replay key; minting order == SymId
        // order, so "latest" is simply the last constrained entry.
        let mut expect: std::collections::BTreeMap<(u16, String, u32), u64> =
            std::collections::BTreeMap::new();
        for (node, occurrence, value, constrained) in vars {
            let var = symbols.fresh_keyed("input", Width::W64, node, occurrence);
            if constrained {
                model.assign(var.id(), value);
                expect.insert(var.replay_key(), value);
            }
        }
        let preset = Preset::from_model(&model, &symbols);
        prop_assert_eq!(preset.len(), expect.len());
        for ((node, name, occ), value) in &expect {
            prop_assert_eq!(preset.get(*node, name, *occ), Some(*value));
        }
    }
}

// ---------------------------------------------------------------------------
// 2. end-to-end round-trip through the engine
// ---------------------------------------------------------------------------

/// Replays every generated test case of `scenario` with a recording
/// preset and checks each input request against the model it came from.
fn assert_cases_roundtrip(label: &str, scenario: &Scenario) {
    for alg in Algorithm::ALL {
        let mut engine = Engine::new(scenario.clone(), alg);
        engine.run_in_place();
        let report = testgen::generate(&engine, 4096);
        assert!(!report.truncated, "{label}: sweep scenarios must fit");
        for case in &report.cases {
            let preset = Preset::from_model(&case.model, engine.symbols()).recording();
            let log = preset.log().expect("recording preset has a log");
            let mut replay = Engine::new(scenario.clone(), Algorithm::Cob).with_preset(preset);
            replay.run_in_place();
            let log = log.lock().expect("request log");
            assert_eq!(
                log.requests.is_empty(),
                engine.symbols().is_empty(),
                "{label}/{} case {}: the replay consults the preset exactly when the \
                 symbolic run minted inputs",
                alg.name(),
                case.id
            );
            for request in &log.requests {
                // The model's value for this replay key is the
                // latest-minted constrained variable — mirror exactly
                // what `Preset::from_model` documents.
                let expected = engine
                    .symbols()
                    .iter()
                    .filter(|v| v.replay_key() == request.replay_key())
                    .filter_map(|v| case.model.value_of(v.id()))
                    .last();
                assert_eq!(
                    request.pinned,
                    expected,
                    "{label}/{} case {}: request {:?} disagrees with the model",
                    alg.name(),
                    case.id,
                    request.replay_key(),
                );
            }
        }
    }
}

#[test]
fn generated_cases_roundtrip_through_presets() {
    assert_cases_roundtrip("line3", &line_collect(3, &[0, 1], 2, false));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// The same round-trip over randomized drop placements and packet
    /// counts on a short line.
    fn random_scenarios_roundtrip(
        drop_mask in 0u16..8,
        packets in 1u16..3,
    ) {
        let drops: Vec<u16> = (0..3).filter(|i| drop_mask & (1 << i) != 0).collect();
        let scenario = line_collect(4, &drops, packets, false);
        assert_cases_roundtrip(&format!("line4 drops={drops:?} packets={packets}"), &scenario);
    }
}
