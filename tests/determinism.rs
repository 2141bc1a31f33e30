//! Determinism: two runs of the same scenario under the same algorithm
//! explore identical state sets — the repeat column of the strategy
//! matrix (`tests/common/matrix.rs`), whose key covers every state's id
//! and configuration digest. Replay correctness (and the whole "concrete
//! test case" story, §II-A) depends on it.

mod common;

use common::matrix::{check, Row, SERIAL};
use common::{grid_collect, line_collect};
use sde::prelude::*;

#[test]
fn repeated_runs_are_identical() {
    let row = Row::new("grid3x3-route-5s", grid_collect(3, 3, 5000, false));
    check(&[row], &Algorithm::ALL, &[SERIAL]);
}

#[test]
fn reports_are_reproducible_modulo_wall_clock() {
    let row = Row::new("line4-drop1+2", line_collect(4, &[1, 2], 2, false));
    check(&[row], &[Algorithm::Sds], &[SERIAL]);
}

#[test]
fn testgen_is_reproducible() {
    let scenario = line_collect(4, &[1, 2], 2, false);
    let cases = || {
        let mut engine = Engine::new(scenario.clone(), Algorithm::Sds);
        engine.run_in_place();
        let mut keys: Vec<String> = sde_core::testgen::generate(&engine, 100)
            .cases
            .iter()
            .map(|c| {
                let inputs = c.nodes.iter().flat_map(|n| {
                    n.inputs
                        .iter()
                        .map(move |(k, val)| format!("{}:{k}={val}", n.node))
                });
                let mut inputs: Vec<String> = inputs.collect();
                inputs.sort();
                inputs.join(",")
            })
            .collect();
        keys.sort();
        keys
    };
    assert_eq!(cases(), cases());
}
