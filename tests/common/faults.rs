//! Shared helper: canonical failure models.
//!
//! [`failure_model`] builds one of the paper's original three failure
//! models (drop / duplicate / reboot) with budget 1 on a victim set — the
//! `match failure { "drop" => ... }` blocks every suite used to duplicate.
//! The extended fault axes (partition / latency / corrupt / crashrec,
//! DESIGN.md §11) come from `sde_bench::with_fault_axes`, the one builder
//! the bins use too.

use sde::prelude::*;

/// The paper's original three failure models, in canonical order.
#[allow(dead_code)]
pub const FAILURE_MODELS: [&str; 3] = ["drop", "duplicate", "reboot"];

/// Builds the named classic failure model with budget 1 on `victims`.
///
/// # Panics
///
/// Panics on an unknown model name — a typo must fail loudly, not run a
/// silently failure-free scenario.
#[allow(dead_code)]
pub fn failure_model(name: &str, victims: &[NodeId]) -> FailureConfig {
    let victims = victims.iter().copied();
    match name {
        "drop" => FailureConfig::new().with_drops(victims, 1),
        "duplicate" => FailureConfig::new().with_duplicates(victims, 1),
        "reboot" => FailureConfig::new().with_reboots(victims, 1),
        other => panic!("unknown failure model {other:?} (expected drop|duplicate|reboot)"),
    }
}
