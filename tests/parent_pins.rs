//! Digests captured at the commit *before* registers, memory bytes and
//! packet payloads became [`sde::symbolic::Value`]s (when they were
//! `Arc<Expr>` terms throughout), by running this file there.
//!
//! `Value` is an internal representation: every hash that feeds a digest
//! (`config_digest`, the dedup memo key, the report's `history_digest`)
//! and every byte a state writes into a snapshot must be what the term
//! representation produced. Equal pins prove that without reading a diff;
//! a change that moves one of them has changed behaviour or the wire
//! format, and must say so (and bump `SNAPSHOT_VERSION` for the latter).

mod common;

use sde::os::apps::sense;
use sde::prelude::*;
use sde::symbolic::SnapWriter;
use sde_bench::{with_fault_axes, FaultAxis};

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[track_caller]
fn assert_key(what: &str, report: &RunReport, pinned: u64) {
    let digest = fnv1a(report.equivalence_key().bytes());
    assert_eq!(
        digest, pinned,
        "{what}: equivalence key differs from the parent commit's ({digest:#018x})"
    );
}

/// All-concrete payloads through the SDS mapper: heap digests of every
/// final state, instruction and packet counts.
#[test]
fn collect_4x4_sds_key() {
    let report = Engine::new(common::grid_collect(4, 4, 6000, false), Algorithm::Sds).run();
    assert_key("collect 4x4 SDS", &report, 0x59f0_672f_ae41_c3d7);
}

/// Every send conflicts and every node relays: payload words forwarded
/// hop to hop.
#[test]
fn flood_mesh5_sds_key() {
    let report = Engine::new(common::mesh_flood(5, 2), Algorithm::Sds).run();
    assert_key("flood 5-mesh SDS", &report, 0x9113_38be_0e4d_2eac);
}

/// A symbolic payload word: terms stored to memory byte by byte, loaded
/// back, branched on and sent on.
#[test]
fn sense_3x3_cob_key() {
    let topology = Topology::grid(3, 3);
    let cfg = SenseConfig::paper_grid(3, 3);
    let scenario = Scenario::new(topology.clone(), sense::programs(&topology, &cfg))
        .with_duration_ms(cfg.interval_ms * 4);
    let report = Engine::new(scenario, Algorithm::Cob).run();
    assert!(report.solver.queries > 0, "the reading reaches the solver");
    assert_key("sense 3x3 COB", &report, 0x1429_8453_3d5d_8276);
}

/// The corruption fault axis: the engine itself XORs a fresh symbolic byte
/// into a concrete payload word.
#[test]
fn line3_cow_corrupt_key() {
    let scenario = with_fault_axes(
        common::line_collect(3, &[1], 2, false),
        &[FaultAxis::Corrupt],
    );
    let report = Engine::new(scenario, Algorithm::Cow).run();
    assert!(report.trace.forks_corrupt > 0, "the axis was exercised");
    assert_key("line-3 COW corrupt", &report, 0x3675_244a_8aae_86df);
}

/// Collect 4×4 under SDS paused after 600 events: what every resident
/// state's VM writes into a snapshot, each through a writer of its own,
/// in state-id order (283 states, 15 706 bytes).
#[test]
fn collect_4x4_sds_vm_snapshot_bytes() {
    let mut engine = Engine::new(common::grid_collect(4, 4, 6000, false), Algorithm::Sds);
    assert_ne!(
        engine.run_until(Budget::events(600)),
        RunOutcome::Complete,
        "pause point must be mid-run"
    );
    let mut states: Vec<&SdeState> = engine.states().collect();
    states.sort_unstable_by_key(|s| s.id.0);
    let mut bytes = Vec::new();
    for s in states {
        let mut w = SnapWriter::new();
        s.vm.write_snapshot(&mut w);
        bytes.extend(w.finish());
    }
    let digest = fnv1a(bytes);
    assert_eq!(
        digest, 0x75da_717e_1122_bef2,
        "VM snapshot bytes differ from the parent commit's ({digest:#018x})"
    );
}
