//! Snapshot codec robustness, property-tested: serialization is a fixed
//! point (`snapshot → bytes → decode → bytes` is byte-identical), and
//! `EngineSnapshot::from_bytes` never panics on malformed input — byte
//! flips, truncations, wrong magic, and unknown versions all surface as
//! typed [`SnapshotError`]s.

mod common;

use common::seeded::scenario_from_seed;
use proptest::prelude::*;
use sde::prelude::*;

/// A mid-run snapshot of a seed-derived scenario: pausing partway keeps
/// the queue, mapper groups, and forked states non-trivial so the codec
/// exercises every segment.
fn mid_run_snapshot(seed: u64, algorithm: Algorithm, pause_events: u64) -> EngineSnapshot {
    let (_label, scenario) = scenario_from_seed(seed);
    let mut engine = Engine::new(scenario, algorithm);
    engine.run_until(Budget::events(pause_events));
    engine.snapshot()
}

/// Recomputes the header's FNV-1a content digest over `bytes[20..]` and
/// patches it in place. Corruption tests use this to push mutated bytes
/// *past* the digest check, so the decoder's structural validation (not
/// just the checksum) is what must hold the line against panics.
fn patch_digest(bytes: &mut [u8]) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in &bytes[20..] {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    bytes[12..20].copy_from_slice(&h.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn serialization_is_a_fixed_point(
        seed in any::<u64>(),
        alg_idx in 0usize..3,
        pause in 1u64..40,
    ) {
        let algorithm = Algorithm::ALL[alg_idx];
        let snap = mid_run_snapshot(seed, algorithm, pause);
        let bytes = snap.to_bytes();
        let decoded = EngineSnapshot::from_bytes(&bytes).expect("snapshot bytes must decode");
        prop_assert_eq!(
            &bytes,
            &decoded.to_bytes(),
            "decode → re-encode must be byte-identical"
        );
        prop_assert_eq!(snap.to_debug_json(), decoded.to_debug_json());
    }

    #[test]
    fn byte_flips_never_panic(
        seed in any::<u64>(),
        pos_seed in any::<u64>(),
        xor in 1u8..255,
        fix_digest in any::<bool>(),
    ) {
        let bytes = mid_run_snapshot(seed, Algorithm::Sds, 9).to_bytes();
        let mut corrupted = bytes.clone();
        let pos = (pos_seed % corrupted.len() as u64) as usize;
        corrupted[pos] ^= xor;
        if fix_digest && corrupted.len() > 20 {
            // With the checksum patched, the decoder must survive the
            // corrupted payload on structural validation alone.
            patch_digest(&mut corrupted);
        }
        // Ok (benign flip) and Err (typed) are both fine; panicking is not.
        let _ = EngineSnapshot::from_bytes(&corrupted);
    }

    #[test]
    fn truncations_never_panic(seed in any::<u64>(), len_seed in any::<u64>()) {
        let bytes = mid_run_snapshot(seed, Algorithm::Cow, 9).to_bytes();
        let len = (len_seed % bytes.len() as u64) as usize;
        let mut truncated = bytes[..len].to_vec();
        if truncated.len() > 20 {
            patch_digest(&mut truncated);
        }
        prop_assert!(
            EngineSnapshot::from_bytes(&truncated).is_err(),
            "a truncated snapshot must never decode successfully"
        );
    }
}

#[test]
fn wrong_magic_is_a_typed_error() {
    let mut bytes = mid_run_snapshot(42, Algorithm::Cob, 5).to_bytes();
    bytes[0] ^= 0xFF;
    assert!(matches!(
        EngineSnapshot::from_bytes(&bytes),
        Err(SnapshotError::BadMagic)
    ));
    // Too short to even hold the magic: classified as truncated, not as
    // a foreign file.
    assert!(matches!(
        EngineSnapshot::from_bytes(b"short"),
        Err(SnapshotError::Codec(_))
    ));
    assert!(matches!(
        EngineSnapshot::from_bytes(b"not a snapshot at all"),
        Err(SnapshotError::BadMagic)
    ));
    // Fixed cuts, without digest patching: inside the magic, inside the
    // header after a valid magic (truncated before any digest is read),
    // and inside the body (caught by the digest).
    use sde::symbolic::CodecError;
    let bytes = mid_run_snapshot(42, Algorithm::Cow, 4).to_bytes();
    for cut in [0, 7, 12, 19, bytes.len() / 2, bytes.len() - 1] {
        let expected = match cut {
            0..20 => SnapshotError::Codec(CodecError::Truncated),
            _ => SnapshotError::DigestMismatch,
        };
        let err = EngineSnapshot::from_bytes(&bytes[..cut]).unwrap_err();
        assert_eq!(err, expected, "cut at {cut}");
    }
}

#[test]
fn unknown_version_is_a_typed_error() {
    let mut bytes = mid_run_snapshot(42, Algorithm::Cob, 5).to_bytes();
    // The version word sits at bytes 8..12, outside the content digest,
    // so no checksum patching is needed to reach the version check.
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    match EngineSnapshot::from_bytes(&bytes) {
        Err(SnapshotError::UnsupportedVersion(v)) => assert_eq!(v, 99),
        other => panic!("expected UnsupportedVersion(99), got {other:?}"),
    }
}

#[test]
fn corrupted_digest_is_a_typed_error() {
    let mut bytes = mid_run_snapshot(42, Algorithm::Cob, 5).to_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    assert!(matches!(
        EngineSnapshot::from_bytes(&bytes),
        Err(SnapshotError::DigestMismatch)
    ));
}

/// The fixtures' scenario: one packet collected over a 4-node line under
/// every fault axis, dedup on.
fn fault_line() -> Scenario {
    let scenario = common::collect(Topology::line(4), 1);
    sde_bench::with_fault_axes(scenario, &sde::net::FailureKind::AXES)
}

/// The fixtures' paused run: `fault_line` under `alg`, dedup on, paused
/// after 16 (COB) or 9 (COW, SDS) events.
fn paused_fault_line(alg: Algorithm) -> Engine {
    let pause = if alg == Algorithm::Cob { 16 } else { 9 };
    let mut engine = Engine::new(fault_line(), alg).with_dedup(true);
    assert_eq!(engine.run_until(Budget::events(pause)), RunOutcome::Paused);
    engine
}

/// The solver-bound fixtures' paused run: the 3×3 sense grid under `alg`,
/// paused after 40 events.
fn paused_sense(alg: Algorithm) -> Engine {
    let mut engine = Engine::new(sde_bench::symbolic_grid(3), alg);
    assert_eq!(engine.run_until(Budget::events(40)), RunOutcome::Paused);
    engine
}

/// Snapshots written at the commit that introduced version 7:
/// `tests/data/v7_{cob,cow,sds}.snap` (`paused_fault_line`) and
/// `tests/data/v7_sense_{cob,cow,sds}.snap` (`paused_sense`). Version 8
/// dropped model reuse's toggle, counter and cached models, and the
/// second copies of the packet and state counters, so the header alone
/// refuses each, loudly.
#[test]
fn version_7_snapshots_are_refused() {
    for prefix in ["v7", "v7_sense"] {
        for alg in Algorithm::ALL {
            let path = format!("tests/data/{prefix}_{}.snap", alg.name().to_lowercase());
            let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let err = EngineSnapshot::from_bytes(&bytes).unwrap_err();
            assert_eq!(err, SnapshotError::UnsupportedVersion(7), "{path}");
            let message = "unsupported snapshot version 7 (expected 8)";
            assert_eq!(err.to_string(), message, "{path}");
        }
    }
}

/// Snapshots written at the commit that introduced version 8, for later
/// codec changes to check as parent-written. A throwaway
/// `tests/write_fixtures.rs` added to that tree wrote each with
/// `std::fs::write(path, engine.snapshot().to_bytes())`, `engine` being
/// this file's `paused_fault_line(alg)` (`tests/data/v8_{cob,cow,sds}.snap`)
/// or `paused_sense(alg)` (`tests/data/v8_sense_{cob,cow,sds}.snap`),
/// both copied in (`cargo test --release --test write_fixtures`, from the
/// repo root).
///
/// The fault-line ones hold partition deadlines, every fault budget,
/// symbols, logged histories, executed marks, dedup counters (COB only)
/// and queued deliveries with payloads (COW, SDS); their solver caches
/// are empty (the line never queries). The sense ones hold exact-cache
/// entries.
///
/// Each must be small, decode and re-encode byte for byte, equal
/// `paused` — this commit's run at the same pause — in every field but
/// the wall clock, and resume under `scenario` to the `straight` run's
/// key, executed states and search nodes. A resumed dedup run starts with
/// a cold memo index (DESIGN.md §10), so it re-executes what the straight
/// run would replay there and mints fresh symbols; each fault-line pause
/// sits where no such replay is pending, which `states_executed`
/// confirms.
fn check_v8_fixture(path: &str, paused: Engine, scenario: Scenario, straight: RunReport) {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(bytes.len() < 64 << 10, "{path} is not small");
    let snap = EngineSnapshot::from_bytes(&bytes).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(snap.to_bytes() == bytes, "{path}: not a fixed point");
    let lines = snap.diff(&paused.snapshot());
    assert_eq!(lines, Vec::<String>::new(), "{path}");

    let resumed = Engine::resume(scenario, &snap).expect("resumes").run();
    let key = resumed.equivalence_key();
    assert_eq!(key, straight.equivalence_key(), "{path}");
    assert_eq!(resumed.states_executed, straight.states_executed, "{path}");
    let nodes = resumed.solver.nodes_visited;
    assert_eq!(nodes, straight.solver.nodes_visited, "{path}");
}

#[test]
fn v8_fault_line_snapshots_reencode_and_resume() {
    for alg in Algorithm::ALL {
        let path = format!("tests/data/v8_{}.snap", alg.name().to_lowercase());
        let straight = Engine::new(fault_line(), alg).with_dedup(true).run();
        check_v8_fixture(&path, paused_fault_line(alg), fault_line(), straight);
    }
}

#[test]
fn v8_sense_snapshots_reencode_and_resume() {
    for alg in Algorithm::ALL {
        let path = format!("tests/data/v8_sense_{}.snap", alg.name().to_lowercase());
        let straight = Engine::new(sde_bench::symbolic_grid(3), alg).run();
        let scenario = sde_bench::symbolic_grid(3);
        check_v8_fixture(&path, paused_sense(alg), scenario, straight);
    }
}

/// A snapshot holds each counter once, and holds the run's: the fork
/// counts sit in `trace.forks` alone and read what the report counts,
/// the packet and state counters sit in `packets_sent` and `next_state`
/// alone and read the report's `packets` and `total_states`, and no slot
/// repeats a report value (`trace.solver_*`, `trace.packets_sent`,
/// `trace.bugs_found`), is never set (`shrink_steps`), is never read
/// (`sharded`) or belongs to the retired UNSAT-core layer (`ucore`).
#[test]
fn snapshot_counters_are_the_runs_and_held_once() {
    let engine = paused_sense(Algorithm::Cob);
    let json = engine.snapshot().to_debug_json();
    let leaves: Vec<(&str, &str)> = (json.lines())
        .filter_map(|l| l.trim().strip_prefix('"')?.split_once("\": "))
        .map(|(path, value)| (path, value.trim_end_matches(',')))
        .collect();
    let report = engine.into_report();
    let mapping = report.trace.forks[1];
    assert!(mapping > 0, "the pause comes after mapping forks");
    let forks: Vec<_> = (leaves.iter())
        .filter(|(path, _)| path.ends_with("forks[1]"))
        .collect();
    assert_eq!(forks, [&("trace.forks[1]", &*mapping.to_string())]);
    let top = |name: &str| -> Vec<_> { leaves.iter().filter(|(path, _)| *path == name).collect() };
    assert_eq!(
        top("packets_sent"),
        [&("packets_sent", &*report.packets.to_string())]
    );
    let states = report.total_states.to_string();
    assert_eq!(top("next_state"), [&("next_state", &*states)]);
    assert!(top("next_packet").is_empty() && top("total_states").is_empty());
    for name in [
        "sharded",
        "shrink_steps",
        "ucore",
        "trace.solver_",
        "trace.packets_sent",
        "trace.bugs_found",
    ] {
        let named: Vec<_> = leaves
            .iter()
            .filter(|(path, _)| path.contains(name))
            .collect();
        assert!(named.is_empty(), "{name}: {named:?}");
    }
}

/// `EngineSnapshot::diff` names every field the snapshot carries. The
/// debug-JSON fingerprint it replaced left out partition deadlines, four
/// of the seven budgets, the shard lineage and every payload word, so
/// `snapshot --diff` called two runs that differ there "the same paused
/// run".
#[test]
fn diff_names_the_field_two_snapshots_differ_in() {
    use sde::core::NodeEvent;
    use sde::symbolic::Value;

    for alg in Algorithm::ALL {
        // The first pause with a delivery queued.
        let mut engine = Engine::new(fault_line(), alg);
        let queued = |snap: &mut EngineSnapshot| {
            (snap.parts_mut().queue.iter())
                .position(|(.., event)| matches!(event, NodeEvent::Deliver(_)))
        };
        let (good, delivery) = loop {
            assert_eq!(engine.run_until(Budget::events(1)), RunOutcome::Paused);
            let mut snap = engine.snapshot();
            if let Some(i) = queued(&mut snap) {
                break (snap, i);
            }
        };
        assert_eq!(good.diff(&good.clone()), Vec::<String>::new());
        let last = good.resident_states() - 1;
        type Edit = fn(&mut EngineSnapshot, usize, usize);
        let edits: [(&str, Edit); 4] = [
            ("partition_until", |s, last, _| {
                s.parts_mut().states[last].partition_until += 1
            }),
            ("shard_root", |s, last, _| {
                s.parts_mut().states[last].shard_root += 1
            }),
            ("core.budgets[6]", |s, last, _| {
                s.parts_mut().states[last].budgets[6] += 1
            }),
            ("payload[0]", |s, _, delivery| {
                let NodeEvent::Deliver(packet) = &mut s.parts_mut().queue[delivery].3 else {
                    unreachable!("a queued delivery")
                };
                let word = &mut packet.payload[0];
                let value = word.as_const().expect("a concrete word") ^ 1;
                *word = Value::const_(value, word.width());
            }),
        ];
        for (field, edit) in edits {
            let mut other = good.clone();
            edit(&mut other, last, delivery);
            let lines = good.diff(&other);
            assert_eq!(lines.len(), 1, "{alg}, {field}: {lines:?}");
            assert!(lines[0].contains(field), "{alg}, {field}: {lines:?}");
            assert_eq!(good.first_difference(&other).as_ref(), Some(&lines[0]));
        }
    }
}

/// Values that differ in shape are matched by field path: an item only
/// one list has shows `-` on the other side, and two mapper variants
/// compare the fields they share and list the ones they do not.
#[test]
fn diff_matches_values_of_different_shape_by_path() {
    let cob = mid_run_snapshot(3, Algorithm::Cob, 9);
    let n = cob.resident_states();
    assert!(n >= 2, "states to drop");
    let mut fewer = cob.clone();
    fewer.parts_mut().states.pop();
    for (lines, missing) in [(cob.diff(&fewer), " != -"), (fewer.diff(&cob), ": - != ")] {
        assert!(lines[0].starts_with("states.len: "), "{lines:?}");
        let item = format!("states[{}].", n - 1);
        let one_sided = |l: &String| l.starts_with(&item) && l.contains(missing);
        assert!(
            lines.len() > 2 && lines[1..].iter().all(one_sided),
            "{lines:?}"
        );
    }

    let cow = mid_run_snapshot(3, Algorithm::Cow, 9);
    let lines = cob.diff(&cow);
    assert_eq!(lines[0], r#"algorithm.kind: "Cob" != "Cow""#, "{lines:?}");
    assert!(lines.contains(&r#"mapper.kind: "Cob" != "Cow""#.to_string()));
    let only = |field: &str, side: &str| {
        (lines.iter()).any(|l| l.starts_with(&format!("mapper.{field}")) && l.contains(side))
    };
    assert!(
        only("groups", " != -") && only("dstates", ": - != "),
        "{lines:?}"
    );
    assert_eq!(cob.first_difference(&cow).as_ref(), Some(&lines[0]));
}
