//! Adversarial fuzz of the snapshot codec, beyond the single-flip and
//! truncation properties of `snapshot_roundtrip.rs`: multi-byte flips,
//! region splices, varint bombs, zero-fill and truncate-then-extend —
//! each with the header checksum re-patched so the corrupted payload
//! reaches the *structural* decoder, not just the digest check.
//!
//! The properties under test:
//!
//! * `EngineSnapshot::from_bytes` never panics — every malformed input
//!   surfaces as a typed [`SnapshotError`];
//! * length prefixes are validated before allocation, so a corrupted
//!   count can never trigger a capacity panic or an absurd allocation;
//! * any corrupted input that *does* decode is a well-formed snapshot:
//!   re-encoding it and decoding again is a fixed point.

mod common;

use common::seeded::scenario_from_seed;
use proptest::prelude::*;
use sde::prelude::*;

fn mid_run_bytes(seed: u64, algorithm: Algorithm, pause_events: u64) -> Vec<u8> {
    let (_label, scenario) = scenario_from_seed(seed);
    let mut engine = Engine::new(scenario, algorithm);
    engine.run_until(Budget::events(pause_events));
    engine.snapshot().to_bytes()
}

/// Recomputes the header's FNV-1a content digest over `bytes[20..]` and
/// patches it in place, pushing the mutation past the checksum.
fn patch_digest(bytes: &mut [u8]) {
    if bytes.len() <= 20 {
        return;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in &bytes[20..] {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    bytes[12..20].copy_from_slice(&h.to_le_bytes());
}

/// Decoding must not panic; when it succeeds the decoded value must be
/// a self-consistent snapshot (encode → decode is a fixed point).
fn assert_robust(corrupted: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(decoded) = EngineSnapshot::from_bytes(corrupted) {
        let reencoded = decoded.to_bytes();
        let again = EngineSnapshot::from_bytes(&reencoded);
        prop_assert!(
            again.is_ok(),
            "a successfully decoded snapshot must re-encode decodably"
        );
        prop_assert_eq!(
            reencoded,
            again.unwrap().to_bytes(),
            "re-encode must be a fixed point"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Up to 8 independent byte flips, checksum re-patched.
    #[test]
    fn multi_byte_flips_never_panic(
        seed in any::<u64>(),
        flip_seed in any::<u64>(),
        flips in 1usize..8,
    ) {
        let mut bytes = mid_run_bytes(seed, Algorithm::Sds, 9);
        let mut rng = flip_seed;
        for _ in 0..flips {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pos = 20 + (rng % (bytes.len() as u64 - 20)) as usize;
            bytes[pos] ^= (rng >> 32) as u8 | 1;
        }
        patch_digest(&mut bytes);
        assert_robust(&bytes)?;
    }

    /// Copies one payload region over another — structural corruption
    /// that keeps every byte individually plausible.
    #[test]
    fn region_splices_never_panic(
        seed in any::<u64>(),
        src_seed in any::<u64>(),
        dst_seed in any::<u64>(),
        len in 1usize..64,
    ) {
        let mut bytes = mid_run_bytes(seed, Algorithm::Cow, 9);
        let payload = bytes.len() - 20;
        let len = len.min(payload / 2).max(1);
        let src = 20 + (src_seed % (payload - len) as u64) as usize;
        let dst = 20 + (dst_seed % (payload - len) as u64) as usize;
        let chunk = bytes[src..src + len].to_vec();
        bytes[dst..dst + len].copy_from_slice(&chunk);
        patch_digest(&mut bytes);
        assert_robust(&bytes)?;
    }

    /// Overwrites a run of payload bytes with `0xFF` — maximal varint
    /// continuation bytes, the classic length-bomb shape. The decoder's
    /// `checked_len` guard must reject the count before allocating.
    #[test]
    fn varint_bombs_never_panic_or_overallocate(
        seed in any::<u64>(),
        pos_seed in any::<u64>(),
        run in 1usize..12,
    ) {
        let mut bytes = mid_run_bytes(seed, Algorithm::Cob, 9);
        let payload = bytes.len() - 20;
        let run = run.min(payload);
        let pos = 20 + (pos_seed % (payload - run + 1) as u64) as usize;
        for b in &mut bytes[pos..pos + run] {
            *b = 0xFF;
        }
        patch_digest(&mut bytes);
        assert_robust(&bytes)?;
    }

    /// Zeroes a run of payload bytes (nulls out tags and counts).
    #[test]
    fn zero_fill_never_panics(
        seed in any::<u64>(),
        pos_seed in any::<u64>(),
        run in 1usize..48,
    ) {
        let mut bytes = mid_run_bytes(seed, Algorithm::Sds, 5);
        let payload = bytes.len() - 20;
        let run = run.min(payload);
        let pos = 20 + (pos_seed % (payload - run + 1) as u64) as usize;
        for b in &mut bytes[pos..pos + run] {
            *b = 0;
        }
        patch_digest(&mut bytes);
        assert_robust(&bytes)?;
    }

    /// Truncates the snapshot and appends random junk of the same
    /// length, so segment boundaries land mid-structure while the total
    /// length stays plausible.
    #[test]
    fn truncate_then_extend_never_panics(
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
        junk_seed in any::<u64>(),
    ) {
        let mut bytes = mid_run_bytes(seed, Algorithm::Cow, 7);
        let original = bytes.len();
        let cut = 21 + (cut_seed % (original as u64 - 21)) as usize;
        bytes.truncate(cut);
        let mut rng = junk_seed;
        while bytes.len() < original {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            bytes.push((rng >> 56) as u8);
        }
        patch_digest(&mut bytes);
        assert_robust(&bytes)?;
    }
}

/// Hand-built queues no run writes. Each decodes — the codec cannot know
/// which states are resident or which `seq`s were handed out — so
/// `Engine::resume`, which indexes the queue by state, must be the one
/// to refuse them: a typed error, not a corrupt index (such an event
/// used to be accepted and silently dropped at dispatch).
#[test]
fn resume_refuses_queues_it_cannot_index() {
    use sde::core::{NodeEvent, SnapshotError, StateId};
    use sde::symbolic::CodecError;

    let (_label, scenario) = scenario_from_seed(7);
    let mut engine = Engine::new(scenario.clone(), Algorithm::Sds);
    engine.run_until(Budget::events(9));
    let good = engine.snapshot();
    assert!(
        good.queue_len() >= 2,
        "the pause point has events to mutate"
    );
    Engine::resume(scenario.clone(), &good).expect("the unmutated snapshot resumes");

    type Edit = fn(usize, &mut u64, &mut u64, &mut StateId, &mut NodeEvent);
    let cases: [(&str, Edit, &str); 3] = [
        (
            "an event of a state that is not resident",
            |i, _, _, state, _| {
                if i == 0 {
                    *state = StateId(u64::MAX / 2);
                }
            },
            "queued event of a non-resident state",
        ),
        (
            "the same seq twice",
            |_, _, seq, _, _| *seq = 0,
            "duplicate queued event seq",
        ),
        (
            "a seq the queue has not handed out yet",
            |i, _, seq, _, _| {
                if i == 1 {
                    *seq = u64::MAX / 2;
                }
            },
            "queued event seq beyond allocator",
        ),
    ];
    for (what, edit, expected) in cases {
        let mut hostile = good.clone();
        for (i, (time, seq, state, event)) in hostile.parts_mut().queue.iter_mut().enumerate() {
            edit(i, time, seq, state, event);
        }
        // Through the wire form, as a hostile file would arrive.
        let decoded = EngineSnapshot::from_bytes(&hostile.to_bytes())
            .unwrap_or_else(|e| panic!("{what}: the codec has no reason to refuse it: {e}"));
        match Engine::resume(scenario.clone(), &decoded) {
            Err(SnapshotError::Codec(CodecError::Malformed(why))) => {
                assert_eq!(why, expected, "{what}")
            }
            Err(other) => panic!("{what}: wrong error {other}"),
            Ok(_) => panic!("{what}: resumed"),
        }
    }
}

/// Store and mapper that disagree about which states exist. Both halves
/// decode and the mapper's half is consistent in itself, so only
/// `Engine::resume` can see it — and must, or the first send after the
/// resume reaches `Store::fork`'s "fork of non-resident state" panic.
#[test]
fn resume_refuses_a_store_and_mapper_that_disagree() {
    use sde::core::{MapperSnapshot, SnapshotError};

    const UNALLOCATED: u64 = u64::MAX / 2;
    for algorithm in Algorithm::ALL {
        let (_label, scenario) = scenario_from_seed(7);
        let mut engine = Engine::new(scenario.clone(), algorithm);
        engine.run_until(Budget::events(9));
        let good = engine.snapshot();
        assert!(good.resident_states() >= 2, "{algorithm}: states to mutate");
        Engine::resume(scenario.clone(), &good).expect("the unmutated snapshot resumes");

        let mut dropped = good.clone();
        dropped.parts_mut().states.pop();
        let mut retargeted = good.clone();
        match retargeted.parts_mut().mapper {
            MapperSnapshot::Cob { groups, .. } => groups[0].1[0].1 = UNALLOCATED,
            MapperSnapshot::Cow { dstates, .. } => dstates[0].1[0].1[0] = UNALLOCATED,
            MapperSnapshot::Sds { vstates, .. } => vstates[0].1 = UNALLOCATED,
        }
        for (what, hostile) in [
            ("a state record dropped", dropped),
            ("a mapper entry retargeted to an unallocated id", retargeted),
        ] {
            // Through the wire form, as a hostile file would arrive.
            let decoded = EngineSnapshot::from_bytes(&hostile.to_bytes()).unwrap_or_else(|e| {
                panic!("{algorithm}, {what}: the codec has no reason to refuse it: {e}")
            });
            match Engine::resume(scenario.clone(), &decoded) {
                Err(SnapshotError::MapperState(_)) => {}
                Err(other) => panic!("{algorithm}, {what}: wrong error {other}"),
                Ok(_) => panic!("{algorithm}, {what}: resumed"),
            }
        }
    }
}

/// Ids a snapshot merely claims. State, group and virtual-state ids index
/// flat tables (DESIGN.md §2), so an import that sized a table from one
/// would turn `u64::MAX / 2` into a capacity-overflow panic and a smaller
/// lie into an allocation the file never paid for. Every such id is
/// bounded first by something the snapshot spends bytes on — the mapper's
/// member entries, the state records — and each case here runs twice:
/// with the absurd id and with the *smallest* id nothing backs, which a
/// "huge ids only" check would let through.
///
/// That no table grows before its bound is established by reading
/// `Engine::resume` and the three `import_snapshot`s (the bounds are
/// listed by name in DESIGN.md §8), not by instrumenting the allocator:
/// the paths contain no `try_reserve`, so a sizing that slipped through
/// would panic or abort here rather than return `Err`.
#[test]
fn resume_refuses_ids_nothing_in_the_snapshot_backs() {
    use sde::core::{MapperSnapshot, SnapshotError, StateId};
    use sde::symbolic::CodecError;

    for algorithm in Algorithm::ALL {
        let (_label, scenario) = scenario_from_seed(7);
        let mut engine = Engine::new(scenario.clone(), algorithm);
        engine.run_until(Budget::events(9));
        let good = engine.snapshot();
        Engine::resume(scenario.clone(), &good).expect("the unmutated snapshot resumes");
        // A run allocates densely and keeps every state resident.
        let states = good.resident_states() as u64;

        for absurd in [true, false] {
            let unbacked = |smallest: u64| if absurd { u64::MAX / 2 } else { smallest };

            let last = good.resident_states() - 1;
            let mut moved = good.clone();
            let parts = moved.parts_mut();
            parts.states[last].id = StateId(unbacked(states));
            *parts.next_state = unbacked(states) + 1;
            let mut record_only = good.clone();
            record_only.parts_mut().states[last].id = StateId(unbacked(states));
            let mut regrouped = good.clone();
            match regrouped.parts_mut().mapper {
                MapperSnapshot::Cob {
                    groups, next_group, ..
                } => {
                    groups.last_mut().unwrap().0 = unbacked(*next_group);
                    *next_group = unbacked(*next_group) + 1;
                }
                MapperSnapshot::Cow {
                    dstates,
                    next_group,
                    ..
                } => {
                    dstates.last_mut().unwrap().0 = unbacked(*next_group);
                    *next_group = unbacked(*next_group) + 1;
                }
                MapperSnapshot::Sds {
                    groups, next_group, ..
                } => {
                    *groups.last_mut().unwrap() = unbacked(*next_group);
                    *next_group = unbacked(*next_group) + 1;
                }
            }
            let mut executed = good.clone();
            executed.parts_mut().executed.push(unbacked(states));

            type Refusal = fn(&SnapshotError) -> bool;
            let mapper_state: Refusal = |e| matches!(e, SnapshotError::MapperState(_));
            fn beyond(e: &SnapshotError, what: &str) -> bool {
                matches!(e, SnapshotError::Codec(CodecError::Malformed(why)) if *why == what)
            }
            let record: Refusal = |e| beyond(e, "state id beyond allocator");
            let malformed: Refusal = |e| beyond(e, "executed state id beyond allocator");
            let cases: [(&str, EngineSnapshot, Refusal); 4] = [
                (
                    "a state record and the allocator moved",
                    moved,
                    mapper_state,
                ),
                ("a state record past the allocator", record_only, record),
                ("a group id past its allocator", regrouped, mapper_state),
                ("an executed mark of no state", executed, malformed),
            ];
            for (what, hostile, expected) in cases {
                // Through the wire form, as a hostile file would arrive.
                let decoded = EngineSnapshot::from_bytes(&hostile.to_bytes()).unwrap_or_else(|e| {
                    panic!("{algorithm}, {what}: the codec has no reason to refuse it: {e}")
                });
                match Engine::resume(scenario.clone(), &decoded) {
                    Err(e) if expected(&e) => {}
                    Err(other) => panic!("{algorithm}, {what} ({absurd}): wrong error {other}"),
                    Ok(_) => panic!("{algorithm}, {what} ({absurd}): resumed"),
                }
            }
        }
    }
}

/// A shard-lineage key wider than the 32 bits a state keeps it in is
/// refused by the codec, never truncated: the key is the id of a
/// subtree's first state, and a run mints fewer than 2^32 ids.
#[test]
fn a_shard_root_beyond_32_bits_is_malformed() {
    use sde::core::SnapshotError;
    use sde::symbolic::CodecError;

    let (_label, scenario) = scenario_from_seed(7);
    let mut engine = Engine::new(scenario, Algorithm::Cow);
    engine.run_until(Budget::events(9));
    let good = engine.snapshot();
    let last = good.resident_states() - 1;
    let with_root = |root: u32| {
        let mut edited = good.clone();
        edited.parts_mut().states[last].shard_root = root;
        edited.to_bytes()
    };
    // Apart in one state's key only, two five-byte varints: past the
    // header, the one differing byte is the varint's first.
    let (max, below) = (with_root(u32::MAX), with_root(u32::MAX - 1));
    assert_eq!(max.len(), below.len());
    let apart: Vec<usize> = (20..max.len()).filter(|&i| max[i] != below[i]).collect();
    let [at] = apart[..] else {
        panic!("the keys' varints differ in bytes {apart:?}")
    };
    assert_eq!(max[at..at + 5], [0xff, 0xff, 0xff, 0xff, 0x0f]);
    EngineSnapshot::from_bytes(&max).expect("u32::MAX is a key");

    let mut wider = max;
    wider[at + 4] = 0x10; // 2^32 + 2^28 − 1
    patch_digest(&mut wider);
    match EngineSnapshot::from_bytes(&wider) {
        Err(SnapshotError::Codec(CodecError::Malformed("u32 out of range"))) => {}
        other => panic!("a 33-bit shard root decoded to {other:?}"),
    }
}

/// Hand-built exact-cache entries no solver writes. The cache is keyed by
/// canonical form (DESIGN.md §6): an entry that is not its own canonical
/// form would decode, never hit, and shift the resumed run's trace
/// attribution without a word — or, with a model outside its rank table,
/// index past the group's variables on a hit. Keys ascend strictly, so
/// each cache has one encoding. `SolverSnapshot::read_from` refuses each
/// departure, naming what is wrong.
#[test]
fn solver_snapshot_refuses_exact_entries_outside_their_canonical_form() {
    use sde::symbolic::{
        CodecError, ExprRef, SnapReader, SnapWriter, SolverSnapshot, SymVar, SymbolTable,
    };

    /// One exact-cache entry on the wire: its key, its constraints and
    /// its model (`None` for UNSAT).
    type Entry = (u64, Vec<ExprRef>, Option<Model>);

    /// A solver snapshot whose only content is `entries`, one bucket of
    /// one entry each, in the order given.
    fn snapshot_with(entries: &[Entry]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        (0..7).for_each(|_| w.varint(0)); // counters
        w.bool(true); // caching
        w.varint(entries.len() as u64);
        for (key, set, model) in entries {
            w.varint(*key);
            w.varint(1); // one entry in the bucket
            w.varint(set.len() as u64);
            set.iter().for_each(|c| w.expr(c));
            match model {
                Some(m) => {
                    w.u8(1);
                    w.model(m);
                }
                None => w.u8(0),
            }
        }
        w.finish()
    }
    /// The entries of a solver's own export, read back off the wire.
    fn entries_of(solver: &Solver) -> Vec<Entry> {
        let mut w = SnapWriter::new();
        solver.export_state().write_into(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).expect("pool decodes");
        for _ in 0..7 {
            r.varint().expect("counter");
        }
        r.bool().expect("caching");
        let keys = r.varint().expect("key count");
        (0..keys)
            .map(|_| {
                let key = r.varint().expect("key");
                assert_eq!(r.varint(), Ok(1), "one entry per bucket");
                let n = r.varint().expect("set size");
                let set = (0..n).map(|_| r.expr().expect("constraint")).collect();
                let model = (r.u8() == Ok(1)).then(|| r.model().expect("model"));
                (key, set, model)
            })
            .collect()
    }
    let decode = |bytes: &[u8]| {
        let mut r = SnapReader::new(bytes).expect("pool decodes");
        SolverSnapshot::read_from(&mut r).map(|s| s.exact_entries())
    };
    let refused = |why| Err(CodecError::Malformed(why));
    let one = |set: &[ExprRef], model: Option<&Model>| {
        snapshot_with(&[(0, set.to_vec(), model.cloned())])
    };

    // The anonymous symbols of a canonical form are what a fresh table
    // mints for the empty name: ids 0, 1, … with no replay key.
    let mut anonymous = SymbolTable::new();
    let ranks: Vec<SymVar> = (0..2).map(|_| anonymous.fresh("", Width::W8)).collect();
    let [r0, r1] = [0, 1].map(|i| Expr::sym(ranks[i].clone()));
    let c8 = |v| Expr::const_(v, Width::W8);

    // Control: a solver's own export decodes, entries and all, and so
    // does its hand-built twin.
    let solver = Solver::new();
    let mut table = SymbolTable::new();
    table.fresh("pad", Width::W8);
    let x = Expr::sym(table.fresh_keyed("x", Width::W8, 3, 1));
    assert!(solver.is_sat(&PathCondition::new().with(Expr::eq(x.clone(), c8(7)))));
    assert!(solver.is_sat(&PathCondition::new().with(Expr::ult(x.clone(), c8(9)))));
    let mut w = SnapWriter::new();
    solver.export_state().write_into(&mut w);
    assert_eq!(decode(&w.finish()), Ok(2));
    let entries = entries_of(&solver);
    assert_eq!(decode(&snapshot_with(&entries)), Ok(2));

    // 1. Symbol ids that are not the dense ranks 0..k: a real, named
    //    symbol (what a v5 cache held), and a gap (rank 1 without rank 0).
    assert_eq!(
        decode(&one(&[Expr::eq(x, c8(7))], None)),
        refused("exact cache entry symbols")
    );
    assert_eq!(
        decode(&one(&[Expr::eq(r1.clone(), c8(7))], None)),
        refused("exact cache entry symbols")
    );

    // 2. Constraints out of canonical order: of the two orders of a pair,
    //    exactly one is refused for its order; the other gets as far as
    //    the key check (key 0 is not its key).
    let (a, b) = (Expr::ult(r0.clone(), r1), Expr::ne(r0.clone(), c8(9)));
    let orders = [
        decode(&one(&[a.clone(), b.clone()], None)),
        decode(&one(&[b, a], None)),
    ];
    assert!(
        orders.contains(&refused("exact cache entry order"))
            && orders.contains(&refused("exact cache entry key")),
        "{orders:?}"
    );

    // 3. A model assigning an id ≥ k (here k = 1).
    let stray: Model = [(ranks[1].id(), 3)].into_iter().collect();
    assert_eq!(
        decode(&one(&[Expr::ne(r0, c8(9))], Some(&stray))),
        refused("exact cache entry model")
    );

    // 4. Well-formed entries under keys that do not ascend strictly: the
    //    export's two in descending order, and its first one twice.
    let descending: Vec<Entry> = entries.iter().rev().cloned().collect();
    let repeated = vec![entries[0].clone(), entries[0].clone()];
    for keys in [descending, repeated] {
        assert_eq!(
            decode(&snapshot_with(&keys)),
            refused("exact cache key order")
        );
    }
}
