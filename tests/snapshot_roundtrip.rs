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
