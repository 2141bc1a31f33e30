//! Global memory layout shared by the bundled applications.
//!
//! Node programs address a flat byte memory (zero-initialized, like a
//! Contiki node's BSS). The bundled apps place their few globals at fixed
//! offsets so tests and examples can inspect them through
//! [`sde_vm::VmState::memory_byte`].

/// Next sequence number to transmit (16-bit, collect source).
pub const SEQ: u32 = 0;

/// Count of data packets accepted at the sink (16-bit).
pub const RECEIVED: u32 = 4;

/// Next sequence number the strict sink expects (16-bit).
pub const EXPECTED: u32 = 8;

/// Count of HELLO answers heard (16-bit, hello app).
pub const NEIGHBORS: u32 = 12;

/// Count of packets this node forwarded (16-bit).
pub const FORWARDED: u32 = 16;

/// Count of packets overheard by a node that took no action (16-bit).
pub const HEARD: u32 = 20;

/// Tag of the program path taken (8-bit, fig1 app).
pub const PATH_TAG: u32 = 24;

/// Count of acknowledged requests (16-bit, pingpong client).
pub const ACKED: u32 = 28;

/// Next unserved request sequence number (16-bit, pingpong server).
pub const SERVED: u32 = 32;

/// Count of duplicate requests observed (16-bit, pingpong server).
pub const DUP_REQS: u32 = 36;

/// Count of retransmissions sent (16-bit, pingpong client).
pub const RETRIES: u32 = 40;

/// Count of readings classified below the threshold (16-bit, sense app).
pub const CLASS_LOW: u32 = 44;

/// Count of readings classified at or above the threshold (16-bit, sense
/// app).
pub const CLASS_HIGH: u32 = 48;

/// Volatile "this node believes it holds the token" flag (16-bit, token
/// app).
pub const TOKEN_OWN: u32 = 52;

/// Count of grants this node has sent (16-bit, token app).
pub const TOKEN_PASSES: u32 = 56;

/// Base of the seen-sequence bitmap (one byte per sequence number,
/// flood app).
pub const SEEN_BASE: u32 = 64;

/// Base of the persistent storage window: heap cells at
/// `[PERSIST_BASE, PERSIST_BASE + PERSIST_SIZE)` survive a
/// crash-with-recovery (`FailureConfig::with_crash_recovery`), modeling a
/// node's small flash/EEPROM region. Placed far above every volatile
/// field so the two regions can never overlap.
pub const PERSIST_BASE: u32 = 0x8000;

/// Length of the persistent storage window, in bytes.
pub const PERSIST_SIZE: u32 = 64;

/// Boot counter (16-bit, persist app): incremented by every `on_boot`,
/// lives in the persistent window so it survives crashes.
pub const BOOT_COUNT: u32 = PERSIST_BASE;

/// Crash-surviving copy of the highest sequence number seen (16-bit,
/// persist app).
pub const PERSIST_SEQ: u32 = PERSIST_BASE + 4;

/// Crash-surviving token-ownership flag (16-bit, token app). The seeded
/// bug of the token demo is precisely that a hand-off clears only the
/// volatile [`TOKEN_OWN`] mirror and forgets this cell, so a
/// crash-recovery resurrects stale ownership.
pub const PERSIST_TOKEN: u32 = PERSIST_BASE + 8;

#[cfg(test)]
mod tests {
    #[test]
    fn offsets_do_not_overlap() {
        // 16-bit fields need 2 bytes each; the bitmap starts past them.
        let fields = [
            super::SEQ,
            super::RECEIVED,
            super::EXPECTED,
            super::NEIGHBORS,
            super::FORWARDED,
            super::HEARD,
            super::PATH_TAG,
            super::ACKED,
            super::SERVED,
            super::DUP_REQS,
            super::RETRIES,
            super::CLASS_LOW,
            super::CLASS_HIGH,
            super::TOKEN_OWN,
            super::TOKEN_PASSES,
        ];
        for (i, a) in fields.iter().enumerate() {
            for b in fields.iter().skip(i + 1) {
                assert!(a.abs_diff(*b) >= 2, "fields {a} and {b} overlap");
            }
            assert!(a + 2 <= super::SEEN_BASE);
        }
    }
}
