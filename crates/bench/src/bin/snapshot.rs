//! Inspect, validate and diff engine snapshot files (DESIGN.md §8).
//!
//! ```sh
//! cargo run -p sde-bench --bin snapshot -- --inspect snaps/table1_cob.snap
//! cargo run -p sde-bench --bin snapshot -- --validate snaps/table1_cob.snap
//! cargo run -p sde-bench --bin snapshot -- --diff a.snap --with b.snap
//! ```
//!
//! * `--inspect FILE` — decode and print the deterministic JSON debug
//!   form (scenario fingerprint, progress counters, per-state table,
//!   pending events, trace key).
//! * `--validate FILE` — decode strictly (magic, version, digest, full
//!   codec pass) and additionally check that re-encoding reproduces the
//!   file byte for byte; exits non-zero with a typed error otherwise.
//! * `--diff FILE --with FILE` — compare the progress counters and
//!   deterministic digests of two snapshots, printing one line per
//!   differing field.

use sde_bench::{load_snapshot, or_usage, Args};
use sde_core::EngineSnapshot;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::from_env();
    let inspect: Option<PathBuf> = or_usage(args.get("inspect"));
    let validate: Option<PathBuf> = or_usage(args.get("validate"));
    let diff: Option<PathBuf> = or_usage(args.get("diff"));

    match (inspect, validate, diff) {
        (Some(path), None, None) => match load_snapshot(&path) {
            Ok(snap) => {
                print!("{}", snap.to_debug_json());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        (None, Some(path), None) => {
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error: {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            match EngineSnapshot::from_bytes(&bytes) {
                Ok(snap) => {
                    if snap.to_bytes() != bytes {
                        eprintln!(
                            "error: {}: decodes but does not re-encode byte-identically",
                            path.display()
                        );
                        return ExitCode::FAILURE;
                    }
                    println!(
                        "{}: OK — {} run, {} nodes, {} events in, {} resident / {} total \
                         states, {} pending events, {} bugs{}",
                        path.display(),
                        snap.algorithm(),
                        snap.node_count(),
                        snap.events_processed(),
                        snap.resident_states(),
                        snap.total_states(),
                        snap.queue_len(),
                        snap.bug_count(),
                        if snap.aborted() {
                            " (aborted at cap)"
                        } else {
                            ""
                        }
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {}: {e}", path.display());
                    ExitCode::FAILURE
                }
            }
        }
        (None, None, Some(a)) => {
            let Some(b) = or_usage(args.get::<PathBuf>("with")) else {
                eprintln!("error: --diff needs --with <FILE>");
                return ExitCode::FAILURE;
            };
            let (sa, sb) = match (load_snapshot(&a), load_snapshot(&b)) {
                (Ok(sa), Ok(sb)) => (sa, sb),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut differences = 0usize;
            let mut field = |name: &str, left: String, right: String| {
                if left != right {
                    differences += 1;
                    println!("{name}: {left} != {right}");
                }
            };
            field(
                "algorithm",
                sa.algorithm().to_string(),
                sb.algorithm().to_string(),
            );
            field(
                "nodes",
                sa.node_count().to_string(),
                sb.node_count().to_string(),
            );
            field("now", sa.now().to_string(), sb.now().to_string());
            field(
                "events_processed",
                sa.events_processed().to_string(),
                sb.events_processed().to_string(),
            );
            field(
                "instructions",
                sa.instructions().to_string(),
                sb.instructions().to_string(),
            );
            field(
                "total_states",
                sa.total_states().to_string(),
                sb.total_states().to_string(),
            );
            field(
                "resident_states",
                sa.resident_states().to_string(),
                sb.resident_states().to_string(),
            );
            field(
                "queue_len",
                sa.queue_len().to_string(),
                sb.queue_len().to_string(),
            );
            field(
                "bugs",
                sa.bug_count().to_string(),
                sb.bug_count().to_string(),
            );
            field(
                "aborted",
                sa.aborted().to_string(),
                sb.aborted().to_string(),
            );
            // The debug form covers everything deterministic (per-state
            // digests, queue, mapper, trace key); equal JSON ⇒ the
            // snapshots describe the same paused run.
            field(
                "debug_json_digest",
                format!("{:#018x}", fnv(sa.to_debug_json().as_bytes())),
                format!("{:#018x}", fnv(sb.to_debug_json().as_bytes())),
            );
            if differences == 0 {
                println!(
                    "{} and {} describe the same paused run",
                    a.display(),
                    b.display()
                );
                ExitCode::SUCCESS
            } else {
                println!("{differences} field(s) differ");
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: snapshot --inspect FILE | --validate FILE | --diff FILE --with FILE");
            ExitCode::FAILURE
        }
    }
}

/// FNV-1a, for a compact whole-document comparison line.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}
