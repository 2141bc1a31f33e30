//! Inspect, validate and diff engine snapshot files (DESIGN.md §8).
//!
//! ```sh
//! cargo run -p sde-bench --bin snapshot -- --inspect snaps/table1_cob.snap
//! cargo run -p sde-bench --bin snapshot -- --validate snaps/table1_cob.snap
//! cargo run -p sde-bench --bin snapshot -- --diff a.snap --with b.snap
//! ```
//!
//! * `--inspect FILE` — decode and print the deterministic JSON debug
//!   form: every field the codec writes, keyed by its path
//!   (`states[3].core.partition_until`); a VM state, the solver caches and
//!   a bug report show as the size and FNV-1a of their own encoding.
//! * `--validate FILE` — decode strictly (magic, version, digest, full
//!   codec pass) and additionally check that re-encoding reproduces the
//!   file byte for byte; exits non-zero with a typed error otherwise.
//! * `--diff FILE --with FILE` — print one `path: left != right` line per
//!   field the two snapshots differ in, every field but the three
//!   wall-clock ones (`EngineSnapshot::diff`); exits 0 only when there is
//!   none.
//!
//! Exit codes: 0 ok; 1 a finding (the snapshots differ, or a file does
//! not decode or re-encode); 2 a usage error (no mode, two modes,
//! `--diff` without `--with`, an unknown flag).

use sde_bench::{load_snapshot, or_usage, Args};
use sde_core::EngineSnapshot;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::from_env();
    let inspect: Option<PathBuf> = or_usage(args.get("inspect"));
    let validate: Option<PathBuf> = or_usage(args.get("validate"));
    let diff: Option<PathBuf> = or_usage(args.get("diff"));
    let with: Option<PathBuf> = or_usage(args.get("with"));
    args.finish();

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
            let Some(b) = with else {
                eprintln!("error: --diff needs --with <FILE>");
                return ExitCode::from(2);
            };
            let (sa, sb) = match (load_snapshot(&a), load_snapshot(&b)) {
                (Ok(sa), Ok(sb)) => (sa, sb),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let differences = sa.diff(&sb);
            for line in &differences {
                println!("{line}");
            }
            if differences.is_empty() {
                println!(
                    "{} and {} describe the same paused run",
                    a.display(),
                    b.display()
                );
                ExitCode::SUCCESS
            } else {
                println!("{} field(s) differ", differences.len());
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: snapshot --inspect FILE | --validate FILE | --diff FILE --with FILE");
            ExitCode::from(2)
        }
    }
}
