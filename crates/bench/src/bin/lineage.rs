//! Reads a JSONL trace (from `table1`/`fig10`/`parallel_sweep`
//! `--trace`) and reports the state-fork lineage it records: the forest
//! rooted at the k initial states, fork counts by reason, and — with
//! `--state N` — the full ancestry chain of one state.
//!
//! ```sh
//! cargo run -p sde-bench --bin lineage -- --trace out_sds.jsonl
//! cargo run -p sde-bench --bin lineage -- --trace out_sds.jsonl --state 17
//! cargo run -p sde-bench --bin lineage -- --trace out_sds.jsonl --check
//! ```
//!
//! `--check` is the CI validator: it exits non-zero unless the file
//! parses line-by-line against the event schema, the lineage forms a
//! valid forest (every mentioned state reachable from a root, children
//! allocated after parents, no state with two parents), and the trace is
//! non-empty (at least one root and one fork).

use sde_trace::{read_jsonl, ForkReason, Lineage, TraceEvent};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = sde_bench::Args::from_env();
    let state = sde_bench::or_usage(args.get::<u64>("state"));
    let Some(path) = sde_bench::or_usage(args.trace()) else {
        eprintln!("usage: lineage --trace FILE [--state N] [--check]");
        return ExitCode::FAILURE;
    };
    let events = match read_jsonl(&path) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("{}: schema error: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let lineage = match Lineage::from_events(events.iter().map(|te| &te.ev)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{}: lineage error: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = lineage.validate() {
        eprintln!("{}: lineage invariant violated: {e}", path.display());
        return ExitCode::FAILURE;
    }

    if args.flag("check") {
        // CI mode: the trace must describe an actual exploration, not an
        // empty file that vacuously satisfies the invariants.
        if lineage.fork_count() == 0 {
            eprintln!("{}: trace records no forks", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "{}: ok ({} events, {} roots, {} forks)",
            path.display(),
            events.len(),
            lineage.roots().len(),
            lineage.fork_count()
        );
        return ExitCode::SUCCESS;
    }

    println!("trace: {} ({} events)", path.display(), events.len());
    println!(
        "lineage: {} roots, {} states, {} forks",
        lineage.roots().len(),
        lineage.states().len(),
        lineage.fork_count()
    );
    for reason in ForkReason::ALL {
        let n = events
            .iter()
            .filter(|te| matches!(&te.ev, TraceEvent::Fork { reason: r, .. } if *r == reason))
            .count();
        if n > 0 {
            println!("  forks[{}] = {n}", reason.as_str());
        }
    }

    if let Some(state) = state {
        match lineage.ancestry(state) {
            None => {
                eprintln!("state {state} does not appear in the trace");
                return ExitCode::FAILURE;
            }
            Some(chain) => {
                println!("ancestry of state {state} (root first):");
                for step in chain {
                    match step.created_by {
                        None => println!("  {} (root)", step.state),
                        Some(reason) => println!("  {} <- fork[{}]", step.state, reason.as_str()),
                    }
                }
            }
        }
    }
    ExitCode::SUCCESS
}
