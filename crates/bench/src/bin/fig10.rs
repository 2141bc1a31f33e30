//! Regenerates **Figure 10 (a)–(f)**: state growth and memory growth
//! over time for the 25-, 49- and 100-node scenarios under COB, COW and
//! SDS (paper §IV-B, Fig. 10).
//!
//! For each scenario size and algorithm the run emits a CSV time series
//! (`wall_ms, virtual_ms, live_states, total_states, bytes, groups`)
//! under `bench_out/` — one file per curve of the figure — plus an
//! end-of-run summary table and a machine-readable roll-up of all runs
//! (states, packets, wall-ms, solver counters) in
//! `bench_out/BENCH_fig10.json`. Plot `wall_ms` vs `total_states` for the
//! (a)/(c)/(e) panels and `wall_ms` vs `bytes` for (b)/(d)/(f).
//!
//! ```sh
//! cargo run -p sde-bench --release --bin fig10                   # 25 + 49 nodes
//! cargo run -p sde-bench --release --bin fig10 -- --nodes 100    # one size
//! cargo run -p sde-bench --release --bin fig10 -- --all          # 25 + 49 + 100
//! cargo run -p sde-bench --release --bin fig10 -- --workers 4    # sharded engine (§13)
//! cargo run -p sde-bench --release --bin fig10 -- --dedup        # duplicate pruning (§10)
//! cargo run -p sde-bench --release --bin fig10 -- --nodes 25 --trace f.jsonl
//! cargo run -p sde-bench --release --bin fig10 -- --nodes 25 --faults all

//! ```
//!
//! `--trace <path>` additionally records a structured event trace per
//! run (deterministic JSONL at `<stem>_<nodes>nodes_<alg>.jsonl` plus a
//! Chrome `trace_event` twin).

use sde_bench::{
    or_usage, paper_scenario, report_json, run_checkpointed_dedup, run_with_limits_dedup,
    run_with_limits_traced_dedup, trace_file_for, with_fault_axes, write_bench_json,
    write_series_csv, write_trace, Args, Checkpointing, FaultAxis, RunLimits, SolverLayers,
};
use sde_core::{human_bytes, Algorithm};
use std::path::PathBuf;

fn side_for(nodes: u16) -> u16 {
    match nodes {
        25 => 5,
        49 => 7,
        100 => 10,
        other => {
            let side = (f64::from(other)).sqrt() as u16;
            assert_eq!(side * side, other, "--nodes must be a square number");
            side
        }
    }
}

fn main() {
    let args = Args::from_env();
    let sizes: Vec<u16> = if let Some(n) = or_usage(args.get::<u16>("nodes")) {
        vec![n]
    } else if args.flag("all") {
        vec![25, 49, 100]
    } else {
        vec![25, 49]
    };
    let cap_cob: usize = or_usage(args.get("cap-cob")).unwrap_or(120_000);
    let cap: usize = or_usage(args.get("cap")).unwrap_or(1_000_000);
    let out_dir = PathBuf::from(
        or_usage(args.get::<String>("out")).unwrap_or_else(|| "bench_out".to_string()),
    );
    // `--workers N`: run through the sharded engine (DESIGN.md §13). The
    // CSV series are bit-identical per RunReport::equivalence_key (wall_ms
    // excepted); the extra summary line shows what the workers did.
    let workers: Option<usize> = or_usage(args.get("workers"));
    // `--dedup`: online duplicate-dispatch pruning (DESIGN.md §10); the
    // curves keep their shape (state *creation* is unchanged), execution
    // work drops.
    let dedup = args.flag("dedup");
    // `--trace <base>`: record a structured trace per run.
    let trace_base: Option<PathBuf> = or_usage(args.get::<String>("trace")).map(PathBuf::from);
    // Checkpoint/resume flags (DESIGN.md §8); snapshots land at
    // `<snapshot-dir>/fig10_<nodes>nodes_<alg>.snap`.
    let ckpt = or_usage(Checkpointing::from_args(&args));
    assert!(
        ckpt.is_none() || trace_base.is_none(),
        "--trace cannot be combined with checkpointing in this bin"
    );

    // `--faults partition,latency,corrupt,crashrec|all`: layer the
    // extended fault model (DESIGN.md §11) on top of the workload.
    let faults: Vec<FaultAxis> = or_usage(args.get::<String>("faults"))
        .map(|s| or_usage(FaultAxis::parse_list(&s)))
        .unwrap_or_default();

    let mut json = Vec::new();
    for nodes in sizes {
        let side = side_for(nodes);
        let scenario = with_fault_axes(paper_scenario(side), &faults);
        println!("== Figure 10, {nodes}-node scenario ({side}x{side}) ==");
        if !faults.is_empty() {
            println!("fault axes: {}", FaultAxis::join(&faults));
        }
        println!(
            "{:<4} | {:>12} | {:>10} | {:>12} | {:>13} | {:>8} | series file",
            "alg", "runtime", "states", "RAM (est.)", "mapper (est.)", "groups"
        );
        for alg in Algorithm::ALL {
            let state_cap = if alg == Algorithm::Cob { cap_cob } else { cap };
            let limits = RunLimits {
                state_cap,
                sample_every: 256,
            };
            let report = match (&ckpt, &trace_base) {
                (Some(ckpt), _) => {
                    let label = format!("fig10_{nodes}nodes_{}", alg.name().to_lowercase());
                    let outcome = run_checkpointed_dedup(
                        &scenario,
                        alg,
                        limits,
                        workers,
                        SolverLayers::Full,
                        dedup,
                        ckpt,
                        &label,
                    )
                    .expect("checkpointed run");
                    match outcome {
                        Some(report) => report,
                        None => continue, // interrupted by --stop-after
                    }
                }
                (None, None) => run_with_limits_dedup(
                    &scenario,
                    alg,
                    limits,
                    workers,
                    SolverLayers::Full,
                    dedup,
                ),
                (None, Some(base)) => {
                    let (report, events) = run_with_limits_traced_dedup(
                        &scenario,
                        alg,
                        limits,
                        workers,
                        SolverLayers::Full,
                        dedup,
                    );
                    let label = format!("{nodes}nodes_{}", report.algorithm.to_lowercase());
                    let trace_path = trace_file_for(base, &label);
                    write_trace(&trace_path, &events).expect("write trace");
                    println!(
                        "     | trace: {} ({} events)",
                        trace_path.display(),
                        events.len()
                    );
                    report
                }
            };
            let fault_tag = if faults.is_empty() {
                String::new()
            } else {
                format!("_faults_{}", FaultAxis::join(&faults))
            };
            let file = out_dir.join(format!(
                "fig10_{nodes}nodes_{}{fault_tag}.csv",
                report.algorithm.to_lowercase()
            ));
            write_series_csv(&report, &file).expect("write series");
            println!(
                "{:<4} | {:>12} | {:>10} | {:>12} | {:>13} | {:>8} | {}{}",
                report.algorithm,
                format!("{:.2?}", report.wall),
                report.total_states,
                human_bytes(report.final_bytes),
                human_bytes(report.mapper_bytes),
                report.groups,
                file.display(),
                if report.aborted {
                    "  (aborted at cap)"
                } else {
                    ""
                },
            );
            if let Some(p) = &report.parallel {
                println!("     | {}", p.summary());
            }
            if dedup {
                println!(
                    "     | dedup: {} (executed {} of {} states)",
                    report.dedup.summary(),
                    report.states_executed,
                    report.total_states
                );
            }
            json.push(report_json(
                &format!(
                    "fig10_{nodes}nodes_{}{fault_tag}",
                    report.algorithm.to_lowercase()
                ),
                &report,
            ));
        }
        println!();
    }
    let json_path = out_dir.join("BENCH_fig10.json");
    write_bench_json(&json_path, &json).expect("write BENCH_fig10 json");
    println!("recorded: {}", json_path.display());
    println!("plot: x = wall_ms (log), y = total_states (log) → panels (a)(c)(e)");
    println!("      x = wall_ms (log), y = bytes (log)        → panels (b)(d)(f)");
}
