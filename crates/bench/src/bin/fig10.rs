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
//! cargo run -p sde-bench --release --bin fig10 -- --workers 4    # sharded engine (§5)
//! cargo run -p sde-bench --release --bin fig10 -- --dedup        # duplicate pruning (§10)
//! cargo run -p sde-bench --release --bin fig10 -- --nodes 25 --trace f.jsonl
//! cargo run -p sde-bench --release --bin fig10 -- --nodes 25 --faults all
//! ```
//!
//! `--trace <path>` additionally records a structured event trace per
//! run (deterministic JSONL at `<stem>_<nodes>nodes_<alg>.jsonl` plus a
//! Chrome `trace_event` twin).

use sde_bench::{
    join_axes, or_usage, paper_scenario, report_json, trace_file_for, with_fault_axes,
    write_bench_json, write_file, Args, Checkpointing, RunConfig, RunLimits,
};
use sde_core::{human_bytes, Algorithm};

/// The grid side of an `n`-node square scenario.
fn side_for(nodes: u16) -> Result<u16, String> {
    let side = f64::from(nodes).sqrt() as u16;
    if side > 0 && side * side == nodes {
        Ok(side)
    } else {
        Err(format!(
            "invalid --nodes {nodes} (expected a square number, e.g. 25, 49 or 100)"
        ))
    }
}

fn main() {
    let args = Args::from_env();
    let all = args.flag("all");
    let sizes: Vec<u16> = if let Some(n) = or_usage(args.get::<u16>("nodes")) {
        vec![n]
    } else if all {
        vec![25, 49, 100]
    } else {
        vec![25, 49]
    };
    let sides: Vec<u16> = sizes.iter().map(|&n| or_usage(side_for(n))).collect();
    let cap_cob: usize = or_usage(args.get("cap-cob")).unwrap_or(120_000);
    let cap: usize = or_usage(args.get("cap")).unwrap_or(1_000_000);
    let out_dir = or_usage(args.out_dir());
    let mut run = RunConfig {
        // `--workers N`: run through the sharded engine (DESIGN.md §5).
        // The CSV series are bit-identical per RunReport::equivalence_key
        // (wall_ms excepted); the extra summary line shows what the
        // workers did.
        workers: or_usage(args.get("workers")),
        // `--dedup`: online duplicate-dispatch pruning (DESIGN.md §10); the
        // curves keep their shape (state *creation* is unchanged),
        // execution work drops.
        dedup: args.flag("dedup"),
        // `--trace <base>`: record a structured trace per run.
        trace: or_usage(args.trace()),
        // Checkpoint/resume flags (DESIGN.md §8); snapshots land at
        // `<snapshot-dir>/fig10_<nodes>nodes_<alg>.snap`.
        checkpoint: or_usage(Checkpointing::from_args(&args, "fig10")),
        ..RunConfig::default()
    };
    // `--faults partition,latency,corrupt,crashrec|all`: layer the
    // extended fault model (DESIGN.md §11) on top of the workload.
    let faults = or_usage(args.faults()).unwrap_or_default();
    args.finish();
    let fault_tag = if faults.is_empty() {
        String::new()
    } else {
        format!("_faults_{}", join_axes(&faults))
    };

    let mut json = Vec::new();
    for (nodes, side) in sizes.into_iter().zip(sides) {
        let scenario = with_fault_axes(paper_scenario(side), &faults);
        println!("== Figure 10, {nodes}-node scenario ({side}x{side}) ==");
        if !faults.is_empty() {
            println!("fault axes: {}", join_axes(&faults));
        }
        println!(
            "{:<4} | {:>12} | {:>10} | {:>12} | {:>13} | {:>8} | series file",
            "alg", "runtime", "states", "RAM (est.)", "mapper (est.)", "groups"
        );
        for alg in Algorithm::ALL {
            run.limits = RunLimits {
                state_cap: if alg == Algorithm::Cob { cap_cob } else { cap },
                sample_every: 256,
            };
            let label = format!("{nodes}nodes_{}", alg.name().to_lowercase());
            let Some((report, events)) = or_usage(run.run(&scenario, alg, &label)) else {
                continue; // interrupted by --stop-after
            };
            if let Some(base) = &run.trace {
                println!(
                    "     | trace: {} ({} events)",
                    trace_file_for(base, &label).display(),
                    events.len()
                );
            }
            let file = out_dir.join(format!("fig10_{label}{fault_tag}.csv"));
            write_file(&file, report.series.to_csv()).expect("write series");
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
            if run.dedup {
                println!(
                    "     | dedup: {} (executed {} of {} states)",
                    report.dedup.summary(),
                    report.states_executed,
                    report.total_states
                );
            }
            json.push(report_json(&format!("fig10_{label}{fault_tag}"), &report));
        }
        println!();
    }
    let json_path = out_dir.join("BENCH_fig10.json");
    write_bench_json(&json_path, json).expect("write BENCH_fig10 json");
    println!("recorded: {}", json_path.display());
    println!("plot: x = wall_ms (log), y = total_states (log) → panels (a)(c)(e)");
    println!("      x = wall_ms (log), y = bytes (log)        → panels (b)(d)(f)");
}
