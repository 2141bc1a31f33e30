//! Conformance oracle driver: exhaustively enumerates a tiny scenario's
//! concrete input space and cross-checks the dscenario sets produced by
//! COB, COW and SDS against that ground truth (DESIGN.md §9).
//!
//! The paper claims the three mapping algorithms explore identical
//! scenario sets (§III) and that every explored path replays concretely
//! (§II-A). This bin *checks* both claims instead of assuming them:
//!
//! ```text
//! missing   = ground-truth outcomes no dscenario covers   (unsoundness)
//! phantom   = dscenario outcomes outside the ground truth (over-approx.)
//! duplicate = several dscenarios replaying to one outcome (Table 1's
//!             duplication, verified at the outcome level)
//! ```
//!
//! ```sh
//! cargo run -p sde-bench --release --bin oracle                    # tiny preset, all algorithms
//! cargo run -p sde-bench --release --bin oracle -- --preset line3
//! cargo run -p sde-bench --release --bin oracle -- --preset grid --algorithm sds
//! cargo run -p sde-bench --release --bin oracle -- --max-assignments 200
//! cargo run -p sde-bench --release --bin oracle -- --tag smoke --out bench_out
//! cargo run -p sde-bench --release --bin oracle -- --dedup    # prune symbolic runs (§10)
//! cargo run -p sde-bench --release --bin oracle -- --faults all   # per-axis fault sweep
//! cargo run -p sde-bench --release --bin oracle -- --preset line3 --faults partition,crashrec
//! ```
//!
//! `--faults` sweeps the extended fault model (DESIGN.md §11) **one
//! axis at a time**: each named axis gets its own ground-truth
//! enumeration and conformance pass on the preset scenario with only
//! that axis enabled, so a divergence is attributable to a single
//! fault mechanism. JSON labels become
//! `oracle_<preset>_<axis>_<algorithm>`.
//!
//! Presets: `tiny` (2-node line), `line3` (3-node line, 2 packets),
//! `grid` (2×2 grid, route + neighbor drops). The ground truth is
//! computed **once** and shared across the algorithms under test.
//!
//! Every truncation (enumeration cap, per-axis domain cap, testgen cap)
//! is reported explicitly on stdout and as first-class JSON fields in
//! `<out>/BENCH_oracle[_<tag>].json` — a capped verdict is a weaker
//! verdict and must never look like a full one.

use sde_bench::{
    conformance_json, or_usage, oracle_scenario, parse_algorithm, with_fault_axes,
    write_bench_json, Args,
};
use sde_core::oracle::{conformance_against, ground_truth, OracleConfig};
use sde_core::Algorithm;
use sde_net::FailureKind;

fn main() {
    let args = Args::from_env();
    let preset = or_usage(args.get_or("preset", "tiny"));
    let base = or_usage(oracle_scenario(&preset));
    let algorithms: Vec<Algorithm> = match or_usage(args.get_or("algorithm", "all")).as_str() {
        "all" => Algorithm::ALL.to_vec(),
        one => vec![or_usage(
            parse_algorithm(one).map_err(|usage| usage.replace("sds)", "sds|all)")),
        )],
    };
    let cfg = OracleConfig {
        max_assignments: or_usage(args.get("max-assignments")).unwrap_or(50_000),
        max_cases: or_usage(args.get("max-cases")).unwrap_or(4096),
        // `--dedup` prunes duplicate dispatches in the symbolic runs
        // only; the strict concrete replays stay memoization-free (a
        // preset forces dedup off), so the ground truth is unaffected.
        dedup: args.flag("dedup"),
        ..OracleConfig::default()
    };
    let out_dir = or_usage(args.out_dir());
    let tag = or_usage(args.tag());

    // `--faults partition,latency,corrupt,crashrec|all`: one full
    // ground-truth + conformance pass per axis (axis applied alone).
    // `None` marks the faultless base pass run when the flag is absent.
    let passes: Vec<Option<FailureKind>> = match or_usage(args.faults()) {
        None => vec![None],
        Some(axes) => axes.into_iter().map(Some).collect(),
    };
    args.finish();

    let mut json = Vec::new();
    let mut dirty = 0usize;
    for axis in passes {
        let scenario = with_fault_axes(base.clone(), axis.as_slice());
        let axis_name = axis.map_or("none", FailureKind::name);
        println!(
            "\nconformance oracle — preset {preset:?} ({} nodes), fault axis {axis_name}, \
             enumeration cap {} assignments, testgen cap {} cases{}",
            scenario.node_count(),
            cfg.max_assignments,
            cfg.max_cases,
            if cfg.dedup {
                " (symbolic runs prune duplicate dispatches)"
            } else {
                ""
            }
        );

        println!("enumerating ground truth (strict concrete replays)...");
        let truth = ground_truth(&scenario, &cfg);
        println!(
            "ground truth: {} distinct outcomes from {} complete assignments \
             ({} infeasible, {} replays total)",
            truth.outcomes.len(),
            truth.assignments,
            truth.infeasible,
            truth.replays
        );
        if truth.truncated {
            println!(
                "  WARNING: enumeration TRUNCATED at --max-assignments — outcome set is partial"
            );
        }
        if !truth.domain_truncated.is_empty() {
            let capped: Vec<&str> = truth.domain_truncated.iter().map(String::as_str).collect();
            println!("  WARNING: domain cap hit for: {}", capped.join(", "));
        }

        for alg in &algorithms {
            let report = conformance_against(&truth, &scenario, *alg, None, &cfg);
            println!("\n{}", report.summary());
            for line in report.missing.iter().chain(report.phantom.iter()) {
                println!("  {line}");
            }
            let verdict = match (report.is_clean(), report.exhaustive()) {
                (true, true) => "CONFORMS (exhaustive)",
                (true, false) => "conforms on the explored subset (TRUNCATED — not a full verdict)",
                (false, _) => "DIVERGES",
            };
            println!("  verdict: {verdict}");
            if !report.is_clean() {
                dirty += 1;
            }
            let label = match axis {
                None => format!("oracle_{preset}_{}", report.algorithm.to_lowercase()),
                Some(a) => format!(
                    "oracle_{preset}_{}_{}",
                    a.name(),
                    report.algorithm.to_lowercase()
                ),
            };
            json.push(conformance_json(&label, &report));
        }
    }

    let json_path = out_dir.join(format!("BENCH_oracle{tag}.json"));
    write_bench_json(&json_path, json).expect("write BENCH_oracle json");
    println!("\nrecorded: {}", json_path.display());

    if dirty > 0 {
        eprintln!("{dirty} algorithm(s) diverged from the ground truth");
        std::process::exit(1);
    }
}
