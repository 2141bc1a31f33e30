//! Regenerates **Table I**: runtime, state count and memory for the
//! 100-node scenario under COB, COW and SDS (paper §IV-B).
//!
//! The paper's row shape to reproduce:
//!
//! ```text
//! COB   9h39m (aborted)   1,025,700   38.1 GB
//! COW   1h38m                30,464    3.4 GB
//! SDS     19m                 4,159    1.6 GB
//! ```
//!
//! i.e. COB must hit the abort cap, COW lands orders of magnitude lower,
//! SDS lower still — absolute numbers differ (our substrate is a fresh
//! simulator, not the authors' testbed; see DESIGN.md).
//!
//! ```sh
//! cargo run -p sde-bench --release --bin table1              # 10×10, capped COB
//! cargo run -p sde-bench --release --bin table1 -- --side 7  # smaller grid
//! cargo run -p sde-bench --release --bin table1 -- --cap 500000
//! cargo run -p sde-bench --release --bin table1 -- --complexity
//! cargo run -p sde-bench --release --bin table1 -- --workers 4   # sharded engine (§13)
//! cargo run -p sde-bench --release --bin table1 -- --dedup       # duplicate pruning (§10)
//! cargo run -p sde-bench --release --bin table1 -- --preset tiny # CI smoke (3×3)
//! cargo run -p sde-bench --release --bin table1 -- --preset tiny --faults all
//! cargo run -p sde-bench --release --bin table1 -- --faults partition,crashrec
//! cargo run -p sde-bench --release --bin table1 -- --layers exact --tag layers_exact
//! cargo run -p sde-bench --release --bin table1 -- --preset tiny --trace out.jsonl
//! cargo run -p sde-bench --release --bin table1 -- --preset tiny --testgen 64
//! cargo run -p sde-bench --release --bin table1 -- --preset tiny --check  # invariants (§12)
//! cargo run -p sde-bench --release --bin table1 -- --preset tiny --checkpoint-every 5 \
//!     --snapshot-dir snaps --stop-after 1       # interrupt after the first snapshot
//! cargo run -p sde-bench --release --bin table1 -- --preset tiny --checkpoint-every 5 \
//!     --snapshot-dir snaps --resume snaps       # resume; JSON matches a straight run
//! ```
//!
//! `--trace <path>` records a structured event trace per algorithm
//! (deterministic JSONL at `<stem>_<alg>.jsonl` plus a Chrome
//! `trace_event` twin); inspect it with the `lineage` bin.
//!
//! Every invocation also writes the rows as machine-readable JSON
//! (states, packets, wall-ms, full solver counters per run) to
//! `<out>/BENCH_table1[_<tag>].json`.

use sde_bench::{
    grid_side, or_usage, paper_scenario, report_json, symbolic_grid, table_header, testgen_json,
    trace_file_for, vm_hwm_bytes, with_fault_axes, write_bench_json, Args, Checkpointing,
    FaultAxis, RunConfig, RunLimits, SolverLayers,
};
use sde_core::complexity::WorstCase;
use sde_core::{Algorithm, Engine};

/// What `--help` prints: every flag `main` reads, with its default.
const USAGE: &str = "\
table1 — Table I rows (wall, states, RAM) for COB, COW and SDS

  --side N             grid side (default 10; 3 under --preset tiny)
  --preset tiny        seconds-scale 3×3 smoke run, small caps
  --scenario collect|sense
                       the paper's collect workload (default) or the
                       solver-bound sense companion
  --cap N, --cap-cob N state caps: COW/SDS (default 1000000), COB (120000)
  --sample-every N     statistics sample period in events (default 512)
  --workers N          run through the sharded engine with N workers
                       (DESIGN.md §13; reports unchanged)
  --dedup              online duplicate-dispatch pruning (DESIGN.md §10)
  --layers full|exact|off
                       solver stack (DESIGN.md §6). `full` is the engine.
                       `exact` (whole-query matching only) and `off` (no
                       caching) are ablation points: every solve runs on
                       terms rebuilt from the query's canonical form, hit
                       or miss, which costs 1.4–1.7× a query against the
                       plain solve they stood for before (criterion
                       `solver/layers`, EXPERIMENTS.md) — for measuring
                       the layers, not for running experiments
  --faults LIST        partition,latency,corrupt,crashrec or all (§11)
  --trace PATH         JSONL + Chrome trace per algorithm
  --testgen N          generate up to N test cases per algorithm
  --check              evaluate the invariant set (DESIGN.md §12)
  --complexity         print the worst-case state-count model
  --checkpoint-every N --snapshot-dir D [--stop-after S] [--resume PATH]
                       checkpoint / resume (DESIGN.md §8)
  --out DIR, --tag T   BENCH_table1[_T].json lands in DIR (default bench_out)
";

fn main() {
    let args = Args::from_env();
    if args.flag("help") {
        print!("{USAGE}");
        return;
    }
    // `--preset tiny`: a seconds-scale 3×3 run for CI smoke tests — same
    // code path, same JSON schema, much smaller caps.
    let tiny = match or_usage(args.get::<String>("preset")).as_deref() {
        None => false,
        Some("tiny") => true,
        Some(other) => or_usage(Err(format!("unknown --preset {other:?} (expected: tiny)"))),
    };
    let side = or_usage(args.get("side")).unwrap_or(if tiny { 3 } else { 10 });
    let side = or_usage(grid_side(side));
    // COB explodes exponentially — the cap stands in for the paper's
    // 40 GB abort. COW/SDS get more head-room so they can finish, as
    // they did in the paper (only COB was ever aborted).
    let cap_cob: usize =
        or_usage(args.get("cap-cob")).unwrap_or(if tiny { 6_000 } else { 120_000 });
    let cap: usize = or_usage(args.get("cap")).unwrap_or(if tiny { 60_000 } else { 1_000_000 });
    let cap_for = |alg: Algorithm| if alg == Algorithm::Cob { cap_cob } else { cap };
    let sample_every: u64 =
        or_usage(args.get("sample-every")).unwrap_or(if tiny { 64 } else { 512 });
    // `--dedup`: online duplicate-dispatch pruning (DESIGN.md §10) —
    // same states, bugs and test cases, fewer states *executed*.
    let dedup = args.flag("dedup");
    // `--layers full|exact|off`: the incremental-solver-stack ablation
    // axis (DESIGN.md §6); `--tag` suffixes the JSON filename so sweeps
    // with different layer settings land in distinct files.
    let layers = or_usage(
        args.get_or("layers", "full")
            .and_then(|l| SolverLayers::parse(&l)),
    );
    let mut run = RunConfig {
        // `--workers N`: run through the sharded engine (DESIGN.md §13);
        // reports stay bit-identical.
        workers: or_usage(args.get("workers")),
        layers,
        dedup,
        // `--trace <base>`: record a structured trace per algorithm.
        trace: or_usage(args.trace()),
        // `--checkpoint-every N --snapshot-dir D --resume PATH --stop-after
        // S`: checkpoint/resume (DESIGN.md §8). Snapshots land at
        // `<snapshot-dir>/table1_<alg>.snap`; the resumed run's JSON is
        // equivalence-key-identical to an uninterrupted one.
        checkpoint: or_usage(Checkpointing::from_args(&args, "table1")),
        ..RunConfig::default()
    };
    let out_dir = or_usage(args.out_dir());
    let tag = or_usage(args.tag());
    // `--scenario collect|sense`: Table I proper runs the paper's collect
    // workload (whose drop forks never consult the solver); `sense` swaps
    // in the solver-bound companion workload so the `--layers` sweep has
    // real queries to ablate.
    let workload = or_usage(args.get_or("scenario", "collect"));
    // `--faults partition,latency,corrupt,crashrec|all`: layer the
    // extended fault model (DESIGN.md §11) on top of the workload.
    let faults = or_usage(args.faults()).unwrap_or_default();
    let scenario = match workload.as_str() {
        "collect" => paper_scenario(side),
        "sense" => symbolic_grid(side),
        other => or_usage(Err(format!(
            "unknown --scenario {other:?} (expected collect or sense)"
        ))),
    };
    let scenario = with_fault_axes(scenario, &faults);
    println!(
        "Table I — {}-node scenario ({side}x{side} grid), {workload} workload",
        scenario.node_count()
    );
    if !faults.is_empty() {
        println!("fault axes: {}", FaultAxis::join(&faults));
    }
    println!(
        "state caps (40 GB-limit analogue): COB {cap_cob}, COW/SDS {cap}; \
         solver layers: {}\n",
        layers.name()
    );
    println!("{}", table_header());
    println!("-----+--------------+------------+--------------+---------------+----------");

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut interrupted = 0usize;
    for alg in Algorithm::ALL {
        run.limits = RunLimits {
            state_cap: cap_for(alg),
            sample_every,
        };
        let alg_label = alg.name().to_lowercase();
        let Some((report, events)) = or_usage(run.run(&scenario, alg, &alg_label)) else {
            // Interrupted by --stop-after: the snapshot on disk carries
            // the progress; resume with `--resume <snapshot-dir>`.
            interrupted += 1;
            continue;
        };
        println!("{}", report.table_row());
        if let Some(hwm) = vm_hwm_bytes() {
            println!(
                "     | measured: process VmHWM {} after this row",
                sde_core::human_bytes(hwm)
            );
        }
        if let Some(base) = &run.trace {
            println!(
                "     | trace: {} ({} events, {} forks)",
                trace_file_for(base, &alg_label).display(),
                events.len(),
                report.trace.forks_total()
            );
        }
        let s = &report.solver;
        println!(
            "     | solver: queries={} exact={} group={} reuse={} ucore={} nodes={}",
            s.queries,
            s.cache_hits,
            s.group_cache_hits,
            s.model_reuse_hits,
            s.ucore_hits,
            s.nodes_visited
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
        let label = format!(
            "table1_{workload}_side{side}_{}_{}{}{}",
            report.algorithm.to_lowercase(),
            layers.name(),
            if dedup { "_dedup" } else { "" },
            if faults.is_empty() {
                String::new()
            } else {
                format!("_faults_{}", FaultAxis::join(&faults))
            }
        );
        json.push(report_json(&label, &report));
        rows.push(report);
    }
    // `--testgen` and `--check` inspect a run's final states, which a
    // report no longer holds: each explores the scenario again and keeps
    // the engine.
    let explored = |alg: Algorithm| {
        let mut engine =
            Engine::new(scenario.clone().with_state_cap(cap_for(alg)), alg).with_dedup(dedup);
        engine.run_in_place();
        engine
    };
    // `--testgen N`: after the table rows, run §II-A test-case generation
    // per algorithm (fresh engine on the same scenario) and record the
    // yield — with the truncation flag spelled out in both renderings,
    // so a capped generation pass can never pass for a complete one.
    if let Some(limit) = or_usage(args.get::<usize>("testgen")) {
        println!("\ntest-case generation (--testgen {limit}):");
        for alg in Algorithm::ALL {
            let tg = sde_core::testgen::generate(&explored(alg), limit);
            println!(
                "  {:4} | {} cases from {} dscenarios ({} unsolvable){}",
                alg.name(),
                tg.cases.len(),
                tg.dscenarios_seen,
                tg.unsolvable,
                if tg.truncated {
                    " [TRUNCATED at --testgen limit]"
                } else {
                    ""
                }
            );
            let label = format!(
                "table1_testgen_{workload}_side{side}_{}",
                alg.name().to_lowercase()
            );
            json.push(testgen_json(&label, &tg));
        }
    }

    // `--check`: re-run each algorithm with the workload's invariants
    // (DESIGN.md §12) and report violations. The collect/sense
    // invariants hold, so any violation is an engine bug; the process
    // exits nonzero to make that failure impossible to miss in CI.
    let mut check_violations = 0usize;
    if args.flag("check") {
        let source = sde_net::NodeId(side * side - 1);
        let sink = sde_net::NodeId(0);
        println!("\ninvariant check (--check, sink-within-source):");
        for alg in Algorithm::ALL {
            let engine = explored(alg);
            let checker = sde_bench::workload_checker(source, sink);
            let violations = checker.check(&engine);
            println!(
                "  {:4} | {} violation(s) across {} state(s)",
                alg.name(),
                violations.len(),
                engine.states().count(),
            );
            for v in &violations {
                println!(
                    "       | {} (digest {:#018x}, {} witness entries)",
                    v.report,
                    v.digest(),
                    v.witness_entries()
                );
            }
            check_violations += violations.len();
        }
    }

    let json_path = out_dir.join(format!("BENCH_table1{tag}.json"));
    write_bench_json(&json_path, &json).expect("write BENCH_table1 json");
    println!("\nrecorded: {}", json_path.display());

    if interrupted > 0 {
        println!(
            "{interrupted} run(s) interrupted by --stop-after; shape checks skipped \
             (resume with --resume <snapshot-dir>)"
        );
        return;
    }
    let (cob, cow, sds) = (&rows[0], &rows[1], &rows[2]);
    println!("\nshape checks against the paper:");
    println!(
        "  COB aborted at the cap: {} (paper: aborted at the memory limit)",
        cob.aborted
    );
    // When a run was aborted its counts are lower bounds; say so instead
    // of printing a misleading ratio.
    let ratio = |num: &sde_core::RunReport,
                 den: &sde_core::RunReport,
                 f: fn(&sde_core::RunReport) -> f64| {
        let r = f(num) / f(den);
        match (num.aborted, den.aborted) {
            (false, false) => format!("{r:.1}x"),
            (true, false) => format!(">= {r:.1}x (numerator aborted)"),
            (false, true) => format!("<= {r:.1}x (denominator aborted)"),
            (true, true) => "n/a (both aborted)".to_string(),
        }
    };
    let states = |r: &sde_core::RunReport| r.total_states as f64;
    let bytes = |r: &sde_core::RunReport| r.final_bytes as f64;
    println!(
        "  states   COB/COW = {}, COW/SDS = {} (paper: 33.7x, 7.3x)",
        ratio(cob, cow, states),
        ratio(cow, sds, states),
    );
    println!(
        "  memory   COB/COW = {}, COW/SDS = {} (paper: 11.2x, 2.1x)",
        ratio(cob, cow, bytes),
        ratio(cow, sds, bytes),
    );
    println!(
        "  SDS duplicates: {} (must be 0 per §III-D)",
        sds.duplicate_states
    );

    if args.flag("complexity") {
        let k = u32::from(side) * u32::from(side);
        let model = WorstCase::new(k);
        println!("\n§III-E worst-case bound for k = {k}:");
        for u in [1u64, 2, 5, 10] {
            println!(
                "  u = {u:>2}: D(u) = {} dscenarios, I(u) = 2^{} instructions",
                model.dscenarios_through(u),
                u64::from(k) * u
            );
        }
        println!("(measured COB stays astronomically below the bound: real programs");
        println!(" branch only at symbolic inputs, not at every instruction.)");
    }

    if check_violations > 0 {
        eprintln!("table1: {check_violations} invariant violation(s) — failing the run");
        std::process::exit(1);
    }
}
