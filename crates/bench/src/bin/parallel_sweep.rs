//! Worker-count sweep for the sharded engine on the solver-bound
//! `sense` workload (`sde_bench::symbolic_grid`): sequential baseline,
//! then `Engine::run_sharded` (DESIGN.md §5) at 1/2/4/8 workers,
//! asserting bit-identity against the baseline at every point and
//! recording wall time, solver counters, and per-phase `ParallelStats` to
//! `bench_out/`. Workers execute disjoint frontier subtrees
//! authoritatively and the deterministic merge keeps every report
//! bit-identical to serial. The report leads with the host's core count
//! so single-core numbers (where the workers are pure overhead by
//! construction) are not misread as a design regression.
//!
//! ```sh
//! cargo run -p sde-bench --release --bin parallel_sweep
//! cargo run -p sde-bench --release --bin parallel_sweep -- --side 3 --out bench_out
//! cargo run -p sde-bench --release --bin parallel_sweep -- --trace sweep.jsonl
//! cargo run -p sde-bench --release --bin parallel_sweep -- --dedup
//! ```
//!
//! `--trace <base>` records a deterministic JSONL trace of the
//! sequential baseline and of every worker count, and asserts each one is
//! **byte-identical** to the sequential trace (a traced sharded run
//! offloads nothing, so it is the serial run).
//!
//! Every point also writes its canonical equivalence key to
//! `<out>/sweep_<alg>_{seq,wN}.key` — wall times and solver counters
//! excluded — so the files of two sweeps or two builds can be `cmp`ed.

use sde_bench::{
    grid_side, or_usage, symbolic_grid, trace_file_for, write_file, Args, Checkpointing, RunConfig,
    RunLimits,
};
use sde_core::Algorithm;
use std::fmt::Write as _;

fn main() {
    let args = Args::from_env();
    let side = or_usage(grid_side(or_usage(args.get("side")).unwrap_or(3)));
    let out_dir = or_usage(args.out_dir());
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let scenario = symbolic_grid(side);
    let serial = RunConfig {
        limits: RunLimits {
            state_cap: 200_000,
            sample_every: scenario.sample_every,
        },
        // `--dedup`: online duplicate-dispatch pruning on the merge path
        // (DESIGN.md §10). The seq-vs-sharded bit-identity assertions below
        // hold with it on: pruning decisions are made only at commit time,
        // identically at every worker count.
        dedup: args.flag("dedup"),
        trace: or_usage(args.trace()),
        ..RunConfig::default()
    };
    // Checkpoint/resume flags (DESIGN.md §8) apply to the sharded points;
    // snapshots land at `<snapshot-dir>/sweep_<alg>_w<workers>.snap`. The
    // sharded engine pauses only at the serial-merge barrier between
    // batches, so its snapshots are valid sequential pause points too.
    let checkpoint = or_usage(Checkpointing::from_args(&args, "sweep"));
    args.finish();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "sharded engine sweep — sense workload, {side}x{side} grid, host cores: {cores}"
    );
    let _ = writeln!(
        report,
        "(parallel payoff needs spare cores; with {cores} core(s) on this host, \
         speedup > 1 is {})\n",
        if cores > 1 {
            "expected"
        } else {
            "impossible — the sweep bounds the overhead instead"
        }
    );

    for alg in [Algorithm::Cow, Algorithm::Sds] {
        let alg_lower = alg.name().to_lowercase();
        let (seq, seq_events) = or_usage(serial.run(&scenario, alg, &format!("{alg_lower}_seq")))
            .expect("only a checkpointed run stops early");
        let seq_jsonl = sde_core::trace::to_jsonl(&seq_events, true);
        if let Some(base) = &serial.trace {
            let file = trace_file_for(base, &format!("{alg_lower}_seq"));
            let _ = writeln!(report, "{} seq trace: {}", alg.name(), file.display());
        }
        let key_file = |point: &str| out_dir.join(format!("sweep_{alg_lower}_{point}.key"));
        write_file(&key_file("seq"), seq.equivalence_key()).expect("write seq key");
        let _ = writeln!(
            report,
            "{} seq: wall={:.1?} states={} events={} queries={} hits={} \
             group={} search_nodes={}",
            alg.name(),
            seq.wall,
            seq.total_states,
            seq.events,
            seq.solver.queries,
            seq.solver.cache_hits,
            seq.solver.group_cache_hits,
            seq.solver.nodes_visited,
        );
        for workers in [1usize, 2, 4, 8] {
            let point = RunConfig {
                workers: Some(workers),
                checkpoint: checkpoint.clone(),
                ..serial.clone()
            };
            let label = format!("{alg_lower}_w{workers}");
            let Some((par, events)) = or_usage(point.run(&scenario, alg, &label)) else {
                continue; // interrupted by --stop-after
            };
            // Traced shard runs degenerate to serial — the trace must
            // equal the sequential one exactly (both are empty untraced).
            assert_eq!(
                sde_core::trace::to_jsonl(&events, true),
                seq_jsonl,
                "{} trace diverged from the serial trace at {workers} workers",
                alg.name()
            );
            assert_eq!(
                par.equivalence_key(),
                seq.equivalence_key(),
                "{} diverged at {workers} workers",
                alg.name()
            );
            write_file(&key_file(&format!("w{workers}")), par.equivalence_key())
                .expect("write parallel key");
            let p = par.parallel.as_ref().expect("parallel stats");
            let speedup = seq.wall.as_secs_f64() / par.wall.as_secs_f64();
            let _ = writeln!(
                report,
                "{} w={workers}: wall={:.1?} speedup={speedup:.2}x queries={} hits={} \
                 group={} | {}",
                alg.name(),
                par.wall,
                par.solver.queries,
                par.solver.cache_hits,
                par.solver.group_cache_hits,
                p.summary(),
            );
            // Where the merge thread's wall went, and what a batch hands
            // off: the sweep's own reading of its counters.
            let share = |d: std::time::Duration| {
                100.0 * d.as_secs_f64() / p.run_wall.as_secs_f64().max(f64::MIN_POSITIVE)
            };
            let per_batch = |n: u64| n as f64 / p.offloaded_batches.max(1) as f64;
            let _ = writeln!(
                report,
                "    of wall: dispatch={:.0}% barrier={:.0}% serial={:.0}% | \
                 per offloaded batch: jobs={:.1} skips={:.1} recorded={:.1} applied={:.1}",
                share(p.dispatch_wall),
                share(p.barrier_wall),
                share(p.serial_wall),
                per_batch(p.jobs),
                per_batch(p.shard_skips),
                per_batch(p.shard_recorded),
                per_batch(p.shard_applied),
            );
        }
        if serial.trace.is_some() {
            let _ = writeln!(
                report,
                "{} traces byte-identical to serial at 1/2/4/8 workers",
                alg.name()
            );
        }
        let _ = writeln!(report);
    }

    print!("{report}");
    let path = out_dir.join(format!("parallel_sweep_grid{side}.txt"));
    write_file(&path, &report).expect("write sweep report");
    println!("recorded: {}", path.display());
}
