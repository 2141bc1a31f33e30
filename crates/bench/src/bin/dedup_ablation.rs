//! On/off ablation for online duplicate-dispatch pruning (DESIGN.md
//! §10): every scenario × algorithm cell runs twice — dedup off, dedup
//! on — and the bin *checks* the §10 contract before recording anything:
//!
//! * identical exploration: total states, events, packets, bug set and
//!   test-case yield must match exactly;
//! * the payoff axis: states executed and VM instructions may only go
//!   down with dedup on.
//!
//! Results land in `<out>/BENCH_dedup_ablation[_<tag>].json`, one object
//! per cell with both runs' counters and the detector's stats.
//!
//! ```sh
//! cargo run -p sde-bench --release --bin dedup_ablation
//! cargo run -p sde-bench --release --bin dedup_ablation -- --side 3   # + paper 3x3 grid
//! cargo run -p sde-bench --release --bin dedup_ablation -- --out bench_out --tag smoke
//! ```

use sde_bench::{or_usage, oracle_scenario, paper_scenario, write_bench_json, Args, RunLimits};
use sde_core::{testgen, Algorithm, Engine, RunReport, Scenario};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Bug set rendered run-independently (node, kind, location).
fn bug_set(report: &RunReport) -> BTreeSet<(u16, String, String)> {
    report
        .bugs
        .iter()
        .map(|b| {
            (
                b.node.0,
                b.report.kind.to_string(),
                b.report.loc.to_string(),
            )
        })
        .collect()
}

fn run_cell(scenario: &Scenario, alg: Algorithm, dedup: bool) -> (RunReport, usize) {
    let mut engine = Engine::new(scenario.clone(), alg).with_dedup(dedup);
    engine.run_in_place();
    let cases = testgen::generate(&engine, 4096).cases.len();
    (engine.into_report(), cases)
}

fn main() {
    let args = Args::from_env();
    let out_dir = PathBuf::from(
        or_usage(args.get::<String>("out")).unwrap_or_else(|| "bench_out".to_string()),
    );
    let tag = or_usage(args.get::<String>("tag"))
        .map(|t| format!("_{t}"))
        .unwrap_or_default();

    let mut scenarios: Vec<(String, Scenario)> = ["tiny", "line3", "grid"]
        .iter()
        .map(|p| (format!("oracle_{p}"), oracle_scenario(p)))
        .collect();
    // `--side N` adds the paper's N×N evaluation grid, capped like the
    // table1 tiny preset so COB stays bounded.
    if let Some(side) = or_usage(args.get::<u16>("side")) {
        let limits = RunLimits {
            state_cap: 6_000,
            sample_every: 64,
        };
        scenarios.push((
            format!("paper_grid{side}x{side}"),
            paper_scenario(side)
                .with_state_cap(limits.state_cap)
                .with_sample_every(limits.sample_every),
        ));
    }

    println!("dedup ablation — duplicate-dispatch pruning on/off (DESIGN.md §10)\n");
    println!(
        "{:<20} {:<4} | {:>8} | {:>10} {:>10} | {:>9} {:>9} | {:>12}",
        "scenario", "alg", "states", "exec(off)", "exec(on)", "confirmed", "collide", "saved instr"
    );

    let mut json = Vec::new();
    for (label, scenario) in &scenarios {
        for alg in Algorithm::ALL {
            let (off, off_cases) = run_cell(scenario, alg, false);
            let (on, on_cases) = run_cell(scenario, alg, true);

            // The §10 contract, checked loudly before anything is recorded.
            assert_eq!(
                (off.total_states, off.events, off.packets, off.aborted),
                (on.total_states, on.events, on.packets, on.aborted),
                "[{label}] {alg}: dedup changed the exploration itself"
            );
            assert_eq!(
                bug_set(&off),
                bug_set(&on),
                "[{label}] {alg}: dedup changed the bug set"
            );
            assert_eq!(
                off_cases, on_cases,
                "[{label}] {alg}: dedup changed the test-case yield"
            );
            assert!(
                on.states_executed <= off.states_executed,
                "[{label}] {alg}: dedup executed more states ({} > {})",
                on.states_executed,
                off.states_executed
            );
            assert!(
                on.instructions <= off.instructions,
                "[{label}] {alg}: dedup executed more instructions"
            );

            let d = &on.dedup;
            println!(
                "{:<20} {:<4} | {:>8} | {:>10} {:>10} | {:>9} {:>9} | {:>12}",
                label,
                on.algorithm,
                on.total_states,
                off.states_executed,
                on.states_executed,
                d.confirmed,
                d.collisions,
                d.saved_instructions,
            );
            json.push(format!(
                concat!(
                    "  {{\n",
                    "    \"label\": \"{}\",\n",
                    "    \"algorithm\": \"{}\",\n",
                    "    \"total_states\": {},\n",
                    "    \"bugs\": {},\n",
                    "    \"test_cases\": {},\n",
                    "    \"off\": {{\n",
                    "      \"states_executed\": {},\n",
                    "      \"instructions\": {},\n",
                    "      \"wall_ms\": {:.3}\n",
                    "    }},\n",
                    "    \"on\": {{\n",
                    "      \"states_executed\": {},\n",
                    "      \"instructions\": {},\n",
                    "      \"wall_ms\": {:.3},\n",
                    "      \"candidates\": {},\n",
                    "      \"confirmed\": {},\n",
                    "      \"collisions\": {},\n",
                    "      \"pruned_states\": {},\n",
                    "      \"saved_instructions\": {}\n",
                    "    }}\n",
                    "  }}",
                ),
                label,
                on.algorithm,
                on.total_states,
                bug_set(&on).len(),
                on_cases,
                off.states_executed,
                off.instructions,
                off.wall.as_secs_f64() * 1000.0,
                on.states_executed,
                on.instructions,
                on.wall.as_secs_f64() * 1000.0,
                d.candidates,
                d.confirmed,
                d.collisions,
                d.pruned_states,
                d.saved_instructions,
            ));
        }
    }

    let json_path = out_dir.join(format!("BENCH_dedup_ablation{tag}.json"));
    write_bench_json(&json_path, &json).expect("write BENCH_dedup_ablation json");
    println!("\nall cells passed the §10 contract (identical exploration, reduced execution)");
    println!("recorded: {}", json_path.display());
}
