//! Invariant violation finder / replayer with minimized repro artifacts
//! (DESIGN.md §12, EXPERIMENTS.md "Minimized repro artifacts").
//!
//! **Check mode** — explore a demo workload, check its invariants,
//! ddmin-shrink the first violation and (optionally) emit a
//! self-contained JSON repro artifact:
//!
//! ```text
//! cargo run -p sde-bench --release --bin repro -- \
//!     --demo token --faults all --check --emit bench_out/token.repro.json
//! ```
//!
//! Exits **1** when a violation was found (the artifact carries the
//! minimal witness), **0** when every invariant held (`--emit` then
//! writes an empty report), and **2** when the artifact cannot be
//! written — IO failures never surface as a panic's exit 101, the
//! 0/1/2 contract is total. `--fixed` runs the repaired token protocol;
//! `--demo persist` is the holding negative control.
//!
//! **Replay mode** — rebuild the scenario from an artifact, replay the
//! witness through the strict preset path and diff the violation digest:
//!
//! ```text
//! cargo run -p sde-bench --release --bin repro -- --replay bench_out/token.repro.json
//! ```
//!
//! Exits **0** iff the artifact reproduces the recorded violation with
//! the same digest, **2** otherwise.
//!
//! The artifact is a JSON array of flat objects: a header (scenario
//! fingerprint, fault axes, durations, bug digest) followed by one
//! object per witness entry. `--workers N` runs the exploration phase
//! through the sharded engine — traced, so it offloads nothing (DESIGN.md
//! §13) — and minimization replays are serial, so artifacts are
//! byte-identical for any worker count.

use sde_bench::{
    demo, or_usage, parse_algorithm, render_artifact, with_fault_axes, write_file, Args, FaultAxis,
};
use sde_core::check;
use sde_core::minimize::Minimizer;
use sde_core::oracle::Assignment;
use sde_core::{Engine, Scenario};
use sde_trace::{parse_flat_object, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::from_env();
    if let Some(path) = or_usage(args.get::<String>("replay")) {
        return replay(Path::new(&path));
    }
    checkrun(&args)
}

// ---------------------------------------------------------------------------
// check mode
// ---------------------------------------------------------------------------

fn checkrun(args: &Args) -> ExitCode {
    let demo_name = or_usage(args.get_or("demo", "token"));
    let fixed = args.flag("fixed");
    let algorithm_name = or_usage(args.get_or("algorithm", "sds"));
    let algorithm = or_usage(parse_algorithm(&algorithm_name));
    let axes = or_usage(args.faults()).unwrap_or_else(|| FaultAxis::ALL.to_vec());
    let workers: Option<usize> = or_usage(args.get("workers"));
    let emit: Option<String> = or_usage(args.get("emit"));

    let (base, checker) = or_usage(demo(&demo_name, fixed));
    let base_duration_ms = base.duration_ms;
    let scenario = with_fault_axes(base, &axes);

    println!(
        "repro: demo={demo_name} algorithm={algorithm_name} faults={} fixed={fixed} workers={}",
        FaultAxis::join(&axes),
        workers.unwrap_or(1),
    );

    let sink = std::sync::Arc::new(sde_trace::BufferSink::new());
    let mut engine = Engine::new(scenario.clone(), algorithm)
        .with_trace_sink(sink.clone() as std::sync::Arc<dyn sde_trace::TraceSink>);
    match workers {
        Some(w) if w > 1 => engine.run_sharded_in_place(w),
        _ => engine.run_in_place(),
    }
    let violations = checker.check(&engine);
    println!(
        "repro: {} states explored, {} invariant(s), {} violation(s)",
        engine.states().count(),
        checker.len(),
        violations.len(),
    );
    drop(engine);

    let mut violations = violations;
    if let Ok(lineage) = sde_trace::Lineage::from_events(sink.drain().iter()) {
        for v in &mut violations {
            v.fill_lineage(&lineage);
        }
    }
    let Some(found) = violations.into_iter().next() else {
        println!("repro: all invariants hold");
        if let Some(path) = emit {
            if let Err(e) = write_file(Path::new(&path), "[]\n") {
                eprintln!("repro: cannot write artifact {path}: {e}");
                return ExitCode::from(2);
            }
            println!("repro: empty report written to {path}");
        }
        return ExitCode::SUCCESS;
    };

    println!(
        "repro: BugReport {} — {} (nodes {:?}, {} witness entries, axes {:?}, \
         lineage depth {})",
        found.report.kind,
        found.report.message,
        found.nodes.iter().map(|n| n.0).collect::<Vec<_>>(),
        found.witness_entries(),
        found.active_axes,
        found.lineage.len(),
    );

    let seed: Assignment = found
        .preset
        .iter()
        .map(|(n, name, occ, v)| ((n, name.to_string(), occ), v))
        .collect();
    let minimizer = Minimizer::new(scenario, algorithm, checker, &found.invariant);
    let Some(report) = minimizer.minimize(&seed) else {
        eprintln!("repro: witness failed to stabilize into a concrete replay");
        return ExitCode::from(2);
    };
    println!(
        "repro: minimized {} -> {} (entries {} -> {}, axes {} -> {}, horizon {} -> {} ms, \
         {} shrink steps, {}% reduction)",
        report.initial_size(),
        report.final_size(),
        report.initial_entries,
        report.final_entries,
        report.initial_axes,
        report.final_axes,
        report.initial_duration_ms,
        report.final_duration_ms,
        report.shrink_steps,
        report.reduction_percent(),
    );
    let digest = report.violation.digest();
    println!("repro: minimal repro digest {digest:#018x}");

    if let Some(path) = emit {
        let artifact = render_artifact(
            &demo_name,
            fixed,
            &algorithm_name,
            base_duration_ms,
            &report,
            digest,
        );
        if let Err(e) = write_file(Path::new(&path), &artifact) {
            eprintln!("repro: cannot write artifact {path}: {e}");
            return ExitCode::from(2);
        }
        println!("repro: artifact written to {path}");
    }
    ExitCode::FAILURE
}

// ---------------------------------------------------------------------------
// replay mode
// ---------------------------------------------------------------------------

fn fail(msg: &str) -> ExitCode {
    eprintln!("repro: REPLAY FAILED — {msg}");
    ExitCode::from(2)
}

fn parse_hex(map: &BTreeMap<String, JsonValue>, key: &str) -> Option<u64> {
    let s = map.get(key)?.as_str()?;
    u64::from_str_radix(s.trim_start_matches("0x"), 16).ok()
}

fn replay(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("{}: {e}", path.display())),
    };
    // The artifact is a JSON array of flat objects, one per line.
    let objects: Vec<BTreeMap<String, JsonValue>> = match text
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with('{'))
        .map(|l| parse_flat_object(l.trim_end_matches(',')))
        .collect()
    {
        Ok(o) => o,
        Err(e) => return fail(&format!("{}: {e}", path.display())),
    };
    let Some(header) = objects.first() else {
        println!("repro: empty artifact — nothing to replay");
        return ExitCode::SUCCESS;
    };
    let field = |key: &str| header.get(key).and_then(JsonValue::as_str);
    let int = |key: &str| header.get(key).and_then(JsonValue::as_int);
    let (Some(demo_name), Some(algorithm_name), Some(invariant)) =
        (field("demo"), field("algorithm"), field("invariant"))
    else {
        return fail("artifact header is missing demo/algorithm/invariant");
    };
    let fixed = header
        .get("fixed")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let (Some(base_duration_ms), Some(duration_ms)) = (int("base_duration_ms"), int("duration_ms"))
    else {
        return fail("artifact header is missing durations");
    };
    let (Some(expected_fingerprint), Some(expected_digest)) = (
        parse_hex(header, "fault_fingerprint"),
        parse_hex(header, "bug_digest"),
    ) else {
        return fail("artifact header is missing fingerprint/digest");
    };

    // Rebuild the exact minimized scenario: faults are sized from the
    // *base* duration (the plan predates horizon truncation), the run
    // length is the truncated one.
    let faults = field("faults").unwrap_or("");
    let axes = if faults.is_empty() {
        Vec::new()
    } else {
        match FaultAxis::parse_list(faults) {
            Ok(axes) => axes,
            Err(e) => return fail(&e),
        }
    };
    let (base, checker) = match demo(demo_name, fixed) {
        Ok(found) => found,
        Err(e) => return fail(&format!("artifact header: {e}")),
    };
    let scenario: Scenario = with_fault_axes(base.with_duration_ms(base_duration_ms), &axes)
        .with_duration_ms(duration_ms);
    if scenario.faults.fingerprint() != expected_fingerprint {
        return fail(&format!(
            "fault-plan fingerprint mismatch: artifact {expected_fingerprint:#018x}, \
             rebuilt {:#018x}",
            scenario.faults.fingerprint()
        ));
    }

    let mut assignment = Assignment::new();
    for obj in &objects[1..] {
        let (Some(node), Some(name), Some(occurrence), Some(value)) = (
            obj.get("node").and_then(JsonValue::as_int),
            obj.get("name").and_then(JsonValue::as_str),
            obj.get("occurrence").and_then(JsonValue::as_int),
            obj.get("value").and_then(JsonValue::as_int),
        ) else {
            return fail("malformed witness entry");
        };
        assignment.insert((node as u16, name.to_string(), occurrence as u32), value);
    }
    if assignment.len() != int("entries").unwrap_or(0) as usize {
        return fail("witness entry count does not match the header");
    }

    let algorithm = match parse_algorithm(algorithm_name) {
        Ok(algorithm) => algorithm,
        Err(why) => return fail(&format!("artifact header: {why}")),
    };
    match check::replay_violates(&scenario, algorithm, &checker, invariant, &assignment) {
        Some(violation) => {
            let digest = violation.digest();
            if digest == expected_digest {
                println!(
                    "repro: REPLAY OK — {invariant} violated again, digest {digest:#018x} matches"
                );
                ExitCode::SUCCESS
            } else {
                fail(&format!(
                    "digest mismatch: artifact {expected_digest:#018x}, replay {digest:#018x}"
                ))
            }
        }
        None => fail(&format!(
            "strict replay did not violate {invariant:?} (witness incomplete or stale artifact)"
        )),
    }
}
