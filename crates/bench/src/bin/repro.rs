//! Invariant violation finder / replayer with minimized repro artifacts
//! (DESIGN.md §12, EXPERIMENTS.md "Minimized repro artifacts").
//!
//! **Check mode** — explore a demo workload, check its invariants,
//! ddmin-shrink the first violation and (optionally) emit a
//! self-contained JSON repro artifact:
//!
//! ```text
//! cargo run -p sde-bench --release --bin repro -- \
//!     --demo token --faults all --emit bench_out/token.repro.json
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
//! §5) — and minimization replays are serial, so artifacts are
//! byte-identical for any worker count.

use sde_bench::{
    demo, join_axes, or_usage, parse_algorithm, parse_fault_axes, render_artifact, with_fault_axes,
    write_file, Args,
};
use sde_core::check;
use sde_core::minimize::Minimizer;
use sde_core::oracle::Assignment;
use sde_core::{Engine, Scenario};
use sde_net::FailureKind;
use sde_trace::json;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::from_env();
    if let Some(path) = or_usage(args.get::<String>("replay")) {
        args.finish();
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
    let axes = or_usage(args.faults()).unwrap_or_else(|| FailureKind::AXES.to_vec());
    let workers: Option<usize> = or_usage(args.get("workers"));
    let emit: Option<String> = or_usage(args.get("emit"));
    args.finish();

    let (base, checker) = or_usage(demo(&demo_name, fixed));
    let base_duration_ms = base.duration_ms;
    let scenario = with_fault_axes(base, &axes);

    println!(
        "repro: demo={demo_name} algorithm={algorithm_name} faults={} fixed={fixed} workers={}",
        join_axes(&axes),
        workers.unwrap_or(1),
    );

    let sink = std::sync::Arc::new(sde_trace::RingSink::new(usize::MAX));
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
    if let Ok(lineage) = sde_trace::Lineage::from_events(sink.take().iter().map(|te| &te.ev)) {
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
        found
            .active_axes
            .iter()
            .map(|axis| axis.name())
            .collect::<Vec<_>>(),
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

fn replay(path: &Path) -> ExitCode {
    match replay_artifact(path) {
        Ok(Some(line)) => println!("repro: {line}"),
        Ok(None) => println!("repro: empty artifact — nothing to replay"),
        Err(msg) => {
            eprintln!("repro: REPLAY FAILED — {msg}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// Replays the artifact at `path`: `Some` of the verdict line when it
/// reproduces the recorded violation with the same digest, `None` when
/// it is empty, and what went wrong otherwise.
fn replay_artifact(path: &Path) -> Result<Option<String>, String> {
    let at_path = |e: String| format!("{}: {e}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| at_path(e.to_string()))?;
    // The artifact is one JSON array: a header, then the witness entries.
    let artifact = json::parse(&text).map_err(at_path)?;
    let items = (artifact.as_arr()).ok_or_else(|| at_path("not a JSON array".into()))?;
    let Some((header, entries)) = items.split_first() else {
        return Ok(None);
    };
    let missing = |key: &str| format!("artifact header is missing {key}");
    let field = |key: &str| header[key].as_str().ok_or_else(|| missing(key));
    let int = |key: &str| header[key].as_int().ok_or_else(|| missing(key));
    let hex = |key: &str| {
        let digits = field(key)?.strip_prefix("0x").unwrap_or_default();
        u64::from_str_radix(digits, 16).map_err(|_| missing(key))
    };
    let (demo_name, invariant) = (field("demo")?, field("invariant")?);
    let fixed = header["fixed"].as_bool().unwrap_or(false);
    let (expected_fingerprint, expected_digest) = (hex("fault_fingerprint")?, hex("bug_digest")?);

    // Rebuild the exact minimized scenario: faults are sized from the
    // *base* duration (the plan predates horizon truncation), the run
    // length is the truncated one.
    let faults = header["faults"].as_str().unwrap_or_default();
    let axes = match faults.is_empty() {
        true => Vec::new(),
        false => parse_fault_axes(faults)?,
    };
    let (base, checker) = demo(demo_name, fixed).map_err(|e| format!("artifact header: {e}"))?;
    let scenario: Scenario =
        with_fault_axes(base.with_duration_ms(int("base_duration_ms")?), &axes)
            .with_duration_ms(int("duration_ms")?);
    let fingerprint = scenario.failures.fingerprint();
    if fingerprint != expected_fingerprint {
        return Err(format!(
            "fault fingerprint mismatch: artifact {expected_fingerprint:#018x}, \
             rebuilt {fingerprint:#018x}"
        ));
    }

    let mut assignment = Assignment::new();
    for entry in entries {
        let malformed = "malformed witness entry";
        let int = |key: &str| entry[key].as_int().ok_or(malformed);
        let (node, occurrence, value) = (int("node")?, int("occurrence")?, int("value")?);
        let name = entry["name"].as_str().ok_or(malformed)?;
        let node = u16::try_from(node)
            .map_err(|_| format!("witness entry \"node\": {node} is not a node id"))?;
        let occurrence = u32::try_from(occurrence)
            .map_err(|_| format!("witness entry \"occurrence\": {occurrence} is out of range"))?;
        assignment.insert((node, name.to_string(), occurrence), value);
    }
    if assignment.len() as u64 != int("entries")? {
        return Err("witness entry count does not match the header".into());
    }

    let algorithm =
        parse_algorithm(field("algorithm")?).map_err(|e| format!("artifact header: {e}"))?;
    let Some(violation) =
        check::replay_violates(&scenario, algorithm, &checker, invariant, &assignment)
    else {
        return Err(format!(
            "strict replay did not violate {invariant:?} (witness incomplete or stale artifact)"
        ));
    };
    let digest = violation.digest();
    if digest != expected_digest {
        return Err(format!(
            "digest mismatch: artifact {expected_digest:#018x}, replay {digest:#018x}"
        ));
    }
    Ok(Some(format!(
        "REPLAY OK — {invariant} violated again, digest {digest:#018x} matches"
    )))
}
