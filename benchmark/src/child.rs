//! Child-process modes: each runs one exploration (or one set of
//! drivers) in a fresh process — clean allocator, its own `VmHWM` — and
//! prints one JSON object on its last line for the parent to read.

use crate::host;
use crate::json::{count, num, obj, string, Value};
use crate::spans::{Child, SpanSink, Trace};
use crate::stats::{median, tail_percentile};
use crate::workloads::{self, Workload};
use sde::core::oracle::{conformance_against, ground_truth, OracleConfig};
use sde::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups timed per child; the child reports their median.
const SETUPS: usize = 101;

/// What the child was asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Pinned configuration, tracing off: the end-to-end numbers.
    Timed,
    /// The same run under the benchmark's span sink.
    Traced { chrome_out: Option<String> },
    /// Differential: statistics sampling off.
    NoSample,
    /// Differential: online duplicate-dispatch pruning on.
    Dedup,
    /// Pause after `pause_events`, snapshot, encode, decode, resume.
    Checkpoint { pause_events: u64 },
    /// The isolated layer drivers.
    Drivers,
    /// Oracle conformance of COB/COW/SDS on the 2×2 reference grid.
    Oracle,
}

/// Scenario build + `Engine::new`: everything before the run starts.
fn set_up(w: &Workload, seed: u64) -> Engine {
    Engine::new(workloads::scenario(w, seed), w.algorithm)
}

fn explore(w: &Workload, engine: Engine) -> RunReport {
    match w.shards {
        Some(workers) => engine.run_sharded(workers),
        None => engine.run(),
    }
}

/// FNV-1a over the equivalence key: two reports agree on everything a
/// correct strategy must reproduce iff these match.
fn key_hash(report: &RunReport) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in report.equivalence_key().bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// What a dedup-on run must share with the dedup-off run. Replayed states
/// clone the survivor's expressions instead of minting fresh symbol ids,
/// so configuration digests — and with them `equivalence_key` —
/// legitimately differ (tests/dedup_equivalence.rs compares canonically
/// for the same reason); every symbol-id-free count must still agree.
fn canonical(report: &RunReport) -> String {
    format!(
        "virtual_ms={} total={} live={} events={} packets={} groups={} aborted={} bugs={} \
         branches={} sends={} forks={} virtual={}",
        report.virtual_ms,
        report.total_states,
        report.live_states,
        report.events,
        report.packets,
        report.groups,
        report.aborted,
        report.bugs.len(),
        report.mapper.branches_seen,
        report.mapper.sends_mapped,
        report.mapper.mapper_forks,
        report.mapper.virtual_forks,
    )
}

/// The report fields the parent reads, flattened.
fn facts(report: &RunReport, wall_s: f64) -> Vec<(&'static str, Value)> {
    let mut f: Vec<(&'static str, Value)> = vec![
        ("wall_s", num(wall_s)),
        ("key", string(key_hash(report))),
        ("canonical", string(canonical(report))),
        ("vm_hwm_kb", count(host::self_vm_hwm_kb().unwrap_or(0))),
        ("total_states", count(report.total_states as u64)),
        ("peak_bytes", count(report.peak_bytes as u64)),
        ("events", count(report.events)),
        ("instructions", count(report.instructions)),
        ("packets", count(report.packets)),
        ("states_executed", count(report.states_executed as u64)),
        ("samples", count(report.series.samples().len() as u64)),
        ("groups", count(report.groups as u64)),
        ("aborted", Value::Bool(report.aborted)),
        ("bugs", count(report.bugs.len() as u64)),
        ("duplicate_states", count(report.duplicate_states as u64)),
        ("sends_mapped", count(report.mapper.sends_mapped)),
        ("branches_seen", count(report.mapper.branches_seen)),
        ("mapper_forks", count(report.mapper.mapper_forks)),
        ("virtual_forks", count(report.mapper.virtual_forks)),
        ("queries", count(report.solver.queries)),
        ("exact_hits", count(report.solver.cache_hits)),
        ("group_hits", count(report.solver.group_cache_hits)),
        ("reuse_hits", count(report.solver.model_reuse_hits)),
        ("ucore_hits", count(report.solver.ucore_hits)),
        ("unknown", count(report.solver.unknown)),
        ("search_nodes", count(report.solver.nodes_visited)),
        ("dedup_candidates", count(report.dedup.candidates)),
        ("dedup_confirmed", count(report.dedup.confirmed)),
        ("dedup_collisions", count(report.dedup.collisions)),
        (
            "dedup_saved_instructions",
            count(report.dedup.saved_instructions),
        ),
    ];
    if let Some(p) = &report.parallel {
        f.extend([
            ("par_batches", count(p.batches)),
            ("par_shard_recorded", count(p.shard_recorded)),
            ("par_shard_applied", count(p.shard_applied)),
            ("par_shard_fallback", count(p.shard_fallback)),
            ("par_shard_skips", count(p.shard_skips)),
            ("par_shard_tainted", count(p.shard_tainted)),
            ("par_serial_s", num(p.serial_wall.as_secs_f64())),
            ("par_dispatch_s", num(p.dispatch_wall.as_secs_f64())),
            ("par_barrier_s", num(p.barrier_wall.as_secs_f64())),
            ("par_utilization", num(p.utilization())),
        ]);
    }
    f
}

fn timed_run(w: &Workload, engine: Engine) -> Vec<(&'static str, Value)> {
    let start = Instant::now();
    let report = explore(w, engine);
    let wall_s = start.elapsed().as_secs_f64();
    facts(&report, wall_s)
}

fn timed(w: &Workload, seed: u64) -> Value {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut engine = None;
    for _ in 0..SETUPS {
        drop(engine.take());
        let start = Instant::now();
        let fresh = set_up(w, seed);
        setups.push(start.elapsed().as_secs_f64());
        engine = Some(fresh);
    }
    let mut f = timed_run(w, engine.expect("SETUPS > 0"));
    f.push(("setup_s", num(median(&setups))));
    obj(f)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// The T metrics, by their final names.
fn trace_metrics(trace: &Trace) -> Vec<(&'static str, Value)> {
    let child_us =
        |spans: &[Child]| -> Vec<f64> { spans.iter().map(|c| us(c.end_ns - c.start_ns)).collect() };
    let dispatch_us: Vec<f64> = trace
        .dispatches
        .iter()
        .map(|d| us(d.end_ns - d.start_ns))
        .collect();
    let map_send_us = child_us(&trace.map_sends);
    let query_us = child_us(&trace.queries);
    // Null = not reported: no samples at all, or (p99.9) fewer than ten
    // beyond the percentile.
    let p50 = |v: &[f64]| {
        if v.is_empty() {
            Value::Null
        } else {
            num(median(v))
        }
    };
    let p999 = |v: &[f64]| tail_percentile(v, 999).map_or(Value::Null, num);
    let total_s = |v: &[f64]| v.iter().sum::<f64>() / 1e6;
    let self_s = trace.dispatches.iter().map(|d| d.self_ns).sum::<u64>() as f64 / 1e9;
    let sends = trace.map_sends.len().max(1) as f64;
    let targets: u64 = trace.map_sends.iter().map(|c| u64::from(c.targets)).sum();
    let forked: u64 = trace.map_sends.iter().map(|c| u64::from(c.forked)).sum();
    let groups = trace.groups_hit + trace.groups_solved;
    vec![
        ("engine.dispatch_self_s", num(self_s)),
        ("engine.dispatch_us_p50", p50(&dispatch_us)),
        ("engine.dispatch_us_p999", p999(&dispatch_us)),
        ("mapping.map_send_s", num(total_s(&map_send_us))),
        ("mapping.map_send_us_p50", p50(&map_send_us)),
        ("mapping.map_send_us_p999", p999(&map_send_us)),
        ("mapping.fanout_mean", num(targets as f64 / sends)),
        ("mapping.forks_per_send", num(forked as f64 / sends)),
        (
            "solver.hit_ratio",
            if groups == 0 {
                Value::Null
            } else {
                num(trace.groups_hit as f64 / groups as f64)
            },
        ),
        ("solver.busy_s", num(total_s(&query_us))),
        ("solver.query_us_p50", p50(&query_us)),
        ("solver.query_us_p999", p999(&query_us)),
        ("net.queue_pushes", count(trace.queue_pushes)),
        ("trace.events", count(trace.events)),
    ]
}

fn traced(w: &Workload, seed: u64, chrome_out: Option<&str>) -> Result<Value, String> {
    let sink = Arc::new(SpanSink::new());
    let engine = set_up(w, seed).with_trace_sink(sink.clone());
    let mut f = timed_run(w, engine);
    let trace = sink.finish();
    f.extend(trace_metrics(&trace));
    if let Some(path) = chrome_out {
        let path = std::path::Path::new(path);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::File::create(path)
            .and_then(|file| trace.write_chrome(std::io::BufWriter::new(file), w.name))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(obj(f))
}

fn no_sample(w: &Workload, seed: u64) -> Value {
    let scenario = workloads::scenario(w, seed).with_sample_every(u64::MAX);
    obj(timed_run(w, Engine::new(scenario, w.algorithm)))
}

fn dedup(w: &Workload, seed: u64) -> Value {
    obj(timed_run(w, set_up(w, seed).with_dedup(true)))
}

fn checkpoint(w: &Workload, seed: u64, pause_events: u64) -> Result<Value, String> {
    let mut engine = set_up(w, seed);
    let budget = Budget::events(pause_events);
    let outcome = match w.shards {
        Some(workers) => engine.run_until_sharded(workers, budget),
        None => engine.run_until(budget),
    };
    if outcome.is_complete() {
        return Err(format!(
            "run completed before the {pause_events}-event pause"
        ));
    }

    let start = Instant::now();
    let snapshot = engine.snapshot();
    let snapshot_s = start.elapsed().as_secs_f64();
    drop(engine);

    let start = Instant::now();
    let bytes = snapshot.to_bytes();
    let encode_s = start.elapsed().as_secs_f64();
    drop(snapshot);

    let start = Instant::now();
    let decoded = EngineSnapshot::from_bytes(&bytes).map_err(|e| format!("decode: {e}"))?;
    let decode_s = start.elapsed().as_secs_f64();

    let scenario = workloads::scenario(w, seed);
    let start = Instant::now();
    let resumed = Engine::resume(scenario, &decoded).map_err(|e| format!("resume: {e}"))?;
    let resume_s = start.elapsed().as_secs_f64();
    drop(decoded);

    let mb = bytes.len() as f64 / 1e6;
    let mut f = timed_run(w, resumed);
    f.extend([
        ("checkpoint.snapshot_s", num(snapshot_s)),
        ("checkpoint.bytes", count(bytes.len() as u64)),
        ("checkpoint.encode_mb_per_s", num(mb / encode_s)),
        ("checkpoint.decode_mb_per_s", num(mb / decode_s)),
        ("checkpoint.resume_s", num(resume_s)),
    ]);
    Ok(obj(f))
}

fn drivers(seed: u64) -> Value {
    obj(crate::drivers::run_all(seed)
        .into_iter()
        .map(|(name, value)| (name, num(value))))
}

/// The one check that does not go through the mappers' own bookkeeping:
/// enumerate every concrete input of the reference scenario and demand
/// each algorithm's dscenario set replays to exactly that outcome set.
fn oracle(seed: u64) -> Value {
    let scenario = workloads::oracle_scenario(seed);
    let cfg = OracleConfig::default();
    let truth = ground_truth(&scenario, &cfg);
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut summaries = Vec::new();
    let mut check = |ok: bool, what: String| {
        attempted += 1;
        if !ok {
            failures.push(string(what));
        }
    };
    check(
        truth.exhaustive() && !truth.outcomes.is_empty(),
        "oracle: ground truth truncated or empty".into(),
    );
    for alg in Algorithm::ALL {
        let r = conformance_against(&truth, &scenario, alg, None, &cfg);
        summaries.push(string(r.summary()));
        check(
            r.is_clean()
                && r.exhaustive()
                && r.duplicates == 0
                && r.matched == truth.outcomes.len(),
            format!("oracle: {}", r.summary()),
        );
    }
    obj([
        ("attempted", count(attempted)),
        ("failures", Value::Arr(failures)),
        ("summaries", Value::Arr(summaries)),
    ])
}

/// Runs `mode` and returns the object to print.
pub fn run(mode: &Mode, w: Option<&Workload>, seed: u64) -> Result<Value, String> {
    let workload = || w.ok_or_else(|| "this child mode needs --workload".to_string());
    match mode {
        Mode::Timed => Ok(timed(workload()?, seed)),
        Mode::Traced { chrome_out } => traced(workload()?, seed, chrome_out.as_deref()),
        Mode::NoSample => Ok(no_sample(workload()?, seed)),
        Mode::Dedup => Ok(dedup(workload()?, seed)),
        Mode::Checkpoint { pause_events } => checkpoint(workload()?, seed, *pause_events),
        Mode::Drivers => Ok(drivers(seed)),
        Mode::Oracle => Ok(oracle(seed)),
    }
}
