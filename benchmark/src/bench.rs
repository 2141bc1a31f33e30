//! The parent side: a closed loop with one client. One exploration at a
//! time, each in a fresh child process of this same binary; the parent
//! only waits, reads the child's report, checks it and aggregates.

use crate::host;
use crate::json::{self, count, num, obj, string, Value};
use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, spread};
use crate::workloads::{self, Workload, WORKLOADS};
use std::process::{Command, Stdio};
use std::time::Instant;

/// `run_seconds` of `BENCHMARK.json`: how long one timed run measures.
pub const RUN_SECONDS: u32 = 25;
/// Never fewer repetitions than this, however short the time box.
pub const MIN_REPS: usize = 3;
/// Result-file schema version.
pub const SCHEMA: u32 = 1;

/// Where traced runs leave their Chrome traces (relative to the working
/// directory, which is the repository root for the declared command).
const OUT_DIR: &str = "benchmark/out";

/// How long the timed pass repeats.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Start no repetition that would end after this many seconds.
    Seconds(f64),
    /// Exactly this many repetitions.
    Reps(usize),
}

/// Checks attempted and the ones that failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn passed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed() as f64 / self.attempted as f64
    }
}

/// Runs one child to completion and parses the last line it printed.
fn child(mode: &str, w: Option<&Workload>, seed: u64, extra: &[String]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .arg(mode)
        .args(["--seed", &seed.to_string()]);
    if let Some(w) = w {
        cmd.args(["--workload", w.name]);
    }
    // `output` waits for the child and reaps it before returning.
    let out = cmd
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning child {mode}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {mode} exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|_| format!("child {mode}: not UTF-8"))?;
    let last = text
        .lines()
        .last()
        .ok_or_else(|| format!("child {mode} printed nothing"))?;
    json::parse(last).map_err(|e| format!("child {mode}: {e}"))
}

fn key(facts: &Value) -> &str {
    facts.get("key").and_then(Value::as_str).unwrap_or("")
}

/// The checks every exploration must pass, whatever its configuration.
fn check_run(checks: &mut Checks, w: &Workload, what: &str, facts: &Value) {
    let label = w.name;
    checks.check(facts.get("aborted") == Some(&Value::Bool(false)), || {
        format!("{label} {what}: run aborted at the state cap")
    });
    checks.check(facts.num("bugs") == 0.0, || {
        format!("{label} {what}: {} bug(s) reported", facts.num("bugs"))
    });
    checks.check(facts.num("unknown") == 0.0, || {
        format!(
            "{label} {what}: {} solver queries unknown",
            facts.num("unknown")
        )
    });
    if w.algorithm == sde::prelude::Algorithm::Sds {
        // The §III-D non-duplication theorem.
        checks.check(facts.num("duplicate_states") == 0.0, || {
            format!(
                "{label} {what}: SDS produced {} duplicate states",
                facts.num("duplicate_states")
            )
        });
    }
}

fn check_same_key(checks: &mut Checks, w: &Workload, what: &str, facts: &Value, reference: &str) {
    checks.check(!reference.is_empty() && key(facts) == reference, || {
        format!(
            "{} {what}: equivalence key {} differs from {reference}",
            w.name,
            key(facts)
        )
    });
}

fn oracle_checks(seed: u64) -> Result<Checks, String> {
    let report = child("oracle", None, seed, &[])?;
    Ok(Checks {
        attempted: report.num("attempted") as u64,
        failures: report
            .get("failures")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect(),
    })
}

/// A sharded workload must reproduce its serial twin bit for bit; runs
/// the twin once and returns its report.
fn twin_report(checks: &mut Checks, w: &Workload, seed: u64) -> Result<Option<Value>, String> {
    let Some(twin) = workloads::serial_twin(w) else {
        return Ok(None);
    };
    let facts = child("timed", Some(twin), seed, &[])?;
    check_run(checks, twin, "serial twin", &facts);
    Ok(Some(facts))
}

/// The end-to-end pass: repetitions with tracing off.
#[derive(Debug)]
pub struct TimedPass {
    pub reps: Vec<Value>,
    pub checks: Checks,
}

impl TimedPass {
    fn samples(&self, field: &str) -> Vec<f64> {
        self.reps.iter().map(|r| r.num(field)).collect()
    }

    /// Every repetition's reading of one end-to-end metric.
    pub fn metric_samples(&self, name: &str) -> Vec<f64> {
        match name {
            "setup_s" => self.samples("setup_s"),
            "wall_s" => self.samples("wall_s"),
            "states_total" => self.samples("total_states"),
            "state_bytes_peak" => self.samples("peak_bytes"),
            "rss_peak_mb" => self
                .samples("vm_hwm_kb")
                .iter()
                .map(|kb| kb / 1024.0)
                .collect(),
            "passed_share" => vec![self.checks.passed_share()],
            other => unreachable!("no end-to-end metric {other}"),
        }
    }
}

pub fn timed_pass(w: &Workload, seed: u64, limit: Limit) -> Result<TimedPass, String> {
    let start = Instant::now();
    let mut checks = oracle_checks(seed)?;
    let twin = twin_report(&mut checks, w, seed)?;

    let mut reps: Vec<Value> = Vec::new();
    loop {
        let rep_start = Instant::now();
        let facts = child("timed", Some(w), seed, &[])?;
        let rep_s = rep_start.elapsed().as_secs_f64();

        let what = format!("rep {}", reps.len());
        check_run(&mut checks, w, &what, &facts);
        if let Some(first) = reps.first() {
            check_same_key(&mut checks, w, &what, &facts, key(first));
        }
        reps.push(facts);

        let done = match limit {
            Limit::Reps(n) => reps.len() >= n,
            Limit::Seconds(s) => {
                reps.len() >= MIN_REPS && start.elapsed().as_secs_f64() + rep_s > s
            }
        };
        if done {
            break;
        }
    }
    if let Some(twin) = &twin {
        check_same_key(&mut checks, w, "vs serial twin", &reps[0], key(twin));
    }
    Ok(TimedPass { reps, checks })
}

/// Rounds of the per-layer pass. Its differential metrics divide or
/// subtract the walls of different configurations; each configuration runs
/// once per round, in turn, and the medians are compared, so a slow stretch
/// of the host falls on all of them alike.
const LAYER_ROUNDS: usize = 3;

/// The report with the median `wall_s`; the counters of one
/// configuration are the same in every round.
fn median_by_wall(mut reports: Vec<Value>) -> Value {
    reports.sort_by(|a, b| a.num("wall_s").total_cmp(&b.num("wall_s")));
    reports.swap_remove(reports.len() / 2)
}

/// The per-layer pass: counters from an untraced report, the traced run,
/// the differential runs, the drivers.
pub struct LayerPass {
    /// Every per-layer metric, in table order. `None`: not measured —
    /// the layer does not run on this workload, or a tail percentile has
    /// fewer than ten samples beyond it.
    pub metrics: Vec<(&'static str, Option<f64>)>,
    pub checks: Checks,
}

pub fn layer_pass(w: &Workload, seed: u64) -> Result<LayerPass, String> {
    let mut checks = Checks::default();
    let chrome = [
        "--chrome-out".to_string(),
        format!("{OUT_DIR}/trace_{}.json", w.name),
    ];
    let twin = workloads::serial_twin(w);

    // (what the checks call it, child mode, workload)
    let mut configs: Vec<(&str, &str, &Workload)> = vec![
        ("untraced", "timed", w),
        ("traced", "traced", w),
        ("sampling off", "nosample", w),
    ];
    if w.dedup_pass {
        configs.push(("dedup on", "dedup", w));
    }
    if let Some(twin) = twin {
        configs.push(("serial twin", "timed", twin));
    }
    let mut rounds: Vec<Vec<Value>> = vec![Vec::new(); configs.len()];
    for round in 1..=LAYER_ROUNDS {
        for (&(what, mode, workload), reports) in configs.iter().zip(&mut rounds) {
            // The Chrome trace is 7–15 MB: only the last round writes it.
            let extra: &[String] = if mode == "traced" && round == LAYER_ROUNDS {
                &chrome
            } else {
                &[]
            };
            let facts = child(mode, Some(workload), seed, extra)?;
            check_run(&mut checks, workload, what, &facts);
            reports.push(facts);
        }
    }
    let mut medians = rounds.into_iter().map(median_by_wall);
    let mut next = || medians.next().expect("one median per configuration");
    let (b, traced, no_sample) = (&next(), next(), next());
    let dedup = w.dedup_pass.then(&mut next);
    let twin = twin.map(|_| next());

    let reference = key(b).to_string();
    // Observing a run must not change what it explores.
    check_same_key(&mut checks, w, "traced", &traced, &reference);
    if let Some(twin) = &twin {
        check_same_key(&mut checks, w, "vs serial twin", b, key(twin));
    }
    if let Some(dedup) = &dedup {
        // Not the equivalence key: see `child::canonical`.
        let canonical = |f: &Value| {
            f.get("canonical")
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        checks.check(canonical(dedup) == canonical(b), || {
            format!(
                "{} dedup on: explored {:?}, dedup off explored {:?}",
                w.name,
                canonical(dedup),
                canonical(b)
            )
        });
    }

    let checkpoint = if w.checkpoint_pass {
        let pause = (b.num("events") / 2.0) as u64;
        let facts = child(
            "checkpoint",
            Some(w),
            seed,
            &["--pause-events".into(), pause.to_string()],
        )?;
        check_run(&mut checks, w, "resumed", &facts);
        check_same_key(&mut checks, w, "resumed", &facts, &reference);
        Some(facts)
    } else {
        None
    };

    let drivers = child("drivers", None, seed, &[])?;

    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let of = |facts: &Value, field: &str| facts.get(field).and_then(Value::as_f64);
    let sharded = w.shards.map(|_| b);
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let name = m.name;
            let (layer, short) = name.split_once('.').expect("layer.metric");
            let value = match (layer, short) {
                (_, s) if s.starts_with("drv_") => of(&drivers, name),
                ("engine", "events_per_s") => Some(ratio(b.num("events"), b.num("wall_s"))),
                ("engine", "sampler_s") => Some(b.num("wall_s") - no_sample.num("wall_s")),
                ("engine", "rss_over_estimate") => {
                    Some(ratio(b.num("vm_hwm_kb") * 1024.0, b.num("peak_bytes")))
                }
                ("vm", "instr_per_dispatch") => Some(ratio(b.num("instructions"), b.num("events"))),
                ("trace", "overhead_ratio") => Some(ratio(traced.num("wall_s"), b.num("wall_s"))),
                // The T metrics: the traced child reports them by name.
                ("engine", "dispatch_self_s" | "dispatch_us_p50" | "dispatch_us_p999")
                | (
                    "mapping",
                    "map_send_s" | "map_send_us_p50" | "map_send_us_p999" | "fanout_mean"
                    | "forks_per_send",
                )
                | ("solver", "hit_ratio" | "busy_s" | "query_us_p50" | "query_us_p999")
                | ("net", "queue_pushes")
                | ("trace", "events") => of(&traced, name),
                // The R metrics: exact counters of the untraced report.
                ("engine" | "mapping" | "solver", field) => of(b, field),
                ("parallel", "speedup_vs_serial") => twin
                    .as_ref()
                    .map(|t| ratio(t.num("wall_s"), b.num("wall_s"))),
                ("parallel", field) => sharded.and_then(|b| of(b, &format!("par_{field}"))),
                ("dedup", "wall_ratio") => dedup
                    .as_ref()
                    .map(|d| ratio(d.num("wall_s"), b.num("wall_s"))),
                ("dedup", "executed_share") => dedup
                    .as_ref()
                    .map(|d| ratio(d.num("states_executed"), b.num("states_executed"))),
                ("dedup", field) => dedup
                    .as_ref()
                    .and_then(|d| of(d, &format!("dedup_{field}"))),
                ("checkpoint", _) => checkpoint.as_ref().and_then(|c| of(c, name)),
                _ => unreachable!("per-layer metric {name} has no source"),
            };
            (name, value)
        })
        .collect();
    Ok(LayerPass { metrics, checks })
}

// ----- the contract entry point ------------------------------------------------

fn metric_object(entries: impl IntoIterator<Item = (&'static str, f64, &'static str)>) -> Value {
    obj(entries
        .into_iter()
        .map(|(name, value, unit)| (name, obj([("value", num(value)), ("unit", string(unit))]))))
}

fn result_line(checks: &Checks, metrics: Value) -> Value {
    obj([
        ("correct", Value::Bool(checks.failures.is_empty())),
        ("attempted", count(checks.attempted)),
        ("failed", count(checks.failed())),
        ("metrics", metrics),
    ])
}

fn report_failures(checks: &Checks) {
    for failure in &checks.failures {
        eprintln!("FAILED CHECK: {failure}");
    }
}

/// One `(workload, seed)` measurement: prints the result object as the
/// last line of standard output. `trace` selects the per-layer pass.
pub fn measure(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    if w.shards.is_some() && host::cores() < 2 {
        eprintln!(
            "warning: {} measured on a 1-core host: its timings say nothing about sharding",
            w.name
        );
    }
    let line = if trace {
        let pass = layer_pass(w, seed)?;
        report_failures(&pass.checks);
        let units = PER_LAYER.iter().map(|m| m.unit);
        result_line(
            &pass.checks,
            metric_object(
                // The contract wants a number for every metric on every
                // workload: "not measured" reads 0 there.
                pass.metrics
                    .iter()
                    .zip(units)
                    .map(|(&(name, value), unit)| (name, value.unwrap_or(0.0), unit)),
            ),
        )
    } else {
        let pass = timed_pass(w, seed, Limit::Seconds(seconds))?;
        report_failures(&pass.checks);
        result_line(
            &pass.checks,
            metric_object(
                END_TO_END
                    .iter()
                    .map(|m| (m.name, median(&pass.metric_samples(m.name)), m.unit)),
            ),
        )
    };
    println!("{}", line.to_json());
    Ok(())
}

// ----- `run`: every workload, one result file ---------------------------------

/// Options of the `run` subcommand.
pub struct RunOptions {
    pub seed: u64,
    pub limit: Limit,
    pub only: Option<String>,
    pub out: String,
}

fn summary(samples: &[f64], m: &EndToEnd) -> Value {
    let (q1, q2, q3) = quartiles(samples);
    obj([
        ("median", num(q2)),
        ("q1", num(q1)),
        ("q3", num(q3)),
        ("n", count(samples.len() as u64)),
        ("unit", string(m.unit)),
        ("better", string(m.better.as_str())),
        ("bound", num(m.bound)),
        (
            "samples",
            Value::Arr(samples.iter().map(|&s| num(s)).collect()),
        ),
    ])
}

fn host_block(opts: &RunOptions) -> Value {
    obj([
        ("nproc", count(host::cores() as u64)),
        ("rustc", string(host::rustc_version())),
        ("commit", string(host::git_commit())),
        ("seed", count(opts.seed)),
        (
            "reps",
            match opts.limit {
                Limit::Reps(n) => string(format!("{n}")),
                Limit::Seconds(s) => string(format!("as many as fit {s} s, at least {MIN_REPS}")),
            },
        ),
    ])
}

/// Runs every selected workload — timed pass, then per-layer pass — prints
/// every metric by name with its unit, and writes the result file.
/// Returns whether every check passed.
pub fn run_all(opts: &RunOptions) -> Result<bool, String> {
    let selected: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| opts.only.as_deref().is_none_or(|only| only == w.name))
        .collect();
    if selected.is_empty() {
        return Err(format!(
            "no workload named {:?}",
            opts.only.as_deref().unwrap_or("")
        ));
    }
    let cores = host::cores();
    println!("sde-benchmark: seed {}, {cores} core(s)", opts.seed);

    let mut all_passed = true;
    let mut workloads_out = Vec::new();
    for w in selected {
        println!("\n== {} ==\n   {}", w.name, w.why);
        if w.shards.is_some() && cores < 2 {
            // A number this host cannot produce is not predicted.
            println!("   not measured: needs 2 cores, host has {cores}");
            workloads_out.push((w.name, obj([("not_measured", string("host has 1 core"))])));
            continue;
        }
        let timed = timed_pass(w, opts.seed, opts.limit)?;
        let layers = layer_pass(w, opts.seed)?;

        let mut e2e = Vec::new();
        for m in &END_TO_END {
            let samples = timed.metric_samples(m.name);
            println!(
                "{:<28} {:>16} {:<6} (median of {}, spread {:.2} % of it)",
                m.name,
                median(&samples),
                m.unit,
                samples.len(),
                spread(&samples) * 100.0
            );
            e2e.push((m.name, summary(&samples, m)));
        }
        let mut per_layer = Vec::new();
        for (&(name, value), m) in layers.metrics.iter().zip(&PER_LAYER) {
            match value {
                Some(v) => println!("{name:<28} {v:>16} {}", m.unit),
                None => println!("{name:<28} not measured"),
            }
            per_layer.push((
                name,
                obj([
                    ("value", value.map_or(Value::Null, num)),
                    ("unit", string(m.unit)),
                    ("better", string(m.better.as_str())),
                ]),
            ));
        }

        let mut checks = timed.checks;
        checks.absorb(layers.checks);
        report_failures(&checks);
        println!(
            "checks: {} attempted, {} failed (failed_share {})",
            checks.attempted,
            checks.failed(),
            1.0 - checks.passed_share()
        );
        all_passed &= checks.failures.is_empty();
        workloads_out.push((
            w.name,
            obj([
                ("end_to_end", obj(e2e)),
                ("per_layer", obj(per_layer)),
                (
                    "checks",
                    obj([
                        ("attempted", count(checks.attempted)),
                        ("failed", count(checks.failed())),
                        ("failed_share", num(1.0 - checks.passed_share())),
                        (
                            "failures",
                            Value::Arr(checks.failures.iter().map(string).collect()),
                        ),
                    ]),
                ),
            ]),
        ));
    }

    let doc = obj([
        ("schema", num(SCHEMA)),
        ("host", host_block(opts)),
        ("workloads", obj(workloads_out)),
    ]);
    let path = std::path::Path::new(&opts.out);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_json_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(all_passed)
}
