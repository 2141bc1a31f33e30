//! Shared harness for regenerating the paper's tables and figures.
//!
//! Experiment index (see DESIGN.md §4 and EXPERIMENTS.md):
//!
//! * **Table I** — `cargo run -p sde-bench --release --bin table1`
//! * **Figure 10 (a–f)** — `cargo run -p sde-bench --release --bin fig10`
//! * sharded-engine worker sweep — `--bin parallel_sweep`
//! * conformance oracle and invariant repros — `--bin oracle`, `--bin repro`
//! * snapshot and trace tools — `--bin snapshot`, `--bin lineage`
//!
//! `table1`, `fig10` and `parallel_sweep` run every scenario through one
//! function, [`RunConfig::run`]; the flags the bins share are [`Args`]
//! helpers. The harness reproduces the *shape* of the paper's results (who
//! wins, by what rough factor, where COB must be aborted), not the
//! absolute numbers of the authors' 2011 Xeon testbed; see DESIGN.md for
//! the substitutions. The acceptance benchmark is the standalone package
//! under `benchmark/`, which does not link this crate.

use sde_core::check::Checker;
use sde_core::minimize::MinimizeReport;
use sde_core::oracle::ConformanceReport;
use sde_core::testgen::TestGenReport;
use sde_core::{Algorithm, Budget, Engine, EngineSnapshot, RunReport, Scenario};
use sde_net::{FailureConfig, FailureKind, NodeId, Topology};
use sde_os::apps::collect::{self, CollectConfig};
use sde_os::apps::persist::{self, PersistConfig};
use sde_os::apps::sense::{self, SenseConfig};
use sde_os::apps::token::{self, TokenConfig};
use sde_os::layout;
use sde_symbolic::{Expr, ExprRef, Solver, Width};
use sde_trace::{Json, RingSink, TimedEvent, TraceSink};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The paper's §IV-A scenario for a `side × side` grid: corner-to-corner
/// static route, one packet per second for ten seconds, symbolic drop of
/// one packet at every route node and route neighbor.
pub fn paper_scenario(side: u16) -> Scenario {
    let topology = Topology::grid(side, side);
    let cfg = CollectConfig::paper_grid(side, side);
    let failures =
        FailureConfig::new().drops_on_route_and_neighbors(&topology, cfg.source, cfg.sink, 1);
    let programs = collect::programs(&topology, &cfg);
    Scenario::new(topology, programs)
        .with_failures(failures)
        .with_duration_ms(10_000)
}

/// The solver-bound companion scenario for a `side × side` grid: the
/// [`sense`] workload (symbolic sensor readings classified at every route
/// hop), no failure model. Execution forks on *data* and nearly all wall
/// time goes to constraint solving — the regime the shard workers of
/// [`Engine::run_sharded`](sde_core::Engine::run_sharded) take off the
/// merge thread; the `workers` axis of the engine bench runs on this
/// scenario.
pub fn symbolic_grid(side: u16) -> Scenario {
    let topology = Topology::grid(side, side);
    let cfg = SenseConfig::paper_grid(side, side);
    let duration = cfg.interval_ms * (u64::from(cfg.packet_count) + 2);
    let programs = sense::programs(&topology, &cfg);
    Scenario::new(topology, programs).with_duration_ms(duration)
}

/// Checks a `--side` value for [`paper_scenario`] / [`symbolic_grid`]:
/// a grid needs at least one node per side, and its node ids are `u16`.
///
/// # Errors
///
/// A side of 0 or above 255, named in the message.
pub fn grid_side(side: u16) -> Result<u16, String> {
    if (1..=255).contains(&side) {
        Ok(side)
    } else {
        Err(format!("invalid --side {side} (expected 1..=255)"))
    }
}

/// Named scenarios for the `oracle` conformance bin — deliberately tiny,
/// so the exhaustive ground-truth enumeration finishes in (at most)
/// thousands of concrete replays.
///
/// # Errors
///
/// An unknown preset name, naming the three — a typo must not silently
/// run the wrong experiment.
pub fn oracle_scenario(preset: &str) -> Result<Scenario, String> {
    let line = |k: u16, drop_nodes: &[u16], packets: u16| {
        let topology = Topology::line(k);
        let cfg = CollectConfig {
            source: NodeId(k - 1),
            sink: NodeId(0),
            interval_ms: 1000,
            packet_count: packets,
            strict_sink: false,
        };
        let failures = FailureConfig::new().with_drops(drop_nodes.iter().map(|n| NodeId(*n)), 1);
        let programs = collect::programs(&topology, &cfg);
        Scenario::new(topology, programs)
            .with_failures(failures)
            .with_duration_ms(1000 * u64::from(packets) + 2000)
            .with_history_tracking(true)
    };
    // Drop budgets sit on *receiving* nodes (the failure decision is made
    // at delivery time), so the source node never spends one.
    match preset {
        "tiny" => Ok(line(2, &[0], 1)),
        "line3" => Ok(line(3, &[0, 1], 2)),
        "grid" => {
            let topology = Topology::grid(2, 2);
            let cfg = CollectConfig {
                source: NodeId(3),
                sink: NodeId(0),
                interval_ms: 1000,
                packet_count: 2,
                strict_sink: false,
            };
            let failures = FailureConfig::new()
                .drops_on_route_and_neighbors(&topology, cfg.source, cfg.sink, 1);
            let programs = collect::programs(&topology, &cfg);
            Ok(Scenario::new(topology, programs)
                .with_failures(failures)
                .with_duration_ms(4000)
                .with_history_tracking(true))
        }
        other => Err(format!(
            "unknown oracle preset {other:?} (expected tiny|line3|grid)"
        )),
    }
}

/// Named demo workloads for the `repro` bin (DESIGN.md §12), each with
/// the invariants checked against it:
///
/// * `token` — the token-passing app on a 2×2 grid, route `0→1→3→2`,
///   checked for `unique-token-owner`. With the seeded bug
///   (`fixed == false`) a hand-off leaks the persistent ownership flag,
///   so a crash-recovery of node 0 under `--faults crashrec` (or `all`)
///   resurrects stale ownership and violates the invariant.
/// * `persist` — the crash-persistence app on a 3-node line. Its
///   invariants *hold*: this is the negative control that must exit 0.
///
/// # Errors
///
/// An unknown demo name, naming the two.
pub fn demo(name: &str, fixed: bool) -> Result<(Scenario, Checker), String> {
    match name {
        "token" => {
            let topology = Topology::grid(2, 2);
            let cfg = TokenConfig {
                route: vec![NodeId(0), NodeId(1), NodeId(3), NodeId(2)],
                leak_persistent_flag: !fixed,
                ..TokenConfig::default()
            };
            let programs = token::programs(&topology, &cfg);
            let scenario = Scenario::new(topology, programs).with_duration_ms(2000);
            let checker = Checker::new().cross_node("unique-token-owner", |views| {
                // Violated when any two nodes of one consistent global
                // snapshot both believe they hold the token.
                let owns: Vec<ExprRef> = views
                    .iter()
                    .map(|v| Expr::ne(v.memory_u16(layout::TOKEN_OWN), Expr::const_(0, Width::W16)))
                    .collect();
                let mut violated: Option<ExprRef> = None;
                for i in 0..owns.len() {
                    for j in i + 1..owns.len() {
                        let both = Expr::and_bool(owns[i].clone(), owns[j].clone());
                        violated = Some(match violated {
                            Some(v) => Expr::or_bool(v, both),
                            None => both,
                        });
                    }
                }
                violated
            });
            Ok((scenario, checker))
        }
        "persist" => {
            let topology = Topology::line(3);
            let programs = persist::programs(&topology, &PersistConfig::default());
            let scenario = Scenario::new(topology, programs).with_duration_ms(1000);
            let checker = Checker::new()
                .node_local("boot-count-positive", |view| {
                    // Every booted node has incremented its persistent boot
                    // counter at least once — zero means the persistent
                    // window was lost.
                    Some(Expr::eq(
                        view.memory_u16(layout::BOOT_COUNT),
                        Expr::const_(0, Width::W16),
                    ))
                })
                .cross_node("seq-high-water-bounded", |views| {
                    // No receiver's persisted high-water mark may exceed
                    // what the source actually transmitted.
                    let source = views.iter().find(|v| v.node == NodeId(0))?;
                    let sent = source.memory_u16(layout::PERSIST_SEQ);
                    let mut violated: Option<ExprRef> = None;
                    for v in views.iter().filter(|v| v.node != NodeId(0)) {
                        let above = Expr::ugt(v.memory_u16(layout::PERSIST_SEQ), sent.clone());
                        violated = Some(match violated {
                            Some(prev) => Expr::or_bool(prev, above),
                            None => above,
                        });
                    }
                    violated
                });
            Ok((scenario, checker))
        }
        other => Err(format!("unknown demo {other:?} (expected token|persist)")),
    }
}

/// The invariant `table1 --check` evaluates on the collect/sense
/// workloads: the sink can never have accepted more packets than the
/// source transmitted (drops only lose packets; the table workloads run
/// no duplication axis). Holds on every dscenario of a correct engine —
/// the check exercises the invariant layer at benchmark scale rather
/// than hunting a seeded bug.
pub fn workload_checker(source: NodeId, sink: NodeId) -> Checker {
    Checker::new().cross_node("sink-within-source", move |views| {
        let sink_view = views.iter().find(|v| v.node == sink)?;
        let source_view = views.iter().find(|v| v.node == source)?;
        Some(Expr::ugt(
            sink_view.memory_u16(layout::RECEIVED),
            source_view.memory_u16(layout::SEQ),
        ))
    })
}

/// Parses a `--faults` value into axes of the extended fault model
/// (DESIGN.md §11): `all` ([`FailureKind::AXES`]), or a comma-separated
/// subset of `partition,latency,corrupt,crashrec` (each a
/// [`FailureKind::name`]).
///
/// # Errors
///
/// An unknown axis name is an error naming the accepted values — a
/// typo'd axis must not silently run a faultless experiment.
pub fn parse_fault_axes(s: &str) -> Result<Vec<FailureKind>, String> {
    if s == "all" {
        return Ok(FailureKind::AXES.to_vec());
    }
    s.split(',')
        .map(|name| {
            let name = name.trim();
            (FailureKind::AXES.into_iter())
                .find(|axis| axis.name() == name)
                .ok_or_else(|| {
                    format!(
                        "unknown fault axis {name:?} \
                         (expected partition|latency|corrupt|crashrec|all)"
                    )
                })
        })
        .collect()
}

/// Joins axis names for labels: `partition+latency`.
pub fn join_axes(axes: &[FailureKind]) -> String {
    let names: Vec<&str> = axes.iter().map(|a| a.name()).collect();
    names.join("+")
}

/// Applies `axes` of the extended fault model to `scenario`, arming each
/// on the scenario's own [`FailureConfig`], sized from the scenario
/// itself — the one builder of the sink-targeted fault presets, for the
/// bins and the test suites:
///
/// * **partition** cuts every link into node 0 (the sink of every bench
///   workload — all traffic terminates there, so the cut is guaranteed
///   to be exercised), healing at `duration/4` or `duration/2` — two
///   candidates, so the heal time is itself one symbolic choice.
/// * **latency** delays deliveries into node 0 by `3 × link_latency_ms`
///   (budget 1).
/// * **corrupt** flips one symbolic byte of node 0's deliveries
///   (budget 1).
/// * **crashrec** lets node 0 crash-and-recover once; the persistent
///   window is the `sde-os` flash layout
///   ([`sde_os::layout::PERSIST_BASE`]).
///
/// # Panics
///
/// On a kind outside [`FailureKind::AXES`]: the workloads arm their own
/// drops, duplicates and reboots.
pub fn with_fault_axes(scenario: Scenario, axes: &[FailureKind]) -> Scenario {
    if axes.is_empty() {
        return scenario;
    }
    let sink = NodeId(0);
    let mut failures = scenario.failures.clone();
    for axis in axes {
        failures = match axis {
            FailureKind::Partition => {
                let cut: Vec<(NodeId, NodeId)> = scenario
                    .topology
                    .neighbors(sink)
                    .map(|n| (sink, n))
                    .collect();
                let d = scenario.duration_ms;
                failures.with_partition(cut, [d / 4, d / 2])
            }
            FailureKind::Latency => failures.with_latency([sink], scenario.link_latency_ms * 3, 1),
            FailureKind::Corruption => failures.with_corruption([sink], 1),
            FailureKind::CrashRecovery => failures.with_crash_recovery(
                [sink],
                1,
                sde_os::layout::PERSIST_BASE,
                sde_os::layout::PERSIST_SIZE,
            ),
            other => panic!("{} is not a fault axis", other.name()),
        };
    }
    scenario.with_failures(failures)
}

/// Renders a self-contained repro artifact for a minimized violation
/// (DESIGN.md §12): a JSON array of flat objects — a header carrying
/// enough to rebuild the scenario (demo name, fault axes, both durations,
/// fault fingerprint) and diff the outcome (`bug_digest`), then one
/// object per witness entry. Rendering is a pure function of the
/// [`MinimizeReport`], and minimization replays are serial, so the bytes
/// are identical no matter how many workers found the violation.
pub fn render_artifact(
    demo: &str,
    fixed: bool,
    algorithm: &str,
    base_duration_ms: u64,
    report: &MinimizeReport,
    digest: u64,
) -> String {
    let failures = &report.scenario.failures;
    let axes: Vec<&str> = (failures.active_axes().iter()).map(|a| a.name()).collect();
    let header = Json::obj([
        ("version", 1u64.into()),
        ("demo", demo.into()),
        ("fixed", fixed.into()),
        ("algorithm", algorithm.into()),
        ("invariant", report.violation.invariant.as_str().into()),
        ("faults", axes.join(",").into()),
        ("base_duration_ms", base_duration_ms.into()),
        ("duration_ms", report.final_duration_ms.into()),
        ("fault_fingerprint", Json::hex(failures.fingerprint())),
        ("bug_digest", Json::hex(digest)),
        ("entries", report.assignment.len().into()),
    ]);
    let mut items = vec![header];
    for ((node, name, occurrence), value) in &report.assignment {
        items.push(Json::obj([
            ("node", (*node).into()),
            ("name", name.as_str().into()),
            ("occurrence", (*occurrence).into()),
            ("value", (*value).into()),
        ]));
    }
    Json::Arr(items).to_pretty()
}

/// Writes `contents` to `path`, creating its parent directories first.
///
/// # Errors
///
/// Propagates I/O errors from creating the directories or the file.
pub fn write_file(path: &Path, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    create_parent(path)?;
    std::fs::write(path, contents)
}

fn create_parent(path: &Path) -> std::io::Result<()> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent),
        _ => Ok(()),
    }
}

/// Per-algorithm run parameters for one experiment.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Abort cap on total created states (the paper's 40 GB analogue).
    pub state_cap: usize,
    /// Sampling period in processed events.
    pub sample_every: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            state_cap: 120_000,
            sample_every: 256,
        }
    }
}

/// Which layers of the incremental solver stack (DESIGN.md §6) a bench run
/// enables — the on/off axis of the cache-ablation sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverLayers {
    /// Per-group exact caching (default).
    #[default]
    Full,
    /// The exact cache disabled; each query is solved from scratch.
    Off,
}

impl SolverLayers {
    /// Parses a `--layers` value.
    ///
    /// # Errors
    ///
    /// Anything but `full` or `off` is an error naming the two.
    pub fn parse(s: &str) -> Result<SolverLayers, String> {
        match s {
            "full" => Ok(SolverLayers::Full),
            "off" => Ok(SolverLayers::Off),
            other => Err(format!("invalid --layers {other:?} (expected full or off)")),
        }
    }

    /// Stable name for filenames and JSON labels.
    pub fn name(self) -> &'static str {
        match self {
            SolverLayers::Full => "full",
            SolverLayers::Off => "off",
        }
    }

    /// Applies this configuration to a solver's caching switch.
    pub fn apply(self, solver: &Solver) {
        if self == SolverLayers::Off {
            solver.set_caching(false);
        }
    }
}

/// Checkpoint/resume options shared by the bench bins (DESIGN.md §8):
/// `--checkpoint-every N` (snapshot every N dispatched events),
/// `--snapshot-dir D` (where `<bin>_<label>.snap` files land),
/// `--resume PATH` (a snapshot file, or a directory holding per-label
/// snapshots), `--stop-after S` (exit after S snapshots — the
/// "interrupted run" stand-in for a kill).
#[derive(Debug, Clone)]
pub struct Checkpointing {
    /// Snapshot cadence in dispatched events; 0 = never (resume-only).
    pub every: u64,
    /// Directory snapshot files are written to.
    pub dir: PathBuf,
    /// Snapshot file — or directory of `<bin>_<label>.snap` files — to
    /// resume from.
    pub resume: Option<PathBuf>,
    /// Stop the run after writing this many snapshots.
    pub stop_after: Option<u64>,
    /// The bin's name, the first part of every snapshot file name.
    pub bin: &'static str,
}

impl Checkpointing {
    /// Parses the checkpoint flags of bin `bin`; `None` when neither
    /// `--checkpoint-every` nor `--resume` was passed.
    ///
    /// # Errors
    ///
    /// See [`Args::get`]; and `--trace` alongside checkpointing, which the
    /// bins do not combine (`tests/checkpoint_equivalence.rs` covers
    /// traced interrupt/resume).
    pub fn from_args(args: &Args, bin: &'static str) -> Result<Option<Checkpointing>, String> {
        let every: Option<u64> = args.get("checkpoint-every")?;
        let resume: Option<PathBuf> = args.get("resume")?;
        if every.is_none() && resume.is_none() {
            return Ok(None);
        }
        if args.trace()?.is_some() {
            return Err("--trace cannot be combined with checkpointing \
                        (--checkpoint-every / --resume) in the bench bins; \
                        tests/checkpoint_equivalence.rs covers traced interrupt/resume"
                .to_string());
        }
        Ok(Some(Checkpointing {
            every: every.unwrap_or(0),
            dir: args.get_or("snapshot-dir", "bench_out/snapshots")?.into(),
            resume,
            stop_after: args.get("stop-after")?,
            bin,
        }))
    }

    fn file_in(&self, dir: &Path, label: &str) -> PathBuf {
        dir.join(format!("{}_{label}.snap", self.bin))
    }

    /// Where run `label`'s snapshot lands: `<dir>/<bin>_<label>.snap`.
    pub fn snapshot_path(&self, label: &str) -> PathBuf {
        self.file_in(&self.dir, label)
    }

    /// The snapshot to resume `label` from, when one applies: `--resume`
    /// pointed at a file uses it directly; pointed at a directory, the
    /// per-label file is used when present.
    pub fn resume_path(&self, label: &str) -> Option<PathBuf> {
        let p = self.resume.as_ref()?;
        if p.is_dir() {
            let candidate = self.file_in(p, label);
            candidate.is_file().then_some(candidate)
        } else {
            Some(p.clone())
        }
    }
}

/// Loads and decodes a snapshot file.
///
/// # Errors
///
/// The file cannot be read, or its bytes are not a valid snapshot
/// (corruption, wrong version) — the message names the path.
pub fn load_snapshot(path: &Path) -> Result<EngineSnapshot, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    EngineSnapshot::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// How a bench bin runs a scenario: the values its flags set.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// State cap and sampling period applied to the scenario.
    pub limits: RunLimits,
    /// `Some(w)` drives the sharded engine with `w` workers (DESIGN.md
    /// §5; the report is bit-identical, plus
    /// [`RunReport::parallel`](sde_core::RunReport::parallel) counters);
    /// `None` runs serially.
    pub workers: Option<usize>,
    /// Solver layers enabled before the run starts.
    pub layers: SolverLayers,
    /// Online duplicate-dispatch pruning (DESIGN.md §10). Canonical
    /// outputs are dedup-invariant (`tests/dedup_equivalence.rs`); the
    /// payoff shows in `states_executed` and `RunReport::dedup`. A
    /// resumed run keeps the flag its snapshot carries.
    pub dedup: bool,
    /// The `--trace` base path: record the run into a
    /// [`RingSink`] and write it to [`trace_file_for`]`(base, label)`.
    pub trace: Option<PathBuf>,
    /// Checkpoint / resume (DESIGN.md §8).
    pub checkpoint: Option<Checkpointing>,
}

impl RunConfig {
    /// Runs `scenario` under `algorithm` — the one place the harness
    /// builds and drives an [`Engine`] for a report. `label` names the
    /// run's files: its trace and its `<bin>_<label>.snap` snapshot.
    ///
    /// With checkpointing, the run resumes from the snapshot
    /// [`Checkpointing::resume_path`] finds, then runs in `every`-event
    /// segments and writes a snapshot at every pause. `Ok(None)` means
    /// `--stop-after` ended the run early (the snapshot on disk carries
    /// the progress). Otherwise the result is the report — key-identical
    /// to an uninterrupted run's — and the trace events, empty when the
    /// run was not traced.
    ///
    /// # Errors
    ///
    /// A snapshot that cannot be read, decoded or resumed (another
    /// algorithm's, or another scenario's), or a snapshot or trace file
    /// that cannot be written; each message names the path.
    pub fn run(
        &self,
        scenario: &Scenario,
        algorithm: Algorithm,
        label: &str,
    ) -> Result<Option<(RunReport, Vec<TimedEvent>)>, String> {
        let scenario = scenario
            .clone()
            .with_state_cap(self.limits.state_cap)
            .with_sample_every(self.limits.sample_every);
        let checkpoint = self.checkpoint.as_ref();
        let mut engine = match checkpoint.and_then(|c| c.resume_path(label)) {
            Some(path) => resume(scenario, algorithm, &path)?,
            None => Engine::new(scenario, algorithm).with_dedup(self.dedup),
        };
        let trace = self
            .trace
            .as_ref()
            .map(|base| (base, Arc::new(RingSink::default())));
        if let Some((_, sink)) = &trace {
            engine = engine.with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
        }
        self.layers.apply(engine.solver());
        let budget = match checkpoint {
            Some(c) if c.every > 0 => Budget::events(c.every),
            _ => Budget::unlimited(),
        };
        let mut written = 0u64;
        loop {
            let outcome = match self.workers {
                None => engine.run_until(budget),
                Some(w) => engine.run_until_sharded(w, budget),
            };
            if outcome.is_complete() {
                break;
            }
            let checkpoint = checkpoint.expect("only a checkpoint budget pauses a run");
            let path = checkpoint.snapshot_path(label);
            write_file(&path, engine.snapshot().to_bytes())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            written += 1;
            if checkpoint.stop_after.is_some_and(|n| written >= n) {
                println!(
                    "     | stopped after {written} snapshot(s): {}",
                    path.display()
                );
                return Ok(None);
            }
        }
        let report = engine.into_report();
        let Some((base, sink)) = trace else {
            return Ok(Some((report, Vec::new())));
        };
        if sink.dropped() > 0 {
            eprintln!(
                "warning: trace ring evicted {} events (capacity {}); the file is truncated",
                sink.dropped(),
                sde_trace::DEFAULT_RING_CAPACITY
            );
        }
        let events = sink.take();
        let file = trace_file_for(base, label);
        write_trace(&file, &events).map_err(|e| format!("{}: {e}", file.display()))?;
        Ok(Some((report, events)))
    }
}

/// Resumes a run of `algorithm` from the snapshot at `path`.
fn resume(scenario: Scenario, algorithm: Algorithm, path: &Path) -> Result<Engine, String> {
    let snap = load_snapshot(path)?;
    if snap.algorithm() != algorithm {
        return Err(format!(
            "{}: snapshot is a {} run, expected {algorithm}",
            path.display(),
            snap.algorithm()
        ));
    }
    let engine = Engine::resume(scenario, &snap).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "     | resumed from {} ({} events, {} states in)",
        path.display(),
        snap.events_processed(),
        snap.total_states()
    );
    Ok(engine)
}

/// Derives a per-run trace filename from the `--trace` base path:
/// `out.jsonl` + `cob` → `out_cob.jsonl`.
pub fn trace_file_for(base: &Path, label: &str) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("jsonl");
    base.with_file_name(format!("{stem}_{label}.{ext}"))
}

/// Writes one recorded run to disk: deterministic JSONL at `path` plus a
/// Chrome `trace_event` twin at `<path stem>.chrome.json` (load it in
/// `chrome://tracing` or Perfetto).
///
/// # Errors
///
/// Propagates I/O errors from writing either file.
pub fn write_trace(path: &Path, events: &[TimedEvent]) -> std::io::Result<()> {
    create_parent(path)?;
    sde_trace::write_jsonl(path, events, true)?;
    sde_trace::write_chrome_trace(&path.with_extension("chrome.json"), events)
}

/// This process's peak resident set (`VmHWM` of `/proc/self/status`) in
/// bytes — what the estimates in a table row are to be read against.
/// `None` where the kernel does not say.
pub fn vm_hwm_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Formats the Table I header.
pub fn table_header() -> String {
    format!(
        "{:<4} | {:>12} | {:>10} | {:>12} | {:>13} |",
        "alg", "runtime", "states", "RAM (est.)", "mapper (est.)"
    )
}

/// `(name, value)` members of a JSON object, one per field of `$s` named,
/// each keyed by its field name.
macro_rules! members {
    ($s:expr; $($field:ident),*) => {
        [$((stringify!($field), Json::from($s.$field))),*]
    };
}

/// Serializes one run report as a JSON object — the machine-readable
/// record behind `BENCH_table1.json` / `BENCH_fig10.json`.
/// `history_digest` is a hex string ([`Json::hex`]).
pub fn report_json(label: &str, report: &RunReport) -> Json {
    let wall_ms = Json::Num(format!("{:.3}", report.wall.as_secs_f64() * 1000.0));
    let mut row = vec![
        ("label", label.into()),
        ("algorithm", report.algorithm.into()),
        ("wall_ms", wall_ms),
    ];
    let counts = members!(report; virtual_ms, total_states, live_states, final_bytes,
        peak_bytes, mapper_bytes, instructions, events, packets, aborted, groups,
        duplicate_states, duplicate_terminated, states_executed);
    row.extend(counts);
    row.push(("history_digest", Json::hex(report.history_digest)));
    let solver = members!(report.solver; queries, cache_hits, group_cache_hits, sat, unsat,
        unknown, nodes_visited);
    row.push(("solver", Json::obj(solver)));
    // The dedup block is emitted only when the detector did anything —
    // all-zero stats mean dedup was off (or preset-gated) and the block
    // would be noise.
    let d = &report.dedup;
    if *d != sde_core::DedupStats::default() {
        let dedup = members!(d; candidates, confirmed, collisions, pruned_states,
            saved_instructions);
        row.push(("dedup", Json::obj(dedup)));
    }
    if let Some(p) = &report.parallel {
        let counts = members!(p; workers, batches, offloaded_batches, jobs, worker_events,
            worker_instructions, worker_aborts, shard_recorded, shard_applied, shard_fallback,
            shard_skips, shard_tainted);
        let utilization = ("utilization", Json::Num(format!("{:.4}", p.utilization())));
        let parallel = Json::obj(counts.into_iter().chain([utilization]));
        row.push(("parallel", parallel));
    }
    Json::obj(row)
}

/// Serializes one [`ConformanceReport`] as a JSON object for
/// `BENCH_oracle.json`. Every truncation flag the oracle tracks is a
/// first-class field — a truncated verdict must be machine-detectable,
/// not buried in a prose summary.
pub fn conformance_json(label: &str, report: &ConformanceReport) -> Json {
    let r = report;
    let mut row = vec![
        ("label", label.into()),
        ("algorithm", r.algorithm.into()),
        ("clean", r.is_clean().into()),
        ("exhaustive", r.exhaustive().into()),
    ];
    let truth = members!(r; truth_outcomes, truth_assignments, truth_infeasible, truth_replays,
        truth_truncated);
    row.extend(truth);
    row.push(("domain_truncated", r.domain_truncated.clone().into()));
    let cases = members!(r; input_space, cases, dscenarios_seen, unsolvable, testgen_truncated,
        matched);
    row.extend(cases);
    row.extend([
        ("missing_count", r.missing.len().into()),
        ("phantom_count", r.phantom.len().into()),
        ("duplicates", r.duplicates.into()),
        ("missing", r.missing.clone().into()),
        ("phantom", r.phantom.clone().into()),
    ]);
    Json::obj(row)
}

/// Serializes one [`TestGenReport`] as a JSON object — the `--testgen`
/// companion record in `BENCH_table1.json`. `truncated` is the point:
/// a capped generation pass must say so in the machine-readable output.
pub fn testgen_json(label: &str, report: &TestGenReport) -> Json {
    Json::obj([
        ("label", label.into()),
        ("cases", report.cases.len().into()),
        ("dscenarios_seen", report.dscenarios_seen.into()),
        ("unsolvable", report.unsolvable.into()),
        ("truncated", report.truncated.into()),
    ])
}

/// Writes [`report_json`]-style rows as a pretty JSON array to `path`.
///
/// # Errors
///
/// Propagates I/O errors from writing the file.
pub fn write_bench_json(path: &Path, rows: Vec<Json>) -> std::io::Result<()> {
    write_file(path, Json::Arr(rows).to_pretty())
}

/// Parses `--key value`-style arguments (tiny, dependency-free).
#[derive(Debug, Clone, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    positionals: Vec<String>,
    /// Every `(key, takes a value)` a getter asked for, present or not:
    /// what [`Args::finish`] accepts.
    read: RefCell<Vec<(String, bool)>>,
}

impl Args {
    /// Parses the process arguments.
    pub fn from_env() -> Args {
        let mut args = Args::default();
        let mut iter = std::env::args().skip(1).peekable();
        while let Some(a) = iter.next() {
            let Some(key) = a.strip_prefix("--") else {
                args.positionals.push(a);
                continue;
            };
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    args.pairs
                        .push((key.to_string(), iter.next().expect("peeked")));
                }
                _ => args.flags.push(key.to_string()),
            }
        }
        args
    }

    fn mark(&self, key: &str, value: bool) {
        self.read.borrow_mut().push((key.to_string(), value));
    }

    /// Exits 2 naming every argument no getter read: a misspelled flag
    /// (`--dedupe`), a flag without the value it takes (or with one it
    /// does not), a stray word. Each bin calls it once it has read all
    /// its flags, before it runs anything — an ignored flag would run the
    /// default experiment and exit 0.
    pub fn finish(&self) {
        let read = self.read.borrow();
        let unread = |key: &String, value: bool| !read.contains(&(key.clone(), value));
        let pairs = self.pairs.iter().filter(|(k, _)| unread(k, true));
        let flags = self.flags.iter().filter(|k| unread(k, false));
        let stray: Vec<String> = pairs
            .map(|(k, v)| format!("--{k} {v}"))
            .chain(flags.map(|k| format!("--{k}")))
            .chain(self.positionals.iter().map(|p| format!("{p:?}")))
            .collect();
        if !stray.is_empty() {
            or_usage::<()>(Err(format!(
                "unexpected argument(s): {} (misspelled, missing a value, or not a flag of this bin)",
                stray.join(", ")
            )));
        }
    }

    /// The value of `--key`, parsed. `Ok(None)` when the flag is absent.
    ///
    /// # Errors
    ///
    /// The flag is present but its value does not parse — a typo'd
    /// `--side banana` must not silently fall back to a default and
    /// launch the wrong (possibly much heavier) experiment. Bins pass the
    /// result through [`or_usage`].
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.mark(key, true);
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| {
                v.parse()
                    .map_err(|_| format!("invalid value {v:?} for --{key}"))
            })
            .transpose()
    }

    /// The value of `--key`, or `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// See [`Args::get`].
    pub fn get_or(&self, key: &str, default: &str) -> Result<String, String> {
        Ok(self.get(key)?.unwrap_or_else(|| default.to_string()))
    }

    /// Whether the bare flag `--key` was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.mark(key, false);
        self.flags.iter().any(|f| f == key)
    }

    /// `--out DIR`: where a bin's records land (default `bench_out`).
    ///
    /// # Errors
    ///
    /// See [`Args::get`].
    pub fn out_dir(&self) -> Result<PathBuf, String> {
        self.get_or("out", "bench_out").map(PathBuf::from)
    }

    /// `--tag T` as the `_T` suffix of a record's file name; empty when
    /// absent.
    ///
    /// # Errors
    ///
    /// See [`Args::get`].
    pub fn tag(&self) -> Result<String, String> {
        Ok(self
            .get::<String>("tag")?
            .map(|t| format!("_{t}"))
            .unwrap_or_default())
    }

    /// `--faults LIST`, parsed by [`parse_fault_axes`]; `None` when
    /// absent.
    ///
    /// # Errors
    ///
    /// An unknown axis name.
    pub fn faults(&self) -> Result<Option<Vec<FailureKind>>, String> {
        self.get::<String>("faults")?
            .map(|list| parse_fault_axes(&list))
            .transpose()
    }

    /// `--trace PATH`: the base path of a bin's trace files (the trace
    /// file itself for `lineage`).
    ///
    /// # Errors
    ///
    /// See [`Args::get`].
    pub fn trace(&self) -> Result<Option<PathBuf>, String> {
        self.get("trace")
    }
}

/// Parses an `--algorithm` value.
///
/// # Errors
///
/// The message names the accepted values.
pub fn parse_algorithm(name: &str) -> Result<Algorithm, String> {
    match name {
        "cob" => Ok(Algorithm::Cob),
        "cow" => Ok(Algorithm::Cow),
        "sds" => Ok(Algorithm::Sds),
        other => Err(format!(
            "unknown --algorithm {other:?} (expected cob|cow|sds)"
        )),
    }
}

/// Unwraps a parsed flag value; on `Err` prints the message (which names
/// the accepted values) and exits **2**, the bins' "could not run" code —
/// a panic's 101 is for bugs, not typos.
pub fn or_usage<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(scenario: &Scenario, algorithm: Algorithm, config: &RunConfig) -> RunReport {
        let (report, _) = config
            .run(scenario, algorithm, "test")
            .expect("an untraced, uncheckpointed run cannot fail")
            .expect("only --stop-after ends a run early");
        report
    }

    fn limited(state_cap: usize, sample_every: u64) -> RunConfig {
        RunConfig {
            limits: RunLimits {
                state_cap,
                sample_every,
            },
            ..RunConfig::default()
        }
    }

    #[test]
    fn paper_scenario_shape() {
        let s = paper_scenario(5);
        assert_eq!(s.node_count(), 25);
        assert_eq!(s.duration_ms, 10_000);
        assert!(!s.failures.is_empty());
    }

    #[test]
    fn limits_apply() {
        let r = run(&paper_scenario(3), Algorithm::Cob, &limited(50, 8));
        assert!(r.aborted, "a 50-state cap must abort COB");
        assert!(r.total_states >= 50);
    }

    #[test]
    fn bench_json_reads_back_as_written() {
        let r = run(&paper_scenario(3), Algorithm::Sds, &limited(10_000, 64));
        let row = report_json("sds_full", &r);
        assert_eq!(row["label"].as_str(), Some("sds_full"));
        assert_eq!(row["packets"].as_int(), Some(r.packets));
        assert!(row["solver"]["group_cache_hits"].as_int().is_some());
        assert!(row["wall_ms"] != Json::Null);
        let dir = std::env::temp_dir().join("sde-bench-json-test");
        let path = dir.join("BENCH_test.json");
        write_bench_json(&path, vec![row.clone(), row.clone()]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("[\n  {\n    \"label\": \"sds_full\",\n"));
        let rows = sde_trace::json::parse(&content).unwrap();
        assert_eq!(rows, Json::Arr(vec![row.clone(), row]));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn layer_toggles_are_answer_preserving_and_observable() {
        // COW and SDS on the 2×2 sense grid; COB on the 3×3 one, where
        // every fork copies the source and each copy mints its own reading.
        for (s, algorithm) in [
            (symbolic_grid(2), Algorithm::Cow),
            (symbolic_grid(2), Algorithm::Sds),
            (symbolic_grid(3), Algorithm::Cob),
        ] {
            let with_layers = |layers| {
                let config = RunConfig {
                    layers,
                    ..RunConfig::default()
                };
                run(&s, algorithm, &config)
            };
            let full = with_layers(SolverLayers::Full);
            let off = with_layers(SolverLayers::Off);
            // Cache layers may only change solver counters, never the run.
            assert_eq!(full.equivalence_key(), off.equivalence_key());
            assert!(full.solver.cache_hits > 0, "{:?}", full.solver);
            assert!(full.solver.group_cache_hits > 0, "{:?}", full.solver);
            assert_eq!(off.solver.cache_hits, 0, "{:?}", off.solver);
            assert_eq!(off.solver.group_cache_hits, 0, "{:?}", off.solver);
            if algorithm == Algorithm::Cob {
                // The exact cache keys modulo symbol renaming: one
                // parity-guard sweep (65 537 nodes) per route hop — 262 908
                // nodes in all — however many readings the forked sources
                // minted. Keyed by symbol it was 68 sweeps, 4 469 300
                // nodes; a key-scheme regression fails here on a count,
                // not on a wall time.
                assert!(full.solver.nodes_visited < 300_000, "{:?}", full.solver);
            }
        }
    }

    #[test]
    fn fault_axes_parse_and_apply() {
        assert_eq!(parse_fault_axes("all"), Ok(FailureKind::AXES.to_vec()));
        assert_eq!(
            parse_fault_axes("partition,crashrec"),
            Ok(vec![FailureKind::Partition, FailureKind::CrashRecovery])
        );
        assert_eq!(
            join_axes(&FailureKind::AXES),
            "partition+latency+corrupt+crashrec"
        );
        let base = oracle_scenario("tiny").unwrap();
        assert_eq!(with_fault_axes(base.clone(), &[]).failures, base.failures);
        let all = with_fault_axes(base.clone(), &FailureKind::AXES);
        assert!(all.failures.cut_contains(NodeId(0), NodeId(1)));
        assert_eq!(
            all.failures.heal_choices().len(),
            2,
            "heal time is symbolic"
        );
        assert_eq!(all.failures.budgets(NodeId(0))[3..], [1; 4]);
        assert_eq!(all.failures.persist_base(), sde_os::layout::PERSIST_BASE);
        // One axis alone is exactly that axis, and the workload's own
        // drops stay.
        for axis in FailureKind::AXES {
            let one = with_fault_axes(base.clone(), &[axis]);
            assert_eq!(one.failures.active_axes(), vec![axis]);
            assert_eq!(one.failures.budget(NodeId(0), FailureKind::PacketDrop), 1);
        }
    }

    #[test]
    fn fault_axis_typo_is_loud() {
        let faults = |value: &str| Args {
            pairs: vec![("faults".to_string(), value.to_string())],
            ..Args::default()
        };
        assert_eq!(Args::default().faults(), Ok(None));
        assert_eq!(faults("all").faults(), Ok(Some(FailureKind::AXES.to_vec())));
        assert_eq!(
            faults("partition,latncy").faults(),
            Err("unknown fault axis \"latncy\" \
                 (expected partition|latency|corrupt|crashrec|all)"
                .to_string())
        );
    }

    #[test]
    fn oracle_presets_resolve() {
        assert_eq!(oracle_scenario("tiny").unwrap().node_count(), 2);
        assert_eq!(oracle_scenario("line3").unwrap().node_count(), 3);
        assert_eq!(oracle_scenario("grid").unwrap().node_count(), 4);
    }

    #[test]
    fn oracle_preset_typo_is_loud() {
        let err = oracle_scenario("tinny").unwrap_err();
        assert!(err.contains("unknown oracle preset \"tinny\""), "{err}");
        assert!(err.contains("tiny|line3|grid"), "{err}");
    }

    #[test]
    fn conformance_json_surfaces_truncation() {
        use sde_core::oracle::{conformance_against, ground_truth, OracleConfig};
        let scenario = oracle_scenario("tiny").unwrap();
        let cfg = OracleConfig::default();
        let truth = ground_truth(&scenario, &cfg);
        let clean = conformance_against(&truth, &scenario, Algorithm::Sds, None, &cfg);
        let obj = conformance_json("tiny_sds", &clean);
        assert_eq!(obj["truth_truncated"], Json::Bool(false), "{obj}");
        assert_eq!(obj["testgen_truncated"], Json::Bool(false), "{obj}");
        assert_eq!(obj["clean"], Json::Bool(true), "{obj}");

        // A capped enumeration must be loud in both renderings.
        let tight = OracleConfig {
            max_assignments: 1,
            ..OracleConfig::default()
        };
        let capped_truth = ground_truth(&scenario, &tight);
        let capped = conformance_against(&capped_truth, &scenario, Algorithm::Sds, None, &tight);
        let obj = conformance_json("tiny_capped", &capped);
        assert_eq!(obj["truth_truncated"], Json::Bool(true), "{obj}");
        assert_eq!(obj["exhaustive"], Json::Bool(false), "{obj}");
        assert!(
            capped.summary().contains("TRUNCATED"),
            "{}",
            capped.summary()
        );
    }

    #[test]
    fn testgen_json_surfaces_truncation() {
        use sde_core::testgen;
        let scenario = oracle_scenario("line3").unwrap();
        let mut engine = Engine::new(scenario, Algorithm::Sds);
        engine.run_in_place();
        let full = testgen::generate(&engine, 4096);
        assert!(!full.truncated);
        let obj = testgen_json("line3_sds", &full);
        assert_eq!(obj["truncated"], Json::Bool(false), "{obj}");

        let capped = testgen::generate(&engine, 1);
        assert!(capped.truncated, "a 1-case cap must truncate line3");
        let obj = testgen_json("line3_capped", &capped);
        assert_eq!(obj["truncated"], Json::Bool(true), "{obj}");
    }

    #[test]
    fn csv_roundtrip() {
        let r = run(&paper_scenario(3), Algorithm::Sds, &RunConfig::default());
        let dir = std::env::temp_dir().join("sde-bench-test");
        let path = dir.join("series.csv");
        write_file(&path, r.series.to_csv()).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("wall_ms,"));
        assert!(content.lines().count() > 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sde-bench-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn write_file_creates_parents_and_writes() {
        let dir = scratch("ok");
        let path = dir.join("nested").join("artifact.json");
        write_file(&path, "[]\n").expect("fresh temp path must be writable");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[]\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_file_surfaces_io_errors() {
        // A regular file where the parent directory should be: both the
        // create_dir_all and the write must fail as an Err, never panic.
        let blocker = scratch("blocked");
        std::fs::write(&blocker, "not a directory").unwrap();
        let path = blocker.join("artifact.json");
        assert!(
            write_file(&path, "[]\n").is_err(),
            "writing under a regular file must report the IO error"
        );
        std::fs::remove_file(&blocker).unwrap();
    }
}
