//! The strategy matrix: every way of executing a scenario must reproduce
//! its serial run (DESIGN.md §5, "The strategy matrix").
//!
//! A [`Row`] is a scenario, optionally replayed under a preset. A
//! [`Column`] is an execution strategy: serial or `run_sharded(w)`, solver
//! layers, dedup, a trace sink, contention, and how the run is driven
//! ([`Drive`]). [`check`] runs every row × algorithm × column cell and
//! compares it with the row's serial [`Baseline`], which is computed once
//! per test binary and shared by all of its tests:
//!
//! - exact columns compare `RunReport::equivalence_key`;
//! - dedup columns compare [`Canonical`]: a replayed state clones the
//!   survivor's expressions instead of minting fresh symbols, so raw
//!   digests, and with them the key, legitimately differ;
//! - traced columns also compare the trace JSONL byte for byte.
//!
//! Every cell also passes its column's side checks: worker stats in
//! bounds, dedup never executing more, no cache answers under
//! `--layers off`, bookkeeping equal to its rescans after every slice,
//! a pause that actually happened, and — in every interrupted and sliced
//! cell — an engine resumed from snapshot bytes whose own snapshot equals
//! the one it was resumed from, field by field
//! (`EngineSnapshot::first_difference`).

use super::seeded::{scenario_from_seed, seeds, splitmix64};
use super::{collect, failure_model, grid_collect, line_collect, ring_hello};
use sde::prelude::*;
use sde::trace::to_jsonl;
use sde::vm::Preset;
use sde_core::DedupStats;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// The worker counts of the sharded columns.
pub const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// One scenario of the matrix. The label names the scenario: rows with
/// one label share one baseline.
#[derive(Clone)]
pub struct Row {
    pub label: String,
    pub scenario: Scenario,
    /// A replay preset: the row is one concrete dscenario.
    pub preset: Option<Preset>,
}

impl Row {
    pub fn new(label: impl Into<String>, scenario: Scenario) -> Row {
        Row {
            label: label.into(),
            scenario,
            preset: None,
        }
    }

    fn engine(&self, alg: Algorithm) -> Engine {
        let engine = Engine::new(self.scenario.clone(), alg);
        match &self.preset {
            Some(preset) => engine.with_preset(preset.clone()),
            None => engine,
        }
    }
}

/// The bench bins' `--layers`: which solver cache layers may answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layers {
    Full,
    /// Whole-query exact matching only.
    Exact,
    /// Every cache layer disabled.
    Off,
}

/// How a cell's run is driven to completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drive {
    /// One unbounded run.
    Straight,
    /// Paused every `every` events (between batches when sharded), each
    /// pause a snapshot → resume; the first `bytes` pauses put the
    /// snapshot through its byte codec (the rest skip it, since a
    /// round trip at every pause makes a long run quadratic).
    Interrupted { every: u64, bytes: usize },
    /// `run_until` slices of `every` events with `check_accounting` after
    /// each, resumed from its snapshot bytes once, after slice
    /// `resume_after`.
    Sliced {
        every: u64,
        resume_after: Option<usize>,
    },
}

/// One execution strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Column {
    /// `None` is the serial engine, `Some(w)` `run_until_sharded(w, ..)`.
    pub workers: Option<usize>,
    pub layers: Layers,
    pub dedup: bool,
    pub traced: bool,
    pub drive: Drive,
    /// Seed of the spinner threads that compete for the cores meanwhile.
    pub contention: Option<u64>,
}

/// The serial engine with every default: the baseline's own strategy,
/// which as a column is the repeat run.
pub const SERIAL: Column = Column {
    workers: None,
    layers: Layers::Full,
    dedup: false,
    traced: false,
    drive: Drive::Straight,
    contention: None,
};

impl Column {
    pub const fn sharded(workers: usize) -> Column {
        let mut col = SERIAL;
        col.workers = Some(workers);
        col
    }

    pub const fn layers(mut self, layers: Layers) -> Column {
        self.layers = layers;
        self
    }

    pub const fn dedup(mut self) -> Column {
        self.dedup = true;
        self
    }

    pub const fn traced(mut self) -> Column {
        self.traced = true;
        self
    }

    /// Paused every `every` events, the first three pauses through the
    /// snapshot's byte codec.
    pub const fn interrupted(mut self, every: u64) -> Column {
        self.drive = Drive::Interrupted { every, bytes: 3 };
        self
    }

    /// Paused every `every` events, each pause through the byte codec.
    pub const fn interrupted_via_bytes(mut self, every: u64) -> Column {
        self.drive = Drive::Interrupted {
            every,
            bytes: usize::MAX,
        };
        self
    }

    pub const fn sliced(mut self, every: u64, resume_after: Option<usize>) -> Column {
        self.drive = Drive::Sliced {
            every,
            resume_after,
        };
        self
    }

    pub const fn contended(mut self, seed: u64) -> Column {
        self.contention = Some(seed);
        self
    }
}

/// Canonical, symbol-id-free fingerprint of what a run explored and
/// found: two runs with this value equal covered the same behaviour.
#[derive(Debug, PartialEq, Eq)]
pub struct Canonical {
    /// Per node, the explored path identities (branch-decision digests,
    /// which neither state ids nor symbol ids enter).
    pub paths: BTreeMap<NodeId, BTreeSet<u64>>,
    pub dscenarios: BTreeSet<Vec<(u16, u64)>>,
    /// Per bug: node, then kind, location and message.
    pub bugs: BTreeSet<(u16, String)>,
    pub total_states: usize,
    pub live_states: usize,
    pub final_bytes: usize,
    pub events: u64,
    pub packets: u64,
    pub groups: usize,
    pub aborted: bool,
}

/// Every represented dscenario as a sorted list of `(node, path_digest)`
/// pairs — comparable across algorithms.
pub fn dscenario_fingerprints(engine: &Engine) -> BTreeSet<Vec<(u16, u64)>> {
    let mut out = BTreeSet::new();
    for dscenario in engine.mapper().dscenarios() {
        let mut fp: Vec<(u16, u64)> = dscenario
            .iter()
            .filter_map(|id| engine.state(*id))
            .map(|s| (s.node.0, s.vm.path_digest()))
            .collect();
        fp.sort_unstable();
        out.insert(fp);
    }
    out
}

/// Canonicalizes a finished engine and consumes it into its report.
fn canonical(engine: Engine) -> (Canonical, RunReport) {
    let mut paths: BTreeMap<NodeId, BTreeSet<u64>> = BTreeMap::new();
    for s in engine.states() {
        paths.entry(s.node).or_default().insert(s.vm.path_digest());
    }
    let dscenarios = dscenario_fingerprints(&engine);
    let report = engine.into_report();
    let bugs = report.bugs.iter().map(|b| {
        let r = &b.report;
        (b.node.0, format!("{} at {}: {}", r.kind, r.loc, r.message))
    });
    let canonical = Canonical {
        paths,
        dscenarios,
        bugs: bugs.collect(),
        total_states: report.total_states,
        live_states: report.live_states,
        final_bytes: report.final_bytes,
        events: report.events,
        packets: report.packets,
        groups: report.groups,
        aborted: report.aborted,
    };
    (canonical, report)
}

/// The events of a serial traced run of `scenario`.
pub fn trace_events(scenario: &Scenario, alg: Algorithm) -> Vec<TraceEvent> {
    let sink = Arc::new(RingSink::default());
    let engine = Engine::new(scenario.clone(), alg);
    engine
        .with_trace_sink(sink.clone() as Arc<dyn TraceSink>)
        .run();
    assert_eq!(sink.dropped(), 0, "the trace ring evicted events");
    sink.take().into_iter().map(|t| t.ev).collect()
}

/// What one cell produced.
struct Cell {
    report: RunReport,
    canonical: Option<Canonical>,
    trace: Option<String>,
    pauses: usize,
}

/// Runs one cell, with its column's side checks, canonicalizing the
/// finished engine when `want_canonical`.
fn run(label: &str, row: &Row, alg: Algorithm, col: &Column, want_canonical: bool) -> Cell {
    let cell = match col.contention {
        Some(seed) => contended(seed, || execute(label, row, alg, col, want_canonical)),
        None => execute(label, row, alg, col, want_canonical),
    };
    side_checks(label, row, col, &cell);
    cell
}

fn execute(label: &str, row: &Row, alg: Algorithm, col: &Column, want_canonical: bool) -> Cell {
    let sink = col.traced.then(|| Arc::new(RingSink::default()));
    let attach = |engine: Engine| match &sink {
        Some(sink) => engine.with_trace_sink(Arc::clone(sink) as Arc<dyn TraceSink>),
        None => engine,
    };
    // A resume from bytes is checked field by field: the resumed engine's
    // snapshot must equal the one it was resumed from.
    let resumed = |engine: &Engine, bytes: bool| {
        let snapshot = engine.snapshot();
        if !bytes {
            return Engine::resume(row.scenario.clone(), &snapshot).expect("snapshot resumes");
        }
        let decoded = EngineSnapshot::from_bytes(&snapshot.to_bytes()).expect("bytes decode");
        let resumed = Engine::resume(row.scenario.clone(), &decoded).expect("snapshot resumes");
        let field = snapshot.first_difference(&resumed.snapshot());
        assert_eq!(field, None, "{label}: the resumed engine differs");
        resumed
    };
    let resume = |engine: &Engine, bytes: bool| {
        let resumed = resumed(engine, bytes);
        assert_eq!(
            resumed.dedup_enabled(),
            col.dedup,
            "{label}: resume lost dedup"
        );
        attach(resumed)
    };
    let step = |engine: &mut Engine, budget| match col.workers {
        None => engine.run_until(budget),
        Some(w) => engine.run_until_sharded(w, budget),
    };

    let mut engine = attach(row.engine(alg).with_dedup(col.dedup));
    match col.layers {
        Layers::Full => {}
        Layers::Exact => engine.solver().set_group_caching(false),
        Layers::Off => engine.solver().set_caching(false),
    }
    if col.layers != Layers::Full {
        engine.solver().set_cex_caching(false);
    }
    let mut pauses = 0;
    match col.drive {
        Drive::Straight => {
            step(&mut engine, Budget::unlimited());
        }
        Drive::Interrupted { every, bytes } => {
            while !step(&mut engine, Budget::events(every)).is_complete() {
                engine = resume(&engine, pauses < bytes);
                pauses += 1;
            }
        }
        Drive::Sliced {
            every,
            resume_after,
        } => loop {
            let done = step(&mut engine, Budget::events(every)).is_complete();
            let slice = pauses + 1;
            engine
                .check_accounting()
                .unwrap_or_else(|why| panic!("{label}, slice {slice}: {why}"));
            if done {
                break;
            }
            pauses += 1;
            if resume_after == Some(pauses) {
                engine = resume(&engine, true);
                engine
                    .check_accounting()
                    .unwrap_or_else(|why| panic!("{label}, just resumed: {why}"));
            } else if resume_after.is_none() && pauses == 1 {
                resumed(&engine, true); // the side check alone
            }
        },
    }
    if let Some(why) = engine.mapper().check_invariants() {
        panic!("{label}: mapper invariants: {why}");
    }
    let (canonical, report) = if want_canonical {
        let (canonical, report) = canonical(engine);
        (Some(canonical), report)
    } else {
        (None, engine.into_report())
    };
    let trace = sink.map(|sink| {
        assert_eq!(sink.dropped(), 0, "{label}: the trace ring evicted events");
        to_jsonl(&sink.take(), true)
    });
    Cell {
        report,
        canonical,
        trace,
        pauses,
    }
}

/// The checks a cell answers for on its own, whatever the baseline says.
fn side_checks(label: &str, row: &Row, col: &Column, cell: &Cell) {
    let report = &cell.report;
    match (col.workers, &report.parallel) {
        (None, stats) => assert!(stats.is_none(), "{label}: a serial run has no shard stats"),
        (Some(_), None) => panic!("{label}: a sharded run reports ParallelStats"),
        (Some(workers), Some(stats)) => {
            assert_eq!(stats.workers, workers, "{label}");
            // One recording may serve several congruent states, but none
            // is applied without one.
            let summary = stats.summary();
            assert!(
                stats.shard_applied == 0 || stats.shard_recorded > 0,
                "{label}: {summary}"
            );
            if col.drive == Drive::Straight {
                assert!(
                    (1..=report.events).contains(&stats.batches),
                    "{label}: batches count distinct timestamps: {summary}"
                );
            }
            if row.preset.is_some() {
                assert_eq!(stats.offloaded_batches, 0, "{label}: a preset offloads");
            }
        }
    }
    if row.preset.is_some() {
        assert_eq!(
            report.total_states,
            row.scenario.node_count(),
            "{label}: forked"
        );
    }
    let dedup = &report.dedup;
    if !col.dedup || row.preset.is_some() {
        assert_eq!(*dedup, DedupStats::default(), "{label}: dedup did work");
    }
    assert!(dedup.pruned_states >= dedup.confirmed, "{label}: {dedup:?}");
    assert_eq!(
        dedup.candidates,
        dedup.confirmed + dedup.collisions,
        "{label}"
    );
    if col.layers == Layers::Off {
        let s = &report.solver;
        let cached = s.cache_hits + s.group_cache_hits + s.model_reuse_hits;
        assert_eq!(cached, 0, "{label}: --layers off answered from a cache");
    }
    match col.drive {
        Drive::Straight => {}
        Drive::Interrupted { every, .. } if every > 7 => {}
        _ => assert!(cell.pauses > 0, "{label}: the run is too small to pause"),
    }
    let last = report.series.samples().last().expect("a final sample");
    assert_eq!(
        (last.live_states, last.bytes),
        (report.live_states, report.final_bytes),
        "{label}: the final sample and the report read different totals"
    );
}

/// A row's serial run under one algorithm. One run computes every part
/// the columns of a [`check`] need; a part a later check needs costs one
/// more run.
pub struct Baseline {
    row: Row,
    alg: Algorithm,
    /// Held while a run fills the parts, so concurrent tests wait for it.
    filling: Mutex<()>,
    report: OnceLock<RunReport>,
    canonical: OnceLock<Canonical>,
    trace: OnceLock<String>,
    dedup: OnceLock<RunReport>,
}

impl Baseline {
    fn label(&self) -> String {
        format!("[{}] {} baseline", self.row.label, self.alg)
    }

    /// Runs the serial engine once if a part asked for is missing.
    fn fill(&self, canonical: bool, traced: bool) {
        // A run that panicked leaves every part unset or whole: recover
        // the guard, and the next test runs (and fails) for itself.
        let _filling = self.filling.lock().unwrap_or_else(PoisonError::into_inner);
        let canonical = canonical && self.canonical.get().is_none();
        let traced = traced && self.trace.get().is_none();
        if !canonical && !traced && self.report.get().is_some() {
            return;
        }
        let col = if traced { SERIAL.traced() } else { SERIAL };
        let cell = run(&self.label(), &self.row, self.alg, &col, canonical);
        let _ = self.report.set(cell.report);
        if let Some(canonical) = cell.canonical {
            let _ = self.canonical.set(canonical);
        }
        if let Some(trace) = cell.trace {
            assert!(!trace.is_empty(), "{}: empty trace", self.label());
            let _ = self.trace.set(trace);
        }
    }

    pub fn report(&self) -> &RunReport {
        self.fill(false, false);
        self.report.get().expect("filled")
    }

    pub fn canonical(&self) -> &Canonical {
        self.fill(true, false);
        self.canonical.get().expect("filled")
    }

    fn trace(&self) -> &str {
        self.fill(false, true);
        self.trace.get().expect("filled")
    }

    /// The serial dedup run, which sharded and resumed dedup cells match.
    fn dedup(&self) -> &RunReport {
        self.dedup
            .get_or_init(|| run(&self.label(), &self.row, self.alg, &SERIAL.dedup(), false).report)
    }
}

/// The baseline of `row` under `alg`, shared by every test of the binary:
/// runs are deterministic, so sharing one changes no test's outcome.
pub fn baseline(row: &Row, alg: Algorithm) -> Arc<Baseline> {
    type Baselines = Mutex<HashMap<(String, Algorithm), Arc<Baseline>>>;
    static CACHE: OnceLock<Baselines> = OnceLock::new();
    let cache = CACHE.get_or_init(Default::default).lock();
    let mut cache = cache.unwrap_or_else(PoisonError::into_inner);
    let base = cache.entry((row.label.clone(), alg)).or_insert_with(|| {
        Arc::new(Baseline {
            row: row.clone(),
            alg,
            filling: Mutex::new(()),
            report: OnceLock::new(),
            canonical: OnceLock::new(),
            trace: OnceLock::new(),
            dedup: OnceLock::new(),
        })
    });
    let (a, b) = (&base.row.scenario, &row.scenario);
    assert!(
        a.topology == b.topology
            && a.failures == b.failures
            && (a.duration_ms, a.state_cap, a.sample_every)
                == (b.duration_ms, b.state_cap, b.sample_every),
        "two different scenarios are labelled {}",
        row.label
    );
    Arc::clone(base)
}

/// Runs every `rows × algorithms × columns` cell and compares it with its
/// row's serial baseline.
pub fn check(rows: &[Row], algorithms: &[Algorithm], columns: &[Column]) {
    // The repeat column also compares what was explored: the key folds
    // config digests, which leave the branch trace out.
    let canonical = |col: &Column| col.dedup || *col == SERIAL;
    let any_canonical = columns.iter().any(canonical);
    let any_traced = columns.iter().any(|col| col.traced);
    for row in rows {
        for &alg in algorithms {
            let base = baseline(row, alg);
            base.fill(any_canonical, any_traced);
            for col in columns {
                let label = format!("[{}] {alg} {col:?}", row.label);
                let cell = run(&label, row, alg, col, canonical(col));
                compare(&label, &base, col, &cell);
            }
        }
    }
}

fn compare(label: &str, base: &Baseline, col: &Column, cell: &Cell) {
    let report = &cell.report;
    if let Some(canonical) = &cell.canonical {
        assert_eq!(
            canonical,
            base.canonical(),
            "{label}: explored something else"
        );
    }
    if !col.dedup {
        assert_eq!(
            report.equivalence_key(),
            base.report().equivalence_key(),
            "{label}: diverged from the serial run"
        );
    } else {
        let plain = base.report();
        match (col.workers, col.drive) {
            (None, Drive::Straight) => assert!(
                report.states_executed <= plain.states_executed
                    && report.instructions <= plain.instructions,
                "{label}: dedup executed {} states / {} instructions, the plain run {} / {}",
                report.states_executed,
                report.instructions,
                plain.states_executed,
                plain.instructions
            ),
            // Recordings adopted by the merge feed the same memo index.
            (Some(_), Drive::Straight) => assert_eq!(
                (report.dedup, report.states_executed),
                (base.dedup().dedup, base.dedup().states_executed),
                "{label}: commit-path dedup must match the serial dedup run"
            ),
            // A resumed run starts with a cold memo index.
            (_, Drive::Interrupted { .. }) => assert!(
                report.states_executed >= base.dedup().states_executed,
                "{label}: a resumed run cannot execute fewer states ({} vs {})",
                report.states_executed,
                base.dedup().states_executed
            ),
            (_, Drive::Sliced { .. }) => {}
        }
    }
    if col.traced {
        assert!(
            cell.trace.as_deref() == Some(base.trace()),
            "{label}: trace differs from the serial trace"
        );
    }
}

/// Runs one cell on a thread of its own and demands that it panic within
/// `limit`: a run that fails must fail loud, never hang.
pub fn panics_within(row: &Row, alg: Algorithm, col: &Column, limit: Duration) {
    let label = format!("[{}] {alg} {col:?}", row.label);
    let (cell, row, col) = (label.clone(), row.clone(), *col);
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let ran = panic::catch_unwind(AssertUnwindSafe(|| run(&cell, &row, alg, &col, false)));
        let _ = done.send(ran.is_err());
    });
    match outcome.recv_timeout(limit) {
        Ok(panicked) => assert!(panicked, "{label}: ran to completion"),
        Err(_) => panic!("{label}: still running after {limit:?}"),
    }
}

/// COB is the correctness baseline (§III-A): COW and SDS must explore its
/// per-node paths and represent its dscenarios. A row where a run hit the
/// state cap is skipped, since partial explorations are incomparable;
/// returns whether the row was compared.
pub fn assert_algorithms_agree(row: &Row) -> bool {
    let bases = Algorithm::ALL.map(|alg| baseline(row, alg));
    if bases.iter().any(|b| b.canonical().aborted) {
        return false;
    }
    let cob = bases[0].canonical();
    assert!(
        !cob.dscenarios.is_empty(),
        "[{}] explored nothing",
        row.label
    );
    for (alg, base) in Algorithm::ALL.iter().zip(&bases).skip(1) {
        let other = base.canonical();
        assert_eq!(
            other.paths, cob.paths,
            "[{}] {alg} explored different per-node paths than COB",
            row.label
        );
        assert_eq!(
            other.dscenarios, cob.dscenarios,
            "[{}] {alg} represents different dscenarios than COB",
            row.label
        );
    }
    true
}

/// Sets its flag when dropped, so spinners stop even if the run panics.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Runs `f` while `2 × available_parallelism` spinner threads, seeded by
/// `seed`, alternate bursts of `yield_now` with sleeps of up to 63 µs.
fn contended<T>(seed: u64, f: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    let spinners = 2 * std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for i in 0..spinners as u64 {
            let stop = &stop;
            scope.spawn(move || {
                let mut state = seed ^ (i << 32);
                while !stop.load(Ordering::Relaxed) {
                    let r = splitmix64(&mut state);
                    for _ in 0..r % 64 {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_micros(r >> 58));
                }
            });
        }
        let _stop = StopOnDrop(&stop);
        f()
    })
}

// --- rows shared by several suites -----------------------------------------

/// [`collect`] of one packet for 4 s with one classic failure model on
/// two middle nodes (budget 1 each).
pub fn failure_row(name: &str, topology: Topology, model: &str) -> Row {
    let k = topology.len() as u16;
    let failures = failure_model(model, &[NodeId(1), NodeId(k / 2)]);
    let scenario = collect(topology, 1)
        .with_failures(failures)
        .with_duration_ms(4000);
    Row::new(format!("{name}-{model}"), scenario)
}

/// [`failure_row`] on line(4), grid(3×3) and ring(5).
pub fn failure_rows(model: &str) -> Vec<Row> {
    vec![
        failure_row("line4", Topology::line(4), model),
        failure_row("grid3x3", Topology::grid(3, 3), model),
        failure_row("ring5", Topology::ring(5), model),
    ]
}

/// The solver-bound workload: symbolic sensor readings classified at every
/// hop of a 4-node line. Receive-side dispatches mint no fresh symbols, so
/// shard workers record what the merge applies.
pub fn sense_line4() -> Row {
    let topology = Topology::line(4);
    let cfg = SenseConfig {
        source: NodeId(3),
        sink: NodeId(0),
        interval_ms: 1000,
        packet_count: 2,
        max_reading: 63,
        levels: 1,
        parity_guard: true,
    };
    let programs = sde::os::apps::sense::programs(&topology, &cfg);
    let scenario = Scenario::new(topology, programs)
        .with_duration_ms(4000)
        .with_history_tracking(true)
        .with_state_cap(60_000);
    Row::new("sense-line4", scenario)
}

/// A line with two symbolic drops, the paper's grid with drops on the
/// route, and a failure-free ring (no forking at delivery).
pub fn checkpoint_rows() -> Vec<Row> {
    vec![
        Row::new("line4-drop1+2", line_collect(4, &[1, 2], 2, false)),
        Row::new("grid3x3-route", grid_collect(3, 3, 3000, false)),
        Row::new("ring5-hello", ring_hello(5)),
    ]
}

/// The first `take` of the test cases (at most `limit` solved) of `row`'s
/// SDS run, each as a preset row.
pub fn preset_rows(row: &Row, limit: usize, take: usize) -> Vec<Row> {
    let mut engine = Engine::new(row.scenario.clone(), Algorithm::Sds);
    engine.run_in_place();
    let cases = sde_core::testgen::generate(&engine, limit).cases;
    assert!(!cases.is_empty(), "[{}] solved no test case", row.label);
    let rows = cases.iter().take(take).map(|case| Row {
        label: format!("{}/case{}", row.label, case.id),
        scenario: row.scenario.clone(),
        preset: Some(Preset::from_model(&case.model, engine.symbols())),
    });
    rows.collect()
}

/// The row of [`scenario_from_seed`]; its label leads with the seed.
pub fn seeded_row(seed: u64) -> Row {
    let (label, scenario) = scenario_from_seed(seed);
    Row::new(label, scenario)
}

/// `n` seeded rows, seeds spread from `base`.
pub fn seeded_rows(base: u64, n: u64) -> Vec<Row> {
    seeds(base, n).map(seeded_row).collect()
}
