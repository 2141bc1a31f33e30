//! The SDE engine: KleeNet's execution model.
//!
//! "KleeNet simulates a complete distributed system in a single process.
//! It starts with k states representing the nodes in the network. As in
//! any simulation, in each step KleeNet executes an event of a node and
//! advances the time to the next event in the queue. If the symbolic
//! execution of an event handler produces new states, they're simply
//! added to the state set." (§IV)
//!
//! The engine owns the states, the virtual-time event queue, the solver
//! and the symbol table; the pluggable [`StateMapper`] decides packet
//! receivers and the forking they require. Symbolic failures (packet
//! drop / duplication / node reboot) are injected at delivery time as
//! local forks — the network itself is ideal (paper footnote 2).

use crate::checkpoint::{Budget, EngineSnapshot, RunOutcome, SnapshotError};
use crate::dedup::{memo_key, DigestIndex, DispatchRecorder, LogOp, MemoEntry};
use crate::history::HistoryEvent;
use crate::mapping::{Algorithm, StateMapper, StateStore};
use crate::scenario::Scenario;
use crate::state::{SdeState, StateId};
use crate::stats::{BugFound, DedupStats, ParallelStats, RunReport, Sample, TimeSeries};
use crate::store::{IdSet, IndexedQueue, Store};
use sde_net::{NodeId, Packet, PacketId};
use sde_os::handlers;
use sde_symbolic::{BinOp, CastOp, Expr, ExprRef, Solver, SymbolTable, Value, Width};
use sde_vm::{
    step, BugKind, BugReport, FuncId, Loc, Program, Status, StepResult, Syscall, VmCtx, VmState,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// An event a node state reacts to.
#[derive(Debug, Clone)]
pub enum NodeEvent {
    /// Network boot: run `on_boot`.
    Boot,
    /// A timer armed by `SetTimer` fired: run `on_timer(id)`.
    Timer(u16),
    /// A packet mapped to this state arrives: run `on_recv(src, ...)`.
    Deliver(Packet),
}

/// The [`sde_trace::ForkReason`] of a failure/fault-model fork `kind`
/// (the `record_external_branch` numbering: 1 = drop, 2 = duplicate,
/// 3 = reboot, 4 = latency, 5 = corruption, 6 = crash, 7 = partition,
/// 8 = heal-choice).
fn failure_fork_reason(kind: u32) -> sde_trace::ForkReason {
    match kind {
        1 => sde_trace::ForkReason::Drop,
        2 => sde_trace::ForkReason::Duplicate,
        3 => sde_trace::ForkReason::Reboot,
        4 => sde_trace::ForkReason::Latency,
        5 => sde_trace::ForkReason::Corrupt,
        6 => sde_trace::ForkReason::Crash,
        7 => sde_trace::ForkReason::Partition,
        _ => sde_trace::ForkReason::Heal,
    }
}

/// The symbolic distributed execution engine. Construct with
/// [`Engine::new`], drive with [`Engine::run`] — or use the [`run`]
/// convenience function.
#[derive(Debug)]
pub struct Engine {
    /// Shared, never cloned: the shard workers read the topology, fault
    /// plan and programs through this one allocation.
    scenario: Arc<Scenario>,
    algorithm: Algorithm,
    mapper: Box<dyn StateMapper>,
    solver: Solver,
    symbols: SymbolTable,
    store: Store,
    now: u64,
    next_packet: u64,
    events_processed: u64,
    packets_sent: u64,
    instructions: u64,
    bugs: Vec<BugFound>,
    series: TimeSeries,
    aborted: bool,
    started: Instant,
    preset: Option<sde_vm::Preset>,
    parallel: Option<ParallelStats>,
    /// Trace sink (default [`sde_trace::NoopSink`]); `traced` caches
    /// `enabled()` so untraced sites pay one branch.
    sink: Arc<dyn sde_trace::TraceSink>,
    traced: bool,
    /// Always-on counter digest surfaced through [`RunReport::trace`].
    trace: sde_trace::TraceSummary,
    /// Online duplicate-dispatch pruning (DESIGN.md §10). Off by
    /// default; forced off under a replay preset.
    dedup: bool,
    /// Memoized dispatches keyed by incremental configuration digest.
    /// Never serialized: a resumed engine starts cold and re-records.
    dedup_index: DigestIndex,
    /// The dispatch currently being recorded (dedup on, key missed).
    recorder: Option<DispatchRecorder>,
    /// States that entered [`Engine::run_handler`] at least once —
    /// replayed duplicates never do, so `executed.len()` is the
    /// states-actually-executed metric the dedup ablation reports.
    executed: IdSet,
    /// Candidate / confirmed / collision / pruning counters.
    dedup_stats: DedupStats,
    /// Worker recordings for the batch the merge thread is currently
    /// committing ([`Engine::run_until_sharded`]); `None` outside
    /// sharded commits, so the sequential paths pay one `is_some`.
    shard_entries: Option<HashMap<u64, Vec<Arc<ShardRecord>>>>,
    /// Merge-side counters of the current sharded segment, drained into
    /// [`ParallelStats`] when the segment ends.
    shard_applied: u64,
    shard_fallback: u64,
    /// Whether any segment of this run used [`Engine::run_until_sharded`]
    /// (provenance; carried by snapshots).
    sharded: bool,
    /// Per-event scratch that outlives the event: `on_recv`'s arguments
    /// and the handler's stack of states still to run. Each is taken for
    /// one use and put back empty, so a dispatch allocates neither once
    /// they have grown. The states stay boxed: the table hands a box out
    /// and takes the same box back, so a state never moves.
    recv_args: Vec<Value>,
    #[allow(clippy::vec_box)]
    running: Vec<Box<SdeState>>,
}

impl Engine {
    /// Creates an engine for `scenario` using `algorithm` for state
    /// mapping.
    pub fn new(scenario: Scenario, algorithm: Algorithm) -> Engine {
        Engine {
            scenario: Arc::new(scenario),
            algorithm,
            mapper: algorithm.new_mapper(),
            solver: Solver::new(),
            symbols: SymbolTable::new(),
            store: Store::default(),
            now: 0,
            next_packet: 0,
            events_processed: 0,
            packets_sent: 0,
            instructions: 0,
            bugs: Vec::new(),
            series: TimeSeries::new(),
            aborted: false,
            started: Instant::now(),
            preset: None,
            parallel: None,
            sink: Arc::new(sde_trace::NoopSink),
            traced: false,
            trace: sde_trace::TraceSummary::default(),
            dedup: false,
            dedup_index: DigestIndex::default(),
            recorder: None,
            executed: IdSet::default(),
            dedup_stats: DedupStats::default(),
            shard_entries: None,
            shard_applied: 0,
            shard_fallback: 0,
            sharded: false,
            recv_args: Vec::new(),
            running: Vec::new(),
        }
    }

    /// Enables (or disables) online duplicate-dispatch detection and
    /// pruning (DESIGN.md §10): dispatches whose configuration digest
    /// matches an already-executed one — confirmed by exact structural
    /// comparison, so hash collisions can never merge distinct states —
    /// replay the recorded effects instead of re-executing the VM and
    /// re-querying the solver. The explored state set, bug set and
    /// generated test cases are unchanged; only the work to produce them
    /// shrinks (see [`RunReport::dedup`] and
    /// [`RunReport::states_executed`]).
    ///
    /// Ignored under a replay preset ([`Engine::with_preset`]): a strict
    /// replay follows a single concrete dscenario and must execute every
    /// step itself.
    pub fn set_dedup(&mut self, enabled: bool) {
        self.dedup = enabled;
    }

    /// Builder-style [`Engine::set_dedup`].
    #[must_use]
    pub fn with_dedup(mut self, enabled: bool) -> Engine {
        self.dedup = enabled;
        self
    }

    /// Whether duplicate-dispatch pruning is enabled.
    pub fn dedup_enabled(&self) -> bool {
        self.dedup
    }

    /// Duplicate-detection counters accumulated so far.
    pub fn dedup_stats(&self) -> DedupStats {
        self.dedup_stats
    }

    /// Attaches a trace sink (e.g. an [`sde_trace::RingSink`]): every
    /// dispatch, fork, mapping decision, packet event and solver query of
    /// the run is recorded through it. The sink is installed thread-locally
    /// for the run so the solver and the event queue — which sit below the
    /// engine in the crate graph — reach it too.
    ///
    /// A traced sharded run offloads nothing to its workers (DESIGN.md
    /// §13), so its trace is the serial run's, byte for byte, at any
    /// worker count.
    #[must_use]
    pub fn with_trace_sink(mut self, sink: Arc<dyn sde_trace::TraceSink>) -> Engine {
        self.traced = sink.enabled();
        self.store.traced = self.traced;
        self.sink = Arc::clone(&sink);
        self.store.sink = sink;
        self
    }

    /// Runs the scenario to completion (event queue drained, virtual
    /// duration reached, or state cap hit) and reports.
    pub fn run(mut self) -> RunReport {
        self.run_in_place();
        self.into_report()
    }

    /// Like [`Engine::run`] but keeps the engine alive so the final state
    /// set can be inspected (test-case generation, invariant checks).
    pub fn run_in_place(&mut self) {
        self.run_until(Budget::unlimited());
    }

    /// Runs until the scenario completes or `budget` is exhausted
    /// (DESIGN.md §8). Budget axes are checked *between* events, so a
    /// pause always lands at an event boundary where the engine can be
    /// [snapshotted](Engine::snapshot). A fresh engine boots on the first
    /// call; a paused or [resumed](Engine::resume) engine continues where
    /// it stopped. Driving a run through any sequence of budgets produces
    /// exactly the state set, report and trace stream of a single
    /// unbounded [`Engine::run_in_place`].
    pub fn run_until(&mut self, budget: Budget) -> RunOutcome {
        let _trace_guard = self
            .traced
            .then(|| sde_trace::install(Arc::clone(&self.sink)));
        self.started = Instant::now();
        if self.store.next_state == 0 {
            self.boot();
            self.trace.boot_wall_us = self.started.elapsed().as_micros() as u64;
            self.sample();
        }
        let events_start = self.events_processed;
        let instr_start = self.instructions;

        let outcome = loop {
            if self.budget_exhausted(budget, events_start, instr_start) {
                break RunOutcome::Paused;
            }
            if self.store.total_states > self.scenario.state_cap {
                self.aborted = true;
                break RunOutcome::Complete;
            }
            let Some(event) = self.store.events.pop() else {
                break RunOutcome::Complete;
            };
            if event.time > self.scenario.duration_ms {
                break RunOutcome::Complete;
            }
            self.now = event.time;
            let (state_id, kind) = event.payload;
            self.dispatch(state_id, kind);
            self.events_processed += 1;
            if self
                .events_processed
                .is_multiple_of(self.scenario.sample_every)
            {
                self.sample();
            }
        };

        // The final sample belongs to the *run*, not the segment: a paused
        // segment must leave the time series exactly as the uninterrupted
        // run would have it at this point.
        if outcome.is_complete() {
            self.sample();
        }
        self.trace.run_wall_us += self.started.elapsed().as_micros() as u64;
        outcome
    }

    /// `true` once any axis of `budget` is spent. Event and instruction
    /// axes are relative to the start of the current
    /// [`Engine::run_until`] call; the live-state axis is absolute.
    fn budget_exhausted(&self, budget: Budget, events_start: u64, instr_start: u64) -> bool {
        if let Some(n) = budget.max_events {
            if self.events_processed - events_start >= n {
                return true;
            }
        }
        if let Some(n) = budget.max_instructions {
            if self.instructions - instr_start >= n {
                return true;
            }
        }
        if let Some(n) = budget.max_live_states {
            if self.store.states.totals().0 >= n {
                return true;
            }
        }
        false
    }

    /// Phase 1 of the sharded loop: the hand-off. Moves the batch at
    /// `batch_time` — the earliest pending time — to the queue's front
    /// and returns one [`ShardJob`] per idle state with events in it, in
    /// order of each state's first event; a batch of fewer than two
    /// groups has nothing to overlap and yields none.
    ///
    /// The batch starts a fresh [`ClaimedKeys`] and a group is sent only
    /// if it can claim its first dispatch: the merge applies one recording
    /// to every congruent state, so a second execution could only be
    /// thrown away. The key decides what is *offered*; what is *applied*
    /// is confirmed structurally, so a collision costs a serial fallback.
    fn batch_jobs(
        &mut self,
        batch_time: u64,
        pstats: &mut ParallelStats,
        claims: &ClaimedKeys,
    ) -> Vec<ShardJob> {
        let groups = self.store.events.batch(batch_time);
        if groups.len() < 2 {
            return Vec::new();
        }
        pstats.offloaded_batches += 1;
        let mut claimed = claims.lock().expect("claimed keys");
        claimed.clear();
        let mut jobs = Vec::new();
        for sid in groups {
            let Some(state) = self.store.states.get(&sid).filter(|s| s.is_idle()) else {
                continue;
            };
            let mut events = self.store.events.pending_at(sid, batch_time).peekable();
            let first = events.peek().expect("a group has an event");
            let digest = state.vm.config_digest();
            let key = memo_key(state.node, digest, state.budgets(), batch_time, first);
            if !claimed.insert(key) {
                continue;
            }
            jobs.push(ShardJob {
                now: batch_time,
                state: state.clone(),
                events: events.cloned().collect(),
                symbols: self.symbols.forked(),
            });
        }
        pstats.jobs += jobs.len() as u64;
        jobs
    }

    /// Accumulates a segment's [`ParallelStats`] into the run's totals
    /// (counters and wall times add up; `workers` reflects the latest
    /// segment).
    fn merge_parallel(&mut self, fresh: ParallelStats) {
        let merged = match self.parallel.take() {
            Some(prev) => ParallelStats {
                workers: fresh.workers,
                batches: prev.batches + fresh.batches,
                offloaded_batches: prev.offloaded_batches + fresh.offloaded_batches,
                jobs: prev.jobs + fresh.jobs,
                worker_events: prev.worker_events + fresh.worker_events,
                worker_instructions: prev
                    .worker_instructions
                    .saturating_add(fresh.worker_instructions),
                worker_aborts: prev.worker_aborts + fresh.worker_aborts,
                worker_busy: prev.worker_busy + fresh.worker_busy,
                shard_recorded: prev.shard_recorded + fresh.shard_recorded,
                shard_applied: prev.shard_applied + fresh.shard_applied,
                shard_fallback: prev.shard_fallback + fresh.shard_fallback,
                shard_skips: prev.shard_skips + fresh.shard_skips,
                shard_tainted: prev.shard_tainted + fresh.shard_tainted,
                serial_wall: prev.serial_wall + fresh.serial_wall,
                dispatch_wall: prev.dispatch_wall + fresh.dispatch_wall,
                barrier_wall: prev.barrier_wall + fresh.barrier_wall,
                run_wall: prev.run_wall + fresh.run_wall,
            },
            None => fresh,
        };
        self.parallel = Some(merged);
    }

    /// Runs the scenario with `workers` *authoritative* shard workers and
    /// reports. The report is bit-identical to [`Engine::run`]'s (see
    /// [`RunReport::equivalence_key`]) at every worker count.
    pub fn run_sharded(mut self, workers: usize) -> RunReport {
        self.run_sharded_in_place(workers);
        self.into_report()
    }

    /// Like [`Engine::run_in_place`] but with true parallel execution
    /// (DESIGN.md §13): the frontier is partitioned into disjoint
    /// subtrees by root-fork lineage ([`SdeState::shard_root`]) and each
    /// worker *authoritatively* executes the groups of its subtrees —
    /// VM stepping, solver queries against a worker-local cache, forks —
    /// recording the dispatch effects exactly as the dedup layer does
    /// (PR 6 [`MemoEntry`] recordings). The merge thread then replays the
    /// event queue in serial order, *applying* each recorded entry
    /// (after an exact congruence check) instead of re-executing it, so
    /// state ids, packet ids, histories and the report are identical to
    /// [`Engine::run_in_place`] by construction.
    ///
    /// Work a worker cannot execute authoritatively falls back to the
    /// merge thread, trading speedup — never correctness — away:
    ///
    /// - **Symbol-minting dispatches.** Fresh symbolic variables must be
    ///   minted in serial dispatch order to keep ids and solver queries
    ///   canonical, so a worker that observes a mint — or reaches a
    ///   delivery whose failure or fault model would mint one — discards
    ///   the recording and abandons that group's remaining chain
    ///   (`shard_tainted`).
    /// - **Sends.** Packet ids (and with them the sender's comm-history
    ///   digest) are minted at merge time, so a recorded send completes
    ///   its entry but stops the worker's chain.
    /// - **Duplicates.** One job per distinct dispatch: a group whose
    ///   first dispatch has the key of an earlier group's is not sent,
    ///   and a worker cuts its chain at a dispatch somebody else has
    ///   claimed (`shard_skips`). The one recording is applied to every
    ///   congruent state; congruence is always re-confirmed structurally
    ///   on the merge thread first, so a key collision degrades to
    ///   serial execution, never to a wrong merge.
    ///
    /// Traced and preset runs skip offloading entirely and degenerate to
    /// the serial algorithm on the merge thread (trivially byte-identical
    /// traces); dedup composes — applied shard entries feed the same
    /// [`DigestIndex`] the serial run would have populated.
    pub fn run_sharded_in_place(&mut self, workers: usize) {
        self.run_until_sharded(workers, Budget::unlimited());
    }

    /// [`Engine::run_until`] on the sharded path: the budget is checked
    /// only *between* virtual-time batches (a batch is never split), so a
    /// pause point here is also a valid pause point of the sequential run
    /// — checkpoint/resume composes with sharding (DESIGN.md §8).
    pub fn run_until_sharded(&mut self, workers: usize, budget: Budget) -> RunOutcome {
        let _trace_guard = self
            .traced
            .then(|| sde_trace::install(Arc::clone(&self.sink)));
        let workers = workers.max(1);
        self.started = Instant::now();
        self.sharded = true;
        if self.store.next_state == 0 {
            self.boot();
            self.trace.boot_wall_us = self.started.elapsed().as_micros() as u64;
            self.sample();
        }
        let events_start = self.events_processed;
        let instr_start = self.instructions;
        let mut outcome = RunOutcome::Complete;
        let mut pstats = ParallelStats {
            workers,
            ..ParallelStats::default()
        };

        // Authoritative offloading needs canonical symbol ids and packet
        // ids, which only the merge thread can mint — and a recording
        // sink serializes everything anyway — so traced/preset segments
        // run the plain serial algorithm below with an idle pool.
        let offload = !self.traced && self.preset.is_none();
        let keys = ClaimedKeys::default();
        let pool = ShardPool::new(workers);
        let (done_tx, done_rx) = mpsc::channel::<ShardOutcome>();
        let scenario = Arc::clone(&self.scenario);

        std::thread::scope(|scope| {
            for w in 0..workers {
                let pool = &pool;
                let keys = &keys;
                let scenario = &*scenario;
                let done_tx = done_tx.clone();
                // Worker-local solver cache: authoritative execution is
                // contention-free, and the merge thread still sees
                // deterministic witness models because the exact solver
                // derives them from the query alone. The budget and the
                // ablation toggles are the engine solver's.
                let solver = self.solver.fresh_like();
                scope.spawn(move || {
                    while let Some(job) = pool.take(w) {
                        let outcome = run_shard_group(job, scenario, &solver, keys);
                        if done_tx.send(outcome).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(done_tx);

            'run: loop {
                if self.budget_exhausted(budget, events_start, instr_start) {
                    outcome = RunOutcome::Paused;
                    break;
                }
                if self.store.total_states > self.scenario.state_cap {
                    self.aborted = true;
                    break;
                }
                let Some(batch_time) = self.store.events.peek_time() else {
                    break;
                };
                if batch_time > self.scenario.duration_ms {
                    // Mirror the sequential loop, which pops the
                    // out-of-window event before breaking.
                    self.store.events.pop();
                    break;
                }
                pstats.batches += 1;

                // --- phase 1: snapshot the batch, fan one job per
                // distinct first dispatch out to the subtree owners
                // (`shard_root % workers`, with work-stealing smoothing
                // the imbalance) ---
                let dispatch_started = Instant::now();
                let mut jobs_sent = 0usize;
                if offload {
                    let jobs = self.batch_jobs(batch_time, &mut pstats, &keys);
                    jobs_sent = jobs.len();
                    pool.submit(jobs);
                }
                pstats.dispatch_wall += dispatch_started.elapsed();

                // --- phase 2: full barrier — collect every recording of
                // the batch before any of it is committed ---
                let barrier_started = Instant::now();
                let mut entries: HashMap<u64, Vec<Arc<ShardRecord>>> = HashMap::new();
                for _ in 0..jobs_sent {
                    let Ok(o) = done_rx.recv() else { break };
                    pstats.worker_events += o.events;
                    pstats.worker_instructions =
                        pstats.worker_instructions.saturating_add(o.instructions);
                    pstats.worker_busy += o.busy;
                    pstats.worker_aborts += o.aborts;
                    pstats.shard_skips += o.skips;
                    pstats.shard_tainted += o.tainted;
                    pstats.shard_recorded += o.records.len() as u64;
                    for r in o.records {
                        entries.entry(r.key).or_default().push(Arc::new(r));
                    }
                }
                pstats.barrier_wall += barrier_started.elapsed();

                // --- phase 3: deterministic merge — the unmodified
                // serial commit, with `dispatch` applying a recorded
                // entry whenever one is congruent ---
                let serial_started = Instant::now();
                self.shard_entries = (!entries.is_empty()).then_some(entries);
                self.commit_batch(batch_time);
                self.shard_entries = None;
                pstats.serial_wall += serial_started.elapsed();

                if self.aborted {
                    break 'run;
                }
            }
            pool.shutdown();
        });

        pstats.shard_applied += std::mem::take(&mut self.shard_applied);
        pstats.shard_fallback += std::mem::take(&mut self.shard_fallback);
        if outcome.is_complete() {
            self.sample();
        }
        pstats.run_wall = self.started.elapsed();
        self.merge_parallel(pstats);
        self.trace.run_wall_us += self.started.elapsed().as_micros() as u64;
        outcome
    }

    /// Captures the engine's complete configuration as an
    /// [`EngineSnapshot`] — states, event queue, mapper bookkeeping,
    /// solver caches and all counters. Valid at any event boundary:
    /// before the run, after [`Engine::run_until`] returns
    /// [`RunOutcome::Paused`], or after completion. Serialize with
    /// [`EngineSnapshot::to_bytes`]; reconstruct a continuation with
    /// [`Engine::resume`].
    pub fn snapshot(&self) -> EngineSnapshot {
        let states: Vec<SdeState> = self.store.states.values().cloned().collect();
        let symbols = self
            .symbols
            .iter()
            .map(|v| (v.name().to_string(), v.width(), v.node(), v.occurrence()))
            .collect();
        EngineSnapshot {
            algorithm: self.algorithm,
            node_count: self.scenario.node_count(),
            duration_ms: self.scenario.duration_ms,
            link_latency_ms: self.scenario.link_latency_ms,
            state_cap: self.scenario.state_cap,
            sample_every: self.scenario.sample_every,
            track_history: self.scenario.track_history,
            faults_fingerprint: self.scenario.faults.fingerprint(),
            symbols,
            states,
            queue_next_seq: self.store.events.next_seq(),
            queue: self.store.events.export(),
            mapper: self.mapper.export_snapshot(),
            solver: self.solver.export_state(),
            now: self.now,
            next_packet: self.next_packet,
            events_processed: self.events_processed,
            packets_sent: self.packets_sent,
            instructions: self.instructions,
            aborted: self.aborted,
            total_states: self.store.total_states,
            next_state: self.store.next_state,
            forks: self.store.forks,
            samples: self.series.samples().to_vec(),
            bugs: self.bugs.clone(),
            trace: self.trace,
            dedup: self.dedup,
            dedup_stats: self.dedup_stats,
            sharded: self.sharded,
            executed: self.executed.iter().map(|s| s.0).collect(),
        }
    }

    /// Reconstructs a paused engine from `snapshot` so that driving it
    /// (`run_until`, `run`, `run_until_sharded`) continues exactly where
    /// the snapshotted run stopped: same state ids, same event order,
    /// same [`RunReport::equivalence_key`] and — with a sink re-attached
    /// via [`Engine::with_trace_sink`] — the same trace events as the
    /// uninterrupted run.
    ///
    /// `scenario` must be the scenario of the original run; snapshots
    /// carry programs and failure configs by *reference to the caller*
    /// (they are not serialized), so the caller re-supplies them. The
    /// scalar scenario fingerprint is cross-checked.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ScenarioMismatch`] when a fingerprint field
    /// differs, [`SnapshotError::MapperState`] when the mapper
    /// bookkeeping is inconsistent in itself or names other states (or
    /// other nodes for them) than the resident ones,
    /// [`SnapshotError::Codec`] when the snapshot references impossible
    /// state ids.
    pub fn resume(scenario: Scenario, snapshot: &EngineSnapshot) -> Result<Engine, SnapshotError> {
        if scenario.node_count() != snapshot.node_count {
            return Err(SnapshotError::ScenarioMismatch("node count"));
        }
        if scenario.duration_ms != snapshot.duration_ms {
            return Err(SnapshotError::ScenarioMismatch("duration_ms"));
        }
        if scenario.link_latency_ms != snapshot.link_latency_ms {
            return Err(SnapshotError::ScenarioMismatch("link_latency_ms"));
        }
        if scenario.state_cap != snapshot.state_cap {
            return Err(SnapshotError::ScenarioMismatch("state_cap"));
        }
        if scenario.sample_every != snapshot.sample_every {
            return Err(SnapshotError::ScenarioMismatch("sample_every"));
        }
        if scenario.track_history != snapshot.track_history {
            return Err(SnapshotError::ScenarioMismatch("track_history"));
        }
        if scenario.faults.fingerprint() != snapshot.faults_fingerprint {
            return Err(SnapshotError::ScenarioMismatch("fault_plan"));
        }
        let mut engine = Engine::new(scenario, snapshot.algorithm);
        // Re-mint the symbol table in allocation order so ids line up
        // with every serialized expression.
        for (name, width, node, occurrence) in &snapshot.symbols {
            engine.symbols.fresh_keyed(name, *width, *node, *occurrence);
        }
        engine
            .mapper
            .import_snapshot(snapshot.mapper.clone())
            .map_err(SnapshotError::MapperState)?;
        engine.solver.import_state(&snapshot.solver);
        // The tables below are indexed by state id, so no id may size one
        // before it is bounded by something the snapshot pays bytes for.
        // A run allocates ids densely and every state stays resident and
        // mapped, so the mapper of an engine-written snapshot names
        // exactly the states `0..next_state`; the imports above already
        // refused a mapper whose ids are not dense.
        let (mut entries, mut named_end) = (0u64, 0u64);
        for (id, _) in snapshot.mapper.members() {
            entries += 1;
            named_end = named_end.max(id.0.saturating_add(1));
        }
        if named_end > entries {
            return Err(SnapshotError::MapperState(format!(
                "mapper names state {}, but only {entries} members",
                StateId(named_end - 1)
            )));
        }
        if snapshot.next_state > named_end {
            return Err(SnapshotError::MapperState(format!(
                "state allocator at {}, but the mapper names only the {named_end} states below it",
                snapshot.next_state
            )));
        }
        for s in &snapshot.states {
            if s.id.0 >= snapshot.next_state {
                return Err(SnapshotError::Codec(sde_symbolic::CodecError::Malformed(
                    "state id beyond allocator",
                )));
            }
            if engine.store.states.insert(s.clone()).is_some() {
                return Err(SnapshotError::Codec(sde_symbolic::CodecError::Malformed(
                    "duplicate state id",
                )));
            }
        }
        // Store and mapper must describe the same states: the mapper forks
        // through the store (`Store::fork` panics on a state that is not
        // resident) and the engine maps sends of resident states through
        // the mapper. No run writes a snapshot where they disagree.
        let mut named = IdSet::default();
        for (id, node) in snapshot.mapper.members() {
            match engine.store.states.get(&id) {
                None => {
                    return Err(SnapshotError::MapperState(format!(
                        "mapper names state {id}, which is not resident"
                    )))
                }
                Some(s) if s.node != node => {
                    return Err(SnapshotError::MapperState(format!(
                        "mapper places state {id} on {node}, it is resident on {}",
                        s.node
                    )))
                }
                Some(_) => named.insert(id),
            };
        }
        if let Some(s) = snapshot.states.iter().find(|s| !named.contains(s.id)) {
            return Err(SnapshotError::MapperState(format!(
                "resident state {} is unknown to the mapper",
                s.id
            )));
        }
        engine.store.next_state = snapshot.next_state;
        engine.store.total_states = snapshot.total_states;
        engine.store.forks = snapshot.forks;
        // Rebuild the queue and its per-state index silently (no QueuePush
        // trace events): these pushes already happened — and were already
        // traced — in the original run. An event of a state that is not
        // resident could never be dispatched; the run that wrote the
        // snapshot cannot have queued one.
        if snapshot
            .queue
            .iter()
            .any(|(_, _, sid, _)| engine.store.states.get(sid).is_none())
        {
            return Err(SnapshotError::Codec(sde_symbolic::CodecError::Malformed(
                "queued event of a non-resident state",
            )));
        }
        engine.store.events = IndexedQueue::import(snapshot.queue_next_seq, &snapshot.queue)
            .map_err(|why| SnapshotError::Codec(sde_symbolic::CodecError::Malformed(why)))?;
        engine.now = snapshot.now;
        engine.next_packet = snapshot.next_packet;
        engine.events_processed = snapshot.events_processed;
        engine.packets_sent = snapshot.packets_sent;
        engine.instructions = snapshot.instructions;
        engine.aborted = snapshot.aborted;
        engine.bugs = snapshot.bugs.clone();
        for sample in &snapshot.samples {
            engine.series.push(*sample);
        }
        engine.trace = snapshot.trace;
        engine.dedup = snapshot.dedup;
        engine.dedup_stats = snapshot.dedup_stats;
        engine.sharded = snapshot.sharded;
        for id in &snapshot.executed {
            if *id >= snapshot.next_state {
                return Err(SnapshotError::Codec(sde_symbolic::CodecError::Malformed(
                    "executed state id beyond allocator",
                )));
            }
            engine.executed.insert(StateId(*id));
        }
        // The memo index is deliberately not serialized (entries hold
        // full VM states; DESIGN.md §10): a resumed dedup run starts
        // cold and re-records, so it may execute more states than the
        // uninterrupted run — never different ones.
        Ok(engine)
    }

    /// Phase 3 of [`Engine::run_until_sharded`]: the merge — literally
    /// the sequential loop, bounded to `batch_time`.
    fn commit_batch(&mut self, batch_time: u64) {
        loop {
            if self.store.total_states > self.scenario.state_cap {
                self.aborted = true;
                break;
            }
            if self.store.events.peek_time() != Some(batch_time) {
                break;
            }
            let event = self.store.events.pop().expect("peeked event");
            self.now = event.time;
            let (state_id, kind) = event.payload;
            self.dispatch(state_id, kind);
            self.events_processed += 1;
            if self
                .events_processed
                .is_multiple_of(self.scenario.sample_every)
            {
                self.sample();
            }
        }
    }

    /// Access to the mapper (for invariant checks and test generation).
    pub fn mapper(&self) -> &dyn StateMapper {
        self.mapper.as_ref()
    }

    /// The states currently resident, ascending by id.
    pub fn states(&self) -> impl Iterator<Item = &SdeState> {
        self.store.states.values()
    }

    /// Looks up one resident state.
    pub fn state(&self, id: StateId) -> Option<&SdeState> {
        self.store.states.get(&id)
    }

    /// The engine's solver (shared query cache).
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// The symbol table naming every symbolic input minted so far.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Virtual time reached so far, in ms (the dispatch clock). Used by
    /// the invariant checker to evaluate vtime-barrier predicates
    /// between [`Engine::run_until`] segments.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The bugs found so far (final list in `RunReport::bugs`).
    pub fn bugs(&self) -> &[BugFound] {
        &self.bugs
    }

    /// Replays with every symbolic input pinned to the values in
    /// `preset` (keyed run-independently by `(node, name, occurrence)`):
    /// branches stop forking and the run follows the single concrete
    /// dscenario the preset describes. Build presets with
    /// [`sde_vm::Preset::from_model`] or
    /// [`testgen::preset_for`](crate::testgen::preset_for).
    #[must_use]
    pub fn with_preset(mut self, preset: sde_vm::Preset) -> Engine {
        self.preset = Some(preset);
        self
    }

    /// Replaces the state mapper with a caller-supplied implementation.
    ///
    /// The conformance oracle's mutation self-test uses this to inject a
    /// deliberately corrupted mapper (see
    /// [`oracle::MutantMapper`](crate::oracle::MutantMapper)) and assert
    /// the oracle notices the divergence. The mapper must be installed
    /// before anything boots; [`RunReport::algorithm`] reports the
    /// installed mapper's name.
    ///
    /// # Panics
    ///
    /// Panics when the engine has already booted states.
    #[must_use]
    pub fn with_mapper(mut self, mapper: Box<dyn StateMapper>) -> Engine {
        assert!(
            self.store.states.is_empty(),
            "with_mapper must precede boot"
        );
        self.mapper = mapper;
        self
    }

    /// Runs only the boot phase (for tests that then inspect the engine).
    pub fn boot(&mut self) {
        assert!(self.store.states.is_empty(), "boot runs once");
        let mut registry = Vec::new();
        for node in self.scenario.topology.nodes() {
            let id = self.store.allocate_id();
            let vm = VmState::fresh(self.scenario.program(node));
            let state = SdeState::boot(
                id,
                node,
                vm,
                &self.scenario.failures,
                &self.scenario.faults,
                self.scenario.track_history,
            );
            self.store.states.insert(state);
            registry.push((id, node));
            self.trace.boots += 1;
            if self.traced {
                self.sink.record(sde_trace::TraceEvent::Boot {
                    state: id.0,
                    node: node.0,
                });
            }
            self.store.events.push(0, (id, NodeEvent::Boot));
        }
        self.mapper.on_boot(&registry);
    }

    // ----- event dispatch ---------------------------------------------------

    fn dispatch(&mut self, state_id: StateId, kind: NodeEvent) {
        // Terminated or mid-handler states silently drop events.
        if !self
            .store
            .states
            .get(&state_id)
            .is_some_and(SdeState::is_idle)
        {
            return;
        }
        let dispatch_kind = match kind {
            NodeEvent::Boot => sde_trace::DispatchKind::Boot,
            NodeEvent::Timer(_) => sde_trace::DispatchKind::Timer,
            NodeEvent::Deliver(_) => sde_trace::DispatchKind::Deliver,
        };
        match dispatch_kind {
            sde_trace::DispatchKind::Boot => self.trace.dispatch_boot += 1,
            sde_trace::DispatchKind::Timer => self.trace.dispatch_timer += 1,
            sde_trace::DispatchKind::Deliver => self.trace.dispatch_deliver += 1,
        }
        if self.traced {
            self.sink.record(sde_trace::TraceEvent::Dispatch {
                state: state_id.0,
                node: self.store.states[&state_id].node.0,
                kind: dispatch_kind,
                time: self.now,
            });
        }
        if self.dedup && self.preset.is_none() {
            let key = {
                let s = &self.store.states[&state_id];
                memo_key(s.node, s.vm.config_digest(), s.budgets(), self.now, &kind)
            };
            if self.try_replay(key, state_id, &kind) {
                return;
            }
            if self.try_shard_apply(key, state_id, &kind) {
                return;
            }
            if self.shard_entries.is_some() {
                self.shard_fallback += 1;
            }
            self.begin_record(key, state_id, kind.clone());
            self.execute_event(state_id, kind);
            self.finish_record();
        } else {
            if self.shard_entries.is_some() && self.preset.is_none() {
                let key = {
                    let s = &self.store.states[&state_id];
                    memo_key(s.node, s.vm.config_digest(), s.budgets(), self.now, &kind)
                };
                if self.try_shard_apply(key, state_id, &kind) {
                    return;
                }
                self.shard_fallback += 1;
            }
            self.execute_event(state_id, kind);
        }
    }

    /// Sharded-merge tier ([`Engine::run_until_sharded`]): when the
    /// batch's worker recordings hold an entry congruent with this
    /// dispatch, apply it — the worker already executed the dispatch
    /// authoritatively — instead of executing. Returns `true` on apply.
    fn try_shard_apply(&mut self, key: u64, state_id: StateId, kind: &NodeEvent) -> bool {
        let found = {
            let Some(map) = self.shard_entries.as_ref() else {
                return false;
            };
            let Some(candidates) = map.get(&key) else {
                return false;
            };
            let s = &self.store.states[&state_id];
            let budgets = s.budgets();
            // Confirmation-on-owner: the key lookup is advisory, the exact
            // structural comparison decides. A collision means serial
            // fallback, never a wrong merge.
            candidates
                .iter()
                .find(|c| c.entry.congruent(s.node, self.now, budgets, &s.vm, kind))
                .cloned()
        };
        let Some(hit) = found else {
            return false;
        };
        let family = self.apply_entry(state_id, &hit.entry, kind);
        // Bank the worker's execution as if the merge thread had run it:
        // instruction count and executed-state marks transfer, so
        // `states_executed` and the instruction totals match the serial
        // run.
        self.instructions = self.instructions.saturating_add(hit.entry.instructions);
        for v in &hit.executed {
            self.executed.insert(family[*v as usize]);
        }
        if self.dedup {
            // Feed the same memo index the serial run would have
            // populated at this dispatch, so later congruent dispatches
            // prune through the ordinary dedup tier.
            self.dedup_index.insert_arc(key, Arc::clone(&hit.entry));
        }
        self.shard_applied += 1;
        true
    }

    /// The actual event execution [`Engine::dispatch`] gates behind the
    /// duplicate check.
    fn execute_event(&mut self, state_id: StateId, kind: NodeEvent) {
        match kind {
            NodeEvent::Boot => self.run_handler(state_id, handlers::ON_BOOT, &[]),
            NodeEvent::Timer(t) => {
                let args = [Value::const_(u64::from(t), Width::W16)];
                self.run_handler(state_id, handlers::ON_TIMER, &args);
            }
            NodeEvent::Deliver(packet) => self.deliver(state_id, packet),
        }
    }

    // ----- duplicate-dispatch detection and pruning (DESIGN.md §10) ---------

    /// Looks `key` up in the memo index and, when an entry passes the
    /// exact structural confirmation, replays its recorded effects
    /// instead of executing the dispatch. Returns `true` when replayed.
    fn try_replay(&mut self, key: u64, state_id: StateId, kind: &NodeEvent) -> bool {
        let entry = {
            let s = &self.store.states[&state_id];
            let budgets = s.budgets();
            let Some(candidates) = self.dedup_index.lookup(key) else {
                return false;
            };
            self.dedup_stats.candidates += 1;
            let confirmed = candidates
                .iter()
                .find(|e| e.congruent(s.node, self.now, budgets, &s.vm, kind))
                .cloned();
            match confirmed {
                Some(e) => e,
                None => {
                    // A digest collision: two structurally different
                    // configurations under one key. Execute normally —
                    // correctness never rides on the hash.
                    self.dedup_stats.collisions += 1;
                    return false;
                }
            }
        };
        self.dedup_stats.confirmed += 1;
        self.replay_dispatch(state_id, &entry, kind);
        true
    }

    /// Starts recording the effects of a first-of-its-kind dispatch.
    fn begin_record(&mut self, key: u64, state_id: StateId, event: NodeEvent) {
        debug_assert!(self.recorder.is_none(), "dispatch is not reentrant");
        let s = &self.store.states[&state_id];
        self.recorder = Some(DispatchRecorder::new(
            key,
            s.node,
            self.now,
            s.budgets(),
            s.vm.clone(),
            event,
            state_id,
            self.bugs.len(),
            self.instructions,
        ));
    }

    /// Records a found bug: appends it to the run's bug list and, when a
    /// sink is attached, emits a [`BugFound`](sde_trace::TraceEvent)
    /// trace event. Dedup-replayed bug copies bypass this (the
    /// `StatePruned` event stands in for the whole replayed dispatch).
    fn note_bug(&mut self, bug: BugFound) {
        if self.traced {
            self.sink.record(sde_trace::TraceEvent::BugFound {
                state: bug.state.0,
                node: bug.node.0,
                time: self.now,
                kind: bug.report.kind.to_string(),
            });
        }
        self.bugs.push(bug);
    }

    /// Seals the active recording into a [`MemoEntry`]: captures the
    /// final `(vm, budgets)` of every family member and the bugs the
    /// dispatch discovered.
    fn finish_record(&mut self) {
        let Some(rec) = self.recorder.take() else {
            return;
        };
        let mut finals = Vec::with_capacity(rec.family.len());
        for id in &rec.family {
            let s = self
                .store
                .states
                .get(id)
                .expect("family member resident at dispatch end");
            finals.push((s.vm.clone(), s.budgets()));
        }
        let bugs = self.bugs[rec.bugs_start..]
            .iter()
            .map(|b| (rec.variant(b.state), b.report.clone()))
            .collect();
        let instructions = self.instructions - rec.instr_start;
        let survivor = rec.family[0];
        self.dedup_index.insert(
            rec.key,
            MemoEntry {
                node: rec.node,
                now: rec.now,
                budgets: rec.budgets,
                pre_vm: rec.pre_vm,
                event: rec.event,
                ops: rec.ops,
                finals,
                bugs,
                instructions,
                survivor,
            },
        );
    }

    /// Replays a memoized dispatch on `root`: reproduces every recorded
    /// engine-level effect — forks (with live mapper registration),
    /// transmissions (fresh packet ids, real receiver mapping), timers,
    /// event clearing, delivery bookkeeping — then overwrites each family
    /// member with its recorded final configuration and re-reports the
    /// recorded bugs. The VM never steps and the solver is never
    /// queried; the resulting engine state is exactly what executing the
    /// dispatch would have produced, modulo SymId numbering inside
    /// shared expressions (DESIGN.md §10 gives the argument).
    fn replay_dispatch(&mut self, root: StateId, entry: &MemoEntry, kind: &NodeEvent) {
        let family = self.apply_entry(root, entry, kind);
        self.dedup_stats.pruned_states += family.len() as u64;
        self.dedup_stats.saved_instructions = self
            .dedup_stats
            .saved_instructions
            .saturating_add(entry.instructions);
        if self.traced {
            self.sink.record(sde_trace::TraceEvent::StatePruned {
                state: root.0,
                node: entry.node.0,
                survivor: entry.survivor.0,
                time: self.now,
            });
        }
    }

    /// The effect-application core shared by dedup replay
    /// ([`Engine::replay_dispatch`]) and the sharded merge
    /// ([`Engine::try_shard_apply`]): reproduces the recorded ops,
    /// overwrites the family's final configurations and re-reports the
    /// recorded bugs. Returns the family in variant order.
    fn apply_entry(&mut self, root: StateId, entry: &MemoEntry, kind: &NodeEvent) -> Vec<StateId> {
        let node = entry.node;
        let packet_id = match kind {
            NodeEvent::Deliver(p) => Some(p.id),
            _ => None,
        };
        let mut family: Vec<StateId> = Vec::with_capacity(entry.finals.len());
        family.push(root);
        for op in &entry.ops {
            match op {
                LogOp::FailureFork {
                    parent,
                    kind: fkind,
                } => {
                    let parent_id = family[*parent];
                    self.store.fork_reason = failure_fork_reason(*fkind);
                    let child = self.store.fork(parent_id);
                    self.store.fork_reason = sde_trace::ForkReason::Mapping;
                    self.store.fork_scratch.clear();
                    self.mapper
                        .on_branch(parent_id, child, node, &mut self.store);
                    if self.traced {
                        let forked = std::mem::take(&mut self.store.fork_scratch);
                        self.sink.record(sde_trace::TraceEvent::MapBranch {
                            parent: parent_id.0,
                            child: child.0,
                            node: node.0,
                            forked,
                        });
                    }
                    family.push(child);
                }
                LogOp::BranchFork { parent } => {
                    let parent_id = family[*parent];
                    let sib_id = self.store.allocate_id();
                    let sibling = self.store.states[&parent_id].fork_as(sib_id);
                    self.store.states.insert(sibling);
                    self.store.events.duplicate(parent_id, sib_id);
                    self.store
                        .note_fork(parent_id, sib_id, node, sde_trace::ForkReason::Branch);
                    self.store.fork_scratch.clear();
                    self.mapper
                        .on_branch(parent_id, sib_id, node, &mut self.store);
                    if self.traced {
                        let forked = std::mem::take(&mut self.store.fork_scratch);
                        self.sink.record(sde_trace::TraceEvent::MapBranch {
                            parent: parent_id.0,
                            child: sib_id.0,
                            node: node.0,
                            forked,
                        });
                    }
                    family.push(sib_id);
                }
                LogOp::Send {
                    sender,
                    dest,
                    payload,
                } => {
                    let sender_id = family[*sender];
                    let pid = PacketId(self.next_packet);
                    self.next_packet += 1;
                    self.packets_sent += 1;
                    if self.traced {
                        self.sink.record(sde_trace::TraceEvent::Send {
                            state: sender_id.0,
                            node: node.0,
                            dest: dest.0,
                            packet: pid.0,
                        });
                    }
                    self.store.fork_scratch.clear();
                    let delivery = self
                        .mapper
                        .map_send(sender_id, node, *dest, &mut self.store);
                    if self.traced {
                        let forked = std::mem::take(&mut self.store.fork_scratch);
                        self.sink.record(sde_trace::TraceEvent::MapSend {
                            state: sender_id.0,
                            node: node.0,
                            dest: dest.0,
                            packet: pid.0,
                            targets: delivery.receivers.iter().map(|r| r.0).collect(),
                            forked,
                            groups: self.mapper.group_count() as u64,
                        });
                    }
                    self.store.states.update(sender_id, |s| {
                        s.history.record(HistoryEvent::Sent {
                            id: pid,
                            peer: *dest,
                        })
                    });
                    let packet = Packet {
                        id: pid,
                        src: node,
                        dest: *dest,
                        payload: payload.clone(),
                    };
                    self.schedule_deliveries(delivery.receivers, &packet);
                }
                LogOp::Timer {
                    state,
                    delay,
                    timer,
                } => {
                    self.store
                        .events
                        .push(self.now + delay, (family[*state], NodeEvent::Timer(*timer)));
                }
                LogOp::ClearEvents { state } => {
                    self.store.events.clear(family[*state]);
                }
                LogOp::PacketDropped { state } => {
                    let pid =
                        packet_id.expect("PacketDropped is only recorded for Deliver dispatches");
                    self.note_drop(family[*state], node, pid);
                }
                LogOp::PartitionDrop { state, until } => {
                    let pid =
                        packet_id.expect("PartitionDrop is only recorded for Deliver dispatches");
                    self.note_partition_drop(family[*state], node, pid, *until);
                }
                LogOp::DeferDeliver { state, delay } => {
                    let NodeEvent::Deliver(packet) = kind else {
                        unreachable!("DeferDeliver is only recorded for Deliver dispatches");
                    };
                    self.store.events.push(
                        self.now + delay,
                        (family[*state], NodeEvent::Deliver(packet.clone())),
                    );
                }
                LogOp::PacketDelivered { state, duplicate } => {
                    let pid =
                        packet_id.expect("PacketDelivered is only recorded for Deliver dispatches");
                    self.trace.packets_delivered += 1;
                    if self.traced {
                        self.sink.record(sde_trace::TraceEvent::Deliver {
                            state: family[*state].0,
                            node: node.0,
                            packet: pid.0,
                            duplicate: *duplicate,
                        });
                    }
                }
            }
        }
        debug_assert_eq!(family.len(), entry.finals.len(), "op log vs finals");
        for (id, (vm, budgets)) in family.iter().zip(&entry.finals) {
            self.store.states.update(*id, |s| {
                s.vm = vm.clone();
                (
                    s.drop_budget,
                    s.dup_budget,
                    s.reboot_budget,
                    s.part_budget,
                    s.lat_budget,
                    s.cor_budget,
                    s.crash_budget,
                    s.partition_until,
                ) = *budgets;
            });
        }
        for (variant, report) in &entry.bugs {
            self.bugs.push(BugFound {
                node,
                state: family[*variant],
                report: report.clone(),
            });
        }
        family
    }

    /// Packet delivery: apply the symbolic failure and fault models (each
    /// a local fork registered with the mapper), then run `on_recv` on
    /// every branch that keeps the packet. Decision order is fixed —
    /// active partition, partition onset, latency, drop, duplicate,
    /// reboot, crash, corruption — so symbol minting (and with it dedup
    /// replay and the sharded merge) is deterministic.
    fn deliver(&mut self, state_id: StateId, packet: Packet) {
        let receiving = state_id;

        // --- active partition ----------------------------------------------
        // A delivery crossing a cut this lineage holds active is lost
        // silently: no fork, no symbol, no handler — the network edge
        // simply does not exist until the heal deadline.
        {
            let s = &self.store.states[&state_id];
            let (node, until) = (s.node, s.partition_until);
            if self.now < until && self.scenario.faults.cut_contains(packet.src, node) {
                self.note_partition_drop(state_id, node, packet.id, until);
                return;
            }
        }

        // --- symbolic partition onset --------------------------------------
        // The first delivery crossing a declared cut edge asks "did the
        // network partition just now?": the partitioned branch loses this
        // packet and every cut-crossing delivery until the (symbolically
        // chosen) heal time; the connected branch proceeds.
        if self.store.states[&state_id].part_budget > 0
            && self
                .scenario
                .faults
                .cut_contains(packet.src, self.store.states[&state_id].node)
        {
            let node = self.store.states[&state_id].node;
            let heal: Vec<u64> = self.scenario.faults.heal_choices().to_vec();
            let occurrence = self.store.states.update(state_id, |s| {
                s.part_budget -= 1;
                s.vm.next_input_occurrence("part")
            });
            let var = self
                .symbols
                .fresh_keyed("part", Width::BOOL, node.0, occurrence);
            if self.preset.is_some() {
                let _ = var;
                match self.replay_failure_decision(state_id, "part", 7, occurrence) {
                    None => return, // strict-preset miss: state bugged
                    Some(true) => {
                        let mut until = self.now + heal[0];
                        if heal.len() == 2 {
                            let hocc = self
                                .store
                                .states
                                .update(state_id, |s| s.vm.next_input_occurrence("heal"));
                            let hvar = self.symbols.fresh_keyed("heal", Width::BOOL, node.0, hocc);
                            let _ = hvar;
                            match self.replay_failure_decision(state_id, "heal", 8, hocc) {
                                None => return,
                                Some(true) => until = self.now + heal[1],
                                Some(false) => {}
                            }
                        }
                        self.store
                            .states
                            .update(state_id, |s| s.partition_until = until);
                        self.note_partition_drop(state_id, node, packet.id, until);
                        return; // the delivery itself is lost to the cut
                    }
                    Some(false) => {}
                }
            } else {
                let part_id = self.fork_local(state_id, &Expr::sym(var.clone()), 7, occurrence);
                self.store
                    .states
                    .update(state_id, |s| s.vm.constrain(Expr::not(Expr::sym(var))));
                let until0 = self.now + heal[0];
                self.store
                    .states
                    .update(part_id, |p| p.partition_until = until0);
                self.note_partition_drop(part_id, node, packet.id, until0);
                if heal.len() == 2 {
                    // Nested heal-time choice on the partitioned branch.
                    let hocc = self
                        .store
                        .states
                        .update(part_id, |p| p.vm.next_input_occurrence("heal"));
                    let hvar = self.symbols.fresh_keyed("heal", Width::BOOL, node.0, hocc);
                    let heal_id = self.fork_local(part_id, &Expr::sym(hvar.clone()), 8, hocc);
                    self.store
                        .states
                        .update(part_id, |p| p.vm.constrain(Expr::not(Expr::sym(hvar))));
                    let until1 = self.now + heal[1];
                    self.store
                        .states
                        .update(heal_id, |h| h.partition_until = until1);
                    self.note_partition_drop(heal_id, node, packet.id, until1);
                }
                // Partitioned branches never run on_recv; the connected
                // parent falls through to the remaining models.
            }
        }

        // --- symbolic delivery latency -------------------------------------
        // "Did this packet take a slow link?": the delayed branch
        // re-enqueues the delivery [`sde_net::FaultPlan::latency_extra_ms`]
        // later — reordering it against everything else in the virtual-time
        // queue — and processes nothing now; the on-time parent falls
        // through to the remaining models.
        if self.store.states[&receiving].lat_budget > 0 {
            let node = self.store.states[&receiving].node;
            let extra = self.scenario.faults.latency_extra_ms();
            let occurrence = self.store.states.update(receiving, |s| {
                s.lat_budget -= 1;
                s.vm.next_input_occurrence("lat")
            });
            let var = self
                .symbols
                .fresh_keyed("lat", Width::BOOL, node.0, occurrence);
            if self.preset.is_some() {
                let _ = var;
                match self.replay_failure_decision(receiving, "lat", 4, occurrence) {
                    None => return, // strict-preset miss: state bugged
                    Some(true) => {
                        // The preset chose the slow path: defer, and
                        // handle the packet when it comes back around.
                        self.defer_delivery(receiving, &packet, extra);
                        return;
                    }
                    Some(false) => {}
                }
            } else {
                let late_id = self.fork_local(receiving, &Expr::sym(var.clone()), 4, occurrence);
                self.store
                    .states
                    .update(receiving, |s| s.vm.constrain(Expr::not(Expr::sym(var))));
                self.defer_delivery(late_id, &packet, extra);
            }
        }

        // --- symbolic packet drop ------------------------------------------
        if self.store.states[&state_id].drop_budget > 0 {
            let node = self.store.states[&state_id].node;
            let occurrence = self.store.states.update(state_id, |s| {
                s.drop_budget -= 1;
                s.vm.next_input_occurrence("drop")
            });
            let var = self
                .symbols
                .fresh_keyed("drop", Width::BOOL, node.0, occurrence);
            if self.preset.is_some() {
                // Replay: the preset decides; no fork.
                let _ = var;
                match self.replay_failure_decision(state_id, "drop", 1, occurrence) {
                    None => return, // strict-preset miss: state bugged
                    Some(true) => {
                        self.note_drop(state_id, node, packet.id);
                        return; // dropped
                    }
                    Some(false) => {}
                }
            } else {
                let dropped_id = self.fork_local(state_id, &Expr::sym(var.clone()), 1, occurrence);
                // The original receives: constrain ¬drop. The budget was
                // spent before forking, covering both branches (one
                // symbolic drop = one fork opportunity).
                self.store
                    .states
                    .update(state_id, |s| s.vm.constrain(Expr::not(Expr::sym(var))));
                // The dropped branch never runs on_recv.
                self.note_drop(dropped_id, node, packet.id);
            }
        }

        // --- symbolic packet duplication ------------------------------------
        let mut deliveries = 1u32;
        if self.store.states[&receiving].dup_budget > 0 {
            let node = self.store.states[&receiving].node;
            let occurrence = self.store.states.update(receiving, |s| {
                s.dup_budget -= 1;
                s.vm.next_input_occurrence("dup")
            });
            let var = self
                .symbols
                .fresh_keyed("dup", Width::BOOL, node.0, occurrence);
            if self.preset.is_some() {
                let _ = var;
                match self.replay_failure_decision(receiving, "dup", 2, occurrence) {
                    None => return, // strict-preset miss: state bugged
                    Some(true) => deliveries = 2,
                    Some(false) => {}
                }
            } else {
                let dup_id = self.fork_local(receiving, &Expr::sym(var.clone()), 2, occurrence);
                self.store
                    .states
                    .update(receiving, |s| s.vm.constrain(Expr::not(Expr::sym(var))));
                // The duplicated branch receives the packet twice, now.
                self.run_recv(dup_id, &packet, 2);
            }
        }

        // --- symbolic node reboot -------------------------------------------
        if self.store.states[&receiving].reboot_budget > 0 {
            let node = self.store.states[&receiving].node;
            let occurrence = self.store.states.update(receiving, |s| {
                s.reboot_budget -= 1;
                s.vm.next_input_occurrence("reboot")
            });
            let var = self
                .symbols
                .fresh_keyed("reboot", Width::BOOL, node.0, occurrence);
            if self.preset.is_some() {
                let _ = var;
                match self.replay_failure_decision(receiving, "reboot", 3, occurrence) {
                    None => return, // strict-preset miss: state bugged
                    Some(true) => {
                        self.store
                            .states
                            .update(receiving, |s| s.vm = s.vm.rebooted());
                        self.store.events.clear(receiving);
                        self.run_handler(receiving, handlers::ON_BOOT, &[]);
                        return; // the rebooting node misses the packet
                    }
                    Some(false) => {}
                }
            } else {
                let reboot_id = self.fork_local(receiving, &Expr::sym(var.clone()), 3, occurrence);
                self.store
                    .states
                    .update(receiving, |s| s.vm.constrain(Expr::not(Expr::sym(var))));
                self.store
                    .states
                    .update(reboot_id, |d| d.vm = d.vm.rebooted());
                self.store.events.clear(reboot_id);
                if let Some(rec) = self.recorder.as_mut() {
                    rec.note_clear_events(reboot_id);
                }
                self.run_handler(reboot_id, handlers::ON_BOOT, &[]);
            }
        }

        // --- symbolic crash-recovery ---------------------------------------
        // Like reboot, but through [`VmState::crash_rebooted`]: the
        // persistent window survives, everything volatile resets. The
        // crashing branch misses the packet.
        if self.store.states[&receiving].crash_budget > 0 {
            let node = self.store.states[&receiving].node;
            let (pbase, psize) = (
                self.scenario.faults.persist_base(),
                self.scenario.faults.persist_size(),
            );
            let occurrence = self.store.states.update(receiving, |s| {
                s.crash_budget -= 1;
                s.vm.next_input_occurrence("crash")
            });
            let var = self
                .symbols
                .fresh_keyed("crash", Width::BOOL, node.0, occurrence);
            if self.preset.is_some() {
                let _ = var;
                match self.replay_failure_decision(receiving, "crash", 6, occurrence) {
                    None => return, // strict-preset miss: state bugged
                    Some(true) => {
                        self.store
                            .states
                            .update(receiving, |s| s.vm = s.vm.crash_rebooted(pbase, psize));
                        self.store.events.clear(receiving);
                        self.run_handler(receiving, handlers::ON_BOOT, &[]);
                        return; // the crashing node misses the packet
                    }
                    Some(false) => {}
                }
            } else {
                let crash_id = self.fork_local(receiving, &Expr::sym(var.clone()), 6, occurrence);
                self.store
                    .states
                    .update(receiving, |s| s.vm.constrain(Expr::not(Expr::sym(var))));
                self.store
                    .states
                    .update(crash_id, |d| d.vm = d.vm.crash_rebooted(pbase, psize));
                self.store.events.clear(crash_id);
                if let Some(rec) = self.recorder.as_mut() {
                    rec.note_clear_events(crash_id);
                }
                self.run_handler(crash_id, handlers::ON_BOOT, &[]);
            }
        }

        // --- symbolic payload corruption -----------------------------------
        // The corrupted branch receives the packet with its first payload
        // word XOR-flipped by a fresh symbolic byte (`corb` —
        // unconstrained, so the identity flip 0 is a legitimate value and
        // the branch condition alone distinguishes the lineages).
        if self.store.states[&receiving].cor_budget > 0
            && !packet.payload.is_empty()
            && packet.payload[0].width().bits() >= 8
        {
            let node = self.store.states[&receiving].node;
            let occurrence = self.store.states.update(receiving, |s| {
                s.cor_budget -= 1;
                s.vm.next_input_occurrence("cor")
            });
            let var = self
                .symbols
                .fresh_keyed("cor", Width::BOOL, node.0, occurrence);
            if self.preset.is_some() {
                let _ = var;
                match self.replay_failure_decision(receiving, "cor", 5, occurrence) {
                    None => return, // strict-preset miss: state bugged
                    Some(true) => {
                        let cocc = self
                            .store
                            .states
                            .update(receiving, |s| s.vm.next_input_occurrence("corb"));
                        let cvar = self.symbols.fresh_keyed("corb", Width::W8, node.0, cocc);
                        let _ = cvar;
                        let Some(byte) = self.replay_value_input(receiving, "corb", cocc) else {
                            return; // strict-preset miss: state bugged
                        };
                        let mut corrupted = packet.clone();
                        corrupted.payload[0] =
                            flip_byte(&packet.payload[0], Value::const_(byte, Width::W8));
                        self.run_recv(receiving, &corrupted, deliveries);
                        return;
                    }
                    Some(false) => {}
                }
            } else {
                let cor_id = self.fork_local(receiving, &Expr::sym(var.clone()), 5, occurrence);
                self.store
                    .states
                    .update(receiving, |s| s.vm.constrain(Expr::not(Expr::sym(var))));
                let cocc = self
                    .store
                    .states
                    .update(cor_id, |c| c.vm.next_input_occurrence("corb"));
                let cvar = self.symbols.fresh_keyed("corb", Width::W8, node.0, cocc);
                let mut corrupted = packet.clone();
                corrupted.payload[0] = flip_byte(&packet.payload[0], Expr::sym(cvar).into());
                self.run_recv(cor_id, &corrupted, deliveries);
            }
        }

        self.run_recv(receiving, &packet, deliveries);
    }

    /// Resolves one failure/fault-model decision during a replay
    /// (`kind`: the
    /// [`record_external_branch`](sde_vm::VmState::record_external_branch)
    /// numbering — see [`failure_fork_reason`]). The decision is folded into the state's path digest so
    /// replays are path-identifying, mirroring what `fork_local` records
    /// on both sides of a symbolic failure fork.
    ///
    /// Returns `None` when a strict preset had no value for the key: the
    /// state has been marked [`BugKind::UnkeyedInput`] and must not
    /// process the delivery further.
    fn replay_failure_decision(
        &mut self,
        state_id: StateId,
        name: &str,
        kind: u32,
        occurrence: u32,
    ) -> Option<bool> {
        let node = self.store.states[&state_id].node;
        let (resolved, strict) = {
            let preset = self.preset.as_ref().expect("replay mode");
            (
                preset.resolve(node.0, name, occurrence, Width::BOOL),
                preset.is_strict(),
            )
        };
        if resolved.is_none() && strict {
            let report = BugReport {
                kind: BugKind::UnkeyedInput,
                message: std::sync::Arc::from(format!(
                    "strict replay has no value for failure decision \
                     `{name}` (occurrence {occurrence}) on node {node}"
                )),
                // The synthetic location scheme of record_external_branch.
                loc: Loc {
                    func: FuncId(0xffff_0000 | kind),
                    index: occurrence,
                },
                model: None,
            };
            self.note_bug(BugFound {
                node,
                state: state_id,
                report: report.clone(),
            });
            self.store
                .states
                .update(state_id, |s| s.vm.set_bugged(report));
            return None;
        }
        let taken = resolved.unwrap_or(0) == 1;
        self.store.states.update(state_id, |s| {
            s.vm.record_external_branch(kind, occurrence, taken)
        });
        Some(taken)
    }

    /// Resolves one engine-minted *value* input during a replay (the
    /// corruption byte `corb`, [`Width::W8`]). Unlike a failure decision
    /// the value is data, not a branch: it flows into the payload, and
    /// any branch the program takes on it lands in the path digest
    /// through the VM's ordinary branch recording.
    ///
    /// Returns `None` when a strict preset had no value for the key (the
    /// state has been marked [`BugKind::UnkeyedInput`]).
    fn replay_value_input(
        &mut self,
        state_id: StateId,
        name: &str,
        occurrence: u32,
    ) -> Option<u64> {
        let node = self.store.states[&state_id].node;
        let (resolved, strict) = {
            let preset = self.preset.as_ref().expect("replay mode");
            (
                preset.resolve(node.0, name, occurrence, Width::W8),
                preset.is_strict(),
            )
        };
        if resolved.is_none() && strict {
            let report = BugReport {
                kind: BugKind::UnkeyedInput,
                message: std::sync::Arc::from(format!(
                    "strict replay has no value for fault input \
                     `{name}` (occurrence {occurrence}) on node {node}"
                )),
                // The synthetic location scheme of record_external_branch
                // (5 = the corruption model).
                loc: Loc {
                    func: FuncId(0xffff_0000 | 5),
                    index: occurrence,
                },
                model: None,
            };
            self.note_bug(BugFound {
                node,
                state: state_id,
                report: report.clone(),
            });
            self.store
                .states
                .update(state_id, |s| s.vm.set_bugged(report));
            return None;
        }
        Some(resolved.unwrap_or(0))
    }

    /// Counts (and, when traced, records) a failure-model packet drop.
    fn note_drop(&mut self, state: StateId, node: NodeId, packet: PacketId) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.note_packet_dropped(state);
        }
        self.trace.packets_dropped += 1;
        if self.traced {
            self.sink.record(sde_trace::TraceEvent::Drop {
                state: state.0,
                node: node.0,
                packet: packet.0,
            });
        }
    }

    /// Counts (and, when traced, records) a packet lost to a partition
    /// cut active until `until`.
    fn note_partition_drop(&mut self, state: StateId, node: NodeId, packet: PacketId, until: u64) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.note_partition_drop(state, until);
        }
        self.trace.packets_dropped += 1;
        if self.traced {
            self.sink.record(sde_trace::TraceEvent::PartitionDrop {
                state: state.0,
                node: node.0,
                packet: packet.0,
                until,
            });
        }
    }

    /// Re-enqueues `packet`'s delivery to `state` `extra` ms from now —
    /// the delayed branch of a symbolic-latency fork. The receiver's
    /// history already holds the `Received` record from schedule time
    /// (deferral changes *when* the handler runs, not whether the packet
    /// arrived), so only the event moves.
    fn defer_delivery(&mut self, state: StateId, packet: &Packet, extra: u64) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.note_defer_deliver(state, extra);
        }
        self.store.events.push(
            self.now + extra,
            (state, NodeEvent::Deliver(packet.clone())),
        );
    }

    /// Runs `on_recv` on `state` `times` times in a row. Each handler
    /// invocation is one delivery (a duplicated packet counts twice).
    fn run_recv(&mut self, state: StateId, packet: &Packet, times: u32) {
        let node = self.store.states[&state].node;
        let mut args = std::mem::take(&mut self.recv_args);
        args.push(Value::const_(u64::from(packet.src.0), Width::W16));
        args.extend(packet.payload.iter().cloned());
        for _ in 0..times {
            if let Some(rec) = self.recorder.as_mut() {
                rec.note_packet_delivered(state, times > 1);
            }
            self.trace.packets_delivered += 1;
            if self.traced {
                self.sink.record(sde_trace::TraceEvent::Deliver {
                    state: state.0,
                    node: node.0,
                    packet: packet.id.0,
                    duplicate: times > 1,
                });
            }
            self.run_handler(state, handlers::ON_RECV, &args);
        }
        args.clear();
        self.recv_args = args;
    }

    /// Forks `parent` into a sibling constrained with `cond`, records the
    /// environment-level branch in both path digests, registers the
    /// branch with the mapper, and returns the sibling's id. Used by the
    /// failure models (`kind`: 1 = drop, 2 = duplicate, 3 = reboot).
    fn fork_local(
        &mut self,
        parent: StateId,
        cond: &ExprRef,
        kind: u32,
        occurrence: u32,
    ) -> StateId {
        let node = self.store.states[&parent].node;
        // Attribute the fork to its failure model; mapper forks performed
        // by `on_branch` below revert to the default `Mapping` reason.
        self.store.fork_reason = failure_fork_reason(kind);
        let child = self.store.fork(parent);
        self.store.fork_reason = sde_trace::ForkReason::Mapping;
        if let Some(rec) = self.recorder.as_mut() {
            rec.note_failure_fork(parent, child, kind);
        }
        self.store.states.update(child, |c| {
            c.vm.constrain(cond.clone());
            c.vm.record_external_branch(kind, occurrence, true);
        });
        self.store.states.update(parent, |p| {
            p.vm.record_external_branch(kind, occurrence, false)
        });
        self.store.fork_scratch.clear();
        self.mapper.on_branch(parent, child, node, &mut self.store);
        if self.traced {
            let forked = std::mem::take(&mut self.store.fork_scratch);
            self.sink.record(sde_trace::TraceEvent::MapBranch {
                parent: parent.0,
                child: child.0,
                node: node.0,
                forked,
            });
        }
        child
    }

    // ----- handler execution ------------------------------------------------

    /// Runs one handler on `state_id` to completion, including every
    /// state forked along the way; transmissions trigger state mapping
    /// mid-flight.
    fn run_handler(&mut self, state_id: StateId, handler: &str, args: &[Value]) {
        // The state's box leaves the table for the handler's duration and
        // the same box goes back: the state itself never moves.
        let Some(mut first) = self.store.states.remove(&state_id) else {
            return;
        };
        if !first.is_idle() {
            self.store.states.put(first);
            return;
        }
        let node = first.node;
        let program = Arc::clone(self.scenario.program(node));
        assert!(
            first.vm.prepare(&program, handler, args),
            "node {node} program has no handler `{handler}` with arity {}",
            args.len()
        );

        let mut running = std::mem::take(&mut self.running);
        running.push(first);
        while let Some(mut st) = running.pop() {
            self.executed.insert(st.id);
            loop {
                self.instructions += 1;
                let result = {
                    let mut ctx = VmCtx::new(&self.solver, &mut self.symbols);
                    ctx.now = self.now;
                    ctx.node_id = st.node.0;
                    ctx.preset = self.preset.as_ref();
                    step(&program, &mut st.vm, &mut ctx)
                };
                match result {
                    StepResult::Continue => {}
                    StepResult::Forked(sibling_vm) => {
                        let sib_id = self.store.allocate_id();
                        let sibling = st.fork_with_vm(sib_id, sibling_vm);
                        self.store.events.duplicate(st.id, sib_id);
                        self.store
                            .note_fork(st.id, sib_id, st.node, sde_trace::ForkReason::Branch);
                        if let Some(rec) = self.recorder.as_mut() {
                            rec.note_branch_fork(st.id, sib_id);
                        }
                        let bugged = matches!(sibling.vm.status(), Status::Bugged(_));
                        if bugged {
                            if let Status::Bugged(report) = sibling.vm.status().clone() {
                                self.note_bug(BugFound {
                                    node: sibling.node,
                                    state: sib_id,
                                    report,
                                });
                            }
                        }
                        self.store.states.insert(sibling);
                        self.store.fork_scratch.clear();
                        self.mapper
                            .on_branch(st.id, sib_id, st.node, &mut self.store);
                        if self.traced {
                            let forked = std::mem::take(&mut self.store.fork_scratch);
                            self.sink.record(sde_trace::TraceEvent::MapBranch {
                                parent: st.id.0,
                                child: sib_id.0,
                                node: st.node.0,
                                forked,
                            });
                        }
                        if !bugged {
                            let sibling = self
                                .store
                                .states
                                .remove(&sib_id)
                                .expect("sibling just inserted");
                            running.push(sibling);
                        }
                    }
                    StepResult::Syscall(Syscall::Send { dest, payload }) => {
                        self.transmit(&mut st, NodeId(dest), payload);
                    }
                    StepResult::Syscall(Syscall::SetTimer { delay, timer }) => {
                        if let Some(rec) = self.recorder.as_mut() {
                            rec.note_timer(st.id, delay, timer);
                        }
                        self.store
                            .events
                            .push(self.now + delay, (st.id, NodeEvent::Timer(timer)));
                    }
                    StepResult::HandlerDone(_) | StepResult::Halted | StepResult::Infeasible => {
                        self.store.states.put(st);
                        break;
                    }
                    StepResult::Bug(report) => {
                        self.note_bug(BugFound {
                            node: st.node,
                            state: st.id,
                            report,
                        });
                        self.store.states.put(st);
                        break;
                    }
                }
            }
        }
        self.running = running;
    }

    /// One transmission: mint a packet id, run the state mapping, update
    /// communication histories, and schedule delivery events.
    fn transmit(&mut self, sender: &mut SdeState, dest: NodeId, payload: Vec<Value>) {
        assert!(
            self.scenario.topology.are_neighbors(sender.node, dest),
            "{} sent to non-neighbor {dest}",
            sender.node
        );
        let pid = PacketId(self.next_packet);
        self.next_packet += 1;
        self.packets_sent += 1;
        if let Some(rec) = self.recorder.as_mut() {
            rec.note_send(sender.id, dest, &payload);
        }
        if self.traced {
            self.sink.record(sde_trace::TraceEvent::Send {
                state: sender.id.0,
                node: sender.node.0,
                dest: dest.0,
                packet: pid.0,
            });
        }

        self.store.fork_scratch.clear();
        let delivery = self
            .mapper
            .map_send(sender.id, sender.node, dest, &mut self.store);
        if self.traced {
            let forked = std::mem::take(&mut self.store.fork_scratch);
            self.sink.record(sde_trace::TraceEvent::MapSend {
                state: sender.id.0,
                node: sender.node.0,
                dest: dest.0,
                packet: pid.0,
                targets: delivery.receivers.iter().map(|r| r.0).collect(),
                forked,
                groups: self.mapper.group_count() as u64,
            });
        }

        sender.history.record(HistoryEvent::Sent {
            id: pid,
            peer: dest,
        });
        let packet = Packet {
            id: pid,
            src: sender.node,
            dest,
            payload,
        };
        self.schedule_deliveries(delivery.receivers, &packet);
    }

    /// Schedules one delivery event per mapped receiver — the tail of
    /// every transmission, shared between [`Engine::transmit`] and the
    /// [`LogOp::Send`] replay arm. The symbolic-latency decision is NOT
    /// made here: receiver-side forks at transmission time are
    /// incompatible with eager mappers (COB would have to copy the
    /// sender mid-handler, while it is off the store being executed), so
    /// latency forks at *delivery* time in [`Engine::deliver`], where
    /// every state is resident.
    fn schedule_deliveries(&mut self, receivers: Vec<StateId>, packet: &Packet) {
        let base = self.now + self.scenario.link_latency_ms;
        for sid in receivers {
            self.store.states.update(sid, |r| {
                r.history.record(HistoryEvent::Received {
                    id: packet.id,
                    peer: packet.src,
                })
            });
            self.store
                .events
                .push(base, (sid, NodeEvent::Deliver(packet.clone())));
        }
    }

    // ----- reporting ----------------------------------------------------------

    fn sample(&mut self) {
        let (live, bytes) = self.store.states.totals();
        debug_assert_eq!((live, bytes), self.sample_reference());
        self.series.push(Sample {
            wall_ms: self.started.elapsed().as_millis() as u64,
            virtual_ms: self.now,
            live_states: live,
            total_states: self.store.total_states,
            bytes,
            groups: self.mapper.group_count(),
        });
    }

    /// `(live states, Σ approx_bytes)` by walking every resident state —
    /// what [`Engine::sample`] did before the store kept the totals. Kept
    /// as the oracle: `sample` asserts against it in debug builds, and
    /// `tests/accounting_equivalence.rs` after every bounded segment.
    #[doc(hidden)]
    pub fn sample_reference(&self) -> (usize, usize) {
        self.store.states.totals_reference()
    }

    /// Compares the store's incremental bookkeeping with its rescans: the
    /// `(live, bytes)` totals against [`Engine::sample_reference`], the
    /// per-state pending-event index against a scan of the queue, and the
    /// index's owners against the resident states.
    ///
    /// # Errors
    ///
    /// Describes the first difference found.
    #[doc(hidden)]
    pub fn check_accounting(&self) -> Result<(), String> {
        let (kept, walked) = (self.store.states.totals(), self.sample_reference());
        if kept != walked {
            return Err(format!(
                "(live, bytes) kept {kept:?}, rescan gives {walked:?}"
            ));
        }
        self.store.events.check_reference()?;
        match self
            .store
            .events
            .owners()
            .find(|id| self.store.states.get(id).is_none())
        {
            Some(id) => Err(format!("pending events of non-resident state {id}")),
            None => Ok(()),
        }
    }

    /// Consumes the engine into its final report.
    pub fn into_report(self) -> RunReport {
        let (live, final_bytes) = self.store.states.totals();
        // Duplicate detection over resident states, scanned in state-id
        // order (the table's own) so "which of an equal pair counts as the
        // duplicate" — and with it the per-node attribution — is
        // deterministic. The same pass collects every resident state's
        // configuration digest, in that order, for the digest of the final
        // state set.
        let mut seen: HashSet<u64> = HashSet::new();
        let mut seen_terminated: HashSet<u64> = HashSet::new();
        let mut duplicates = 0usize;
        let mut duplicate_terminated = 0usize;
        let mut by_node: std::collections::BTreeMap<u16, usize> = std::collections::BTreeMap::new();
        let mut digests: Vec<(u64, u64)> = Vec::with_capacity(self.store.states.len());
        for s in self.store.states.values() {
            let digest = s.config_digest();
            if !seen.insert(digest) {
                duplicates += 1;
                *by_node.entry(s.node.0).or_default() += 1;
            }
            if !s.is_live() && !seen_terminated.insert(digest) {
                duplicate_terminated += 1;
            }
            digests.push((s.id.0, digest));
        }
        let duplicates_by_node: Vec<(u16, usize)> = by_node.into_iter().collect();
        let mut hasher = DefaultHasher::new();
        digests.hash(&mut hasher);
        let history_digest = hasher.finish();
        let solver = self.solver.stats();
        let trace = sde_trace::TraceSummary {
            forks_branch: self.store.forks[0],
            forks_mapping: self.store.forks[1],
            forks_drop: self.store.forks[2],
            forks_duplicate: self.store.forks[3],
            forks_reboot: self.store.forks[4],
            forks_latency: self.store.forks[5],
            forks_corrupt: self.store.forks[6],
            forks_crash: self.store.forks[7],
            forks_partition: self.store.forks[8],
            forks_heal: self.store.forks[9],
            packets_sent: self.packets_sent,
            solver_queries: solver.queries,
            solver_exact_hits: solver.cache_hits,
            solver_group_hits: solver.group_cache_hits,
            solver_reuse_hits: solver.model_reuse_hits,
            solver_ucore_hits: solver.ucore_hits,
            bugs_found: self.bugs.len() as u64,
            ..self.trace
        };
        RunReport {
            algorithm: self.mapper.name(),
            wall: self.started.elapsed(),
            virtual_ms: self.now,
            total_states: self.store.total_states,
            live_states: live,
            final_bytes,
            peak_bytes: self.series.peak_bytes().max(final_bytes),
            mapper_bytes: self.mapper.approx_bytes(),
            instructions: self.instructions,
            events: self.events_processed,
            packets: self.packets_sent,
            aborted: self.aborted,
            groups: self.mapper.group_count(),
            mapper: self.mapper.stats(),
            solver,
            duplicate_states: duplicates,
            duplicate_terminated,
            duplicates_by_node,
            states_executed: self.executed.len(),
            dedup: self.dedup_stats,
            bugs: self.bugs,
            history_digest,
            series: self.series,
            parallel: self.parallel,
            trace,
        }
    }
}

/// The corruption fault model's payload edit: `word` XOR-flipped by an
/// 8-bit `byte` (zero-extended to the word's width). Shared by the
/// symbolic and the preset-replay arm, so both build one term.
fn flip_byte(word: &Value, byte: Value) -> Value {
    word.clone()
        .binop(BinOp::Xor, byte.cast(CastOp::Zext, word.width()))
}

// ----- sharded execution (the run_sharded worker side) --------------------

/// Safety valve: a worker abandons its chain past this many VM steps and
/// the merge thread executes the rest itself. Falling back costs speed,
/// never correctness, so capping a runaway chain is always safe.
const WORKER_INSTRUCTION_CAP: u64 = 4_000_000;

/// One shard work unit: all events of one state at one timestamp, plus
/// the private clones the worker executes them against.
///
/// A job carries only what is this group's own. Everything the whole run
/// shares — programs, fault plan, topology — the worker reads from the
/// engine's [`Scenario`], which its thread borrows for the run.
#[derive(Debug)]
struct ShardJob {
    now: u64,
    state: SdeState,
    events: Vec<NodeEvent>,
    /// Allocator window continuing the engine's symbol-id sequence
    /// ([`SymbolTable::forked`]): a handler that mints an input queries
    /// the solver under the id the merge thread will mint, although the
    /// worker then discards the recording.
    symbols: SymbolTable,
}

/// One worker-recorded dispatch handed to the merge thread at the batch
/// barrier. The merge thread shares it (`Arc`): applying it to one more
/// congruent state copies a pointer, not the lists.
#[derive(Debug)]
struct ShardRecord {
    /// The worker-computed memo key; the merge thread computes the same
    /// key at pop time along sendless chains, so a plain map lookup
    /// finds the entry.
    key: u64,
    /// Shared once more when dedup adopts it into its index.
    entry: Arc<MemoEntry>,
    /// Family variants that entered handler execution (the worker-side
    /// image of [`Engine::run_handler`]'s `executed` marks).
    executed: Vec<u32>,
}

/// What a shard worker reports back at the batch barrier.
#[derive(Debug)]
struct ShardOutcome {
    events: u64,
    instructions: u64,
    busy: Duration,
    records: Vec<ShardRecord>,
    skips: u64,
    tainted: u64,
    aborts: u64,
}

/// The dispatch keys somebody has taken on in the current batch, so that
/// nobody executes one twice: the merge thread claims each job's first
/// dispatch as it offers the job, a worker claims every later dispatch of
/// its chain and cuts the chain at one already claimed (`shard_skips`).
/// Strictly advisory — the merge thread always re-confirms congruence
/// structurally before applying anything, so a key collision costs a
/// serial fallback, never correctness.
type ClaimedKeys = Mutex<HashSet<u64>>;

/// The shard scheduler: one deque per worker, jobs routed to the owner
/// of their subtree (`shard_root % workers`), idle workers stealing
/// round-robin from the others so a skewed frontier still keeps every
/// core busy.
#[derive(Debug)]
struct ShardPool {
    state: Mutex<PoolState>,
    ready: Condvar,
}

#[derive(Debug)]
struct PoolState {
    queues: Vec<VecDeque<ShardJob>>,
    shutdown: bool,
}

impl ShardPool {
    fn new(workers: usize) -> ShardPool {
        ShardPool {
            state: Mutex::new(PoolState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Queues a whole batch — each job with the owner of its subtree —
    /// under one lock, then wakes the workers once.
    fn submit(&self, jobs: Vec<ShardJob>) {
        if jobs.is_empty() {
            return;
        }
        let mut st = self.state.lock().expect("pool");
        let workers = st.queues.len() as u64;
        for job in jobs {
            let home = (job.state.shard_root % workers) as usize;
            st.queues[home].push_back(job);
        }
        drop(st);
        self.ready.notify_all();
    }

    /// Blocks until a job is available (own queue first, then stealing)
    /// or the pool shuts down.
    fn take(&self, worker: usize) -> Option<ShardJob> {
        let mut st = self.state.lock().expect("pool");
        loop {
            let n = st.queues.len();
            for i in 0..n {
                let q = (worker + i) % n;
                if let Some(job) = st.queues[q].pop_front() {
                    return Some(job);
                }
            }
            if st.shutdown {
                return None;
            }
            st = self.ready.wait(st).expect("pool");
        }
    }

    fn shutdown(&self) {
        self.state.lock().expect("pool").shutdown = true;
        self.ready.notify_all();
    }
}

/// Authoritatively executes one state's same-time events on a shard
/// worker, recording each symbol-free dispatch as a [`MemoEntry`] the
/// merge thread applies in serial order (see
/// [`Engine::run_sharded_in_place`] for the fallback rules). A taint,
/// skip or send clears the queue, ending the chain.
fn run_shard_group(
    job: ShardJob,
    scenario: &Scenario,
    solver: &Solver,
    keys: &ClaimedKeys,
) -> ShardOutcome {
    let started = Instant::now();
    let mut worker = ShardWorker::new(job, scenario, solver, keys);
    while let Some((sid, ev)) = worker.queue.pop_front() {
        worker.events += 1;
        worker.dispatch(sid, ev);
    }
    ShardOutcome {
        events: worker.events,
        instructions: worker.instructions,
        busy: started.elapsed(),
        records: worker.records,
        skips: worker.skips,
        tainted: worker.tainted,
        aborts: worker.aborts,
    }
}

/// The worker-side mirror of the engine's dispatch: same event dispatch,
/// same handler stepping — against local clones — with every effect
/// recorded into a [`MemoEntry`] for the merge thread to apply.
#[derive(Debug)]
struct ShardWorker<'a> {
    solver: &'a Solver,
    symbols: SymbolTable,
    /// The run's scenario; `program` is the job's node's.
    scenario: &'a Scenario,
    program: &'a Program,
    now: u64,
    states: HashMap<StateId, SdeState>,
    /// FIFO of pending same-time events; forks append their duplicated
    /// tails here, mirroring [`IndexedQueue::duplicate`]'s effect on the
    /// time-`now` slice of the real queue.
    queue: VecDeque<(StateId, NodeEvent)>,
    /// Local ids for forks, far above any real [`StateId`].
    next_local: u64,
    instructions: u64,
    events: u64,
    /// The in-flight dispatch's bugs and executed-state marks (the worker
    /// has no engine-level `bugs`/`executed` collections to diff against).
    rec_bugs: Vec<(usize, BugReport)>,
    rec_executed: Vec<u32>,
    /// Completed recordings awaiting the batch barrier.
    records: Vec<ShardRecord>,
    /// The batch's claimed dispatch keys.
    keys: &'a ClaimedKeys,
    /// The in-flight dispatch transmitted a packet: its recording stays
    /// valid, but the chain must stop (packet ids — and with them the
    /// sender's history digest — are minted at merge time).
    sent: bool,
    /// The in-flight dispatch blew [`WORKER_INSTRUCTION_CAP`].
    capped: bool,
    /// The in-flight dispatch must run on the merge thread: a fault
    /// decision would mint a symbolic input, or the handler is missing
    /// (the merge thread then panics itself).
    poisoned: bool,
    skips: u64,
    tainted: u64,
    aborts: u64,
    /// [`Engine`]'s per-event scratch, mirrored.
    recv_args: Vec<Value>,
    running: Vec<SdeState>,
}

impl<'a> ShardWorker<'a> {
    fn new(
        job: ShardJob,
        scenario: &'a Scenario,
        solver: &'a Solver,
        keys: &'a ClaimedKeys,
    ) -> ShardWorker<'a> {
        let root = job.state.id;
        ShardWorker {
            solver,
            symbols: job.symbols,
            scenario,
            program: scenario.program(job.state.node),
            now: job.now,
            states: HashMap::from([(root, job.state)]),
            queue: job.events.into_iter().map(|ev| (root, ev)).collect(),
            next_local: 1 << 63,
            instructions: 0,
            events: 0,
            rec_bugs: Vec::new(),
            rec_executed: Vec::new(),
            records: Vec::new(),
            keys,
            sent: false,
            capped: false,
            poisoned: false,
            skips: 0,
            tainted: 0,
            aborts: 0,
            recv_args: Vec::new(),
            running: Vec::new(),
        }
    }

    /// Mirrors [`Engine::dispatch`] while recording, with the sharded
    /// fallback rules: skip chains another worker covers, discard
    /// recordings that mint symbols or blow the cap, stop the chain
    /// after a send.
    fn dispatch(&mut self, state_id: StateId, kind: NodeEvent) {
        if !self.states.get(&state_id).is_some_and(SdeState::is_idle) {
            return;
        }
        let key = {
            let s = &self.states[&state_id];
            memo_key(s.node, s.vm.config_digest(), s.budgets(), self.now, &kind)
        };
        // The job's first dispatch was claimed for it when it was offered.
        if self.events > 1 && !self.keys.lock().expect("claimed keys").insert(key) {
            // Somebody else records this dispatch and what follows from
            // it; the merge thread will confirm and apply their entries.
            self.skips += 1;
            self.queue.clear();
            return;
        }
        let sym_start = self.symbols.len();
        let mut rec = {
            let s = &self.states[&state_id];
            DispatchRecorder::new(
                key,
                s.node,
                self.now,
                s.budgets(),
                s.vm.clone(),
                kind.clone(),
                state_id,
                0,
                self.instructions,
            )
        };
        self.rec_bugs.clear();
        self.rec_executed.clear();
        self.sent = false;
        self.poisoned = false;
        match kind {
            NodeEvent::Boot => self.run_handler(&mut rec, state_id, handlers::ON_BOOT, &[]),
            NodeEvent::Timer(t) => {
                let args = [Value::const_(u64::from(t), Width::W16)];
                self.run_handler(&mut rec, state_id, handlers::ON_TIMER, &args);
            }
            NodeEvent::Deliver(packet) => self.deliver(&mut rec, state_id, &packet),
        }
        if self.capped {
            // A self-aborted chain is counted, never silent.
            self.aborts = 1;
            self.tainted += 1;
            self.queue.clear();
            return;
        }
        if self.symbols.len() != sym_start || self.poisoned {
            // The dispatch minted fresh symbolic inputs (or would have):
            // ids must be assigned in serial dispatch order, so the merge
            // thread executes this chain itself.
            self.tainted += 1;
            self.queue.clear();
            return;
        }
        let mut finals = Vec::with_capacity(rec.family.len());
        for id in &rec.family {
            let s = self
                .states
                .get(id)
                .expect("family member resident at dispatch end");
            finals.push((s.vm.clone(), s.budgets()));
        }
        let instructions = self.instructions - rec.instr_start;
        // Only read on traced replays; sharded merges are never traced.
        let survivor = rec.family[0];
        self.records.push(ShardRecord {
            key,
            entry: Arc::new(MemoEntry {
                node: rec.node,
                now: rec.now,
                budgets: rec.budgets,
                pre_vm: rec.pre_vm,
                event: rec.event,
                ops: rec.ops,
                finals,
                bugs: std::mem::take(&mut self.rec_bugs),
                instructions,
                survivor,
            }),
            executed: std::mem::take(&mut self.rec_executed),
        });
        if self.sent {
            self.queue.clear();
        }
    }

    fn allocate_id(&mut self) -> StateId {
        let id = StateId(self.next_local);
        self.next_local += 1;
        id
    }

    /// Mirrors [`Engine::deliver`] up to its first fault decision. Every
    /// failure and fault model mints a symbolic decision variable, and a
    /// dispatch that mints is left to the merge thread, so the worker
    /// stops as soon as one model would fire. What it does execute — the
    /// silent loss to an active partition, or the plain `on_recv` — mints
    /// nothing.
    fn deliver(&mut self, rec: &mut DispatchRecorder, state_id: StateId, packet: &Packet) {
        let s = &self.states[&state_id];
        let crosses_cut = self.scenario.faults.cut_contains(packet.src, s.node);
        if self.now < s.partition_until && crosses_cut {
            // The merge replay re-emits the drop.
            rec.note_partition_drop(state_id, s.partition_until);
            return;
        }
        let corruptible = packet
            .payload
            .first()
            .is_some_and(|word| word.width().bits() >= 8);
        if (s.part_budget > 0 && crosses_cut)
            || s.lat_budget > 0
            || s.drop_budget > 0
            || s.dup_budget > 0
            || s.reboot_budget > 0
            || s.crash_budget > 0
            || (s.cor_budget > 0 && corruptible)
        {
            self.poisoned = true;
            return;
        }
        let mut args = std::mem::take(&mut self.recv_args);
        args.push(Value::const_(u64::from(packet.src.0), Width::W16));
        args.extend(packet.payload.iter().cloned());
        rec.note_packet_delivered(state_id, false);
        self.run_handler(rec, state_id, handlers::ON_RECV, &args);
        args.clear();
        self.recv_args = args;
    }

    /// Mirrors [`IndexedQueue::duplicate`] for the local same-time queue.
    fn duplicate_queued(&mut self, from: StateId, to: StateId) {
        let pending: Vec<(StateId, NodeEvent)> = self
            .queue
            .iter()
            .filter(|(sid, _)| *sid == from)
            .map(|(_, ev)| (to, ev.clone()))
            .collect();
        self.queue.extend(pending);
    }

    /// Mirrors [`Engine::run_handler`]: same LIFO sibling traversal, same
    /// stepping context, with forks, sends, timers and bugs recorded into
    /// `rec`.
    fn run_handler(
        &mut self,
        rec: &mut DispatchRecorder,
        state_id: StateId,
        handler: &str,
        args: &[Value],
    ) {
        let Some(mut first) = self.states.remove(&state_id) else {
            return;
        };
        if !first.is_idle() {
            self.states.insert(state_id, first);
            return;
        }
        if !first.vm.prepare(self.program, handler, args) {
            // The merge thread panics on a missing handler; leave the
            // dispatch to it so that it reaches the panic itself.
            self.poisoned = true;
            return;
        }

        let mut running = std::mem::take(&mut self.running);
        running.push(first);
        while let Some(mut st) = running.pop() {
            self.rec_executed.push(rec.variant(st.id) as u32);
            loop {
                self.instructions += 1;
                if self.instructions > WORKER_INSTRUCTION_CAP {
                    // The chain ends here; the stack goes with it.
                    self.capped = true;
                    return;
                }
                let result = {
                    let mut ctx = VmCtx::new(self.solver, &mut self.symbols);
                    ctx.now = self.now;
                    ctx.node_id = st.node.0;
                    step(self.program, &mut st.vm, &mut ctx)
                };
                match result {
                    StepResult::Continue => {}
                    StepResult::Forked(sibling_vm) => {
                        let sib_id = self.allocate_id();
                        let sibling = st.fork_with_vm(sib_id, sibling_vm);
                        self.duplicate_queued(st.id, sib_id);
                        rec.note_branch_fork(st.id, sib_id);
                        if let Status::Bugged(report) = sibling.vm.status() {
                            self.rec_bugs.push((rec.variant(sib_id), report.clone()));
                            self.states.insert(sib_id, sibling);
                        } else {
                            running.push(sibling);
                        }
                    }
                    StepResult::Syscall(Syscall::Send { dest, payload }) => {
                        let dest = NodeId(dest);
                        assert!(
                            self.scenario.topology.are_neighbors(st.node, dest),
                            "{} sent to non-neighbor {dest}",
                            st.node
                        );
                        rec.note_send(st.id, dest, &payload);
                        self.sent = true;
                    }
                    StepResult::Syscall(Syscall::SetTimer { delay, timer }) => {
                        rec.note_timer(st.id, delay, timer);
                        if delay == 0 {
                            // A zero-delay timer lands in this very batch:
                            // keep the chain alive locally, mirroring the
                            // real queue push.
                            self.queue.push_back((st.id, NodeEvent::Timer(timer)));
                        }
                    }
                    StepResult::HandlerDone(_) | StepResult::Halted | StepResult::Infeasible => {
                        self.states.insert(st.id, st);
                        break;
                    }
                    StepResult::Bug(report) => {
                        self.rec_bugs.push((rec.variant(st.id), report));
                        self.states.insert(st.id, st);
                        break;
                    }
                }
            }
        }
        self.running = running;
    }
}

/// Runs `scenario` under `algorithm` and reports.
///
/// # Examples
///
/// ```
/// use sde_core::{run, Algorithm, Scenario};
/// use sde_net::Topology;
/// use sde_os::apps::hello::{self, HelloConfig};
///
/// let topology = Topology::line(3);
/// let programs = hello::programs(&topology, &HelloConfig::default());
/// let report = run(&Scenario::new(topology, programs), Algorithm::Sds);
/// assert_eq!(report.algorithm, "SDS");
/// assert!(report.packets > 0);
/// ```
pub fn run(scenario: &Scenario, algorithm: Algorithm) -> RunReport {
    Engine::new(scenario.clone(), algorithm).run()
}
