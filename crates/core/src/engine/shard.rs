//! Sharded frontier exploration (DESIGN.md §5): the worker pool, the
//! hand-off and barrier of each batch, and the record host a worker runs
//! the dispatch core on.

use super::faults::{Fault, Verdict};
use super::host::{execute, Buffers, Host};
use super::{Engine, NodeEvent};
use crate::checkpoint::Budget;
use crate::dedup::{memo_key, DispatchRecorder, MemoEntry};
use crate::scenario::Scenario;
use crate::state::{SdeState, StateId};
use crate::stats::{BugFound, ParallelStats, RunReport};
use crate::RunOutcome;
use sde_net::NodeId;
use sde_symbolic::{Solver, SymbolTable, Value};
use sde_vm::VmCtx;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Safety valve: a worker abandons its chain past this many VM steps and
/// the merge thread executes the rest itself. Falling back costs speed,
/// never correctness, so capping a runaway chain is always safe.
const WORKER_INSTRUCTION_CAP: u64 = 4_000_000;

impl Engine {
    /// Runs the scenario with `workers` *authoritative* shard workers and
    /// reports. The report is bit-identical to [`Engine::run`]'s (see
    /// [`RunReport::equivalence_key`]) at every worker count.
    pub fn run_sharded(mut self, workers: usize) -> RunReport {
        self.run_sharded_in_place(workers);
        self.into_report()
    }

    /// Like [`Engine::run_in_place`] but with true parallel execution
    /// (DESIGN.md §5): the frontier is partitioned into disjoint
    /// subtrees by root-fork lineage ([`SdeState::shard_root`]) and each
    /// worker *authoritatively* executes the groups of its subtrees —
    /// VM stepping, solver queries against a worker-local cache, forks —
    /// through the engine's own dispatch core, recording each dispatch's
    /// effects as the dedup layer does (a `MemoEntry`). The merge thread
    /// then replays the event queue in serial order, *applying* each
    /// recorded entry (after an exact congruence check) instead of
    /// re-executing it, so state ids, packet ids, histories and the report
    /// are identical to [`Engine::run_in_place`] by construction.
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
    /// memo index the serial run would have populated.
    pub fn run_sharded_in_place(&mut self, workers: usize) {
        self.run_until_sharded(workers, Budget::unlimited());
    }

    /// [`Engine::run_until`] on the sharded path: the budget is checked
    /// only *between* virtual-time batches (a batch is never split), so a
    /// pause point here is also a valid pause point of the sequential run
    /// — checkpoint/resume composes with sharding (DESIGN.md §8).
    pub fn run_until_sharded(&mut self, workers: usize, budget: Budget) -> RunOutcome {
        let workers = workers.max(1);
        let pool = ShardPool::new(workers);
        let keys = ClaimedKeys::default();
        let (done_tx, done) = mpsc::channel::<thread::Result<ShardOutcome>>();
        let scenario = Arc::clone(&self.scenario);
        let mut segment = ShardSegment {
            pool: &pool,
            keys: &keys,
            done,
            // Authoritative offloading needs canonical symbol ids and
            // packet ids, which only the merge thread can mint — and a
            // recording sink serializes everything anyway — so traced and
            // preset segments commit serially with an idle pool.
            offload: !self.traced && self.preset.is_none(),
            // Counters and wall times add up across segments; `workers` is
            // the latest segment's.
            stats: ParallelStats {
                workers,
                ..self.parallel.take().unwrap_or_default()
            },
            committing: Instant::now(),
        };

        let outcome = thread::scope(|scope| {
            for w in 0..workers {
                let (pool, keys, scenario) = (&pool, &keys, &*scenario);
                let done_tx = done_tx.clone();
                // Worker-local solver cache: authoritative execution is
                // contention-free, and the merge thread still sees
                // deterministic witness models because the exact solver
                // derives them from the query alone. The budget and the
                // caching switch are the engine solver's.
                let solver = self.solver.fresh_like();
                scope.spawn(move || {
                    let served = panic::catch_unwind(AssertUnwindSafe(|| {
                        // One frame, register vector and stack per worker,
                        // reused by every job it runs.
                        let mut buffers = Buffers::default();
                        while let Some(job) = pool.take(w) {
                            let outcome =
                                run_shard_group(job, scenario, &solver, keys, &mut buffers);
                            if done_tx.send(Ok(outcome)).is_err() {
                                break;
                            }
                        }
                    }));
                    // A dead worker reports its panic, which the merge
                    // thread resumes at the barrier, instead of leaving it
                    // waiting for an outcome that never comes.
                    if let Err(payload) = served {
                        let _ = done_tx.send(Err(payload));
                    }
                });
            }
            drop(done_tx);
            // Shuts the pool however `drive` ends: a panic on the merge
            // thread must release the parked workers, or the scope would
            // join them forever.
            let _shutdown = ShutdownOnDrop(&pool);
            self.drive(budget, Some(&mut segment))
        });

        let mut stats = segment.stats;
        stats.shard_applied += std::mem::take(&mut self.shard_applied);
        stats.shard_fallback += std::mem::take(&mut self.shard_fallback);
        stats.run_wall += self.started.elapsed();
        self.parallel = Some(stats);
        outcome
    }

    /// The hand-off: moves the batch at `batch_time` — the earliest
    /// pending time — to the queue's front and returns one [`ShardJob`]
    /// per idle state with events in it, in order of each state's first
    /// event; a batch of fewer than two groups has nothing to overlap and
    /// yields none.
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
            if !claimed.insert(memo_key(state, batch_time, first)) {
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
}

/// The merge side of one sharded segment: what the run loop
/// ([`Engine::drive`]) needs around each batch it commits.
pub(super) struct ShardSegment<'s> {
    pool: &'s ShardPool,
    keys: &'s ClaimedKeys,
    /// Each job's outcome, or the panic of the worker that died on it.
    done: mpsc::Receiver<thread::Result<ShardOutcome>>,
    offload: bool,
    stats: ParallelStats,
    /// When the batch being committed started committing.
    committing: Instant,
}

impl ShardSegment<'_> {
    /// Before the batch at `time` is committed: fans one job per distinct
    /// first dispatch out to the subtree owners (`shard_root % workers`,
    /// with work-stealing smoothing the imbalance), then waits for every
    /// recording of the batch (a full barrier) and hands them to the
    /// engine's `dispatch`.
    pub(super) fn hand_off(&mut self, engine: &mut Engine, time: u64) {
        self.stats.batches += 1;
        let started = Instant::now();
        let mut jobs = Vec::new();
        if self.offload {
            jobs = engine.batch_jobs(time, &mut self.stats, self.keys);
        }
        let sent = jobs.len();
        self.pool.submit(jobs);
        self.stats.dispatch_wall += started.elapsed();

        let started = Instant::now();
        let mut entries: HashMap<u64, Vec<Arc<ShardRecord>>> = HashMap::new();
        for _ in 0..sent {
            let o = match self.done.recv() {
                Ok(Ok(outcome)) => outcome,
                Ok(Err(payload)) => panic::resume_unwind(payload),
                Err(_) => break,
            };
            self.stats.worker_events += o.events;
            self.stats.worker_instructions = self
                .stats
                .worker_instructions
                .saturating_add(o.instructions);
            self.stats.worker_busy += o.busy;
            self.stats.worker_aborts += o.aborts;
            self.stats.shard_skips += o.skips;
            self.stats.shard_tainted += o.tainted;
            self.stats.shard_recorded += o.records.len() as u64;
            for r in o.records {
                entries.entry(r.key).or_default().push(Arc::new(r));
            }
        }
        self.stats.barrier_wall += started.elapsed();
        engine.shard_entries = (!entries.is_empty()).then_some(entries);
        self.committing = Instant::now();
    }

    /// After the batch is committed: its recordings are spent.
    pub(super) fn committed(&mut self, engine: &mut Engine) {
        engine.shard_entries = None;
        self.stats.serial_wall += self.committing.elapsed();
    }
}

/// One shard work unit: all events of one state at one timestamp, plus
/// the private clones the worker executes them against.
///
/// A job carries only what is this group's own. Everything the whole run
/// shares — programs, failure config, topology — the worker reads from
/// the engine's [`Scenario`], which its thread borrows for the run.
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
pub(super) struct ShardRecord {
    /// The worker-computed memo key; the merge thread computes the same
    /// key at pop time along sendless chains, so a plain map lookup
    /// finds the entry.
    key: u64,
    /// Shared once more when dedup adopts it into its index.
    pub(super) entry: Arc<MemoEntry>,
    /// Family variants that entered handler execution (the record host's
    /// image of the commit host's `executed` marks).
    pub(super) executed: Vec<u32>,
}

/// What a shard worker reports back at the batch barrier: the job's
/// recordings and counters.
#[derive(Debug, Default)]
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
            let home = (u64::from(job.state.shard_root) % workers) as usize;
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

    /// Wakes every worker to exit once the queues are empty. Runs while
    /// unwinding too, so a lock a dying thread poisoned is taken anyway.
    fn shutdown(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.shutdown = true;
        drop(st);
        self.ready.notify_all();
    }
}

/// Shuts the pool when dropped, on return and on unwind alike.
struct ShutdownOnDrop<'p>(&'p ShardPool);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
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
    buffers: &mut Buffers,
) -> ShardOutcome {
    let started = Instant::now();
    let root = job.state.id;
    let mut worker = ShardWorker {
        solver,
        symbols: job.symbols,
        scenario,
        now: job.now,
        states: HashMap::from([(root, job.state)]),
        queue: job.events.into_iter().map(|ev| (root, ev)).collect(),
        next_local: 1 << 63,
        recorder: None,
        bugs: Vec::new(),
        executed: Vec::new(),
        keys,
        sent: false,
        capped: false,
        poisoned: false,
        buffers,
        out: ShardOutcome::default(),
    };
    while let Some((sid, ev)) = worker.queue.pop_front() {
        worker.out.events += 1;
        worker.record(sid, ev);
    }
    worker.out.busy = started.elapsed();
    worker.out
}

/// The record host: a shard job's states, executed through the engine's
/// dispatch core against local clones, every dispatch recorded for the
/// merge thread to apply.
#[derive(Debug)]
struct ShardWorker<'a> {
    solver: &'a Solver,
    symbols: SymbolTable,
    scenario: &'a Scenario,
    now: u64,
    states: HashMap<StateId, SdeState>,
    /// FIFO of pending same-time events; forks append their duplicated
    /// tails here, as [`IndexedQueue::duplicate`](crate::store::IndexedQueue::duplicate)
    /// does to the time-`now` slice of the real queue.
    queue: VecDeque<(StateId, NodeEvent)>,
    /// Local ids for forks, far above any real [`StateId`].
    next_local: u64,
    recorder: Option<DispatchRecorder>,
    /// Every bug the chain found; a recording keeps those of its own
    /// dispatch.
    bugs: Vec<BugFound>,
    /// The family variants the in-flight dispatch executed.
    executed: Vec<u32>,
    /// The batch's claimed dispatch keys.
    keys: &'a ClaimedKeys,
    /// The in-flight dispatch transmitted a packet: its recording stays
    /// valid, but the chain must stop (packet ids — and with them the
    /// sender's history digest — are minted at merge time).
    sent: bool,
    /// The chain blew [`WORKER_INSTRUCTION_CAP`].
    capped: bool,
    /// The in-flight dispatch must run on the merge thread: a fault
    /// decision would mint a symbolic input, or the handler is missing
    /// (the merge thread then panics itself).
    poisoned: bool,
    buffers: &'a mut Buffers,
    /// The job's recordings and counters, for the batch barrier.
    out: ShardOutcome,
}

impl ShardWorker<'_> {
    /// Executes one dispatch of the chain through the dispatch core and
    /// keeps its recording — unless a fallback rule of
    /// [`Engine::run_sharded_in_place`] ends the chain: a dispatch
    /// claimed by somebody else, a mint, the cap; a send ends it after
    /// the recording.
    fn record(&mut self, state_id: StateId, event: NodeEvent) {
        let Some(state) = self.states.get(&state_id).filter(|s| s.is_idle()) else {
            return;
        };
        let key = memo_key(state, self.now, &event);
        // The job's first dispatch was claimed for it when it was offered.
        if self.out.events > 1 && !self.keys.lock().expect("claimed keys").insert(key) {
            // Somebody else records this dispatch and what follows from
            // it; the merge thread will confirm and apply their entries.
            self.out.skips += 1;
            self.queue.clear();
            return;
        }
        let symbols_start = self.symbols.len();
        self.recorder = Some(DispatchRecorder::begin(
            key,
            state,
            self.now,
            event.clone(),
            self.bugs.len(),
            self.out.instructions,
        ));
        (self.sent, self.poisoned) = (false, false);
        execute(self, state_id, event);
        let rec = self.recorder.take().expect("the recording is open");
        let executed = std::mem::take(&mut self.executed);
        if self.capped {
            // A self-aborted chain is counted, never silent.
            self.out.aborts = 1;
        }
        if self.capped || self.poisoned || self.symbols.len() != symbols_start {
            // The dispatch minted fresh symbolic inputs (or would have):
            // ids must be assigned in serial dispatch order, so the merge
            // thread executes this chain itself.
            self.out.tainted += 1;
            self.queue.clear();
            return;
        }
        let entry = rec.seal(|id| &self.states[&id], &self.bugs, self.out.instructions);
        self.out.records.push(ShardRecord {
            key,
            entry: Arc::new(entry),
            executed,
        });
        if self.sent {
            self.queue.clear();
        }
    }
}

impl Host for ShardWorker<'_> {
    fn scenario(&self) -> &Scenario {
        self.scenario
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn resident(&self, id: StateId) -> &SdeState {
        &self.states[&id]
    }

    fn update<R>(&mut self, id: StateId, change: impl FnOnce(&mut SdeState) -> R) -> R {
        change(self.states.get_mut(&id).expect("state in the job"))
    }

    fn take(&mut self, id: StateId) -> Option<SdeState> {
        self.states.remove(&id)
    }

    fn put(&mut self, state: SdeState) {
        self.states.insert(state.id, state);
    }

    fn allocate_id(&mut self) -> StateId {
        self.next_local += 1;
        StateId(self.next_local - 1)
    }

    fn recorder(&mut self) -> Option<&mut DispatchRecorder> {
        self.recorder.as_mut()
    }

    fn buffers(&mut self) -> &mut Buffers {
        self.buffers
    }

    fn ctx(&mut self, node: NodeId) -> VmCtx<'_> {
        VmCtx {
            solver: self.solver,
            symbols: &mut self.symbols,
            now: self.now,
            node_id: node.0,
            preset: None,
        }
    }

    fn tick(&mut self) -> bool {
        self.out.instructions += 1;
        self.capped |= self.out.instructions > WORKER_INSTRUCTION_CAP;
        !self.capped
    }

    fn executed(&mut self, state: StateId) {
        let rec = self.recorder.as_ref().expect("the recording is open");
        self.executed.push(rec.variant(state) as u32);
    }

    fn no_handler(&mut self, _node: NodeId, _handler: &str, _arity: usize) {
        // Leave the dispatch to the merge thread, which panics itself.
        self.poisoned = true;
    }

    fn forked(&mut self, parent: StateId, child: StateId, _node: NodeId) {
        let copies: Vec<(StateId, NodeEvent)> = (self.queue.iter())
            .filter(|(sid, _)| *sid == parent)
            .map(|(_, ev)| (child, ev.clone()))
            .collect();
        self.queue.extend(copies);
    }

    fn send(&mut self, _sender: &mut SdeState, _dest: NodeId, _payload: Vec<Value>) {
        self.sent = true;
    }

    fn schedule(&mut self, state: StateId, delay: u64, event: NodeEvent) {
        if delay == 0 {
            // It lands in this very batch: keep the chain alive locally,
            // as the real queue push would.
            self.queue.push_back((state, event));
        }
    }

    fn clear_events(&mut self, state: StateId) {
        self.queue.retain(|(sid, _)| *sid != state);
    }

    fn bug(&mut self, bug: BugFound) {
        self.bugs.push(bug);
    }

    /// Every fault decision mints its variable, so the worker refuses the
    /// first one armed, in [`Fault::ORDER`], and the merge thread
    /// executes the dispatch.
    fn decide(&mut self, _state: StateId, _fault: Fault) -> Verdict {
        self.poisoned = true;
        Verdict::Stop
    }

    fn corruption_byte(&mut self, _state: StateId) -> Option<Value> {
        self.poisoned = true;
        None
    }
}
