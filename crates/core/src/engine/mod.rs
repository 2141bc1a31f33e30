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
//! receivers and the forking they require. Symbolic failures (the seven
//! kinds of the scenario's failure config) are injected at delivery time
//! as local forks — the network itself is ideal (paper footnote 2).
//!
//! That step exists once. [`Engine::drive`] is the one run loop, serial
//! or sharded; the dispatch core (`host`) executes an event against a
//! host — the engine itself, which commits it (`commit`), or a shard
//! worker, which records it (`shard`); `faults` holds the decision table
//! a delivery goes through, `memo` applies recorded dispatches, and
//! `snapshot` and `report` turn an engine into a checkpoint or a report.

mod commit;
mod faults;
mod host;
mod memo;
mod report;
mod shard;
mod snapshot;

pub(crate) use faults::Fault;

use crate::checkpoint::{Budget, RunOutcome};
use crate::dedup::{DigestIndex, DispatchRecorder};
use crate::mapping::{Algorithm, StateMapper};
use crate::scenario::Scenario;
use crate::state::{SdeState, StateId};
use crate::stats::{BugFound, DedupStats, ParallelStats, RunReport, TimeSeries};
use crate::store::{IdSet, Store};
use host::Buffers;
use sde_net::Packet;
use sde_symbolic::{Solver, SymbolTable};
use sde_vm::{HeapPool, VmState};
use shard::{ShardRecord, ShardSegment};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

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
    events_processed: u64,
    /// Packets transmitted so far; also the id of the next one.
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
    /// Online duplicate-dispatch pruning (DESIGN.md §10). Off by
    /// default; forced off under a replay preset.
    dedup: bool,
    /// Memoized dispatches keyed by incremental configuration digest.
    /// Never serialized: a resumed engine starts cold and re-records.
    dedup_index: DigestIndex,
    /// The dispatch currently being recorded (dedup on, key missed).
    recorder: Option<DispatchRecorder>,
    /// States that entered handler execution at least once — replayed
    /// duplicates never do, so `executed.len()` is the
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
    /// Per-event buffers of the dispatch core.
    buffers: Buffers,
    /// One heap storage per memory image of the resident states
    /// (DESIGN.md §2, "Heap cells"). Never serialized: a resumed engine
    /// pools the decoded states' heaps.
    heap_pool: HeapPool,
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
            dedup: false,
            dedup_index: DigestIndex::default(),
            recorder: None,
            executed: IdSet::default(),
            dedup_stats: DedupStats::default(),
            shard_entries: None,
            shard_applied: 0,
            shard_fallback: 0,
            buffers: Buffers::default(),
            heap_pool: HeapPool::new(),
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
        self.drive(budget, None)
    }

    /// The one run loop, behind [`Engine::run_until`] and
    /// [`Engine::run_until_sharded`]. Each turn checks the budget and the
    /// state cap, then commits the earliest pending time's events in
    /// queue order: serially, one event per turn, so a serial run pauses
    /// between any two events; sharded, the whole batch, after the
    /// segment's hand-off, so a sharded run pauses only between batches
    /// (DESIGN.md §8).
    fn drive(&mut self, budget: Budget, mut shards: Option<&mut ShardSegment<'_>>) -> RunOutcome {
        let _trace_guard = self
            .traced
            .then(|| sde_trace::install(Arc::clone(&self.sink)));
        self.started = Instant::now();
        if self.store.next_state == 0 {
            self.boot();
            self.store.trace.boot_wall_us = self.started.elapsed().as_micros() as u64;
            self.sample();
        }
        let events_start = self.events_processed;

        let outcome = loop {
            if self.budget_exhausted(budget, events_start) {
                break RunOutcome::Paused;
            }
            if self.store.total_states() > self.scenario.state_cap {
                self.aborted = true;
                break RunOutcome::Complete;
            }
            let Some(time) = self.store.events.peek_time() else {
                break RunOutcome::Complete;
            };
            if time > self.scenario.duration_ms {
                // The out-of-window event is consumed, then the run ends.
                self.store.events.pop();
                break RunOutcome::Complete;
            }
            if let Some(segment) = shards.as_mut() {
                segment.hand_off(self, time);
            }
            let capped = loop {
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
                if shards.is_none() {
                    break false;
                }
                if self.store.total_states() > self.scenario.state_cap {
                    break true;
                }
                if self.store.events.peek_time() != Some(time) {
                    break false;
                }
            };
            if let Some(segment) = shards.as_mut() {
                segment.committed(self);
            }
            if capped {
                self.aborted = true;
                break RunOutcome::Complete;
            }
        };

        // The final sample belongs to the *run*, not the segment: a paused
        // segment must leave the time series exactly as the uninterrupted
        // run would have it at this point.
        if outcome.is_complete() {
            self.sample();
        }
        self.store.trace.run_wall_us += self.started.elapsed().as_micros() as u64;
        outcome
    }

    /// `true` once any axis of `budget` is spent. The event axis is
    /// relative to the start of the current [`Engine::run_until`] call;
    /// the live-state axis is absolute.
    fn budget_exhausted(&self, budget: Budget, events_start: u64) -> bool {
        if let Some(n) = budget.max_events {
            if self.events_processed - events_start >= n {
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
                self.scenario.track_history,
            );
            self.store.states.insert(state);
            registry.push((id, node));
            self.store.trace.boots += 1;
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
