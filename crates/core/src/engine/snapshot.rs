//! Checkpoints (DESIGN.md §8): an engine as an [`EngineSnapshot`] at an
//! event boundary, and an engine again from one.
//!
//! **No table is sized from an id a snapshot merely claims.** State,
//! group and virtual-state ids index flat vectors, so [`Engine::resume`]
//! and the mappers' imports bound every id read from a file — by
//! something the file spends bytes on — before the vector it indexes
//! grows. The premise is what every run writes: the mapper names exactly
//! the states `0..next_state` and the groups `0..next_group`, and every
//! state is resident. The bounds, and what each one guards:
//!
//! | where | what is refused | before what grows |
//! |---|---|---|
//! | `Cob` / `Cow::import_snapshot` | group ids that are not exactly `0..next_group` | `groups` / `dstates` |
//! | `Cob` / `Cow::import_snapshot` | a state id at or above the number of member entries listed (no state may be listed twice) | `group_of` |
//! | `Sds::import_snapshot` | vstate ids not exactly `0..next_v`, dstate ids not exactly `0..next_group`, a vstate's dstate `>= next_group`, more dstates × nodes than vstates listed | `rows`, `columns`, `slots` |
//! | `Sds::import_snapshot` | an owner id at or above the number of vstates listed; owners not exactly `0..` their count | `slot_of` |
//! | all three imports | a list not strictly ascending by `(node, id)`, a group without members, a COW node entry without states | — (`check_invariants` runs last) |
//! | [`Engine::resume`] | `next_state` above the number of states `MapperSnapshot::members()` names | the state table (a record's id must be `< next_state`) |
//! | [`Engine::resume`] | an `executed` id `>= next_state` | the `executed` bitset |
//! | [`Engine::resume`] | a queued event of a non-resident state | the pending-event index |
//!
//! None of those functions calls `try_reserve`, so a sizing that slipped
//! through would panic or abort in
//! `tests/snapshot_fuzz.rs::resume_refuses_ids_nothing_in_the_snapshot_backs`,
//! not return `Err`.

use super::Engine;
use crate::checkpoint::{EngineSnapshot, SnapshotError};
use crate::scenario::Scenario;
use crate::state::{SdeState, StateId};
use crate::store::{IdSet, IndexedQueue};

impl Engine {
    /// Captures the engine's complete configuration as an
    /// [`EngineSnapshot`] — states, event queue, mapper bookkeeping,
    /// solver caches and all counters. Valid at any event boundary:
    /// before the run, after [`Engine::run_until`] returns
    /// [`RunOutcome::Paused`](crate::RunOutcome::Paused), or after completion. Serialize with
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
            faults_fingerprint: self.scenario.failures.fingerprint(),
            symbols,
            states,
            queue_next_seq: self.store.events.next_seq(),
            queue: self.store.events.export(),
            mapper: self.mapper.export_snapshot(),
            solver: self.solver.export_state(),
            now: self.now,
            events_processed: self.events_processed,
            packets_sent: self.packets_sent,
            instructions: self.instructions,
            aborted: self.aborted,
            next_state: self.store.next_state,
            samples: self.series.samples().to_vec(),
            bugs: self.bugs.clone(),
            trace: self.store.trace,
            dedup: self.dedup,
            dedup_stats: self.dedup_stats,
            executed: self.executed.iter().map(|s| s.0).collect(),
        }
    }

    /// Reconstructs a paused engine from `snapshot` so that driving it
    /// (`run_until`, `run`, `run_until_sharded`) continues exactly where
    /// the snapshotted run stopped: same state ids, same event order,
    /// same [`RunReport::equivalence_key`](crate::RunReport::equivalence_key)
    /// and — with a sink re-attached via [`Engine::with_trace_sink`] — the
    /// same trace events as the uninterrupted run.
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
        if scenario.failures.fingerprint() != snapshot.faults_fingerprint {
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
            // Every decoded heap is a trie of its own; equal ones end in
            // one, as in the run that wrote the snapshot. The core stays
            // shared with the snapshot's state unless the heap changes.
            let mut state = s.clone();
            if engine.heap_pool.offer(&state.vm) {
                engine.heap_pool.intern(&mut state.vm);
            }
            if engine.store.states.insert(state).is_some() {
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
        engine.store.trace = snapshot.trace;
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
        engine.events_processed = snapshot.events_processed;
        engine.packets_sent = snapshot.packets_sent;
        engine.instructions = snapshot.instructions;
        engine.aborted = snapshot.aborted;
        engine.bugs = snapshot.bugs.clone();
        for sample in &snapshot.samples {
            engine.series.push(*sample);
        }
        engine.dedup = snapshot.dedup;
        engine.dedup_stats = snapshot.dedup_stats;
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
}
