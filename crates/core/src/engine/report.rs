//! Time-series samples, bookkeeping checks and the final report.

use super::Engine;
use crate::stats::{RunReport, Sample};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

impl Engine {
    pub(super) fn sample(&mut self) {
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
