//! Time-series samples, bookkeeping checks and the final report.

use super::Engine;
use crate::stats::{RunReport, Sample};
use sde_vm::KeyIsHash;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Configuration digests are mixed already: each is its own hash.
type DigestSet = HashSet<u64, BuildHasherDefault<KeyIsHash>>;

impl Engine {
    pub(super) fn sample(&mut self) {
        let (live, bytes) = self.store.states.totals();
        debug_assert_eq!((live, bytes), self.sample_reference());
        self.series.push(Sample {
            wall_ms: self.started.elapsed().as_millis() as u64,
            virtual_ms: self.now,
            live_states: live,
            total_states: self.store.total_states(),
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
        // deterministic. The same pass streams every resident state's
        // `(id, configuration digest)`, in that order, into the digest of
        // the final state set: the bytes `Vec<(u64, u64)>::hash` feeds,
        // without the vector.
        let mut seen: DigestSet = HashSet::default();
        let mut seen_terminated: DigestSet = HashSet::default();
        let mut duplicates = 0usize;
        let mut duplicate_terminated = 0usize;
        let mut by_node: std::collections::BTreeMap<u16, usize> = std::collections::BTreeMap::new();
        let mut hasher = DefaultHasher::new();
        hasher.write_usize(self.store.states.len());
        for s in self.store.states.values() {
            let digest = s.config_digest();
            if !seen.insert(digest) {
                duplicates += 1;
                *by_node.entry(s.node.0).or_default() += 1;
            }
            if !s.is_live() && !seen_terminated.insert(digest) {
                duplicate_terminated += 1;
            }
            (s.id.0, digest).hash(&mut hasher);
        }
        let duplicates_by_node: Vec<(u16, usize)> = by_node.into_iter().collect();
        let history_digest = hasher.finish();
        let solver = self.solver.stats();
        RunReport {
            algorithm: self.mapper.name(),
            wall: self.started.elapsed(),
            virtual_ms: self.now,
            total_states: self.store.total_states(),
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
            trace: self.store.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Algorithm;
    use crate::scenario::Scenario;
    use sde_net::{FailureConfig, NodeId, Topology};
    use sde_os::apps::flood::{self, FloodConfig};

    /// The digest of the final state set as [`Engine::into_report`]
    /// computed it before it streamed the pairs: every resident state's
    /// `(id, configuration digest)` collected in id order, the vector
    /// hashed whole.
    fn history_digest_reference(engine: &Engine) -> u64 {
        let digests: Vec<(u64, u64)> = (engine.store.states.values())
            .map(|s| (s.id.0, s.config_digest()))
            .collect();
        let mut hasher = DefaultHasher::new();
        digests.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn the_streamed_history_digest_is_the_hashed_vector() {
        let topology = Topology::full_mesh(4);
        let cfg = FloodConfig {
            initiator: NodeId(0),
            rounds: 2,
            interval_ms: 1000,
        };
        for algorithm in [Algorithm::Cob, Algorithm::Cow, Algorithm::Sds] {
            let scenario = Scenario::new(topology.clone(), flood::programs(&topology, &cfg))
                .with_failures(FailureConfig::new().with_drops(topology.nodes(), 1))
                .with_duration_ms(4000);
            let mut engine = Engine::new(scenario, algorithm);
            engine.run_in_place();
            let resident = engine.store.states.len();
            assert!(
                resident > 4,
                "{algorithm:?}: the drops fork ({resident} states)"
            );
            let reference = history_digest_reference(&engine);
            assert_eq!(
                engine.into_report().history_digest,
                reference,
                "{algorithm:?}"
            );
        }
    }
}
