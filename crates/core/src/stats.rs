//! Run statistics: the quantities Table I and Figure 10 report.

use std::fmt;
use std::time::Duration;

/// One point of the state/memory-over-time curves (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Wall-clock milliseconds since the run started.
    pub wall_ms: u64,
    /// Virtual time in milliseconds.
    pub virtual_ms: u64,
    /// Execution states currently alive.
    pub live_states: usize,
    /// Execution states created so far (monotone).
    pub total_states: usize,
    /// Deterministic memory estimate in bytes (see DESIGN.md for the
    /// substitution of RSS measurements).
    pub bytes: usize,
    /// dscenarios (COB) or dstates (COW/SDS) currently represented.
    pub groups: usize,
}

/// The time series collected during one run.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// All samples, in collection order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The peak memory estimate across the run.
    pub fn peak_bytes(&self) -> usize {
        self.samples.iter().map(|s| s.bytes).max().unwrap_or(0)
    }

    /// Writes the series as CSV (`wall_ms,virtual_ms,live,total,bytes,groups`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("wall_ms,virtual_ms,live_states,total_states,bytes,groups\n");
        for s in &self.samples {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                s.wall_ms, s.virtual_ms, s.live_states, s.total_states, s.bytes, s.groups
            ));
        }
        out
    }
}

/// Counters describing one [`Engine::run_sharded`](crate::Engine::run_sharded)
/// execution (DESIGN.md §5): how much work the shard workers did, what
/// the merge thread applied, and where the merge thread spent its time,
/// phase by phase.
///
/// The merge keeps the report bit-identical to the serial run's, so none
/// of these counters feed the equivalence-relevant parts of
/// [`RunReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Worker threads requested (the pool size, excluding the merge
    /// thread).
    pub workers: usize,
    /// Virtual-time batches processed (distinct timestamps popped).
    pub batches: u64,
    /// Batches that were fanned out to workers (≥ 2 same-time state
    /// groups, no replay preset, no trace sink).
    pub offloaded_batches: u64,
    /// Jobs handed to workers: one per *distinct first dispatch* among a
    /// batch's state groups (groups congruent to an earlier one are
    /// served by its recording and never sent).
    pub jobs: u64,
    /// Events the workers executed.
    pub worker_events: u64,
    /// VM instructions the workers executed.
    pub worker_instructions: u64,
    /// Worker chains abandoned past the worker instruction cap; the merge
    /// thread executes the rest serially. Counted, never silent.
    pub worker_aborts: u64,
    /// Summed busy time across all workers.
    pub worker_busy: Duration,
    /// Dispatch recordings workers produced and handed to the merge
    /// thread.
    pub shard_recorded: u64,
    /// Dispatches the merge thread satisfied by applying a worker
    /// recording instead of executing.
    pub shard_applied: u64,
    /// Dispatches in offloaded batches the merge thread had to execute
    /// serially (no congruent recording — minted symbols,
    /// cross-group traffic, or an aborted worker chain).
    pub shard_fallback: u64,
    /// Worker chains cut at a dispatch whose memo key
    /// somebody else had already claimed in the batch — another job's
    /// first dispatch, or a later one some worker reached first
    /// (hash-level advisory; the merge thread still confirms congruence
    /// before applying anything).
    pub shard_skips: u64,
    /// Worker dispatch chains cut short because a dispatch minted (or
    /// would mint) fresh symbolic variables — their ids would not match
    /// the serial mint order — or overran the instruction cap.
    pub shard_tainted: u64,
    /// Merge-thread time in the serial commit (applying recordings and
    /// executing fallbacks).
    pub serial_wall: Duration,
    /// Merge-thread time snapshotting batches and enqueueing jobs.
    pub dispatch_wall: Duration,
    /// Merge-thread time blocked on the end-of-batch barrier.
    pub barrier_wall: Duration,
    /// Total wall time of the parallel run (denominator for
    /// [`ParallelStats::utilization`]).
    pub run_wall: Duration,
}

impl ParallelStats {
    /// Fraction of the worker pool's capacity that was busy, in `0.0..=1.0`:
    /// `worker_busy / (workers × run_wall)`.
    pub fn utilization(&self) -> f64 {
        let capacity = self.run_wall.as_secs_f64() * self.workers as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        (self.worker_busy.as_secs_f64() / capacity).min(1.0)
    }

    /// One-line human summary for bench output.
    pub fn summary(&self) -> String {
        format!(
            "workers={} batches={} offloaded={} jobs={} worker_events={} aborts={} \
             recorded={} applied={} fallback={} skips={} tainted={} \
             util={:.0}% serial={:.1?} dispatch={:.1?} barrier={:.1?}",
            self.workers,
            self.batches,
            self.offloaded_batches,
            self.jobs,
            self.worker_events,
            self.worker_aborts,
            self.shard_recorded,
            self.shard_applied,
            self.shard_fallback,
            self.shard_skips,
            self.shard_tainted,
            self.utilization() * 100.0,
            self.serial_wall,
            self.dispatch_wall,
            self.barrier_wall,
        )
    }
}

/// Counters of the online duplicate-dispatch detector (DESIGN.md §10).
/// All zero when dedup is off (or under a replay preset, which forces it
/// off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Dispatches whose memo key hit the digest index (hash-level
    /// candidates, before structural confirmation).
    pub candidates: u64,
    /// Candidates that passed exact structural confirmation and were
    /// replayed instead of executed.
    pub confirmed: u64,
    /// Candidates that failed confirmation — a digest collision between
    /// structurally different configurations. These execute normally;
    /// a collision can never merge distinct states.
    pub collisions: u64,
    /// States materialized by replay rather than execution (each
    /// confirmed replay contributes its whole dispatch family: the
    /// dispatched state plus everything it forked).
    pub pruned_states: u64,
    /// VM instructions the replays avoided (the recorded execution's
    /// instruction count, banked once per replay).
    pub saved_instructions: u64,
}

impl DedupStats {
    /// One-line human summary for bench output.
    pub fn summary(&self) -> String {
        format!(
            "candidates={} confirmed={} collisions={} pruned_states={} saved_instructions={}",
            self.candidates,
            self.confirmed,
            self.collisions,
            self.pruned_states,
            self.saved_instructions
        )
    }
}

/// A bug discovered during a run, with its provenance.
#[derive(Debug, Clone)]
pub struct BugFound {
    /// The node whose program hit the bug.
    pub node: sde_net::NodeId,
    /// The state that hit it.
    pub state: crate::state::StateId,
    /// The VM-level report (kind, location, witness model).
    pub report: sde_vm::BugReport,
}

impl fmt::Display for BugFound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}] {}", self.node, self.state, self.report)
    }
}

/// Everything a completed run reports — the row of Table I plus the
/// curves of Figure 10.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Algorithm name ("COB", "COW", "SDS").
    pub algorithm: &'static str,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Virtual time reached.
    pub virtual_ms: u64,
    /// Execution states created in total (the paper's "States" column).
    pub total_states: usize,
    /// States alive at the end.
    pub live_states: usize,
    /// Final memory estimate in bytes (the paper's "RAM" column).
    pub final_bytes: usize,
    /// Peak memory estimate in bytes.
    pub peak_bytes: usize,
    /// The mapper's own tables at the end of the run
    /// ([`StateMapper::approx_bytes`](crate::mapping::StateMapper::approx_bytes)):
    /// bookkeeping *about* states, reported beside — never inside —
    /// [`RunReport::final_bytes`] / [`RunReport::peak_bytes`], which keep
    /// meaning the paper's RAM column. 0 for a mapper that does not
    /// account for itself.
    pub mapper_bytes: usize,
    /// Total VM instructions executed.
    pub instructions: u64,
    /// Events processed.
    pub events: u64,
    /// Packets transmitted.
    pub packets: u64,
    /// `true` when the state cap aborted the run (the paper aborted COB
    /// on the 100-node scenario at the machine's memory limit).
    pub aborted: bool,
    /// dscenarios/dstates represented at the end.
    pub groups: usize,
    /// Mapper work counters.
    pub mapper: crate::mapping::MapperStats,
    /// Constraint-solver work counters (queries, cache hits, search
    /// nodes).
    pub solver: sde_symbolic::SolverStats,
    /// States whose configuration digest collides with another live
    /// state's — the duplicate count the paper's §III-D theorem says must
    /// be zero for SDS.
    pub duplicate_states: usize,
    /// The subset of [`RunReport::duplicate_states`] that had already
    /// terminated by the end of the run (duplicates among mid-run-dead
    /// states — work that dedup could have replayed).
    pub duplicate_terminated: usize,
    /// Duplicate counts attributed to the node whose states collided,
    /// sorted by node id. Sums to [`RunReport::duplicate_states`].
    pub duplicates_by_node: Vec<(u16, usize)>,
    /// Distinct states that actually entered handler execution. With
    /// dedup off this counts every state that ran; with dedup on,
    /// replayed duplicates never execute, so the gap to
    /// [`RunReport::total_states`] is the pruning payoff.
    pub states_executed: usize,
    /// Duplicate-dispatch detector counters (all zero with dedup off).
    pub dedup: DedupStats,
    /// Bugs found (deduplicated by kind/location).
    pub bugs: Vec<BugFound>,
    /// Order-independent digest of the final state set (every resident
    /// state's configuration digest, combined in
    /// [`StateId`](crate::state::StateId) order). Two runs that explored the same
    /// state space report the same digest.
    pub history_digest: u64,
    /// The Fig. 10 curves.
    pub series: TimeSeries,
    /// Present when the run used
    /// [`Engine::run_sharded`](crate::Engine::run_sharded); `None` for
    /// sequential runs.
    pub parallel: Option<ParallelStats>,
    /// Always-on trace counters: forks by reason, dispatches by kind and
    /// packet fates. Collected whether or not a [`sde_trace::TraceSink`]
    /// is attached.
    pub trace: sde_trace::TraceSummary,
}

impl RunReport {
    /// Formats the Table I row: algorithm, wall time, states, memory of
    /// the states and of the mapper's tables.
    pub fn table_row(&self) -> String {
        format!(
            "{:<4} | {:>12} | {:>10} | {:>12} | {:>13} | {}",
            self.algorithm,
            format!("{:.2?}", self.wall),
            self.total_states,
            human_bytes(self.final_bytes),
            human_bytes(self.mapper_bytes),
            if self.aborted { "(aborted)" } else { "" }
        )
    }

    /// Everything in the report that a correct execution strategy must
    /// reproduce exactly, serialized to one comparable string.
    ///
    /// Excluded on purpose: wall-clock times (machine-dependent), solver
    /// counters (a sharded run's workers answer part of the queries on
    /// solvers of their own), [`RunReport::parallel`] (absent from
    /// sequential runs), [`RunReport::mapper_bytes`] (an estimate of the
    /// mapper's representation, not of what it represents — covered by the
    /// group and counter fields), and [`RunReport::states_executed`] /
    /// [`RunReport::dedup`] (a dedup run resumed from a snapshot starts
    /// with a cold memo index, so it legitimately executes more states
    /// than the uninterrupted run while producing the same results).
    /// Everything else — state counts, events, packets, instruction
    /// counts, per-sample series rows, bug provenance, the final-state
    /// digest — must be bit-identical between [`run`](crate::run) and
    /// [`Engine::run_sharded`](crate::Engine::run_sharded) at any worker
    /// count.
    pub fn equivalence_key(&self) -> String {
        use std::fmt::Write as _;
        let mut key = String::new();
        let _ = writeln!(
            key,
            "algorithm={} virtual_ms={} total={} live={} final_bytes={} peak_bytes={} \
             instructions={} events={} packets={} aborted={} groups={} duplicates={} \
             dup_terminated={} dup_by_node={:?} history_digest={:#018x}",
            self.algorithm,
            self.virtual_ms,
            self.total_states,
            self.live_states,
            self.final_bytes,
            self.peak_bytes,
            self.instructions,
            self.events,
            self.packets,
            self.aborted,
            self.groups,
            self.duplicate_states,
            self.duplicate_terminated,
            self.duplicates_by_node,
            self.history_digest,
        );
        let _ = writeln!(
            key,
            "mapper: branches={} sends={} forks={} virtual={}",
            self.mapper.branches_seen,
            self.mapper.sends_mapped,
            self.mapper.mapper_forks,
            self.mapper.virtual_forks
        );
        for bug in &self.bugs {
            let _ = writeln!(key, "bug: {bug}");
        }
        for s in self.series.samples() {
            // wall_ms deliberately omitted.
            let _ = writeln!(
                key,
                "sample: v={} live={} total={} bytes={} groups={}",
                s.virtual_ms, s.live_states, s.total_states, s.bytes, s.groups
            );
        }
        // Wall times are excluded by construction.
        let trace = self.trace.deterministic_key(self.packets, self.bugs.len());
        let _ = writeln!(key, "trace: {trace}");
        key
    }
}

/// Human-readable byte count.
pub fn human_bytes(b: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = b as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{b} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_and_peaks() {
        let mut ts = TimeSeries::new();
        assert_eq!(ts.peak_bytes(), 0);
        ts.push(Sample {
            wall_ms: 0,
            virtual_ms: 0,
            live_states: 3,
            total_states: 3,
            bytes: 100,
            groups: 1,
        });
        ts.push(Sample {
            wall_ms: 5,
            virtual_ms: 1000,
            live_states: 7,
            total_states: 9,
            bytes: 900,
            groups: 2,
        });
        ts.push(Sample {
            wall_ms: 9,
            virtual_ms: 2000,
            live_states: 6,
            total_states: 11,
            bytes: 700,
            groups: 2,
        });
        assert_eq!(ts.peak_bytes(), 900);
        let csv = ts.to_csv();
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.starts_with("wall_ms,"));
        assert!(csv.contains("5,1000,7,9,900,2"));
    }

    #[test]
    fn human_bytes_formatting() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0 MiB");
        assert_eq!(human_bytes(5_368_709_120), "5.0 GiB");
    }
}
