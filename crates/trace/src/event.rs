//! The trace event model.
//!
//! One [`TraceEvent`] is emitted per observable decision the engine, the
//! state mappers, the solver and the network layer make during a run.
//! Events carry only plain integers (state ids, node ids, packet ids) so
//! the recording crate stays a dependency-free leaf of the workspace.

/// Why a state fork happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForkReason {
    /// The VM branched on a symbolic condition inside a handler.
    Branch,
    /// A state mapper forked a peer / bystander to keep dscenarios
    /// consistent (COB on branch; COW/SDS on conflicting transmission).
    Mapping,
    /// Failure model: symbolic packet drop decided at delivery.
    Drop,
    /// Failure model: symbolic packet duplication decided at delivery.
    Duplicate,
    /// Failure model: symbolic node reboot decided at delivery.
    Reboot,
    /// Fault plan: symbolic extra delivery latency decided at
    /// transmission.
    Latency,
    /// Fault plan: symbolic payload corruption decided at delivery.
    Corrupt,
    /// Fault plan: symbolic crash-with-recovery decided at delivery
    /// (persistent window survives).
    Crash,
    /// Fault plan: symbolic partition activation decided at the first
    /// cut-crossing delivery.
    Partition,
    /// Fault plan: symbolic choice between candidate partition heal
    /// times (nested under a partition fork).
    Heal,
}

impl ForkReason {
    /// Stable lowercase name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            ForkReason::Branch => "branch",
            ForkReason::Mapping => "mapping",
            ForkReason::Drop => "drop",
            ForkReason::Duplicate => "duplicate",
            ForkReason::Reboot => "reboot",
            ForkReason::Latency => "latency",
            ForkReason::Corrupt => "corrupt",
            ForkReason::Crash => "crash",
            ForkReason::Partition => "partition",
            ForkReason::Heal => "heal",
        }
    }

    /// Inverse of [`ForkReason::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "branch" => ForkReason::Branch,
            "mapping" => ForkReason::Mapping,
            "drop" => ForkReason::Drop,
            "duplicate" => ForkReason::Duplicate,
            "reboot" => ForkReason::Reboot,
            "latency" => ForkReason::Latency,
            "corrupt" => ForkReason::Corrupt,
            "crash" => ForkReason::Crash,
            "partition" => ForkReason::Partition,
            "heal" => ForkReason::Heal,
            _ => return None,
        })
    }

    /// All reasons, in encoding order.
    pub const ALL: [ForkReason; 10] = [
        ForkReason::Branch,
        ForkReason::Mapping,
        ForkReason::Drop,
        ForkReason::Duplicate,
        ForkReason::Reboot,
        ForkReason::Latency,
        ForkReason::Corrupt,
        ForkReason::Crash,
        ForkReason::Partition,
        ForkReason::Heal,
    ];
}

/// What kind of event the engine popped from the virtual-time queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchKind {
    /// Initial node boot.
    Boot,
    /// Timer expiry.
    Timer,
    /// Packet delivery.
    Deliver,
}

impl DispatchKind {
    /// Stable lowercase name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            DispatchKind::Boot => "boot",
            DispatchKind::Timer => "timer",
            DispatchKind::Deliver => "deliver",
        }
    }

    /// Inverse of [`DispatchKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "boot" => DispatchKind::Boot,
            "timer" => DispatchKind::Timer,
            "deliver" => DispatchKind::Deliver,
            _ => return None,
        })
    }
}

/// Which layer of the solver stack answered a *whole query*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryLayer {
    /// Answered during simplification / constant folding (a trivially
    /// false constraint, or no symbolic work left after folding).
    Fold,
    /// Answered entirely from the exact cache (whole-query hit, or every
    /// independence group hit its per-group cache line).
    Exact,
    /// At least one independence group needed layers below the exact
    /// cache (counterexample reuse, unsat cores, or a full solve).
    Solve,
}

impl QueryLayer {
    /// Stable lowercase name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryLayer::Fold => "fold",
            QueryLayer::Exact => "exact",
            QueryLayer::Solve => "solve",
        }
    }

    /// Inverse of [`QueryLayer::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "fold" => QueryLayer::Fold,
            "exact" => QueryLayer::Exact,
            "solve" => QueryLayer::Solve,
            _ => return None,
        })
    }
}

/// Which layer answered one independence *group* of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupLayer {
    /// Per-group exact cache hit.
    Exact,
    /// Counterexample cache: a cached model satisfied the group.
    Reuse,
    /// Counterexample cache: a cached UNSAT core implied the group UNSAT.
    Ucore,
    /// Interval refinement + bounded DFS (a real solve).
    Solve,
}

impl GroupLayer {
    /// Stable lowercase name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            GroupLayer::Exact => "exact",
            GroupLayer::Reuse => "reuse",
            GroupLayer::Ucore => "ucore",
            GroupLayer::Solve => "solve",
        }
    }

    /// Inverse of [`GroupLayer::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "exact" => GroupLayer::Exact,
            "reuse" => GroupLayer::Reuse,
            "ucore" => GroupLayer::Ucore,
            "solve" => GroupLayer::Solve,
            _ => return None,
        })
    }
}

/// Solver verdict for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Satisfiable.
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// Budget exhausted.
    Unknown,
}

impl Verdict {
    /// Stable lowercase name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Sat => "sat",
            Verdict::Unsat => "unsat",
            Verdict::Unknown => "unknown",
        }
    }

    /// Inverse of [`Verdict::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "sat" => Verdict::Sat,
            "unsat" => Verdict::Unsat,
            "unknown" => Verdict::Unknown,
            _ => return None,
        })
    }
}

/// One structured trace event.
///
/// Field order here is the key order of the JSONL encoding; the
/// `tests/docs_consistency.rs` lint keeps the variant list in sync with
/// DESIGN.md §7.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An initial state booted on a node.
    Boot {
        /// State id.
        state: u64,
        /// Node the state lives on.
        node: u16,
    },
    /// An event was pushed onto the virtual-time queue (`sde-net`).
    QueuePush {
        /// Virtual time the event is scheduled at (ms).
        time: u64,
        /// Queue sequence number (total order within a timestamp).
        seq: u64,
    },
    /// The engine popped an event and ran the matching handler.
    Dispatch {
        /// Target state id.
        state: u64,
        /// Node the state lives on.
        node: u16,
        /// What kind of event was dispatched.
        kind: DispatchKind,
        /// Virtual time of the event (ms).
        time: u64,
    },
    /// A new execution state was created by forking `parent`.
    Fork {
        /// Parent state id.
        parent: u64,
        /// Child state id (always greater than every earlier id).
        child: u64,
        /// Node both states live on.
        node: u16,
        /// Why the fork happened.
        reason: ForkReason,
    },
    /// Mapping decision after a local branch: which peers the active
    /// mapper forked (COB forks every other node's state; COW/SDS none).
    MapBranch {
        /// State that branched.
        parent: u64,
        /// The branch sibling.
        child: u64,
        /// Node the branch happened on.
        node: u16,
        /// State ids the mapper forked in response (may be empty).
        forked: Vec<u64>,
    },
    /// Mapping decision for a transmission: which destination states
    /// receive the packet and which states the mapper forked to keep the
    /// represented dscenarios consistent.
    MapSend {
        /// Sending state id.
        state: u64,
        /// Sending node.
        node: u16,
        /// Destination node.
        dest: u16,
        /// Packet id.
        packet: u64,
        /// Destination-state ids the packet is delivered to.
        targets: Vec<u64>,
        /// State ids the mapper forked while mapping this send.
        forked: Vec<u64>,
        /// Mapper group count (dscenarios / dstates / super-dstates)
        /// after the send was mapped.
        groups: u64,
    },
    /// A packet left a sender (scheduled for delivery).
    Send {
        /// Sending state id.
        state: u64,
        /// Sending node.
        node: u16,
        /// Destination node.
        dest: u16,
        /// Packet id.
        packet: u64,
    },
    /// A packet was handed to a receiver's handler.
    Deliver {
        /// Receiving state id.
        state: u64,
        /// Receiving node.
        node: u16,
        /// Packet id.
        packet: u64,
        /// True when this is the duplicated copy of a packet (failure
        /// model `duplicate`).
        duplicate: bool,
    },
    /// A packet was dropped (failure-model drop branch).
    Drop {
        /// State in which the drop was observed.
        state: u64,
        /// Receiving node.
        node: u16,
        /// Packet id.
        packet: u64,
    },
    /// A packet was silently dropped because it crossed an *active*
    /// partition cut (fault plan): no handler ran, no fork happened.
    PartitionDrop {
        /// State in which the partition swallowed the delivery.
        state: u64,
        /// Receiving node.
        node: u16,
        /// Packet id.
        packet: u64,
        /// Virtual time (ms) at which this lineage's partition heals.
        until: u64,
    },
    /// The solver answered a feasibility query.
    Query {
        /// Which layer of the stack answered it.
        layer: QueryLayer,
        /// The verdict.
        verdict: Verdict,
        /// Number of independence groups the query split into (0 when the
        /// query was answered before partitioning, at the fold layer).
        groups: u64,
        /// Wall-clock duration in microseconds (0 with no timing; omitted
        /// from deterministic exports).
        dur_us: u64,
    },
    /// One independence group of a query was answered.
    QueryGroup {
        /// Which layer answered the group.
        layer: GroupLayer,
    },
    /// Duplicate-state detection pruned a redundant execution: `state`'s
    /// configuration (and incoming event) structurally duplicated a
    /// dispatch already executed on `survivor`, so the engine replayed
    /// the survivor's recorded effects instead of re-executing. The edge
    /// `state → survivor` is the dedup lineage (DESIGN.md §10).
    StatePruned {
        /// The state whose redundant execution was pruned.
        state: u64,
        /// Node the state lives on.
        node: u16,
        /// The state whose earlier congruent dispatch supplied the
        /// replayed effects.
        survivor: u64,
        /// Virtual time of the pruned dispatch (ms).
        time: u64,
    },
    /// A bug report was recorded: a VM safety check fired, a strict
    /// replay hit an unkeyed input, or an invariant of the checking
    /// layer (DESIGN.md §12) was violated on `state`.
    BugFound {
        /// The state that hit the bug.
        state: u64,
        /// Node the state lives on.
        node: u16,
        /// Virtual time of the detection (ms).
        time: u64,
        /// The `BugKind` rendered lowercase (e.g. "assertion failed",
        /// "invariant violated").
        kind: String,
    },
    /// One candidate evaluation of the counterexample minimizer: the
    /// ddmin loop replayed a shrunk witness and either kept it (the
    /// violation still reproduced) or discarded it.
    ShrinkStep {
        /// Monotone candidate index within one minimization.
        step: u64,
        /// The shrink move ("axis", "entry", "value", "horizon").
        axis: String,
        /// Witness entries remaining in the candidate.
        entries: u64,
        /// `true` when the candidate still reproduced the violation and
        /// became the new current witness.
        kept: bool,
    },
}

impl TraceEvent {
    /// The variant name (also the `"ev"` tag of the JSONL encoding).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Boot { .. } => "Boot",
            TraceEvent::QueuePush { .. } => "QueuePush",
            TraceEvent::Dispatch { .. } => "Dispatch",
            TraceEvent::Fork { .. } => "Fork",
            TraceEvent::MapBranch { .. } => "MapBranch",
            TraceEvent::MapSend { .. } => "MapSend",
            TraceEvent::Send { .. } => "Send",
            TraceEvent::Deliver { .. } => "Deliver",
            TraceEvent::Drop { .. } => "Drop",
            TraceEvent::PartitionDrop { .. } => "PartitionDrop",
            TraceEvent::Query { .. } => "Query",
            TraceEvent::QueryGroup { .. } => "QueryGroup",
            TraceEvent::StatePruned { .. } => "StatePruned",
            TraceEvent::BugFound { .. } => "BugFound",
            TraceEvent::ShrinkStep { .. } => "ShrinkStep",
        }
    }

    /// Every variant name, in declaration order (used by the DESIGN.md
    /// sync lint and the schema validator).
    pub const VARIANTS: [&'static str; 15] = [
        "Boot",
        "QueuePush",
        "Dispatch",
        "Fork",
        "MapBranch",
        "MapSend",
        "Send",
        "Deliver",
        "Drop",
        "PartitionDrop",
        "Query",
        "QueryGroup",
        "StatePruned",
        "BugFound",
        "ShrinkStep",
    ];
}

/// A recorded event plus its capture timestamp (microseconds since the
/// recorder was created). Deterministic exports drop the timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEvent {
    /// Microseconds since the recording sink was created.
    pub ts_us: u64,
    /// The event.
    pub ev: TraceEvent,
}
