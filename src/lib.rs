//! # SDE — Scalable Symbolic Execution of Distributed Systems
//!
//! A from-scratch Rust reproduction of *"Scalable Symbolic Execution of
//! Distributed Systems"* (Sasnauskas et al., ICDCS 2011): symbolic
//! execution lifted to networks of communicating programs, with the
//! paper's three **state mapping algorithms** — COB, COW and SDS — and
//! every substrate they need (constraint solver, symbolic VM, network
//! simulation, Contiki-like node OS).
//!
//! This facade crate re-exports the whole workspace; depend on it for
//! everything, or on the individual `sde-*` crates for a subset.
//!
//! ## Quick start
//!
//! ```
//! use sde::prelude::*;
//!
//! // The paper's evaluation workload on a 3×3 grid with symbolic packet
//! // drops, run under all three state mapping algorithms.
//! let topology = Topology::grid(3, 3);
//! let cfg = CollectConfig::paper_grid(3, 3);
//! let failures = FailureConfig::new()
//!     .drops_on_route_and_neighbors(&topology, cfg.source, cfg.sink, 1);
//! let programs = sde::os::apps::collect::programs(&topology, &cfg);
//! let scenario = Scenario::new(topology, programs)
//!     .with_failures(failures)
//!     .with_duration_ms(3000);
//!
//! let sds = run(&scenario, Algorithm::Sds);
//! let cow = run(&scenario, Algorithm::Cow);
//! assert!(sds.total_states <= cow.total_states, "SDS never does worse");
//! assert_eq!(sds.duplicate_states, 0, "the §III-D non-duplication theorem");
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |-------|------|
//! | [`trace`] | structured event tracing (sinks, exporters, lineage) |
//! | [`pds`] | persistent data structures (O(1)-clone states) |
//! | [`symbolic`] | expressions, path conditions, bounded solver |
//! | [`vm`] | symbolic bytecode VM (the KLEE substitute) |
//! | [`net`] | topologies, packets, event queue, failure configs |
//! | [`os`] | Contiki/Rime-like node runtime and applications |
//! | [`core`] | SDE engine + COB/COW/SDS + test generation + §III-E model |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sde_core as core;
pub use sde_net as net;
pub use sde_os as os;
pub use sde_pds as pds;
pub use sde_symbolic as symbolic;
pub use sde_trace as trace;
pub use sde_vm as vm;

/// The names almost every user needs.
pub mod prelude {
    pub use sde_core::{
        run, Algorithm, Budget, Checker, Engine, EngineSnapshot, MinimizeReport, Minimizer,
        NodeView, ParallelStats, RunOutcome, RunReport, Scenario, SdeState, SnapshotError, StateId,
        TimeSeries, Violation,
    };
    pub use sde_net::{FailureConfig, FaultPlan, NodeId, Topology};
    pub use sde_os::apps::collect::CollectConfig;
    pub use sde_os::apps::flood::FloodConfig;
    pub use sde_os::apps::hello::HelloConfig;
    pub use sde_os::apps::pingpong::PingPongConfig;
    pub use sde_os::apps::sense::SenseConfig;
    pub use sde_os::apps::token::TokenConfig;
    pub use sde_symbolic::{Expr, Model, PathCondition, Solver, SymbolTable, Width};
    pub use sde_trace::{Lineage, RingSink, TraceEvent, TraceSink, TraceSummary};
    pub use sde_vm::{Program, ProgramBuilder, VmState};
}
