//! Symbolic distributed execution (SDE): the paper's contribution.
//!
//! This crate lifts single-program symbolic execution (`sde-vm`) to a
//! network of `k` communicating programs and implements the paper's three
//! state mapping algorithms:
//!
//! | Algorithm | Idea | Cost |
//! |-----------|------|------|
//! | [`Algorithm::Cob`] | one state per node per dscenario; fork everyone on every local branch | exponential duplicates |
//! | [`Algorithm::Cow`] | conflict-free dstates; fork only on conflicting sends | duplicates all bystanders per mapping |
//! | [`Algorithm::Sds`] | virtual states share bystanders across dstates | zero duplicates (§III-D) |
//!
//! The [`Engine`] reproduces KleeNet's execution model (one process,
//! virtual-time event queue, run-to-completion handlers, failure models
//! forking at delivery); [`testgen`] turns final states back into
//! concrete per-node test cases, including the §IV-C "explosion" of the
//! compact SDS representation; [`complexity`] evaluates the §III-E
//! worst-case bounds exactly.
//!
//! # Examples
//!
//! ```
//! use sde_core::{run, Algorithm, Scenario};
//! use sde_net::{FailureConfig, NodeId, Topology};
//! use sde_os::apps::collect::{self, CollectConfig};
//!
//! // A small version of the paper's evaluation scenario.
//! let topology = Topology::grid(3, 3);
//! let cfg = CollectConfig::paper_grid(3, 3);
//! let failures = FailureConfig::new()
//!     .drops_on_route_and_neighbors(&topology, cfg.source, cfg.sink, 1);
//! let scenario = Scenario::new(topology, collect::programs(&Topology::grid(3, 3), &cfg))
//!     .with_failures(failures)
//!     .with_duration_ms(3000);
//!
//! let sds = run(&scenario, Algorithm::Sds);
//! let cow = run(&scenario, Algorithm::Cow);
//! assert!(sds.total_states <= cow.total_states);
//! assert_eq!(sds.duplicate_states, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bignum;
pub mod check;
mod checkpoint;
pub mod complexity;
mod dedup;
mod engine;
mod history;
pub mod mapping;
pub mod minimize;
pub mod oracle;
mod scenario;
mod state;
mod stats;
#[doc(hidden)]
pub mod store;
pub mod testgen;

pub use bignum::BigUint;
pub use check::{Checker, NodeView, Violation};
pub use checkpoint::{Budget, EngineSnapshot, RunOutcome, SnapshotError, SNAPSHOT_VERSION};
pub use engine::{run, Engine, NodeEvent};
pub use history::{CommHistory, HistoryEvent};
pub use mapping::{Algorithm, Delivery, MapperSnapshot, MapperStats, StateMapper, StateStore};
pub use minimize::{MinimizeReport, Minimizer};
pub use scenario::Scenario;
pub use state::{SdeState, StateCore, StateId};
pub use stats::{human_bytes, BugFound, DedupStats, ParallelStats, RunReport, Sample, TimeSeries};

/// Structured tracing re-export: sinks, events and the summary type that
/// [`RunReport::trace`] carries. Attach a recorder with
/// [`Engine::with_trace_sink`].
pub use sde_trace as trace;
pub use sde_trace::{RingSink, TraceEvent, TraceSink, TraceSummary};
