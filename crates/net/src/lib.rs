//! Network substrate for symbolic distributed execution.
//!
//! KleeNet simulates the whole sensor network inside one process: nodes,
//! links, a virtual clock and an event queue. This crate provides those
//! pieces, independent of both the VM and the state-mapping algorithms:
//!
//! * [`NodeId`] and [`Topology`] — who exists and who can hear whom
//!   (grids, lines, rings, full meshes, arbitrary edge lists), plus
//!   BFS-based static routing ([`Topology::next_hop`]) mirroring the
//!   preconfigured data paths of the paper's evaluation scenarios.
//! * [`Packet`] — a unicast transmission carrying possibly-symbolic
//!   payload words. Broadcasts are modeled as a series of unicasts
//!   (paper, footnote 1).
//! * [`EventQueue`] — a deterministic virtual-time priority queue
//!   (FIFO among simultaneous events).
//! * [`FailureConfig`] — which nodes inject which symbolic failures, and
//!   how often, as in the paper's test setup where "nodes on the data
//!   path towards the destination and their neighbors should symbolically
//!   drop one packet". One table holds all seven [`FailureKind`]s: the
//!   paper's packet drop, duplication and node reboot, plus network
//!   partitions with (symbolic) heal times, symbolic link latency,
//!   payload corruption, and crash-recovery with a persistent heap
//!   window.
//!
//! # Examples
//!
//! ```
//! use sde_net::{NodeId, Topology};
//!
//! let grid = Topology::grid(5, 5);
//! let source = NodeId(24); // bottom-right corner
//! let sink = NodeId(0);    // top-left corner
//! let hop = grid.next_hop(source, sink).unwrap();
//! assert!(grid.are_neighbors(source, hop));
//! assert_eq!(grid.route(source, sink).unwrap().len(), 9); // 8 hops
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod failure;
mod packet;
mod topology;

pub use event::{Event, EventQueue};
pub use failure::{FailureConfig, FailureKind};
pub use packet::{Packet, PacketId};
pub use topology::{NodeId, Topology};
