//! Helpers shared by the integration suites: the scenario builders, the
//! seeded and proptest scenario generators, and the strategy matrix every
//! equivalence suite declares its cells in ([`matrix`]).
//!
//! Each suite pulls this in with `mod common;`; what a suite does not use
//! is dead code in that test binary, hence the `allow`.

#![allow(dead_code)]

pub mod matrix;
pub mod random;
pub mod seeded;

use sde::prelude::*;

/// The paper's original three failure models, in canonical order.
pub const FAILURE_MODELS: [&str; 3] = ["drop", "duplicate", "reboot"];

/// Builds the named classic failure model with budget 1 on `victims`.
/// The extended fault axes (partition / latency / corrupt / crashrec,
/// DESIGN.md §11) come from `sde_bench::with_fault_axes`, the one builder
/// the bins use too.
///
/// # Panics
///
/// Panics on an unknown model name — a typo must fail loudly, not run a
/// silently failure-free scenario.
pub fn failure_model(name: &str, victims: &[NodeId]) -> FailureConfig {
    let victims = victims.iter().copied();
    match name {
        "drop" => FailureConfig::new().with_drops(victims, 1),
        "duplicate" => FailureConfig::new().with_duplicates(victims, 1),
        "reboot" => FailureConfig::new().with_reboots(victims, 1),
        other => panic!("unknown failure model {other:?} (expected drop|duplicate|reboot)"),
    }
}

/// Collect from the far node to node 0: `packets` packets a second
/// apart, run until 2 s after the last; no failures, capped at 60 000
/// states.
pub fn collect(topology: Topology, packets: u16) -> Scenario {
    let k = topology.len() as u16;
    let cfg = CollectConfig {
        source: NodeId(k - 1),
        sink: NodeId(0),
        interval_ms: 1000,
        packet_count: packets,
        strict_sink: false,
    };
    let programs = sde::os::apps::collect::programs(&topology, &cfg);
    Scenario::new(topology, programs)
        .with_duration_ms(1000 * u64::from(packets) + 2000)
        .with_history_tracking(true)
        .with_state_cap(60_000)
}

/// Collect on a line with drops at the given nodes.
pub fn line_collect(k: u16, drop_nodes: &[u16], packets: u16, strict: bool) -> Scenario {
    let topology = Topology::line(k);
    let cfg = CollectConfig {
        source: NodeId(k - 1),
        sink: NodeId(0),
        interval_ms: 1000,
        packet_count: packets,
        strict_sink: strict,
    };
    let failures = FailureConfig::new().with_drops(drop_nodes.iter().map(|n| NodeId(*n)), 1);
    let programs = sde::os::apps::collect::programs(&topology, &cfg);
    Scenario::new(topology, programs)
        .with_failures(failures)
        .with_duration_ms(1000 * u64::from(packets) + 2000)
        .with_history_tracking(true)
}

/// The paper's collect workload on a `w × h` grid with symbolic drops on
/// the route and its neighbors.
pub fn grid_collect(w: u16, h: u16, duration_ms: u64, strict: bool) -> Scenario {
    let topology = Topology::grid(w, h);
    let cfg = CollectConfig {
        strict_sink: strict,
        ..CollectConfig::paper_grid(w, h)
    };
    let failures =
        FailureConfig::new().drops_on_route_and_neighbors(&topology, cfg.source, cfg.sink, 1);
    let programs = sde::os::apps::collect::programs(&topology, &cfg);
    Scenario::new(topology, programs)
        .with_failures(failures)
        .with_duration_ms(duration_ms)
        .with_history_tracking(true)
}

/// Flooding on a full mesh with drops everywhere.
pub fn mesh_flood(k: u16, rounds: u16) -> Scenario {
    let topology = Topology::full_mesh(k);
    let cfg = FloodConfig {
        initiator: NodeId(0),
        rounds,
        interval_ms: 1000,
    };
    let failures = FailureConfig::new().with_drops(topology.nodes(), 1);
    let programs = sde::os::apps::flood::programs(&topology, &cfg);
    Scenario::new(topology, programs)
        .with_failures(failures)
        .with_duration_ms(1000 * u64::from(rounds) + 2000)
        .with_history_tracking(true)
}

/// Neighbor discovery on a ring (no failures: exercises the pure
/// communication path).
pub fn ring_hello(k: u16) -> Scenario {
    let topology = Topology::ring(k);
    let programs = sde::os::apps::hello::programs(&topology, &HelloConfig::default());
    Scenario::new(topology, programs)
        .with_duration_ms(2000)
        .with_history_tracking(true)
}
