//! The five workloads and the seed → input mapping.
//!
//! The program under test receives only the generated [`Scenario`]; the
//! seed never reaches it. Every scenario pins the Table I harness
//! settings explicitly instead of inheriting library defaults.

use sde::os::apps::{collect, flood, sense};
use sde::prelude::*;

/// Statistics sample period of the Table I harness.
pub const SAMPLE_EVERY: u64 = 512;
/// Abort guard only: no workload comes near it, and an aborted run is a
/// failed check.
pub const STATE_CAP: usize = 1_000_000;

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Paper §IV-A: corner-to-corner collection on a `side × side` grid,
    /// one symbolic drop at every route node and route neighbour.
    Collect { side: u16, duration_ms: u64 },
    /// Paper §IV-C: flooding on a full mesh, two rounds, one symbolic drop
    /// per node.
    Flood { nodes: u16 },
    /// Symbolic readings classified per hop on a `side × side` grid
    /// (`SenseConfig::paper_grid`), no failure model.
    Sense { side: u16 },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layer it stresses and why it is here.
    pub why: &'static str,
    pub app: App,
    pub algorithm: Algorithm,
    /// `Some(w)`: explore through `Engine::run_sharded(w)`; `None`: serial.
    pub shards: Option<usize>,
    /// Run the dedup-on differential pass (a workload with duplicates
    /// worth pruning, and one without).
    pub dedup_pass: bool,
    /// Run the checkpoint driver (pause at half the events, snapshot,
    /// encode, decode, resume).
    pub checkpoint_pass: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "collect8_sds",
        why: "collect 8x8 grid, 6000 virtual ms, SDS: mapping-bound, per-send cost grows with dstate count; the affordable proxy for SDS at 100 nodes",
        app: App::Collect {
            side: 8,
            duration_ms: 6_000,
        },
        algorithm: Algorithm::Sds,
        shards: None,
        dedup_pass: false,
        checkpoint_pass: false,
    },
    Workload {
        name: "collect7_cow",
        why: "collect 7x7 grid (Fig. 10's 49-node point), 7000 virtual ms, COW: state store, fork and sampler bound; a mapper change must show nothing here",
        app: App::Collect {
            side: 7,
            duration_ms: 7_000,
        },
        algorithm: Algorithm::Cow,
        shards: None,
        dedup_pass: true,
        checkpoint_pass: true,
    },
    Workload {
        name: "flood10_sds",
        why: "flood on a 10-node full mesh, SDS: every send conflicts and nobody is a bystander; VM, event-queue and delivery bound",
        app: App::Flood { nodes: 10 },
        algorithm: Algorithm::Sds,
        shards: None,
        dedup_pass: true,
        checkpoint_pass: false,
    },
    Workload {
        name: "sense4_cob",
        why: "sense 4x4 grid, COB: solver-bound (symbolic readings classified per hop) plus COB's on_branch fork storm; mapper sends are idle",
        app: App::Sense { side: 4 },
        algorithm: Algorithm::Cob,
        shards: None,
        dedup_pass: false,
        checkpoint_pass: false,
    },
    Workload {
        name: "sense4_cob_shard2",
        why: "the sense4_cob scenario through run_sharded(2): the only place the shard record/merge layer runs; report must equal the serial one",
        app: App::Sense { side: 4 },
        algorithm: Algorithm::Cob,
        shards: Some(2),
        dedup_pass: false,
        checkpoint_pass: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The serial workload a sharded one must reproduce bit for bit.
pub fn serial_twin(w: &Workload) -> Option<&'static Workload> {
    w.shards?;
    WORKLOADS
        .iter()
        .find(|s| s.shards.is_none() && s.app == w.app && s.algorithm == w.algorithm)
}

/// `(source, sink)`: one of the four ordered diagonal corner pairs of a
/// `side × side` grid. Seed 0 is the paper's layout (source = last node,
/// sink = node 0). The four are images of each other under the grid's
/// symmetries, and on the collect workloads they explore identically
/// sized state spaces (same states, same modelled bytes) — so the seed
/// changes the input without changing the amount of work.
pub fn corner_pair(side: u16, seed: u64) -> (NodeId, NodeId) {
    let last = side * side - 1;
    let top_right = side - 1;
    let bottom_left = side * (side - 1);
    match seed % 4 {
        0 => (NodeId(last), NodeId(0)),
        1 => (NodeId(0), NodeId(last)),
        2 => (NodeId(top_right), NodeId(bottom_left)),
        _ => (NodeId(bottom_left), NodeId(top_right)),
    }
}

/// The flood initiator: any node of the mesh, by symmetry.
pub fn flood_initiator(nodes: u16, seed: u64) -> NodeId {
    NodeId((seed % u64::from(nodes)) as u16)
}

/// The sense sampling period. On sense the four corner pairs are *not*
/// equivalent (classification hashes are keyed by node id, and COB copies
/// whatever timers happen to be pending: serial wall differs by 25 %
/// between pairs), so a layout seed would move `wall_s` by its whole bound. The seed
/// moves the sampling period instead — every virtual timestamp changes,
/// the explored tree does not. Seed 0 is `SenseConfig::paper_grid`'s
/// 1000 ms.
pub fn sense_interval_ms(seed: u64) -> u64 {
    1000 + 10 * (seed % 16)
}

/// Builds the scenario for `w` from `seed`.
pub fn scenario(w: &Workload, seed: u64) -> Scenario {
    let scenario = match w.app {
        App::Collect { side, duration_ms } => {
            let packets = CollectConfig::paper_grid(side, side).packet_count;
            collect_scenario(side, seed, packets, duration_ms)
        }
        App::Flood { nodes } => {
            let topology = Topology::full_mesh(nodes);
            let cfg = FloodConfig {
                initiator: flood_initiator(nodes, seed),
                rounds: 2,
                interval_ms: 1000,
            };
            let failures = FailureConfig::new().with_drops(topology.nodes(), 1);
            let programs = flood::programs(&topology, &cfg);
            Scenario::new(topology, programs)
                .with_failures(failures)
                .with_duration_ms(4_000)
        }
        App::Sense { side } => {
            let topology = Topology::grid(side, side);
            let cfg = SenseConfig {
                interval_ms: sense_interval_ms(seed),
                ..SenseConfig::paper_grid(side, side)
            };
            let duration = cfg.interval_ms * (u64::from(cfg.packet_count) + 2);
            let programs = sense::programs(&topology, &cfg);
            Scenario::new(topology, programs).with_duration_ms(duration)
        }
    };
    scenario
        .with_sample_every(SAMPLE_EVERY)
        .with_state_cap(STATE_CAP)
}

/// Paper §IV-A on a `side × side` grid: corner-to-corner collection,
/// one symbolic drop at every route node and route neighbour.
fn collect_scenario(side: u16, seed: u64, packet_count: u16, duration_ms: u64) -> Scenario {
    let topology = Topology::grid(side, side);
    let (source, sink) = corner_pair(side, seed);
    let cfg = CollectConfig {
        source,
        sink,
        packet_count,
        ..CollectConfig::paper_grid(side, side)
    };
    let failures = FailureConfig::new().drops_on_route_and_neighbors(&topology, source, sink, 1);
    let programs = collect::programs(&topology, &cfg);
    Scenario::new(topology, programs)
        .with_failures(failures)
        .with_duration_ms(duration_ms)
}

/// The reference scenario of the mapper-independent oracle check: the
/// collect app on a 2×2 grid, two packets, small enough that every
/// concrete input can be enumerated.
pub fn oracle_scenario(seed: u64) -> Scenario {
    collect_scenario(2, seed, 2, 4_000).with_history_tracking(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_paper_layout() {
        for side in [2u16, 7, 8] {
            let paper = CollectConfig::paper_grid(side, side);
            assert_eq!(corner_pair(side, 0), (paper.source, paper.sink));
        }
        assert_eq!(flood_initiator(10, 0), NodeId(0));
        assert_eq!(
            sense_interval_ms(0),
            SenseConfig::paper_grid(4, 4).interval_ms
        );
    }

    #[test]
    fn seeds_walk_the_four_diagonal_corner_pairs() {
        let pairs: Vec<_> = (0..4).map(|s| corner_pair(8, s)).collect();
        assert_eq!(
            pairs,
            [
                (NodeId(63), NodeId(0)),
                (NodeId(0), NodeId(63)),
                (NodeId(7), NodeId(56)),
                (NodeId(56), NodeId(7)),
            ]
        );
        assert_eq!(corner_pair(8, 6), corner_pair(8, 2), "seed % 4");
        assert_eq!(flood_initiator(10, 25), NodeId(5), "seed % 10");
        assert_eq!(sense_interval_ms(17), 1010, "seed % 16");
    }

    #[test]
    fn scenarios_pin_the_harness_settings_and_follow_the_seed() {
        for w in &WORKLOADS {
            let a = scenario(w, 3);
            let b = scenario(w, 3);
            assert_eq!(a.sample_every, SAMPLE_EVERY);
            assert_eq!(a.state_cap, STATE_CAP);
            assert_eq!(a.duration_ms, b.duration_ms);
            assert_eq!(a.node_count(), b.node_count());
        }
        let sense = find("sense4_cob").unwrap();
        assert_eq!(scenario(sense, 0).duration_ms, 4_000);
        assert_eq!(scenario(sense, 5).duration_ms, 4_200);
    }

    #[test]
    fn the_sharded_workload_has_a_serial_twin() {
        let shard = find("sense4_cob_shard2").unwrap();
        assert_eq!(serial_twin(shard).unwrap().name, "sense4_cob");
        assert!(serial_twin(find("sense4_cob").unwrap()).is_none());
    }
}
