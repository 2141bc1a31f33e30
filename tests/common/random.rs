//! Proptest scenarios: collect on a random topology with symbolic drops on
//! a random subset of nodes.

use proptest::prelude::*;
use sde::prelude::*;
use std::ops::Range;

/// One draw: topology kind (line, ring, 2-row grid, mesh of at most 4),
/// size, which nodes may drop, and how many packets the source sends.
#[derive(Debug, Clone)]
pub struct RandomScenario {
    pub topology_kind: u8,
    pub k: u16,
    pub drop_mask: u64,
    pub packets: u16,
}

/// Draws a [`RandomScenario`] with `k` in `sizes`.
pub fn random_scenarios(sizes: Range<u16>) -> impl Strategy<Value = RandomScenario> {
    (0u8..4, sizes, any::<u64>(), 1u16..3).prop_map(|(topology_kind, k, drop_mask, packets)| {
        RandomScenario {
            topology_kind,
            k,
            drop_mask,
            packets,
        }
    })
}

/// The scenario a draw describes: [`super::collect`] where every other
/// node in `drop_mask` may drop once.
pub fn build(rs: &RandomScenario) -> Scenario {
    let topology = match rs.topology_kind {
        0 => Topology::line(rs.k),
        1 => Topology::ring(rs.k),
        2 => Topology::grid(2, rs.k.div_ceil(2)),
        _ => Topology::full_mesh(rs.k.min(4)),
    };
    // The source, the far node, never receives anything, so it is never
    // a drop victim.
    let k = topology.len() as u16;
    let drops = (0..k - 1).filter(|i| rs.drop_mask & (1 << (i % 64)) != 0);
    let failures = FailureConfig::new().with_drops(drops.map(NodeId), 1);
    super::collect(topology, rs.packets).with_failures(failures)
}
