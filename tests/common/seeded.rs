//! Seed-derived random scenarios for property tests.

use super::{failure_model, FAILURE_MODELS};
use sde::prelude::*;

/// splitmix64: tiny, high-quality, dependency-free seed expander.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` seeds spread from `base`, as every seeded sweep draws them.
pub fn seeds(base: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| base ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Derives a full scenario from one seed: topology (line/ring/grid/mesh),
/// workload (collect or sense), and failure model (none/drop/duplicate/
/// reboot on a seed-chosen victim set). Returns a describing label with
/// the scenario so assertion messages are self-contained — a failure
/// anywhere prints the seed, and `scenario_from_seed(<seed>)` reproduces
/// the case in isolation.
pub fn scenario_from_seed(seed: u64) -> (String, Scenario) {
    use sde::os::apps::sense::{self, SenseConfig};

    let mut s = seed;
    let mut next = || splitmix64(&mut s);

    let k = 3 + (next() % 3) as u16; // 3..=5 nodes per dimension
    let (topo_name, topology) = match next() % 4 {
        0 => (format!("line{k}"), Topology::line(k)),
        1 => (format!("ring{k}"), Topology::ring(k)),
        2 => (format!("grid2x{k}"), Topology::grid(2, k)),
        _ => ("mesh3".to_string(), Topology::full_mesh(3)),
    };
    let n = topology.len() as u16;
    let source = NodeId(n - 1);
    let sink = NodeId(0);
    let packets = 1 + (next() % 2) as u16;

    let (app_name, programs) = if next() % 2 == 0 {
        let cfg = CollectConfig {
            source,
            sink,
            interval_ms: 1000,
            packet_count: packets,
            strict_sink: false,
        };
        ("collect", sde::os::apps::collect::programs(&topology, &cfg))
    } else {
        let cfg = SenseConfig {
            source,
            sink,
            interval_ms: 1000,
            packet_count: packets,
            max_reading: 31,
            levels: 1,
            parity_guard: next() % 2 == 0,
        };
        ("sense", sense::programs(&topology, &cfg))
    };

    // Victims: a nonempty seed-chosen subset of the non-source nodes.
    let victim_mask = next();
    let mut victims: Vec<NodeId> = (0..n)
        .filter(|i| *i != source.0 && victim_mask & (1 << (i % 64)) != 0)
        .map(NodeId)
        .collect();
    if victims.is_empty() {
        victims.push(sink);
    }
    let (failure_name, failures) = match next() % 4 {
        0 => ("none", FailureConfig::new()),
        n => {
            let name = FAILURE_MODELS[(n - 1) as usize];
            (name, failure_model(name, &victims))
        }
    };

    let label = format!("seed={seed:#x} {topo_name} {app_name} {failure_name} packets={packets}");
    let scenario = Scenario::new(topology, programs)
        .with_failures(failures)
        .with_duration_ms(1000 * u64::from(packets) + 2000)
        .with_history_tracking(true)
        .with_state_cap(60_000);
    (label, scenario)
}
