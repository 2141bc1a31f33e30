//! A tour of the structured tracing subsystem (DESIGN.md §7).
//!
//! Runs the paper's Figure 1-style scenario — a 3-node line with one
//! symbolic packet drop — under SDS with a [`RingSink`] recorder
//! attached, then shows the three things a trace is for:
//!
//! 1. **export** — deterministic JSONL (byte-identical across runs and
//!    worker counts) and a Chrome `trace_event` file for
//!    `chrome://tracing` / Perfetto;
//! 2. **lineage** — the fork forest rooted at the k initial states, with
//!    per-state ancestry chains (which drop/branch/mapping forks created
//!    this state?);
//! 3. **summary** — [`RunReport::trace`] counters, collected even
//!    without a sink attached.
//!
//! ```sh
//! cargo run --release --example trace_tour
//! ```

use sde::prelude::*;
use std::sync::Arc;

fn main() {
    let topology = Topology::line(3);
    let cfg = CollectConfig {
        source: NodeId(2),
        sink: NodeId(0),
        interval_ms: 1000,
        packet_count: 3,
        strict_sink: false,
    };
    let failures = FailureConfig::new().with_drops(vec![NodeId(1)], 1);
    let programs = sde::os::apps::collect::programs(&topology, &cfg);
    let scenario = Scenario::new(topology, programs)
        .with_failures(failures)
        .with_duration_ms(5000);

    // 1. Attach a bounded recorder and run.
    let sink = Arc::new(RingSink::default());
    let report = Engine::new(scenario, Algorithm::Sds)
        .with_trace_sink(sink.clone() as Arc<dyn TraceSink>)
        .run();
    let events = sink.take();
    println!(
        "run: {} states, {} packets, {} trace events\n",
        report.total_states,
        report.packets,
        events.len()
    );

    // 2. Export. Deterministic JSONL drops wall-clock fields so repeated
    // runs (serial or parallel, any worker count) produce identical
    // bytes; the Chrome file keeps them for timeline viewing.
    let dir = std::env::temp_dir().join("sde-trace-tour");
    std::fs::create_dir_all(&dir).expect("create out dir");
    let jsonl = dir.join("trace.jsonl");
    sde::trace::write_jsonl(&jsonl, &events, true).expect("write jsonl");
    sde::trace::write_chrome_trace(&dir.join("trace.chrome.json"), &events)
        .expect("write chrome trace");
    let parsed = sde::trace::read_jsonl(&jsonl).expect("trace round-trips");
    assert_eq!(parsed.len(), events.len());
    println!("exported: {} (and trace.chrome.json)", jsonl.display());

    // 3. Lineage: every state traces back to exactly one of the k roots.
    let lineage = Lineage::from_events(events.iter().map(|te| &te.ev)).expect("valid lineage");
    lineage.validate().expect("lineage invariants hold");
    println!(
        "lineage: {} roots, {} states, {} forks",
        lineage.roots().len(),
        lineage.states().len(),
        lineage.fork_count()
    );
    let last = lineage
        .states()
        .last()
        .copied()
        .expect("at least one state");
    println!("ancestry of the last-created state {last}:");
    for step in lineage.ancestry(last).expect("reachable") {
        match step.created_by {
            None => println!("  {} (root)", step.state),
            Some(reason) => println!("  {} <- fork[{}]", step.state, reason.as_str()),
        }
    }

    // 4. The summary rides on every report, sink or no sink. Packets
    // sent, bugs and the solver's layer counts are the report's own.
    println!("\n{}", report.trace.render());
    let s = &report.solver;
    println!(
        "report: packets sent={} bugs found={}\nsolver: queries={} exact={} group={}",
        report.packets,
        report.bugs.len(),
        s.queries,
        s.cache_hits,
        s.group_cache_hits
    );
}
