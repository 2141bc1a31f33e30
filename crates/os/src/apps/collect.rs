//! The paper's evaluation workload (§IV-A): periodic multi-hop data
//! collection over a static route.
//!
//! One *source* node broadcasts a data packet every `interval_ms`
//! (`packet_count` packets in total). Every broadcast is perceived by all
//! neighbors of the transmitter; the single neighbor that is the next hop
//! on the static route re-broadcasts the packet, and so on until the
//! *sink* accepts it. All other receivers are bystanders at the
//! application level — they count the packet and do nothing else.
//!
//! Payload layout: `[seq: i16, hops: i16]`; `on_recv` arity is 3
//! (source id plus two payload words).

use crate::handlers::{self, timers};
use crate::layout;
use crate::rime;
use sde_net::{NodeId, Topology};
use sde_symbolic::{BinOp, Width};
use sde_vm::{Program, ProgramBuilder};

/// Number of payload words a collect packet carries.
pub const PAYLOAD_WORDS: usize = 2;

/// Scenario parameters for the collect workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectConfig {
    /// The transmitting node (bottom-right grid corner in the paper).
    pub source: NodeId,
    /// The destination node (top-left grid corner in the paper).
    pub sink: NodeId,
    /// Transmission period in virtual milliseconds (paper: 1000).
    pub interval_ms: u64,
    /// How many data packets the source emits (paper: 10, one per second
    /// of the 10-second simulation).
    pub packet_count: u16,
    /// When set, the sink asserts gap-free in-order delivery — a
    /// deliberately fragile end-to-end property that symbolic packet
    /// drops violate, demonstrating distributed bug finding.
    pub strict_sink: bool,
}

impl CollectConfig {
    /// The paper's configuration for a `width × height` grid: source in
    /// the bottom-right corner, sink in the top-left, one packet per
    /// second for ten seconds.
    pub fn paper_grid(width: u16, height: u16) -> CollectConfig {
        CollectConfig {
            source: NodeId(width * height - 1),
            sink: NodeId(0),
            interval_ms: 1000,
            packet_count: 10,
            strict_sink: false,
        }
    }
}

/// Builds the collect program for one node.
///
/// Each node gets a program specialized to its role (source, forwarder,
/// sink or bystander) and to its compile-time neighbor list — the moral
/// equivalent of Contiki firmware configured per node through
/// `node-id.h`.
///
/// # Panics
///
/// Panics when `cfg.sink` is unreachable from `cfg.source` in `topology`.
pub fn node_program(topology: &Topology, cfg: &CollectConfig, node: NodeId) -> Program {
    let route = topology
        .route(cfg.source, cfg.sink)
        .expect("sink must be reachable from source");
    let position = route.iter().position(|&n| n == node);
    // The hop that precedes `node` on the route (whose transmissions this
    // node accepts and, if a forwarder, re-broadcasts).
    let upstream: Option<NodeId> = match position {
        Some(p) if p > 0 => Some(route[p - 1]),
        _ => None,
    };
    let is_source = node == cfg.source;
    let is_sink = node == cfg.sink;

    let mut pb = ProgramBuilder::new();

    // --- on_boot -----------------------------------------------------------
    {
        let cfg = cfg.clone();
        pb.function(handlers::ON_BOOT, 0, move |f| {
            if is_source {
                let delay = f.imm(cfg.interval_ms, Width::W64);
                f.set_timer(delay, timers::SEND);
            }
            f.ret(None);
        });
    }

    // --- on_timer(timer_id) -------------------------------------------------
    {
        let cfg = cfg.clone();
        let topology = topology.clone();
        pb.function(handlers::ON_TIMER, 1, move |f| {
            if !is_source {
                // Spurious timer on a non-source node: nothing to do.
                f.ret(None);
                return;
            }
            let done = f.label();
            let seq = rime::load16(f, layout::SEQ);
            let limit = f.imm(u64::from(cfg.packet_count), Width::W16);
            let finished = f.reg();
            f.bin(BinOp::Ule, finished, limit, seq); // packet_count <= seq
            let send = f.label();
            f.br(finished, done, send);
            f.place(send);
            let hops = f.imm(0, Width::W16);
            rime::broadcast(f, &topology, node, &[seq, hops]);
            rime::inc16(f, layout::SEQ);
            let delay = f.imm(cfg.interval_ms, Width::W64);
            f.set_timer(delay, timers::SEND);
            f.place(done);
            f.ret(None);
        });
    }

    // --- on_recv(src, seq, hops) --------------------------------------------
    {
        let cfg = cfg.clone();
        let topology = topology.clone();
        pb.function(handlers::ON_RECV, (1 + PAYLOAD_WORDS) as u16, move |f| {
            let src = f.param(0);
            let seq = f.param(1);
            let hops = f.param(2);
            let ignore = f.label();

            match upstream {
                Some(up) if is_sink => {
                    // Accept only transmissions from our route predecessor.
                    let expected_src = f.imm(u64::from(up.0), Width::W16);
                    let from_up = f.reg();
                    f.bin(BinOp::Eq, from_up, src, expected_src);
                    let accept = f.label();
                    f.br(from_up, accept, ignore);
                    f.place(accept);
                    rime::inc16(f, layout::RECEIVED);
                    if cfg.strict_sink {
                        let expected = rime::load16(f, layout::EXPECTED);
                        let in_order = f.reg();
                        f.bin(BinOp::Eq, in_order, seq, expected);
                        f.assert(in_order, "sink: data arrived out of order or with gaps");
                        rime::inc16(f, layout::EXPECTED);
                    }
                    let _ = hops;
                    f.ret(None);
                }
                Some(up) => {
                    // Forwarder: re-broadcast packets from upstream.
                    let expected_src = f.imm(u64::from(up.0), Width::W16);
                    let from_up = f.reg();
                    f.bin(BinOp::Eq, from_up, src, expected_src);
                    let forward = f.label();
                    f.br(from_up, forward, ignore);
                    f.place(forward);
                    let one = f.imm(1, Width::W16);
                    let next_hops = f.reg();
                    f.bin(BinOp::Add, next_hops, hops, one);
                    // Sanity: hop counts can never exceed the network size.
                    let bound = f.imm(topology.len() as u64, Width::W16);
                    let in_bound = f.reg();
                    f.bin(BinOp::Ult, in_bound, next_hops, bound);
                    f.assert(in_bound, "forwarder: hop count exceeded network size");
                    rime::broadcast(f, &topology, node, &[seq, next_hops]);
                    rime::inc16(f, layout::FORWARDED);
                    f.ret(None);
                }
                None => {
                    // Bystander (or the source overhearing forwards):
                    // perceive and count.
                    f.jmp(ignore);
                }
            }

            f.place(ignore);
            rime::inc16(f, layout::HEARD);
            f.ret(None);
        });
    }

    pb.build().expect("collect program is well-formed")
}

/// Builds the per-node programs for a whole scenario, indexed by node id.
pub fn programs(topology: &Topology, cfg: &CollectConfig) -> Vec<Program> {
    topology
        .nodes()
        .map(|n| node_program(topology, cfg, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handlers::{ON_BOOT, ON_RECV, ON_TIMER};
    use sde_symbolic::{Solver, SymbolTable, Value};
    use sde_vm::{run_to_completion, Syscall, VmCtx, VmState};

    fn run_handler(
        p: &Program,
        state: &VmState,
        handler: &str,
        args: &[sde_symbolic::Value],
    ) -> (VmState, Vec<Syscall>) {
        let solver = Solver::new();
        let mut symbols = SymbolTable::new();
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        let out = run_to_completion(p, state.prepared(p, handler, args).unwrap(), &mut ctx);
        assert!(out.bugged.is_empty(), "{:?}", out.bugged[0].status());
        assert_eq!(out.finished.len(), 1, "handler should not fork here");
        out.finished.into_iter().next().unwrap()
    }

    #[test]
    fn source_emits_periodic_broadcasts_until_budget() {
        let t = Topology::line(3);
        let cfg = CollectConfig {
            source: NodeId(2),
            sink: NodeId(0),
            interval_ms: 500,
            packet_count: 2,
            strict_sink: false,
        };
        let p = node_program(&t, &cfg, NodeId(2));
        let s0 = VmState::fresh(&p);
        let (s1, fx) = run_handler(&p, &s0, ON_BOOT, &[]);
        assert_eq!(
            fx,
            vec![Syscall::SetTimer {
                delay: 500,
                timer: timers::SEND
            }]
        );

        let timer_arg = [Value::const_(
            u64::from(timers::SEND),
            sde_symbolic::Width::W16,
        )];
        // First firing: one neighbor (node 1), seq 0, hops 0, re-arm.
        let (s2, fx) = run_handler(&p, &s1, ON_TIMER, &timer_arg);
        assert_eq!(fx.len(), 2);
        match &fx[0] {
            Syscall::Send { dest, payload } => {
                assert_eq!(*dest, 1);
                assert_eq!(payload[0].as_const(), Some(0));
                assert_eq!(payload[1].as_const(), Some(0));
            }
            other => panic!("{other:?}"),
        }
        // Second firing: seq 1, re-arm.
        let (s3, fx) = run_handler(&p, &s2, ON_TIMER, &timer_arg);
        assert_eq!(fx.len(), 2);
        match &fx[0] {
            Syscall::Send { payload, .. } => assert_eq!(payload[0].as_const(), Some(1)),
            other => panic!("{other:?}"),
        }
        // Third firing: budget exhausted, no sends, no re-arm.
        let (_s4, fx) = run_handler(&p, &s3, ON_TIMER, &timer_arg);
        assert!(fx.is_empty());
    }

    #[test]
    fn forwarder_relays_only_upstream_packets() {
        let t = Topology::line(4); // route 3 → 2 → 1 → 0
        let cfg = CollectConfig {
            source: NodeId(3),
            sink: NodeId(0),
            interval_ms: 1000,
            packet_count: 10,
            strict_sink: false,
        };
        let p = node_program(&t, &cfg, NodeId(2));
        let s0 = VmState::fresh(&p);
        let w16 = sde_symbolic::Width::W16;
        // A packet from upstream (node 3) is forwarded with hops + 1.
        let args = [
            Value::const_(3, w16),
            Value::const_(7, w16),
            Value::const_(0, w16),
        ];
        let (s1, fx) = run_handler(&p, &s0, ON_RECV, &args);
        // Node 2's neighbors on the line: 1 and 3 → two unicasts.
        assert_eq!(fx.len(), 2);
        for e in &fx {
            match e {
                Syscall::Send { payload, .. } => {
                    assert_eq!(payload[0].as_const(), Some(7));
                    assert_eq!(payload[1].as_const(), Some(1));
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(s1.memory_byte(layout::FORWARDED).as_const(), Some(1));
        // A packet overheard from downstream (node 1) is only counted.
        let args = [
            Value::const_(1, w16),
            Value::const_(7, w16),
            Value::const_(1, w16),
        ];
        let (s2, fx) = run_handler(&p, &s1, ON_RECV, &args);
        assert!(fx.is_empty());
        assert_eq!(s2.memory_byte(layout::HEARD).as_const(), Some(1));
    }

    #[test]
    fn sink_counts_and_strict_sink_catches_gaps() {
        let t = Topology::line(3); // route 2 → 1 → 0
        let cfg = CollectConfig {
            source: NodeId(2),
            sink: NodeId(0),
            interval_ms: 1000,
            packet_count: 10,
            strict_sink: true,
        };
        let p = node_program(&t, &cfg, NodeId(0));
        let s0 = VmState::fresh(&p);
        let w16 = sde_symbolic::Width::W16;
        // In-order delivery of seq 0 passes the strict check.
        let args = [
            Value::const_(1, w16),
            Value::const_(0, w16),
            Value::const_(1, w16),
        ];
        let (s1, _) = run_handler(&p, &s0, ON_RECV, &args);
        assert_eq!(s1.memory_byte(layout::RECEIVED).as_const(), Some(1));
        // Delivering seq 2 next (seq 1 lost) trips the assertion.
        let solver = Solver::new();
        let mut symbols = SymbolTable::new();
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        let args = [
            Value::const_(1, w16),
            Value::const_(2, w16),
            Value::const_(2, w16),
        ];
        let out = run_to_completion(&p, s1.prepared(&p, ON_RECV, &args).unwrap(), &mut ctx);
        assert_eq!(out.bugged.len(), 1);
    }

    #[test]
    fn bystander_only_counts() {
        let t = Topology::grid(3, 3);
        let cfg = CollectConfig {
            source: NodeId(8),
            sink: NodeId(0),
            interval_ms: 1000,
            packet_count: 10,
            strict_sink: false,
        };
        // Pick a node off the canonical route.
        let route = t.route(cfg.source, cfg.sink).unwrap();
        let bystander = t.nodes().find(|n| !route.contains(n)).unwrap();
        let p = node_program(&t, &cfg, bystander);
        let s0 = VmState::fresh(&p);
        let w16 = sde_symbolic::Width::W16;
        let args = [
            Value::const_(8, w16),
            Value::const_(0, w16),
            Value::const_(0, w16),
        ];
        let (s1, fx) = run_handler(&p, &s0, ON_RECV, &args);
        assert!(fx.is_empty());
        assert_eq!(s1.memory_byte(layout::HEARD).as_const(), Some(1));
    }

    #[test]
    fn paper_grid_defaults() {
        let cfg = CollectConfig::paper_grid(10, 10);
        assert_eq!(cfg.source, NodeId(99));
        assert_eq!(cfg.sink, NodeId(0));
        assert_eq!(cfg.interval_ms, 1000);
        assert_eq!(cfg.packet_count, 10);
        let t = Topology::grid(10, 10);
        let ps = programs(&t, &cfg);
        assert_eq!(ps.len(), 100);
    }
}
