//! Network flooding (§IV-C): the adversarial workload for SDE.
//!
//! The initiator broadcasts sequence-numbered packets; every node
//! re-broadcasts each sequence number the first time it hears it. In a
//! dense topology nearly every node is a sender and nearly every state a
//! rival or target, so COW and SDS lose their advantage over COB — the
//! limitation the paper calls out explicitly.
//!
//! Payload layout: `[seq: i16]`; `on_recv` arity is 2.

use crate::handlers::{self, timers};
use crate::layout;
use crate::rime;
use sde_net::{NodeId, Topology};
use sde_symbolic::{BinOp, Width};
use sde_vm::{Program, ProgramBuilder};

/// Number of payload words a flood packet carries.
pub const PAYLOAD_WORDS: usize = 1;

/// Scenario parameters for the flood workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodConfig {
    /// The node that originates the flood.
    pub initiator: NodeId,
    /// Number of flood rounds (distinct sequence numbers).
    pub rounds: u16,
    /// Originating period in virtual milliseconds.
    pub interval_ms: u64,
}

/// Builds the flood program for one node.
pub fn node_program(topology: &Topology, cfg: &FloodConfig, node: NodeId) -> Program {
    let is_initiator = node == cfg.initiator;
    let mut pb = ProgramBuilder::new();

    {
        let cfg = cfg.clone();
        pb.function(handlers::ON_BOOT, 0, move |f| {
            if is_initiator {
                let delay = f.imm(cfg.interval_ms, Width::W64);
                f.set_timer(delay, timers::SEND);
            }
            f.ret(None);
        });
    }

    {
        let cfg = cfg.clone();
        let topology = topology.clone();
        pb.function(handlers::ON_TIMER, 1, move |f| {
            if !is_initiator {
                f.ret(None);
                return;
            }
            let done = f.label();
            let seq = rime::load16(f, layout::SEQ);
            let limit = f.imm(u64::from(cfg.rounds), Width::W16);
            let finished = f.reg();
            f.bin(BinOp::Ule, finished, limit, seq);
            let send = f.label();
            f.br(finished, done, send);
            f.place(send);
            // Mark our own sequence as seen so echoes are not re-flooded.
            let one8 = f.imm(1, Width::W8);
            rime::store8_indexed(f, layout::SEEN_BASE, seq, one8);
            rime::broadcast(f, &topology, node, &[seq]);
            rime::inc16(f, layout::SEQ);
            let delay = f.imm(cfg.interval_ms, Width::W64);
            f.set_timer(delay, timers::SEND);
            f.place(done);
            f.ret(None);
        });
    }

    {
        let topology = topology.clone();
        pb.function(handlers::ON_RECV, (1 + PAYLOAD_WORDS) as u16, move |f| {
            let _src = f.param(0);
            let seq = f.param(1);
            let seen = rime::load8_indexed(f, layout::SEEN_BASE, seq);
            let zero = f.imm(0, Width::W8);
            let fresh = f.reg();
            f.bin(BinOp::Eq, fresh, seen, zero);
            let (relay, done) = (f.label(), f.label());
            f.br(fresh, relay, done);
            f.place(relay);
            let one8 = f.imm(1, Width::W8);
            rime::store8_indexed(f, layout::SEEN_BASE, seq, one8);
            rime::inc16(f, layout::FORWARDED);
            rime::broadcast(f, &topology, node, &[seq]);
            f.ret(None);
            f.place(done);
            rime::inc16(f, layout::HEARD);
            f.ret(None);
        });
    }

    pb.build().expect("flood program is well-formed")
}

/// Builds the per-node programs for a whole scenario, indexed by node id.
pub fn programs(topology: &Topology, cfg: &FloodConfig) -> Vec<Program> {
    topology
        .nodes()
        .map(|n| node_program(topology, cfg, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handlers::{ON_BOOT, ON_RECV, ON_TIMER};
    use sde_symbolic::{Solver, SymbolTable, Value, Width};
    use sde_vm::{run_to_completion, Syscall, VmCtx, VmState};

    fn run_one(
        p: &Program,
        state: &VmState,
        handler: &str,
        args: &[sde_symbolic::Value],
    ) -> (VmState, Vec<Syscall>) {
        let solver = Solver::new();
        let mut symbols = SymbolTable::new();
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        let out = run_to_completion(p, state.prepared(p, handler, args).unwrap(), &mut ctx);
        assert!(out.bugged.is_empty());
        assert_eq!(out.finished.len(), 1);
        out.finished.into_iter().next().unwrap()
    }

    #[test]
    fn first_reception_relays_second_does_not() {
        let t = Topology::full_mesh(4);
        let cfg = FloodConfig {
            initiator: NodeId(0),
            rounds: 2,
            interval_ms: 1000,
        };
        let p = node_program(&t, &cfg, NodeId(2));
        let s0 = VmState::fresh(&p);
        let args = [Value::const_(0, Width::W16), Value::const_(0, Width::W16)];
        let (s1, fx) = run_one(&p, &s0, ON_RECV, &args);
        assert_eq!(fx.len(), 3, "relay to the three other mesh nodes");
        let (s2, fx) = run_one(&p, &s1, ON_RECV, &args);
        assert!(fx.is_empty(), "duplicate reception is suppressed");
        assert_eq!(s2.memory_byte(layout::HEARD).as_const(), Some(1));
        // A different sequence number floods again.
        let args2 = [Value::const_(1, Width::W16), Value::const_(1, Width::W16)];
        let (_s3, fx) = run_one(&p, &s2, ON_RECV, &args2);
        assert_eq!(fx.len(), 3);
    }

    #[test]
    fn initiator_skips_own_echo() {
        let t = Topology::full_mesh(3);
        let cfg = FloodConfig {
            initiator: NodeId(0),
            rounds: 1,
            interval_ms: 100,
        };
        let p = node_program(&t, &cfg, NodeId(0));
        let s0 = VmState::fresh(&p);
        let (s1, fx) = run_one(&p, &s0, ON_BOOT, &[]);
        assert_eq!(fx.len(), 1); // timer armed
        let timer = [Value::const_(u64::from(timers::SEND), Width::W16)];
        let (s2, fx) = run_one(&p, &s1, ON_TIMER, &timer);
        // Two broadcasts + re-arm timer.
        assert_eq!(fx.len(), 3);
        // Our own packet echoed back from node 1 is not re-flooded.
        let echo = [Value::const_(1, Width::W16), Value::const_(0, Width::W16)];
        let (_s3, fx) = run_one(&p, &s2, ON_RECV, &echo);
        assert!(fx.is_empty());
    }
}
