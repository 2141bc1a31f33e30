//! A request/acknowledge protocol with timeout-driven retransmission.
//!
//! The client sends sequence-numbered requests to an adjacent server and
//! retransmits the outstanding request whenever its retry timer fires
//! before the acknowledgement arrives; the server acknowledges every
//! request (idempotently) and counts duplicates.
//!
//! This is the workload where SDE's failure models earn their keep: a
//! symbolic packet drop explores the retransmission path, a symbolic
//! duplication explores the server's dedup path — and the protocol's
//! end-to-end guarantee ("every request eventually acknowledged") can be
//! asserted across *all* explored branches.
//!
//! Payload layout: `[tag: i16, seq: i16]` with tags [`TAG_REQ`] and
//! [`TAG_ACK`]; `on_recv` arity is 3.

use crate::handlers::{self, timers};
use crate::layout;
use crate::rime;
use sde_net::{NodeId, Topology};
use sde_symbolic::{BinOp, Width};
use sde_vm::{Program, ProgramBuilder};

/// Payload tag of a request.
pub const TAG_REQ: u64 = 1;
/// Payload tag of an acknowledgement.
pub const TAG_ACK: u64 = 2;
/// Number of payload words a pingpong packet carries.
pub const PAYLOAD_WORDS: usize = 2;

/// Scenario parameters for the pingpong workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PingPongConfig {
    /// The requesting node.
    pub client: NodeId,
    /// The acknowledging node (must be adjacent to the client).
    pub server: NodeId,
    /// Number of requests the client must get acknowledged.
    pub requests: u16,
    /// Retry period in virtual milliseconds: the outstanding request is
    /// retransmitted every `timeout_ms` until acknowledged.
    pub timeout_ms: u64,
}

/// Builds the pingpong program for one node (nodes other than client and
/// server just count overheard packets).
///
/// # Panics
///
/// Panics unless `cfg.client` and `cfg.server` are neighbors in
/// `topology` (the protocol is single-hop).
pub fn node_program(topology: &Topology, cfg: &PingPongConfig, node: NodeId) -> Program {
    assert!(
        topology.are_neighbors(cfg.client, cfg.server),
        "pingpong needs adjacent client and server"
    );
    let is_client = node == cfg.client;
    let is_server = node == cfg.server;
    let mut pb = ProgramBuilder::new();

    // --- on_boot -----------------------------------------------------------
    {
        let cfg = cfg.clone();
        pb.function(handlers::ON_BOOT, 0, move |f| {
            if is_client {
                let delay = f.imm(cfg.timeout_ms, Width::W64);
                f.set_timer(delay, timers::SEND);
            }
            f.ret(None);
        });
    }

    // --- on_timer: (re)transmit the outstanding request ---------------------
    {
        let cfg = cfg.clone();
        pb.function(handlers::ON_TIMER, 1, move |f| {
            if !is_client {
                f.ret(None);
                return;
            }
            let done = f.label();
            let acked = rime::load16(f, layout::ACKED);
            let limit = f.imm(u64::from(cfg.requests), Width::W16);
            let finished = f.reg();
            f.bin(BinOp::Ule, finished, limit, acked);
            let send = f.label();
            f.br(finished, done, send);
            f.place(send);
            // Outstanding seq == ACKED (strictly in-order protocol). A
            // transmission for a seq we already sent once is a retry.
            let sent_before = rime::load16(f, layout::SEQ);
            let is_retry = f.reg();
            f.bin(BinOp::Ult, is_retry, acked, sent_before);
            let (retry, fresh) = (f.label(), f.label());
            f.br(is_retry, retry, fresh);
            f.place(retry);
            rime::inc16(f, layout::RETRIES);
            f.jmp(fresh);
            f.place(fresh);
            let tag = f.imm(TAG_REQ, Width::W16);
            rime::unicast(f, cfg.server, &[tag, acked]);
            // Record highwater of transmitted seqs: SEQ = max(SEQ, acked+1).
            let one = f.imm(1, Width::W16);
            let next = f.reg();
            f.bin(BinOp::Add, next, acked, one);
            let highest = rime::load16(f, layout::SEQ);
            let grew = f.reg();
            f.bin(BinOp::Ult, grew, highest, next);
            let new_hw = f.reg();
            f.select(new_hw, grew, next, highest);
            rime::store16(f, layout::SEQ, new_hw);
            let delay = f.imm(cfg.timeout_ms, Width::W64);
            f.set_timer(delay, timers::SEND);
            f.place(done);
            f.ret(None);
        });
    }

    // --- on_recv(src, tag, seq) ----------------------------------------------
    {
        let cfg = cfg.clone();
        pb.function(handlers::ON_RECV, (1 + PAYLOAD_WORDS) as u16, move |f| {
            let _src = f.param(0);
            let tag = f.param(1);
            let seq = f.param(2);
            let ignore = f.label();

            if is_server {
                let req_tag = f.imm(TAG_REQ, Width::W16);
                let is_req = f.reg();
                f.bin(BinOp::Eq, is_req, tag, req_tag);
                let serve = f.label();
                f.br(is_req, serve, ignore);
                f.place(serve);
                // Duplicate if seq < SERVED; otherwise advance SERVED.
                let served = rime::load16(f, layout::SERVED);
                let dup = f.reg();
                f.bin(BinOp::Ult, dup, seq, served);
                let (count_dup, advance) = (f.label(), f.label());
                f.br(dup, count_dup, advance);
                f.place(count_dup);
                rime::inc16(f, layout::DUP_REQS);
                let ack_dup = f.label();
                f.jmp(ack_dup);
                f.place(advance);
                let one = f.imm(1, Width::W16);
                let next = f.reg();
                f.bin(BinOp::Add, next, seq, one);
                rime::store16(f, layout::SERVED, next);
                f.place(ack_dup);
                // Acknowledge idempotently, always.
                let ack_tag = f.imm(TAG_ACK, Width::W16);
                rime::unicast(f, cfg.client, &[ack_tag, seq]);
                f.ret(None);
            } else if is_client {
                let ack_tag = f.imm(TAG_ACK, Width::W16);
                let is_ack = f.reg();
                f.bin(BinOp::Eq, is_ack, tag, ack_tag);
                let handle = f.label();
                f.br(is_ack, handle, ignore);
                f.place(handle);
                // Accept only the in-order ack for the outstanding seq.
                let acked = rime::load16(f, layout::ACKED);
                let in_order = f.reg();
                f.bin(BinOp::Eq, in_order, seq, acked);
                let accept = f.label();
                f.br(in_order, accept, ignore);
                f.place(accept);
                rime::inc16(f, layout::ACKED);
                f.ret(None);
            } else {
                f.jmp(ignore);
            }

            f.place(ignore);
            rime::inc16(f, layout::HEARD);
            f.ret(None);
        });
    }

    pb.build().expect("pingpong program is well-formed")
}

/// Builds the per-node programs for a whole scenario, indexed by node id.
pub fn programs(topology: &Topology, cfg: &PingPongConfig) -> Vec<Program> {
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

    fn cfg() -> PingPongConfig {
        PingPongConfig {
            client: NodeId(0),
            server: NodeId(1),
            requests: 2,
            timeout_ms: 500,
        }
    }

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
    fn client_sends_then_retries_then_advances() {
        let t = Topology::line(2);
        let p = node_program(&t, &cfg(), NodeId(0));
        let s0 = VmState::fresh(&p);
        let (s1, fx) = run_one(&p, &s0, ON_BOOT, &[]);
        assert_eq!(fx.len(), 1, "timer armed");
        let timer = [Value::const_(u64::from(timers::SEND), Width::W16)];
        // First firing: fresh request seq 0.
        let (s2, fx) = run_one(&p, &s1, ON_TIMER, &timer);
        assert_eq!(fx.len(), 2, "send + re-arm");
        assert_eq!(s2.memory_byte(layout::RETRIES).as_const(), Some(0));
        // Second firing without an ack: retransmission of seq 0.
        let (s3, fx) = run_one(&p, &s2, ON_TIMER, &timer);
        assert_eq!(fx.len(), 2);
        assert_eq!(s3.memory_byte(layout::RETRIES).as_const(), Some(1));
        match &fx[0] {
            Syscall::Send { payload, .. } => assert_eq!(payload[1].as_const(), Some(0)),
            other => panic!("{other:?}"),
        }
        // Ack for seq 0 arrives: ACKED advances.
        let ack = [
            Value::const_(1, Width::W16),
            Value::const_(TAG_ACK, Width::W16),
            Value::const_(0, Width::W16),
        ];
        let (s4, _) = run_one(&p, &s3, ON_RECV, &ack);
        assert_eq!(s4.memory_byte(layout::ACKED).as_const(), Some(1));
        // Next firing requests seq 1.
        let (_s5, fx) = run_one(&p, &s4, ON_TIMER, &timer);
        match &fx[0] {
            Syscall::Send { payload, .. } => assert_eq!(payload[1].as_const(), Some(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn server_acks_and_counts_duplicates() {
        let t = Topology::line(2);
        let p = node_program(&t, &cfg(), NodeId(1));
        let s0 = VmState::fresh(&p);
        let req0 = [
            Value::const_(0, Width::W16),
            Value::const_(TAG_REQ, Width::W16),
            Value::const_(0, Width::W16),
        ];
        let (s1, fx) = run_one(&p, &s0, ON_RECV, &req0);
        assert_eq!(fx.len(), 1, "one ack");
        assert_eq!(s1.memory_byte(layout::SERVED).as_const(), Some(1));
        assert_eq!(s1.memory_byte(layout::DUP_REQS).as_const(), Some(0));
        // The same request again is a duplicate — acked anyway.
        let (s2, fx) = run_one(&p, &s1, ON_RECV, &req0);
        assert_eq!(fx.len(), 1);
        assert_eq!(s2.memory_byte(layout::DUP_REQS).as_const(), Some(1));
        assert_eq!(s2.memory_byte(layout::SERVED).as_const(), Some(1));
    }

    #[test]
    fn stale_ack_is_ignored_by_client() {
        let t = Topology::line(2);
        let p = node_program(&t, &cfg(), NodeId(0));
        let s0 = VmState::fresh(&p);
        let stale = [
            Value::const_(1, Width::W16),
            Value::const_(TAG_ACK, Width::W16),
            Value::const_(7, Width::W16), // not the outstanding seq
        ];
        let (s1, fx) = run_one(&p, &s0, ON_RECV, &stale);
        assert!(fx.is_empty());
        assert_eq!(s1.memory_byte(layout::ACKED).as_const(), Some(0));
        assert_eq!(s1.memory_byte(layout::HEARD).as_const(), Some(1));
    }

    #[test]
    #[should_panic(expected = "adjacent")]
    fn non_adjacent_endpoints_are_rejected() {
        let t = Topology::line(3);
        let cfg = PingPongConfig {
            client: NodeId(0),
            server: NodeId(2),
            requests: 1,
            timeout_ms: 100,
        };
        let _ = node_program(&t, &cfg, NodeId(0));
    }
}
