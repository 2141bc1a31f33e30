//! Crash-recovery demonstration workload: a source sends sequenced
//! packets; every node keeps a boot counter and its highest sequence
//! number in the *persistent* memory window
//! ([`layout::PERSIST_BASE`]..`+`[`layout::PERSIST_SIZE`]), plus a
//! volatile mirror of the sequence in ordinary memory.
//!
//! Under `FailureConfig::with_crash_recovery` a crashed node keeps
//! [`layout::BOOT_COUNT`] and [`layout::PERSIST_SEQ`] across the crash
//! while [`layout::RECEIVED`] and the volatile [`layout::SEQ`] mirror
//! reset to zero — exactly the split the persistence invariants assert.
//!
//! Payload layout: `[seq: i16]`; `on_recv` arity is 2.

use crate::handlers::{self, timers};
use crate::layout;
use crate::rime;
use sde_net::{NodeId, Topology};
use sde_symbolic::{BinOp, Width};
use sde_vm::{Program, ProgramBuilder};

/// Number of payload words a persist packet carries.
pub const PAYLOAD_WORDS: usize = 1;

/// Scenario parameters for the persist workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistConfig {
    /// The transmitting node.
    pub source: NodeId,
    /// Delay before the first transmission, in virtual milliseconds.
    pub start_delay_ms: u64,
    /// Transmission period, in virtual milliseconds.
    pub interval_ms: u64,
    /// Number of packets the source transmits.
    pub packet_count: u64,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig {
            source: NodeId(0),
            start_delay_ms: 100,
            interval_ms: 200,
            packet_count: 2,
        }
    }
}

/// Builds the persist program for one node.
pub fn node_program(topology: &Topology, cfg: &PersistConfig, node: NodeId) -> Program {
    let mut pb = ProgramBuilder::new();
    let is_source = node == cfg.source;
    let start_delay = cfg.start_delay_ms;

    pb.function(handlers::ON_BOOT, 0, move |f| {
        // Persistent: count every boot (first boot included).
        rime::inc16(f, layout::BOOT_COUNT);
        // Volatile marker: proves on_boot ran since the last reset.
        let one = f.imm(1, Width::W16);
        rime::store16(f, layout::SEQ, one);
        if is_source {
            let delay = f.imm(start_delay, Width::W64);
            f.set_timer(delay, timers::SEND);
        }
        f.ret(None);
    });

    {
        let topology = topology.clone();
        let interval = cfg.interval_ms;
        let count = cfg.packet_count;
        pb.function(handlers::ON_TIMER, 1, move |f| {
            // Sequence numbers continue from the persistent high-water
            // mark, so a crashed-and-recovered source never reuses one.
            let seq = rime::inc16(f, layout::PERSIST_SEQ);
            rime::broadcast(f, &topology, node, &[seq]);
            let limit = f.imm(count, Width::W16);
            let more = f.reg();
            f.bin(BinOp::Ult, more, seq, limit);
            let rearm = f.label();
            let done = f.label();
            f.br(more, rearm, done);
            f.place(rearm);
            let delay = f.imm(interval, Width::W64);
            f.set_timer(delay, timers::SEND);
            f.place(done);
            f.ret(None);
        });
    }

    pb.function(handlers::ON_RECV, (1 + PAYLOAD_WORDS) as u16, move |f| {
        // Volatile receive counter; persistent high-water sequence.
        rime::inc16(f, layout::RECEIVED);
        let seq = f.param(1);
        let high = rime::load16(f, layout::PERSIST_SEQ);
        let newer = f.reg();
        f.bin(BinOp::Ult, newer, high, seq);
        let record = f.label();
        let done = f.label();
        f.br(newer, record, done);
        f.place(record);
        rime::store16(f, layout::PERSIST_SEQ, seq);
        f.place(done);
        f.ret(None);
    });

    pb.build().expect("persist program is well-formed")
}

/// Builds the per-node programs for a whole scenario, indexed by node id.
pub fn programs(topology: &Topology, cfg: &PersistConfig) -> Vec<Program> {
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

    #[test]
    fn boot_counts_persist_and_source_schedules() {
        let t = Topology::line(2);
        let cfg = PersistConfig::default();
        let p = node_program(&t, &cfg, NodeId(0));
        let solver = Solver::new();
        let mut symbols = SymbolTable::new();
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        let s0 = VmState::fresh(&p);
        let out = run_to_completion(&p, s0.prepared(&p, ON_BOOT, &[]).unwrap(), &mut ctx);
        let (s1, fx) = out.finished.into_iter().next().unwrap();
        assert_eq!(
            fx,
            vec![Syscall::SetTimer {
                delay: 100,
                timer: timers::SEND
            }]
        );
        assert_eq!(s1.memory_byte(layout::BOOT_COUNT).as_const(), Some(1));
        assert_eq!(s1.memory_byte(layout::SEQ).as_const(), Some(1));
        // A crash keeps the persistent window, clears the volatile one.
        let crashed = s1.crash_rebooted(layout::PERSIST_BASE, layout::PERSIST_SIZE);
        assert_eq!(crashed.memory_byte(layout::BOOT_COUNT).as_const(), Some(1));
        assert_eq!(crashed.memory_byte(layout::SEQ).as_const(), Some(0));
        let out = run_to_completion(&p, crashed.prepared(&p, ON_BOOT, &[]).unwrap(), &mut ctx);
        let (s2, _) = out.finished.into_iter().next().unwrap();
        assert_eq!(s2.memory_byte(layout::BOOT_COUNT).as_const(), Some(2));
    }

    #[test]
    fn timer_sends_sequenced_packets_until_count() {
        let t = Topology::line(2);
        let cfg = PersistConfig::default();
        let p = node_program(&t, &cfg, NodeId(0));
        let solver = Solver::new();
        let mut symbols = SymbolTable::new();
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        let s0 = VmState::fresh(&p);
        let out = run_to_completion(&p, s0.prepared(&p, ON_BOOT, &[]).unwrap(), &mut ctx);
        let (s1, _) = out.finished.into_iter().next().unwrap();
        let timer = [Value::const_(u64::from(timers::SEND), Width::W16)];
        let out = run_to_completion(&p, s1.prepared(&p, ON_TIMER, &timer).unwrap(), &mut ctx);
        let (s2, fx) = out.finished.into_iter().next().unwrap();
        // seq 1 of 2: one unicast to the line neighbor plus a re-arm.
        assert_eq!(fx.len(), 2);
        assert!(matches!(fx[0], Syscall::Send { .. }));
        assert!(matches!(fx[1], Syscall::SetTimer { .. }));
        let out = run_to_completion(&p, s2.prepared(&p, ON_TIMER, &timer).unwrap(), &mut ctx);
        let (s3, fx) = out.finished.into_iter().next().unwrap();
        // seq 2 of 2: last packet, no re-arm.
        assert_eq!(fx.len(), 1);
        assert_eq!(s3.memory_byte(layout::PERSIST_SEQ).as_const(), Some(2));
    }

    #[test]
    fn recv_tracks_high_water_mark_persistently() {
        let t = Topology::line(2);
        let cfg = PersistConfig::default();
        let p = node_program(&t, &cfg, NodeId(1));
        let solver = Solver::new();
        let mut symbols = SymbolTable::new();
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        let s0 = VmState::fresh(&p);
        let out = run_to_completion(&p, s0.prepared(&p, ON_BOOT, &[]).unwrap(), &mut ctx);
        let (s1, _) = out.finished.into_iter().next().unwrap();
        let args = [Value::const_(0, Width::W16), Value::const_(7, Width::W16)];
        let out = run_to_completion(&p, s1.prepared(&p, ON_RECV, &args).unwrap(), &mut ctx);
        let (s2, _) = out.finished.into_iter().next().unwrap();
        assert_eq!(s2.memory_byte(layout::RECEIVED).as_const(), Some(1));
        assert_eq!(s2.memory_byte(layout::PERSIST_SEQ).as_const(), Some(7));
        let crashed = s2.crash_rebooted(layout::PERSIST_BASE, layout::PERSIST_SIZE);
        assert_eq!(crashed.memory_byte(layout::RECEIVED).as_const(), Some(0));
        assert_eq!(crashed.memory_byte(layout::PERSIST_SEQ).as_const(), Some(7));
    }
}
