//! One-round neighbor discovery: every node broadcasts a HELLO after a
//! staggered startup delay and counts the HELLOs it hears.
//!
//! A mild workload between `collect` (sparse communication) and `flood`
//! (dense): every node transmits exactly once.
//!
//! Payload layout: `[tag: i16]` where the tag is the constant
//! [`HELLO_TAG`]; `on_recv` arity is 2.

use crate::handlers::{self, timers};
use crate::layout;
use crate::rime;
use sde_net::{NodeId, Topology};
use sde_symbolic::Width;
use sde_vm::{Program, ProgramBuilder};

/// The payload tag identifying a HELLO message.
pub const HELLO_TAG: u64 = 0x48;

/// Number of payload words a HELLO packet carries.
pub const PAYLOAD_WORDS: usize = 1;

/// Scenario parameters for the hello workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloConfig {
    /// Delay before the first node transmits, in virtual milliseconds.
    pub base_delay_ms: u64,
    /// Additional delay per node id, staggering the round so
    /// transmissions do not collide in virtual time.
    pub stagger_ms: u64,
}

impl Default for HelloConfig {
    fn default() -> Self {
        HelloConfig {
            base_delay_ms: 100,
            stagger_ms: 10,
        }
    }
}

/// Builds the hello program for one node.
pub fn node_program(topology: &Topology, cfg: &HelloConfig, node: NodeId) -> Program {
    let mut pb = ProgramBuilder::new();
    let delay_ms = cfg.base_delay_ms + cfg.stagger_ms * u64::from(node.0);

    pb.function(handlers::ON_BOOT, 0, move |f| {
        let delay = f.imm(delay_ms, Width::W64);
        f.set_timer(delay, timers::STARTUP);
        f.ret(None);
    });

    {
        let topology = topology.clone();
        pb.function(handlers::ON_TIMER, 1, move |f| {
            let tag = f.imm(HELLO_TAG, Width::W16);
            rime::broadcast(f, &topology, node, &[tag]);
            f.ret(None);
        });
    }

    pb.function(handlers::ON_RECV, (1 + PAYLOAD_WORDS) as u16, move |f| {
        rime::inc16(f, layout::NEIGHBORS);
        f.ret(None);
    });

    pb.build().expect("hello program is well-formed")
}

/// Builds the per-node programs for a whole scenario, indexed by node id.
pub fn programs(topology: &Topology, cfg: &HelloConfig) -> Vec<Program> {
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
    fn round_trip() {
        let t = Topology::line(3);
        let cfg = HelloConfig::default();
        let p = node_program(&t, &cfg, NodeId(1));
        let solver = Solver::new();
        let mut symbols = SymbolTable::new();
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        let s0 = VmState::fresh(&p);
        let out = run_to_completion(&p, s0.prepared(&p, ON_BOOT, &[]).unwrap(), &mut ctx);
        let (s1, fx) = out.finished.into_iter().next().unwrap();
        assert_eq!(
            fx,
            vec![Syscall::SetTimer {
                delay: 110,
                timer: timers::STARTUP
            }],
            "node 1 staggers by one step"
        );
        let timer = [Value::const_(
            u64::from(timers::STARTUP),
            sde_symbolic::Width::W16,
        )];
        let out = run_to_completion(&p, s1.prepared(&p, ON_TIMER, &timer).unwrap(), &mut ctx);
        let (s2, fx) = out.finished.into_iter().next().unwrap();
        assert_eq!(fx.len(), 2, "line node 1 has two neighbors");
        let args = [
            Value::const_(0, sde_symbolic::Width::W16),
            Value::const_(HELLO_TAG, sde_symbolic::Width::W16),
        ];
        let out = run_to_completion(&p, s2.prepared(&p, ON_RECV, &args).unwrap(), &mut ctx);
        let (s3, _) = out.finished.into_iter().next().unwrap();
        assert_eq!(s3.memory_byte(layout::NEIGHBORS).as_const(), Some(1));
    }
}
