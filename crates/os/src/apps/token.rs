//! Token-passing demonstration workload with a seeded persistence bug.
//!
//! A token travels along a configured route: the current holder arms a
//! timer, then hands the token to its successor with a `GRANT` message;
//! the receiver acknowledges with an `ACK` and passes it on after a
//! delay. Ownership is mirrored twice:
//!
//! * volatile [`layout::TOKEN_OWN`] — "this node believes it holds the
//!   token right now";
//! * persistent [`layout::PERSIST_TOKEN`] — the crash-surviving copy a
//!   recovering node restores its belief from.
//!
//! **The seeded bug** ([`TokenConfig::leak_persistent_flag`], on by
//! default): handing the token off clears only the volatile mirror and
//! forgets the persistent cell. Without faults this is invisible — the
//! volatile flag alone decides behavior, and at most one node believes
//! it owns the token at any quiescent point. Under
//! `FaultPlan::with_crash_recovery` the `ACK` flowing back to a previous
//! holder gives the engine a crash decision on it: the crashed branch
//! reboots, `on_boot` reads the stale [`layout::PERSIST_TOKEN`] and
//! resurrects ownership — two believers, which the `unique-token-owner`
//! cross-node invariant of `sde-core::check` reports and the minimizer
//! shrinks to its minimal witness.
//!
//! Payload layout: `[tag: i16]` (`1` = GRANT, `2` = ACK); `on_recv`
//! arity is 2.

use crate::handlers::{self, timers};
use crate::layout;
use crate::rime;
use sde_net::{NodeId, Topology};
use sde_symbolic::{BinOp, Width};
use sde_vm::{Program, ProgramBuilder};

/// Number of payload words a token packet carries.
pub const PAYLOAD_WORDS: usize = 1;

/// Message tag of a token hand-off.
pub const GRANT: u64 = 1;

/// Message tag of a hand-off acknowledgment.
pub const ACK: u64 = 2;

/// Scenario parameters for the token workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenConfig {
    /// The token's route. Consecutive entries must be topology
    /// neighbors; the first entry boots holding the token, the last
    /// keeps it.
    pub route: Vec<NodeId>,
    /// Delay before the initial holder's first hand-off (virtual ms).
    pub start_delay_ms: u64,
    /// Delay between receiving the token and passing it on (virtual ms).
    pub pass_delay_ms: u64,
    /// The seeded bug: when `true` (default), a hand-off clears only
    /// volatile [`layout::TOKEN_OWN`] and leaks the persistent
    /// [`layout::PERSIST_TOKEN`] flag. Set to `false` for the fixed
    /// protocol (hand-off clears both cells).
    pub leak_persistent_flag: bool,
}

impl Default for TokenConfig {
    fn default() -> Self {
        TokenConfig {
            route: vec![NodeId(0), NodeId(1)],
            start_delay_ms: 100,
            pass_delay_ms: 200,
            leak_persistent_flag: true,
        }
    }
}

impl TokenConfig {
    /// Position of `node` on the route, if it participates.
    fn position(&self, node: NodeId) -> Option<usize> {
        self.route.iter().position(|n| *n == node)
    }

    /// The node `node` hands the token to, if any (the last route entry
    /// keeps it).
    pub fn successor(&self, node: NodeId) -> Option<NodeId> {
        let i = self.position(node)?;
        self.route.get(i + 1).copied()
    }
}

/// Builds the token program for one node.
///
/// # Panics
///
/// Panics when the route is empty or hops over a non-edge: a broken
/// route would silently never pass the token.
pub fn node_program(topology: &Topology, cfg: &TokenConfig, node: NodeId) -> Program {
    assert!(
        !cfg.route.is_empty(),
        "token route must name a first holder"
    );
    for pair in cfg.route.windows(2) {
        assert!(
            topology.are_neighbors(pair[0], pair[1]),
            "route hop {} -> {} is not a topology edge",
            pair[0],
            pair[1]
        );
    }

    let mut pb = ProgramBuilder::new();
    let first_holder = cfg.position(node) == Some(0);
    let successor = cfg.successor(node);
    let start_delay = cfg.start_delay_ms;
    let pass_delay = cfg.pass_delay_ms;
    let leak = cfg.leak_persistent_flag;

    pb.function(handlers::ON_BOOT, 0, move |f| {
        // Persistent: count every boot (crash recoveries included).
        let bc = rime::inc16(f, layout::BOOT_COUNT);
        let one = f.imm(1, Width::W16);
        // Restore belief from the crash-surviving flag. On a clean first
        // boot the cell is zero everywhere; after a crash-recovery it is
        // whatever the pre-crash protocol left there — with the seeded
        // bug, possibly a stale claim.
        let pt = rime::load16(f, layout::PERSIST_TOKEN);
        let zero = f.imm(0, Width::W16);
        let restored = f.reg();
        f.bin(BinOp::Ne, restored, pt, zero);
        let restore = f.label();
        let after_restore = f.label();
        f.br(restored, restore, after_restore);
        f.place(restore);
        rime::store16(f, layout::TOKEN_OWN, one);
        f.place(after_restore);
        if first_holder {
            // Only the very first boot mints the token; a recovering
            // first holder must not mint a second one (nor re-arm the
            // hand-off timer — its pass already happened).
            let minted = f.reg();
            f.bin(BinOp::Eq, minted, bc, one);
            let mint = f.label();
            let done = f.label();
            f.br(minted, mint, done);
            f.place(mint);
            rime::store16(f, layout::TOKEN_OWN, one);
            rime::store16(f, layout::PERSIST_TOKEN, one);
            let delay = f.imm(start_delay, Width::W64);
            f.set_timer(delay, timers::PASS);
            f.place(done);
        }
        f.ret(None);
    });

    pb.function(handlers::ON_TIMER, 1, move |f| {
        // Hand the token to the successor — if this node still believes
        // it holds one and has someone to pass it to.
        let own = rime::load16(f, layout::TOKEN_OWN);
        let zero = f.imm(0, Width::W16);
        let holding = f.reg();
        f.bin(BinOp::Ne, holding, own, zero);
        let pass = f.label();
        let done = f.label();
        f.br(holding, pass, done);
        f.place(pass);
        if let Some(next) = successor {
            rime::store16(f, layout::TOKEN_OWN, zero);
            if !leak {
                // The fix the seeded bug omits: drop the persistent
                // claim together with the volatile one.
                rime::store16(f, layout::PERSIST_TOKEN, zero);
            }
            rime::inc16(f, layout::TOKEN_PASSES);
            let tag = f.imm(GRANT, Width::W16);
            rime::unicast(f, next, &[tag]);
        }
        f.place(done);
        f.ret(None);
    });

    pb.function(handlers::ON_RECV, (1 + PAYLOAD_WORDS) as u16, move |f| {
        let tag = f.param(1);
        let grant = f.imm(GRANT, Width::W16);
        let is_grant = f.reg();
        f.bin(BinOp::Eq, is_grant, tag, grant);
        let take = f.label();
        let done = f.label();
        f.br(is_grant, take, done);
        f.place(take);
        let one = f.imm(1, Width::W16);
        rime::store16(f, layout::TOKEN_OWN, one);
        rime::store16(f, layout::PERSIST_TOKEN, one);
        // Acknowledge to the sender — the delivery that hands the fault
        // axes their decision point on the previous holder.
        let src = f.param(0);
        let ack = f.imm(ACK, Width::W16);
        f.send(src, &[ack]);
        if successor.is_some() {
            let delay = f.imm(pass_delay, Width::W64);
            f.set_timer(delay, timers::PASS);
        }
        f.place(done);
        f.ret(None);
    });

    pb.build().expect("token program is well-formed")
}

/// Builds the per-node programs for a whole scenario, indexed by node id.
pub fn programs(topology: &Topology, cfg: &TokenConfig) -> Vec<Program> {
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

    fn boot(p: &Program, ctx: &mut VmCtx) -> VmState {
        let s0 = VmState::fresh(p);
        let out = run_to_completion(p, s0.prepared(p, ON_BOOT, &[]).unwrap(), ctx);
        out.finished.into_iter().next().unwrap().0
    }

    #[test]
    fn first_holder_mints_once_and_arms_the_pass_timer() {
        let t = Topology::line(2);
        let cfg = TokenConfig::default();
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
                timer: timers::PASS
            }]
        );
        assert_eq!(s1.memory_byte(layout::TOKEN_OWN).as_const(), Some(1));
        assert_eq!(s1.memory_byte(layout::PERSIST_TOKEN).as_const(), Some(1));
    }

    #[test]
    fn buggy_handoff_clears_only_the_volatile_mirror() {
        let t = Topology::line(2);
        let cfg = TokenConfig::default();
        let p = node_program(&t, &cfg, NodeId(0));
        let solver = Solver::new();
        let mut symbols = SymbolTable::new();
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        let s1 = boot(&p, &mut ctx);
        let timer = [Value::const_(u64::from(timers::PASS), Width::W16)];
        let out = run_to_completion(&p, s1.prepared(&p, ON_TIMER, &timer).unwrap(), &mut ctx);
        let (s2, fx) = out.finished.into_iter().next().unwrap();
        assert!(matches!(fx[0], Syscall::Send { dest: 1, .. }));
        assert_eq!(s2.memory_byte(layout::TOKEN_OWN).as_const(), Some(0));
        // The bug: the persistent claim survives the hand-off...
        assert_eq!(s2.memory_byte(layout::PERSIST_TOKEN).as_const(), Some(1));
        // ...so a crash-recovery resurrects ownership from it.
        let crashed = s2.crash_rebooted(layout::PERSIST_BASE, layout::PERSIST_SIZE);
        let out = run_to_completion(&p, crashed.prepared(&p, ON_BOOT, &[]).unwrap(), &mut ctx);
        let (s3, fx) = out.finished.into_iter().next().unwrap();
        assert_eq!(s3.memory_byte(layout::TOKEN_OWN).as_const(), Some(1));
        assert!(
            fx.is_empty(),
            "a recovering holder must not re-arm the timer"
        );
    }

    #[test]
    fn fixed_handoff_clears_both_cells() {
        let t = Topology::line(2);
        let cfg = TokenConfig {
            leak_persistent_flag: false,
            ..TokenConfig::default()
        };
        let p = node_program(&t, &cfg, NodeId(0));
        let solver = Solver::new();
        let mut symbols = SymbolTable::new();
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        let s1 = boot(&p, &mut ctx);
        let timer = [Value::const_(u64::from(timers::PASS), Width::W16)];
        let out = run_to_completion(&p, s1.prepared(&p, ON_TIMER, &timer).unwrap(), &mut ctx);
        let (s2, _) = out.finished.into_iter().next().unwrap();
        assert_eq!(s2.memory_byte(layout::PERSIST_TOKEN).as_const(), Some(0));
        let crashed = s2.crash_rebooted(layout::PERSIST_BASE, layout::PERSIST_SIZE);
        let out = run_to_completion(&p, crashed.prepared(&p, ON_BOOT, &[]).unwrap(), &mut ctx);
        let (s3, _) = out.finished.into_iter().next().unwrap();
        assert_eq!(s3.memory_byte(layout::TOKEN_OWN).as_const(), Some(0));
    }

    #[test]
    fn receiver_takes_the_token_acks_and_passes_on() {
        let t = Topology::line(3);
        let cfg = TokenConfig {
            route: vec![NodeId(0), NodeId(1), NodeId(2)],
            ..TokenConfig::default()
        };
        let p = node_program(&t, &cfg, NodeId(1));
        let solver = Solver::new();
        let mut symbols = SymbolTable::new();
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        let s1 = boot(&p, &mut ctx);
        let args = [
            Value::const_(0, Width::W16),
            Value::const_(GRANT, Width::W16),
        ];
        let out = run_to_completion(&p, s1.prepared(&p, ON_RECV, &args).unwrap(), &mut ctx);
        let (s2, fx) = out.finished.into_iter().next().unwrap();
        assert_eq!(s2.memory_byte(layout::TOKEN_OWN).as_const(), Some(1));
        assert_eq!(s2.memory_byte(layout::PERSIST_TOKEN).as_const(), Some(1));
        assert_eq!(fx.len(), 2, "ack + pass timer");
        assert!(matches!(fx[0], Syscall::Send { dest: 0, .. }));
        assert!(matches!(fx[1], Syscall::SetTimer { .. }));
        // An ACK is ignored.
        let args = [Value::const_(2, Width::W16), Value::const_(ACK, Width::W16)];
        let out = run_to_completion(&p, s2.prepared(&p, ON_RECV, &args).unwrap(), &mut ctx);
        let (_, fx) = out.finished.into_iter().next().unwrap();
        assert!(fx.is_empty());
    }

    #[test]
    #[should_panic(expected = "not a topology edge")]
    fn broken_route_fails_loudly() {
        let t = Topology::line(3);
        let cfg = TokenConfig {
            route: vec![NodeId(0), NodeId(2)],
            ..TokenConfig::default()
        };
        let _ = node_program(&t, &cfg, NodeId(0));
    }
}
