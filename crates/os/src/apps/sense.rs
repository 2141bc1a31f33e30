//! Symbolic-sensing collection: the solver-bound variant of
//! [`collect`](crate::apps::collect).
//!
//! The plain collect workload is interpreter-bound — every payload word is
//! concrete and only the *failure* variables (drop/duplicate/reboot) are
//! symbolic, so they enter the path condition but no branch ever tests
//! them and the constraint solver sits idle. `sense` flips that balance
//! into the paper's Fig. 1 regime, where execution forks on *data*:
//!
//! * The source samples an unknown sensor **reading** per packet
//!   (`make_symbolic`), assumes `reading <= max_reading` *on its own
//!   path*, and ships the reading symbolically in the payload.
//! * Every route hop (forwarders and the sink) **classifies** the reading
//!   it accepts: `levels` threshold branches over a multiplicative hash of
//!   the reading. The hash defeats the solver's interval refinement, so
//!   each branch feasibility check is a real enumeration query, and each
//!   feasible split forks the execution state.
//! * Optionally each hop also runs a **parity guard** — an assertion that
//!   is true for every reading (an odd multiplier preserves the low bit)
//!   but whose refutation the solver can only establish by sweeping the
//!   whole domain it sees. That is all of `W16` — 65 537 search nodes —
//!   not `max_reading + 1`: the source's bound lives in the *source's*
//!   path condition, a hop's state never sees it, and the two are only
//!   conjoined when a dscenario's states are solved together (test-case
//!   generation, invariant checking). The guard makes per-hop solver work
//!   predictable and substantial without forking or flagging bugs.
//!
//! The result is a workload whose wall-clock is dominated by solver
//! queries with *cross-batch* variable references (readings are minted at
//! send time, branched on at delivery time): receive-side dispatches mint
//! nothing, so the sharded engine's workers can execute them for the
//! merge thread — and the `workers` axis of the benches measures that.
//!
//! Payload layout: `[seq: i16, reading: i16]`; `on_recv` arity is 3.

use crate::handlers::{self, timers};
use crate::layout;
use crate::rime;
use sde_net::{NodeId, Topology};
use sde_symbolic::{BinOp, Width};
use sde_vm::{FunctionBuilder, Program, ProgramBuilder, Reg};

/// Number of payload words a sense packet carries.
pub const PAYLOAD_WORDS: usize = 2;

/// Odd 16-bit multipliers used to hash readings, indexed per (node,
/// level). Oddness matters: it keeps the multiplication a bijection mod
/// 2^16 (both classification arms stay feasible) and preserves the low
/// bit's parity (the parity guard is a tautology).
const PRIMES: [u64; 8] = [31, 73, 151, 211, 331, 397, 467, 541];

/// Scenario parameters for the sense workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SenseConfig {
    /// The sampling node.
    pub source: NodeId,
    /// The destination node.
    pub sink: NodeId,
    /// Sampling period in virtual milliseconds.
    pub interval_ms: u64,
    /// How many readings the source samples and transmits.
    pub packet_count: u16,
    /// Upper bound the *source* assumes on each reading
    /// (`reading <= max_reading`). It bounds the readings of generated test
    /// cases — the assume joins the hops' constraints when a dscenario is
    /// solved as a whole — but it is **not** a hop's enumeration domain:
    /// the constraint never reaches a hop's path condition, so a hop's
    /// whole-domain UNSAT proof sweeps all of `W16` (65 537 search nodes)
    /// whatever this is set to.
    pub max_reading: u16,
    /// Threshold classification branches per accepting hop; each level
    /// can fork the execution state two ways.
    pub levels: u16,
    /// Emit the parity guard (an always-true assertion whose refutation
    /// costs a whole-domain sweep) at each accepting hop.
    pub parity_guard: bool,
}

impl SenseConfig {
    /// The default configuration for a `width × height` grid: corner to
    /// corner like
    /// [`CollectConfig::paper_grid`](crate::apps::collect::CollectConfig::paper_grid),
    /// but with fewer
    /// packets (classification forks multiply per hop) and byte-sized
    /// readings in the generated test cases.
    pub fn paper_grid(width: u16, height: u16) -> SenseConfig {
        SenseConfig {
            source: NodeId(width * height - 1),
            sink: NodeId(0),
            interval_ms: 1000,
            packet_count: 2,
            max_reading: 255,
            levels: 1,
            parity_guard: true,
        }
    }
}

/// Emits the classification ladder (and optional parity guard) for one
/// accepting hop: `levels` two-way threshold branches over multiplicative
/// hashes of `reading`, bumping [`layout::CLASS_LOW`] or
/// [`layout::CLASS_HIGH`] per level.
fn classify(f: &mut FunctionBuilder, node: NodeId, cfg: &SenseConfig, reading: Reg) {
    for level in 0..cfg.levels {
        let prime = PRIMES[(node.0 as usize + level as usize) % PRIMES.len()];
        let salt = u64::from(node.0) * 259 + u64::from(level) * 97;

        // mix = reading * prime + salt (wrapping, 16-bit). The product
        // hides `reading` from interval refinement, so the branch below
        // costs two genuine enumeration queries.
        let p = f.imm(prime, Width::W16);
        let scaled = f.reg();
        f.bin(BinOp::Mul, scaled, reading, p);
        let s = f.imm(salt & 0xffff, Width::W16);
        let mix = f.reg();
        f.bin(BinOp::Add, mix, scaled, s);

        if cfg.parity_guard {
            // (reading * prime) & 1 == reading & 1 holds for every odd
            // prime; proving the negation unsatisfiable forces the solver
            // to sweep every 16-bit value (the hop's state carries no bound
            // on the reading). AlwaysTrue: no fork, no bug — just work.
            let one = f.imm(1, Width::W16);
            let scaled_bit = f.reg();
            f.bin(BinOp::And, scaled_bit, scaled, one);
            let reading_bit = f.reg();
            f.bin(BinOp::And, reading_bit, reading, one);
            let same = f.reg();
            f.bin(BinOp::Eq, same, scaled_bit, reading_bit);
            f.assert(same, "sense: odd multiplier must preserve parity");
        }

        // Threshold split at mid-range: both arms are feasible for any
        // non-trivial reading domain, so this forks the state.
        let threshold = f.imm(0x8000, Width::W16);
        let is_low = f.reg();
        f.bin(BinOp::Ult, is_low, mix, threshold);
        let low = f.label();
        let high = f.label();
        let next = f.label();
        f.br(is_low, low, high);
        f.place(low);
        rime::inc16(f, layout::CLASS_LOW);
        f.jmp(next);
        f.place(high);
        rime::inc16(f, layout::CLASS_HIGH);
        f.place(next);
    }
}

/// Builds the sense program for one node (source, forwarder, sink or
/// bystander relative to the static `source → sink` route).
///
/// # Panics
///
/// Panics when `cfg.sink` is unreachable from `cfg.source` in `topology`.
pub fn node_program(topology: &Topology, cfg: &SenseConfig, node: NodeId) -> Program {
    let route = topology
        .route(cfg.source, cfg.sink)
        .expect("sink must be reachable from source");
    let position = route.iter().position(|&n| n == node);
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

    // --- on_timer(timer_id): sample a symbolic reading and broadcast it ----
    {
        let cfg = cfg.clone();
        let topology = topology.clone();
        pb.function(handlers::ON_TIMER, 1, move |f| {
            if !is_source {
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
            let reading = f.reg();
            f.make_symbolic(reading, "reading", Width::W16);
            // Bound the reading on the source's own path: a refinable
            // top-level comparison, which narrows the source's queries and
            // the whole-dscenario solves that conjoin this path condition
            // with the hops'. The hops' own queries never see it.
            let bound = f.imm(u64::from(cfg.max_reading), Width::W16);
            let in_domain = f.reg();
            f.bin(BinOp::Ule, in_domain, reading, bound);
            f.assume(in_domain);
            rime::broadcast(f, &topology, node, &[seq, reading]);
            rime::inc16(f, layout::SEQ);
            let delay = f.imm(cfg.interval_ms, Width::W64);
            f.set_timer(delay, timers::SEND);
            f.place(done);
            f.ret(None);
        });
    }

    // --- on_recv(src, seq, reading) -----------------------------------------
    {
        let cfg = cfg.clone();
        let topology = topology.clone();
        pb.function(handlers::ON_RECV, (1 + PAYLOAD_WORDS) as u16, move |f| {
            let src = f.param(0);
            let seq = f.param(1);
            let reading = f.param(2);
            let ignore = f.label();

            match upstream {
                Some(up) if is_sink => {
                    let expected_src = f.imm(u64::from(up.0), Width::W16);
                    let from_up = f.reg();
                    f.bin(BinOp::Eq, from_up, src, expected_src);
                    let accept = f.label();
                    f.br(from_up, accept, ignore);
                    f.place(accept);
                    classify(f, node, &cfg, reading);
                    rime::inc16(f, layout::RECEIVED);
                    let _ = seq;
                    f.ret(None);
                }
                Some(up) => {
                    let expected_src = f.imm(u64::from(up.0), Width::W16);
                    let from_up = f.reg();
                    f.bin(BinOp::Eq, from_up, src, expected_src);
                    let forward = f.label();
                    f.br(from_up, forward, ignore);
                    f.place(forward);
                    classify(f, node, &cfg, reading);
                    // Re-broadcast the (still symbolic, now classified)
                    // reading downstream.
                    rime::broadcast(f, &topology, node, &[seq, reading]);
                    rime::inc16(f, layout::FORWARDED);
                    f.ret(None);
                }
                None => {
                    // Bystanders only count — classifying here too would
                    // fork every overhearing neighbor and explode the
                    // state space without adding route coverage.
                    f.jmp(ignore);
                }
            }

            f.place(ignore);
            rime::inc16(f, layout::HEARD);
            f.ret(None);
        });
    }

    pb.build().expect("sense program is well-formed")
}

/// Builds the per-node programs for a whole scenario, indexed by node id.
pub fn programs(topology: &Topology, cfg: &SenseConfig) -> Vec<Program> {
    topology
        .nodes()
        .map(|n| node_program(topology, cfg, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handlers::{ON_BOOT, ON_RECV, ON_TIMER};
    use sde_symbolic::{Expr, Solver, SymbolTable, Value};
    use sde_vm::{run_to_completion, Syscall, VmCtx, VmState};

    fn line_cfg() -> SenseConfig {
        SenseConfig {
            source: NodeId(2),
            sink: NodeId(0),
            interval_ms: 500,
            packet_count: 2,
            max_reading: 63,
            levels: 1,
            parity_guard: true,
        }
    }

    #[test]
    fn source_ships_a_symbolic_reading() {
        let t = Topology::line(3);
        let cfg = line_cfg();
        let p = node_program(&t, &cfg, NodeId(2));
        let solver = Solver::new();
        let mut symbols = SymbolTable::new();
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        let s0 = VmState::fresh(&p);
        let out = run_to_completion(&p, s0.prepared(&p, ON_BOOT, &[]).unwrap(), &mut ctx);
        let (s1, _) = out.finished.into_iter().next().unwrap();
        let timer_arg = [Value::const_(u64::from(timers::SEND), Width::W16)];
        let out = run_to_completion(&p, s1.prepared(&p, ON_TIMER, &timer_arg).unwrap(), &mut ctx);
        assert!(out.bugged.is_empty());
        assert_eq!(out.finished.len(), 1, "the source itself must not fork");
        let (_, fx) = &out.finished[0];
        match &fx[0] {
            Syscall::Send { payload, .. } => {
                assert_eq!(payload[0].as_const(), Some(0), "seq is concrete");
                assert!(payload[1].as_const().is_none(), "reading is symbolic");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(symbols.len(), 1, "one reading minted");
    }

    #[test]
    fn forwarder_forks_per_level_and_guard_stays_silent() {
        let t = Topology::line(3); // route 2 → 1 → 0
        let cfg = line_cfg();
        let p = node_program(&t, &cfg, NodeId(1));
        let solver = Solver::new();
        let mut symbols = SymbolTable::new();
        let reading = Value::from(Expr::sym(symbols.fresh("reading", Width::W16)));
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        let w16 = Width::W16;
        let args = [Value::const_(2, w16), Value::const_(0, w16), reading];
        let s0 = VmState::fresh(&p);
        let out = run_to_completion(&p, s0.prepared(&p, ON_RECV, &args).unwrap(), &mut ctx);
        assert!(
            out.bugged.is_empty(),
            "parity guard must hold: {:?}",
            out.bugged.first().map(|s| s.status())
        );
        // One threshold level → exactly two classification outcomes, both
        // of which re-broadcast the reading.
        assert_eq!(out.finished.len(), 2);
        for (_state, fx) in &out.finished {
            let sends = fx
                .iter()
                .filter(|e| matches!(e, Syscall::Send { .. }))
                .count();
            assert_eq!(sends, 2, "line node 1 forwards to both neighbors");
        }
        let stats = solver.stats();
        assert!(stats.queries > 0, "classification must query the solver");
        assert!(stats.unsat > 0, "the parity guard costs an UNSAT proof");
        // The hop never sees the source's `reading <= max_reading` (63
        // here): refuting the guard sweeps the reading's whole width.
        assert!(
            stats.nodes_visited >= 1 << 16,
            "parity-guard refutation visited {} nodes",
            stats.nodes_visited
        );
    }

    #[test]
    fn bystander_only_counts() {
        let t = Topology::grid(3, 3);
        let cfg = SenseConfig::paper_grid(3, 3);
        let route = t.route(cfg.source, cfg.sink).unwrap();
        let bystander = t.nodes().find(|n| !route.contains(n)).unwrap();
        let p = node_program(&t, &cfg, bystander);
        let solver = Solver::new();
        let mut symbols = SymbolTable::new();
        let reading = Value::from(Expr::sym(symbols.fresh("reading", Width::W16)));
        let mut ctx = VmCtx::new(&solver, &mut symbols);
        let w16 = Width::W16;
        let args = [
            Value::const_(u64::from(cfg.source.0), w16),
            Value::const_(0, w16),
            reading,
        ];
        let s0 = VmState::fresh(&p);
        let out = run_to_completion(&p, s0.prepared(&p, ON_RECV, &args).unwrap(), &mut ctx);
        assert!(out.bugged.is_empty());
        assert_eq!(out.finished.len(), 1, "bystanders never fork");
        assert_eq!(
            out.finished[0].0.memory_byte(layout::HEARD).as_const(),
            Some(1)
        );
        assert_eq!(solver.stats().queries, 0, "bystanders never query");
    }

    #[test]
    fn paper_grid_defaults_build_everywhere() {
        let cfg = SenseConfig::paper_grid(3, 3);
        assert_eq!(cfg.source, NodeId(8));
        assert_eq!(cfg.sink, NodeId(0));
        let t = Topology::grid(3, 3);
        let ps = programs(&t, &cfg);
        assert_eq!(ps.len(), 9);
    }
}
