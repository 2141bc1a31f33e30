//! Isolated drivers: each times a fixed number of calls into one layer's
//! public functions, with nothing else on the clock. Corpora come from the
//! benchmark seed; the layer only ever sees the generated inputs.
//!
//! Every driver repeats its timed section [`ROUNDS`] times and reports
//! the median round, so one preempted round does not move the number.

use crate::stats::median;
use sde::core::mapping::{Algorithm, MemoryStore, StateMapper};
use sde::net::EventQueue;
use sde::pds::{PMap, PVec};
use sde::symbolic::{BinOp, Expr, PathCondition, Solver, SymbolTable, Width};
use sde::vm::{run_to_completion, Program, ProgramBuilder, VmCtx, VmState};
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 7;

/// splitmix64: enough randomness for corpora, no dependency.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Median seconds of `ROUNDS` runs of `timed`, each after a fresh
/// untimed `setup`.
fn median_round_s<S, T>(mut setup: impl FnMut() -> S, mut timed: impl FnMut(S) -> T) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            let out = timed(input);
            let elapsed = start.elapsed().as_secs_f64();
            black_box(out);
            elapsed
        })
        .collect();
    median(&rounds)
}

/// One named driver result.
pub type Reading = (&'static str, f64);

// ----- mapping -------------------------------------------------------------

/// Nodes in the mapping drivers' store.
const MAPPING_NODES: u16 = 64;
/// Branch-then-send rounds that populate the mapper before the clock
/// starts (rivals, dstates and — for SDS — virtual states exist).
const MAPPING_WARM_ROUNDS: u64 = 6;

fn warmed_mapper(alg: Algorithm, order: &[u16]) -> (Box<dyn StateMapper>, MemoryStore) {
    let mut mapper = alg.new_mapper();
    let mut store = MemoryStore::booted(mapper.as_mut(), MAPPING_NODES);
    for round in 0..MAPPING_WARM_ROUNDS {
        let from = order[(round % 3) as usize];
        let sender = store.state(u64::from(from));
        store.branch(mapper.as_mut(), sender);
        let to = order[10 + round as usize];
        black_box(mapper.map_send(sender, store.node(from), store.node(to), &mut store));
    }
    (mapper, store)
}

/// Laps of the seeded ring each timed round sends around.
const MAPPING_LAPS: usize = 64;

/// `map_send` calls per second on a warmed mapper: every boot state sends
/// to the next node of a seeded ring, [`MAPPING_LAPS`] times around.
fn mapping_sends_per_s(alg: Algorithm, order: &[u16]) -> f64 {
    let ring = order.len();
    let secs = median_round_s(
        || warmed_mapper(alg, order),
        |(mut mapper, mut store)| {
            for _ in 0..MAPPING_LAPS {
                for (i, &from) in order.iter().enumerate() {
                    let to = order[(i + 1) % ring];
                    let d = mapper.map_send(
                        store.state(u64::from(from)),
                        store.node(from),
                        store.node(to),
                        &mut store,
                    );
                    black_box(d.receivers.len());
                }
            }
            store.len()
        },
    );
    (ring * MAPPING_LAPS) as f64 / secs
}

/// COB `on_branch` calls per second: every boot state branches once, in
/// seeded order, and each branch forks all 63 peers of its dscenario.
fn cob_branches_per_s(order: &[u16]) -> f64 {
    let secs = median_round_s(
        || {
            let mut mapper = Algorithm::Cob.new_mapper();
            let store = MemoryStore::booted(mapper.as_mut(), MAPPING_NODES);
            (mapper, store)
        },
        |(mut mapper, mut store)| {
            for &node in order {
                let parent = store.state(u64::from(node));
                black_box(store.branch(mapper.as_mut(), parent));
            }
            store.len()
        },
    );
    order.len() as f64 / secs
}

fn mapping(rng: &mut Rng) -> Vec<Reading> {
    // A seeded permutation of the nodes (Fisher–Yates).
    let mut order: Vec<u16> = (0..MAPPING_NODES).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    vec![
        (
            "mapping.drv_sds_send_per_s",
            mapping_sends_per_s(Algorithm::Sds, &order),
        ),
        (
            "mapping.drv_cow_send_per_s",
            mapping_sends_per_s(Algorithm::Cow, &order),
        ),
        ("mapping.drv_cob_branch_per_s", cob_branches_per_s(&order)),
    ]
}

// ----- solver --------------------------------------------------------------

/// Path conditions shaped like the sense workload's: a 16-bit reading
/// bounded to a byte-sized domain, then one to three threshold tests over
/// odd-multiplier hashes of it (the product hides the reading from
/// interval refinement, so each cold query is a real enumeration).
fn sense_corpus(rng: &mut Rng, queries: usize) -> Vec<PathCondition> {
    let mut table = SymbolTable::new();
    (0..queries)
        .map(|_| {
            let reading = Expr::sym(table.fresh("reading", Width::W16));
            let mut pc = PathCondition::new().with(Expr::ule(
                reading.clone(),
                Expr::const_(200 + rng.below(56), Width::W16),
            ));
            for _ in 0..1 + rng.below(3) {
                let prime = Expr::const_(2 * rng.below(300) + 3, Width::W16);
                let salt = Expr::const_(rng.below(1 << 16), Width::W16);
                let mix = Expr::add(Expr::mul(reading.clone(), prime), salt);
                let low = Expr::ult(mix, Expr::const_(0x8000, Width::W16));
                pc = pc.with(if rng.below(2) == 0 {
                    low
                } else {
                    Expr::not(low)
                });
            }
            pc
        })
        .collect()
}

fn solver(rng: &mut Rng) -> Vec<Reading> {
    const QUERIES: usize = 2_000;
    let corpus = sense_corpus(rng, QUERIES);
    let ask = |solver: &Solver| corpus.iter().filter(|pc| solver.check(pc).is_sat()).count();
    // Cold: an empty cache answers nothing above the search.
    let cold = median_round_s(Solver::new, |solver| ask(&solver));
    // Warm: the same corpus against a solver that has seen it once.
    let warm = median_round_s(
        || {
            let solver = Solver::new();
            black_box(ask(&solver));
            solver
        },
        |solver| ask(&solver),
    );
    vec![
        ("solver.drv_cold_per_s", QUERIES as f64 / cold),
        ("solver.drv_warm_per_s", QUERIES as f64 / warm),
    ]
}

// ----- vm ------------------------------------------------------------------

fn build(pb: ProgramBuilder) -> Program {
    pb.build().expect("driver program assembles")
}

/// A concrete counting loop: pure interpreter throughput.
fn loop_program(iterations: u64) -> Program {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, move |f| {
        let i = f.reg();
        f.const_(i, 0, Width::W64);
        let limit = f.imm(iterations, Width::W64);
        let one = f.imm(1, Width::W64);
        let (top, body, out) = (f.label(), f.label(), f.label());
        f.place(top);
        let done = f.reg();
        f.bin(BinOp::Ule, done, limit, i);
        f.br(done, out, body);
        f.place(body);
        f.bin(BinOp::Add, i, i, one);
        f.jmp(top);
        f.place(out);
        f.ret(None);
    });
    build(pb)
}

/// A ladder of `depth` symbolic branches: 2^depth leaves.
fn ladder_program(depth: u16) -> Program {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, move |f| {
        for i in 0..depth {
            let b = f.reg();
            f.make_symbolic(b, &format!("b{i}"), Width::BOOL);
            let (yes, no) = (f.label(), f.label());
            f.br(b, yes, no);
            f.place(yes);
            f.nop();
            f.jmp(no);
            f.place(no);
        }
        f.ret(None);
    });
    build(pb)
}

/// Runs `main` of `program` to completion; returns the finished states.
fn run_main(program: &Program) -> Vec<VmState> {
    let solver = Solver::new();
    let mut symbols = SymbolTable::new();
    let mut ctx = VmCtx::new(&solver, &mut symbols);
    let entry = VmState::fresh(program)
        .prepared(program, "main", &[])
        .expect("driver program has a main");
    run_to_completion(program, entry, &mut ctx)
        .finished
        .into_iter()
        .map(|(state, _)| state)
        .collect()
}

/// A finished state holding 1 KiB of written memory — what a fork copies.
fn heavy_state() -> VmState {
    let mut pb = ProgramBuilder::new();
    pb.function("main", 0, |f| {
        for i in 0..512u64 {
            let a = f.imm(i * 2, Width::W32);
            let v = f.imm(i, Width::W16);
            f.store(a, v);
        }
        f.ret(None);
    });
    run_main(&build(pb)).remove(0)
}

fn vm() -> Vec<Reading> {
    const ITERATIONS: u64 = 200_000;
    let program = loop_program(ITERATIONS);
    let mut instructions = 0u64;
    let loop_s = median_round_s(
        || (),
        |()| {
            let done = run_main(&program);
            instructions = done[0].instructions_executed();
            done.len()
        },
    );

    const DEPTH: u16 = 11;
    let ladder = ladder_program(DEPTH);
    let fork_s = median_round_s(
        || (),
        |()| {
            let leaves = run_main(&ladder).len();
            assert_eq!(leaves, 1 << DEPTH, "every branch arm is feasible");
            leaves
        },
    );

    const CLONES: u32 = 200_000;
    let heavy = heavy_state();
    let clone_s = median_round_s(
        || (),
        |()| {
            let mut footprint = 0usize;
            for _ in 0..CLONES {
                footprint += black_box(black_box(&heavy).clone()).memory_footprint();
            }
            footprint
        },
    );

    vec![
        ("vm.drv_instr_per_s", instructions as f64 / loop_s),
        ("vm.drv_fork_per_s", f64::from((1u32 << DEPTH) - 1) / fork_s),
        ("vm.drv_clone_ns", clone_s * 1e9 / f64::from(CLONES)),
    ]
}

// ----- net -----------------------------------------------------------------

/// 10⁶ queue operations with clustered timestamps: bursts of same-time
/// pushes (a broadcast's deliveries) on top of a standing backlog, each
/// burst drained before the next, as the engine's virtual-time loop does.
fn net(rng: &mut Rng) -> Vec<Reading> {
    const OPS: usize = 1_000_000;
    const BURST: usize = 16;
    const BACKLOG: usize = 4_096;
    let bursts: Vec<u64> = (0..OPS / 2 / BURST).map(|_| 1 + rng.below(50)).collect();
    let secs = median_round_s(
        || {
            let mut queue: EventQueue<u64> = EventQueue::new();
            for i in 0..BACKLOG as u64 {
                queue.push(i % 50, i);
            }
            queue
        },
        |mut queue| {
            let mut now = 0u64;
            let mut popped = 0u64;
            for (i, delay) in bursts.iter().enumerate() {
                for j in 0..BURST {
                    queue.push(now + delay, (i * BURST + j) as u64);
                }
                while queue.len() > BACKLOG {
                    now = queue.pop().expect("non-empty").time;
                    popped += 1;
                }
            }
            popped
        },
    );
    vec![("net.drv_queue_ops_per_s", OPS as f64 / secs)]
}

// ----- pds -----------------------------------------------------------------

fn pds(rng: &mut Rng) -> Vec<Reading> {
    const KEYS: u32 = 100_000;
    let keys: Vec<u32> = (0..KEYS).map(|_| rng.next() as u32).collect();
    let insert_s = median_round_s(
        || (),
        |()| {
            let mut m: PMap<u32, u64> = PMap::new();
            for &k in &keys {
                m = m.insert(k, u64::from(k));
            }
            m.len()
        },
    );

    let full: PMap<u32, u64> = keys.iter().map(|&k| (k, u64::from(k))).collect();
    const CLONES: u32 = 1_000_000;
    let clone_s = median_round_s(
        || (),
        |()| {
            let mut n = 0usize;
            for _ in 0..CLONES {
                n += black_box(black_box(&full).clone()).len();
            }
            n
        },
    );

    let push_s = median_round_s(
        || (),
        |()| {
            let mut v: PVec<u64> = PVec::new();
            for &k in &keys {
                v = v.push(u64::from(k));
            }
            v.len()
        },
    );

    vec![
        ("pds.drv_pmap_insert_per_s", f64::from(KEYS) / insert_s),
        ("pds.drv_pmap_clone_ns", clone_s * 1e9 / f64::from(CLONES)),
        ("pds.drv_pvec_push_per_s", f64::from(KEYS) / push_s),
    ]
}

/// Runs every driver.
pub fn run_all(seed: u64) -> Vec<Reading> {
    let mut rng = Rng::new(seed);
    let mut readings = mapping(&mut rng);
    readings.extend(solver(&mut rng));
    readings.extend(vm());
    readings.extend(net(&mut rng));
    readings.extend(pds(&mut rng));
    readings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_corpus_is_a_function_of_the_seed() {
        let a = sense_corpus(&mut Rng::new(7), 20);
        let b = sense_corpus(&mut Rng::new(7), 20);
        let c = sense_corpus(&mut Rng::new(8), 20);
        let render = |pcs: &[PathCondition]| format!("{pcs:?}");
        assert_eq!(render(&a), render(&b));
        assert_ne!(render(&a), render(&c));
    }

    #[test]
    fn corpus_queries_are_decided_never_unknown() {
        let solver = Solver::new();
        for pc in sense_corpus(&mut Rng::new(0), 50) {
            let result = solver.check(&pc);
            assert!(result.is_sat() || result.is_unsat());
        }
        assert_eq!(solver.stats().unknown, 0);
    }

    #[test]
    fn driver_programs_do_the_work_they_are_timed_for() {
        let done = run_main(&loop_program(100));
        assert_eq!(done.len(), 1);
        assert!(done[0].instructions_executed() >= 300);
        assert_eq!(run_main(&ladder_program(4)).len(), 16);
        assert!(heavy_state().memory_footprint() >= 1024);
    }

    #[test]
    fn a_warmed_mapper_has_rivals_to_map_around() {
        let order: Vec<u16> = (0..MAPPING_NODES).collect();
        for alg in [Algorithm::Sds, Algorithm::Cow] {
            let (mapper, store) = warmed_mapper(alg, &order);
            assert!(store.len() > usize::from(MAPPING_NODES));
            assert!(mapper.group_count() >= 1);
            assert_eq!(mapper.stats().sends_mapped, MAPPING_WARM_ROUNDS);
        }
    }
}
