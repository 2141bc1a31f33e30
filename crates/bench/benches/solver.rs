//! Solver microbenchmarks: branch-feasibility queries dominate SDE time
//! (every symbolic branch of every state consults the solver).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sde_symbolic::{Expr, ExprRef, PathCondition, Solver, SymbolTable, Width};

/// A path condition shaped like the grid workload's: many independent
/// boolean drop decisions plus a few byte-range constraints.
fn workload_pc(bools: usize, bytes: usize) -> (PathCondition, SymbolTable) {
    let mut t = SymbolTable::new();
    let mut pc = PathCondition::new();
    for i in 0..bools {
        let d = Expr::sym(t.fresh("drop", Width::BOOL));
        pc = pc.with(if i % 2 == 0 { d } else { Expr::not(d) });
    }
    for _ in 0..bytes {
        let x = Expr::sym(t.fresh("hdr", Width::W8));
        pc = pc
            .with(Expr::ult(x.clone(), Expr::const_(200, Width::W8)))
            .with(Expr::ne(x, Expr::const_(0, Width::W8)));
    }
    (pc, t)
}

fn bench_feasibility(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/feasibility");
    for (bools, bytes) in [(4usize, 1usize), (16, 2), (64, 4)] {
        let (pc, mut table) = workload_pc(bools, bytes);
        let probe = Expr::sym(table.fresh("probe", Width::BOOL));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{bools}b{bytes}B")),
            &(pc, probe),
            |b, (pc, probe)| {
                b.iter(|| {
                    // Fresh solver each iteration: measure uncached cost.
                    let solver = Solver::new();
                    black_box(solver.may_be_true(pc, probe))
                })
            },
        );
    }
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/cache");
    let (pc, _t) = workload_pc(32, 4);
    group.bench_function("repeat_query_cached", |b| {
        let solver = Solver::new();
        let _ = solver.check(&pc); // warm
        b.iter(|| black_box(solver.check(&pc).is_sat()))
    });
    group.bench_function("repeat_query_uncached", |b| {
        let solver = Solver::new();
        solver.set_caching(false);
        b.iter(|| black_box(solver.check(&pc).is_sat()))
    });
    group.finish();
}

fn bench_linked_constraints(c: &mut Criterion) {
    // One dependent cluster the independence partitioner cannot split.
    let mut group = c.benchmark_group("solver/linked");
    for n in [2usize, 3, 4] {
        let mut t = SymbolTable::new();
        let vars: Vec<ExprRef> = (0..n)
            .map(|i| Expr::sym(t.fresh(&format!("v{i}"), Width::W8)))
            .collect();
        let mut pc = PathCondition::new();
        for w in vars.windows(2) {
            pc = pc.with(Expr::eq(
                Expr::add(w[0].clone(), Expr::const_(1, Width::W8)),
                w[1].clone(),
            ));
        }
        pc = pc.with(Expr::ult(vars[0].clone(), Expr::const_(16, Width::W8)));
        group.bench_with_input(BenchmarkId::from_parameter(n), &pc, |b, pc| {
            b.iter(|| {
                let solver = Solver::new();
                black_box(solver.model(pc).is_some())
            })
        });
    }
    group.finish();
}

fn bench_layer_stack(c: &mut Criterion) {
    // The acceptance bench for the incremental solver stack (DESIGN.md
    // §6): a stream of *related* queries — each one re-uses seven of
    // eight independent constraint groups and perturbs the eighth — so
    // whole-query exact matching never hits (every query key differs)
    // while per-group caching and counterexample reuse answer almost
    // everything incrementally.
    let mut group = c.benchmark_group("solver/layers");
    let mut t = SymbolTable::new();
    let vars: Vec<ExprRef> = (0..8)
        .map(|i| Expr::sym(t.fresh(&format!("x{i}"), Width::W8)))
        .collect();
    let mut base = PathCondition::new();
    for x in &vars {
        base = base
            .with(Expr::ult(x.clone(), Expr::const_(200, Width::W8)))
            .with(Expr::ne(x.clone(), Expr::const_(0, Width::W8)));
    }
    let queries: Vec<PathCondition> = (0..24u64)
        .map(|j| {
            let x = &vars[(j % 8) as usize];
            base.clone()
                .with(Expr::ugt(x.clone(), Expr::const_(1 + j % 64, Width::W8)))
        })
        .collect();
    type Setup = fn(&Solver);
    let configs: [(&str, Setup); 3] = [
        ("full_stack", |_| {}),
        ("exact_match_only", |s| {
            s.set_group_caching(false);
            s.set_cex_caching(false);
        }),
        ("uncached", |s| {
            s.set_caching(false);
            s.set_cex_caching(false);
        }),
    ];
    for (name, setup) in configs {
        group.bench_function(name, |b| {
            b.iter(|| {
                let solver = Solver::new();
                setup(&solver);
                let mut sat = 0u32;
                for q in &queries {
                    if solver.check(q).is_sat() {
                        sat += 1;
                    }
                }
                black_box(sat)
            })
        });
    }
    group.finish();
}

fn bench_renamed(c: &mut Criterion) {
    // What keying the exact cache by canonical form buys (DESIGN.md §6):
    // one constraint shape asked under 64 symbols minted one after the
    // other — what 64 forked copies of a sender produce — against a fresh
    // solver per iteration. Keyed by symbol that is 64 solves; keyed
    // modulo order-preserving renaming it is one solve and 63 hits, so
    // solver cost stops scaling with the symbols minted.
    let mut group = c.benchmark_group("solver/renamed");
    let mut t = SymbolTable::new();
    // The sense app's parity guard, negated as `must_be_true` asks it:
    // UNSAT, and refuted only by sweeping all of W16.
    let parity_guard: Vec<PathCondition> = (0..64)
        .map(|_| {
            let reading = Expr::sym(t.fresh("reading", Width::W16));
            let one = Expr::const_(1, Width::W16);
            let scaled = Expr::mul(reading.clone(), Expr::const_(151, Width::W16));
            PathCondition::new().with(Expr::ne(
                Expr::and(scaled, one.clone()),
                Expr::and(reading, one),
            ))
        })
        .collect();
    // A two-variable group, where ranks (not just one anonymous symbol)
    // carry the renaming: a + 3 < b ∧ b < 40.
    let comparison: Vec<PathCondition> = (0..64)
        .map(|_| {
            let a = Expr::sym(t.fresh("a", Width::W8));
            let b = Expr::sym(t.fresh("b", Width::W8));
            PathCondition::new()
                .with(Expr::ult(
                    Expr::add(a, Expr::const_(3, Width::W8)),
                    b.clone(),
                ))
                .with(Expr::ult(b, Expr::const_(40, Width::W8)))
        })
        .collect();
    for (name, queries) in [
        ("parity_guard_x64", parity_guard),
        ("two_var_comparison_x64", comparison),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let solver = Solver::new();
                let sat = queries.iter().filter(|q| solver.check(q).is_sat()).count();
                black_box((sat, solver.stats().nodes_visited))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_feasibility,
    bench_cache,
    bench_linked_constraints,
    bench_layer_stack,
    bench_renamed
);
criterion_main!(benches);
