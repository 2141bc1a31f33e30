//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **virtual-state sharing** — SDS with sharing removed *is* COW (the
//!   indirection layer is the entire difference), so the COW row of each
//!   comparison doubles as the "SDS minus virtual states" ablation;
//! * **solver query cache** on/off;
//! * **communication-history tracking** (digest-only vs full log) on/off;
//! * **statistics sampling period**.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sde_bench::{paper_scenario, symbolic_grid};
use sde_core::{run, Algorithm, Engine};
use sde_symbolic::{Expr, PathCondition, Solver, SymbolTable, Width};

fn bench_virtual_state_sharing(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/virtual_states");
    group.sample_size(10);
    let scenario = paper_scenario(4).with_sample_every(10_000);
    // with sharing = SDS; without sharing = COW.
    group.bench_function("with(SDS)", |b| {
        b.iter(|| black_box(run(&scenario, Algorithm::Sds).total_states))
    });
    group.bench_function("without(COW)", |b| {
        b.iter(|| black_box(run(&scenario, Algorithm::Cow).total_states))
    });
    group.finish();
}

fn bench_solver_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/solver_cache");
    // The engine re-asks near-identical feasibility queries as sibling
    // states branch; replicate that access pattern directly.
    let mut t = SymbolTable::new();
    let mut pc = PathCondition::new();
    for i in 0..24 {
        let d = Expr::sym(t.fresh("drop", Width::BOOL));
        pc = pc.with(if i % 2 == 0 { d } else { Expr::not(d) });
    }
    let probes: Vec<_> = (0..8)
        .map(|_| Expr::sym(t.fresh("probe", Width::BOOL)))
        .collect();
    // One config per layer of the incremental stack (DESIGN.md §6):
    // everything on, whole-query exact matching only, and fully uncached.
    type Setup = fn(&Solver);
    let configs: [(&str, Setup); 3] = [
        ("full", |_| {}),
        ("exact_only", |s| s.set_group_caching(false)),
        ("off", |s| s.set_caching(false)),
    ];
    for (name, setup) in configs {
        group.bench_with_input(BenchmarkId::from_parameter(name), &setup, |b, setup| {
            b.iter(|| {
                let solver = Solver::new();
                setup(&solver);
                let mut sat = 0u32;
                for _ in 0..16 {
                    for p in &probes {
                        if solver.may_be_true(&pc, p) {
                            sat += 1;
                        }
                    }
                }
                black_box(sat)
            })
        });
    }
    group.finish();
}

fn bench_history_tracking(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/history_tracking");
    group.sample_size(10);
    for (name, track) in [("digest_only", false), ("full_log", true)] {
        let scenario = paper_scenario(4)
            .with_history_tracking(track)
            .with_sample_every(10_000);
        group.bench_with_input(BenchmarkId::from_parameter(name), &scenario, |b, s| {
            b.iter(|| black_box(run(s, Algorithm::Sds).final_bytes))
        });
    }
    group.finish();
}

fn bench_sampling_period(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/sampling_period");
    group.sample_size(10);
    for every in [16u64, 256, 4096] {
        let scenario = paper_scenario(4).with_sample_every(every);
        group.bench_with_input(BenchmarkId::from_parameter(every), &scenario, |b, s| {
            b.iter(|| black_box(run(s, Algorithm::Sds).total_states))
        });
    }
    group.finish();
}

fn bench_sharding(c: &mut Criterion) {
    // Sharded execution on/off: `off` is the sequential engine, `w<N>`
    // the sharded engine with N workers, on the solver-bound sense
    // workload. The delta isolates what the hand-off and merge cost
    // (single core) or save (spare cores).
    let mut group = c.benchmark_group("ablation/sharding");
    group.sample_size(10);
    let scenario = symbolic_grid(3).with_sample_every(10_000);
    group.bench_function("off", |b| {
        b.iter(|| black_box(run(&scenario, Algorithm::Sds).total_states))
    });
    for workers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("on", format!("w{workers}")),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let r = Engine::new(scenario.clone(), Algorithm::Sds).run_sharded(workers);
                    black_box(r.total_states)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_virtual_state_sharing,
    bench_solver_cache,
    bench_history_tracking,
    bench_sampling_period,
    bench_sharding
);
criterion_main!(benches);
