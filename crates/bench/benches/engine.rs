//! End-to-end engine benchmarks: the paper's scenario at small scale,
//! per algorithm — the microscale version of Table I.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sde_bench::{paper_scenario, symbolic_grid};
use sde_core::store::Store;
use sde_core::{run, Algorithm, Engine, NodeEvent, Scenario, SdeState, StateId, StateStore};
use sde_net::{FailureConfig, FaultPlan, NodeId, Topology};
use sde_os::apps::hello::{self, HelloConfig};
use sde_vm::{ProgramBuilder, VmState};

fn bench_paper_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/grid_collect");
    group.sample_size(10);
    for side in [3u16, 4] {
        let scenario = paper_scenario(side).with_sample_every(10_000);
        for alg in Algorithm::ALL {
            group.bench_with_input(
                BenchmarkId::new(alg.name(), side * side),
                &(scenario.clone(), alg),
                |b, (scenario, alg)| {
                    b.iter(|| {
                        let r = run(scenario, *alg);
                        black_box(r.total_states)
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_failure_free(c: &mut Criterion) {
    // No symbolic input at all: pure simulation cost (the mapping
    // algorithms should all be cheap and equal here).
    let mut group = c.benchmark_group("engine/hello_ring");
    let topology = Topology::ring(16);
    let programs = hello::programs(&topology, &HelloConfig::default());
    let scenario = Scenario::new(topology, programs).with_sample_every(10_000);
    for alg in Algorithm::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(alg.name()),
            &(scenario.clone(), alg),
            |b, (scenario, alg)| b.iter(|| black_box(run(scenario, *alg).packets)),
        );
    }
    group.finish();
}

fn bench_parallel_workers(c: &mut Criterion) {
    // The workers axis, on the solver-bound sense workload (symbolic
    // readings classified per hop) where shard workers have queries to
    // take off the merge thread. `seq` is the sequential baseline; `w<N>`
    // runs `Engine::run_sharded(N)`. Wall-clock gains need spare cores —
    // on a single-core host this axis measures the hand-off overhead
    // bound instead.
    let mut group = c.benchmark_group("engine/parallel_workers");
    group.sample_size(10);
    let scenario = symbolic_grid(3).with_sample_every(10_000);
    for alg in [Algorithm::Cow, Algorithm::Sds] {
        group.bench_with_input(
            BenchmarkId::new(alg.name(), "seq"),
            &(scenario.clone(), alg),
            |b, (scenario, alg)| b.iter(|| black_box(run(scenario, *alg).total_states)),
        );
        for workers in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(alg.name(), format!("w{workers}")),
                &(scenario.clone(), alg, workers),
                |b, (scenario, alg, workers)| {
                    b.iter(|| {
                        let r = Engine::new(scenario.clone(), *alg).run_sharded(*workers);
                        black_box(r.total_states)
                    })
                },
            );
        }
    }
    group.finish();
}

/// A store holding `states` idle boot states.
fn populated_store(states: u64) -> Store {
    let mut pb = ProgramBuilder::new();
    pb.function("on_boot", 0, |f| f.ret(None));
    let vm = VmState::fresh(&pb.build().expect("program builds"));
    let mut store = Store::default();
    for _ in 0..states {
        let id = store.allocate_id();
        store.states.insert(SdeState::boot(
            id,
            NodeId(0),
            vm.clone(),
            &FailureConfig::new(),
            &FaultPlan::new(),
            false,
        ));
    }
    store
}

/// The two per-event store costs that used to grow with the run
/// (DESIGN.md §3): a fork copying its own two pending events while
/// `queued` events of other states wait, and a sample over `resident`
/// states. `kept` reads the totals the table maintains; `rescan` is
/// `totals_reference`, the walk `Engine::sample` did before. Flat in the
/// parameter is the pass criterion for `fork` and `sample/kept`.
fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    for queued in [1_000u64, 100_000] {
        let mut store = populated_store(2);
        let (parent, other) = (StateId(0), StateId(1));
        for i in 0..queued {
            store.events.push(1 + i % 500, (other, NodeEvent::Timer(0)));
        }
        store.events.push(700, (parent, NodeEvent::Timer(1)));
        store.events.push(700, (parent, NodeEvent::Timer(2)));
        group.bench_function(BenchmarkId::new("fork", queued), |b| {
            b.iter(|| {
                let child = store.fork(black_box(parent));
                // Take the child out again so every iteration forks
                // against the same table and the same live events.
                store.events.clear(child);
                store.states.remove(&child)
            })
        });
    }
    // The same fork among 100 000 resident states: the table is a vector
    // of boxes indexed by id, so the residents are neither hashed past nor
    // moved when it grows. Flat against `fork/1000` is the pass criterion.
    {
        let mut store = populated_store(100_000);
        let parent = StateId(0);
        store.events.push(700, (parent, NodeEvent::Timer(1)));
        store.events.push(700, (parent, NodeEvent::Timer(2)));
        group.bench_function(BenchmarkId::new("fork/residents", 100_000), |b| {
            b.iter(|| {
                let child = store.fork(black_box(parent));
                store.events.clear(child);
                store.states.remove(&child)
            })
        });
    }
    // The run loop's queue step with `queued` keys waiting: pop the
    // earliest event, schedule its state's next one 500 ms later (every
    // time in 1..=500 holds keys, so that is the latest time yet). Four
    // events per state keep the per-state lists short. A binary heap pays
    // `log queued` per pop; the calendar queue's pop does not look at the
    // other keys, so flat in `queued` is the pass criterion.
    for queued in [1_000u64, 100_000, 1_000_000] {
        let mut store = Store::default();
        for i in 0..queued {
            store
                .events
                .push(1 + i % 500, (StateId(i / 4), NodeEvent::Timer(0)));
        }
        group.bench_function(BenchmarkId::new("pop", queued), |b| {
            b.iter(|| {
                let event = store.events.pop().expect("the queue stays full");
                store
                    .events
                    .push(event.time + 500, black_box(event.payload))
            })
        });
    }
    for resident in [1_000u64, 100_000] {
        let store = populated_store(resident);
        assert_eq!(store.states.totals(), store.states.totals_reference());
        group.bench_function(BenchmarkId::new("sample/kept", resident), |b| {
            b.iter(|| black_box(&store).states.totals())
        });
        group.bench_function(BenchmarkId::new("sample/rescan", resident), |b| {
            b.iter(|| black_box(&store).states.totals_reference())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_paper_grid,
    bench_failure_free,
    bench_parallel_workers,
    bench_store
);
criterion_main!(benches);
