//! State-mapping microbenchmarks: the per-transmission cost of each
//! algorithm as network size and rival pressure grow — the quantity
//! §III-E's analysis bounds and Table I aggregates.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sde_core::mapping::{Algorithm, MemoryStore};

/// One conflicted transmission: the sender has a rival, so COW forks the
/// whole dstate (k − 1 states) while SDS forks one target.
fn bench_conflicted_send(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapping/conflicted_send");
    for k in [10u16, 50, 64, 100] {
        for alg in Algorithm::ALL {
            group.bench_with_input(
                BenchmarkId::new(alg.name(), k),
                &(alg, k),
                |b, &(alg, k)| {
                    b.iter(|| {
                        let mut mapper = alg.new_mapper();
                        let mut store = MemoryStore::booted(mapper.as_mut(), k);
                        // One local branch creates the rival (for COB this
                        // is where the k−1 forks happen).
                        store.branch(mapper.as_mut(), store.state(0));
                        // The conflicted transmission.
                        let d = mapper.map_send(
                            store.state(0),
                            store.node(0),
                            store.node(1),
                            &mut store,
                        );
                        black_box((d.receivers.len(), store.forks().len()))
                    })
                },
            );
        }
    }
    group.finish();
}

/// A burst of conflict-free sends after the dust settles: the steady
/// state of a quiet network.
fn bench_quiet_sends(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapping/quiet_sends");
    for alg in Algorithm::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(alg.name()), &alg, |b, &alg| {
            b.iter(|| {
                let mut mapper = alg.new_mapper();
                let mut store = MemoryStore::booted(mapper.as_mut(), 50);
                for i in 0..49u16 {
                    let d = mapper.map_send(
                        store.state(u64::from(i)),
                        store.node(i),
                        store.node(i + 1),
                        &mut store,
                    );
                    black_box(d.receivers.len());
                }
                black_box(store.forks().len())
            })
        });
    }
    group.finish();
}

/// The grid pattern in miniature: repeated branch-then-send rounds.
/// COB's cost explodes with rounds; SDS stays near-linear.
fn bench_branch_send_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapping/branch_send_rounds");
    group.sample_size(20);
    for alg in Algorithm::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(alg.name()), &alg, |b, &alg| {
            b.iter(|| {
                let mut mapper = alg.new_mapper();
                let mut store = MemoryStore::booted(mapper.as_mut(), 20);
                for round in 0..6u64 {
                    let sender = store.state(round % 3);
                    store.branch(mapper.as_mut(), sender);
                    let d = mapper.map_send(
                        sender,
                        store.node((round % 3) as u16),
                        store.node(10),
                        &mut store,
                    );
                    black_box(d.receivers.len());
                }
                black_box((store.len(), mapper.group_count()))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_conflicted_send,
    bench_quiet_sends,
    bench_branch_send_rounds
);
criterion_main!(benches);
