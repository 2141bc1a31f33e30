//! Microbenchmarks for the persistent data structures — the substrate
//! that makes cheap state forking (and therefore COB's baseline role)
//! possible at all.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sde_pds::{PList, PMap, PVec};
use std::collections::HashMap;

fn bench_pmap(c: &mut Criterion) {
    let mut group = c.benchmark_group("pmap");
    for size in [100usize, 1000, 10_000] {
        let full: PMap<u32, u64> = (0..size as u32).map(|i| (i, u64::from(i))).collect();
        let std_full: HashMap<u32, u64> = (0..size as u32).map(|i| (i, u64::from(i))).collect();

        group.bench_with_input(BenchmarkId::new("insert", size), &size, |b, &n| {
            b.iter(|| {
                let mut m: PMap<u32, u64> = PMap::new();
                for i in 0..n as u32 {
                    m = m.insert(i, u64::from(i));
                }
                black_box(m.len())
            })
        });
        // The same inserts into a map no clone can see: every node is
        // edited in place (the VM's store path on an unshared state).
        group.bench_with_input(
            BenchmarkId::new("insert_mut_unshared", size),
            &size,
            |b, &n| {
                b.iter(|| {
                    let mut m: PMap<u32, u64> = PMap::new();
                    for i in 0..n as u32 {
                        m.insert_mut(i, u64::from(i));
                    }
                    black_box(m.len())
                })
            },
        );
        // A heap read: `u32` addresses looked up in a scattered order, so
        // the cost is the key's hash plus one descent, not a warm path.
        group.bench_with_input(BenchmarkId::new("get_u32", size), &full, |b, m| {
            b.iter(|| {
                let mut acc = 0u64;
                let mut i = 7u32;
                for _ in 0..m.len() {
                    i = i.wrapping_mul(31).wrapping_add(17) % m.len() as u32;
                    acc = acc.wrapping_add(*m.get(black_box(&i)).unwrap());
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("get", size), &full, |b, m| {
            b.iter(|| {
                let mut acc = 0u64;
                for i in 0..m.len() as u32 {
                    acc = acc.wrapping_add(*m.get(&i).unwrap());
                }
                black_box(acc)
            })
        });
        // The reason PMap exists: O(1) clone vs HashMap's O(n).
        group.bench_with_input(BenchmarkId::new("clone_persistent", size), &full, |b, m| {
            b.iter(|| black_box(m.clone()).len())
        });
        group.bench_with_input(BenchmarkId::new("clone_std", size), &std_full, |b, m| {
            b.iter(|| black_box(m.clone()).len())
        });
    }
    group.finish();
}

fn bench_pvec(c: &mut Criterion) {
    let mut group = c.benchmark_group("pvec");
    let v: PVec<u64> = (0..10_000u64).collect();
    group.bench_function("push_10k", |b| {
        b.iter(|| {
            let mut v: PVec<u64> = PVec::new();
            for i in 0..10_000u64 {
                v = v.push(i);
            }
            black_box(v.len())
        })
    });
    group.bench_function("random_get", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            let mut i = 7usize;
            for _ in 0..1000 {
                acc = acc.wrapping_add(*v.get(i % v.len()).unwrap());
                i = i.wrapping_mul(31).wrapping_add(17);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_plist(c: &mut Criterion) {
    let mut group = c.benchmark_group("plist");
    group.bench_function("prepend_1k_and_share", |b| {
        b.iter(|| {
            let mut base: PList<u64> = PList::new();
            for i in 0..1000 {
                base = base.prepend(i);
            }
            // Forking: 100 siblings each extend the shared base by one.
            let siblings: Vec<PList<u64>> = (0..100).map(|i| base.prepend(i)).collect();
            black_box(siblings.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pmap, bench_pvec, bench_plist);
criterion_main!(benches);
