//! Property-based tests: the persistent structures behave exactly like
//! their `std` counterparts under arbitrary operation sequences, and
//! mutation never disturbs earlier versions.

use proptest::prelude::*;
use sde_pds::{PList, PMap, PVec};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u16, u32),
    Remove(u16),
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u16>(), any::<u32>()).prop_map(|(k, v)| MapOp::Insert(k % 512, v)),
            any::<u16>().prop_map(|k| MapOp::Remove(k % 512)),
        ],
        0..300,
    )
}

proptest! {
    #[test]
    fn pmap_matches_hashmap(ops in map_ops()) {
        let mut model: HashMap<u16, u32> = HashMap::new();
        let mut m: PMap<u16, u32> = PMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    model.insert(k, v);
                    m = m.insert(k, v);
                }
                MapOp::Remove(k) => {
                    model.remove(&k);
                    m = m.remove(&k);
                }
            }
            prop_assert_eq!(m.len(), model.len());
        }
        for (k, v) in &model {
            prop_assert_eq!(m.get(k), Some(v));
        }
        let mut pairs: Vec<(u16, u32)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        pairs.sort_unstable();
        let mut expected: Vec<(u16, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        expected.sort_unstable();
        prop_assert_eq!(pairs, expected);
    }

    #[test]
    fn pmap_old_versions_are_untouched(ops in map_ops()) {
        // Record every intermediate version and its model snapshot; at the
        // end all versions must still answer queries from their snapshot.
        let mut versions: Vec<(PMap<u16, u32>, HashMap<u16, u32>)> = Vec::new();
        let mut model: HashMap<u16, u32> = HashMap::new();
        let mut m: PMap<u16, u32> = PMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    model.insert(k, v);
                    m = m.insert(k, v);
                }
                MapOp::Remove(k) => {
                    model.remove(&k);
                    m = m.remove(&k);
                }
            }
            versions.push((m.clone(), model.clone()));
        }
        for (version, snapshot) in &versions {
            prop_assert_eq!(version.len(), snapshot.len());
            for (k, v) in snapshot {
                prop_assert_eq!(version.get(k), Some(v));
            }
        }
    }

    #[test]
    fn pvec_matches_vec(pushes in prop::collection::vec(any::<u32>(), 0..200),
                        sets in prop::collection::vec((any::<u16>(), any::<u32>()), 0..50)) {
        let mut model: Vec<u32> = Vec::new();
        let mut v: PVec<u32> = PVec::new();
        for x in pushes {
            model.push(x);
            v = v.push(x);
        }
        for (i, x) in sets {
            if model.is_empty() { break; }
            let i = (i as usize) % model.len();
            model[i] = x;
            v = v.set(i, x);
        }
        prop_assert_eq!(v.len(), model.len());
        let collected: Vec<u32> = v.iter().copied().collect();
        prop_assert_eq!(collected, model);
    }

    #[test]
    fn pvec_set_preserves_older_version(xs in prop::collection::vec(any::<u32>(), 1..100),
                                        idx in any::<u16>()) {
        let v: PVec<u32> = xs.iter().copied().collect();
        let i = (idx as usize) % xs.len();
        let w = v.set(i, !xs[i]);
        prop_assert_eq!(v.get(i), Some(&xs[i]));
        prop_assert_eq!(w.get(i), Some(&!xs[i]));
        for (j, x) in xs.iter().enumerate() {
            if j != i {
                prop_assert_eq!(w.get(j), Some(x));
            }
        }
    }

    #[test]
    fn plist_round_trips(xs in prop::collection::vec(any::<i64>(), 0..200)) {
        let l: PList<i64> = xs.iter().copied().collect();
        prop_assert_eq!(l.len(), xs.len());
        let collected: Vec<i64> = l.iter().copied().collect();
        prop_assert_eq!(collected, xs);
    }

    #[test]
    fn plist_siblings_share_suffix(xs in prop::collection::vec(any::<u8>(), 0..50),
                                   a in any::<u8>(), b in any::<u8>()) {
        let base: PList<u8> = xs.iter().copied().collect();
        let left = base.prepend(a);
        let right = base.prepend(b);
        prop_assert!(left.tail().ptr_eq(&right.tail()));
        prop_assert_eq!(left.tail(), right.tail());
    }
}

/// A key whose hash keeps only `id / 4`: every four consecutive ids
/// collide on all 64 bits and share a collision bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Clash(u32);

impl Hash for Clash {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.0 / 4);
    }
}

/// `insert_mut` against a `BTreeMap` model, interleaved with persistent
/// `remove`s and with clones taken every 97 operations: the in-place
/// write must never reach a node an earlier clone can still see.
fn insert_mut_model<K: Hash + Ord + Copy + std::fmt::Debug>(key: impl Fn(u32) -> K) {
    const OPS: u64 = 20_000;
    const KEYS: u64 = 3_000;
    let mut rng = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut model: BTreeMap<K, u64> = BTreeMap::new();
    let mut map: PMap<K, u64> = PMap::new();
    let mut clones: Vec<(PMap<K, u64>, BTreeMap<K, u64>)> = Vec::new();
    for op in 0..OPS {
        let k = key((next() % KEYS) as u32);
        if next() % 8 == 0 {
            map = map.remove(&k);
            model.remove(&k);
        } else {
            let v = next();
            // `insert` is `insert_mut` on a clone, and leaves `map` alone.
            let persistent = map.insert(k, v);
            assert_eq!(map.get(&k), model.get(&k), "op {op}: insert wrote through");
            assert_eq!(map.insert_mut(k, v), model.insert(k, v), "op {op}");
            assert_eq!(persistent.get(&k), Some(&v), "op {op}");
            if op % 97 == 0 {
                assert_eq!(persistent, map, "op {op}");
            }
        }
        assert_eq!(map.len(), model.len(), "op {op}");
        if op % 97 == 0 {
            clones.push((map.clone(), model.clone()));
        }
    }
    clones.push((map, model));
    for (i, (map, model)) in clones.iter().enumerate() {
        assert_eq!(map.len(), model.len(), "clone {i}");
        let mut entries: Vec<(K, u64)> = map.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable();
        let expected: Vec<(K, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(entries, expected, "clone {i} changed after it was taken");
        for (k, v) in model {
            assert_eq!(map.get(k), Some(v), "clone {i}");
        }
    }
}

#[test]
fn insert_mut_matches_btreemap_and_leaves_clones_unchanged() {
    insert_mut_model(|id| id);
}

#[test]
fn insert_mut_with_colliding_hashes_leaves_clones_unchanged() {
    insert_mut_model(Clash);
}

/// `==` against the model's `==` on pairs that share storage (a clone
/// written a few more times), pairs with equal contents reached along
/// different histories (inserts in another order, detours through keys
/// that are removed again — equal maps in different trie shapes) and
/// pairs that differ in one value.
fn equality_model<K: Hash + Ord + Copy + std::fmt::Debug>(key: impl Fn(u32) -> K) {
    let mut rng = 0x0dd_ba11_5eed_cafeu64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for round in 0..200 {
        let keys: Vec<(K, u64)> = (0..next() % 120)
            .map(|_| (key((next() % 400) as u32), next() % 4))
            .collect();
        let model: BTreeMap<K, u64> = keys.iter().copied().collect();
        let map: PMap<K, u64> = keys.iter().copied().collect();

        // The same bindings, last-write-wins resolved, inserted backwards
        // with a detour through keys outside the set.
        let mut detour: PMap<K, u64> = PMap::new();
        for i in 0..8 {
            detour.insert_mut(key(1_000 + i), 0);
        }
        for (k, v) in model.iter().rev() {
            detour.insert_mut(*k, *v);
        }
        for i in 0..8 {
            detour = detour.remove(&key(1_000 + i));
        }
        assert_eq!(map, detour, "round {round}: equal contents");
        assert_eq!(detour, map, "round {round}: equal contents, flipped");

        // A clone written a few more times.
        let (mut later, mut later_model) = (map.clone(), model.clone());
        for _ in 0..next() % 4 {
            let (k, v) = (key((next() % 400) as u32), next() % 4);
            later.insert_mut(k, v);
            later_model.insert(k, v);
        }
        assert_eq!(map == later, model == later_model, "round {round}: clone");
        assert_eq!(later == map, model == later_model, "round {round}: clone");
        assert_eq!(detour == later, model == later_model, "round {round}");

        // Same keys, one value off.
        if let Some((k, v)) = model.iter().next() {
            assert_ne!(map, detour.insert(*k, v + 1), "round {round}: one value");
            assert_ne!(map, map.remove(k), "round {round}: one key short");
        }
    }
}

#[test]
fn equality_matches_the_model_across_shapes_and_sharing() {
    equality_model(|id| id);
}

#[test]
fn equality_with_colliding_hashes_matches_the_model() {
    equality_model(Clash);
}

#[test]
fn plist_equality_stops_at_a_shared_suffix_and_reads_unshared_cells() {
    let base: PList<u32> = (0..50).collect();
    let (a, b) = (base.prepend(7).prepend(8), base.prepend(7).prepend(8));
    assert_eq!(a, b);
    assert_ne!(a, base.prepend(7).prepend(9));
    assert_ne!(a, base.prepend(6).prepend(8));
    assert_ne!(a, base.prepend(8));
    let rebuilt: PList<u32> = a.iter().copied().collect();
    assert!(!rebuilt.ptr_eq(&a));
    assert_eq!(a, rebuilt);
    assert_eq!(PList::<u32>::new(), PList::new());
}
