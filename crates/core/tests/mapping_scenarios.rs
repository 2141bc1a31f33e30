//! Scripted mapping scenarios driven directly through [`MemoryStore`] —
//! no VM, no solver — pinning down the exact fork behavior of each
//! algorithm in the situations the paper's figures illustrate.

use sde_core::mapping::{
    Algorithm, MapperSnapshot, MapperStats, MemoryStore, StateMapper, StateStore, VStateSnapshot,
};
use sde_core::StateId;
use sde_net::NodeId;

fn mapper(alg: Algorithm) -> Box<dyn StateMapper> {
    alg.new_mapper()
}

/// Figure 3: a local branch under COB forks the whole dscenario.
#[test]
fn fig3_cob_branch_cost_is_k_minus_one() {
    for k in [3u16, 5, 10] {
        let mut cob = mapper(Algorithm::Cob);
        let mut store = MemoryStore::booted(cob.as_mut(), k);
        store.branch(cob.as_mut(), StateId(0));
        assert_eq!(store.forks().len(), usize::from(k) - 1, "k = {k}");
        assert_eq!(cob.group_count(), 2);
        // Total states: 2 dscenarios × k nodes.
        assert_eq!(store.len(), 2 * usize::from(k) - 1 + 1);
    }
}

/// Figure 4: a conflicting send under COW forks targets and bystanders;
/// under SDS only the target.
#[test]
fn fig4_cow_vs_sds_fork_sets() {
    for k in [4u16, 8, 16] {
        let mut cow = mapper(Algorithm::Cow);
        let mut cs = MemoryStore::booted(cow.as_mut(), k);
        cs.branch(cow.as_mut(), StateId(0));
        cow.map_send(StateId(0), NodeId(0), NodeId(1), &mut cs);
        assert_eq!(
            cs.forks().len(),
            usize::from(k) - 1,
            "COW forks k−1 at k={k}"
        );

        let mut sds = mapper(Algorithm::Sds);
        let mut ss = MemoryStore::booted(sds.as_mut(), k);
        ss.branch(sds.as_mut(), StateId(0));
        sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut ss);
        assert_eq!(ss.forks().len(), 1, "SDS forks only the target at k={k}");
        // The saving is exactly the bystander count: k − 2.
        assert_eq!(cs.forks().len() - ss.forks().len(), usize::from(k) - 2);
    }
}

/// Figure 5's roles: with two targets in the sender's dstate, both
/// receive (COW: both copies; SDS: both originals; each forked once).
#[test]
fn two_targets_each_fork_exactly_once() {
    // COW.
    let mut cow = mapper(Algorithm::Cow);
    let mut store = MemoryStore::booted(cow.as_mut(), 4);
    let rival = store.branch(cow.as_mut(), StateId(0));
    let _t2 = store.branch(cow.as_mut(), StateId(1)); // second state on node 1
    let d = cow.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
    assert_eq!(d.receivers.len(), 2);
    assert!(cow.check_invariants().is_none());
    let _ = rival;

    // SDS.
    let mut sds = mapper(Algorithm::Sds);
    let mut store = MemoryStore::booted(sds.as_mut(), 4);
    store.branch(sds.as_mut(), StateId(0));
    let t2 = store.branch(sds.as_mut(), StateId(1));
    let d = sds.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
    let mut receivers = d.receivers.clone();
    receivers.sort_unstable();
    assert_eq!(receivers, vec![StateId(1), t2]);
    // Both targets forked exactly once: 2 execution-level forks.
    assert_eq!(store.forks().len(), 2);
    assert!(sds.check_invariants().is_none());
}

/// A chain of conflicting sends from distinct rival states keeps COW
/// splitting dstates while SDS grows only with genuine receivers.
#[test]
fn rival_chains_diverge_between_cow_and_sds() {
    let k = 8u16;
    let (mut cow, mut cow_store) = {
        let mut m = mapper(Algorithm::Cow);
        let s = MemoryStore::booted(m.as_mut(), k);
        (m, s)
    };
    let (mut sds, mut sds_store) = {
        let mut m = mapper(Algorithm::Sds);
        let s = MemoryStore::booted(m.as_mut(), k);
        (m, s)
    };
    // Three generations of branch-then-send on node 0.
    let mut cow_sender = StateId(0);
    let mut sds_sender = StateId(0);
    for dest in [1u16, 2, 3] {
        cow_store.branch(cow.as_mut(), cow_sender);
        cow.map_send(cow_sender, NodeId(0), NodeId(dest), &mut cow_store);
        sds_store.branch(sds.as_mut(), sds_sender);
        sds.map_send(sds_sender, NodeId(0), NodeId(dest), &mut sds_store);
        cow_sender = StateId(0);
        sds_sender = StateId(0);
    }
    assert!(cow.check_invariants().is_none());
    assert!(sds.check_invariants().is_none());
    assert!(
        sds_store.len() < cow_store.len(),
        "SDS {} !< COW {}",
        sds_store.len(),
        cow_store.len()
    );
    // Both represent the same number of dscenarios.
    assert_eq!(cow.dscenarios().count(), sds.dscenarios().count());
}

/// A scripted branch/send walk keeps both mappers internally
/// consistent, with SDS using strictly fewer execution states.
///
/// Deliberately NOT asserted here: equality of the represented
/// dscenario sets. At this level the two are incomparable, because a
/// COW bystander copy carries *pending work* in the real engine (it
/// re-executes its original's queued events, re-sending packets into
/// its own dstate), while SDS shares the original state across dstates
/// so one send covers all of them at once. A script that never drives
/// the copies therefore under-counts COW's worlds. The faithful
/// comparison — identical dscenario fingerprints under the full engine
/// — lives in `tests/algorithm_equivalence.rs` and passes for all three
/// algorithms.
#[test]
fn scripted_random_walk_keeps_dscenario_counts_aligned() {
    let k = 5u16;
    // (op, node a, node b): op 0 = branch a's current state,
    // op 1 = send from a's current state to node b (the first receiver
    // becomes b's current state).
    let script: Vec<(u8, u16, u16)> = vec![
        (0, 0, 0),
        (1, 0, 2),
        (0, 2, 0),
        (1, 2, 4),
        (1, 0, 1),
        (0, 1, 0),
        (1, 1, 3),
        (1, 4, 0),
    ];
    let mut counts = Vec::new();
    for alg in [Algorithm::Cow, Algorithm::Sds] {
        let mut m = mapper(alg);
        let mut store = MemoryStore::booted(m.as_mut(), k);
        let mut current: Vec<StateId> = (0..u64::from(k)).map(StateId).collect();
        for (op, a, b) in &script {
            let a_state = current[usize::from(*a)];
            match op {
                0 => {
                    store.branch(m.as_mut(), a_state);
                }
                _ => {
                    let d = m.map_send(a_state, NodeId(*a), NodeId(*b), &mut store);
                    assert!(!d.receivers.is_empty());
                    current[usize::from(*b)] = d.receivers[0];
                }
            }
            assert!(m.check_invariants().is_none(), "{alg} after {op},{a},{b}");
        }
        // SDS's overlapping dstates can enumerate the same member tuple
        // more than once; deduplicate like test generation does.
        let distinct: std::collections::BTreeSet<Vec<StateId>> = m
            .dscenarios()
            .map(|mut sc| {
                sc.sort_unstable();
                sc
            })
            .collect();
        counts.push((alg, distinct.len(), store.len()));
    }
    // Both explored a nontrivial space…
    assert!(
        counts.iter().all(|(_, scenarios, _)| *scenarios >= 4),
        "{counts:?}"
    );
    // …and SDS paid strictly fewer execution states for it.
    assert!(counts[1].2 < counts[0].2, "SDS not cheaper: {counts:?}");
}

/// Terminated-ish states (states that stop being senders) still
/// participate in mapping as receivers — ids never dangle.
#[test]
fn receivers_remain_valid_across_many_mappings() {
    let mut sds = mapper(Algorithm::Sds);
    let mut store = MemoryStore::booted(sds.as_mut(), 6);
    store.branch(sds.as_mut(), StateId(0));
    for round in 0..10u64 {
        let dest = NodeId((1 + (round % 5)) as u16);
        let d = sds.map_send(StateId(0), NodeId(0), dest, &mut store);
        for r in &d.receivers {
            // Every receiver must be known to the store.
            let _ = store.node_of_checked(*r);
        }
    }
    assert!(sds.check_invariants().is_none());
}

trait NodeOfChecked {
    fn node_of_checked(&self, s: StateId) -> NodeId;
}

impl NodeOfChecked for MemoryStore {
    fn node_of_checked(&self, s: StateId) -> NodeId {
        self.node_of(s)
    }
}

/// Boot shapes: every algorithm starts with exactly one group holding
/// one state per node, and dscenario enumeration yields exactly it.
#[test]
fn boot_normal_form() {
    for alg in Algorithm::ALL {
        let mut m = mapper(alg);
        let _store = MemoryStore::booted(m.as_mut(), 7);
        assert_eq!(m.group_count(), 1, "{alg}");
        let scenarios: Vec<Vec<StateId>> = m.dscenarios().collect();
        assert_eq!(scenarios.len(), 1, "{alg}");
        assert_eq!(scenarios[0].len(), 7, "{alg}");
        assert!(m.check_invariants().is_none(), "{alg}");
        assert_eq!(m.stats().sends_mapped, 0);
    }
}

/// dscenarios_containing returns exactly the dscenarios with the state.
#[test]
fn dscenarios_containing_is_a_filter() {
    for alg in Algorithm::ALL {
        let mut m = mapper(alg);
        let mut store = MemoryStore::booted(m.as_mut(), 4);
        let child = store.branch(m.as_mut(), StateId(0));
        m.map_send(StateId(0), NodeId(0), NodeId(1), &mut store);
        for probe in [StateId(0), child, StateId(2)] {
            let filtered: Vec<_> = m.dscenarios_containing(probe).collect();
            let expected: Vec<_> = m.dscenarios().filter(|sc| sc.contains(&probe)).collect();
            let mut a = filtered.clone();
            let mut b = expected.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{alg} probe {probe}");
            assert!(
                !a.is_empty(),
                "{alg}: every live state is in some dscenario"
            );
        }
    }
}

// ---- SDS bit-identity in isolation --------------------------------------
//
// The digests below pin everything a caller can observe of the mapper:
// which states fork and in which order, who receives each send, the work
// counters, and the exported bookkeeping — every `(owner, node, dstate)`
// membership and the dstate ids. Virtual-state ids are left out: they only
// number the memberships, and the mapper that shares columns between
// dstates numbers them canonically on export. The digests were captured
// with this code at the commit before dstates shared their columns, whose
// own pins (captured before the owner-slot rewrite of `sds.rs`) held
// there.

/// FNV-1a over a stream of `u64`s.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn stats(&mut self, s: MapperStats) {
        for x in [
            s.branches_seen,
            s.sends_mapped,
            s.mapper_forks,
            s.virtual_forks,
        ] {
            self.u64(x);
        }
    }

    /// Folds in the fork log, the counters and the exported snapshot.
    fn finish(mut self, sds: &dyn StateMapper, store: &MemoryStore) -> u64 {
        self.u64(store.forks().len() as u64);
        for (orig, copy) in store.forks() {
            self.u64(orig.0);
            self.u64(copy.0);
        }
        self.stats(sds.stats());
        let MapperSnapshot::Sds {
            vstates,
            groups,
            next_group,
            next_v,
            stats,
        } = sds.export_snapshot()
        else {
            panic!("SDS exports an SDS snapshot");
        };
        let memberships = memberships(&vstates);
        self.u64(memberships.len() as u64);
        for (owner, node, dstate) in memberships {
            self.u64(owner);
            self.u64(u64::from(node));
            self.u64(dstate);
        }
        self.u64(groups.len() as u64);
        for g in groups {
            self.u64(g);
        }
        self.u64(next_group);
        self.u64(next_v);
        self.stats(stats);
        self.0
    }
}

/// The `(owner, node, dstate)` of every exported virtual state, sorted.
fn memberships(vstates: &[VStateSnapshot]) -> Vec<(u64, u16, u64)> {
    let mut memberships: Vec<(u64, u16, u64)> = (vstates.iter())
        .map(|(_, owner, node, dstate)| (*owner, *node, *dstate))
        .collect();
    memberships.sort_unstable();
    memberships
}

/// The `Debug` rendering of an exported snapshot; for SDS, that of its
/// sorted memberships, dstate count and counters.
fn rendering(snapshot: MapperSnapshot) -> String {
    match snapshot {
        MapperSnapshot::Sds {
            vstates,
            next_group,
            stats,
            ..
        } => format!("{:?} {next_group} {stats:?}", memberships(&vstates)),
        other => format!("{other:?}"),
    }
}

/// One checked send: invariants hold afterwards, receivers enter the digest.
fn checked_send(
    sds: &mut dyn StateMapper,
    store: &mut MemoryStore,
    digest: &mut Digest,
    sender: StateId,
    dest: NodeId,
) -> Vec<StateId> {
    let d = sds.map_send(sender, store.node_of(sender), dest, store);
    assert_eq!(sds.check_invariants(), None, "after {sender} → {dest}");
    digest.u64(d.receivers.len() as u64);
    for r in &d.receivers {
        digest.u64(r.0);
    }
    d.receivers
}

fn checked_branch(sds: &mut dyn StateMapper, store: &mut MemoryStore, parent: StateId) -> StateId {
    let child = store.branch(sds, parent);
    assert_eq!(sds.check_invariants(), None, "after branching {parent}");
    child
}

/// k conflicting sends *past* node 3 make its state a fat bystander (one
/// vstate per dstate); a send *to* it then forks it with one `near` vstate
/// and k `far` ones — the hand-over of a large far set. Then targets whose
/// vstates are all `near`: without rivals (no fork) and with rivals in
/// every sending dstate (fork, nothing `far`).
#[test]
fn sds_fat_bystander_script_is_pinned() {
    assert_eq!(fat_bystander_digest(), FAT_BYSTANDER_DIGEST);
}

fn fat_bystander_digest() -> u64 {
    const K: u64 = 12;
    let mut sds = mapper(Algorithm::Sds);
    let mut store = MemoryStore::booted(sds.as_mut(), 6);
    let mut digest = Digest::new();
    for _ in 0..K {
        checked_branch(sds.as_mut(), &mut store, StateId(0));
        let r = checked_send(sds.as_mut(), &mut store, &mut digest, StateId(0), NodeId(1));
        assert_eq!(r.len(), 1);
    }
    assert_eq!(sds.group_count() as u64, K + 1);
    assert_eq!(store.forks().len() as u64, K, "one target fork per send");

    // State 0 owns a single vstate (in the newest dstate); state 3 owns
    // one per dstate. near = 1, far = K: case C, no new dstate.
    let groups = sds.group_count();
    let forks = store.forks().len();
    let r = checked_send(sds.as_mut(), &mut store, &mut digest, StateId(0), NodeId(3));
    assert_eq!(r, vec![StateId(3)]);
    assert_eq!(store.forks().len(), forks + 1);
    assert_eq!(sds.group_count(), groups);
    let (orig, sibling) = *store.forks().last().unwrap();
    assert_eq!(orig, StateId(3));
    // The receiver keeps exactly its near vstate; the sibling took the rest.
    assert_eq!(sds.dscenarios_containing(StateId(3)).count(), 1);
    assert!(sds.dscenarios_containing(sibling).count() as u64 >= K);

    // All-near target, no rivals: state 2 and state 4 are both bystanders
    // of every dstate, node 2 never branched — in-place delivery.
    let forks = store.forks().len();
    let r = checked_send(sds.as_mut(), &mut store, &mut digest, StateId(2), NodeId(4));
    assert_eq!(r, vec![StateId(4)]);
    assert_eq!(store.forks().len(), forks);

    // All-near target, a rival in every sending dstate: one fork, every
    // sending dstate splits, nothing is `far`.
    checked_branch(sds.as_mut(), &mut store, StateId(2));
    let groups = sds.group_count();
    let r = checked_send(sds.as_mut(), &mut store, &mut digest, StateId(2), NodeId(4));
    assert_eq!(r, vec![StateId(4)]);
    assert_eq!(store.forks().len(), forks + 1);
    assert_eq!(sds.group_count(), 2 * groups);

    // Mixed: the rival of that send now transmits to the fat sibling's node.
    let rival = StateId(store.len() as u64 - 2);
    checked_send(sds.as_mut(), &mut store, &mut digest, rival, NodeId(3));

    digest.finish(sds.as_ref(), &store)
}

/// Seeded random branch/send walks. Senders are drawn from the most
/// recent states (old ones too, rarely) so forked siblings, receivers and
/// fat bystanders all transmit; sizes stay small enough to check the
/// invariants after every operation.
#[test]
fn sds_random_walks_are_pinned() {
    for (seed, expected) in RANDOM_WALK_DIGESTS.iter().enumerate() {
        assert_eq!(
            random_walk_digest(seed as u64),
            *expected,
            "SDS walk seed {seed} diverged from the pinned parent behaviour"
        );
    }
}

const WALK_OPS: usize = 200;

fn random_walk_digest(seed: u64) -> u64 {
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed;
    let mut next = move || {
        // splitmix64
        rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let k = 6 + (seed % 7) as u16; // 6..=12 nodes
    let mut sds = mapper(Algorithm::Sds);
    let mut store = MemoryStore::booted(sds.as_mut(), k);
    let mut digest = Digest::new();
    for _ in 0..WALK_OPS {
        let len = store.len() as u64;
        let actor = if next() % 4 == 0 {
            StateId(next() % len)
        } else {
            StateId(len - 1 - next() % len.min(2 * u64::from(k)))
        };
        if next() % 3 == 0 {
            checked_branch(sds.as_mut(), &mut store, actor);
        } else {
            let from = store.node_of(actor).0;
            let dest = (from + 1 + (next() % u64::from(k - 1)) as u16) % k;
            let r = checked_send(sds.as_mut(), &mut store, &mut digest, actor, NodeId(dest));
            assert!(!r.is_empty());
        }
    }
    digest.u64(store.len() as u64);
    digest.finish(sds.as_ref(), &store)
}

const FAT_BYSTANDER_DIGEST: u64 = 0x7220_385c_2194_9ced;
const RANDOM_WALK_DIGESTS: [u64; 16] = [
    0x3d65_748f_9c5d_3dee,
    0x2663_a1f4_b00a_7dfe,
    0xa924_377e_bf88_b814,
    0x68bd_a7d4_2dcf_a9c5,
    0x015b_f899_a31b_072a,
    0x1d93_d8dc_6641_468a,
    0xada6_617a_ff21_3c4b,
    0xd72d_8f23_6e5c_9c3b,
    0xad78_1aa4_9967_595b,
    0x0d76_07eb_1354_0341,
    0x39de_58fc_a579_316e,
    0x2ffb_e315_fb2c_b560,
    0x8248_6023_f869_94b2,
    0xd787_603c_bbc1_e240,
    0x2b2d_bc64_70ee_83a6,
    0x6b70_4c8a_23a6_dbaa,
];

/// Prints the digests to pin (run with `--ignored --nocapture`).
#[test]
#[ignore = "capture helper"]
fn sds_print_digests() {
    println!("fat bystander: {:#018x}", fat_bystander_digest());
    for seed in 0..16 {
        println!("    {:#018x},", random_walk_digest(seed));
    }
}

// ---- all three mappers, pinned against the tree-backed tables -----------
//
// The digests below were captured at the commit *before* the mappers'
// membership became flat sorted lists (COB / COW keyed `groups` /
// `group_of` by `HashMap` with a `BTreeMap` per group, SDS held a
// `BTreeMap<NodeId, BTreeSet<VId>>` per dstate). One seeded script per
// algorithm: fork order, receiver order and every id the mapper assigns
// are proven equal to that commit's without reading the diff.

const PARENT_SCRIPT_STEPS: usize = 2_000;
const PARENT_SCRIPT_NODES: u16 = 9;

/// FNV-1a of the concatenated receivers of every send of a seeded
/// branch / send script and of the fork log, followed by the
/// [`rendering`] of the exported snapshot (which carries every group,
/// member and counter). The SDS digest was recaptured with the
/// vid-free rendering at the commit before dstates shared their columns.
fn parent_script_digest(alg: Algorithm) -> u64 {
    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15 ^ 0x0022;
    let mut next = move || {
        // splitmix64
        rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let k = PARENT_SCRIPT_NODES;
    let mut m = mapper(alg);
    let mut store = MemoryStore::booted(m.as_mut(), k);
    let mut digest = Digest::new();
    for step in 0..PARENT_SCRIPT_STEPS {
        let len = store.len() as u64;
        // Mostly recent states (forked siblings, fresh receivers), now
        // and then an old one (fat bystanders, long-idle rivals).
        let actor = if next() % 4 == 0 {
            StateId(next() % len)
        } else {
            StateId(len - 1 - next() % len.min(3 * u64::from(k)))
        };
        if next() % 5 == 0 {
            store.branch(m.as_mut(), actor);
        } else {
            let from = store.node_of(actor).0;
            let dest = (from + 1 + (next() % u64::from(k - 1)) as u16) % k;
            let d = m.map_send(actor, NodeId(from), NodeId(dest), &mut store);
            assert!(!d.receivers.is_empty(), "{alg} step {step}");
            digest.u64(d.receivers.len() as u64);
            for r in &d.receivers {
                digest.u64(r.0);
            }
        }
        if step % 100 == 99 {
            assert_eq!(m.check_invariants(), None, "{alg} after step {step}");
        }
    }
    digest.u64(store.len() as u64);
    for (orig, copy) in store.forks() {
        digest.u64(orig.0);
        digest.u64(copy.0);
    }
    for b in rendering(m.export_snapshot()).bytes() {
        digest.0 ^= u64::from(b);
        digest.0 = digest.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    digest.0
}

#[test]
fn parent_script_is_pinned_for_every_algorithm() {
    for (alg, expected) in [
        (Algorithm::Cob, COB_PARENT_SCRIPT_DIGEST),
        (Algorithm::Cow, COW_PARENT_SCRIPT_DIGEST),
        (Algorithm::Sds, SDS_PARENT_SCRIPT_DIGEST),
    ] {
        assert_eq!(
            parent_script_digest(alg),
            expected,
            "{alg}: the seeded script diverged from the pinned parent behaviour"
        );
    }
}

const COB_PARENT_SCRIPT_DIGEST: u64 = 0x152c_4fc9_baae_a532;
const COW_PARENT_SCRIPT_DIGEST: u64 = 0xf0f4_001d_9d55_aa53;
const SDS_PARENT_SCRIPT_DIGEST: u64 = 0xe233_589f_4dc1_0206;

/// Prints the digests to pin (run with `--ignored --nocapture`).
#[test]
#[ignore = "capture helper"]
fn parent_script_print_digests() {
    for alg in Algorithm::ALL {
        let started = std::time::Instant::now();
        let digest = parent_script_digest(alg);
        println!(
            "const {}_PARENT_SCRIPT_DIGEST: u64 = {digest:#018x}; // {:?}",
            alg.name(),
            started.elapsed()
        );
    }
}
