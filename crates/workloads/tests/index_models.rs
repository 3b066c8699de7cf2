//! Property tests: every RECIPE index and PMDK map behaves like
//! `std::collections::BTreeMap` under randomized insert/update/get
//! sequences (functional correctness, independent of crash consistency).
//!
//! Sequences come from the workspace's own seeded [`SplitMix64`] (the
//! build is offline, so no proptest); a failing case prints the seed.

use std::collections::BTreeMap;

use jaaru::NativeEnv;
use jaaru_pmem::SplitMix64;
use jaaru_workloads::alloc::{AllocFault, PBump};
use jaaru_workloads::pmdk::{
    btree_map::BtreeMap, ctree_map::CtreeMap, hashmap_atomic::HashmapAtomic, hashmap_tx::HashmapTx,
    rbtree_map::RbtreeMap, ObjPool, PmdkFaults, PmdkMap,
};
use jaaru_workloads::recipe::{
    cceh::Cceh, fast_fair::FastFair, part::Part, pbwtree::Pbwtree, pclht::Pclht,
    pmasstree::Pmasstree, PmIndex,
};
use jaaru_workloads::util::Harness;

const CASES: u64 = 64;

#[derive(Clone, Debug)]
enum Op {
    Insert(u64, u64),
    Get(u64),
}

/// A small key universe (1..40) mixed with arbitrary u64 keys forces
/// updates and collisions; inserts outnumber gets 3:2.
fn random_ops(rng: &mut SplitMix64) -> Vec<Op> {
    let len = 1 + rng.next_u64() % 79;
    let key = |rng: &mut SplitMix64| {
        if rng.next_u64().is_multiple_of(2) {
            1 + rng.next_u64() % 39
        } else {
            loop {
                let k = rng.next_u64();
                if k != 0 {
                    break k;
                }
            }
        }
    };
    (0..len)
        .map(|_| {
            if rng.next_u64() % 5 < 3 {
                let k = key(rng);
                let v = 1 + rng.next_u64() % (u64::MAX - 1);
                Op::Insert(k, v)
            } else {
                Op::Get(key(rng))
            }
        })
        .collect()
}

fn run_recipe_model<I: PmIndex>(ops: &[Op], seed: u64) {
    let env = NativeEnv::new(1 << 20);
    let h = Harness::new(&env);
    let heap = PBump::create(
        &env,
        h.heap_cursor_cell(),
        h.heap_base(),
        AllocFault::default(),
    );
    let index = I::create(&env, &heap, I::Fault::default());
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                index.insert(&env, &heap, k, v);
                model.insert(k, v);
            }
            Op::Get(k) => {
                assert_eq!(
                    index.get(&env, k),
                    model.get(&k).copied(),
                    "{}: seed {seed} get {k}",
                    I::NAME
                );
            }
        }
    }
    for (&k, &v) in &model {
        assert_eq!(
            index.get(&env, k),
            Some(v),
            "{}: seed {seed} final {k}",
            I::NAME
        );
    }
}

fn run_pmdk_model<M: PmdkMap>(ops: &[Op], seed: u64) {
    let env = NativeEnv::new(1 << 20);
    let pool = ObjPool::create(&env, PmdkFaults::default());
    let map = M::create(&env, &pool, PmdkFaults::default());
    pool.set_root_object(&env, map.root());
    pool.seal(&env);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                map.insert(&env, &pool, k, v);
                model.insert(k, v);
            }
            Op::Get(k) => {
                assert_eq!(
                    map.get(&env, &pool, k),
                    model.get(&k).copied(),
                    "{}: seed {seed} get {k}",
                    M::NAME
                );
            }
        }
    }
    for (&k, &v) in &model {
        assert_eq!(
            map.get(&env, &pool, k),
            Some(v),
            "{}: seed {seed} final {k}",
            M::NAME
        );
    }
}

macro_rules! model_test {
    (recipe $name:ident, $ty:ty) => {
        #[test]
        fn $name() {
            for seed in 0..CASES {
                let mut rng = SplitMix64::new(seed);
                let ops = random_ops(&mut rng);
                run_recipe_model::<$ty>(&ops, seed);
            }
        }
    };
    (pmdk $name:ident, $ty:ty) => {
        #[test]
        fn $name() {
            for seed in 0..CASES {
                let mut rng = SplitMix64::new(seed);
                let ops = random_ops(&mut rng);
                run_pmdk_model::<$ty>(&ops, seed);
            }
        }
    };
}

model_test!(recipe cceh_matches_btreemap, Cceh);
model_test!(recipe fast_fair_matches_btreemap, FastFair);
model_test!(recipe part_matches_btreemap, Part);
model_test!(recipe pbwtree_matches_btreemap, Pbwtree);
model_test!(recipe pclht_matches_btreemap, Pclht);
model_test!(recipe pmasstree_matches_btreemap, Pmasstree);
model_test!(pmdk btree_map_matches_btreemap, BtreeMap);
model_test!(pmdk ctree_map_matches_btreemap, CtreeMap);
model_test!(pmdk rbtree_map_matches_btreemap, RbtreeMap);
model_test!(pmdk hashmap_atomic_matches_btreemap, HashmapAtomic);
model_test!(pmdk hashmap_tx_matches_btreemap, HashmapTx);

#[test]
fn removal_capability_matches_implementations() {
    assert!(Cceh::supports_removal());
    assert!(Part::supports_removal());
    assert!(Pbwtree::supports_removal());
    assert!(Pclht::supports_removal());
    assert!(!FastFair::supports_removal());
    assert!(!Pmasstree::supports_removal());
}

/// Requesting deletes on a structure without removal support skips the
/// phase instead of aborting mid-run (the registry and generated
/// workloads request deletes uniformly).
#[test]
fn with_deletes_skips_phase_on_non_removal_indexes() {
    use jaaru::Program;
    use jaaru_workloads::recipe::IndexWorkload;
    let env = NativeEnv::new(1 << 20);
    IndexWorkload::<FastFair>::fixed(4)
        .with_deletes(2)
        .run(&env);
    // A removal-capable structure still runs its delete phase.
    let env = NativeEnv::new(1 << 20);
    IndexWorkload::<Pclht>::fixed(4).with_deletes(2).run(&env);
}
