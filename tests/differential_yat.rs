//! Differential soundness/completeness testing: Jaaru's lazy
//! constraint-refinement exploration against the Yat-style eager
//! enumerator, on randomized straight-line PM programs.
//!
//! The paper claims Jaaru "does not generate any false positives or
//! negatives — it reports all bugs w.r.t. an input and any bug it
//! reports must be a real bug". The checkable core of that claim: for
//! every crash point, the *set of value vectors a recovery execution
//! can observe* must be identical between lazy exploration (one
//! execution per reads-from equivalence class, intervals refined on the
//! fly) and eager exploration (every legal post-failure memory state
//! materialized). This test generates random pre-failure programs —
//! stores of mixed sizes, `clflush`, `clflushopt`, `sfence`, `mfence` —
//! and compares the observation sets exactly.
//!
//! Programs are generated with a seeded SplitMix64 generator (the
//! workspace builds offline, so no proptest); a failing case prints the
//! seed and op list that reproduce it.

use std::collections::BTreeSet;
use std::sync::Mutex;

use jaaru::{Config, ModelChecker, PmEnv};
use jaaru_pmem::SplitMix64;
use jaaru_yat::{eager_check, YatConfig};

const POOL: usize = 4096;
/// Eight observed byte slots spread over three cache lines.
const SLOTS: [u64; 8] = [64, 72, 80, 120, 128, 136, 184, 191];

struct Rng(SplitMix64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(SplitMix64::new(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[derive(Clone, Debug)]
enum Op {
    Store8(usize, u8),
    Store16(usize, u16),
    Store64(usize, u64),
    Clflush(usize),
    Clflushopt(usize),
    Sfence,
    Mfence,
}

fn random_op(rng: &mut Rng) -> Op {
    let slot = rng.below(SLOTS.len() as u64) as usize;
    match rng.below(7) {
        0 => Op::Store8(slot, (1 + rng.below(255)) as u8),
        1 => Op::Store16(slot, (1 + rng.below(9999)) as u16),
        2 => Op::Store64(slot, 1 + rng.below(u64::MAX - 1)),
        3 => Op::Clflush(slot),
        4 => Op::Clflushopt(slot),
        5 => Op::Sfence,
        _ => Op::Mfence,
    }
}

fn replay(env: &dyn PmEnv, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Store8(s, v) => env.store_u8(jaaru::PmAddr::new(SLOTS[s]), v),
            // Wider stores clamp to stay inside the observed region.
            Op::Store16(s, v) => env.store_u16(jaaru::PmAddr::new(SLOTS[s].min(184)), v),
            Op::Store64(s, v) => env.store_u64(jaaru::PmAddr::new(SLOTS[s].min(184)), v),
            Op::Clflush(s) => env.clflush(jaaru::PmAddr::new(SLOTS[s]), 1),
            Op::Clflushopt(s) => env.clflushopt(jaaru::PmAddr::new(SLOTS[s]), 1),
            Op::Sfence => env.sfence(),
            Op::Mfence => env.mfence(),
        }
    }
}

fn observe(env: &dyn PmEnv) -> Vec<u8> {
    SLOTS
        .iter()
        .map(|&a| env.load_u8(jaaru::PmAddr::new(a)))
        .collect()
}

/// All recovery observation vectors under Jaaru's lazy exploration.
fn jaaru_observations(ops: &[Op]) -> BTreeSet<Vec<u8>> {
    let observed = Mutex::new(BTreeSet::new());
    let program = |env: &dyn PmEnv| {
        if env.is_recovery() {
            observed.lock().unwrap().insert(observe(env));
        } else {
            replay(env, ops);
        }
    };
    let mut config = Config::new();
    config.pool_size(POOL).flag_races(false);
    let report = ModelChecker::new(config).check(&program);
    assert!(
        report.is_clean(),
        "observation program has no assertions: {report}"
    );
    observed.into_inner().unwrap()
}

/// All recovery observation vectors under eager state enumeration.
fn yat_observations(ops: &[Op]) -> BTreeSet<Vec<u8>> {
    let observed = Mutex::new(BTreeSet::new());
    let program = |env: &dyn PmEnv| {
        if env.is_recovery() {
            observed.lock().unwrap().insert(observe(env));
        } else {
            replay(env, ops);
        }
    };
    let mut config = YatConfig::new();
    config.pool_size = POOL;
    let report = eager_check(&program, &config);
    assert!(
        report.is_clean(),
        "observation program has no assertions: {report:?}"
    );
    assert!(
        !report.truncated,
        "eager run must be exhaustive for the comparison"
    );
    observed.into_inner().unwrap()
}

/// The paper's no-false-positives/negatives claim, checked
/// differentially: lazy and eager exploration observe identical
/// post-failure value sets.
#[test]
fn lazy_and_eager_observe_identical_crash_states() {
    for seed in 0..96u64 {
        let mut rng = Rng::new(seed);
        let len = 1 + rng.below(13);
        let ops: Vec<Op> = (0..len).map(|_| random_op(&mut rng)).collect();
        let lazy = jaaru_observations(&ops);
        let eager = yat_observations(&ops);
        assert_eq!(
            &lazy,
            &eager,
            "seed {seed}: observation sets diverge for {:?}\n lazy-only: {:?}\n eager-only: {:?}",
            ops,
            lazy.difference(&eager).collect::<Vec<_>>(),
            eager.difference(&lazy).collect::<Vec<_>>()
        );
    }
}

/// A handful of fixed program shapes checked exhaustively.
#[test]
fn fixed_program_shapes_agree() {
    let programs: Vec<Vec<Op>> = vec![
        // The Figure 2 shape: interleaved stores on one line, one flush.
        vec![
            Op::Store8(1, 1),
            Op::Store8(0, 2),
            Op::Clflush(0),
            Op::Store8(1, 3),
            Op::Store8(0, 4),
            Op::Store8(1, 5),
            Op::Store8(0, 6),
        ],
        // Unfenced clflushopt must not constrain anything.
        vec![Op::Store8(0, 7), Op::Clflushopt(0), Op::Store8(0, 8)],
        // Fenced clflushopt pins the first store.
        vec![
            Op::Store8(0, 7),
            Op::Clflushopt(0),
            Op::Sfence,
            Op::Store8(0, 8),
        ],
        // Cross-line ordering with a straddling store.
        vec![
            Op::Store64(3, 0xa5a5_a5a5_a5a5_a5a5),
            Op::Clflush(3),
            Op::Store16(3, 9),
        ],
        // mfence applies deferred flushes.
        vec![
            Op::Store8(4, 1),
            Op::Clflushopt(4),
            Op::Mfence,
            Op::Store8(4, 2),
        ],
    ];
    for ops in programs {
        assert_eq!(
            jaaru_observations(&ops),
            yat_observations(&ops),
            "shape: {ops:?}"
        );
    }
}

/// Observation sets are insensitive to race flagging (pure diagnostics).
#[test]
fn race_flagging_does_not_change_exploration() {
    let ops = vec![
        Op::Store8(0, 1),
        Op::Store8(1, 2),
        Op::Clflush(0),
        Op::Store8(0, 3),
    ];
    let observed = Mutex::new(BTreeSet::new());
    let program = |env: &dyn PmEnv| {
        if env.is_recovery() {
            observed.lock().unwrap().insert(observe(env));
        } else {
            replay(env, &ops);
        }
    };
    let mut with_races = Config::new();
    with_races.pool_size(POOL).flag_races(true);
    let a = ModelChecker::new(with_races).check(&program);
    let first = observed.lock().unwrap().clone();
    observed.lock().unwrap().clear();
    let mut without = Config::new();
    without.pool_size(POOL).flag_races(false);
    let b = ModelChecker::new(without).check(&program);
    assert_eq!(first, *observed.lock().unwrap());
    assert_eq!(a.stats.scenarios, b.stats.scenarios);
}
