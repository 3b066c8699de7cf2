//! Property tests for the reads-from computation and constraint
//! refinement, against a brute-force single-line model.
//!
//! The model: a cache line's persistent state is determined by one
//! *writeback cut* `w` — the position of the last writeback — which the
//! flush history constrains to `w ≥ σ(last clflush)`. A byte's
//! persistent value is the newest store at or before `w`. The lazy
//! algorithm (Figure 9/10) must offer exactly the values the legal cuts
//! produce, both before and after refinement commits a byte to a value.
//!
//! Event sequences are generated with a seeded SplitMix64 generator (the
//! workspace builds offline, so no proptest); a failing case prints the
//! seed and event list that reproduce it.

use std::collections::BTreeSet;
use std::panic::Location;

use jaaru_pmem::{CacheLineId, PmAddr, SplitMix64};
use jaaru_tso::{do_read, read_pre_failure, ExecutionStorage, RfCandidate, Seq, ThreadId};

const LINE: CacheLineId = CacheLineId::new(1);
const SLOTS: u64 = 8;

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

#[derive(Clone, Copy, Debug)]
enum Ev {
    Store(u64, u8), // slot, value
    Flush,
}

/// Stores outnumber flushes 4:1, mirroring the original generator.
fn random_events(rng: &mut Rng, min_len: u64, max_len: u64) -> Vec<Ev> {
    let len = min_len + rng.below(max_len - min_len);
    (0..len)
        .map(|_| {
            if rng.below(5) < 4 {
                Ev::Store(rng.below(SLOTS), (1 + rng.below(200)) as u8)
            } else {
                Ev::Flush
            }
        })
        .collect()
}

fn slot_addr(s: u64) -> PmAddr {
    LINE.base() + s * 8
}

/// Applies the events, returning the storage plus the model's
/// bookkeeping: per-store (seq, slot, value) and the last flush seq.
fn build(events: &[Ev]) -> (ExecutionStorage, Vec<(u64, u64, u8)>, u64) {
    let mut st = ExecutionStorage::new();
    let mut sigma = Seq::ZERO;
    let mut stores = Vec::new();
    let mut last_flush = 0;
    for &ev in events {
        match ev {
            Ev::Store(s, v) => {
                let seq = sigma.bump();
                st.record_store(slot_addr(s), &[v], ThreadId(0), Location::caller(), seq);
                stores.push((seq.value(), s, v));
            }
            Ev::Flush => {
                let seq = sigma.bump();
                st.record_flush(LINE, seq);
                last_flush = seq.value();
            }
        }
    }
    (st, stores, last_flush)
}

/// The model: all legal writeback cuts under the current `[begin, end)`.
fn legal_cuts(stores: &[(u64, u64, u8)], begin: u64, end: u64) -> Vec<u64> {
    let mut cuts = vec![begin];
    for &(seq, _, _) in stores {
        if seq > begin && seq < end {
            cuts.push(seq);
        }
    }
    cuts
}

/// The model's value of a slot at cut `w`.
fn value_at(stores: &[(u64, u64, u8)], slot: u64, w: u64) -> u8 {
    stores
        .iter()
        .filter(|&&(seq, s, _)| s == slot && seq <= w)
        .max_by_key(|&&(seq, _, _)| seq)
        .map(|&(_, _, v)| v)
        .unwrap_or(0)
}

fn rf_values(stack: &[ExecutionStorage], slot: u64) -> BTreeSet<u8> {
    read_pre_failure(stack, slot_addr(slot))
        .iter()
        .map(|c| c.value)
        .collect()
}

/// Before any refinement, every slot's candidate set equals the set
/// of values over all legal cuts.
#[test]
fn candidates_match_brute_force() {
    for seed in 0..256u64 {
        let mut rng = Rng::new(seed);
        let events = random_events(&mut rng, 0, 12);
        let (st, stores, last_flush) = build(&events);
        let stack = vec![st];
        for slot in 0..SLOTS {
            let model: BTreeSet<u8> = legal_cuts(&stores, last_flush, u64::MAX)
                .into_iter()
                .map(|w| value_at(&stores, slot, w))
                .collect();
            assert_eq!(
                rf_values(&stack, slot),
                model,
                "seed {seed}: slot {slot} of {events:?}"
            );
        }
    }
}

/// After committing one byte to one candidate, every other slot's
/// candidate set equals the model restricted to the cuts consistent
/// with that choice.
#[test]
fn refinement_matches_brute_force() {
    for seed in 0..256u64 {
        let mut rng = Rng::new(seed ^ 0xdead_beef);
        let events = random_events(&mut rng, 1, 12);
        let slot_pick = rng.below(SLOTS);
        let cand_pick = rng.below(8) as usize;
        let (st, stores, last_flush) = build(&events);
        let mut stack = vec![st];
        let cands = read_pre_failure(&stack, slot_addr(slot_pick));
        let chosen: RfCandidate = cands[cand_pick % cands.len()];
        do_read(&mut stack, slot_addr(slot_pick), chosen);

        // Model restriction: cuts where the chosen store is the newest
        // at-or-before store for the slot (or, for the initial value,
        // cuts before the slot's first store).
        let restricted: Vec<u64> = legal_cuts(&stores, last_flush, u64::MAX)
            .into_iter()
            .filter(|&w| {
                let newest = stores
                    .iter()
                    .filter(|&&(seq, s, _)| s == slot_pick && seq <= w)
                    .max_by_key(|&&(seq, _, _)| seq)
                    .map(|&(seq, _, _)| seq);
                newest.unwrap_or(0) == chosen.seq.value()
            })
            .collect();
        assert!(
            !restricted.is_empty(),
            "seed {seed}: chosen candidate must be realizable"
        );

        for slot in 0..SLOTS {
            let model: BTreeSet<u8> = restricted
                .iter()
                .map(|&w| value_at(&stores, slot, w))
                .collect();
            assert_eq!(
                rf_values(&stack, slot),
                model,
                "seed {seed}: slot {slot} after committing slot {slot_pick} to {chosen:?} in {events:?}"
            );
        }
    }
}

/// Iterated refinement never diverges: committing every slot in
/// order leaves a single consistent snapshot (every candidate set is
/// a singleton afterwards), and that snapshot is one of the model's
/// legal cut snapshots.
#[test]
fn full_refinement_converges_to_one_snapshot() {
    for seed in 0..256u64 {
        let mut rng = Rng::new(seed ^ 0x5eed_cafe);
        let events = random_events(&mut rng, 1, 12);
        let (st, stores, last_flush) = build(&events);
        let mut stack = vec![st];
        let mut snapshot = Vec::new();
        for slot in 0..SLOTS {
            let cands = read_pre_failure(&stack, slot_addr(slot));
            let chosen = cands[0]; // newest-first default
            do_read(&mut stack, slot_addr(slot), chosen);
            snapshot.push(chosen.value);
        }
        // Re-reading every slot now yields exactly the committed values.
        for slot in 0..SLOTS {
            let vals = rf_values(&stack, slot);
            assert_eq!(vals.len(), 1, "seed {seed}");
            assert!(vals.contains(&snapshot[slot as usize]), "seed {seed}");
        }
        // And the snapshot equals the model at some legal cut.
        let ok = legal_cuts(&stores, last_flush, u64::MAX)
            .into_iter()
            .any(|w| (0..SLOTS).all(|s| value_at(&stores, s, w) == snapshot[s as usize]));
        assert!(
            ok,
            "seed {seed}: snapshot {snapshot:?} not a legal cut of {events:?}"
        );
    }
}
