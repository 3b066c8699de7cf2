//! Property tests for the reads-from computation and constraint
//! refinement, against brute-force cut models: one line and one
//! execution first, then two adjacent lines, straddling stores and a
//! stack of two or three executions.
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
use jaaru_tso::{
    do_read, read_pre_failure, EvictionPolicy, ExecutionStorage, RfCandidate, RfSource, Seq,
    ThreadId, TsoMachine,
};

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
                st.record_store(slot_addr(s), [v], ThreadId(0), Location::caller(), seq);
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

// ---------------------------------------------------------------------
// Two adjacent lines, straddling stores, and a stack of executions.
//
// The model generalises the one above: every crashed execution `e` has
// one writeback cut per line, `w(e, line) ≥ σ(last clflush of the line
// in e)`. A recovery load of a byte reads from the newest execution whose
// cut captured a store to the byte (the newest such store), or the
// initial zero when none did. A commit keeps only the cut vectors under
// which the byte reads from the chosen store; the lazy intervals must
// then admit exactly the cuts those vectors project to.
// ---------------------------------------------------------------------

/// The 32 bytes around the boundary of lines 1 and 2.
const WINDOW_BASE: u64 = 2 * 64 - 16;
const WINDOW: u64 = 32;
const WINDOW_LINES: [CacheLineId; 2] = [CacheLineId::new(1), CacheLineId::new(2)];

/// One crashed execution and the model's view of it.
struct Exec {
    /// (seq, first byte, bytes) per store, in cache order.
    stores: Vec<(u64, u64, Vec<u8>)>,
    /// Per window line: the legal cuts before any commit.
    cuts: [Vec<u64>; 2],
}

impl Exec {
    /// The newest store of this execution to `byte` at or before `w`.
    fn stored_at(&self, byte: u64, w: u64) -> Option<(u64, u8)> {
        self.stores
            .iter()
            .rev()
            .filter(|&&(seq, _, _)| seq <= w)
            .find_map(|(seq, at, bytes)| {
                let off = byte.checked_sub(*at)? as usize;
                bytes.get(off).map(|&v| (*seq, v))
            })
    }
}

fn line_slot(byte: u64) -> usize {
    (PmAddr::new(byte).cache_line().index() - 1) as usize
}

/// Runs one execution of random stores (1, 2, 4 or 8 bytes, some
/// straddling the boundary) and clflushes on the simulator, then crashes.
fn random_exec(rng: &mut Rng) -> (ExecutionStorage, Exec) {
    let mut m = TsoMachine::new(EvictionPolicy::Eager);
    let t = ThreadId(0);
    let mut stores = Vec::new();
    let mut last_flush = [0u64; 2];
    for _ in 0..rng.below(7) {
        if rng.below(5) < 4 {
            let len = [1u64, 2, 4, 8][rng.below(4) as usize];
            let at = WINDOW_BASE + rng.below(WINDOW - len + 1);
            let bytes: Vec<u8> = (0..len).map(|_| (1 + rng.below(200)) as u8).collect();
            m.store(t, PmAddr::new(at), &bytes, Location::caller());
            stores.push((m.sigma().value(), at, bytes));
        } else {
            let li = rng.below(2) as usize;
            m.clflush(t, WINDOW_LINES[li]);
            last_flush[li] = m.sigma().value();
        }
    }
    let cuts = std::array::from_fn(|li| {
        let mut c = vec![last_flush[li]];
        for (seq, at, bytes) in &stores {
            let covers = (*at..*at + bytes.len() as u64).any(|b| line_slot(b) == li);
            if covers && *seq > last_flush[li] {
                c.push(*seq);
            }
        }
        c
    });
    (m.crash(), Exec { stores, cuts })
}

/// A byte's reads-from source: (execution, store seq, value), or `None`
/// for the initial value.
type Source = Option<(usize, u64, u8)>;

fn model_source(execs: &[Exec], byte: u64, cut: &[u64]) -> Source {
    (0..execs.len())
        .rev()
        .find_map(|e| execs[e].stored_at(byte, cut[e]).map(|(seq, v)| (e, seq, v)))
}

/// Every vector of per-execution cuts for one line, from the allowed sets.
fn cut_vectors(allowed: &[[Vec<u64>; 2]], li: usize) -> Vec<Vec<u64>> {
    allowed.iter().fold(vec![Vec::new()], |acc, a| {
        acc.iter()
            .flat_map(|prefix| {
                a[li].iter().map(move |&w| {
                    let mut v = prefix.clone();
                    v.push(w);
                    v
                })
            })
            .collect()
    })
}

fn lazy_source(c: &RfCandidate) -> Source {
    match c.source {
        RfSource::Initial => None,
        RfSource::Store { exec, .. } => Some((exec, c.seq.value(), c.value)),
    }
}

/// Compares every window byte's candidates and every (execution, line)
/// interval with the model's allowed cuts.
fn assert_matches_model(
    stack: &[ExecutionStorage],
    execs: &[Exec],
    allowed: &[[Vec<u64>; 2]],
    what: &str,
) {
    for byte in WINDOW_BASE..WINDOW_BASE + WINDOW {
        let lazy: BTreeSet<Source> = read_pre_failure(stack, PmAddr::new(byte))
            .iter()
            .map(lazy_source)
            .collect();
        let model: BTreeSet<Source> = cut_vectors(allowed, line_slot(byte))
            .iter()
            .map(|cut| model_source(execs, byte, cut))
            .collect();
        assert_eq!(lazy, model, "{what}: candidates of byte {byte}");
    }
    for (e, st) in stack.iter().enumerate() {
        for (li, &line) in WINDOW_LINES.iter().enumerate() {
            let lazy: BTreeSet<u64> = st
                .writeback_points(line)
                .iter()
                .map(|s| s.value())
                .collect();
            let model: BTreeSet<u64> = allowed[e][li].iter().copied().collect();
            assert_eq!(lazy, model, "{what}: cuts of execution {e}, {line:?}");
        }
    }
}

/// Over stacks two or three executions deep, random commits of random
/// bytes keep candidates and intervals equal to the brute-force model
/// after every commit.
#[test]
fn stacked_lines_match_brute_force_after_every_commit() {
    for seed in 0..128u64 {
        let mut rng = Rng::new(seed ^ 0x11ae_57ac);
        let depth = 2 + rng.below(2) as usize;
        let (mut stack, execs): (Vec<_>, Vec<_>) =
            (0..depth).map(|_| random_exec(&mut rng)).unzip();
        let mut allowed: Vec<[Vec<u64>; 2]> = execs.iter().map(|x| x.cuts.clone()).collect();
        assert_matches_model(&stack, &execs, &allowed, &format!("seed {seed}, fresh"));
        for step in 0..6 {
            let byte = WINDOW_BASE + rng.below(WINDOW);
            let cands = read_pre_failure(&stack, PmAddr::new(byte));
            let chosen = cands[rng.below(cands.len() as u64) as usize];
            do_read(&mut stack, PmAddr::new(byte), chosen);

            let li = line_slot(byte);
            let kept: Vec<Vec<u64>> = cut_vectors(&allowed, li)
                .into_iter()
                .filter(|cut| model_source(&execs, byte, cut) == lazy_source(&chosen))
                .collect();
            assert!(
                !kept.is_empty(),
                "seed {seed}: {chosen:?} is not realizable"
            );
            for (e, a) in allowed.iter_mut().enumerate() {
                let projected: BTreeSet<u64> = kept.iter().map(|cut| cut[e]).collect();
                a[li] = projected.into_iter().collect();
            }
            let what = format!("seed {seed}, commit {step} of byte {byte} to {chosen:?}");
            assert_matches_model(&stack, &execs, &allowed, &what);
        }
    }
}

/// A clone of a crashed execution's storage (what a snapshot restore
/// makes) refines its intervals without touching the original's.
#[test]
fn clones_refine_intervals_independently() {
    let mut m = TsoMachine::new(EvictionPolicy::Eager);
    let t = ThreadId(0);
    let a = PmAddr::new(64);
    m.store(t, a, &[1], Location::caller());
    m.store(t, a, &[2], Location::caller());
    let frozen = vec![m.crash()];
    let line = a.cache_line();
    let mut first = frozen.clone();
    let mut second = frozen.clone();
    let newest = read_pre_failure(&first, a)[0];
    do_read(&mut first, a, newest);
    do_read(&mut second, a, RfCandidate::INITIAL);
    assert_eq!(first[0].interval(line).begin(), newest.seq);
    assert_eq!(
        second[0].interval(line).end(),
        frozen[0].first_store_seq(a).unwrap()
    );
    assert!(frozen[0].interval(line).is_unconstrained());
    assert_eq!(rf_values(&frozen, 0), [0, 1, 2].into_iter().collect());
}
