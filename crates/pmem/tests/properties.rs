//! Property tests for the PM substrate: the pool must behave exactly
//! like a bounds-checked byte array with a trapping null page.
//!
//! Cases are generated with a seeded SplitMix64 generator (the workspace
//! builds offline, so no proptest): every run explores the same corpus,
//! and a failing case prints the seed that reproduces it.

use jaaru_pmem::{PmAddr, PmError, PmPool, SplitMix64, NULL_PAGE_SIZE};

const POOL: usize = 1024;

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

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

#[derive(Clone, Debug)]
enum Op {
    Write(u64, Vec<u8>),
    Read(u64, usize),
}

fn random_op(rng: &mut Rng) -> Op {
    let addr = rng.below(POOL as u64 + 32);
    if rng.below(2) == 0 {
        let len = rng.range(1, 24) as usize;
        let data = (0..len).map(|_| rng.next_u64() as u8).collect();
        Op::Write(addr, data)
    } else {
        Op::Read(addr, rng.range(1, 24) as usize)
    }
}

/// Differential against a plain Vec<u8> model: identical contents,
/// identical accept/reject decisions.
#[test]
fn pool_matches_byte_array_model() {
    for seed in 0..256u64 {
        let mut rng = Rng::new(seed);
        let mut pool = PmPool::new(POOL);
        let mut model = vec![0u8; POOL];
        let ops = rng.range(1, 40);
        for _ in 0..ops {
            match random_op(&mut rng) {
                Op::Write(a, d) => {
                    let legal = a >= NULL_PAGE_SIZE && a as usize + d.len() <= POOL;
                    let res = pool.write(PmAddr::new(a), &d);
                    assert_eq!(res.is_ok(), legal, "seed {seed}: write {} x{}", a, d.len());
                    if legal {
                        model[a as usize..a as usize + d.len()].copy_from_slice(&d);
                    }
                }
                Op::Read(a, n) => {
                    let legal = a >= NULL_PAGE_SIZE && a as usize + n <= POOL;
                    let mut buf = vec![0u8; n];
                    let res = pool.read(PmAddr::new(a), &mut buf);
                    assert_eq!(res.is_ok(), legal, "seed {seed}: read {a} x{n}");
                    if legal {
                        assert_eq!(&buf[..], &model[a as usize..a as usize + n], "seed {seed}");
                    }
                }
            }
        }
    }
}

/// Error classification: null-page accesses and out-of-bounds accesses
/// are distinguished correctly.
#[test]
fn error_kinds_are_classified() {
    let mut rng = Rng::new(0xc1a5_51f7);
    for case in 0..512u64 {
        let addr = rng.below(POOL as u64 * 2);
        let len = rng.range(1, 16) as usize;
        let pool = PmPool::new(POOL);
        let mut buf = vec![0u8; len];
        match pool.read(PmAddr::new(addr), &mut buf) {
            Ok(()) => {
                assert!(addr >= NULL_PAGE_SIZE, "case {case}");
                assert!(addr as usize + len <= POOL, "case {case}");
            }
            Err(PmError::NullAccess { .. }) => assert!(addr < NULL_PAGE_SIZE, "case {case}"),
            Err(PmError::OutOfBounds { .. }) => {
                assert!(addr >= NULL_PAGE_SIZE, "case {case}");
                assert!(addr as usize + len > POOL, "case {case}");
            }
            Err(e) => panic!("case {case}: unexpected error {e}"),
        }
    }
}

/// Bump allocation yields non-overlapping, aligned, in-bounds blocks.
#[test]
fn alloc_blocks_are_disjoint() {
    for seed in 0..128u64 {
        let mut rng = Rng::new(seed);
        let mut pool = PmPool::new(8192);
        let mut blocks: Vec<(u64, u64)> = Vec::new();
        let allocs = rng.range(1, 12);
        for _ in 0..allocs {
            let size = rng.range(1, 64);
            let align = 1u64 << rng.below(4);
            if let Ok(a) = pool.alloc(size, align) {
                assert_eq!(a.offset() % align, 0, "seed {seed}");
                assert!(a.offset() + size <= 8192, "seed {seed}");
                for &(b, blen) in &blocks {
                    assert!(
                        a.offset() >= b + blen || a.offset() + size <= b,
                        "seed {seed}: block ({}, {size}) overlaps ({b}, {blen})",
                        a.offset(),
                    );
                }
                blocks.push((a.offset(), size));
            }
        }
    }
}
