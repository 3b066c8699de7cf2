//! CCEH: Cache-Conscious Extendible Hashing (Nam et al., FAST '19), as
//! converted to PM by RECIPE.
//!
//! Layout (all offsets in bytes):
//!
//! ```text
//! root object   : { directory_ptr: u64 }                    (1 line)
//! directory     : header { global_depth: u64 } (own line)
//!                 entries: [segment_ptr; 2^global_depth]
//! segment       : header { depth_pattern: u64 } (own line) — the
//!                 local depth (low 8 bits) and hash pattern (high bits)
//!                 share one word so the split's header advance is a
//!                 single atomic store (a torn depth/pattern pair would
//!                 misclassify live slots as stale)
//!                 slots:   [ (key: u64, value: u64); 4 ]    (1 line)
//! ```
//!
//! Splits are *in place*, as in the original CCEH: the upper half of a
//! full segment is copied into a fresh sibling, the directory entries
//! covering the upper half swing over, and only then does the old
//! segment's `(local_depth, pattern)` advance. That ordering makes
//! stale slots (pairs whose hash pattern no longer matches the segment)
//! safely reusable: a slot can only *appear* stale once the header
//! update is persistent, which the protocol orders after the directory
//! swing. The structure's recovery procedure walks the directory with
//! the stride rule from the original CCEH code:
//! `stride = 2^(global_depth - local_depth)`.
//!
//! Seeded faults reproduce the paper's three CCEH constructor bugs
//! (Figure 13 #1–3; Figure 15 symptoms: infinite loop, segfault,
//! segfault).

use jaaru::{PmAddr, PmEnv};
use jaaru_pmem::SplitMix64;

use crate::alloc::PBump;
use crate::recipe::PmIndex;

const SEG_SLOTS: u64 = 4;
const SEG_HEADER: u64 = 64;
const SEG_SIZE: u64 = SEG_HEADER + SEG_SLOTS * 16;
const DIR_HEADER: u64 = 64;
const INITIAL_DEPTH: u64 = 1;

/// Seeded CCEH faults (Figure 13, bugs 1–3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CcehFault {
    /// Fixed configuration.
    #[default]
    None,
    /// Bug 1: the directory header (global depth) is not flushed in the
    /// constructor. Recovery can read depth 0 while segments carry local
    /// depth 1, making the CCEH recovery stride `2^(0-1) → 0`: an
    /// infinite loop.
    CtorDirectoryHeaderNotFlushed,
    /// Bug 2: the directory's segment-pointer entries are not flushed in
    /// the constructor. Recovery can read a null segment pointer and
    /// fault dereferencing it.
    CtorDirectoryEntriesNotFlushed,
    /// Bug 3: the root object (directory pointer) is not flushed in the
    /// constructor. Recovery can read a null directory and fault.
    CtorRootNotFlushed,
}

/// A CCEH hash table handle.
#[derive(Clone, Copy, Debug)]
pub struct Cceh {
    root: PmAddr,
    fault: CcehFault,
}

impl Cceh {
    fn dir(&self, env: &dyn PmEnv) -> PmAddr {
        env.load_addr(self.root)
    }

    fn global_depth(env: &dyn PmEnv, dir: PmAddr) -> u64 {
        env.load_u64(dir)
    }

    fn entry_cell(dir: PmAddr, idx: u64) -> PmAddr {
        dir + DIR_HEADER + idx * 8
    }

    /// CCEH hashes keys before indexing (adjacent keys must spread).
    fn hash(key: u64) -> u64 {
        SplitMix64::new(key).next_u64()
    }

    /// Top `depth` bits of the hash (the directory index / pattern).
    fn top_bits(hash: u64, depth: u64) -> u64 {
        if depth == 0 {
            0
        } else {
            hash >> (64 - depth)
        }
    }

    fn slot_cell(seg: PmAddr, slot: u64) -> PmAddr {
        seg + SEG_HEADER + slot * 16
    }

    /// Packs (local_depth, pattern) into one atomically-storable word.
    fn pack_header(ld: u64, pattern: u64) -> u64 {
        debug_assert!(ld < 56);
        (pattern << 8) | ld
    }

    fn seg_depth_pattern(env: &dyn PmEnv, seg: PmAddr) -> (u64, u64) {
        let w = env.load_u64(seg);
        (w & 0xff, w >> 8)
    }

    /// Whether a stored key still belongs to this segment under its
    /// current depth/pattern (stale pairs are reusable slots).
    fn slot_valid(key: u64, ld: u64, pattern: u64) -> bool {
        Self::top_bits(Self::hash(key), ld) == pattern
    }

    fn alloc_segment(
        env: &dyn PmEnv,
        heap: &PBump,
        local_depth: u64,
        pattern: u64,
        flush: bool,
    ) -> PmAddr {
        let seg = heap.alloc_zeroed(env, SEG_SIZE, 64);
        env.store_u64(seg, Self::pack_header(local_depth, pattern));
        if flush {
            env.clflush(seg, SEG_SIZE as usize);
            env.sfence();
        }
        seg
    }

    /// Doubles the directory (copy, flush, single root-pointer commit).
    fn double_directory(&self, env: &dyn PmEnv, heap: &PBump, dir: PmAddr, gd: u64) -> PmAddr {
        let new_dir = heap.alloc_zeroed(env, DIR_HEADER + (2 << gd) * 8, 64);
        env.store_u64(new_dir, gd + 1);
        for i in 0..(1u64 << gd) {
            let seg_i = env.load_u64(Self::entry_cell(dir, i));
            env.store_u64(Self::entry_cell(new_dir, 2 * i), seg_i);
            env.store_u64(Self::entry_cell(new_dir, 2 * i + 1), seg_i);
        }
        env.clflush(new_dir, (DIR_HEADER + (2 << gd) * 8) as usize);
        env.sfence();
        env.store_addr(self.root, new_dir);
        env.persist(self.root, 8);
        new_dir
    }

    /// In-place CCEH split: sibling for the upper half, directory swing,
    /// then the old header advance — strictly in that persist order.
    fn split(&self, env: &dyn PmEnv, heap: &PBump, seg: PmAddr) {
        let mut dir = self.dir(env);
        let mut gd = Self::global_depth(env, dir);
        let (ld, pattern) = Self::seg_depth_pattern(env, seg);
        env.pm_assert(ld <= gd, "segment deeper than directory");
        if ld == gd {
            dir = self.double_directory(env, heap, dir, gd);
            gd += 1;
        }
        let new_ld = ld + 1;
        let hi_pattern = (pattern << 1) | 1;

        // 1. Build the sibling privately from the upper-half pairs.
        let new_seg = Self::alloc_segment(env, heap, new_ld, hi_pattern, false);
        let mut placed = 0;
        for slot in 0..SEG_SLOTS {
            let cell = Self::slot_cell(seg, slot);
            let key = env.load_u64(cell);
            if key == 0 || !Self::slot_valid(key, new_ld, hi_pattern) {
                continue;
            }
            let tcell = Self::slot_cell(new_seg, placed);
            env.store_u64(tcell + 8, env.load_u64(cell + 8));
            env.store_u64(tcell, key);
            placed += 1;
        }
        env.clflush(new_seg, SEG_SIZE as usize);
        env.sfence();

        // 2. Swing the directory entries of the upper half. The run is
        // computed from the pattern (not by scanning), so it is correct
        // even when an earlier swing persisted partially.
        let run_len = 1u64 << (gd - new_ld);
        let run_start = hi_pattern << (gd - new_ld);
        for j in 0..run_len {
            env.store_addr(Self::entry_cell(dir, run_start + j), new_seg);
        }
        env.clflush(Self::entry_cell(dir, run_start), (run_len * 8) as usize);
        env.sfence();

        // 3. Advance the old segment's depth/pattern with a single
        // atomic store: a torn (depth, pattern) pair would misclassify
        // live slots as stale and let inserts overwrite them.
        env.store_u64(seg, Self::pack_header(new_ld, pattern << 1));
        env.clflush(seg, 8);
        env.sfence();
    }
}

impl PmIndex for Cceh {
    const NAME: &'static str = "CCEH";
    type Fault = CcehFault;

    fn create(env: &dyn PmEnv, heap: &PBump, fault: CcehFault) -> Self {
        let root = heap.alloc_zeroed(env, 8, 64);
        let entries = 1u64 << INITIAL_DEPTH;
        let dir = heap.alloc_zeroed(env, DIR_HEADER + entries * 8, 64);

        // Directory header.
        env.store_u64(dir, INITIAL_DEPTH);
        if fault != CcehFault::CtorDirectoryHeaderNotFlushed {
            env.clflush(dir, 8);
            env.sfence();
        }

        // Initial segments and directory entries.
        for i in 0..entries {
            let seg = Self::alloc_segment(env, heap, INITIAL_DEPTH, i, true);
            env.store_addr(Self::entry_cell(dir, i), seg);
        }
        if fault != CcehFault::CtorDirectoryEntriesNotFlushed {
            env.clflush(Self::entry_cell(dir, 0), (entries * 8) as usize);
            env.sfence();
        }

        // Root object (directory pointer).
        env.store_addr(root, dir);
        if fault != CcehFault::CtorRootNotFlushed {
            env.persist(root, 8);
        }

        Cceh { root, fault }
    }

    fn open(_env: &dyn PmEnv, root: PmAddr, fault: CcehFault) -> Self {
        Cceh { root, fault }
    }

    fn root(&self) -> PmAddr {
        self.root
    }

    fn insert(&self, env: &dyn PmEnv, heap: &PBump, key: u64, value: u64) {
        loop {
            let dir = self.dir(env);
            let gd = Self::global_depth(env, dir);
            let idx = Self::top_bits(Self::hash(key), gd);
            let seg = env.load_addr(Self::entry_cell(dir, idx));
            let (ld, pattern) = Self::seg_depth_pattern(env, seg);
            let mut free_slot = None;
            let mut updated = false;
            for slot in 0..SEG_SLOTS {
                let cell = Self::slot_cell(seg, slot);
                let k = env.load_u64(cell);
                if k == key {
                    // Update in place: value store is 8-byte atomic.
                    env.store_u64(cell + 8, value);
                    env.persist(cell + 8, 8);
                    updated = true;
                    break;
                }
                if free_slot.is_none() && (k == 0 || !Self::slot_valid(k, ld, pattern)) {
                    free_slot = Some(cell);
                }
            }
            if updated {
                return;
            }
            if let Some(cell) = free_slot {
                // Value first, then the key as the slot's commit store;
                // one flush covers the 16-byte pair.
                env.store_u64(cell + 8, value);
                env.store_u64(cell, key);
                env.clflush(cell, 16);
                env.sfence();
                return;
            }
            self.split(env, heap, seg);
        }
    }

    fn get(&self, env: &dyn PmEnv, key: u64) -> Option<u64> {
        let dir = self.dir(env);
        let gd = Self::global_depth(env, dir);
        let idx = Self::top_bits(Self::hash(key), gd);
        let seg = env.load_addr(Self::entry_cell(dir, idx));
        for slot in 0..SEG_SLOTS {
            let cell = Self::slot_cell(seg, slot);
            if env.load_u64(cell) == key {
                return Some(env.load_u64(cell + 8));
            }
        }
        None
    }

    /// Durable removal: clearing the slot's key word is the atomic
    /// commit; the stale value is unreachable once the key reads 0.
    fn supports_removal() -> bool {
        true
    }

    fn remove(&self, env: &dyn PmEnv, _heap: &PBump, key: u64) {
        let dir = self.dir(env);
        let gd = Self::global_depth(env, dir);
        let idx = Self::top_bits(Self::hash(key), gd);
        let seg = env.load_addr(Self::entry_cell(dir, idx));
        for slot in 0..SEG_SLOTS {
            let cell = Self::slot_cell(seg, slot);
            if env.load_u64(cell) == key {
                env.store_u64(cell, 0);
                env.persist(cell, 8);
                return;
            }
        }
    }

    /// The CCEH directory recovery: walk the directory striding by
    /// `2^(gd - ld)`, detecting and completing in-flight splits.
    ///
    /// A crash between a split's directory swing and its (atomic) header
    /// advance leaves the old segment claiming a run whose upper half
    /// already points at the new sibling. Left unrepaired, a later
    /// re-split of the old segment would rebuild a fresh sibling and
    /// swing the same entries over it, unlinking data committed into the
    /// original sibling meanwhile — the model checker found exactly this
    /// corruption in an earlier revision of this code. The repair (as in
    /// CCEH's `Directory::Recovery`) completes the swing to the existing
    /// sibling and advances the stale header.
    ///
    /// A corrupt depth pair (`ld > gd`) makes the stride zero — the
    /// original code's infinite loop, which the checker's operation
    /// budget converts into a reported bug.
    fn validate(&self, env: &dyn PmEnv) {
        let dir = self.dir(env);
        let gd = Self::global_depth(env, dir);
        let cap = 1u64 << gd.min(62);
        let mut i = 0u64;
        while i < cap {
            let seg = env.load_addr(Self::entry_cell(dir, i));
            let (ld, pattern) = Self::seg_depth_pattern(env, seg);
            let stride = if ld <= gd { 1u64 << (gd - ld) } else { 0 };
            if stride == 0 {
                // Faithful to CCEH's Directory::Recovery loop: a zero
                // stride spins here forever.
                continue;
            }
            if stride >= 2 {
                let half = i + stride / 2;
                let sibling = (half..i + stride)
                    .map(|j| env.load_addr(Self::entry_cell(dir, j)))
                    .find(|&p| p != seg);
                if let Some(s2) = sibling {
                    // Complete the in-flight split: finish the swing
                    // (idempotent), then advance the header atomically.
                    for j in half..i + stride {
                        if env.load_addr(Self::entry_cell(dir, j)) != s2 {
                            env.store_addr(Self::entry_cell(dir, j), s2);
                        }
                    }
                    env.clflush(Self::entry_cell(dir, half), ((stride / 2) * 8) as usize);
                    env.sfence();
                    env.store_u64(seg, Self::pack_header(ld + 1, pattern << 1));
                    env.clflush(seg, 8);
                    env.sfence();
                    continue; // reprocess the run with the repaired header
                }
            }
            i += stride;
        }
        let _ = self.fault;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::test_support::{check_workload, native_roundtrip};
    use jaaru::BugKind;

    #[test]
    fn native_remove_roundtrip() {
        crate::recipe::test_support::native_remove_roundtrip::<Cceh>(48);
    }

    #[test]
    fn deletes_are_crash_consistent() {
        let report = crate::recipe::test_support::check_delete_workload::<Cceh>(5, 2);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn functional_roundtrip() {
        native_roundtrip::<Cceh>(64);
    }

    #[test]
    fn splits_preserve_all_keys() {
        // 200 keys force many splits and directory doublings.
        native_roundtrip::<Cceh>(200);
    }

    #[test]
    fn fixed_cceh_is_crash_consistent() {
        let report = check_workload::<Cceh>(CcehFault::None, 5);
        assert!(report.is_clean(), "{report}");
        assert!(report.stats.scenarios > 10, "{report}");
    }

    #[test]
    fn fixed_cceh_with_splits_is_crash_consistent() {
        // Enough keys to force splits (and usually a doubling) so the
        // split/doubling persist ordering itself is model checked.
        let report = check_workload::<Cceh>(CcehFault::None, 9);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn missing_directory_header_flush_loops_forever() {
        let report = check_workload::<Cceh>(CcehFault::CtorDirectoryHeaderNotFlushed, 4);
        assert!(!report.is_clean(), "{report}");
        assert!(
            report.bugs.iter().any(|b| b.kind == BugKind::InfiniteLoop),
            "CCEH bug 1 symptom is an infinite loop: {report}"
        );
    }

    #[test]
    fn missing_directory_entries_flush_faults() {
        let report = check_workload::<Cceh>(CcehFault::CtorDirectoryEntriesNotFlushed, 4);
        assert!(!report.is_clean(), "{report}");
        assert!(
            report.bugs.iter().any(|b| b.kind == BugKind::IllegalAccess),
            "CCEH bug 2 symptom is a segfault: {report}"
        );
    }

    #[test]
    fn missing_root_flush_faults() {
        let report = check_workload::<Cceh>(CcehFault::CtorRootNotFlushed, 4);
        assert!(!report.is_clean(), "{report}");
        assert!(
            report.bugs.iter().any(|b| b.kind == BugKind::IllegalAccess),
            "CCEH bug 3 symptom is a segfault: {report}"
        );
    }
}
