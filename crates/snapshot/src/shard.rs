//! The concurrent, `Arc`-shareable form of the snapshot cache.
//!
//! [`ShardedCache`] splits one logical cache into N independently
//! locked shards so parallel workers (and the serving daemon's
//! concurrent connections) contend on a mutex only when their keys
//! collide. The shard is chosen by hashing `(group, first trace
//! element)` — *not* the whole trace — because every prefix of a plan
//! shares its first element with the plan itself: a longest-prefix
//! [`lookup`](ShardedCache::lookup) therefore only ever needs to probe
//! a single shard, and sharding can never hide a prefix match. Keys
//! with an empty trace (the daemon's whole-job result entries) shard by
//! group alone.
//!
//! Access is closure-based: `lookup`/`get` run the caller's closure on
//! the payload *under the shard lock* and return its result, so callers
//! clone or project exactly what they need without the cache handing
//! out references that outlive the lock.

use std::sync::Mutex;

use jaaru_pmem::{fnv1a, FNV_OFFSET};

use crate::{SnapshotCache, SnapshotPayload, SnapshotStats, DEFAULT_ENTRY_CAP};

/// Shard count used by [`ShardedCache::new`]: enough to keep the
/// default worker pools (1–4 jobs) off each other's locks without
/// splintering the byte budget into uselessly small slices.
pub const DEFAULT_SHARDS: usize = 8;

/// A sharded, byte-budgeted `(group, trace)` cache safe to share across
/// threads behind an `Arc`.
///
/// Semantics match [`SnapshotCache`] — longest-prefix `lookup`,
/// exact-match `get`, LRU eviction under a byte/entry budget, duplicate
/// inserts ignored — with the budget split evenly across shards and
/// each shard's LRU clock independent. [`stats`](Self::stats) sums the
/// shards, so the counters read exactly like a single cache's.
pub struct ShardedCache<S> {
    shards: Box<[Mutex<SnapshotCache<S>>]>,
}

impl<S: SnapshotPayload> ShardedCache<S> {
    /// A cache holding at most `cap_bytes` of payload across
    /// [`DEFAULT_SHARDS`] shards.
    pub fn new(cap_bytes: usize) -> Self {
        Self::with_shards(cap_bytes, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count; `cap_bytes` and the entry
    /// cap are split evenly across shards.
    pub fn with_shards(cap_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_bytes = (cap_bytes / shards).max(1);
        let per_shard_entries = (DEFAULT_ENTRY_CAP / shards).max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(SnapshotCache::with_entry_cap(
                        per_shard_bytes,
                        per_shard_entries,
                    ))
                })
                .collect(),
        }
    }

    fn shard(&self, group: u64, first: Option<usize>) -> &Mutex<SnapshotCache<S>> {
        let first = first.map_or(u64::MAX, |f| f as u64);
        let hash = fnv1a(FNV_OFFSET ^ group, &first.to_le_bytes());
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// Runs `read` on the payload with the longest key prefixing `plan`
    /// within `group`, if any, and returns its result. Counts one hit
    /// or miss on the owning shard.
    pub fn lookup<R>(&self, group: u64, plan: &[usize], read: impl FnOnce(&S) -> R) -> Option<R> {
        let mut shard = self.shard(group, plan.first().copied()).lock().unwrap();
        shard.lookup(group, plan).map(read)
    }

    /// Runs `read` on the payload cached under exactly `(group, key)`,
    /// if any, and returns its result. Counts one hit or miss on the
    /// owning shard.
    pub fn get<R>(&self, group: u64, key: &[usize], read: impl FnOnce(&S) -> R) -> Option<R> {
        let mut shard = self.shard(group, key.first().copied()).lock().unwrap();
        shard.get(group, key).map(read)
    }

    /// Whether an entry is cached under exactly `(group, key)`.
    pub fn contains(&self, group: u64, key: &[usize]) -> bool {
        self.shard(group, key.first().copied())
            .lock()
            .unwrap()
            .contains(group, key)
    }

    /// Caches `payload` under `(group, key)` unless the key is already
    /// present, evicting LRU entries from the owning shard as needed.
    pub fn insert(&self, group: u64, key: Vec<usize>, payload: S) {
        self.shard(group, key.first().copied())
            .lock()
            .unwrap()
            .insert(group, key, payload);
    }

    /// Counters summed across shards: reads like one cache's stats
    /// (`bytes` is the total resident footprint, `peak_bytes` the sum
    /// of per-shard peaks).
    pub fn stats(&self) -> SnapshotStats {
        let mut total = SnapshotStats::default();
        for shard in self.shards.iter() {
            total.merge(&shard.lock().unwrap().stats());
        }
        total
    }

    /// Cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    struct Blob(usize);
    impl SnapshotPayload for Blob {
        fn approx_bytes(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn prefix_lookup_never_crosses_shards() {
        let cache = ShardedCache::new(1 << 20);
        // Keys of every length 1..=6 along one plan: all share plan[0],
        // so all land in one shard and the deepest must be found.
        let plan: Vec<usize> = vec![3, 0, 1, 0, 1, 1, 0];
        for len in 1..=6 {
            cache.insert(9, plan[..len].to_vec(), Blob(len));
        }
        let got = cache.lookup(9, &plan, |b| b.0);
        assert_eq!(got, Some(6), "deepest prefix wins across all inserts");
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn groups_and_exact_keys_work_through_shards() {
        let cache = ShardedCache::new(1 << 20);
        cache.insert(1, vec![], Blob(5));
        cache.insert(2, vec![], Blob(7));
        assert_eq!(cache.get(1, &[], |b| b.0), Some(5));
        assert_eq!(cache.get(2, &[], |b| b.0), Some(7));
        assert_eq!(cache.get(3, &[], |b| b.0), None);
        assert!(cache.contains(1, &[]));
        assert!(!cache.contains(3, &[]));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn stats_sum_across_shards() {
        let cache = ShardedCache::with_shards(1 << 20, 4);
        for i in 0..16 {
            cache.insert(0, vec![i], Blob(10));
        }
        let s = cache.stats();
        assert_eq!(s.inserts, 16);
        assert_eq!(s.bytes, 160);
        assert_eq!(cache.len(), 16);
        assert!(!cache.is_empty());
    }

    #[test]
    fn byte_budget_is_enforced_per_shard() {
        // 4 shards x 25 bytes: inserting 100-byte blobs always evicts.
        let cache = ShardedCache::with_shards(100, 4);
        for i in 0..8 {
            cache.insert(0, vec![i], Blob(100));
        }
        let s = cache.stats();
        assert_eq!(s.inserts, 8);
        assert_eq!(s.evictions, 8, "every oversized blob evicted");
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_inserts_and_lookups_are_safe() {
        let cache = Arc::new(ShardedCache::new(1 << 20));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..64 {
                        cache.insert(t, vec![i, 1], Blob(8));
                        cache.lookup(t, &[i, 1, 0], |b| b.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.inserts, 4 * 64);
        assert_eq!(s.hits, 4 * 64, "each lookup follows its own insert");
    }

    #[test]
    fn single_shard_degenerates_to_plain_cache() {
        let cache = ShardedCache::with_shards(25, 1);
        cache.insert(0, vec![1], Blob(10));
        cache.insert(0, vec![2], Blob(10));
        cache.insert(0, vec![3], Blob(10));
        assert_eq!(cache.stats().evictions, 1);
        assert!(!cache.contains(0, &[1]), "global LRU inside the shard");
    }
}
