//! Shared scaffolding for workload drivers.

use jaaru::{PmAddr, PmEnv, SplitMix64};

/// Magic value marking an initialized pool (any stable 64-bit constant).
pub const POOL_MAGIC: u64 = 0x4a41_4152_552d_504d; // "JAARU-PM"

/// The standard driver header every workload places at the pool root:
///
/// ```text
/// root + 0   magic        (u64)  — pool initialized marker
/// root + 8   committed    (u64)  — durable insert counter
/// root + 16  structure    (u64)  — pointer to the structure's root object
/// root + 24  deleted      (u64)  — durable delete counter
/// root + 128 heap cursor  (u64)  — persistent bump-allocator state
///                                  (own cache line, so driver-header
///                                  flushes cannot mask allocator faults)
/// ```
///
/// The *durability contract* checked by every driver: when an insert
/// returns, its effects are persistent. The driver persists the
/// `committed` counter after each insert; recovery then demands that
/// every key with index below `committed` be present. A structure whose
/// insert misses a flush violates the contract and manifests as an
/// assertion failure, exactly the symptom class of the paper's tables.
#[derive(Clone, Copy, Debug)]
pub struct Harness {
    root: PmAddr,
}

impl Harness {
    /// Binds the harness to the pool root.
    pub fn new(env: &dyn PmEnv) -> Self {
        Harness { root: env.root() }
    }

    /// Whether the pool has been initialized by a previous execution.
    pub fn is_initialized(&self, env: &dyn PmEnv) -> bool {
        env.load_u64(self.root) == POOL_MAGIC
    }

    /// Marks the pool initialized: call after the structure root has been
    /// persisted. Persists the magic (the pool-level commit store).
    pub fn set_initialized(&self, env: &dyn PmEnv) {
        env.store_u64(self.root, POOL_MAGIC);
        env.persist(self.root, 8);
    }

    /// The durable insert counter.
    pub fn committed(&self, env: &dyn PmEnv) -> u64 {
        env.load_u64(self.root + 8)
    }

    /// Durably advances the insert counter (flush + fence).
    pub fn set_committed(&self, env: &dyn PmEnv, n: u64) {
        env.store_u64(self.root + 8, n);
        env.persist(self.root + 8, 8);
    }

    /// The structure's root object pointer.
    pub fn structure(&self, env: &dyn PmEnv) -> PmAddr {
        env.load_addr(self.root + 16)
    }

    /// Stores (and persists) the structure's root object pointer.
    pub fn set_structure(&self, env: &dyn PmEnv, addr: PmAddr) {
        env.store_addr(self.root + 16, addr);
        env.persist(self.root + 16, 8);
    }

    /// The durable delete counter (for workloads with a delete phase).
    pub fn deleted(&self, env: &dyn PmEnv) -> u64 {
        env.load_u64(self.root + 24)
    }

    /// Durably advances the delete counter.
    pub fn set_deleted(&self, env: &dyn PmEnv, n: u64) {
        env.store_u64(self.root + 24, n);
        env.persist(self.root + 24, 8);
    }

    /// Location of the persistent heap allocator's cursor cell (its own
    /// cache line).
    pub fn heap_cursor_cell(&self) -> PmAddr {
        self.root + 128
    }

    /// First byte of the persistent heap managed by [`crate::alloc::PBump`].
    pub fn heap_base(&self) -> PmAddr {
        self.root + 960 // leaves the driver header area (15 lines) free
    }
}

/// `n` distinct non-zero keys from a seed (zero is reserved as the
/// empty-slot marker in most index structures).
pub fn gen_keys(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let k = rng.next_u64();
        if k != 0 && !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys
}

/// Fingerprint of a key for value cross-checks.
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x100_0000_01b3) ^ 0xcbf2_9ce4_8422_2325
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru::NativeEnv;

    #[test]
    fn harness_roundtrip() {
        let env = NativeEnv::new(4096);
        let h = Harness::new(&env);
        assert!(!h.is_initialized(&env));
        assert_eq!(h.committed(&env), 0);
        h.set_structure(&env, PmAddr::new(0x100));
        h.set_initialized(&env);
        h.set_committed(&env, 3);
        assert!(h.is_initialized(&env));
        assert_eq!(h.committed(&env), 3);
        assert_eq!(h.structure(&env), PmAddr::new(0x100));
    }

    #[test]
    fn keys_are_distinct_nonzero_and_deterministic() {
        let a = gen_keys(7, 32);
        let b = gen_keys(7, 32);
        assert_eq!(a, b);
        assert!(a.iter().all(|&k| k != 0));
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 32);
        assert_ne!(gen_keys(8, 32), a);
    }

    #[test]
    fn value_fingerprint_is_injective_enough() {
        let keys = gen_keys(1, 64);
        let mut values: Vec<u64> = keys.iter().map(|&k| value_of(k)).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 64);
    }
}
