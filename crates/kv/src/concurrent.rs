//! Thread-safe store wrappers reproducing the locking structures whose
//! contention the paper's baselines exhibit (§3.6, Table 4):
//!
//! * [`GlobalLockStore`] — one mutex around everything: Memcached 1.4's
//!   cache lock. Throughput collapses beyond a few threads.
//! * [`StripedStore`] — the hash space is sharded across independently
//!   locked stores. With `emulate_global_lru = true` every operation also
//!   takes a process-wide LRU mutex, mimicking Memcached 1.6's remaining
//!   bottleneck; with it off, the configuration corresponds to the "Bags"
//!   rework (per-shard bag LRU, no global ordering).
//!
//! The `densekv-baseline` crate drives these with real host threads to
//! demonstrate the 1.4 → 1.6 → Bags scaling ordering that Table 4 encodes.

use parking_lot::Mutex;

use crate::hash::jenkins_oaat;
use crate::lru::EvictionKind;
use crate::store::{KvStore, StoreConfig, StoreError};

/// The operations the multithreaded experiments need.
pub trait SharedStore: Send + Sync {
    /// Fetches a value.
    fn get(&self, key: &[u8], now: u64) -> Option<Vec<u8>>;
    /// Stores a value.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from the underlying store.
    fn set(&self, key: &[u8], value: Vec<u8>, now: u64) -> Result<(), StoreError>;
    /// Deletes a key; true if it existed.
    fn delete(&self, key: &[u8]) -> bool;
    /// Total live items across shards.
    fn len(&self) -> u64;
    /// True when no items are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Memcached 1.4: a single global lock.
///
/// # Examples
///
/// ```
/// use densekv_kv::concurrent::{GlobalLockStore, SharedStore};
/// use densekv_kv::store::StoreConfig;
///
/// let store = GlobalLockStore::new(StoreConfig::with_capacity(4 << 20));
/// store.set(b"k", b"v".to_vec(), 0)?;
/// assert_eq!(store.get(b"k", 0).as_deref(), Some(&b"v"[..]));
/// # Ok::<(), densekv_kv::StoreError>(())
/// ```
#[derive(Debug)]
pub struct GlobalLockStore {
    inner: Mutex<KvStore>,
}

impl GlobalLockStore {
    /// Creates a store guarded by one mutex.
    pub fn new(config: StoreConfig) -> Self {
        GlobalLockStore {
            inner: Mutex::new(KvStore::new(config)),
        }
    }
}

impl SharedStore for GlobalLockStore {
    fn get(&self, key: &[u8], now: u64) -> Option<Vec<u8>> {
        self.inner
            .lock()
            .get(key, now)
            .map(|hit| hit.value().to_vec())
    }

    fn set(&self, key: &[u8], value: Vec<u8>, now: u64) -> Result<(), StoreError> {
        self.inner.lock().set(key, value, None, now).map(|_| ())
    }

    fn delete(&self, key: &[u8]) -> bool {
        self.inner.lock().delete(key).is_some()
    }

    fn len(&self) -> u64 {
        self.inner.lock().len()
    }
}

/// A hash-sharded store with optional global-LRU emulation.
#[derive(Debug)]
pub struct StripedStore {
    shards: Vec<Mutex<KvStore>>,
    /// When present, every operation briefly serializes here — the
    /// Memcached 1.6 global LRU/stats lock.
    global_lru: Option<Mutex<u64>>,
}

impl StripedStore {
    /// Creates `shards` independent stores splitting `config.memory_bytes`
    /// evenly. `eviction` picks the per-shard policy.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or the per-shard budget rounds below one
    /// slab page.
    pub fn new(config: StoreConfig, shards: usize, emulate_global_lru: bool) -> Self {
        assert!(shards > 0, "need at least one shard");
        let per_shard = StoreConfig {
            memory_bytes: config.memory_bytes / shards as u64,
            ..config
        };
        StripedStore {
            shards: (0..shards)
                .map(|_| Mutex::new(KvStore::new(per_shard.clone())))
                .collect(),
            global_lru: emulate_global_lru.then(|| Mutex::new(0)),
        }
    }

    /// Memcached 1.6: striped hash locks, strict LRU behind a global lock.
    pub fn memcached_16(memory_bytes: u64, shards: usize) -> Self {
        let mut config = StoreConfig::with_capacity(memory_bytes);
        config.eviction = EvictionKind::StrictLru;
        StripedStore::new(config, shards, true)
    }

    /// The "Bags" rework: striped locks, per-shard bag LRU, no global
    /// ordering lock.
    pub fn bags(memory_bytes: u64, shards: usize) -> Self {
        let mut config = StoreConfig::with_capacity(memory_bytes);
        config.eviction = EvictionKind::Bags;
        StripedStore::new(config, shards, false)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: &[u8]) -> usize {
        // Use the upper hash bits for sharding so shard choice stays
        // independent of the per-shard bucket index (low bits).
        (jenkins_oaat(key) >> 32) as usize % self.shards.len()
    }

    fn touch_global_lru(&self) {
        if let Some(lock) = &self.global_lru {
            // The critical section is tiny — it is the *serialization*,
            // not the work, that throttles Memcached 1.6.
            let mut guard = lock.lock();
            *guard = guard.wrapping_add(1);
        }
    }
}

impl SharedStore for StripedStore {
    fn get(&self, key: &[u8], now: u64) -> Option<Vec<u8>> {
        self.touch_global_lru();
        self.shards[self.shard_of(key)]
            .lock()
            .get(key, now)
            .map(|hit| hit.value().to_vec())
    }

    fn set(&self, key: &[u8], value: Vec<u8>, now: u64) -> Result<(), StoreError> {
        self.touch_global_lru();
        self.shards[self.shard_of(key)]
            .lock()
            .set(key, value, None, now)
            .map(|_| ())
    }

    fn delete(&self, key: &[u8]) -> bool {
        self.touch_global_lru();
        self.shards[self.shard_of(key)].lock().delete(key).is_some()
    }

    fn len(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn exercise(store: Arc<dyn SharedStore>) {
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        let key = format!("t{t}:k{i}");
                        store.set(key.as_bytes(), vec![t as u8; 64], 0).unwrap();
                        assert_eq!(
                            store.get(key.as_bytes(), 0).as_deref(),
                            Some(&[t as u8; 64][..])
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(store.len(), 2000);
    }

    #[test]
    fn global_lock_store_is_correct_under_threads() {
        exercise(Arc::new(GlobalLockStore::new(StoreConfig::with_capacity(
            16 << 20,
        ))));
    }

    #[test]
    fn striped_store_is_correct_under_threads() {
        exercise(Arc::new(StripedStore::memcached_16(16 << 20, 8)));
        exercise(Arc::new(StripedStore::bags(16 << 20, 8)));
    }

    #[test]
    fn striping_distributes_keys() {
        let store = StripedStore::bags(16 << 20, 8);
        for i in 0..800u32 {
            store
                .set(format!("key{i}").as_bytes(), vec![0; 32], 0)
                .unwrap();
        }
        let counts: Vec<u64> = store.shards.iter().map(|s| s.lock().len()).collect();
        assert_eq!(counts.iter().sum::<u64>(), 800);
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 40, "shard {i} got only {c} of 800 keys");
        }
    }

    #[test]
    fn delete_across_wrappers() {
        let store = StripedStore::bags(8 << 20, 4);
        store.set(b"k", b"v".to_vec(), 0).unwrap();
        assert!(store.delete(b"k"));
        assert!(!store.delete(b"k"));
        assert!(store.is_empty());
    }
}
