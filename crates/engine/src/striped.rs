//! Real-thread concurrency variants over the engine.
//!
//! Mirrors [`densekv_kv::concurrent`]'s locking structures — one global
//! mutex (Memcached 1.4's cache lock), striped per-shard locks, and
//! striped locks with per-stripe bag-LRU (the Wiggins & Langston
//! rework) — but over [`Engine`] rather than the model store, so the
//! `engine_bench` experiment measures the contention of a store that
//! really moves bytes. All three implement
//! [`densekv_kv::concurrent::SharedStore`] and plug into the same
//! host-thread harness as the baseline experiments.

use densekv_kv::concurrent::SharedStore;
use densekv_kv::hash::jenkins_oaat;
use densekv_kv::lru::EvictionKind;
use densekv_kv::store::{StoreConfig, StoreError};
use densekv_kv::StoreBackend;
use parking_lot::Mutex;

use crate::engine::Engine;

/// An engine sharded across independently locked stripes (one stripe =
/// the global-mutex variant).
///
/// # Examples
///
/// ```
/// use densekv_engine::StripedEngine;
/// use densekv_kv::concurrent::SharedStore;
///
/// let store = StripedEngine::striped(16 << 20, 4);
/// store.set(b"k", b"v".to_vec(), 0)?;
/// assert_eq!(store.get(b"k", 0).as_deref(), Some(&b"v"[..]));
/// # Ok::<(), densekv_kv::StoreError>(())
/// ```
#[derive(Debug)]
pub struct StripedEngine {
    stripes: Vec<Mutex<Engine>>,
}

impl StripedEngine {
    fn build(memory_bytes: u64, stripes: usize, eviction: EvictionKind) -> Self {
        assert!(stripes > 0, "need at least one stripe");
        let per_stripe = StoreConfig {
            memory_bytes: memory_bytes / stripes as u64,
            eviction,
            ..StoreConfig::with_capacity(memory_bytes)
        };
        StripedEngine {
            stripes: (0..stripes)
                .map(|_| Mutex::new(Engine::new(per_stripe.clone())))
                .collect(),
        }
    }

    /// One mutex around one engine: the Memcached 1.4 lock structure.
    #[must_use]
    pub fn global(memory_bytes: u64) -> Self {
        StripedEngine::build(memory_bytes, 1, EvictionKind::StrictLru)
    }

    /// `stripes` independently locked engines (strict per-stripe LRU),
    /// splitting the budget evenly.
    #[must_use]
    pub fn striped(memory_bytes: u64, stripes: usize) -> Self {
        StripedEngine::build(memory_bytes, stripes, EvictionKind::StrictLru)
    }

    /// Striped locks with per-stripe bag-LRU: accesses only set a flag
    /// inside the stripe, the cheapest hot path of the three.
    #[must_use]
    pub fn striped_bags(memory_bytes: u64, stripes: usize) -> Self {
        StripedEngine::build(memory_bytes, stripes, EvictionKind::Bags)
    }

    /// Number of stripes.
    #[must_use]
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    fn stripe_of(&self, key: &[u8]) -> usize {
        // Upper hash bits, so stripe choice stays independent of the
        // per-stripe bucket index (low bits) — as the model's striped
        // store shards.
        (jenkins_oaat(key) >> 32) as usize % self.stripes.len()
    }

    /// Sum of a per-stripe engine gauge, by `stats engine` line name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        self.stripes
            .iter()
            .map(|stripe| {
                stripe
                    .lock()
                    .backend_stat_lines()
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0, |&(_, v)| v)
            })
            .sum()
    }
}

impl SharedStore for StripedEngine {
    fn get(&self, key: &[u8], now: u64) -> Option<Vec<u8>> {
        self.stripes[self.stripe_of(key)]
            .lock()
            .get(key, now)
            .map(|hit| hit.value().to_vec())
    }

    fn set(&self, key: &[u8], value: Vec<u8>, now: u64) -> Result<(), StoreError> {
        self.stripes[self.stripe_of(key)]
            .lock()
            .set_with_flags(key, value, 0, None, now)
    }

    fn delete(&self, key: &[u8]) -> bool {
        self.stripes[self.stripe_of(key)].lock().delete(key)
    }

    fn len(&self) -> u64 {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn variants_round_trip_and_report_lengths() {
        for store in [
            StripedEngine::global(8 << 20),
            StripedEngine::striped(8 << 20, 4),
            StripedEngine::striped_bags(8 << 20, 4),
        ] {
            for i in 0..100u32 {
                store
                    .set(format!("key{i}").as_bytes(), vec![0; 100], 0)
                    .unwrap();
            }
            assert_eq!(store.len(), 100);
            assert_eq!(store.get(b"key7", 0).unwrap().len(), 100);
            assert!(store.delete(b"key7"));
            assert_eq!(store.len(), 99);
            assert_eq!(store.gauge("engine_items"), 99);
        }
    }

    #[test]
    fn stripes_split_the_budget() {
        let store = StripedEngine::striped(8 << 20, 4);
        assert_eq!(store.stripe_count(), 4);
        assert_eq!(store.gauge("engine_budget_bytes"), 8 << 20);
    }

    #[test]
    fn concurrent_writers_land_all_keys() {
        let store = Arc::new(StripedEngine::striped(16 << 20, 4));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..250u32 {
                    let key = format!("t{t}-key{i}");
                    store.set(key.as_bytes(), vec![t as u8; 64], 0).unwrap();
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(store.len(), 1000);
        assert_eq!(store.get(b"t3-key249", 0).as_deref(), Some(&[3u8; 64][..]));
    }
}
