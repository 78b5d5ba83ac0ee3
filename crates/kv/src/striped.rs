//! One hash-striped store: any [`StoreBackend`] split across
//! independently locked stripes.
//!
//! Every locking structure the paper's Xeon baselines turn on (§3.6,
//! Table 4) is an instance of this one type:
//!
//! * **Memcached 1.4** — one stripe: a single global cache lock;
//! * **Memcached 1.6** — many stripes with strict LRU, plus a
//!   process-wide LRU lock the caller takes before the stripe lock
//!   (`densekv-baseline`'s host harness);
//! * **Bags** — many stripes whose backends evict by
//!   [`EvictionKind::Bags`](crate::lru::EvictionKind::Bags), a
//!   per-stripe bag LRU with no global ordering.
//!
//! The live front-end (`densekv-serve`'s `ShardedStore`) stripes a
//! `Box<dyn StoreBackend + Send>` per shard; the real-thread benches
//! stripe [`KvStore`](crate::KvStore) or the engine directly.

use parking_lot::{Mutex, MutexGuard};

use crate::backend::StoreBackend;
use crate::hash::jenkins_oaat;
use crate::store::{StoreConfig, StoreStats};

/// A store sharded by key hash across independently locked backends,
/// splitting the memory budget evenly.
///
/// # Examples
///
/// ```
/// use densekv_kv::{KvStore, StoreConfig, Striped};
///
/// let store = Striped::new(StoreConfig::with_capacity(16 << 20), 4, |config| {
///     Box::new(KvStore::new(config))
/// });
/// let key = b"user:42";
/// store.lock(store.stripe_of(key)).set(key, b"hello".to_vec(), None, 0)?;
/// assert_eq!(store.len(), 1);
/// assert_eq!(store.stats().sets, 1);
/// # Ok::<(), densekv_kv::StoreError>(())
/// ```
pub struct Striped<B: ?Sized> {
    stripes: Vec<Mutex<Box<B>>>,
}

impl<B: ?Sized> std::fmt::Debug for Striped<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Striped")
            .field("stripes", &self.stripes.len())
            .finish()
    }
}

impl<B: StoreBackend + ?Sized> Striped<B> {
    /// Builds `stripes` backends with `build`, each over an even share
    /// of `config.memory_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `stripes` is zero.
    pub fn new(
        config: StoreConfig,
        stripes: usize,
        mut build: impl FnMut(StoreConfig) -> Box<B>,
    ) -> Self {
        assert!(stripes > 0, "need at least one stripe");
        let per_stripe = StoreConfig {
            memory_bytes: config.memory_bytes / stripes as u64,
            ..config
        };
        Striped {
            stripes: (0..stripes)
                .map(|_| Mutex::new(build(per_stripe.clone())))
                .collect(),
        }
    }

    /// Number of stripes.
    #[must_use]
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe owning `key`: upper hash bits, so stripe choice stays
    /// independent of the per-stripe bucket index (low bits).
    #[must_use]
    pub fn stripe_of(&self, key: &[u8]) -> usize {
        (jenkins_oaat(key) >> 32) as usize % self.stripes.len()
    }

    /// Locks stripe `stripe`, blocking until it is free.
    pub fn lock(&self, stripe: usize) -> MutexGuard<'_, Box<B>> {
        self.stripes[stripe].lock()
    }

    /// Locks stripe `stripe` if it is free right now.
    pub fn try_lock(&self, stripe: usize) -> Option<MutexGuard<'_, Box<B>>> {
        self.stripes[stripe].try_lock()
    }

    /// Live items across stripes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no stripe holds an item.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Each stripe's counters separately.
    #[must_use]
    pub fn stripe_stats(&self) -> Vec<StoreStats> {
        self.stripes.iter().map(|s| s.lock().stats()).collect()
    }

    /// Counters merged across stripes (what the `stats` verb renders).
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for stripe in &self.stripes {
            total.merge(&stripe.lock().stats());
        }
        total
    }

    /// Backend-internal gauges merged across stripes by summing lines
    /// with matching names (every stripe runs the same backend, so the
    /// line sets agree). Ratio lines don't sum: `*_fill_pct` is
    /// recomputed from the merged `*_used_pages` / `*_total_pages`
    /// totals. Empty under the model store, which exposes no internals.
    #[must_use]
    pub fn backend_stat_lines(&self) -> Vec<(String, u64)> {
        let mut merged: Vec<(String, u64)> = Vec::new();
        for stripe in &self.stripes {
            for (name, value) in stripe.lock().backend_stat_lines() {
                match merged.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, total)) => *total += value,
                    None => merged.push((name, value)),
                }
            }
        }
        let find = |merged: &[(String, u64)], name: &str| {
            merged.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
        };
        for i in 0..merged.len() {
            let Some(prefix) = merged[i].0.strip_suffix("_fill_pct") else {
                continue;
            };
            let used = find(&merged, &format!("{prefix}_used_pages"));
            let total = find(&merged, &format!("{prefix}_total_pages"));
            if let (Some(used), Some(total)) = (used, total) {
                merged[i].1 = (used * 100).checked_div(total).unwrap_or(0);
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::EvictionKind;
    use crate::KvStore;

    #[test]
    fn variants_round_trip_and_report_lengths() {
        // Table 4's shapes: one stripe (1.4), strict-LRU stripes (1.6),
        // bag-LRU stripes (Bags).
        for (stripes, eviction) in [
            (1, EvictionKind::StrictLru),
            (4, EvictionKind::StrictLru),
            (4, EvictionKind::Bags),
        ] {
            let config = StoreConfig {
                eviction,
                ..StoreConfig::with_capacity(8 << 20)
            };
            let store = Striped::new(config, stripes, |c| Box::new(KvStore::new(c)));
            for i in 0..100u32 {
                let key = format!("key{i}");
                let stripe = store.stripe_of(key.as_bytes());
                store
                    .lock(stripe)
                    .set(key.as_bytes(), vec![0; 100], None, 0)
                    .unwrap();
            }
            assert_eq!(store.len(), 100);
            let stripe = store.stripe_of(b"key7");
            assert_eq!(
                store.lock(stripe).get(b"key7", 0).unwrap().value().len(),
                100
            );
            assert!(store.lock(stripe).delete(b"key7").is_some());
            assert_eq!(store.len(), 99);
            let stats = store.stats();
            assert_eq!((stats.items, stats.sets, stats.deletes), (99, 100, 1));
            assert!(
                store.backend_stat_lines().is_empty(),
                "the model has no gauges"
            );
        }
    }

    #[test]
    fn stripes_split_the_budget() {
        for stripes in [1, 4, 8] {
            let store = Striped::new(StoreConfig::with_capacity(8 << 20), stripes, |c| {
                Box::new(KvStore::new(c))
            });
            assert_eq!(store.stripe_count(), stripes);
            let share = KvStore::new(StoreConfig::with_capacity((8 << 20) / stripes as u64))
                .capacity_bytes();
            for stripe in 0..stripes {
                assert_eq!(
                    store.lock(stripe).capacity_bytes(),
                    share,
                    "stripe {stripe}"
                );
            }
        }
    }

    #[test]
    fn concurrent_writers_land_all_keys() {
        let store = Striped::new(StoreConfig::with_capacity(16 << 20), 4, |c| {
            Box::new(KvStore::new(c))
        });
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..250u32 {
                        let key = format!("t{t}-key{i}");
                        store
                            .lock(store.stripe_of(key.as_bytes()))
                            .set(key.as_bytes(), vec![t; 64], None, 0)
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(store.len(), 1000);
        let stripe = store.stripe_of(b"t3-key249");
        let copy = store
            .lock(stripe)
            .get(b"t3-key249", 0)
            .map(|hit| hit.value().to_vec());
        assert_eq!(copy, Some(vec![3u8; 64]));
    }
}
