//! Threaded tests of [`Striped`](crate::Striped) over
//! [`KvStore`](crate::KvStore) in Table 4's three lock shapes: one stripe
//! (Memcached 1.4's global lock), strict-LRU stripes (1.6) and bag-LRU
//! stripes (Bags).

mod tests {
    use crate::lru::EvictionKind;
    use crate::{KvStore, StoreConfig, Striped};

    fn striped(budget: u64, stripes: usize, eviction: EvictionKind) -> Striped<KvStore> {
        let config = StoreConfig {
            eviction,
            ..StoreConfig::with_capacity(budget)
        };
        Striped::new(config, stripes, |c| Box::new(KvStore::new(c)))
    }

    fn set(store: &Striped<KvStore>, key: &[u8], value: Vec<u8>) {
        store
            .lock(store.stripe_of(key))
            .set(key, value, None, 0)
            .unwrap();
    }

    /// Four threads each write 500 keys and read every one back; the
    /// store then holds all 2000.
    fn exercise(store: &Striped<KvStore>) {
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                scope.spawn(move || {
                    for i in 0..500u32 {
                        let key = format!("t{t}:k{i}");
                        set(store, key.as_bytes(), vec![t; 64]);
                        let copy = store
                            .lock(store.stripe_of(key.as_bytes()))
                            .get(key.as_bytes(), 0)
                            .map(|hit| hit.value().to_vec());
                        assert_eq!(copy, Some(vec![t; 64]));
                    }
                });
            }
        });
        assert_eq!(store.len(), 2000);
        assert_eq!(store.stats().sets, 2000);
    }

    #[test]
    fn global_lock_store_is_correct_under_threads() {
        let store = striped(16 << 20, 1, EvictionKind::StrictLru);
        assert_eq!(store.stripe_count(), 1);
        exercise(&store);
    }

    #[test]
    fn striped_store_is_correct_under_threads() {
        exercise(&striped(16 << 20, 8, EvictionKind::StrictLru));
        exercise(&striped(16 << 20, 8, EvictionKind::Bags));
    }

    #[test]
    fn striping_distributes_keys() {
        let store = striped(16 << 20, 8, EvictionKind::Bags);
        for i in 0..800u32 {
            set(&store, format!("key{i}").as_bytes(), vec![0; 32]);
        }
        let counts: Vec<u64> = store.stripe_stats().iter().map(|s| s.items).collect();
        assert_eq!(counts.iter().sum::<u64>(), 800);
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 40, "stripe {i} got only {c} of 800 keys");
        }
    }

    #[test]
    fn delete_across_wrappers() {
        for (stripes, eviction) in [(1, EvictionKind::StrictLru), (4, EvictionKind::Bags)] {
            let store = striped(8 << 20, stripes, eviction);
            set(&store, b"k", b"v".to_vec());
            let stripe = store.stripe_of(b"k");
            assert!(store.lock(stripe).delete(b"k").is_some());
            assert!(store.lock(stripe).delete(b"k").is_none());
            assert!(store.is_empty());
        }
    }
}
