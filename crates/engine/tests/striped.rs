//! [`Striped`] over both backends: the budget splits evenly, keys spread
//! over every stripe, and concurrent writers land every key.

use densekv_engine::Engine;
use densekv_kv::{KvStore, StoreBackend, StoreConfig, Striped};

const BUDGET: u64 = 16 << 20;
const THREADS: u8 = 4;
const KEYS_PER_THREAD: u32 = 500;

fn key(thread: u8, i: u32) -> String {
    format!("t{thread}:k{i}")
}

fn check<B: StoreBackend + Send + ?Sized>(stripes: usize, build: impl Fn(StoreConfig) -> Box<B>) {
    let store = Striped::new(StoreConfig::with_capacity(BUDGET), stripes, &build);
    assert_eq!(store.stripe_count(), stripes);
    let share = build(StoreConfig::with_capacity(BUDGET / stripes as u64)).capacity_bytes();
    for stripe in 0..stripes {
        assert_eq!(
            store.lock(stripe).capacity_bytes(),
            share,
            "stripe {stripe}"
        );
    }

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = &store;
            scope.spawn(move || {
                for i in 0..KEYS_PER_THREAD {
                    let key = key(t, i);
                    let stripe = store.stripe_of(key.as_bytes());
                    store
                        .lock(stripe)
                        .set_with_flags(key.as_bytes(), vec![t; 64], 0, None, 0)
                        .unwrap();
                    let copy = store
                        .lock(stripe)
                        .get(key.as_bytes(), 0)
                        .map(|hit| hit.value().to_vec());
                    assert_eq!(copy, Some(vec![t; 64]));
                }
            });
        }
    });
    let total = u64::from(THREADS) * u64::from(KEYS_PER_THREAD);
    assert_eq!(store.len(), total);
    assert_eq!(store.stats().sets, total);

    // Upper-hash-bit striping gives every stripe at least half its
    // fair share of the keys.
    let per_stripe = store.stripe_stats();
    assert_eq!(per_stripe.iter().map(|s| s.items).sum::<u64>(), total);
    for (stripe, stats) in per_stripe.iter().enumerate() {
        assert!(
            stats.items > total / stripes as u64 / 2,
            "stripe {stripe} got only {} of {total} keys",
            stats.items
        );
    }

    let gone = key(3, 7);
    let stripe = store.stripe_of(gone.as_bytes());
    assert!(store.lock(stripe).delete(gone.as_bytes()));
    assert!(!store.lock(stripe).delete(gone.as_bytes()));
    assert_eq!(store.len(), total - 1);
}

#[test]
fn striped_stores_split_the_budget_and_land_concurrent_writes() {
    for stripes in [1, 8] {
        check(stripes, |config| Box::new(KvStore::new(config)));
        check(stripes, |config| Box::new(Engine::new(config)));
    }
}
