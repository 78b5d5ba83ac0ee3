//! Real-thread scaling of the tiered fixed-page engine.
//!
//! The serve plane's `lock_scaling` experiment demonstrates Table 4's
//! contention ordering over the *model* store; this one re-runs the
//! same three locking architectures — one global mutex (Memcached
//! 1.4), striped locks, and striped locks with per-stripe bag-LRU —
//! over [`densekv_engine::Engine`] behind [`densekv_kv::Striped`], a
//! store that really moves bytes through tier pages and bitmaps, on
//! the same real-thread harness ([`densekv_baseline::host`]). Seeded
//! Zipf keys, a 90/10 GET/SET mix, and value sizes straddling every
//! page tier make the hot path representative;
//! `results/engine_bench.csv` records both absolute throughput and
//! per-variant scaling so the striped designs' advantage over the
//! global lock is visible even on boxes where raw ops/s saturates
//! early. Thread counts above the host's cores are skipped.

use std::time::Duration;

use densekv::report::TextTable;
use densekv_baseline::host::{run_threads, scaling_curve};
use densekv_engine::Engine;
use densekv_kv::lru::EvictionKind;
use densekv_kv::{StoreBackend, StoreConfig, Striped};
use densekv_sim::dist::Zipf;
use densekv_sim::SplitRng;

/// Key population (pre-loaded so GETs mostly hit).
const KEYS: u64 = 8_192;
/// Zipf exponent of the key popularity (ETC-like skew).
const ALPHA: f64 = 0.99;
/// Value sizes by key id, straddling the 32…4096 B page tiers.
const SIZES: [usize; 5] = [24, 100, 500, 1500, 3000];
/// Engine budget: ample, so the measurement is lock contention, not
/// eviction churn.
const MEMORY: u64 = 256 << 20;
/// Lock stripes for the striped variants.
const STRIPES: usize = 8;

/// The three locking architectures under test.
#[derive(Clone, Copy)]
enum Variant {
    Global,
    Striped,
    StripedBags,
}

impl Variant {
    const ALL: [Variant; 3] = [Variant::Global, Variant::Striped, Variant::StripedBags];

    fn label(self) -> &'static str {
        match self {
            Variant::Global => "global-mutex",
            Variant::Striped => "striped",
            Variant::StripedBags => "striped-bags",
        }
    }

    fn build(self) -> Striped<Engine> {
        let (stripes, eviction) = match self {
            Variant::Global => (1, EvictionKind::StrictLru),
            Variant::Striped => (STRIPES, EvictionKind::StrictLru),
            Variant::StripedBags => (STRIPES, EvictionKind::Bags),
        };
        let config = StoreConfig {
            eviction,
            ..StoreConfig::with_capacity(MEMORY)
        };
        Striped::new(config, stripes, |config| Box::new(Engine::new(config)))
    }
}

fn value_for(id: u64) -> Vec<u8> {
    vec![b'v'; SIZES[id as usize % SIZES.len()]]
}

/// Sustained mixed-workload throughput of `variant` under `threads`
/// real host threads. A GET hit's value is copied out under the stripe
/// lock; a SET's value is built before the lock is taken.
fn measure(variant: Variant, threads: u32, duration: Duration) -> f64 {
    let store = variant.build();
    for id in 0..KEYS {
        let key = densekv_workload::key_bytes(id);
        store
            .lock(store.stripe_of(&key))
            .set_with_flags(&key, value_for(id), 0, None, 0)
            .expect("preload fits the budget");
    }
    let zipf = Zipf::new(KEYS as usize, ALPHA);
    run_threads(threads, duration, |t| {
        // Batched draws: the Zipf sampler and the GET/SET coin drain
        // `SplitRng`'s refill buffer — the same RNG hot path the
        // simulator's samplers share.
        let mut rng = SplitRng::new(0xE1213E + u64::from(t));
        let (store, zipf) = (&store, &zipf);
        move || {
            let id = zipf.sample(&mut rng) as u64;
            let key = densekv_workload::key_bytes(id);
            let stripe = store.stripe_of(&key);
            if rng.next_bool(0.9) {
                let hit = store
                    .lock(stripe)
                    .get(&key, 0)
                    .map(|hit| hit.value().to_vec());
                std::hint::black_box(hit);
            } else {
                let value = value_for(id);
                let _ = store.lock(stripe).set_with_flags(&key, value, 0, None, 0);
            }
        }
    })
}

/// Median of `reps` measurements (medians shrug off a scheduler hiccup
/// that would skew a mean).
fn median_ops(variant: Variant, threads: u32, duration: Duration, reps: usize) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| measure(variant, threads, duration))
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let quick = std::env::var("DENSEKV_QUICK").is_ok_and(|v| v != "0");
    let thread_counts: &[u32] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let duration = Duration::from_millis(if quick { 40 } else { 300 });
    let reps = if quick { 1 } else { 5 };

    let mut table = TextTable::new(vec![
        "variant".into(),
        "threads".into(),
        "ops_per_sec".into(),
        "scaling_x".into(),
    ]);
    for variant in Variant::ALL {
        let curve = scaling_curve(thread_counts, |threads| {
            median_ops(variant, threads, duration, reps)
        });
        // Every curve starts at one thread: the scaling baseline.
        let base = curve[0].ops_per_sec;
        for point in curve {
            table.row(vec![
                variant.label().into(),
                point.threads.to_string(),
                format!("{:.0}", point.ops_per_sec),
                format!("{:.2}", point.ops_per_sec / base),
            ]);
        }
    }
    densekv_bench::emit("engine_bench", &table);
}
