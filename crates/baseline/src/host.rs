//! Real-thread scaling harness over the real store.
//!
//! Table 4's baseline ordering (1.4 < 1.6 < Bags) comes from lock
//! contention. Rather than take that on faith, this harness runs the
//! actual `densekv-kv` store variants under real host threads and
//! measures operations per second, so the `lock_scaling` bench (and a
//! smoke test here) can demonstrate the ordering on whatever machine this
//! repository runs on. [`run_threads`] and [`scaling_curve`] are the one
//! real-thread harness: `engine_bench` drives the engine through them
//! with its own per-thread op.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration as StdDuration, Instant};

use densekv_kv::lru::EvictionKind;
use densekv_kv::{KvStore, StoreConfig, Striped};
use parking_lot::Mutex;

/// Which locking architecture to benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Memcached 1.4: one global lock.
    GlobalLock,
    /// Memcached 1.6: striped locks + a global LRU lock.
    StripedGlobalLru,
    /// Bags: striped locks, per-shard bag LRU, no global lock.
    Bags,
}

impl Variant {
    /// All variants, contention-heaviest first.
    pub const ALL: [Variant; 3] = [
        Variant::GlobalLock,
        Variant::StripedGlobalLru,
        Variant::Bags,
    ];

    /// Display name matching the paper's rows.
    pub fn label(self) -> &'static str {
        match self {
            Variant::GlobalLock => "1.4 (global lock)",
            Variant::StripedGlobalLru => "1.6 (striped + global LRU)",
            Variant::Bags => "Bags (striped, bag LRU)",
        }
    }

    /// Instantiates the store for this variant: one stripe for the
    /// global lock, `shards` stripes otherwise, with bag LRU as the
    /// stripes' eviction policy for Bags. (1.6's global LRU lock is
    /// taken by [`measure`]'s op, not by the store.)
    pub fn build(self, memory_bytes: u64, shards: usize) -> Striped<KvStore> {
        let mut config = StoreConfig::with_capacity(memory_bytes);
        if self == Variant::Bags {
            config.eviction = EvictionKind::Bags;
        }
        let stripes = if self == Variant::GlobalLock {
            1
        } else {
            shards
        };
        Striped::new(config, stripes, |config| Box::new(KvStore::new(config)))
    }
}

/// Result of one scaling measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Threads used.
    pub threads: u32,
    /// Measured operations per second.
    pub ops_per_sec: f64,
}

/// Runs `variant` with `threads` host threads of 95 %-GET traffic for
/// `duration` and returns the sustained operations per second.
///
/// Keys are pre-loaded so GETs hit; GETs and PUTs sample the shared key
/// space uniformly. A GET hit's value is copied out under the stripe
/// lock; a PUT's value is built before any lock is taken.
pub fn measure(variant: Variant, threads: u32, duration: StdDuration) -> f64 {
    const KEYS: u64 = 8_192;
    let store = variant.build(256 << 20, 16);
    for id in 0..KEYS {
        let key = densekv_workload::key_bytes(id);
        store
            .lock(store.stripe_of(&key))
            .set(&key, vec![7u8; 100], None, 0)
            .expect("preload fits");
    }
    // Memcached 1.6's remaining bottleneck: every op first serializes on
    // one process-wide LRU lock. The critical section is tiny; it is
    // the serialization, not the work, that throttles 1.6.
    let global_lru = (variant == Variant::StripedGlobalLru).then(|| Mutex::new(0u64));

    run_threads(threads, duration, |t| {
        let mut rng = densekv_sim::SplitMix64::new(0xBEEF + u64::from(t));
        let (store, global_lru) = (&store, &global_lru);
        move || {
            let id = rng.next_below(KEYS);
            let key = densekv_workload::key_bytes(id);
            let value = (!rng.next_bool(0.95)).then(|| vec![7u8; 100]);
            if let Some(lock) = global_lru {
                let mut touches = lock.lock();
                *touches = touches.wrapping_add(1);
            }
            let stripe = store.stripe_of(&key);
            match value {
                None => {
                    let hit = store
                        .lock(stripe)
                        .get(&key, 0)
                        .map(|hit| hit.value().to_vec());
                    std::hint::black_box(hit);
                }
                Some(value) => {
                    let _ = store.lock(stripe).set(&key, value, None, 0);
                }
            }
        }
    })
}

/// Runs `threads` host threads for `duration`, each calling the op that
/// `make_op` builds for its thread index in a loop, and returns the
/// sustained operations per second summed over all threads.
///
/// The threads start together on a barrier, check a shared stop flag
/// every 64 ops, and are joined before the clock stops.
pub fn run_threads<Op: FnMut()>(
    threads: u32,
    duration: StdDuration,
    make_op: impl Fn(u32) -> Op + Sync,
) -> f64 {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads as usize + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (stop, barrier, make_op) = (&stop, &barrier, &make_op);
                scope.spawn(move || {
                    let mut op = make_op(t);
                    let mut ops = 0u64;
                    barrier.wait();
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..64 {
                            op();
                        }
                        ops += 64;
                    }
                    ops
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        let total: u64 = workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .sum();
        total as f64 / start.elapsed().as_secs_f64()
    })
}

/// Host threads that can run at once (1 when the host won't say).
pub fn host_cores() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// Measures `ops_per_sec` at each of `thread_counts`, skipping counts
/// above [`host_cores`]: with more threads than cores a point measures
/// the OS scheduler's time slicing, not the store's locks.
pub fn scaling_curve(
    thread_counts: &[u32],
    mut ops_per_sec: impl FnMut(u32) -> f64,
) -> Vec<ScalingPoint> {
    let cores = host_cores();
    thread_counts
        .iter()
        .filter(|&&threads| threads <= cores)
        .map(|&threads| ScalingPoint {
            threads,
            ops_per_sec: ops_per_sec(threads),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_works_for_all_variants() {
        for v in Variant::ALL {
            let ops = measure(v, 1, StdDuration::from_millis(50));
            assert!(ops > 10_000.0, "{}: {ops}", v.label());
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> = Variant::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), 3);
    }

    /// The headline contention ordering, on real threads. Kept short and
    /// tolerant (CI machines vary); the bench produces the full curve.
    #[test]
    fn bags_scales_at_least_as_well_as_global_lock() {
        let cores = host_cores();
        if cores < 4 {
            return; // contention is invisible without parallelism
        }
        let threads = cores.min(8);
        let global = measure(Variant::GlobalLock, threads, StdDuration::from_millis(300));
        let bags = measure(Variant::Bags, threads, StdDuration::from_millis(300));
        assert!(
            bags > global * 1.2,
            "bags {bags} vs global {global} at {threads} threads"
        );
    }
}
