//! The shared store behind the front-end: the hash space striped over
//! independently locked backends.
//!
//! This is the live-traffic face of [`densekv_kv::Striped`]: the same
//! stripes, but dispatching full protocol [`Command`]s through
//! [`handle_command`], so every verb the simulator's functional path
//! supports works over a real socket too. One shard reproduces
//! Memcached 1.4's global cache lock; many shards are the 1.6-style
//! striped design whose contention difference the paper's §3.6 (and
//! Table 4's "Bags" row) turns on.

use std::time::{Duration, Instant};

use bytes::BytesMut;

use densekv_engine::Engine;
use densekv_kv::protocol::{render_end, render_value, Command};
use densekv_kv::server::{
    handle_command, render_backend_stats, render_stats, render_store_metrics, Clock, Disposition,
};
use densekv_kv::store::{KvStore, StoreConfig};
use densekv_kv::{StoreBackend, Striped};

use crate::metrics::ServeMetrics;

/// Which store implementation sits behind every shard lock.
///
/// The model [`KvStore`] is the simulator-faithful reference; the
/// [`Engine`] is the bricksKV-style tiered fixed-page engine whose
/// protocol behaviour the differential tests pin to the model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// The model store (`densekv_kv::store::KvStore`), the default.
    #[default]
    Model,
    /// The real tiered-page engine (`densekv_engine::Engine`).
    Engine,
}

impl BackendKind {
    /// Parses a backend name (`model` or `engine`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "model" => Some(BackendKind::Model),
            "engine" => Some(BackendKind::Engine),
            _ => None,
        }
    }

    /// The backend's canonical name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Model => "model",
            BackendKind::Engine => "engine",
        }
    }

    /// Builds one store of this kind over `config`.
    #[must_use]
    pub fn build(self, config: StoreConfig) -> Box<dyn StoreBackend + Send> {
        match self {
            BackendKind::Model => Box::new(KvStore::new(config)),
            BackendKind::Engine => Box::new(Engine::new(config)),
        }
    }
}

/// Wall time one dispatched command spent on shard locks: how long the
/// worker waited to acquire them and how long it held them. Multi-key
/// GETs accumulate across every shard they visit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTiming {
    /// Total lock acquisition wait.
    pub lock_wait: Duration,
    /// Total time holding shard locks (store work).
    pub hold: Duration,
}

/// A thread-safe store sharded across independently locked backends.
///
/// # Examples
///
/// ```
/// use bytes::BytesMut;
/// use densekv_kv::protocol::{parse_command, Parsed};
/// use densekv_kv::server::FixedClock;
/// use densekv_kv::store::StoreConfig;
/// use densekv_serve::ShardedStore;
///
/// let store = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 4);
/// let mut buf = BytesMut::from(&b"set k 0 0 2\r\nhi\r\n"[..]);
/// let Ok(Parsed::Complete(cmd)) = parse_command(&mut buf) else {
///     panic!("complete command");
/// };
/// let mut out = BytesMut::new();
/// store.dispatch(cmd, &FixedClock(0), &mut out);
/// assert_eq!(&out[..], b"STORED\r\n");
/// ```
#[derive(Debug)]
pub struct ShardedStore {
    shards: Striped<dyn StoreBackend + Send>,
    backend: BackendKind,
}

impl ShardedStore {
    /// Creates `shards` independent model stores splitting
    /// `config.memory_bytes` evenly. `shards == 1` is the global-lock
    /// (Memcached 1.4) design.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(config: StoreConfig, shards: usize) -> Self {
        ShardedStore::new_with_backend(config, shards, BackendKind::Model)
    }

    /// Like [`ShardedStore::new`], but choosing the store implementation
    /// behind every shard lock.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new_with_backend(config: StoreConfig, shards: usize, backend: BackendKind) -> Self {
        ShardedStore {
            shards: Striped::new(config, shards, |config| backend.build(config)),
            backend,
        }
    }

    /// The striped store itself: item counts, merged and per-shard
    /// counters, and merged backend gauges.
    #[must_use]
    pub fn shards(&self) -> &Striped<dyn StoreBackend + Send> {
        &self.shards
    }

    /// The store implementation behind the shard locks.
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Executes one parsed command, appending any response to `out`.
    ///
    /// Single-key commands lock exactly their key's shard and run the
    /// same [`handle_command`] loop the simulator uses. Multi-key GETs
    /// lock one shard at a time (no deadlock possible: at most one lock
    /// is ever held); each hit borrows the stored value, so it is
    /// rendered into `out` before that key's lock is released. `stats`
    /// and `flush_all` visit every shard.
    pub fn dispatch(&self, command: Command, clock: &dyn Clock, out: &mut BytesMut) -> Disposition {
        self.execute(command, clock, out, None).0
    }

    /// Like [`ShardedStore::dispatch`], but measuring shard-lock wait
    /// and hold wall time into `metrics` (per shard) and the returned
    /// [`ShardTiming`] (per request, for span phases). The instrumented
    /// front-end calls this; everything else keeps the untimed path.
    pub fn dispatch_timed(
        &self,
        command: Command,
        clock: &dyn Clock,
        out: &mut BytesMut,
        metrics: &ServeMetrics,
    ) -> (Disposition, ShardTiming) {
        self.execute(command, clock, out, Some(metrics))
    }

    /// The one dispatch body; shard visits are timed when `metrics` is
    /// given. Introspection and whole-store verbs (`stats`, `metrics`,
    /// `flush_all`) are never timed: they visit every shard and would
    /// swamp the per-request lock accounting the plane is after.
    fn execute(
        &self,
        command: Command,
        clock: &dyn Clock,
        out: &mut BytesMut,
        metrics: Option<&ServeMetrics>,
    ) -> (Disposition, ShardTiming) {
        let mut timing = ShardTiming::default();
        let disposition = match command {
            Command::Get { keys, with_cas } => {
                let now = clock.now_secs();
                for key in &keys {
                    let idx = self.shards.stripe_of(key);
                    self.with_shard(idx, metrics, &mut timing, |shard| {
                        if let Some(hit) = shard.get(key, now) {
                            render_value(out, key, &hit, with_cas);
                        }
                    });
                }
                render_end(out);
                Disposition::KeepAlive
            }
            // Plain `stats` renders the fold; `stats engine` renders the
            // backend's internal gauges (ERROR under the model store,
            // which exposes none). Other sub-commands belong to the
            // serving layer's observability plane — at this layer (no
            // plane attached) they answer ERROR like memcached does for
            // unknown stats args.
            Command::Stats { arg: None } => {
                render_stats(&self.shards.stats(), out);
                Disposition::KeepAlive
            }
            Command::Stats { arg: Some(arg) } => {
                if arg.as_ref() == b"engine" {
                    render_backend_stats(&self.shards.backend_stat_lines(), out);
                } else {
                    out.extend_from_slice(b"ERROR\r\n");
                }
                Disposition::KeepAlive
            }
            Command::Metrics => {
                render_store_metrics(&self.shards.stats(), out);
                Disposition::KeepAlive
            }
            Command::FlushAll => {
                for idx in 0..self.shards.stripe_count() {
                    self.shards.lock(idx).flush_all();
                }
                out.extend_from_slice(b"OK\r\n");
                Disposition::KeepAlive
            }
            Command::Set { ref key, .. }
            | Command::IncrDecr { ref key, .. }
            | Command::Delete { ref key, .. }
            | Command::Touch { ref key, .. } => {
                let idx = self.shards.stripe_of(key);
                self.with_shard(idx, metrics, &mut timing, |shard| {
                    handle_command(shard, command, clock, out)
                })
            }
            // Version/Quit touch no data; any shard's loop renders them.
            Command::Version | Command::Quit => self.with_shard(0, metrics, &mut timing, |shard| {
                handle_command(shard, command, clock, out)
            }),
        };
        (disposition, timing)
    }

    /// Runs `f` under shard `idx`'s lock. With `metrics`, times the
    /// acquisition wait and the hold and records both into `metrics`
    /// and `timing`; contention is detected by `try_lock` losing the
    /// race before falling back to a blocking `lock`.
    fn with_shard<R>(
        &self,
        idx: usize,
        metrics: Option<&ServeMetrics>,
        timing: &mut ShardTiming,
        f: impl FnOnce(&mut dyn StoreBackend) -> R,
    ) -> R {
        let Some(metrics) = metrics else {
            return f(&mut **self.shards.lock(idx));
        };
        let t0 = Instant::now();
        let (mut guard, contended) = match self.shards.try_lock(idx) {
            Some(guard) => (guard, false),
            None => (self.shards.lock(idx), true),
        };
        let wait = t0.elapsed();
        let t1 = Instant::now();
        let result = f(&mut **guard);
        drop(guard);
        let hold = t1.elapsed();
        metrics.record_shard(idx, wait, hold, contended);
        timing.lock_wait += wait;
        timing.hold += hold;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densekv_kv::protocol::{parse_command, Parsed};
    use densekv_kv::server::FixedClock;

    fn run(store: &ShardedStore, input: &[u8], now: u64) -> String {
        let mut buf = BytesMut::from(input);
        let mut out = BytesMut::new();
        while let Ok(Parsed::Complete(cmd)) = parse_command(&mut buf) {
            if store.dispatch(cmd, &FixedClock(now), &mut out) == Disposition::Close {
                break;
            }
        }
        String::from_utf8(out.to_vec()).expect("ascii")
    }

    #[test]
    fn sharded_dispatch_matches_single_store_semantics() {
        let store = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 4);
        let out = run(
            &store,
            b"set k 0 0 3\r\nfoo\r\nadd k 0 0 3\r\nbar\r\nget k\r\nset n 0 0 1\r\n5\r\nincr n 10\r\ndelete k\r\n",
            0,
        );
        assert_eq!(
            out,
            "STORED\r\nNOT_STORED\r\nVALUE k 0 3\r\nfoo\r\nEND\r\n\
             STORED\r\n15\r\nDELETED\r\n"
        );
    }

    #[test]
    fn multi_key_get_spans_shards() {
        let store = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 8);
        for i in 0..32u32 {
            run(
                &store,
                format!("set key{i} 0 0 2\r\nv{}\r\n", i % 10).as_bytes(),
                0,
            );
        }
        let out = run(&store, b"get key0 key7 key21 missing\r\n", 0);
        assert!(out.contains("VALUE key0"));
        assert!(out.contains("VALUE key7"));
        assert!(out.contains("VALUE key21"));
        assert!(!out.contains("missing"));
        assert!(out.ends_with("END\r\n"));
    }

    #[test]
    fn stats_and_flush_cover_every_shard() {
        let store = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 4);
        for i in 0..40u32 {
            run(&store, format!("set key{i} 0 0 1\r\nx\r\n").as_bytes(), 0);
        }
        assert_eq!(store.shards().len(), 40);
        let out = run(&store, b"stats\r\n", 0);
        assert!(out.contains("STAT cmd_set 40"));
        assert!(out.contains("STAT curr_items 40"));
        assert_eq!(run(&store, b"flush_all\r\n", 0), "OK\r\n");
        assert!(store.shards().is_empty());
    }

    #[test]
    fn expiry_follows_the_clock_across_shards() {
        let store = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 4);
        for i in 0..8u32 {
            run(&store, format!("set key{i} 0 5 1\r\nx\r\n").as_bytes(), 100);
        }
        assert!(run(&store, b"get key0 key5\r\n", 104).contains("VALUE"));
        assert_eq!(run(&store, b"get key0 key5\r\n", 200), "END\r\n");
    }

    #[test]
    fn single_shard_is_the_global_lock_design() {
        let store = ShardedStore::new(StoreConfig::with_capacity(8 << 20), 1);
        assert_eq!(store.shards().stripe_count(), 1);
        assert_eq!(run(&store, b"set k 0 0 1\r\nx\r\n", 0), "STORED\r\n");
        assert!(run(&store, b"quit\r\n", 0).is_empty());
    }

    #[test]
    fn stats_subcommands_and_metrics_at_store_layer() {
        let store = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 2);
        run(&store, b"set k 0 0 2\r\nhi\r\n", 0);
        // Sub-commands need the serving layer's plane; here they ERROR.
        assert_eq!(run(&store, b"stats latency\r\n", 0), "ERROR\r\n");
        // The metrics verb renders store counters even without a plane.
        let out = run(&store, b"metrics\r\n", 0);
        assert!(out.contains("densekv_store_cmd_set 1"), "{out}");
        assert!(out.contains("densekv_store_curr_items 1"), "{out}");
        assert!(out.ends_with("END\r\n"), "{out}");
    }

    #[test]
    fn dispatch_timed_matches_untimed_output_and_accounts_locks() {
        use crate::metrics::{MetricsConfig, ServeMetrics};
        let timed = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 4);
        let plain = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 4);
        let metrics = ServeMetrics::new(&MetricsConfig::default(), 4);
        let script = b"set k 0 0 3\r\nfoo\r\nget k\r\nset n 0 0 1\r\n5\r\nincr n 2\r\n\
                       touch k 10\r\ndelete k\r\nget k missing\r\nversion\r\n";
        let mut buf = BytesMut::from(&script[..]);
        let mut out_timed = BytesMut::new();
        let mut total = ShardTiming::default();
        while let Ok(Parsed::Complete(cmd)) = parse_command(&mut buf) {
            let (disposition, timing) =
                timed.dispatch_timed(cmd, &FixedClock(0), &mut out_timed, &metrics);
            assert_eq!(disposition, Disposition::KeepAlive);
            total.lock_wait += timing.lock_wait;
            total.hold += timing.hold;
        }
        let out_plain = run(&plain, script, 0);
        assert_eq!(String::from_utf8(out_timed.to_vec()).unwrap(), out_plain);
        let acquisitions: u64 = metrics
            .shard_snapshots()
            .iter()
            .map(|s| s.acquisitions)
            .sum();
        // 5 single-key writes + version (shard 0) + 3 get-key visits:
        // every locked shard visit is counted exactly once.
        assert_eq!(acquisitions, 9, "acquisitions = {acquisitions}");
        assert!(total.hold > std::time::Duration::ZERO);
    }

    #[test]
    fn engine_backend_speaks_the_same_protocol() {
        let store = ShardedStore::new_with_backend(
            StoreConfig::with_capacity(16 << 20),
            4,
            BackendKind::Engine,
        );
        assert_eq!(store.backend(), BackendKind::Engine);
        let out = run(
            &store,
            b"set k 0 0 3\r\nfoo\r\nadd k 0 0 3\r\nbar\r\nget k\r\nset n 0 0 1\r\n5\r\nincr n 10\r\ndelete k\r\n",
            0,
        );
        assert_eq!(
            out,
            "STORED\r\nNOT_STORED\r\nVALUE k 0 3\r\nfoo\r\nEND\r\n\
             STORED\r\n15\r\nDELETED\r\n"
        );
        let stats = run(&store, b"stats\r\n", 0);
        assert!(stats.contains("STAT cmd_set 3"), "{stats}");
        assert!(stats.contains("STAT curr_items 1"), "{stats}");
    }

    #[test]
    fn merged_fill_pct_is_a_ratio_not_a_sum() {
        let store = ShardedStore::new_with_backend(
            StoreConfig::with_capacity(16 << 20),
            2,
            BackendKind::Engine,
        );
        // Enough 128 B-tier values that both shards sit well above 50%
        // tier fill (the arena doubles, so used >= total / 2): summing
        // the per-shard percentages would exceed 100.
        for i in 0..64u32 {
            run(
                &store,
                format!("set key{i} 0 0 100\r\n{}\r\n", "x".repeat(100)).as_bytes(),
                0,
            );
        }
        let lines: std::collections::HashMap<String, u64> =
            store.shards().backend_stat_lines().into_iter().collect();
        let used = lines["engine_tier_128_used_pages"];
        let total = lines["engine_tier_128_total_pages"];
        assert_eq!(used, 64, "every value takes one 128 B page");
        assert_eq!(
            lines["engine_tier_128_fill_pct"],
            used * 100 / total,
            "fill_pct is recomputed from the merged used/total pages"
        );
        assert!(lines["engine_tier_128_fill_pct"] <= 100);
    }

    #[test]
    fn stats_engine_renders_gauges_or_errors_by_backend() {
        let engine = ShardedStore::new_with_backend(
            StoreConfig::with_capacity(16 << 20),
            2,
            BackendKind::Engine,
        );
        run(
            &engine,
            format!("set k 0 0 100\r\n{}\r\n", "x".repeat(100)).as_bytes(),
            0,
        );
        let out = run(&engine, b"stats engine\r\n", 0);
        assert!(out.contains("STAT engine_items 1"), "{out}");
        assert!(out.contains("STAT engine_tier_128_used_pages 1"), "{out}");
        assert!(out.ends_with("END\r\n"), "{out}");
        // Two shards merge by summing: bucket counts add up.
        let buckets: u64 = out
            .lines()
            .find_map(|l| l.strip_prefix("STAT engine_bucket_count "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(buckets >= 16, "two shards of >=8 buckets, got {buckets}");

        // The model store exposes no engine internals.
        let model = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 2);
        assert_eq!(run(&model, b"stats engine\r\n", 0), "ERROR\r\n");
    }

    #[test]
    fn sustained_shard_contention_trips_the_flight_recorder() {
        use crate::metrics::{MetricsConfig, ServeMetrics};
        use std::sync::Arc;

        let store = Arc::new(ShardedStore::new_with_backend(
            StoreConfig::with_capacity(8 << 20),
            1,
            BackendKind::Engine,
        ));
        let metrics = Arc::new(ServeMetrics::new(&MetricsConfig::default(), 1));
        // On a one-CPU box organic interleaving almost never collides,
        // so the test manufactures the contention the trigger is built
        // to catch: the main thread holds the single shard's lock while
        // handing the worker each command, so the worker's `try_lock`
        // reliably loses and the acquisition counts as contended.
        let (go_tx, go_rx) = std::sync::mpsc::channel::<u32>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = {
            let store = Arc::clone(&store);
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || {
                let mut out = BytesMut::new();
                while let Ok(i) = go_rx.recv() {
                    let script = format!("set key{i} 0 0 1\r\nx\r\n");
                    let mut buf = BytesMut::from(script.as_bytes());
                    let Ok(Parsed::Complete(cmd)) = parse_command(&mut buf) else {
                        panic!("complete command");
                    };
                    store.dispatch_timed(cmd, &FixedClock(0), &mut out, &metrics);
                    done_tx.send(()).unwrap();
                }
            })
        };
        for i in 0..24u32 {
            let guard = store.shards.lock(0);
            go_tx.send(i).unwrap();
            // Give the worker time to attempt (and lose) its try_lock.
            std::thread::sleep(std::time::Duration::from_millis(1));
            drop(guard);
            done_rx.recv().unwrap();
        }
        drop(go_tx);
        worker.join().unwrap();
        metrics.rotate_now();
        let trigger = metrics
            .last_trigger()
            .expect("window closed with a trigger");
        assert_eq!(trigger.reason, "shard-contention");
    }

    #[test]
    fn concurrent_mixed_traffic_is_safe() {
        use std::sync::Arc;
        let store = Arc::new(ShardedStore::new(StoreConfig::with_capacity(32 << 20), 8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..300u32 {
                        let set = format!("set t{t}k{i} 0 0 2\r\nhi\r\n");
                        run(&store, set.as_bytes(), 0);
                        let get = format!("get t{t}k{i}\r\n");
                        assert!(run(&store, get.as_bytes(), 0).contains("VALUE"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(store.shards().len(), 1200);
    }
}
