//! The hot paths `bench_report` records and `perf_gate` re-times: one
//! definition of every timed loop, so the baseline and the gate always
//! compare like with like.
//!
//! Raw nanoseconds do not transfer across machines, so the gate
//! normalizes every ratio by [`CALIBRATION`], a loop that calls no
//! densekv code at all: an optimization of any gated path can never
//! move the yardstick the other paths are measured with.

use std::hint::black_box;
use std::time::Instant;

use densekv::sim::{CoreSim, CoreSimConfig};
use densekv::slots::RequestSlots;
use densekv::sweep::{measure_point, SweepEffort};
use densekv_cpu::cache::{Cache, CacheConfig};
use densekv_engine::Engine;
use densekv_kv::store::StoreConfig;
use densekv_kv::StoreBackend;
use densekv_sim::dist::Zipf;
use densekv_sim::{Scheduler, SplitMix64, SplitRng};
use densekv_workload::{key_bytes, Op, Request};

/// The host-speed calibration row every other ratio is normalized by.
pub const CALIBRATION: &str = "host_splitmix_chain";

/// A timed batch of one hot path: each call returns nanoseconds per op.
type Batch = Box<dyn FnMut() -> f64>;

/// A [`Batch`] of `iters` calls of `f`.
fn batch(iters: u32, mut f: impl FnMut() + 'static) -> Batch {
    Box::new(move || {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_nanos() as f64 / f64::from(iters)
    })
}

/// Sixteen dependent SplitMix64 steps per call, written out here rather
/// than borrowed from `densekv-sim`: integer multiply/xor/shift latency
/// is what it measures, and no change to this workspace can move it.
fn splitmix_chain(state: &mut u64) -> u64 {
    let mut z = 0;
    for _ in 0..16 {
        *state = black_box(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
        z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        *state ^= z;
    }
    z
}

/// Times every gated hot path, calibration row included, as
/// `(name, ns per op)`.
///
/// Each path's figure is its best (minimum) batch: interference on a
/// shared host only ever *adds* time, so the minimum is the robust
/// estimator of attainable cost — medians still wander by 2x with noisy
/// neighbours. The batches are interleaved, one per path per round, so
/// a burst of interference lands on a round of every path rather than
/// on every sample of one.
pub fn measure() -> Vec<(&'static str, f64)> {
    let (iters, rounds) = (200_000, 25);
    let mut paths: Vec<(&'static str, Batch)> = Vec::new();

    let mut state = 0x5EED_u64;
    paths.push((
        CALIBRATION,
        batch(iters, move || {
            black_box(splitmix_chain(&mut state));
        }),
    ));

    // Population matched to the cluster workload's key space.
    let zipf = Zipf::new(10_000, 0.99);
    let mut rng = SplitMix64::new(7);
    paths.push((
        "zipf_alias_sample",
        batch(iters, move || {
            black_box(zipf.sample(&mut rng));
        }),
    ));
    let zipf = Zipf::new(10_000, 0.99);
    let mut rng = SplitMix64::new(7);
    paths.push((
        "zipf_cdf_sample",
        batch(iters, move || {
            black_box(zipf.sample_cdf(&mut rng));
        }),
    ));

    let mut cache = Cache::new(CacheConfig::l1_32k());
    cache.access(0);
    paths.push((
        "cache_l1_mru_hit",
        batch(iters, move || {
            black_box(cache.access(0));
        }),
    ));

    let req = Request {
        op: Op::Get,
        key: key_bytes(0),
        value_bytes: 64,
    };
    let mut core = CoreSim::new(CoreSimConfig::mercury_a7()).expect("valid");
    core.preload(64, 32).expect("fits");
    for _ in 0..300 {
        core.execute(&req);
    }
    paths.push((
        "request_mercury_a7_get64",
        batch(5_000, move || {
            black_box(core.execute(&req));
        }),
    ));

    let cfg = CoreSimConfig::mercury_a7();
    paths.push((
        "sweep_point_quick_64b",
        batch(1, move || {
            black_box(measure_point(&cfg, 64, SweepEffort::quick()));
        }),
    ));

    // The event engine's steady-state unit: pop the earliest event off
    // the timer wheel and reschedule it a random distance ahead,
    // holding a 4096-event backlog so pops cascade wheel levels.
    let mut sched: Scheduler<u32> = Scheduler::new();
    let mut sched_rng = SplitMix64::new(11);
    for id in 0..4096u32 {
        sched.schedule_in(
            densekv_sim::Duration::from_nanos(1 + sched_rng.next_below(1 << 20)),
            id,
        );
    }
    paths.push((
        "scheduler_push_pop",
        batch(iters, move || {
            let (_, id) = sched.pop().expect("standing backlog");
            sched.schedule_in(
                densekv_sim::Duration::from_nanos(1 + sched_rng.next_below(1 << 20)),
                id,
            );
        }),
    ));

    // Slot-arena churn: acquire renders the key into the arena slab,
    // release recycles it through the free list — the per-request
    // state cost with no simulator behind it.
    let mut slots = RequestSlots::with_capacity(4);
    let mut key_id = 0u64;
    paths.push((
        "request_slab_churn",
        batch(iters, move || {
            key_id = key_id.wrapping_add(1);
            let a = slots.acquire(Op::Get, 64, key_id);
            let b = slots.acquire(Op::Put, 64, !key_id);
            black_box(slots.key(b));
            slots.release(b);
            slots.release(a);
        }),
    ));

    // The storage engine's hot path: overwrite + read back one 256 B
    // value — hash, bucket probe, bitmap page free/alloc, byte copy.
    // Key indices come out of a batched `fill_f64` buffer, the same
    // RNG hot path the simulator's samplers drain.
    let mut engine = Engine::new(StoreConfig::with_capacity(16 << 20));
    let value = vec![7u8; 256];
    let keys: Vec<Vec<u8>> = (0..256).map(key_bytes).collect();
    for key in &keys {
        engine
            .set_with_flags(key, value.clone(), 0, None, 0)
            .expect("fits");
    }
    let mut key_rng = SplitRng::new(7);
    let mut draws = [0.0f64; 64];
    let mut pos = draws.len();
    paths.push((
        "engine_set_get_256b",
        batch(100_000, move || {
            if pos == draws.len() {
                key_rng.fill_f64(&mut draws);
                pos = 0;
            }
            let key = &keys[(draws[pos] * keys.len() as f64) as usize];
            pos += 1;
            engine
                .set_with_flags(key, value.clone(), 0, None, 0)
                .expect("fits");
            black_box(engine.get(key, 0));
        }),
    ));

    let mut best = vec![f64::INFINITY; paths.len()];
    for _ in 0..rounds {
        for (best, (_, time)) in best.iter_mut().zip(&mut paths) {
            *best = best.min(time());
        }
    }
    paths.iter().map(|&(name, _)| name).zip(best).collect()
}

/// Where a measurement was taken: cores, CPU model, compiler and
/// commit. Fields the host cannot report read `unknown`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostStamp {
    /// Available hardware threads.
    pub cores: usize,
    /// CPU model name.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory.
    pub commit: String,
}

impl HostStamp {
    /// Probes the running host.
    #[must_use]
    pub fn detect() -> Self {
        let run = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
                .map(|s| s.trim().to_owned())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_owned())
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        HostStamp {
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu,
            rustc: run("rustc", &["--version"]),
            commit: run("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The stamp as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let quote = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        format!(
            "{{\"cores\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
            self.cores,
            quote(&self.cpu),
            quote(&self.rustc),
            quote(&self.commit)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_stamp_renders_as_json_object() {
        let stamp = HostStamp {
            cores: 2,
            cpu: "A \"quoted\" cpu".into(),
            rustc: "rustc 1.0".into(),
            commit: "abc".into(),
        };
        assert_eq!(
            stamp.to_json(),
            "{\"cores\": 2, \"cpu\": \"A \\\"quoted\\\" cpu\", \"rustc\": \"rustc 1.0\", \
             \"commit\": \"abc\"}"
        );
        assert!(HostStamp::detect().cores >= 1);
    }
}
