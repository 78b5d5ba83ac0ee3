//! `sim_sweep`: the execution-driven core simulator over a grid of
//! three families × four value sizes, at two jobs.
//!
//! Set-up builds each point's `CoreSim` and preloads its population.
//! The measured phase replays a seeded request stream (Zipf 0.99 over
//! the population, 90 % GET, 10 % PUT) through `execute_parts`. Every
//! pass rebuilds the grid, so every pass must give the same digests.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use densekv::{CoreSim, CoreSimConfig};
use densekv_cpu::CacheHierarchyStats;
use densekv_kv::store::{KvStore, StoreConfig};
use densekv_par::{par_map, Jobs};
use densekv_sim::dist::Zipf;
use densekv_sim::SplitMix64;
use densekv_workload::{key_bytes, Op};

use crate::digest::{self, Digest};
use crate::report::{median, passes, quantile_sorted, set_par_metrics, Outcome};
use crate::Args;

const WORKLOAD: &str = "sim_sweep";

/// Workers of the parallel harness.
const JOBS: usize = 2;

/// Value sizes of the grid, bytes.
const SIZES: [u64; 4] = [64, 1 << 10, 16 << 10, 128 << 10];

/// Helios-A7's DRAM tier.
const HELIOS_TIER_BYTES: u64 = 256 << 20;

/// Share of PUTs in every stream.
const PUT_FRACTION: f64 = 0.10;

/// Consecutive requests timed together for the host latency metrics.
const BATCH: usize = 64;

/// Bytes of values preloaded per point.
const FOOTPRINT_BYTES: u64 = 8 << 20;

/// One grid point's inputs.
struct Point {
    label: String,
    config: CoreSimConfig,
    value_bytes: u64,
    population: u64,
    keys: Vec<Vec<u8>>,
    ops: Vec<(Op, u32)>,
}

impl Point {
    fn new(
        family: &str,
        config: CoreSimConfig,
        value_bytes: u64,
        requests: usize,
        seed: u64,
    ) -> Self {
        let population = (FOOTPRINT_BYTES / value_bytes).clamp(64, 2048);
        let mut config = config;
        config.store_bytes = config
            .store_bytes
            .max((value_bytes + 4096) * population * 2);
        let zipf = Zipf::new(population as usize, 0.99);
        let mut rng = SplitMix64::new(seed);
        let ops = (0..requests)
            .map(|_| {
                let op = if rng.next_bool(PUT_FRACTION) {
                    Op::Put
                } else {
                    Op::Get
                };
                (op, zipf.sample(&mut rng) as u32)
            })
            .collect();
        Point {
            label: format!("{family}/{value_bytes}"),
            config,
            value_bytes,
            population,
            keys: (0..population).map(key_bytes).collect(),
            ops,
        }
    }
}

/// Requests per point: sized so each point costs a similar host time.
fn requests_for(value_bytes: u64, scale: f64) -> usize {
    let base = match value_bytes {
        0..=1023 => 24_000.0,
        1024..=16383 => 12_000.0,
        16384..=131_071 => 2_400.0,
        _ => 400.0,
    };
    ((base * scale) as usize).max(16)
}

/// The grid for `seed`. `scale` shrinks the streams for tests.
fn grid(seed: u64, scale: f64) -> Vec<Point> {
    let families: [(&str, CoreSimConfig); 3] = [
        ("mercury-a7", CoreSimConfig::mercury_a7()),
        ("iridium-a7", CoreSimConfig::iridium_a7()),
        ("helios-a7", CoreSimConfig::helios_a7(HELIOS_TIER_BYTES)),
    ];
    let mut points = Vec::new();
    for (f, (family, config)) in families.iter().enumerate() {
        for (s, &size) in SIZES.iter().enumerate() {
            let point_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((f * SIZES.len() + s) as u64 + 1);
            points.push(Point::new(
                family,
                config.clone(),
                size,
                requests_for(size, scale),
                point_seed,
            ));
        }
    }
    points
}

/// What one point's measured phase produced.
struct PointRun {
    /// Digest of the point's simulated statistics.
    digest: u64,
    /// Host time of the point's measured phase.
    exec: Duration,
    /// Host ns per request, the mean of each batch of [`BATCH`].
    batch_ns: Vec<u64>,
    /// Host ns per `execute_parts` call (traced passes only).
    call_ns: Vec<u64>,
    cache: CacheHierarchyStats,
    device_bytes: u64,
    wire_bytes: u64,
    tier: Option<(u64, u64)>,
}

/// Runs one point's stream on its preloaded core.
fn execute(point: &Point, core: &mut CoreSim, traced: bool) -> PointRun {
    let start = Instant::now();
    let mut batch_ns = Vec::with_capacity(point.ops.len() / BATCH);
    let mut batch_start = start;
    let mut call_ns = Vec::with_capacity(if traced { point.ops.len() } else { 0 });
    let mut d = Digest::default();
    let (mut rtt, mut server, mut network, mut store, mut hash, mut hits) = (0, 0, 0, 0, 0, 0);
    for (i, &(op, id)) in point.ops.iter().enumerate() {
        if i % BATCH == 0 && i > 0 {
            let now = Instant::now();
            batch_ns.push((now - batch_start).as_nanos() as u64 / BATCH as u64);
            batch_start = now;
        }
        let key = &point.keys[id as usize];
        let t = if traced {
            let call = Instant::now();
            let (t, _) = core.execute_parts(op, key, point.value_bytes);
            call_ns.push(call.elapsed().as_nanos() as u64);
            t
        } else {
            core.execute_parts(op, key, point.value_bytes).0
        };
        rtt += t.rtt.as_ps();
        server += t.server.as_ps();
        network += t.network.as_ps();
        store += t.store.as_ps();
        hash += t.hash.as_ps();
        hits += u64::from(t.hit);
    }
    let exec = start.elapsed();

    let cache = core.cache_stats();
    let s = core.store_stats();
    let (dram_bytes, flash_bytes) = core.device_tier_bytes();
    let tier = core.tier_stats();
    d.u64(point.ops.len() as u64)
        .u64(rtt)
        .u64(server)
        .u64(network)
        .u64(store)
        .u64(hash)
        .u64(hits);
    for level in [Some(cache.l1i), Some(cache.l1d), cache.l2]
        .into_iter()
        .flatten()
    {
        d.u64(level.hits).u64(level.misses);
    }
    for v in [
        s.get_hits,
        s.get_misses,
        s.sets,
        s.evictions,
        s.items,
        s.bytes,
    ] {
        d.u64(v);
    }
    d.u64(dram_bytes).u64(flash_bytes).u64(core.wire_bytes());
    if let Some(t) = &tier {
        for v in [
            t.hits,
            t.misses,
            t.dram_bytes,
            t.flash_bytes,
            t.resident_pages,
        ] {
            d.u64(v);
        }
        d.u64(t.writebacks_flushed)
            .u64(t.device_programs)
            .u64(t.gc_erased_blocks);
    }
    PointRun {
        digest: d.finish(),
        exec,
        batch_ns,
        call_ns,
        cache,
        device_bytes: core.device_bytes(),
        wire_bytes: core.wire_bytes(),
        tier: tier.map(|t| (t.hits, t.misses)),
    }
}

/// One pass over the grid: timed set-up, then the timed measured phase.
struct Pass {
    /// Wall time of building and preloading every point.
    setup: Duration,
    /// Wall time of the measured phase.
    exec: Duration,
    /// Host time of each point's set-up task.
    setup_tasks: Vec<Duration>,
    /// Per-point results, in grid order.
    runs: Vec<PointRun>,
}

/// Runs one pass over `points` at `jobs` workers.
fn pass(points: &[Point], jobs: Jobs, traced: bool) -> Pass {
    let setup_start = Instant::now();
    let built = par_map(jobs, points, |p| {
        let start = Instant::now();
        let mut core = CoreSim::new(p.config.clone()).expect("point config is valid");
        core.preload(p.value_bytes, p.population)
            .expect("population fits the sized store");
        (Mutex::new(core), start.elapsed())
    });
    let setup = setup_start.elapsed();
    let setup_tasks = built.iter().map(|(_, t)| *t).collect();
    let cores: Vec<(&Point, Mutex<CoreSim>)> = points
        .iter()
        .zip(built.into_iter().map(|(c, _)| c))
        .collect();

    let exec_start = Instant::now();
    let runs = par_map(jobs, &cores, |(p, core)| {
        let mut core = core.lock().expect("one task per core");
        execute(p, &mut core, traced)
    });
    Pass {
        setup,
        exec: exec_start.elapsed(),
        setup_tasks,
        runs,
    }
}

/// Replays each point's stream against a standalone `KvStore`, ns/op.
fn kv_replay_ns(points: &[Point]) -> f64 {
    let (mut ns, mut ops) = (0u128, 0u64);
    for p in points {
        let mut store = KvStore::new(StoreConfig::with_capacity(p.config.store_bytes));
        for key in &p.keys {
            store
                .set(key, vec![0xAB; p.value_bytes as usize], None, 0)
                .expect("population fits the sized store");
        }
        let start = Instant::now();
        for &(op, id) in &p.ops {
            let key = &p.keys[id as usize];
            match op {
                Op::Get => {
                    std::hint::black_box(store.get(key, 0));
                }
                Op::Put => {
                    let _ = std::hint::black_box(store.set(
                        key,
                        vec![0xCD; p.value_bytes as usize],
                        None,
                        0,
                    ));
                }
            }
        }
        ns += start.elapsed().as_nanos();
        ops += p.ops.len() as u64;
    }
    ns as f64 / ops.max(1) as f64
}

/// Checks every point of a pass; returns the failed request count.
fn check_pass(seed: u64, points: &[Point], pass: &Pass, reference: &mut [Option<u64>]) -> u64 {
    let mut failed = 0;
    for ((p, run), slot) in points.iter().zip(&pass.runs).zip(reference.iter_mut()) {
        if !digest::check(WORKLOAD, seed, &p.label, run.digest, slot) {
            failed += p.ops.len() as u64;
        }
    }
    failed
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let points = grid(args.seed, 1.0);
    let requests: u64 = points.iter().map(|p| p.ops.len() as u64).sum();
    let jobs = Jobs::new(JOBS);
    let mut out = Outcome::default();
    let mut reference = vec![None; points.len()];
    let (plain, traced) = passes(args, |traced| {
        let p = pass(&points, jobs, traced);
        out.attempted += requests;
        out.failed += check_pass(args.seed, &points, &p, &mut reference);
        p
    });

    for (point, run) in points.iter().zip(&plain[0].runs) {
        out.note(format!(
            "digest {WORKLOAD} {} {} {:016x} ({} requests, {:.1} host ms)",
            args.seed,
            point.label,
            run.digest,
            point.ops.len(),
            run.exec.as_secs_f64() * 1e3
        ));
    }
    let rate = |p: &Pass| requests as f64 / p.exec.as_secs_f64();
    let plain_rate = median(&plain.iter().map(rate).collect::<Vec<_>>());
    out.note(format!(
        "{} passes of {requests} simulated requests over {} points at jobs {JOBS}",
        plain.len(),
        points.len()
    ));

    if !args.trace {
        let mut batches: Vec<u64> = plain
            .iter()
            .flat_map(|p| p.runs.iter().flat_map(|r| r.batch_ns.iter().copied()))
            .collect();
        batches.sort_unstable();
        out.note(format!(
            "host latency samples (batches of {BATCH} requests): {}",
            batches.len()
        ));
        out.set("ops_per_s", plain_rate);
        out.set("lat_p50_us", quantile_sorted(&batches, 0.50) as f64 / 1e3);
        out.set("lat_p99_us", quantile_sorted(&batches, 0.99) as f64 / 1e3);
        let setups: Vec<f64> = plain.iter().map(|p| p.setup.as_secs_f64()).collect();
        out.set("setup_s", median(&setups));
        return out;
    }

    let runs = || traced.iter().flat_map(|p| p.runs.iter());
    let traced_rate = median(&traced.iter().map(rate).collect::<Vec<_>>());
    let mut call_ns: Vec<u64> = runs().flat_map(|r| r.call_ns.iter().copied()).collect();
    call_ns.sort_unstable();
    let traced_requests = (requests * traced.len() as u64) as f64;
    let total_call_ns: u64 = call_ns.iter().sum();
    let (mut accesses, mut l1d_miss, mut l1d, mut l2_miss, mut l2) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut device, mut wire, mut tier_hits, mut tier_all) = (0u64, 0u64, 0u64, 0u64);
    for r in runs() {
        accesses += r.cache.l1_accesses() + r.cache.l2_accesses();
        l1d += r.cache.l1d.accesses();
        l1d_miss += r.cache.l1d.misses;
        if let Some(level) = r.cache.l2 {
            l2 += level.accesses();
            l2_miss += level.misses;
        }
        device += r.device_bytes;
        wire += r.wire_bytes;
        if let Some((h, m)) = r.tier {
            tier_hits += h;
            tier_all += h + m;
        }
    }
    let preload: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.setup_tasks.iter().map(|t| t.as_secs_f64() * 1e3))
        .collect();
    out.set(
        "core.execute_ns_p50",
        quantile_sorted(&call_ns, 0.50) as f64,
    );
    out.set(
        "core.execute_ns_p99",
        quantile_sorted(&call_ns, 0.99) as f64,
    );
    out.set(
        "core.preload_ms",
        preload.iter().sum::<f64>() / preload.len() as f64,
    );
    out.set(
        "cpu.cache_accesses_per_req",
        accesses as f64 / traced_requests,
    );
    out.set("cpu.l1d_miss_ratio", l1d_miss as f64 / l1d.max(1) as f64);
    out.set("cpu.l2_miss_ratio", l2_miss as f64 / l2.max(1) as f64);
    out.set(
        "cpu.ns_per_cache_access",
        total_call_ns as f64 / accesses.max(1) as f64,
    );
    out.set("mem.device_bytes_per_req", device as f64 / traced_requests);
    out.set(
        "hybrid.tier_hit_ratio",
        tier_hits as f64 / tier_all.max(1) as f64,
    );
    out.set("net.wire_bytes_per_req", wire as f64 / traced_requests);
    out.set("kv.store_ns_per_op", kv_replay_ns(&points));
    let tasks = plain
        .iter()
        .map(|p| (p.exec, p.runs.iter().map(|r| r.exec).collect()));
    set_par_metrics(&mut out, JOBS, tasks);
    out.set("trace.overhead_frac", 1.0 - traced_rate / plain_rate);
    out.note(format!(
        "{} traced passes; execute_parts samples: {}",
        traced.len(),
        call_ns.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing is passive: a traced pass gives the untraced digests.
    #[test]
    fn traced_and_untraced_passes_give_identical_digests() {
        let points = grid(3, 0.02);
        let plain = pass(&points, Jobs::new(2), false);
        let traced = pass(&points, Jobs::new(2), true);
        for (a, b) in plain.runs.iter().zip(&traced.runs) {
            assert_eq!(a.digest, b.digest);
            assert!(!b.call_ns.is_empty() && a.call_ns.is_empty());
        }
    }

    /// A digest that differs from the recorded one fails that point's
    /// requests.
    #[test]
    fn perturbed_digest_counts_as_failed() {
        let points = grid(1, 0.02);
        let mut p = pass(&points, Jobs::new(2), false);
        let mut reference = vec![None; points.len()];
        // Seed 1 is recorded at full scale, so the shrunken streams
        // miss the table: every point fails.
        assert_eq!(
            check_pass(1, &points, &p, &mut reference),
            points.iter().map(|p| p.ops.len() as u64).sum::<u64>()
        );
        // An unrecorded seed checks against the first pass, which a
        // perturbed digest then fails.
        let mut reference = vec![None; points.len()];
        assert_eq!(check_pass(424_242, &points, &p, &mut reference), 0);
        p.runs[5].digest ^= 1;
        assert_eq!(
            check_pass(424_242, &points, &p, &mut reference),
            points[5].ops.len() as u64
        );
    }
}
