//! `sim_cluster`: two cluster-simulator configurations run in parallel
//! at two jobs over 32 stacks × 8 cores.
//!
//! Set-up calibrates the Mercury-A7 service profile from the core
//! simulator and sizes both loads from `effective_capacity`. The
//! measured phase runs (a) single GETs at 90 % and (b) 8-key multigets
//! at 70 % of that capacity, keys Zipf 0.99 over 1 M keys.

use std::time::{Duration, Instant};

use densekv::experiments::cluster::calibrate;
use densekv::sweep::SweepEffort;
use densekv::CoreSimConfig;
use densekv_cluster::{
    effective_capacity, run as run_cluster, run_with_telemetry, ClusterConfig, ClusterResult,
    ClusterTopology, ClusterWorkload, TIMELINE_COLUMNS,
};
use densekv_dht::ConsistentHashRing;
use densekv_par::{par_map, Jobs};
use densekv_sim::dist::Zipf;
use densekv_sim::SplitRng;
use densekv_telemetry::{Telemetry, TelemetryConfig};

use crate::digest::{self, Digest};
use crate::report::{
    median, passes, quantile_sorted, release_freed_memory, set_par_metrics, Outcome,
};
use crate::Args;

const WORKLOAD: &str = "sim_cluster";

const JOBS: usize = 2;

/// Set-ups per run; the reported `setup_s` is their median.
const SETUPS: usize = 3;

/// Keys of the cluster's population.
const KEYS: u64 = 1_000_000;

/// Key draws replayed through the ring for `dht.lookup_ns`.
const LOOKUPS: usize = 400_000;

/// One configuration of the pair: label, batch, share of capacity and
/// logical requests measured.
const CONFIGS: [(&str, u32, f64, u32); 2] = [
    ("gets-90pct", 1, 0.90, 300_000),
    ("mget8-70pct", 8, 0.70, 60_000),
];

/// What set-up produced: the two configurations and its time split.
struct Setup {
    configs: Vec<(&'static str, ClusterConfig)>,
    calibrate: Duration,
    total: Duration,
}

/// Calibrates the profile and builds both configurations for `seed`.
fn setup(seed: u64, scale: f64) -> Setup {
    let start = Instant::now();
    let profile = calibrate(
        "Mercury-A7",
        &CoreSimConfig::mercury_a7(),
        SweepEffort::full(),
    );
    let calibrate_time = start.elapsed();
    let configs = CONFIGS
        .iter()
        .enumerate()
        .map(|(i, &(label, batch, load, requests))| {
            let mut config = ClusterConfig::new(profile.clone(), 1.0);
            config.topology = ClusterTopology {
                stacks: 32,
                cores_per_stack: 8,
                vnodes: 4,
            };
            config.workload = ClusterWorkload {
                key_population: KEYS,
                ..ClusterWorkload::multigets(1.0, batch)
            };
            config.requests = ((f64::from(requests) * scale) as u32).max(100);
            config.warmup = config.requests / 10;
            config.seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64 + 1);
            config.workload.rate_per_sec = load * effective_capacity(&config);
            (label, config)
        })
        .collect();
    Setup {
        configs,
        calibrate: calibrate_time,
        total: start.elapsed(),
    }
}

/// One configuration's run.
struct ConfigRun {
    /// Digest of the run's simulated statistics.
    digest: u64,
    /// Host time of the run.
    wall: Duration,
    hit_rate: f64,
    /// `(events popped, peak backlog)` when traced.
    sched: Option<(u64, u64)>,
}

/// Digest of a cluster result: request and hit counts, the latency
/// distributions and the rates derived from them.
fn result_digest(r: &ClusterResult) -> u64 {
    let mut d = Digest::default();
    d.u64(r.measured)
        .u64(r.dropped)
        .u64(r.shard_hits)
        .u64(r.shard_misses);
    for h in [&r.latency, &r.shard_latency] {
        d.u64(h.count()).u64(h.mean().as_ps()).u64(h.max().as_ps());
    }
    for q in [0.5, 0.9, 0.99, 0.999] {
        d.u64(r.latency.percentile(q).map_or(0, |p| p.as_ps()));
    }
    d.f64(r.throughput_tps).f64(r.peak_core_utilization);
    d.finish()
}

/// Runs both configurations at `jobs` workers. The pass time ends when
/// the last run ends; the digests are taken after that.
fn pass(setup: &Setup, jobs: Jobs, traced: bool) -> (Duration, Vec<ConfigRun>) {
    let start = Instant::now();
    let runs = par_map(jobs, &setup.configs, |(_, config)| {
        let run_start = Instant::now();
        let (result, sched) = if traced {
            let mut tele = Telemetry::enabled(TelemetryConfig {
                timeline_columns: TIMELINE_COLUMNS.to_vec(),
                ..TelemetryConfig::default()
            });
            let result = run_with_telemetry(config, &mut tele);
            let count = |name| tele.metrics.counter_by_name(name).unwrap_or(0);
            let sched = (
                count("cluster.sched.popped"),
                count("cluster.sched.peak_backlog"),
            );
            (result, Some(sched))
        } else {
            (run_cluster(config), None)
        };
        let end = Instant::now();
        let run = ConfigRun {
            digest: result_digest(&result),
            wall: end - run_start,
            hit_rate: result.hit_rate(),
            sched,
        };
        (run, end)
    });
    let end = runs.iter().map(|&(_, end)| end).max().unwrap_or(start);
    (end - start, runs.into_iter().map(|(run, _)| run).collect())
}

/// Replays Zipf draws of the run's seeds through a ring built like the
/// cluster's, ns per `node_for`.
fn dht_lookup_ns(setup: &Setup) -> f64 {
    let (_, config) = &setup.configs[0];
    let topo = config.topology;
    let mut ring = ConsistentHashRing::new(topo.vnodes);
    for node in 0..topo.nodes() {
        ring.add_node(node);
    }
    let zipf = Zipf::new(KEYS as usize, config.workload.zipf_alpha);
    let mut rng = SplitRng::new(config.seed);
    let keys: Vec<[u8; 8]> = (0..LOOKUPS)
        .map(|_| (zipf.sample(&mut rng) as u64).to_le_bytes())
        .collect();
    let start = Instant::now();
    for key in &keys {
        std::hint::black_box(ring.node_for(std::hint::black_box(key)));
    }
    start.elapsed().as_nanos() as f64 / LOOKUPS as f64
}

/// Checks a pass; returns the failed logical requests.
fn check_pass(seed: u64, setup: &Setup, runs: &[ConfigRun], reference: &mut [Option<u64>]) -> u64 {
    let mut failed = 0;
    for (((label, config), run), slot) in setup.configs.iter().zip(runs).zip(reference.iter_mut()) {
        if !digest::check(WORKLOAD, seed, label, run.digest, slot) {
            failed += u64::from(config.requests);
        }
    }
    failed
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups: Vec<Setup> = (0..SETUPS).map(|_| setup(args.seed, 1.0)).collect();
    let setup_s = median(
        &setups
            .iter()
            .map(|s| s.total.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let calibrate_ms = median(
        &setups
            .iter()
            .map(|s| s.calibrate.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    let setup = setups.pop().expect("at least one set-up");
    drop(setups);
    release_freed_memory();
    let requests: u64 = setup
        .configs
        .iter()
        .map(|(_, c)| u64::from(c.requests))
        .sum();
    let jobs = Jobs::new(JOBS);
    let mut reference = vec![None; setup.configs.len()];
    let (plain, traced) = passes(args, |traced| {
        let p = pass(&setup, jobs, traced);
        out.attempted += requests;
        out.failed += check_pass(args.seed, &setup, &p.1, &mut reference);
        p
    });

    for ((label, config), run) in setup.configs.iter().zip(&plain[0].1) {
        out.note(format!(
            "digest {WORKLOAD} {} {label} {:016x}",
            args.seed, run.digest
        ));
        out.note(format!(
            "{label}: {} logical requests at {:.0} rps offered, hit rate {:.4}, {:.1} host ms",
            config.requests,
            config.workload.rate_per_sec,
            run.hit_rate,
            run.wall.as_secs_f64() * 1e3
        ));
    }
    out.note(format!(
        "{} passes of {requests} logical requests at jobs {JOBS}",
        plain.len()
    ));
    let rate = |p: &(Duration, Vec<ConfigRun>)| requests as f64 / p.0.as_secs_f64();
    let plain_rate = median(&plain.iter().map(rate).collect::<Vec<_>>());

    if !args.trace {
        // Host time per logical request, one sample per pass.
        let mut per_request: Vec<u64> = plain
            .iter()
            .map(|(wall, _)| (wall.as_nanos() / u128::from(requests)) as u64)
            .collect();
        per_request.sort_unstable();
        out.note(format!(
            "host latency samples (passes): {}",
            per_request.len()
        ));
        out.set("ops_per_s", plain_rate);
        out.set(
            "lat_p50_us",
            quantile_sorted(&per_request, 0.50) as f64 / 1e3,
        );
        out.set(
            "lat_p99_us",
            quantile_sorted(&per_request, 0.99) as f64 / 1e3,
        );
        out.set("setup_s", setup_s);
        return out;
    }

    let traced_rate = median(&traced.iter().map(rate).collect::<Vec<_>>());
    let (mut events, mut peak, mut logical) = (0u64, 0u64, 0u64);
    for (_, runs) in &traced {
        for (run, (_, config)) in runs.iter().zip(&setup.configs) {
            let (popped, backlog) = run.sched.expect("traced runs count events");
            events += popped;
            peak = peak.max(backlog);
            logical += u64::from(config.warmup + config.requests);
        }
    }
    let per_pass_events = events / traced.len() as u64;
    let ns_per_event: Vec<f64> = plain
        .iter()
        .map(|(_, runs)| {
            let task_ns: f64 = runs.iter().map(|r| r.wall.as_nanos() as f64).sum();
            task_ns / per_pass_events as f64
        })
        .collect();
    let tasks = plain
        .iter()
        .map(|(wall, runs)| (*wall, runs.iter().map(|r| r.wall).collect()));
    set_par_metrics(&mut out, JOBS, tasks);
    out.set("sim.events_per_req", events as f64 / logical as f64);
    out.set("sim.peak_backlog", peak as f64);
    out.set("cluster.ns_per_event", median(&ns_per_event));
    out.set("cluster.calibrate_ms", calibrate_ms);
    out.set("dht.lookup_ns", dht_lookup_ns(&setup));
    out.set("trace.overhead_frac", 1.0 - traced_rate / plain_rate);
    out.note(format!(
        "{} traced passes, {events} scheduler events",
        traced.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Telemetry is passive: traced runs give the untraced digests.
    #[test]
    fn traced_and_untraced_passes_give_identical_digests() {
        let setup = setup(3, 0.01);
        let (_, plain) = pass(&setup, Jobs::new(2), false);
        let (_, traced) = pass(&setup, Jobs::new(2), true);
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.digest, b.digest);
            assert!(b.sched.is_some_and(|(events, _)| events > 0));
        }
    }

    #[test]
    fn perturbed_digest_counts_as_failed() {
        let setup = setup(424_242, 0.01);
        let (_, mut runs) = pass(&setup, Jobs::new(2), false);
        let mut reference = vec![None; runs.len()];
        assert_eq!(check_pass(424_242, &setup, &runs, &mut reference), 0);
        runs[1].digest = runs[1].digest.rotate_left(1);
        let expected = u64::from(setup.configs[1].1.requests);
        assert_eq!(check_pass(424_242, &setup, &runs, &mut reference), expected);
    }
}
