//! Extension experiments: cluster-scale tail latency and failover.
//!
//! The paper evaluates one stack at a time and argues density at the
//! rack level (§3.8, §6). These experiments deploy many stacks behind a
//! consistent-hash DHT — every core an independent Memcached node, the
//! paper's deployment model — and measure what a *client* of the whole
//! cluster sees:
//!
//! * [`cluster_tail`] — p50/p95/p99 response time versus offered load
//!   for Mercury-A7, Mercury-A15, Iridium-A7, Helios-A7 (a hybrid
//!   DRAM-tier stack), and a Bags-class Xeon baseline, with the
//!   per-core service times calibrated from the execution-driven
//!   [`CoreSim`].
//! * [`cluster_failover`] — the miss-rate and latency transient when
//!   stacks die mid-run and their keys remap to survivors.
//!
//! [`CoreSim`]: crate::sim::CoreSim

use densekv_baseline::BAGS;
use densekv_cluster::{
    effective_capacity, run as run_cluster, ClusterConfig, ClusterResult, FaultPlan, ServiceProfile,
};
use densekv_net::frame::MessageSizes;
use densekv_net::wire_bytes_for_payload;
use densekv_par::{par_map, Jobs};
use densekv_sim::stats::LatencyHistogram;
use densekv_sim::{Duration, SimTime};
use densekv_telemetry::{SloConfig, SloSnapshot, SloTracker};
use densekv_workload::{key_bytes, Op, Request};

use crate::report::TextTable;
use crate::sim::{CoreSim, CoreSimConfig};
use crate::sweep::SweepEffort;

/// Keys are 16 bytes in every workload of this repo.
const KEY_LEN: u64 = 16;

/// The cluster experiments run the paper's headline 64 B GET point.
const VALUE_BYTES: u64 = 64;

/// MAC store-and-forward latency, as in the stack simulator.
const MAC_DELAY: Duration = Duration::from_nanos(500);

/// Offered-load fractions of the cluster's *effective* capacity — the
/// load at which the Zipf-hottest core saturates. Under skewed
/// popularity that bound sits far below the aggregate `nodes /
/// hit_service` figure, so normalizing to it keeps every point stable
/// while still pushing the hot core to 90% utilization.
const LOAD_POINTS: [f64; 4] = [0.2, 0.45, 0.7, 0.9];

/// Mean server-side time of `count` executions of `request`.
fn mean_server(core: &mut CoreSim, request: &Request, count: u32) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..count {
        total += core.execute(request).server;
    }
    total / u64::from(count.max(1))
}

/// Calibrates a cluster [`ServiceProfile`] from the execution-driven
/// core simulator: hit/miss/fill service times come from real request
/// executions, wire times from the shared 10 GbE port's serialization
/// of the GET message sizes.
pub fn calibrate(label: &str, config: &CoreSimConfig, effort: SweepEffort) -> ServiceProfile {
    let mut core = CoreSim::new(config.clone()).expect("valid core config");
    core.preload(VALUE_BYTES, 64).expect("population fits");

    let hot = Request {
        op: Op::Get,
        key: key_bytes(0),
        value_bytes: VALUE_BYTES,
    };
    let absent = Request {
        op: Op::Get,
        key: key_bytes(9_999_999),
        value_bytes: VALUE_BYTES,
    };
    let put = Request {
        op: Op::Put,
        key: key_bytes(1),
        value_bytes: VALUE_BYTES,
    };

    // Warm caches and TLBs before measuring steady-state service times.
    mean_server(&mut core, &hot, effort.warmup.max(1));
    let hit_service = mean_server(&mut core, &hot, effort.measured.max(1));
    let miss_service = mean_server(&mut core, &absent, effort.measured.max(1));
    let fill_service = mean_server(&mut core, &put, effort.measured.max(1));

    let sizes = MessageSizes::get(KEY_LEN, VALUE_BYTES);
    ServiceProfile {
        label: label.to_owned(),
        hit_service,
        miss_service,
        fill_service,
        req_wire: config
            .wire
            .serialization_time(wire_bytes_for_payload(sizes.request_payload)),
        resp_wire: config
            .wire
            .serialization_time(wire_bytes_for_payload(sizes.response_payload)),
        link_delay: config.wire.propagation + MAC_DELAY,
        client_overhead: config.client_overhead,
    }
}

/// A Bags-class Xeon baseline profile, derived analytically from the
/// Table 4 row: 16 cores sustaining 3.15 MTPS puts the per-core GET
/// service time near 5 µs; misses skip the value copy and fills cost
/// about one hit.
pub fn xeon_profile() -> ServiceProfile {
    let per_core_tps = BAGS.mtps * 1e6 / f64::from(BAGS.cores);
    let hit_service = Duration::from_nanos_f64(1e9 / per_core_tps);
    let reference = CoreSimConfig::mercury_a7();
    let sizes = MessageSizes::get(KEY_LEN, VALUE_BYTES);
    ServiceProfile {
        label: "Xeon (Bags)".to_owned(),
        hit_service,
        miss_service: hit_service * 6 / 10,
        fill_service: hit_service,
        req_wire: reference
            .wire
            .serialization_time(wire_bytes_for_payload(sizes.request_payload)),
        resp_wire: reference
            .wire
            .serialization_time(wire_bytes_for_payload(sizes.response_payload)),
        link_delay: reference.wire.propagation + MAC_DELAY,
        client_overhead: reference.client_overhead,
    }
}

/// One design under test: its calibrated profile and how many cores
/// each network port serves.
struct Design {
    profile: ServiceProfile,
    cores_per_stack: u32,
}

/// Stack-level DRAM tier the routable Helios design carries (256 MB, a
/// 32 MB slice per core at 8 cores per stack).
const HELIOS_TIER_BYTES: u64 = 256 << 20;

/// The comparison set: four stacked designs at 8 cores per port and a
/// 16-core Xeon box per port. Each design's core calibration replays
/// its own simulator, so the calibrations fan out as worker tasks.
fn designs(effort: SweepEffort, jobs: Jobs) -> Vec<Design> {
    let stacked: [(&str, CoreSimConfig); 4] = [
        ("Mercury A7", CoreSimConfig::mercury_a7()),
        (
            "Mercury A15",
            CoreSimConfig::mercury(
                densekv_cpu::CoreConfig::a15_1ghz(),
                true,
                Duration::from_nanos(10),
            ),
        ),
        ("Iridium A7", CoreSimConfig::iridium_a7()),
        ("Helios A7", CoreSimConfig::helios_a7(HELIOS_TIER_BYTES / 8)),
    ];
    let mut designs: Vec<Design> = par_map(jobs, &stacked, |(label, config)| Design {
        profile: calibrate(label, config, effort),
        cores_per_stack: 8,
    });
    designs.push(Design {
        profile: xeon_profile(),
        cores_per_stack: 16,
    });
    designs
}

/// Scales the cluster request counts from the sweep effort.
fn request_budget(effort: SweepEffort) -> (u32, u32) {
    (effort.measured * 60, effort.warmup * 5)
}

/// One load point of the cluster tail experiment.
#[derive(Debug, Clone)]
pub struct TailPoint {
    /// Design label.
    pub design: String,
    /// Offered load as a fraction of the cluster's hit capacity.
    pub load_fraction: f64,
    /// Offered rate, logical requests/second.
    pub rate: f64,
    /// Median response time.
    pub p50: Duration,
    /// 95th-percentile response time.
    pub p95: Duration,
    /// 99th-percentile response time.
    pub p99: Duration,
    /// Busiest core's utilization.
    pub peak_utilization: f64,
}

/// Runs the tail experiment: each design's cluster at the
/// `LOAD_POINTS` fractions of its own hit capacity (8 stacks, single
/// GETs, Zipf keys).
pub fn cluster_tail(effort: SweepEffort, jobs: Jobs) -> Vec<TailPoint> {
    let (requests, warmup) = request_budget(effort);
    let designs = designs(effort, jobs);
    let tasks: Vec<(usize, f64)> = (0..designs.len())
        .flat_map(|di| LOAD_POINTS.into_iter().map(move |load| (di, load)))
        .collect();
    par_map(jobs, &tasks, |&(di, load)| {
        let design = &designs[di];
        let mut config = ClusterConfig::new(design.profile.clone(), 1.0);
        config.topology.cores_per_stack = design.cores_per_stack;
        config.requests = requests;
        config.warmup = warmup;
        config.workload.rate_per_sec = load * effective_capacity(&config);
        let result = run_cluster(&config);
        TailPoint {
            design: design.profile.label.clone(),
            load_fraction: load,
            rate: result.offered_rate,
            p50: result.latency.percentile(0.50).expect("samples"),
            p95: result.latency.percentile(0.95).expect("samples"),
            p99: result.latency.percentile(0.99).expect("samples"),
            peak_utilization: result.peak_core_utilization,
        }
    })
}

/// Renders the tail experiment table.
pub fn tail_table(points: &[TailPoint]) -> TextTable {
    let mut t = TextTable::new(vec![
        "design".into(),
        "load".into(),
        "rate (KTPS)".into(),
        "p50".into(),
        "p95".into(),
        "p99".into(),
        "peak core util".into(),
    ])
    .with_title("Extension — cluster tail latency (8 stacks, DHT-routed Zipf GETs)");
    for p in points {
        t.row(vec![
            p.design.clone(),
            format!("{:.0}%", p.load_fraction * 100.0),
            format!("{:.0}", p.rate / 1000.0),
            p.p50.to_string(),
            p.p95.to_string(),
            p.p99.to_string(),
            format!("{:.0}%", p.peak_utilization * 100.0),
        ]);
    }
    t
}

/// The failover experiment's outcome: the run itself plus the
/// configuration that produced it (for reporting).
#[derive(Debug, Clone)]
pub struct FailoverOutcome {
    /// The cluster run, including the bucketed timeline and remap event.
    pub result: ClusterResult,
    /// The configuration used.
    pub config: ClusterConfig,
}

/// Runs the failover experiment: a Mercury-A7 cluster at 30% load loses
/// 2 of its 8 stacks mid-run; the timeline shows the cold-miss spike
/// and the read-through recovery.
pub fn cluster_failover(effort: SweepEffort) -> FailoverOutcome {
    let (requests, warmup) = request_budget(effort);
    let profile = calibrate("Mercury A7", &CoreSimConfig::mercury_a7(), effort);
    let mut config = ClusterConfig::new(profile, 1.0);
    config.requests = requests * 2;
    config.warmup = warmup;
    // A smaller population than the tail runs so the re-warm transient
    // completes within the simulated window.
    config.workload.key_population = 20_000;
    // Half the effective capacity: the survivors absorb the dead
    // stacks' arcs (a 8/6 load increase) without saturating, so the
    // timeline settles back to a steady state.
    config.workload.rate_per_sec = 0.5 * effective_capacity(&config);
    let expected_span = f64::from(config.requests + config.warmup) / config.workload.rate_per_sec;
    config.fault = Some(FaultPlan {
        at: SimTime::ZERO + Duration::from_secs_f64(0.3 * expected_span),
        kill_stacks: vec![0, 1],
    });
    config.timeline_bucket = Duration::from_secs_f64(expected_span / 24.0);
    let result = run_cluster(&config);
    FailoverOutcome { result, config }
}

/// Short (fast-burn) window of the failover SLO tracker, in timeline
/// buckets.
const BURN_SHORT_WINDOWS: usize = 2;

/// Long (sustained-burn) window of the failover SLO tracker, in
/// timeline buckets.
const BURN_LONG_WINDOWS: usize = 8;

/// Runs the failover timeline through a [`SloTracker`], one timeline
/// bucket per SLO window.
///
/// The objective is *self-calibrated*: the p95 of the pre-fault buckets
/// against a 95% target, so the steady state burns its error budget at
/// rate ≈ 1.0 by construction and the post-kill latency spike reads
/// directly as a burn-rate excursion. Returns the (clamped) config and
/// one snapshot per bucket, aligned with `outcome.result.timeline`.
#[must_use]
pub fn failover_burn(outcome: &FailoverOutcome) -> (SloConfig, Vec<SloSnapshot>) {
    let timeline = &outcome.result.timeline;
    let fault_bucket = match &outcome.result.remap {
        Some(r) => timeline.bucket_index(r.at).min(timeline.len()),
        None => timeline.len(),
    };
    let mut steady = LatencyHistogram::new();
    for b in &timeline[..fault_bucket] {
        steady.merge(&b.latency);
    }
    let objective = steady
        .percentile(0.95)
        .unwrap_or_else(|| Duration::from_micros(500));
    let mut tracker = SloTracker::new(SloConfig {
        objective,
        target: 0.95,
        short_windows: BURN_SHORT_WINDOWS,
        long_windows: BURN_LONG_WINDOWS,
        alert_burn: 2.0,
    });
    let mut burns = Vec::with_capacity(timeline.len());
    for b in timeline.iter() {
        let total = b.completed();
        let good = (b.latency.fraction_within(objective) * total as f64).round() as u64;
        tracker.observe_window(total, total - good.min(total));
        burns.push(tracker.snapshot());
    }
    (*tracker.config(), burns)
}

/// Renders the failover timeline table, including the per-bucket SLO
/// burn rate from [`failover_burn`].
pub fn failover_table(outcome: &FailoverOutcome) -> TextTable {
    let remap = outcome.result.remap.as_ref();
    let title = match remap {
        Some(r) => format!(
            "Extension — failover transient (killed stacks {:?} at {}, {:.1}% of keys remapped)",
            r.killed,
            r.at.elapsed_since(SimTime::ZERO),
            r.key_fraction_remapped * 100.0
        ),
        None => "Extension — failover transient".to_owned(),
    };
    let (slo, burns) = failover_burn(outcome);
    let mut t = TextTable::new(vec![
        "t".into(),
        "completed".into(),
        "hit rate".into(),
        "p50".into(),
        "p99".into(),
        format!("burn (slo {})", slo.objective),
        "alert".into(),
    ])
    .with_title(&title);
    for (bucket, burn) in outcome.result.timeline.iter().zip(&burns) {
        if bucket.completed() == 0 {
            continue;
        }
        t.row(vec![
            bucket.start.elapsed_since(SimTime::ZERO).to_string(),
            bucket.completed().to_string(),
            format!("{:.2}%", bucket.hit_rate() * 100.0),
            bucket
                .latency
                .percentile(0.50)
                .expect("nonempty")
                .to_string(),
            bucket
                .latency
                .percentile(0.99)
                .expect("nonempty")
                .to_string(),
            format!("{:.2}", burn.short_burn),
            if burn.alerting { "ALERT" } else { "" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use densekv_dht::{remapped_fraction, ConsistentHashRing};

    #[test]
    fn calibrated_profiles_are_ordered_sensibly() {
        let effort = SweepEffort::quick();
        let a7 = calibrate("Mercury A7", &CoreSimConfig::mercury_a7(), effort);
        let a15 = calibrate(
            "Mercury A15",
            &CoreSimConfig::mercury(
                densekv_cpu::CoreConfig::a15_1ghz(),
                true,
                Duration::from_nanos(10),
            ),
            effort,
        );
        let iridium = calibrate("Iridium A7", &CoreSimConfig::iridium_a7(), effort);
        let helios = calibrate(
            "Helios A7",
            &CoreSimConfig::helios_a7(HELIOS_TIER_BYTES / 8),
            effort,
        );
        // A GET that hits dominates its miss (the miss skips the copy),
        // and the wider A15 beats the A7 on the same requests.
        assert!(a7.hit_service > a7.miss_service);
        assert!(a15.hit_service < a7.hit_service);
        // Flash reads put Iridium's hit far above Mercury's; a warm
        // Helios tier serves the calibration key at DRAM speed.
        assert!(iridium.hit_service > a7.hit_service);
        assert!(helios.hit_service < iridium.hit_service);
        // Wire times are design-independent (same port, same bytes).
        assert_eq!(a7.req_wire, iridium.req_wire);
        assert!(
            a7.resp_wire > a7.req_wire,
            "64 B response outweighs request"
        );
    }

    #[test]
    fn tail_experiment_shape_and_determinism() {
        let points = cluster_tail(SweepEffort::quick(), Jobs::SERIAL);
        assert_eq!(points.len(), 5 * LOAD_POINTS.len());
        for design in [
            "Mercury A7",
            "Mercury A15",
            "Iridium A7",
            "Helios A7",
            "Xeon (Bags)",
        ] {
            let series: Vec<_> = points.iter().filter(|p| p.design == design).collect();
            assert_eq!(series.len(), LOAD_POINTS.len());
            // Queueing: the tail only grows with load.
            assert!(series.windows(2).all(|w| w[1].p99 >= w[0].p99), "{design}");
        }
        // Same seed, same percentiles — and jobs-invariant.
        let again = cluster_tail(SweepEffort::quick(), Jobs::new(3));
        for (a, b) in points.iter().zip(&again) {
            assert_eq!(a.p50, b.p50);
            assert_eq!(a.p99, b.p99);
        }
        assert!(tail_table(&points).to_string().contains("p99"));
    }

    #[test]
    fn failover_transient_recovers_and_matches_dht_estimate() {
        let outcome = cluster_failover(SweepEffort::quick());
        let remap = outcome.result.remap.as_ref().expect("fault ran");

        // The exact per-key remap fraction must agree with the sampled
        // DHT estimate for the same before/after rings.
        let topo = outcome.config.topology;
        let mut before = ConsistentHashRing::new(topo.vnodes);
        for stack in 0..topo.stacks {
            for core in 0..topo.cores_per_stack {
                before.add_node(topo.node_id(stack, core));
            }
        }
        let mut after = before.clone();
        for &stack in &remap.killed {
            for core in 0..topo.cores_per_stack {
                after.remove_node(topo.node_id(stack, core));
            }
        }
        let estimate = remapped_fraction(&before, &after, 50_000, 11);
        assert!(
            (estimate - remap.key_fraction_remapped).abs() < 0.02,
            "sampled {estimate:.3} vs exact {:.3}",
            remap.key_fraction_remapped
        );

        // The transient: hit rate dips after the kill, then recovers.
        let bucket_ps = outcome.config.timeline_bucket.as_ps();
        let fault_bucket = (remap.at.as_ps() / bucket_ps) as usize;
        let timeline = &outcome.result.timeline;
        let dip = timeline[fault_bucket..]
            .iter()
            .map(|b| b.hit_rate())
            .fold(1.0f64, f64::min);
        let last = timeline.last().expect("nonempty").hit_rate();
        assert!(dip < 0.9, "kill should dent hit rate, dip={dip:.3}");
        assert!(
            last > dip,
            "hit rate should recover, dip={dip:.3} last={last:.3}"
        );
        assert!(failover_table(&outcome).to_string().contains("hit rate"));

        // The SLO burn column: calibrated to the pre-fault p95, so the
        // steady state burns ≈ 1.0, the kill spikes it past the 2.0
        // alert threshold, and the re-warm brings it back down.
        let (slo, burns) = failover_burn(&outcome);
        assert_eq!(burns.len(), timeline.len());
        assert!((slo.target - 0.95).abs() < 1e-12);
        let pre_peak = burns[..fault_bucket]
            .iter()
            .map(|s| s.short_burn)
            .fold(0.0f64, f64::max);
        let post_peak = burns[fault_bucket..]
            .iter()
            .map(|s| s.short_burn)
            .fold(0.0f64, f64::max);
        assert!(
            pre_peak < 2.0,
            "steady state must not alert, pre-fault peak burn {pre_peak:.2}"
        );
        assert!(
            post_peak >= 2.0 && post_peak > 2.0 * pre_peak,
            "kill should spike the burn, pre {pre_peak:.2} post {post_peak:.2}"
        );
        assert!(
            burns[fault_bucket..].iter().any(|s| s.alerting),
            "a sustained spike should trip the multi-window alert"
        );
        // Quick effort only partially re-warms, so ask for a clear
        // decline from the peak rather than a full return to 1.0.
        let settled = burns.last().expect("nonempty").short_burn;
        assert!(
            settled < 0.75 * post_peak,
            "burn should recover, settled {settled:.2} peak {post_peak:.2}"
        );
        let rendered = failover_table(&outcome).to_string();
        assert!(rendered.contains("burn"), "{rendered}");
        assert!(rendered.contains("ALERT"), "{rendered}");
    }
}
