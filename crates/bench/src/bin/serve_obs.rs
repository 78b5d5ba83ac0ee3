//! Live observability end-to-end: drives the real TCP front-end with
//! the open-loop load generator while the in-server metrics plane is
//! recording, then cross-checks the *server-side* percentiles (measured
//! inside the request loop) against the *client-side* percentiles (the
//! load generator's coordinated-omission-resistant view). The two are
//! independent instruments on the same traffic; if the plane is honest,
//! the server-side distribution nests inside the client-side one.
//!
//! Also measures what observability costs: paired closed-loop bursts
//! against a metrics-off and a metrics-on server, repeated several
//! times, gated on the **median** paired overhead (loopback throughput
//! on a shared box swings tens of percent burst to burst, in both
//! directions — a single pair would make the gate a coin flip). With
//! `DENSEKV_OBS_GATE=1` the bin exits non-zero when the median
//! instrumented throughput drop exceeds the tolerance
//! (`DENSEKV_OBS_TOLERANCE`, default 0.20) — the CI regression gate for
//! the passivity claim.
//!
//! Emits:
//! * `results/serve_metrics.csv` — per-verb server-side quantiles,
//!   the client-side view, and the overhead rows.
//! * `results/serve_trace.json` — Chrome-trace phase spans sampled
//!   from live requests (load in Perfetto), capped at the newest
//!   [`TRACE_SPAN_CAP`] spans so the checked-in artifact stays small.
//! * `results/flight_recorder.json` — the windowed-SLO flight
//!   recorder's dump: the window-snapshot ring, burn rates, slow log,
//!   and an embedded (capped) trace.
//!
//! `DENSEKV_QUICK=1` shrinks the run for CI.

use densekv::report::TextTable;
use densekv_bench::emit_raw;
use densekv_serve::{
    preload, run_closed_loop, run_open_loop, spawn, ClosedLoopConfig, Connection, LoadMix,
    MetricsConfig, OpenLoopConfig, ServeConfig, Verb,
};
use densekv_telemetry::Quantiles;

/// Keys in play (all resident).
const POPULATION: usize = 128;
/// Value size for the mix.
const VALUE_BYTES: u64 = 64;
/// Seed for every stream in this experiment.
const SEED: u64 = 0x0B5E;
/// Newest spans kept in the checked-in `serve_trace.json` artifact.
const TRACE_SPAN_CAP: usize = 160;

fn us(d: densekv_sim::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One CSV row: an instrument's view of one slice of the traffic.
struct Row {
    source: &'static str,
    name: String,
    count: u64,
    q: Quantiles,
    rps: f64,
}

impl Row {
    fn csv(&self) -> String {
        format!(
            "{},{},{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.1}\n",
            self.source,
            self.name,
            self.count,
            us(self.q.p50),
            us(self.q.p90),
            us(self.q.p95),
            us(self.q.p99),
            us(self.q.p999),
            us(self.q.mean),
            us(self.q.max),
            self.rps,
        )
    }
}

/// Closed-loop throughput against a fresh server with the given plane.
fn capacity_with(metrics: MetricsConfig, workers: usize, requests: u64) -> f64 {
    // The `DENSEKV_SERVE_*` overrides pick the backend; the plane under
    // test is set after them, so it is always the one measured.
    let config = ServeConfig::from_env().with_metrics(metrics);
    let server = spawn(config).expect("bind localhost");
    let mix = LoadMix::etc(POPULATION, VALUE_BYTES, SEED);
    preload(server.addr(), &mix).expect("preload");
    let report = run_closed_loop(&ClosedLoopConfig {
        addr: server.addr(),
        workers,
        requests_per_worker: requests,
        mix,
    })
    .expect("closed loop");
    server.shutdown();
    report.achieved_rps
}

fn main() {
    let quick = std::env::var("DENSEKV_QUICK").is_ok_and(|v| v != "0");
    let workers = densekv_bench::jobs().get().clamp(2, 8);
    let closed_requests: u64 = if quick { 300 } else { 2_000 };
    let open_millis = if quick { 400 } else { 2_000 };
    let sample_every = if quick { 32 } else { 128 };

    // ---- Observed run: open loop against an instrumented server ----
    let server = spawn(ServeConfig::from_env().with_metrics(MetricsConfig {
        sample_every,
        slow_threshold: std::time::Duration::from_millis(5),
        // A 250 ms window so the run closes several windows and the
        // flight-recorder artifact carries a real snapshot ring.
        window: std::time::Duration::from_millis(250),
        ..MetricsConfig::default()
    }))
    .expect("bind localhost");
    let addr = server.addr();
    let mix = LoadMix::etc(POPULATION, VALUE_BYTES, SEED);
    preload(addr, &mix).expect("preload");
    let capacity = run_closed_loop(&ClosedLoopConfig {
        addr,
        workers,
        requests_per_worker: closed_requests,
        mix: mix.clone(),
    })
    .expect("capacity probe")
    .achieved_rps;
    eprintln!("[serve_obs] closed-loop capacity {capacity:.0} rps ({workers} connections)");

    let report = run_open_loop(&OpenLoopConfig {
        addr,
        workers,
        offered_rps: capacity * 0.6,
        duration: std::time::Duration::from_millis(open_millis),
        mix,
    })
    .expect("open loop");

    let mut rows: Vec<Row> = Vec::new();
    for verb in Verb::ALL {
        let q = server.metrics().verb_quantiles(verb);
        if q.count > 0 {
            rows.push(Row {
                source: "server",
                name: verb.name().to_owned(),
                count: q.count,
                q,
                rps: 0.0,
            });
        }
    }
    let server_all = server.metrics().overall_quantiles();
    rows.push(Row {
        source: "server",
        name: "all".to_owned(),
        count: server_all.count,
        q: server_all,
        rps: report.achieved_rps,
    });
    let client_all = report.latency.quantiles();
    rows.push(Row {
        source: "client",
        name: "all".to_owned(),
        count: client_all.count,
        q: client_all,
        rps: report.achieved_rps,
    });

    // Exercise the wire-level introspection too, so the artifact run
    // proves the verbs and the trace both work end to end.
    let mut conn = Connection::connect(addr).expect("connect");
    let latency_reply = conn
        .text_block(b"stats latency\r\n")
        .expect("stats latency over TCP");
    println!("stats latency ({} lines):", latency_reply.len());
    for line in latency_reply.iter().filter(|l| l.contains("_p9")) {
        println!("  {line}");
    }
    let spans = server.metrics().spans_recorded();
    let slow = server.metrics().slow_requests().len();
    emit_raw(
        "serve_trace.json",
        &server.metrics().trace_chrome_json_capped(TRACE_SPAN_CAP),
    );
    let windows_closed = server.metrics().windows_closed();
    let slo = server.metrics().slo_snapshot();
    let recorder = server.metrics().flight_recorder_json();
    densekv_telemetry::validate_json(&recorder).expect("flight recorder dump is valid JSON");
    emit_raw("flight_recorder.json", &recorder);
    println!(
        "windows closed: {windows_closed}   slo burn short {:.2} / long {:.2}{}",
        slo.short_burn,
        slo.long_burn,
        if slo.alerting { "   ALERTING" } else { "" }
    );
    server.shutdown();

    // ---- Overhead: metrics on vs off on identical closed-loop work ----
    // Interleave off/on pairs and gate on the median paired overhead:
    // each pair shares whatever transient load the host is under, and
    // the median discards outlier pairs in either direction.
    let pairs = if quick { 3 } else { 5 };
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let mut offs = Vec::new();
    let mut ons = Vec::new();
    let mut overheads = Vec::new();
    for _ in 0..pairs {
        let off = capacity_with(MetricsConfig::disabled(), workers, closed_requests);
        let on = capacity_with(
            MetricsConfig {
                sample_every,
                ..MetricsConfig::default()
            },
            workers,
            closed_requests,
        );
        eprintln!("[serve_obs] overhead pair: off {off:.0} rps, on {on:.0} rps");
        overheads.push(1.0 - on / off.max(f64::MIN_POSITIVE));
        offs.push(off);
        ons.push(on);
    }
    let overhead = median(&mut overheads);
    let rps_off = median(&mut offs);
    let rps_on = median(&mut ons);
    // Overhead rows carry throughput, not latency: zero quantiles.
    let zero = densekv_telemetry::LogHistogram::new().quantiles();
    for (name, rps) in [("metrics_off", rps_off), ("metrics_on", rps_on)] {
        rows.push(Row {
            source: "overhead",
            name: name.to_owned(),
            count: closed_requests * workers as u64 * pairs as u64,
            q: zero,
            rps,
        });
    }

    let mut csv =
        String::from("source,name,count,p50_us,p90_us,p95_us,p99_us,p999_us,mean_us,max_us,rps\n");
    for row in &rows {
        csv.push_str(&row.csv());
    }
    emit_raw("serve_metrics.csv", &csv);

    let mut table = TextTable::new(
        ["source", "name", "count", "p50", "p95", "p99", "p999"]
            .map(String::from)
            .to_vec(),
    )
    .with_title("server-side vs client-side latency on the same live traffic (us)");
    for row in rows.iter().filter(|r| r.q.count > 0) {
        table.row(vec![
            row.source.to_owned(),
            row.name.clone(),
            row.q.count.to_string(),
            format!("{:.1}", us(row.q.p50)),
            format!("{:.1}", us(row.q.p95)),
            format!("{:.1}", us(row.q.p99)),
            format!("{:.1}", us(row.q.p999)),
        ]);
    }
    println!("{table}");
    println!(
        "sampled spans: {spans}   slow requests (>5 ms): {slow}   \
         late-start fraction: {:.4}",
        report.late_fraction
    );
    println!(
        "cross-check: server p95 {:.1} us <= client p95 {:.1} us (server-side time \
         is a component of the client's round trip)",
        us(server_all.p95),
        us(client_all.p95)
    );
    println!(
        "overhead: metrics off {rps_off:.0} rps, on {rps_on:.0} rps (medians of {pairs} \
         pairs) -> median {:.1}% cost",
        overhead * 100.0
    );

    if std::env::var("DENSEKV_OBS_GATE").is_ok_and(|v| v != "0") {
        let tolerance: f64 = std::env::var("DENSEKV_OBS_TOLERANCE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.20);
        if overhead > tolerance {
            eprintln!(
                "[serve_obs] GATE FAILED: metrics overhead {:.1}% exceeds {:.0}% tolerance",
                overhead * 100.0,
                tolerance * 100.0
            );
            std::process::exit(1);
        }
        eprintln!(
            "[serve_obs] gate passed: {:.1}% overhead within {:.0}% tolerance",
            overhead * 100.0,
            tolerance * 100.0
        );
    }
}
