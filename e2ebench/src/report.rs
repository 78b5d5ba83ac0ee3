//! Metric names, the result of one run, and its printing.
//!
//! The last line a run prints is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Untraced runs carry
//! every [`END_TO_END`] metric, traced runs every [`PER_LAYER`] metric.
//! Everything printed before that line is for people: provenance,
//! digests, sample counts and `error_frac`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::Args;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.execute_ns_p50", "ns"),
    ("core.execute_ns_p99", "ns"),
    ("core.preload_ms", "ms"),
    ("cpu.cache_accesses_per_req", "count"),
    ("cpu.l1d_miss_ratio", "ratio"),
    ("cpu.l2_miss_ratio", "ratio"),
    ("cpu.ns_per_cache_access", "ns"),
    ("mem.device_bytes_per_req", "B"),
    ("hybrid.tier_hit_ratio", "ratio"),
    ("net.wire_bytes_per_req", "B"),
    ("kv.store_ns_per_op", "ns"),
    ("kv.parse_ns", "ns"),
    ("par.busy_frac", "ratio"),
    ("par.task_ms_max", "ms"),
    ("sim.events_per_req", "count"),
    ("sim.peak_backlog", "count"),
    ("cluster.ns_per_event", "ns"),
    ("cluster.calibrate_ms", "ms"),
    ("dht.lookup_ns", "ns"),
    ("serve.dispatch_ns", "ns"),
    ("serve.server_us", "us"),
    ("serve.lock_wait_us", "us"),
    ("serve.lock_hold_us", "us"),
    ("serve.contended_frac", "ratio"),
    ("engine.set_ns", "ns"),
    ("engine.get_ns", "ns"),
    ("engine.evictions_per_set", "ratio"),
    ("engine.tier_fill_pct", "%"),
    ("client.send_us", "us"),
    ("client.wait_us", "us"),
    ("client.parse_us", "us"),
    ("kernel.remainder_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (simulated or live requests).
    pub attempted: u64,
    /// Operations that failed or returned wrong results.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Failed over attempted operations.
    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: every metric of `set`, in its order. A metric
    /// the run did not record reads 0 (a layer it never called); a
    /// value that is not finite is a bug of the run and counts as a
    /// failure.
    pub fn result_json(&self, set: &[(&str, &str)]) -> String {
        let mut failed = self.failed;
        let mut metrics = String::new();
        for (i, (name, unit)) in set.iter().enumerate() {
            let mut value = self.values.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                failed += 1;
                value = 0.0;
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            failed == 0,
            self.attempted.max(1),
            failed
        )
    }
}

/// Runs `pass` for the run's seconds, and at least twice. A traced run
/// alternates untraced and traced passes (at least two of each), so the
/// two see the same host conditions. Returns `(untraced, traced)`.
pub fn passes<P>(args: &Args, mut pass: impl FnMut(bool) -> P) -> (Vec<P>, Vec<P>) {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() < 2 || (args.trace && traced.len() < 2) || Instant::now() < deadline {
        let trace_this = args.trace && traced.len() < plain.len();
        let p = pass(trace_this);
        release_freed_memory();
        if trace_this {
            traced.push(p);
        } else {
            plain.push(p);
        }
    }
    (plain, traced)
}

/// Sets `par.busy_frac` (summed task time over jobs × wall time) and
/// `par.task_ms_max` (the slowest task), medians over passes given as
/// `(wall, task times)`.
pub fn set_par_metrics(
    out: &mut Outcome,
    jobs: usize,
    passes: impl Iterator<Item = (Duration, Vec<Duration>)>,
) {
    let (mut busy, mut slowest) = (Vec::new(), Vec::new());
    for (wall, tasks) in passes {
        let total: f64 = tasks.iter().map(Duration::as_secs_f64).sum();
        busy.push(total / (jobs as f64 * wall.as_secs_f64()));
        slowest.push(
            tasks
                .iter()
                .map(|t| t.as_secs_f64() * 1e3)
                .fold(0.0, f64::max),
        );
    }
    out.set("par.busy_frac", median(&busy));
    out.set("par.task_ms_max", median(&slowest));
}

/// Exact nearest-rank quantile of sorted samples.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s
/// of which `ru_maxrss` is the first.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: std::ffi::c_int, usage: *mut Rusage) -> std::ffi::c_int;
}

/// Peak resident set of this process, MB (`ru_maxrss`); 0 where the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut usage = Rusage {
            ru_utime: [0; 2],
            ru_stime: [0; 2],
            ru_maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `usage` is a live, writable `struct rusage` of this
        // target's layout, and `RUSAGE_SELF` (0) asks for this process.
        if unsafe { getrusage(0, &mut usage) } == 0 {
            return usage.ru_maxrss as f64 / 1024.0;
        }
    }
    0.0
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// Hands the heap's free memory back to the kernel. Called between
/// repeated set-ups, passes and segments: glibc keeps memory freed in
/// the arenas of exited threads, so without it the peak resident set
/// would depend on which arenas the next threads happen to reuse.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and only walks glibc's own
    // heap state under its locks; any thread may call it at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_names_every_metric_and_counts_non_finite_values() {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        out.set("ops_per_s", 12.5);
        out.set("lat_p50_us", f64::NAN);
        let line = out.result_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1,"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert!(line.contains("\"ops_per_s\": {\"value\": 12.5,"));
    }

    #[test]
    fn quantiles_and_medians() {
        let s = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(quantile_sorted(&s, 0.5), 5);
        assert_eq!(quantile_sorted(&s, 0.99), 10);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    /// The names and units here are the ones `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_declares_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
