//! Machine-readable hot-path benchmark report.
//!
//! Times the hot paths of [`densekv_bench::hotpaths`] (best of repeated
//! timed batches), then times a quick evaluation grid — the work
//! `all-experiments` fans out — at `--jobs 1` versus the detected worker
//! count, and writes everything to `results/BENCH_hotpaths.json`,
//! stamped with the host's cores, CPU model, rustc version and commit.
//! Numbers are whatever the host actually measured; on a single-core
//! machine the grid speedup will be ~1.0x.

use std::hint::black_box;
use std::time::Instant;

use densekv::experiments::evaluation;
use densekv::sweep::SweepEffort;
use densekv_bench::hotpaths::{self, HostStamp};
use densekv_par::Jobs;

fn main() {
    let jobs = densekv_bench::jobs();
    eprintln!("[densekv-bench] timing hot paths (this takes a minute)...");
    let rows = hotpaths::measure();

    // The grid all-experiments fans out, at quick effort: serial versus
    // the requested/detected worker count.
    let time_grid = |jobs: Jobs| {
        let start = Instant::now();
        black_box(evaluation::evaluate_a7(SweepEffort::quick(), jobs));
        start.elapsed().as_secs_f64() * 1e3
    };
    let grid_serial_ms = time_grid(Jobs::SERIAL);
    let grid_par_ms = time_grid(jobs);

    let paths: Vec<String> = rows
        .iter()
        .map(|(name, ns)| format!("    \"{name}\": {ns:.1}"))
        .collect();
    let json = format!(
        "{{\n  \"generated_by\": \"bench_report\",\n  \"host\": {host},\n  \
         \"hot_paths_ns_per_op\": {{\n{paths}\n  }},\n  \
         \"quick_grid\": {{\n    \"jobs_1_ms\": {grid_serial_ms:.1},\n    \
         \"jobs_n_ms\": {grid_par_ms:.1},\n    \"jobs\": {n},\n    \
         \"speedup\": {speedup:.2}\n  }}\n}}\n",
        host = HostStamp::detect().to_json(),
        paths = paths.join(",\n"),
        n = jobs.get(),
        speedup = grid_serial_ms / grid_par_ms.max(f64::MIN_POSITIVE),
    );
    densekv_bench::emit_raw("BENCH_hotpaths.json", &json);
    print!("{json}");
}
