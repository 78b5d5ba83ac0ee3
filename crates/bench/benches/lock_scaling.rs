//! The lock-contention ablation (paper §3.6 / Table 4 baselines): real
//! host threads driving the real store under the three locking
//! architectures. Prints a scaling curve and benchmarks single-op cost.

use std::time::Duration as StdDuration;

use std::time::Duration as StdBenchDuration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use densekv_baseline::host::{host_cores, measure, scaling_curve, Variant};

fn bench_lock_scaling(c: &mut Criterion) {
    let cores = host_cores();

    // Print the full scaling curve once (the Table 4 ordering).
    eprintln!("[lock_scaling] host has {cores} cores");
    for variant in Variant::ALL {
        let curve: Vec<String> = scaling_curve(&[1, 2, 4, 8, 16], |t| {
            measure(variant, t, StdDuration::from_millis(400))
        })
        .iter()
        .map(|p| format!("{}T={:.0}K", p.threads, p.ops_per_sec / 1000.0))
        .collect();
        eprintln!(
            "[lock_scaling] {:<28} {}",
            variant.label(),
            curve.join("  ")
        );
    }

    // Criterion-tracked: throughput at the host's natural width.
    let threads = cores.min(8);
    let mut group = c.benchmark_group("lock_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(1));
    for variant in Variant::ALL {
        group.bench_function(format!("{:?}/{threads}T", variant), |b| {
            b.iter_custom(|iters| {
                // Scale measurement time with requested iterations, within
                // sane bounds.
                let ms = (iters / 50).clamp(100, 800);
                let ops_per_sec = measure(variant, threads, StdDuration::from_millis(ms));
                // Report time-per-op equivalent for the iteration count.
                StdDuration::from_secs_f64(iters as f64 / ops_per_sec)
            })
        });
    }
    group.finish();
}

/// Short measurement windows: the suite has ~60 benchmarks and some
/// iterate whole simulations, so the default 3 s + 5 s windows would
/// take the better part of an hour.
fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(StdBenchDuration::from_secs(1))
        .measurement_time(StdBenchDuration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_lock_scaling
}
criterion_main!(benches);
