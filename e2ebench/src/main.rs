//! densekv end-to-end benchmark: one command over both planes.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <sim_sweep|sim_cluster|live_mget|live_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics, traced runs
//! (`--trace 1`) the per-layer ones. The last line of standard output is
//! the JSON result; see `README.md` beside this file.

mod cluster;
mod digest;
mod live;
mod report;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{peak_rss_mb, Outcome, END_TO_END, PER_LAYER};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sim_sweep", "sim_cluster", "live_mget", "live_churn"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The repository root the benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The commit checked out at the repository root, when it is a git
/// checkout.
fn commit() -> String {
    let git = repo_root().join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(git.join("HEAD")) else {
        return "none".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the sources the benchmark builds (`crates/` and this
/// package), names and bytes in path order: identifies the code under
/// test where no git metadata is present.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "txt")
            {
                files.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(Path::new(env!("CARGO_MANIFEST_DIR")), &mut files);
    files.sort();
    let mut d = digest::Digest::default();
    for file in &files {
        let name = file.strip_prefix(&root).unwrap_or(file).to_string_lossy();
        for chunk in [name.as_bytes(), &std::fs::read(file).unwrap_or_default()] {
            d.u64(chunk.len() as u64);
            for &b in chunk {
                d.u64(u64::from(b));
            }
        }
    }
    format!("{:016x} ({} files)", d.finish(), files.len())
}

/// The processor's brand string, from `cpuid`.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
            let brand: Vec<u8> = (0x8000_0002..=0x8000_0004u32)
                .flat_map(|leaf| {
                    let r = __cpuid(leaf);
                    [r.eax, r.ebx, r.ecx, r.edx]
                })
                .flat_map(u32::to_le_bytes)
                .filter(|&b| b != 0)
                .collect();
            return String::from_utf8_lossy(&brand).trim().to_owned();
        }
    }
    "unknown".into()
}

/// The provenance stamp printed with every result.
fn provenance(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "provenance: workload={} seed={} seconds={} traced={} host_cores={cores} \
         cpu=\"{}\" rustc=\"{}\" commit={} sources={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        cpu_model(),
        env!("E2EBENCH_RUSTC"),
        commit(),
        source_fingerprint(),
    )
}

fn run(args: &Args) -> Outcome {
    let mut out = match args.workload.as_str() {
        "sim_sweep" => sweep::run(args),
        "sim_cluster" => cluster::run(args),
        "live_mget" => live::run(args, live::Workload::Mget),
        "live_churn" => live::run(args, live::Workload::Churn),
        other => unreachable!("workload {other} was validated"),
    };
    if !args.trace {
        out.set("peak_rss_mb", peak_rss_mb());
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    let out = run(&args);
    for line in &out.notes {
        println!("{line}");
    }
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in set {
        let value = out.values.get(name).copied().unwrap_or(0.0);
        println!("{name:<28} {value:>16.4} {unit}");
    }
    println!(
        "error_frac {:.6} ({} failed of {} attempted)",
        out.error_frac(),
        out.failed,
        out.attempted
    );
    println!("{}", out.result_json(set));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload live_mget --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("live_mget", 7, 3, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload sim_sweep --trace 2").is_err());
        assert!(args("--seed 1").is_err());
    }
}
