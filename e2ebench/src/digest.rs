//! Digests of simulated statistics, and the digests recorded for the
//! shipped seeds.
//!
//! Every simulated point folds its statistics (RTT sums, cache, store
//! and device counters, the cluster's latency distribution) into one
//! FNV-1a digest. A run checks each point's digest against
//! `digests.txt` when the seed is recorded there, and against the first
//! pass of the same run otherwise; a traced pass must match too.

/// FNV-1a over the little-endian bytes of the values fed to it.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value in.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds a float in by its bit pattern.
    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digests recorded with this benchmark, one `workload seed point hex`
/// line each. Seed 1 is the tuning seed, seed 2 is held out.
const RECORDED: &str = include_str!("../digests.txt");

/// The recorded digest of `point` of `workload` at `seed`, if any.
fn recorded(workload: &str, seed: u64, point: &str) -> Option<u64> {
    recorded_in(RECORDED, workload, seed, point)
}

/// Whether `seed` has recorded digests for `workload`.
fn seed_is_recorded(workload: &str, seed: u64) -> bool {
    parse(RECORDED).any(|(w, s, _, _)| w == workload && s == seed)
}

fn parse(table: &str) -> impl Iterator<Item = (&str, u64, &str, u64)> {
    table.lines().filter_map(|line| {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let mut fields = line.split_whitespace();
        let workload = fields.next()?;
        let seed = fields.next()?.parse().ok()?;
        let point = fields.next()?;
        let digest = u64::from_str_radix(fields.next()?, 16).ok()?;
        Some((workload, seed, point, digest))
    })
}

fn recorded_in(table: &str, workload: &str, seed: u64, point: &str) -> Option<u64> {
    parse(table)
        .find(|&(w, s, p, _)| w == workload && s == seed && p == point)
        .map(|(_, _, _, d)| d)
}

/// Checks the digest of one point: against the recorded table when the
/// seed is recorded, otherwise against `reference` (the first pass of
/// this run), which it becomes when unset.
pub fn check(
    workload: &str,
    seed: u64,
    point: &str,
    digest: u64,
    reference: &mut Option<u64>,
) -> bool {
    let expected = if seed_is_recorded(workload, seed) {
        recorded(workload, seed, point)
    } else {
        Some(*reference.get_or_insert(digest))
    };
    expected == Some(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_every_value_and_its_order() {
        let d = |xs: &[u64]| {
            xs.iter()
                .fold(Digest::default(), |mut d, &x| *d.u64(x))
                .finish()
        };
        assert_eq!(d(&[1, 2]), d(&[1, 2]));
        assert_ne!(d(&[1, 2]), d(&[2, 1]));
        assert_ne!(d(&[1, 2]), d(&[1, 3]));
    }

    #[test]
    fn table_lookup() {
        let table = "# comment\nsim_sweep 1 mercury-a7/64 00000000000000ff\n";
        assert_eq!(
            recorded_in(table, "sim_sweep", 1, "mercury-a7/64"),
            Some(255)
        );
        assert_eq!(recorded_in(table, "sim_sweep", 2, "mercury-a7/64"), None);
        assert_eq!(recorded_in(table, "sim_cluster", 1, "mercury-a7/64"), None);
    }

    #[test]
    fn shipped_seeds_are_recorded_for_both_simulated_workloads() {
        for workload in ["sim_sweep", "sim_cluster"] {
            for seed in [1, 2] {
                assert!(seed_is_recorded(workload, seed), "{workload} seed {seed}");
            }
        }
    }

    #[test]
    fn unrecorded_seed_checks_against_the_first_pass() {
        let mut reference = None;
        assert!(check("sim_sweep", 987_654, "p", 7, &mut reference));
        assert!(check("sim_sweep", 987_654, "p", 7, &mut reference));
        assert!(!check("sim_sweep", 987_654, "p", 8, &mut reference));
    }
}
