//! A true-LRU set-associative cache simulator.
//!
//! Small and exact: tags are stored per set in recency order, so hit/miss
//! behaviour (including conflict and capacity misses) is simulated rather
//! than assumed. The request-level model runs every instruction-fetch and
//! kernel-structure reference through instances of this type.

use densekv_sim::Duration;

/// Geometry and access latency of one cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (64 throughout the workspace).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Hit latency.
    pub latency: Duration,
}

impl CacheConfig {
    /// A 32 KB, 4-way L1 with a 1 ns hit (folded into core IPC for L1
    /// hits; the latency matters when a lower level returns through it).
    pub fn l1_32k() -> Self {
        CacheConfig {
            size_bytes: 32 << 10,
            line_bytes: 64,
            ways: 4,
            latency: Duration::from_nanos(1),
        }
    }

    /// The paper's 2 MB, 16-way L2 with a 15 ns hit.
    pub fn l2_2m() -> Self {
        CacheConfig {
            size_bytes: 2 << 20,
            line_bytes: 64,
            ways: 16,
            latency: Duration::from_nanos(15),
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size_bytes / self.line_bytes / self.ways as u64
    }

    /// Number of lines the cache can hold.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Addresses are **line indices** (byte address ÷ 64), matching the rest
/// of the workspace.
///
/// # Examples
///
/// ```
/// use densekv_cpu::cache::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::l1_32k());
/// assert!(!c.access(7));  // cold miss
/// assert!(c.access(7));   // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    ways: usize,
    /// Flat tag storage: `ways` slots per set, each set's segment
    /// ordered most-recently-used first with [`EMPTY`] filling the
    /// unoccupied tail. One contiguous `u32` allocation (a 2 MB L2 is
    /// 128 KB of tags) instead of a `Vec` per set, so the simulator's
    /// per-reference walk stays in a few host cache lines.
    tags: Vec<u32>,
    /// Set-index mask when the set count is a power of two (the common
    /// case for every geometry in the workspace); `None` falls back to
    /// `%`/`/` for odd set counts.
    pow2: Option<Pow2Index>,
    hits: u64,
    misses: u64,
}

/// Sentinel marking an unoccupied way. Real tags must stay below this,
/// which [`Cache::access`] asserts — with 64 B lines and ≥128 sets that
/// only excludes devices beyond ~2^45 bytes, far past anything modeled.
const EMPTY: u32 = u32::MAX;

/// Precomputed mask/shift replacing the per-reference `%`/`/` pair when
/// the set count is a power of two.
#[derive(Debug, Clone, Copy)]
struct Pow2Index {
    mask: u64,
    shift: u32,
}

impl Cache {
    /// Creates an empty (cold) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or ways).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets > 0 && config.ways > 0, "degenerate cache geometry");
        let pow2 = sets.is_power_of_two().then(|| Pow2Index {
            mask: sets - 1,
            shift: sets.trailing_zeros(),
        });
        Cache {
            ways: config.ways as usize,
            tags: vec![EMPTY; (sets * u64::from(config.ways)) as usize],
            pow2,
            hits: 0,
            misses: 0,
            config,
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Looks up `line_addr`, updating LRU state and filling on miss.
    /// Returns `true` on a hit.
    ///
    /// # Panics
    ///
    /// Panics if the line's tag reaches the `EMPTY` sentinel — a
    /// device beyond the modeled address range.
    pub fn access(&mut self, line_addr: u64) -> bool {
        let (set_idx, tag) = match self.pow2 {
            Some(p) => ((line_addr & p.mask) as usize, line_addr >> p.shift),
            None => {
                let nsets = (self.tags.len() / self.ways) as u64;
                ((line_addr % nsets) as usize, line_addr / nsets)
            }
        };
        assert!(tag < u64::from(EMPTY), "line address out of modeled range");
        let tag = tag as u32;
        // The 4-way L1I walked by every simulated instruction fetch gets
        // a fixed-length set, whose update the compiler unrolls; other
        // associativities walk a slice.
        let at = set_idx * self.ways;
        let hit = match self.ways {
            4 => touch_set(
                <&mut [u32; 4]>::try_from(&mut self.tags[at..at + 4]).expect("4-way set"),
                tag,
            ),
            ways => touch_set(&mut self.tags[at..at + ways], tag),
        };
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit fraction; 0 when no accesses have happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Clears hit/miss counters (contents stay warm).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Credits hit/miss counters without touching contents — how the
    /// phase engine's resident-L2 shortcut accounts lookups whose outcome
    /// (a hit that cannot change any eviction) is known without a walk.
    pub fn credit(&mut self, hits: u64, misses: u64) {
        self.hits += hits;
        self.misses += misses;
    }

    /// Evicts everything and clears counters.
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
        self.reset_counters();
    }
}

/// Looks `tag` up in one set (ordered most-recently-used first) and
/// moves it to the front, filling on a miss; returns `true` on a hit.
#[inline(always)]
fn touch_set(set: &mut [u32], tag: u32) -> bool {
    // Fast path: re-referencing the MRU way needs no recency shuffle.
    if set[0] == tag {
        return true;
    }
    // One pass: carry the new tag in at MRU and swap each way down one
    // slot until the carried tag is the one looked up (a hit: it lands
    // back in the slot it was found in, already moved to MRU). Reaching
    // the end drops the carried tag — the true LRU tag when the set was
    // full, a sentinel otherwise; carrying a sentinel early means the
    // rest of the tail is sentinels too.
    let mut carry = std::mem::replace(&mut set[0], tag);
    for slot in &mut set[1..] {
        carry = std::mem::replace(slot, carry);
        if carry == tag {
            return true;
        }
        if carry == EMPTY {
            break;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: u32, sets: u64) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 64 * ways as u64 * sets,
            line_bytes: 64,
            ways,
            latency: Duration::from_nanos(1),
        })
    }

    #[test]
    fn geometry_math() {
        let c = CacheConfig::l2_2m();
        assert_eq!(c.sets(), 2048);
        assert_eq!(c.lines(), 32_768);
        assert_eq!(CacheConfig::l1_32k().sets(), 128);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny(2, 4);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hit_rate(), 0.5);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set, 2 ways: lines 0 and 4 conflict-free (same set for all in
        // a 1-set cache).
        let mut c = tiny(2, 1);
        c.access(0);
        c.access(1);
        c.access(0); // 0 is MRU, 1 is LRU
        c.access(2); // evicts 1
        assert!(c.access(0), "0 must survive");
        assert!(!c.access(1), "1 was evicted");
    }

    #[test]
    fn set_indexing_isolates_sets() {
        let mut c = tiny(1, 2); // 2 sets, direct-mapped
        c.access(0); // set 0
        c.access(1); // set 1
        assert!(c.access(0));
        assert!(c.access(1));
        c.access(2); // set 0, evicts 0
        assert!(!c.access(0));
        assert!(c.access(1), "set 1 untouched");
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut c = Cache::new(CacheConfig::l1_32k()); // 512 lines
        for pass in 0..3 {
            for line in 0..512u64 {
                let hit = c.access(line);
                if pass > 0 {
                    assert!(hit, "pass {pass} line {line} should hit");
                }
            }
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = Cache::new(CacheConfig::l1_32k()); // 512 lines
                                                       // Cyclic sweep of 2x capacity with true LRU: every access misses.
        for _ in 0..3 {
            for line in 0..1024u64 {
                c.access(line);
            }
        }
        assert_eq!(c.hits(), 0);
    }

    /// A naive true-LRU model with the original `%`/`/` indexing and no
    /// MRU fast path — the behavior contract the optimized `access`
    /// must reproduce bit for bit.
    struct NaiveLru {
        sets: Vec<Vec<u64>>,
        ways: usize,
    }

    impl NaiveLru {
        fn new(config: &CacheConfig) -> Self {
            NaiveLru {
                sets: vec![Vec::new(); config.sets() as usize],
                ways: config.ways as usize,
            }
        }

        fn access(&mut self, line_addr: u64) -> bool {
            let nsets = self.sets.len() as u64;
            let set = &mut self.sets[(line_addr % nsets) as usize];
            let tag = line_addr / nsets;
            if let Some(pos) = set.iter().position(|&t| t == tag) {
                let t = set.remove(pos);
                set.insert(0, t);
                true
            } else {
                if set.len() == self.ways {
                    set.pop();
                }
                set.insert(0, tag);
                false
            }
        }
    }

    #[test]
    fn optimized_access_matches_naive_model_on_recorded_stream() {
        // A recorded reference stream with the access patterns the phase
        // engine generates: sequential instruction fetches, strided value
        // copies, repeated kernel-structure lines (MRU re-references),
        // and pseudo-random store lookups forcing conflicts/evictions.
        let mut stream = Vec::new();
        let mut state = 0x5EEDu64;
        for i in 0..6000u64 {
            stream.push(i % 640); // sequential with wrap
            stream.push(1000 + (i * 8) % 4096); // strided
            stream.push(7); // hot kernel line (MRU fast path)
            stream.push(7); // immediate re-reference
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            stream.push(state % 100_000); // random conflict pressure
        }
        for config in [
            CacheConfig::l1_32k(),
            CacheConfig::l2_2m(),
            // Tiny geometry to force constant eviction.
            CacheConfig {
                size_bytes: 64 * 2 * 4,
                line_bytes: 64,
                ways: 2,
                latency: Duration::from_nanos(1),
            },
        ] {
            let mut optimized = Cache::new(config.clone());
            let mut naive = NaiveLru::new(&config);
            let mut hits = 0u64;
            let mut misses = 0u64;
            for &line in &stream {
                let expect = naive.access(line);
                assert_eq!(
                    optimized.access(line),
                    expect,
                    "line {line} diverged ({} sets)",
                    config.sets()
                );
                if expect {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            assert_eq!(optimized.hits(), hits);
            assert_eq!(optimized.misses(), misses);
            assert!(hits > 0 && misses > 0, "stream exercises both outcomes");
        }
    }

    proptest::proptest! {
        /// The single-pass set update against the naive model, over
        /// random geometries: 1–16 ways (the unrolled 4-way set and the
        /// slice walk), power-of-two and odd set counts,
        /// and streams dense enough to hit and sparse enough to evict.
        #[test]
        fn access_matches_naive_model_on_random_geometries(
            ways in 1u32..=16,
            sets in 1u64..=40,
            pow2 in proptest::any::<bool>(),
            span in 1u64..2_000,
            stream in proptest::collection::vec(proptest::any::<u64>(), 1..600),
        ) {
            let sets = if pow2 { sets.next_power_of_two() } else { sets };
            let config = CacheConfig {
                size_bytes: 64 * u64::from(ways) * sets,
                line_bytes: 64,
                ways,
                latency: Duration::from_nanos(1),
            };
            let mut optimized = Cache::new(config.clone());
            let mut naive = NaiveLru::new(&config);
            for &raw in &stream {
                let line = raw % span;
                proptest::prop_assert_eq!(
                    optimized.access(line),
                    naive.access(line),
                    "line {} ({} ways, {} sets)",
                    line,
                    ways,
                    sets
                );
            }
            let (hits, misses) = (optimized.hits(), optimized.misses());
            proptest::prop_assert_eq!(hits + misses, stream.len() as u64);
        }
    }

    #[test]
    fn non_power_of_two_sets_fall_back() {
        // 3 sets: the mask/shift path must not engage, and behavior
        // still matches the naive model.
        let config = CacheConfig {
            size_bytes: 64 * 2 * 3,
            line_bytes: 64,
            ways: 2,
            latency: Duration::from_nanos(1),
        };
        assert_eq!(config.sets(), 3);
        let mut optimized = Cache::new(config.clone());
        let mut naive = NaiveLru::new(&config);
        for line in (0..500u64).chain((0..500).map(|i| i * 7 % 64)) {
            assert_eq!(optimized.access(line), naive.access(line), "line {line}");
        }
    }

    #[test]
    fn flush_and_reset() {
        let mut c = tiny(2, 2);
        c.access(0);
        c.access(0);
        c.reset_counters();
        assert_eq!((c.hits(), c.misses()), (0, 0));
        assert!(c.access(0), "contents survive counter reset");
        c.flush();
        assert!(!c.access(0), "flush evicts contents");
    }
}
