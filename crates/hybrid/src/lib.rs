//! Helios: a hybrid memory stack with a DRAM tier caching flash pages.
//!
//! The paper frames Mercury (3D DRAM: fast, 4 GB) and Iridium (p-BiCS
//! NAND: dense at 19.8 GB, but 10–20 µs reads) as an either/or. Helios
//! is the unexplored point between them: a thin slice of the Mercury
//! DRAM stack (64 MB–1 GB) bonded above the full Iridium flash array,
//! acting as a page-granular cache. The hot set is served at DRAM
//! latency; the cold tail spills to flash, and a miss amortizes one page
//! fetch over all 128 lines of the page instead of paying a flash read
//! per line the way Iridium does.
//!
//! [`HybridMemory`] implements [`MemoryTiming`], so it drops into the
//! CPU phase engine unchanged. The tier is configurable in capacity,
//! organization (set-associative or object-granular LRU), and admission
//! policy, and its hit rate falls out of the simulated reference stream
//! — there is no hit-rate dial. Dirty pages are written back through an
//! FTL-aware write buffer that coalesces repeat programs of the same
//! logical page, so garbage-collection pressure shows up on the
//! [`Ftl`]'s lifetime counters exactly as host PUT traffic does.
//!
//! Two degenerate limits anchor the model (and are pinned by property
//! tests): a 0-byte tier reproduces Iridium's timing bit-identically,
//! and a tier larger than the working set serves every re-reference at
//! Mercury's exact line latency.
//!
//! Per-tier byte accounting ([`HybridMemory::dram_bytes`] /
//! [`HybridMemory::flash_bytes`]) lets the power model price the two
//! tiers at their separate Table-1 rates: DRAM 210 mW/(GB/s), flash
//! 6 mW/(GB/s).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use densekv_mem::flash::FlashConfig;
use densekv_mem::ftl::Ftl;
use densekv_mem::{AccessKind, MemoryTiming, LINE_BYTES};
use densekv_sim::Duration;

/// How the DRAM tier maps flash pages onto its frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierOrganization {
    /// Classic set-associative cache of flash pages: `ways` frames per
    /// set, LRU within the set. Conflict misses are possible below full
    /// occupancy, as in a real tag-limited DRAM cache.
    SetAssociative {
        /// Frames per set (must be ≥ 1).
        ways: u32,
    },
    /// Fully-associative, object-granular LRU over whole pages — the
    /// software-managed organization a KV cache would run, with a global
    /// recency order and no conflict misses.
    ObjectLru,
}

/// When a missing page is admitted into the DRAM tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Every miss installs the page (classic cache fill).
    Always,
    /// A page is installed only on its second touch within a sliding
    /// window of recent miss lpns — filters single-use streams out of
    /// the tier so scans cannot flush the hot set.
    SecondTouch {
        /// Number of recent miss lpns remembered.
        window: u32,
    },
}

/// Geometry, timing, and policy of a Helios hybrid stack.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridConfig {
    /// DRAM tier capacity in bytes (0 disables the tier: pure Iridium).
    pub dram_tier_bytes: u64,
    /// Page-frame organization of the tier.
    pub organization: TierOrganization,
    /// Admission policy for missing pages.
    pub admission: AdmissionPolicy,
    /// Independent DRAM ports bonded to the logic die (Mercury: 16).
    pub dram_ports: u32,
    /// DRAM array access latency (Mercury's closed-page 10 ns).
    pub dram_hit_latency: Duration,
    /// Sustained bandwidth per DRAM port, GB/s (Mercury: 6.25).
    pub dram_port_bandwidth_gbps: f64,
    /// DRAM active power per GB/s, milliwatts (Table 1: 210).
    pub dram_active_mw_per_gbps: f64,
    /// Dirty pages buffered before the write buffer flushes to the FTL.
    pub writeback_pages: u32,
    /// The flash array behind the tier (Iridium geometry).
    pub flash: FlashConfig,
    /// FTL over-provisioning fraction.
    pub overprovision: f64,
}

impl HybridConfig {
    /// The Helios design point: a `dram_tier_bytes` slice of Mercury's
    /// Tezzaron DRAM (16 ports, 6.25 GB/s each, 10 ns closed-page) over
    /// the full Iridium flash array at the given read latency.
    pub fn helios(dram_tier_bytes: u64, flash_read_latency: Duration) -> Self {
        HybridConfig {
            dram_tier_bytes,
            organization: TierOrganization::ObjectLru,
            admission: AdmissionPolicy::Always,
            dram_ports: 16,
            dram_hit_latency: Duration::from_nanos(10),
            dram_port_bandwidth_gbps: 6.25,
            dram_active_mw_per_gbps: 210.0,
            writeback_pages: 16,
            flash: FlashConfig::iridium(flash_read_latency),
            overprovision: 1.0 / 16.0,
        }
    }

    /// Number of whole flash pages the DRAM tier can hold.
    #[must_use]
    pub fn capacity_pages(&self) -> u64 {
        self.dram_tier_bytes / self.flash.page_bytes
    }

    /// Time to move one 64 B line over a DRAM port.
    #[must_use]
    pub fn dram_line_transfer(&self) -> Duration {
        Duration::from_nanos_f64(LINE_BYTES as f64 / self.dram_port_bandwidth_gbps)
    }

    /// Latency of a tier hit: array access plus one line transfer —
    /// identical to Mercury's closed-page `line_access`.
    #[must_use]
    pub fn dram_line_latency(&self) -> Duration {
        self.dram_hit_latency + self.dram_line_transfer()
    }

    /// Time to stream one whole flash page over a DRAM port.
    #[must_use]
    pub fn dram_page_latency(&self) -> Duration {
        self.dram_hit_latency
            + Duration::from_nanos_f64(self.flash.page_bytes as f64 / self.dram_port_bandwidth_gbps)
    }
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig::helios(256 << 20, Duration::from_micros(10))
    }
}

/// A point-in-time copy of the tier's counters, for telemetry gauges
/// and experiment reporting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TierSnapshot {
    /// Line accesses served from the DRAM tier.
    pub hits: u64,
    /// Line accesses that missed the tier.
    pub misses: u64,
    /// Bytes moved through the DRAM tier (hits, fills, dirty read-outs).
    pub dram_bytes: u64,
    /// Bytes moved through the flash array (fills, misses, programs).
    pub flash_bytes: u64,
    /// Pages currently resident in the tier.
    pub resident_pages: u64,
    /// Total page frames in the tier.
    pub capacity_pages: u64,
    /// Dirty pages actually programmed through the FTL.
    pub writebacks_flushed: u64,
    /// Programs saved by write-buffer coalescing (same lpn re-dirtied
    /// before the buffer flushed).
    pub programs_coalesced: u64,
    /// FTL lifetime host page writes.
    pub host_writes: u64,
    /// FTL lifetime device page programs (host + GC relocations).
    pub device_programs: u64,
    /// FTL lifetime GC page relocations.
    pub gc_moved_pages: u64,
    /// FTL lifetime block erases.
    pub gc_erased_blocks: u64,
}

impl TierSnapshot {
    /// Fraction of line accesses served from DRAM (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident page frame.
#[derive(Debug, Clone, Copy)]
struct Frame {
    lpn: u64,
    dirty: bool,
}

/// The DRAM tier's frame directory, in either organization.
#[derive(Debug, Clone)]
enum Frames {
    SetAssociative {
        /// Per-set frames, most-recently-used first.
        sets: Vec<Vec<Frame>>,
        ways: usize,
    },
    ObjectLru {
        /// lpn -> (recency tick, dirty).
        entries: HashMap<u64, (u64, bool)>,
        /// recency tick -> lpn, oldest first.
        order: BTreeMap<u64, u64>,
        tick: u64,
        /// The most recently used lpn. Re-touching it leaves the
        /// recency order unchanged, so its tick need not move: only the
        /// relative order of ticks is ever observed (by eviction).
        mru: Option<u64>,
    },
}

#[derive(Debug, Clone)]
struct DramTier {
    frames: Frames,
    capacity_pages: u64,
    resident: u64,
}

impl DramTier {
    fn new(config: &HybridConfig) -> Self {
        let capacity = config.capacity_pages();
        let frames = match config.organization {
            TierOrganization::SetAssociative { ways } => {
                let ways = ways.max(1) as usize;
                let sets = ((capacity / ways as u64).max(1)) as usize;
                Frames::SetAssociative {
                    sets: vec![Vec::new(); sets],
                    ways,
                }
            }
            TierOrganization::ObjectLru => Frames::ObjectLru {
                entries: HashMap::new(),
                order: BTreeMap::new(),
                tick: 0,
                mru: None,
            },
        };
        DramTier {
            frames,
            capacity_pages: capacity,
            resident: 0,
        }
    }

    /// Looks up `lpn`; on a hit updates recency (and dirtiness if
    /// `dirty`) and returns true.
    fn touch(&mut self, lpn: u64, dirty: bool) -> bool {
        if self.capacity_pages == 0 {
            return false;
        }
        match &mut self.frames {
            Frames::SetAssociative { sets, .. } => {
                let nsets = sets.len() as u64;
                let set = &mut sets[(lpn % nsets) as usize];
                match set.iter().position(|f| f.lpn == lpn) {
                    Some(pos) => {
                        let mut frame = set.remove(pos);
                        frame.dirty |= dirty;
                        set.insert(0, frame);
                        true
                    }
                    None => false,
                }
            }
            Frames::ObjectLru {
                entries,
                order,
                tick,
                mru,
            } => {
                if *mru == Some(lpn) {
                    // Already the newest: no re-tick, and a clean read
                    // changes nothing at all.
                    if dirty {
                        entries.get_mut(&lpn).expect("the MRU lpn is resident").1 = true;
                    }
                    return true;
                }
                match entries.get_mut(&lpn) {
                    Some((at, d)) => {
                        order.remove(at);
                        *tick += 1;
                        *at = *tick;
                        *d |= dirty;
                        order.insert(*tick, lpn);
                        *mru = Some(lpn);
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// Installs `lpn` (caller guarantees it is absent), evicting the LRU
    /// frame of its set (or of the whole tier) if full. Returns the
    /// evicted frame, if any.
    fn install(&mut self, lpn: u64, dirty: bool) -> Option<Frame> {
        debug_assert!(self.capacity_pages > 0);
        let evicted = match &mut self.frames {
            Frames::SetAssociative { sets, ways } => {
                let nsets = sets.len() as u64;
                let set = &mut sets[(lpn % nsets) as usize];
                let evicted = if set.len() == *ways { set.pop() } else { None };
                set.insert(0, Frame { lpn, dirty });
                evicted
            }
            Frames::ObjectLru {
                entries,
                order,
                tick,
                mru,
            } => {
                let evicted = if entries.len() as u64 == self.capacity_pages {
                    let (_, victim) = order.pop_first().expect("tier is non-empty");
                    let (_, d) = entries.remove(&victim).expect("ordered lpn is resident");
                    Some(Frame {
                        lpn: victim,
                        dirty: d,
                    })
                } else {
                    None
                };
                *tick += 1;
                entries.insert(lpn, (*tick, dirty));
                order.insert(*tick, lpn);
                *mru = Some(lpn);
                evicted
            }
        };
        self.resident += 1 - u64::from(evicted.is_some());
        evicted
    }
}

/// A Helios hybrid memory: a DRAM page-cache tier over an FTL-managed
/// flash array, presenting [`MemoryTiming`] to the core model.
///
/// # Examples
///
/// ```
/// use densekv_hybrid::{HybridConfig, HybridMemory};
/// use densekv_mem::{AccessKind, MemoryTiming};
/// use densekv_sim::Duration;
///
/// let config = HybridConfig::helios(64 << 20, Duration::from_micros(10));
/// let mut mem = HybridMemory::new(config);
/// let miss = mem.line_access(0, AccessKind::Read); // page fill from flash
/// let hit = mem.line_access(1, AccessKind::Read); // same page: DRAM
/// assert!(hit < miss);
/// assert_eq!(hit, Duration::from_ps(20_240)); // Mercury's line latency
/// ```
#[derive(Debug, Clone)]
pub struct HybridMemory {
    config: HybridConfig,
    ftl: Ftl,
    tier: DramTier,
    /// 64 B lines per flash page.
    lines_per_page: u64,
    /// [`HybridConfig::dram_line_latency`], computed once.
    dram_line_latency: Duration,
    /// [`HybridConfig::dram_page_latency`], computed once.
    dram_page_latency: Duration,
    /// Dirty lpns awaiting flush, in eviction order.
    writeback: VecDeque<u64>,
    /// Mirror of `writeback` membership for O(1) coalescing.
    writeback_set: HashSet<u64>,
    /// Recent miss lpns for `AdmissionPolicy::SecondTouch`.
    recent_misses: VecDeque<u64>,
    recent_set: HashSet<u64>,
    hits: u64,
    misses: u64,
    dram_bytes: u64,
    writebacks_flushed: u64,
    programs_coalesced: u64,
}

impl HybridMemory {
    /// Builds the tier, the FTL, and the flash array from `config`.
    ///
    /// # Panics
    ///
    /// Panics unless the flash page is a whole number of 64 B lines.
    pub fn new(config: HybridConfig) -> Self {
        let page = config.flash.page_bytes;
        assert!(
            page >= LINE_BYTES && page.is_multiple_of(LINE_BYTES),
            "flash page of {page} B is not a whole number of lines"
        );
        let ftl = Ftl::new(config.flash.clone(), config.overprovision);
        let tier = DramTier::new(&config);
        HybridMemory {
            ftl,
            tier,
            lines_per_page: page / LINE_BYTES,
            dram_line_latency: config.dram_line_latency(),
            dram_page_latency: config.dram_page_latency(),
            writeback: VecDeque::new(),
            writeback_set: HashSet::new(),
            recent_misses: VecDeque::new(),
            recent_set: HashSet::new(),
            hits: 0,
            misses: 0,
            dram_bytes: 0,
            writebacks_flushed: 0,
            programs_coalesced: 0,
            config,
        }
    }

    /// The stack configuration.
    #[must_use]
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    /// The FTL behind the tier (lifetime GC/wear counters).
    #[must_use]
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Line accesses served from the DRAM tier.
    #[must_use]
    pub fn tier_hits(&self) -> u64 {
        self.hits
    }

    /// Line accesses that missed the DRAM tier.
    #[must_use]
    pub fn tier_misses(&self) -> u64 {
        self.misses
    }

    /// Bytes moved through the DRAM tier since the last counter reset.
    #[must_use]
    pub fn dram_bytes(&self) -> u64 {
        self.dram_bytes
    }

    /// Bytes moved through the flash array since the last counter reset.
    #[must_use]
    pub fn flash_bytes(&self) -> u64 {
        self.ftl.flash().bytes_moved()
    }

    /// Pages currently resident in the tier.
    #[must_use]
    pub fn resident_pages(&self) -> u64 {
        self.tier.resident
    }

    /// Dirty pages programmed through the FTL so far.
    #[must_use]
    pub fn writebacks_flushed(&self) -> u64 {
        self.writebacks_flushed
    }

    /// Programs saved by write-buffer coalescing so far.
    #[must_use]
    pub fn programs_coalesced(&self) -> u64 {
        self.programs_coalesced
    }

    /// Copies every counter into a [`TierSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> TierSnapshot {
        TierSnapshot {
            hits: self.hits,
            misses: self.misses,
            dram_bytes: self.dram_bytes,
            flash_bytes: self.flash_bytes(),
            resident_pages: self.tier.resident,
            capacity_pages: self.tier.capacity_pages,
            writebacks_flushed: self.writebacks_flushed,
            programs_coalesced: self.programs_coalesced,
            host_writes: self.ftl.host_writes(),
            device_programs: self.ftl.device_programs(),
            gc_moved_pages: self.ftl.gc_moved_pages(),
            gc_erased_blocks: self.ftl.gc_erased_blocks(),
        }
    }

    /// The logical flash page holding a line address (64 B units),
    /// wrapped modulo the FTL's exported capacity. A page is a whole
    /// number of lines, so dividing line units is exact (and cannot
    /// overflow the way byte units could).
    fn lpn_of_line(&self, line_addr: u64) -> u64 {
        line_addr / self.lines_per_page % self.ftl.exported_pages()
    }

    /// Consults (and updates) the admission filter for a missing page.
    fn admit(&mut self, lpn: u64) -> bool {
        match self.config.admission {
            AdmissionPolicy::Always => true,
            AdmissionPolicy::SecondTouch { window } => {
                if self.recent_set.contains(&lpn) {
                    return true;
                }
                self.recent_misses.push_back(lpn);
                self.recent_set.insert(lpn);
                while self.recent_misses.len() > window.max(1) as usize {
                    let old = self.recent_misses.pop_front().expect("non-empty");
                    self.recent_set.remove(&old);
                }
                false
            }
        }
    }

    /// Installs a page into the tier, routing any dirty victim through
    /// the write buffer. Returns the flush latency incurred (usually
    /// zero; a full buffer drains synchronously, modeling the
    /// writeback stall).
    fn install(&mut self, lpn: u64, dirty: bool) -> Duration {
        let mut latency = Duration::ZERO;
        if let Some(victim) = self.tier.install(lpn, dirty) {
            if victim.dirty {
                // Reading the page out of DRAM to stage it for flash.
                self.dram_bytes += self.config.flash.page_bytes;
                latency += self.buffer_writeback(victim.lpn);
            }
        }
        latency
    }

    /// Queues one dirty page for writeback, coalescing repeats, and
    /// flushes the buffer once it reaches capacity.
    fn buffer_writeback(&mut self, lpn: u64) -> Duration {
        if !self.writeback_set.insert(lpn) {
            self.programs_coalesced += 1;
            return Duration::ZERO;
        }
        self.writeback.push_back(lpn);
        if self.writeback.len() >= self.config.writeback_pages.max(1) as usize {
            self.drain_writeback()
        } else {
            Duration::ZERO
        }
    }

    /// Flushes every buffered dirty page through the FTL (garbage
    /// collection included), returning the summed device time.
    pub fn drain_writeback(&mut self) -> Duration {
        let mut latency = Duration::ZERO;
        while let Some(lpn) = self.writeback.pop_front() {
            self.writeback_set.remove(&lpn);
            latency += self
                .ftl
                .write(lpn)
                .expect("writeback lpns are within exported capacity")
                .latency;
            self.writebacks_flushed += 1;
        }
        latency
    }

    /// Writes the value bytes at logical byte `offset` — the bulk PUT
    /// path. With the tier disabled this is exactly
    /// [`Ftl::write_range`]; otherwise the covering pages are installed
    /// dirty at DRAM speed (a full-page overwrite needs no flash fill)
    /// and reach flash later through the write buffer.
    pub fn value_write(&mut self, offset: u64, bytes: u64) -> Duration {
        if self.tier.capacity_pages == 0 {
            return self.ftl.write_range(offset, bytes);
        }
        let page = self.config.flash.page_bytes;
        let first = offset / page;
        let last = (offset + bytes.max(1) - 1) / page;
        let mut latency = Duration::ZERO;
        for raw in first..=last {
            let lpn = raw % self.ftl.exported_pages();
            if self.tier.touch(lpn, true) {
                self.hits += 1;
            } else {
                self.misses += 1;
                latency += self.install(lpn, true);
            }
            self.dram_bytes += page;
            latency += self.dram_page_latency;
        }
        latency
    }
}

impl MemoryTiming for HybridMemory {
    fn line_access(&mut self, line_addr: u64, kind: AccessKind) -> Duration {
        if self.tier.capacity_pages == 0 {
            return self.ftl.line_access(line_addr, kind);
        }
        let lpn = self.lpn_of_line(line_addr);
        if self.tier.touch(lpn, kind == AccessKind::Write) {
            self.hits += 1;
            self.dram_bytes += LINE_BYTES;
            return self.dram_line_latency;
        }
        self.misses += 1;
        if !self.admit(lpn) {
            // Bypass: one line straight off the flash array, Iridium
            // style (the array counts the line's bytes).
            return self.ftl.line_access(line_addr, kind);
        }
        // Fill the whole page from flash (write-allocate on stores: the
        // line lands in the filled page, which becomes dirty).
        let fill = self.ftl.read_page_any(lpn);
        let stall = self.install(lpn, kind == AccessKind::Write);
        self.dram_bytes += self.config.flash.page_bytes;
        fill + stall + self.dram_line_latency
    }

    fn bytes_moved(&self) -> u64 {
        self.dram_bytes + self.ftl.flash().bytes_moved()
    }

    fn reset_counters(&mut self) {
        self.dram_bytes = 0;
        self.ftl.reset_counters();
    }

    fn active_power_w(&self, gb_per_s: f64) -> f64 {
        // Headline single-rate figure prices traffic at the DRAM rate;
        // per-tier pricing splits by dram_bytes()/flash_bytes().
        self.config.dram_active_mw_per_gbps * gb_per_s / 1000.0
    }

    fn max_overlap(&self, kind: AccessKind) -> f64 {
        // The flash array sits in the miss path, so the stack inherits
        // its one-command-in-flight model (conservative for pure-hit
        // streams).
        self.ftl.max_overlap(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densekv_mem::dram::{DramConfig, DramStack};
    use densekv_sim::SplitMix64;

    /// A small flash geometry so tests run fast and GC triggers early.
    fn tiny_flash() -> FlashConfig {
        FlashConfig {
            planes: 2,
            page_bytes: 8 << 10,
            pages_per_block: 4,
            blocks_per_plane: 16,
            read_latency: Duration::from_micros(10),
            program_latency: Duration::from_micros(200),
            erase_latency: Duration::from_millis(2),
            controller_overhead: Duration::from_micros(15),
            active_mw_per_gbps: 6.0,
        }
    }

    fn tiny_helios(dram_tier_bytes: u64) -> HybridConfig {
        HybridConfig {
            dram_tier_bytes,
            flash: tiny_flash(),
            overprovision: 0.25,
            ..HybridConfig::helios(dram_tier_bytes, Duration::from_micros(10))
        }
    }

    #[test]
    fn zero_byte_tier_is_bit_identical_to_iridium() {
        let mut hybrid = HybridMemory::new(tiny_helios(0));
        let mut ftl = Ftl::new(tiny_flash(), 0.25);
        for (addr, kind) in [
            (0u64, AccessKind::Read),
            (7, AccessKind::Write),
            (1_000_000, AccessKind::Read),
            (3, AccessKind::Write),
        ] {
            assert_eq!(hybrid.line_access(addr, kind), ftl.line_access(addr, kind));
        }
        assert_eq!(hybrid.bytes_moved(), ftl.bytes_moved());
        assert_eq!(
            hybrid.value_write(12_345, 20_000),
            ftl.write_range(12_345, 20_000)
        );
        assert_eq!(hybrid.max_overlap(AccessKind::Read), 1.0);
        assert_eq!(hybrid.resident_pages(), 0);
    }

    #[test]
    fn oversized_tier_re_references_hit_at_mercury_latency() {
        let mut hybrid = HybridMemory::new(tiny_helios(64 << 20));
        let mut mercury = DramStack::new(DramConfig::mercury(Duration::from_nanos(10)));
        let addrs = [0u64, 9, 250, 4096, 77_777];
        for &a in &addrs {
            hybrid.line_access(a, AccessKind::Read); // cold fill
        }
        for &a in &addrs {
            assert_eq!(
                hybrid.line_access(a, AccessKind::Read),
                mercury.line_access(a, AccessKind::Read),
                "re-reference of line {a} should cost exactly one Mercury access"
            );
        }
    }

    #[test]
    fn miss_amortizes_page_fill_across_lines() {
        let mut hybrid = HybridMemory::new(tiny_helios(64 << 20));
        let lines_per_page = tiny_flash().page_bytes / LINE_BYTES;
        let miss = hybrid.line_access(0, AccessKind::Read);
        let mut total = miss;
        for line in 1..lines_per_page {
            total += hybrid.line_access(line, AccessKind::Read);
        }
        // Iridium pays a full flash read per line; Helios pays one fill
        // plus DRAM hits, far cheaper over a whole page.
        let mut iridium = Ftl::new(tiny_flash(), 0.25);
        let mut iridium_total = Duration::ZERO;
        for line in 0..lines_per_page {
            iridium_total += iridium.line_access(line, AccessKind::Read);
        }
        assert!(total * 10 < iridium_total, "{total:?} vs {iridium_total:?}");
        assert_eq!(hybrid.tier_hits(), lines_per_page - 1);
        assert_eq!(hybrid.tier_misses(), 1);
    }

    #[test]
    fn per_tier_byte_accounting_separates_dram_and_flash() {
        let mut hybrid = HybridMemory::new(tiny_helios(64 << 20));
        let page = tiny_flash().page_bytes;
        hybrid.line_access(0, AccessKind::Read); // fill: page off flash, page into DRAM
        hybrid.line_access(1, AccessKind::Read); // hit: one line in DRAM
        assert_eq!(hybrid.flash_bytes(), page);
        assert_eq!(hybrid.dram_bytes(), page + LINE_BYTES);
        assert_eq!(hybrid.bytes_moved(), 2 * page + LINE_BYTES);
        hybrid.reset_counters();
        assert_eq!(hybrid.bytes_moved(), 0);
    }

    #[test]
    fn dirty_evictions_reach_flash_through_coalescing_write_buffer() {
        // One-page tier, small buffer: alternating dirty pages force
        // evictions; re-dirtying a buffered page coalesces.
        let mut config = tiny_helios(8 << 10);
        config.writeback_pages = 4;
        let page = config.flash.page_bytes;
        let mut hybrid = HybridMemory::new(config);
        assert_eq!(hybrid.config().capacity_pages(), 1);
        for i in 0..12u64 {
            hybrid.value_write((i % 2) * page, 64);
        }
        assert!(
            hybrid.programs_coalesced() > 0,
            "repeat dirty evictions coalesce"
        );
        let _ = hybrid.drain_writeback();
        assert!(hybrid.writebacks_flushed() > 0);
        let snap = hybrid.snapshot();
        assert_eq!(snap.host_writes, hybrid.writebacks_flushed());
        assert_eq!(
            snap.writebacks_flushed + snap.programs_coalesced,
            11,
            "every dirty eviction is either flushed or coalesced"
        );
    }

    #[test]
    fn gc_pressure_shows_on_lifetime_counters() {
        let mut config = tiny_helios(8 << 10);
        config.writeback_pages = 1; // flush every eviction
        let page = config.flash.page_bytes;
        let mut hybrid = HybridMemory::new(config);
        let pages = hybrid.ftl().exported_pages();
        for i in 0..2_000u64 {
            hybrid.value_write((i % pages) * page, 64);
        }
        let _ = hybrid.drain_writeback();
        let snap = hybrid.snapshot();
        assert!(
            snap.gc_erased_blocks > 0,
            "sustained writeback must trigger GC"
        );
        assert!(snap.device_programs >= snap.host_writes);
    }

    #[test]
    fn hit_rate_tracks_reference_skew() {
        // Same tier, same number of distinct pages, two streams: the
        // more skewed one must earn a higher hit rate. No dials.
        let run = |exponent: u32| {
            let mut hybrid = HybridMemory::new(tiny_helios(4 * (8 << 10)));
            let lines_per_page = tiny_flash().page_bytes / LINE_BYTES;
            let population = 64u64; // pages; tier holds 4
            let mut rng = SplitMix64::new(0x5EED);
            for _ in 0..20_000 {
                let mut u = rng.next_u64() % population;
                for _ in 0..exponent {
                    u = u.min(rng.next_u64() % population);
                }
                hybrid.line_access(u * lines_per_page, AccessKind::Read);
            }
            hybrid.snapshot().hit_rate()
        };
        let uniform = run(0);
        let skewed = run(3);
        assert!(
            skewed > 2.0 * uniform,
            "skewed {skewed:.3} should beat uniform {uniform:.3}"
        );
    }

    #[test]
    fn set_associative_organization_conflicts_below_capacity() {
        let mut config = tiny_helios(8 * (8 << 10));
        config.organization = TierOrganization::SetAssociative { ways: 2 };
        let page = config.flash.page_bytes;
        let lines_per_page = page / LINE_BYTES;
        let mut hybrid = HybridMemory::new(config);
        // Three pages mapping to the same set (stride = set count): with
        // 2 ways they thrash even though 8 frames exist.
        let sets = 4u64; // 8 pages / 2 ways
        for _ in 0..4 {
            for p in [0, sets, 2 * sets] {
                hybrid.line_access(p * lines_per_page, AccessKind::Read);
            }
        }
        assert_eq!(
            hybrid.tier_hits(),
            0,
            "2-way set thrashes on 3-way conflict"
        );
        // The LRU organization holds all three.
        let mut lru = HybridMemory::new(tiny_helios(8 * (8 << 10)));
        for _ in 0..4 {
            for p in [0, sets, 2 * sets] {
                lru.line_access(p * lines_per_page, AccessKind::Read);
            }
        }
        assert_eq!(lru.tier_misses(), 3, "LRU keeps the working set resident");
    }

    #[test]
    fn second_touch_admission_filters_single_use_streams() {
        let mut config = tiny_helios(4 * (8 << 10));
        config.admission = AdmissionPolicy::SecondTouch { window: 32 };
        let lines_per_page = config.flash.page_bytes / LINE_BYTES;
        let mut hybrid = HybridMemory::new(config);
        // A pure scan never installs anything.
        for p in 0..16u64 {
            hybrid.line_access(p * lines_per_page, AccessKind::Read);
        }
        assert_eq!(hybrid.resident_pages(), 0);
        // A second pass within the window installs.
        for p in 0..4u64 {
            hybrid.line_access(p * lines_per_page, AccessKind::Read);
        }
        assert_eq!(hybrid.resident_pages(), 4);
        // Third pass hits in DRAM.
        for p in 0..4u64 {
            hybrid.line_access(p * lines_per_page, AccessKind::Read);
        }
        assert_eq!(hybrid.tier_hits(), 4);
    }

    /// A plain object-LRU Helios tier, kept as the differential oracle
    /// for the fast one: a `HashMap` + `BTreeMap` directory that
    /// re-ticks on every touch, `u128` lpn arithmetic, and latencies
    /// recomputed from the config on every access. Only the ObjectLru
    /// organization is modeled.
    struct PlainHybrid {
        config: HybridConfig,
        ftl: Ftl,
        entries: HashMap<u64, (u64, bool)>,
        order: BTreeMap<u64, u64>,
        tick: u64,
        writeback: VecDeque<u64>,
        writeback_set: HashSet<u64>,
        recent_misses: VecDeque<u64>,
        recent_set: HashSet<u64>,
        hits: u64,
        misses: u64,
        dram_bytes: u64,
        writebacks_flushed: u64,
        programs_coalesced: u64,
    }

    impl PlainHybrid {
        fn new(config: HybridConfig) -> Self {
            PlainHybrid {
                ftl: Ftl::new(config.flash.clone(), config.overprovision),
                entries: HashMap::new(),
                order: BTreeMap::new(),
                tick: 0,
                writeback: VecDeque::new(),
                writeback_set: HashSet::new(),
                recent_misses: VecDeque::new(),
                recent_set: HashSet::new(),
                hits: 0,
                misses: 0,
                dram_bytes: 0,
                writebacks_flushed: 0,
                programs_coalesced: 0,
                config,
            }
        }

        fn touch(&mut self, lpn: u64, dirty: bool) -> bool {
            if self.config.capacity_pages() == 0 {
                return false;
            }
            match self.entries.get_mut(&lpn) {
                Some((at, d)) => {
                    self.order.remove(at);
                    self.tick += 1;
                    *at = self.tick;
                    *d |= dirty;
                    self.order.insert(self.tick, lpn);
                    true
                }
                None => false,
            }
        }

        fn install(&mut self, lpn: u64, dirty: bool) -> Duration {
            let victim = if self.entries.len() as u64 == self.config.capacity_pages() {
                let (_, victim) = self.order.pop_first().expect("tier is non-empty");
                let (_, d) = self.entries.remove(&victim).expect("ordered lpn");
                Some((victim, d))
            } else {
                None
            };
            self.tick += 1;
            self.entries.insert(lpn, (self.tick, dirty));
            self.order.insert(self.tick, lpn);
            match victim {
                Some((victim, true)) => {
                    self.dram_bytes += self.config.flash.page_bytes;
                    if !self.writeback_set.insert(victim) {
                        self.programs_coalesced += 1;
                        return Duration::ZERO;
                    }
                    self.writeback.push_back(victim);
                    if self.writeback.len() >= self.config.writeback_pages.max(1) as usize {
                        self.drain_writeback()
                    } else {
                        Duration::ZERO
                    }
                }
                _ => Duration::ZERO,
            }
        }

        fn drain_writeback(&mut self) -> Duration {
            let mut latency = Duration::ZERO;
            while let Some(lpn) = self.writeback.pop_front() {
                self.writeback_set.remove(&lpn);
                latency += self.ftl.write(lpn).expect("in range").latency;
                self.writebacks_flushed += 1;
            }
            latency
        }

        fn admit(&mut self, lpn: u64) -> bool {
            match self.config.admission {
                AdmissionPolicy::Always => true,
                AdmissionPolicy::SecondTouch { window } => {
                    if self.recent_set.contains(&lpn) {
                        return true;
                    }
                    self.recent_misses.push_back(lpn);
                    self.recent_set.insert(lpn);
                    while self.recent_misses.len() > window.max(1) as usize {
                        let old = self.recent_misses.pop_front().expect("non-empty");
                        self.recent_set.remove(&old);
                    }
                    false
                }
            }
        }

        fn line_access(&mut self, line_addr: u64, kind: AccessKind) -> Duration {
            if self.config.capacity_pages() == 0 {
                return self.ftl.line_access(line_addr, kind);
            }
            let byte = u128::from(line_addr) * u128::from(LINE_BYTES);
            let lpn = (byte / u128::from(self.config.flash.page_bytes)
                % u128::from(self.ftl.exported_pages())) as u64;
            if self.touch(lpn, kind == AccessKind::Write) {
                self.hits += 1;
                self.dram_bytes += LINE_BYTES;
                return self.config.dram_line_latency();
            }
            self.misses += 1;
            if !self.admit(lpn) {
                return self.ftl.line_access(line_addr, kind);
            }
            let fill = self.ftl.read_page_any(lpn);
            let stall = self.install(lpn, kind == AccessKind::Write);
            self.dram_bytes += self.config.flash.page_bytes;
            fill + stall + self.config.dram_line_latency()
        }

        fn value_write(&mut self, offset: u64, bytes: u64) -> Duration {
            if self.config.capacity_pages() == 0 {
                return self.ftl.write_range(offset, bytes);
            }
            let page = self.config.flash.page_bytes;
            let mut latency = Duration::ZERO;
            for raw in offset / page..=(offset + bytes.max(1) - 1) / page {
                let lpn = raw % self.ftl.exported_pages();
                if self.touch(lpn, true) {
                    self.hits += 1;
                } else {
                    self.misses += 1;
                    latency += self.install(lpn, true);
                }
                self.dram_bytes += page;
                latency += self.config.dram_page_latency();
            }
            latency
        }

        fn snapshot(&self) -> TierSnapshot {
            TierSnapshot {
                hits: self.hits,
                misses: self.misses,
                dram_bytes: self.dram_bytes,
                flash_bytes: self.ftl.flash().bytes_moved(),
                resident_pages: self.entries.len() as u64,
                capacity_pages: self.config.capacity_pages(),
                writebacks_flushed: self.writebacks_flushed,
                programs_coalesced: self.programs_coalesced,
                host_writes: self.ftl.host_writes(),
                device_programs: self.ftl.device_programs(),
                gc_moved_pages: self.ftl.gc_moved_pages(),
                gc_erased_blocks: self.ftl.gc_erased_blocks(),
            }
        }
    }

    proptest::proptest! {
        /// The MRU-skip tier, integer lpn arithmetic and precomputed
        /// latencies against the plain tier: one stream of line reads,
        /// line writes, bulk value writes and drains over a skewed page
        /// population (so the MRU page is re-touched clean and dirty,
        /// pages are evicted dirty, and lpns wrap the exported
        /// capacity), at tiers of 0 pages, 1 page, a few pages and more
        /// pages than the flash exports, under both admission policies.
        /// Every latency and the full snapshot must agree after every op.
        #[test]
        fn object_lru_tier_matches_the_plain_tier(
            tier in 0usize..4,
            second_touch in proptest::any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..8, 0u64..10, 0u64..400, 0u64..LINE_BYTES * 2 * 128),
                1..400,
            ),
        ) {
            let page = tiny_flash().page_bytes;
            let mut config = tiny_helios([0, 1, 4, 1_024][tier] * page);
            config.writeback_pages = 2;
            if second_touch {
                config.admission = AdmissionPolicy::SecondTouch { window: 3 };
            }
            let lines_per_page = page / LINE_BYTES;
            let mut fast = HybridMemory::new(config.clone());
            let mut plain = PlainHybrid::new(config);
            for (i, &(kind, hot, cold, len)) in ops.iter().enumerate() {
                // Seven in ten ops stay on four hot pages; the rest roam
                // far enough past the exported capacity to wrap.
                let page_idx = if hot < 7 { hot % 4 } else { cold };
                let line = page_idx * lines_per_page + len % lines_per_page;
                let (a, b) = match kind {
                    0..=3 => (
                        fast.line_access(line, AccessKind::Read),
                        plain.line_access(line, AccessKind::Read),
                    ),
                    4 | 5 => (
                        fast.line_access(line, AccessKind::Write),
                        plain.line_access(line, AccessKind::Write),
                    ),
                    6 => (
                        fast.value_write(line * LINE_BYTES, len),
                        plain.value_write(line * LINE_BYTES, len),
                    ),
                    _ => (fast.drain_writeback(), plain.drain_writeback()),
                };
                proptest::prop_assert_eq!(a, b, "latency of op {}", i);
                proptest::prop_assert_eq!(fast.snapshot(), plain.snapshot(), "after op {}", i);
                proptest::prop_assert_eq!(
                    fast.bytes_moved(),
                    plain.dram_bytes + plain.ftl.flash().bytes_moved()
                );
            }
        }
    }

    #[test]
    fn helios_defaults_mirror_mercury_and_iridium_parts() {
        let config = HybridConfig::helios(256 << 20, Duration::from_micros(10));
        assert_eq!(config.dram_ports, 16);
        assert_eq!(config.dram_line_latency(), Duration::from_ps(20_240));
        assert_eq!(
            config.flash,
            FlashConfig::iridium(Duration::from_micros(10))
        );
        assert_eq!(config.capacity_pages(), (256 << 20) / (8 << 10));
    }
}
