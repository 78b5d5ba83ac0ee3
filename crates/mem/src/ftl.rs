//! A page-mapping flash translation layer with wear-leveling.
//!
//! The paper's related work (§3.3) notes that effective non-volatile
//! caching needs "a programmable Flash memory controller, along with a
//! sophisticated wear-leveling algorithm". Iridium's simulated PUT path
//! runs through this FTL so that write amplification, garbage-collection
//! stalls, and wear spread are real, measurable effects rather than
//! assumptions.
//!
//! Design: log-structured page mapping. Each plane appends to an open
//! block; when the free-block pool of a plane runs low, garbage collection
//! picks a victim by **greedy cost–benefit with a wear tiebreak** (fewest
//! valid pages, then lowest erase count), relocates the survivors, and
//! erases the block. Static wear-leveling kicks in when the erase-count
//! spread exceeds a threshold, migrating a cold block into a hot one.

use densekv_sim::Duration;

use crate::flash::{FlashArray, FlashConfig, PhysPage};
use crate::{AccessKind, MemoryTiming};

/// Outcome of one logical write, including any garbage-collection work it
/// triggered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteOutcome {
    /// Where the logical page now lives.
    pub location: PhysPage,
    /// Total device time consumed (program + any GC reads/programs/erases).
    pub latency: Duration,
    /// Valid pages the write forced garbage collection to relocate.
    pub gc_moved_pages: u32,
    /// Blocks erased while satisfying this write.
    pub gc_erased_blocks: u32,
}

/// Errors returned by FTL operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlError {
    /// The logical page number is beyond the exported capacity.
    LpnOutOfRange {
        /// The offending logical page number.
        lpn: u64,
        /// Number of exported logical pages.
        capacity: u64,
    },
    /// The logical page has never been written.
    Unmapped {
        /// The offending logical page number.
        lpn: u64,
    },
}

impl core::fmt::Display for FtlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FtlError::LpnOutOfRange { lpn, capacity } => {
                write!(f, "logical page {lpn} out of range (capacity {capacity})")
            }
            FtlError::Unmapped { lpn } => write!(f, "logical page {lpn} has never been written"),
        }
    }
}

impl std::error::Error for FtlError {}

/// Per-block FTL bookkeeping.
#[derive(Debug, Clone)]
struct BlockState {
    /// Which pages hold valid (current) data.
    valid: Vec<bool>,
    /// Logical page stored in each physical page, for GC relocation.
    owner: Vec<Option<u64>>,
    /// Next page to program (blocks fill sequentially).
    write_ptr: u32,
}

impl BlockState {
    fn new(pages: u32) -> Self {
        BlockState {
            valid: vec![false; pages as usize],
            owner: vec![None; pages as usize],
            write_ptr: 0,
        }
    }

    fn valid_count(&self) -> u32 {
        self.valid.iter().filter(|v| **v).count() as u32
    }

    fn is_full(&self, pages: u32) -> bool {
        self.write_ptr >= pages
    }

    fn reset(&mut self) {
        self.valid.iter_mut().for_each(|v| *v = false);
        self.owner.iter_mut().for_each(|o| *o = None);
        self.write_ptr = 0;
    }
}

/// Per-plane allocation state.
#[derive(Debug, Clone)]
struct PlaneState {
    open_block: u32,
    free_blocks: Vec<u32>,
    /// `is_free[b]` mirrors membership of `free_blocks` for O(1) victim
    /// filtering.
    is_free: Vec<bool>,
    /// A permanently reserved empty block: garbage collection relocates a
    /// victim's survivors into it, so GC can always make progress even
    /// when the free pool is empty. After GC the erased victim becomes
    /// the new reserved block.
    reserved: u32,
    /// Writes since the last static wear-leveling check (the check scans
    /// the plane, so it runs periodically rather than per write).
    writes_since_wear_check: u32,
}

/// A page-mapping FTL over a [`FlashArray`].
///
/// A fraction of physical capacity is reserved as over-provisioning
/// (default 1/16) so garbage collection always has somewhere to move
/// surviving pages.
///
/// # Examples
///
/// ```
/// use densekv_mem::flash::FlashConfig;
/// use densekv_mem::ftl::Ftl;
///
/// let mut ftl = Ftl::new(FlashConfig::default(), 1.0 / 16.0);
/// let out = ftl.write(0)?;
/// assert_eq!(out.gc_erased_blocks, 0); // fresh device, no GC yet
/// let (loc, _latency) = ftl.read(0)?;
/// assert_eq!(loc, out.location);
/// # Ok::<(), densekv_mem::ftl::FtlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ftl {
    flash: FlashArray,
    /// Logical page -> physical page.
    map: Vec<Option<PhysPage>>,
    blocks: Vec<BlockState>,
    planes: Vec<PlaneState>,
    exported_pages: u64,
    host_writes: u64,
    device_programs: u64,
    gc_moved_pages: u64,
    gc_erased_blocks: u64,
    wear_threshold: u32,
}

impl Ftl {
    /// Creates an FTL over a fresh flash device, reserving
    /// `overprovision` (a fraction in `[0, 0.5]`) of each plane's blocks.
    ///
    /// # Panics
    ///
    /// Panics if `overprovision` is outside `[0, 0.5]` or leaves a plane
    /// with fewer than two spare blocks.
    pub fn new(config: FlashConfig, overprovision: f64) -> Self {
        assert!(
            (0.0..=0.5).contains(&overprovision),
            "overprovision must be in [0, 0.5]"
        );
        // At least 3 spares: one reserved GC block plus enough slack that
        // the pigeonhole argument guarantees every GC victim has at least
        // one dead page (so the post-GC open block is never full).
        let spare_per_plane =
            ((config.blocks_per_plane as f64 * overprovision).ceil() as u32).max(3);
        assert!(
            spare_per_plane < config.blocks_per_plane,
            "overprovisioning leaves no exported capacity"
        );
        let exported_blocks =
            (config.blocks_per_plane - spare_per_plane) as u64 * config.planes as u64;
        let exported_pages = exported_blocks * config.pages_per_block as u64;
        let nblocks = (config.planes * config.blocks_per_plane) as usize;
        let planes = (0..config.planes)
            .map(|_| {
                let mut is_free = vec![true; config.blocks_per_plane as usize];
                is_free[0] = false; // open
                is_free[config.blocks_per_plane as usize - 1] = false; // reserved
                PlaneState {
                    open_block: 0,
                    // Block 0 is open, the last block is reserved for GC,
                    // the rest are free.
                    free_blocks: (1..config.blocks_per_plane - 1).rev().collect(),
                    is_free,
                    reserved: config.blocks_per_plane - 1,
                    writes_since_wear_check: 0,
                }
            })
            .collect();
        Ftl {
            map: vec![None; exported_pages as usize],
            blocks: (0..nblocks)
                .map(|_| BlockState::new(config.pages_per_block))
                .collect(),
            planes,
            exported_pages,
            host_writes: 0,
            device_programs: 0,
            gc_moved_pages: 0,
            gc_erased_blocks: 0,
            wear_threshold: 16,
            flash: FlashArray::new(config),
        }
    }

    /// Number of logical pages exported to the host.
    pub fn exported_pages(&self) -> u64 {
        self.exported_pages
    }

    /// The underlying flash device (wear counters, byte accounting).
    pub fn flash(&self) -> &FlashArray {
        &self.flash
    }

    /// Writes the logical pages covering `bytes` at logical byte
    /// `offset`, returning the total device time (programs + any GC).
    /// Offsets wrap modulo the exported capacity, so callers can hand in
    /// raw store offsets.
    pub fn write_range(&mut self, offset: u64, bytes: u64) -> Duration {
        let page = self.flash.config().page_bytes;
        let first = offset / page;
        let last = (offset + bytes.max(1) - 1) / page;
        let mut latency = Duration::ZERO;
        for lpn in first..=last {
            let wrapped = lpn % self.exported_pages;
            latency += self
                .write(wrapped)
                .expect("wrapped lpn is within capacity")
                .latency;
        }
        latency
    }

    /// Lifetime host-issued page writes.
    pub fn host_writes(&self) -> u64 {
        self.host_writes
    }

    /// Lifetime device page programs (host writes + GC relocations).
    pub fn device_programs(&self) -> u64 {
        self.device_programs
    }

    /// Lifetime valid pages relocated by garbage collection and static
    /// wear-leveling — the FTL's background byte traffic, which the
    /// energy layer charges to the memory device alongside host I/O.
    pub fn gc_moved_pages(&self) -> u64 {
        self.gc_moved_pages
    }

    /// Lifetime blocks erased (GC victims plus wear-leveling migrations).
    pub fn gc_erased_blocks(&self) -> u64 {
        self.gc_erased_blocks
    }

    /// Device programs ÷ host writes; 1.0 until GC starts relocating.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            self.device_programs as f64 / self.host_writes as f64
        }
    }

    /// Sets the erase-count spread that triggers static wear-leveling.
    pub fn set_wear_threshold(&mut self, spread: u32) {
        self.wear_threshold = spread.max(1);
    }

    fn block_state(&self, plane: u32, block: u32) -> &BlockState {
        &self.blocks[(plane * self.flash.config().blocks_per_plane + block) as usize]
    }

    fn block_state_mut(&mut self, plane: u32, block: u32) -> &mut BlockState {
        &mut self.blocks[(plane * self.flash.config().blocks_per_plane + block) as usize]
    }

    /// The plane a logical page is striped onto (round-robin, keeping the
    /// 16-controller parallelism of the stack).
    fn plane_of(&self, lpn: u64) -> u32 {
        (lpn % self.flash.config().planes as u64) as u32
    }

    /// Reads a logical page; returns its location and device latency.
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`] or [`FtlError::Unmapped`].
    pub fn read(&mut self, lpn: u64) -> Result<(PhysPage, Duration), FtlError> {
        let loc = *self
            .map
            .get(lpn as usize)
            .ok_or(FtlError::LpnOutOfRange {
                lpn,
                capacity: self.exported_pages,
            })?
            .as_ref()
            .ok_or(FtlError::Unmapped { lpn })?;
        let latency = self.flash.read_page(loc);
        Ok((loc, latency))
    }

    /// Reads a logical page whether or not it was ever written through
    /// the FTL, returning the device latency. Mapped pages read from
    /// their mapped location; unmapped pages (data preloaded into the
    /// array outside the FTL's write path, as Iridium's store image is)
    /// price a raw read at the page's round-robin striped plane. The lpn
    /// wraps modulo the exported capacity, mirroring [`Ftl::write_range`].
    pub fn read_page_any(&mut self, lpn: u64) -> Duration {
        let lpn = lpn % self.exported_pages;
        match self.map[lpn as usize] {
            Some(loc) => self.flash.read_page(loc),
            None => self.flash.read_page(PhysPage {
                plane: self.plane_of(lpn),
                block: 0,
                page: 0,
            }),
        }
    }

    /// Writes (or overwrites) a logical page.
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`] if `lpn` exceeds exported capacity.
    pub fn write(&mut self, lpn: u64) -> Result<WriteOutcome, FtlError> {
        if lpn >= self.exported_pages {
            return Err(FtlError::LpnOutOfRange {
                lpn,
                capacity: self.exported_pages,
            });
        }
        self.host_writes += 1;
        let plane = self.plane_of(lpn);
        let mut latency = Duration::ZERO;
        let mut moved = 0;
        let mut erased = 0;

        // Invalidate the old copy.
        if let Some(old) = self.map[lpn as usize] {
            let st = self.block_state_mut(old.plane, old.block);
            st.valid[old.page as usize] = false;
            st.owner[old.page as usize] = None;
        }

        // Make room if the open block is full.
        let (gc_lat, gc_moved, gc_erased) = self.ensure_open_page(plane);
        latency += gc_lat;
        moved += gc_moved;
        erased += gc_erased;

        let location = self.append(plane, lpn);
        latency += self.flash.program_page(location);
        self.device_programs += 1;
        self.map[lpn as usize] = Some(location);

        // Static wear-leveling: migrate a cold block if spread is large.
        let (wl_lat, wl_moved, wl_erased) = self.maybe_level_wear(plane);
        latency += wl_lat;
        moved += wl_moved;
        erased += wl_erased;

        self.gc_moved_pages += moved as u64;
        self.gc_erased_blocks += erased as u64;

        Ok(WriteOutcome {
            location,
            latency,
            gc_moved_pages: moved,
            gc_erased_blocks: erased,
        })
    }

    /// Appends `lpn` to the plane's open block. Caller guarantees space.
    fn append(&mut self, plane: u32, lpn: u64) -> PhysPage {
        let open = self.planes[plane as usize].open_block;
        let st = self.block_state_mut(plane, open);
        let page = st.write_ptr;
        st.write_ptr += 1;
        st.valid[page as usize] = true;
        st.owner[page as usize] = Some(lpn);
        PhysPage {
            plane,
            block: open,
            page,
        }
    }

    /// Rotates to a fresh open block when the current one is full: pop a
    /// free block if any, otherwise garbage-collect.
    fn ensure_open_page(&mut self, plane: u32) -> (Duration, u32, u32) {
        let pages = self.flash.config().pages_per_block;
        let open = self.planes[plane as usize].open_block;
        if !self.block_state(plane, open).is_full(pages) {
            return (Duration::ZERO, 0, 0);
        }
        if let Some(next) = self.planes[plane as usize].free_blocks.pop() {
            self.planes[plane as usize].is_free[next as usize] = false;
            self.planes[plane as usize].open_block = next;
            return (Duration::ZERO, 0, 0);
        }
        self.collect_garbage(plane)
    }

    /// Greedy victim selection with wear tiebreak. Survivors are
    /// relocated into the reserved block, which then becomes the open
    /// block; the erased victim becomes the new reserved block. This
    /// makes progress with an empty free pool: over-provisioning
    /// guarantees the min-valid victim is not completely full.
    fn collect_garbage(&mut self, plane: u32) -> (Duration, u32, u32) {
        let cfg_blocks = self.flash.config().blocks_per_plane;
        let open = self.planes[plane as usize].open_block;
        let reserved = self.planes[plane as usize].reserved;
        let is_free = std::mem::take(&mut self.planes[plane as usize].is_free);
        let victim = (0..cfg_blocks)
            .filter(|&b| b != open && b != reserved && !is_free[b as usize])
            .min_by_key(|&b| {
                (
                    self.block_state(plane, b).valid_count(),
                    self.flash.erase_count(plane, b),
                )
            })
            .expect("plane has data blocks beyond open and reserved");
        self.planes[plane as usize].is_free = is_free;
        let (latency, moved) = self.relocate_into_reserved(plane, victim);
        // The reserved block (now holding the survivors, with tail space
        // left over) becomes the open block; the erased victim is the new
        // reserved block.
        self.planes[plane as usize].open_block = reserved;
        self.planes[plane as usize].reserved = victim;
        debug_assert!(
            !self
                .block_state(plane, reserved)
                .is_full(self.flash.config().pages_per_block),
            "over-provisioning must leave a dead page in every GC victim"
        );
        (latency, moved, 1)
    }

    /// Moves every valid page of `victim` into the (empty) reserved block
    /// and erases the victim. Returns (latency, pages moved). The caller
    /// decides the blocks' new roles.
    fn relocate_into_reserved(&mut self, plane: u32, victim: u32) -> (Duration, u32) {
        let reserved = self.planes[plane as usize].reserved;
        debug_assert_eq!(
            self.block_state(plane, reserved).write_ptr,
            0,
            "reserved block must be empty"
        );
        let survivors: Vec<(u32, u64)> = {
            let st = self.block_state(plane, victim);
            st.owner
                .iter()
                .enumerate()
                .filter(|&(p, _o)| st.valid[p])
                .map(|(p, o)| (p as u32, o.expect("valid page has an owner")))
                .collect()
        };
        let mut latency = Duration::ZERO;
        let mut moved = 0;
        for (page, lpn) in survivors {
            latency += self.flash.read_page(PhysPage {
                plane,
                block: victim,
                page,
            });
            let dest_page = {
                let st = self.block_state_mut(plane, reserved);
                let p = st.write_ptr;
                st.write_ptr += 1;
                st.valid[p as usize] = true;
                st.owner[p as usize] = Some(lpn);
                p
            };
            let dest = PhysPage {
                plane,
                block: reserved,
                page: dest_page,
            };
            latency += self.flash.program_page(dest);
            self.device_programs += 1;
            self.map[lpn as usize] = Some(dest);
            moved += 1;
        }
        latency += self.flash.erase_block(plane, victim);
        self.block_state_mut(plane, victim).reset();
        (latency, moved)
    }

    /// If the wear spread within the plane exceeds the threshold, migrate
    /// the coldest block so its static data stops shielding the block
    /// from wear. Uses the same reserved-block mechanism as GC; the
    /// migrated-into block becomes a regular data block.
    fn maybe_level_wear(&mut self, plane: u32) -> (Duration, u32, u32) {
        // The scan below is O(blocks); amortize it over a window of
        // writes so the hot path stays O(1).
        const WEAR_CHECK_INTERVAL: u32 = 32;
        {
            let st = &mut self.planes[plane as usize];
            st.writes_since_wear_check += 1;
            if st.writes_since_wear_check < WEAR_CHECK_INTERVAL {
                return (Duration::ZERO, 0, 0);
            }
            st.writes_since_wear_check = 0;
        }
        let cfg_blocks = self.flash.config().blocks_per_plane;
        let open = self.planes[plane as usize].open_block;
        let reserved = self.planes[plane as usize].reserved;
        let (mut min_b, mut min_e, mut max_e) = (0u32, u32::MAX, 0u32);
        for b in 0..cfg_blocks {
            let e = self.flash.erase_count(plane, b);
            max_e = max_e.max(e);
            if b != open
                && b != reserved
                && !self.planes[plane as usize].is_free[b as usize]
                && e < min_e
            {
                min_e = e;
                min_b = b;
            }
        }
        if min_e == u32::MAX
            || min_b == reserved
            || max_e.saturating_sub(min_e) < self.wear_threshold
        {
            return (Duration::ZERO, 0, 0);
        }
        let (latency, moved) = self.relocate_into_reserved(plane, min_b);
        // The old reserved block now holds the cold data (a regular data
        // block); the freshly erased cold block is the new reserved one.
        self.planes[plane as usize].reserved = min_b;
        (latency, moved, 1)
    }
}

/// Timing facade: lets the FTL stand in for the raw device in the
/// request path. Reads price a worst-case line fetch on the underlying
/// array (the paper's closed-page model); line writes price a full page
/// program, also on the raw array — bulk PUT traffic should use
/// [`Ftl::write_range`] instead so garbage collection participates.
impl MemoryTiming for Ftl {
    fn line_access(&mut self, line_addr: u64, kind: AccessKind) -> Duration {
        self.flash.line_access(line_addr, kind)
    }

    fn bytes_moved(&self) -> u64 {
        self.flash.bytes_moved()
    }

    fn reset_counters(&mut self) {
        self.flash.reset_counters();
    }

    fn active_power_w(&self, gb_per_s: f64) -> f64 {
        self.flash.active_power_w(gb_per_s)
    }

    fn max_overlap(&self, kind: AccessKind) -> f64 {
        self.flash.max_overlap(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small device so GC triggers quickly in tests.
    fn tiny() -> FlashConfig {
        FlashConfig {
            planes: 2,
            page_bytes: 8 << 10,
            pages_per_block: 4,
            blocks_per_plane: 8,
            read_latency: Duration::from_micros(10),
            program_latency: Duration::from_micros(200),
            erase_latency: Duration::from_millis(2),
            controller_overhead: Duration::ZERO,
            active_mw_per_gbps: 6.0,
        }
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut ftl = Ftl::new(tiny(), 0.25);
        let out = ftl.write(5).unwrap();
        let (loc, lat) = ftl.read(5).unwrap();
        assert_eq!(loc, out.location);
        assert_eq!(lat, Duration::from_micros(10));
    }

    #[test]
    fn read_of_unwritten_page_errors() {
        let mut ftl = Ftl::new(tiny(), 0.25);
        assert_eq!(ftl.read(3), Err(FtlError::Unmapped { lpn: 3 }));
        let oob = ftl.exported_pages();
        assert!(matches!(ftl.read(oob), Err(FtlError::LpnOutOfRange { .. })));
        assert!(matches!(
            ftl.write(oob),
            Err(FtlError::LpnOutOfRange { .. })
        ));
    }

    #[test]
    fn overwrite_invalidates_old_copy() {
        let mut ftl = Ftl::new(tiny(), 0.25);
        let first = ftl.write(0).unwrap().location;
        let second = ftl.write(0).unwrap().location;
        assert_ne!(first, second, "log-structured writes relocate");
        let (loc, _) = ftl.read(0).unwrap();
        assert_eq!(loc, second);
    }

    #[test]
    fn gc_reclaims_space_under_overwrite_pressure() {
        let mut ftl = Ftl::new(tiny(), 0.25);
        // Hammer a handful of logical pages far beyond raw capacity.
        let mut total_erased = 0;
        for i in 0..1000u64 {
            let out = ftl.write(i % 8).unwrap();
            total_erased += out.gc_erased_blocks;
        }
        assert!(total_erased > 0, "GC must have run");
        // Every page still readable.
        for lpn in 0..8 {
            ftl.read(lpn).unwrap();
        }
        assert!(ftl.write_amplification() >= 1.0);
        // Lifetime counters agree with the per-write outcomes.
        assert_eq!(ftl.gc_erased_blocks(), u64::from(total_erased));
        assert_eq!(ftl.host_writes(), 1000);
        assert_eq!(
            ftl.device_programs(),
            ftl.host_writes() + ftl.gc_moved_pages(),
            "programs = host writes + GC relocations"
        );
    }

    #[test]
    fn write_amplification_is_one_without_gc() {
        let mut ftl = Ftl::new(tiny(), 0.25);
        for lpn in 0..4 {
            ftl.write(lpn).unwrap();
        }
        assert_eq!(ftl.write_amplification(), 1.0);
    }

    #[test]
    fn wear_leveling_bounds_spread() {
        let mut with = Ftl::new(tiny(), 0.25);
        with.set_wear_threshold(4);
        let mut without = Ftl::new(tiny(), 0.25);
        without.set_wear_threshold(u32::MAX);
        // Static data on half the pages; hot overwrites on one page.
        for ftl in [&mut with, &mut without] {
            for lpn in 0..10 {
                ftl.write(lpn).unwrap();
            }
            for _ in 0..3000 {
                ftl.write(11).unwrap();
            }
        }
        let (min_w, max_w) = with.flash().wear_spread();
        let (min_wo, max_wo) = without.flash().wear_spread();
        assert!(
            (max_w - min_w) < (max_wo - min_wo),
            "leveling should narrow wear spread: with=({min_w},{max_w}) without=({min_wo},{max_wo})"
        );
    }

    #[test]
    fn full_capacity_fill_succeeds() {
        let mut ftl = Ftl::new(tiny(), 0.25);
        let n = ftl.exported_pages();
        for lpn in 0..n {
            ftl.write(lpn).unwrap();
        }
        for lpn in 0..n {
            ftl.read(lpn).unwrap();
        }
    }

    #[test]
    fn iridium_scale_smoke() {
        // The real geometry is big; just confirm construction and a few
        // writes behave.
        let mut ftl = Ftl::new(FlashConfig::default(), 1.0 / 16.0);
        assert!(ftl.exported_pages() > 2_000_000);
        let out = ftl.write(123_456).unwrap();
        assert_eq!(out.latency, Duration::from_micros(215));
    }

    #[test]
    fn read_page_any_covers_mapped_and_unmapped_pages() {
        let mut ftl = Ftl::new(tiny(), 0.25);
        // Unmapped: prices a raw striped read, counts page bytes.
        let lat = ftl.read_page_any(3);
        assert_eq!(lat, Duration::from_micros(10));
        assert_eq!(ftl.flash().bytes_moved(), 8 << 10);
        // Mapped: reads from the FTL's location, same device latency.
        ftl.write(3).unwrap();
        assert_eq!(ftl.read_page_any(3), Duration::from_micros(10));
        // Out-of-range lpns wrap instead of erroring.
        let wrapped = ftl.read_page_any(ftl.exported_pages() * 2 + 3);
        assert_eq!(wrapped, Duration::from_micros(10));
    }

    #[test]
    fn write_range_spans_pages_and_wraps() {
        let mut ftl = Ftl::new(tiny(), 0.25);
        let page = ftl.flash().config().page_bytes;
        // One page exactly.
        let one = ftl.write_range(0, 64);
        assert_eq!(one, Duration::from_micros(200));
        // Three pages (crosses two boundaries).
        let three = ftl.write_range(page - 1, 2 * page);
        assert_eq!(three, Duration::from_micros(600));
        // Offsets far beyond capacity wrap instead of erroring.
        let wrapped = ftl.write_range(page * ftl.exported_pages() * 3, 64);
        assert_eq!(wrapped, Duration::from_micros(200));
    }

    #[test]
    fn timing_facade_delegates_to_the_array() {
        use crate::MemoryTiming;
        let mut ftl = Ftl::new(tiny(), 0.25);
        let read = ftl.line_access(0, crate::AccessKind::Read);
        assert_eq!(read, Duration::from_micros(10));
        assert_eq!(ftl.bytes_moved(), 64);
        assert_eq!(ftl.max_overlap(crate::AccessKind::Read), 1.0);
        ftl.reset_counters();
        assert_eq!(ftl.bytes_moved(), 0);
    }
}
