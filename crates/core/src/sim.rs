//! The simulated stack core: executes real requests against a real store
//! while the timing models account for every instruction, cache miss,
//! memory-device access, frame, and wire byte.
//!
//! One `CoreSim` models one core of a Mercury or Iridium stack running
//! its own Memcached instance (the paper's deployment model, §4.1.4/§5.3)
//! serving a closed-loop client: TPS = 1/RTT (§5.3).

use densekv_cpu::engine::{PhaseEngine, PhaseResult, PhaseSpec, StreamRef};
use densekv_cpu::CoreConfig;
use densekv_hybrid::{HybridMemory, TierSnapshot};
use densekv_kv::hash::hash_instructions;
use densekv_kv::store::{AccessTrace, KvStore, StoreConfig, StoreError};
use densekv_mem::dram::DramStack;
use densekv_mem::ftl::Ftl;
use densekv_mem::sram::SramBuffer;
use densekv_mem::{lines_for_bytes, AccessKind, MemoryTiming};
use densekv_net::frame::MessageSizes;
use densekv_net::nic::NicMac;
use densekv_net::{TcpCostModel, Wire};
use densekv_sim::Duration;
use densekv_stack::{MemoryKind, StackConfig};
use densekv_workload::{Op, Request};

/// Line-address base of the packet-buffer region.
const BUFFER_BASE_LINE: u64 = 0xE00_0000; // 3.5 GiB into the device, in lines

/// Store-region base: the store's own address space (table + slab arena)
/// starts at the device origin.
const STORE_BASE_LINE: u64 = 0;

/// Instructions for protocol parsing per request.
const PARSE_INSTR: u64 = 1_800;
/// Instructions for GET metadata handling (lookup, item bookkeeping,
/// response header) — the Fig. 4 "Memcached" component.
const GET_STORE_INSTR: u64 = 5_500;
/// Instructions for PUT metadata handling (alloc, LRU, table update).
const PUT_STORE_INSTR: u64 = 16_000;
/// Copy-loop instructions per 64 B line moved.
const COPY_INSTR_PER_LINE: u64 = 4;
/// Metadata lines written by a PUT (bucket pointer, item header,
/// LRU/stats).
const PUT_METADATA_WRITES: usize = 3;

/// Largest value the store accepts (one slab page minus header/key
/// slack). The paper's 1 MB sweep point stores 1 MB minus this sliver;
/// the wire and copy traffic still use the requested size.
const MAX_STORED_VALUE: u64 = densekv_kv::slab::PAGE_BYTES - 512;

/// Clamps a requested value size to what one slab chunk can hold.
fn stored_len(value_bytes: u64) -> u64 {
    value_bytes.min(MAX_STORED_VALUE)
}

/// Configuration of one simulated core.
#[derive(Debug, Clone)]
pub struct CoreSimConfig {
    /// Core timing model.
    pub core: CoreConfig,
    /// Whether the core has a 2 MB L2.
    pub l2: bool,
    /// Stack memory technology.
    pub memory: MemoryKind,
    /// Slab-arena bytes for this core's store (a simulation-scale
    /// partition; the address layout is what matters for timing).
    pub store_bytes: u64,
    /// TCP/IP software cost model.
    pub tcp: TcpCostModel,
    /// The 10 GbE link to the client.
    pub wire: Wire,
    /// Client-side processing per request (request build + response
    /// handling) outside the server.
    pub client_overhead: Duration,
}

impl CoreSimConfig {
    /// A Mercury core with the given DRAM latency.
    pub fn mercury(core: CoreConfig, l2: bool, dram_latency: Duration) -> Self {
        CoreSimConfig {
            core,
            l2,
            memory: MemoryKind::Mercury(densekv_mem::dram::DramConfig::mercury(dram_latency)),
            store_bytes: 64 << 20,
            tcp: TcpCostModel::linux(),
            wire: Wire::ten_gbe(),
            client_overhead: Duration::from_micros(1),
        }
    }

    /// An Iridium core with the given flash read latency.
    pub fn iridium(core: CoreConfig, l2: bool, read_latency: Duration) -> Self {
        CoreSimConfig {
            memory: MemoryKind::Iridium(densekv_mem::flash::FlashConfig::iridium(read_latency)),
            ..CoreSimConfig::mercury(core, l2, Duration::from_nanos(10))
        }
    }

    /// The paper's headline configuration: A7 @ 1 GHz, 2 MB L2, 10 ns
    /// DRAM.
    pub fn mercury_a7() -> Self {
        CoreSimConfig::mercury(CoreConfig::a7_1ghz(), true, Duration::from_nanos(10))
    }

    /// The Iridium headline: A7 @ 1 GHz, 2 MB L2, 10 µs flash reads.
    pub fn iridium_a7() -> Self {
        CoreSimConfig::iridium(CoreConfig::a7_1ghz(), true, Duration::from_micros(10))
    }

    /// A Helios hybrid core: `dram_tier_bytes` of DRAM cache (this
    /// core's slice of the stack tier) over flash with the given read
    /// latency. A 0-byte tier degenerates to exactly the Iridium model.
    pub fn helios(
        core: CoreConfig,
        l2: bool,
        dram_tier_bytes: u64,
        read_latency: Duration,
    ) -> Self {
        CoreSimConfig {
            memory: MemoryKind::Hybrid(densekv_hybrid::HybridConfig::helios(
                dram_tier_bytes,
                read_latency,
            )),
            ..CoreSimConfig::mercury(core, l2, Duration::from_nanos(10))
        }
    }

    /// The Helios headline: A7 @ 1 GHz, 2 MB L2, 10 µs flash reads, and
    /// a per-core DRAM tier slice of `dram_tier_bytes`.
    pub fn helios_a7(dram_tier_bytes: u64) -> Self {
        CoreSimConfig::helios(
            CoreConfig::a7_1ghz(),
            true,
            dram_tier_bytes,
            Duration::from_micros(10),
        )
    }

    /// Derives the matching one-core-per-stack [`StackConfig`] (useful
    /// for the Fig. 5/6 single-stack studies).
    ///
    /// # Errors
    ///
    /// Propagates stack-validation errors.
    pub fn stack_config(&self) -> Result<StackConfig, densekv_stack::config::StackConfigError> {
        StackConfig::new(self.memory.clone(), self.core.clone(), 1, self.l2)
    }
}

/// The stack's memory system as one core sees it.
enum StackMemory {
    /// Mercury: DRAM holds both the store and the packet buffers.
    Dram(DramStack),
    /// Iridium: the store lives in flash behind a real FTL (so PUTs pay
    /// for garbage collection and wear-leveling); packet buffers in
    /// on-die SRAM.
    Flash { ftl: Ftl, buffer: SramBuffer },
    /// Helios: the store lives in flash behind the same FTL, fronted by
    /// a DRAM page-cache tier; packet buffers in on-die SRAM, exactly
    /// as on Iridium.
    Hybrid {
        tier: Box<HybridMemory>,
        buffer: SramBuffer,
    },
}

impl StackMemory {
    /// Runs a phase. The backing memory (behind the caches) is always the
    /// stack's main device — DRAM on Mercury, flash on Iridium, exactly as
    /// the paper models memory. When `stream_to_buffer` is set, the
    /// phase's bulk stream targets the packet buffers instead (DRAM again
    /// on Mercury; the logic-die SRAM on Iridium).
    fn run_phase(
        &mut self,
        engine: &mut PhaseEngine,
        spec: &PhaseSpec,
        stream_to_buffer: bool,
    ) -> PhaseResult {
        match self {
            StackMemory::Dram(d) => engine.run(spec, d),
            StackMemory::Flash { ftl, buffer } => {
                if stream_to_buffer {
                    engine.run_split(spec, ftl, Some(buffer))
                } else {
                    engine.run(spec, ftl)
                }
            }
            StackMemory::Hybrid { tier, buffer } => {
                if stream_to_buffer {
                    engine.run_split(spec, tier.as_mut(), Some(buffer))
                } else {
                    engine.run(spec, tier.as_mut())
                }
            }
        }
    }

    /// Bulk value write into the store. On Mercury this is `None` (the
    /// caller streams lines through the DRAM); on Iridium it returns the
    /// FTL's page-program time, including any garbage collection the
    /// write triggered.
    fn ftl_value_write(&mut self, offset: u64, bytes: u64) -> Option<Duration> {
        match self {
            StackMemory::Dram(_) => None,
            StackMemory::Flash { ftl, .. } => Some(ftl.write_range(offset, bytes)),
            StackMemory::Hybrid { tier, .. } => Some(tier.value_write(offset, bytes)),
        }
    }

    /// Account one buffer line moved by NIC DMA (no core stall).
    fn dma_buffer_line(&mut self, line: u64) {
        match self {
            StackMemory::Dram(d) => {
                let _ = d.line_access(line, AccessKind::Read);
            }
            StackMemory::Flash { buffer, .. } | StackMemory::Hybrid { buffer, .. } => {
                let _ = buffer.line_access(line, AccessKind::Read);
            }
        }
    }

    /// Bytes moved at the *device* (what Table 1's per-GB/s power rates
    /// apply to).
    fn device_bytes(&self) -> u64 {
        match self {
            StackMemory::Dram(d) => d.bytes_moved(),
            StackMemory::Flash { ftl, .. } => ftl.bytes_moved(),
            StackMemory::Hybrid { tier, .. } => tier.bytes_moved(),
        }
    }

    /// Device bytes split by tier: `(DRAM, flash)`. Single-tier stacks
    /// report all their traffic on their own tier, so per-tier pricing
    /// reduces exactly to the single-rate model for them.
    fn device_tier_bytes(&self) -> (u64, u64) {
        match self {
            StackMemory::Dram(d) => (d.bytes_moved(), 0),
            StackMemory::Flash { ftl, .. } => (0, ftl.bytes_moved()),
            StackMemory::Hybrid { tier, .. } => (tier.dram_bytes(), tier.flash_bytes()),
        }
    }

    fn reset_counters(&mut self) {
        match self {
            StackMemory::Dram(d) => d.reset_counters(),
            StackMemory::Flash { ftl, buffer } => {
                ftl.reset_counters();
                buffer.reset_counters();
            }
            StackMemory::Hybrid { tier, buffer } => {
                tier.reset_counters();
                buffer.reset_counters();
            }
        }
    }
}

impl core::fmt::Debug for StackMemory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StackMemory::Dram(_) => write!(f, "StackMemory::Dram"),
            StackMemory::Flash { .. } => write!(f, "StackMemory::Flash"),
            StackMemory::Hybrid { .. } => write!(f, "StackMemory::Hybrid"),
        }
    }
}

/// Timing of one executed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTiming {
    /// Full round-trip time as the client observes it.
    pub rtt: Duration,
    /// Time on the serving core (all phases).
    pub server: Duration,
    /// Fig. 4's "Network Stack" component: RX + TX paths and data
    /// movement.
    pub network: Duration,
    /// Fig. 4's "Memcached" component: parse + store metadata.
    pub store: Duration,
    /// Fig. 4's "Hash Computation" component.
    pub hash: Duration,
    /// Whether a GET hit (PUTs report `true`).
    pub hit: bool,
}

/// One request's round trip decomposed into contiguous phases, in wire
/// order — the Fig. 4 breakdown at request granularity.
///
/// The invariant the tracing exporters rely on: the phases returned by
/// [`PhaseBreakdown::phases`] tile [`RequestTiming::rtt`] exactly, so a
/// span built from them sums to the end-to-end latency bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseBreakdown {
    /// Client-side processing (request build + response handling).
    pub client_overhead: Duration,
    /// Request serialization + propagation on the 10 GbE wire.
    pub req_wire: Duration,
    /// Request store-and-forward through the on-stack NIC MAC.
    pub req_nic: Duration,
    /// Kernel RX path (TCP/IP + payload landing in packet buffers).
    pub net_rx: Duration,
    /// Memcached protocol parse.
    pub parse: Duration,
    /// Key hash computation.
    pub hash: Duration,
    /// Store metadata operation (lookup or insert, bucket/item walks).
    pub store_op: Duration,
    /// Value movement between the store and the packet buffers.
    pub value_copy: Duration,
    /// Kernel TX path.
    pub net_tx: Duration,
    /// Response store-and-forward through the NIC MAC.
    pub resp_nic: Duration,
    /// Response serialization + propagation on the wire.
    pub resp_wire: Duration,
}

impl PhaseBreakdown {
    /// The phases in wire order, named for the trace viewer.
    #[must_use]
    pub fn phases(&self) -> [(&'static str, Duration); 11] {
        [
            ("client", self.client_overhead),
            ("req-wire", self.req_wire),
            ("req-nic", self.req_nic),
            ("net-rx", self.net_rx),
            ("parse", self.parse),
            ("hash", self.hash),
            ("store-op", self.store_op),
            ("value-copy", self.value_copy),
            ("net-tx", self.net_tx),
            ("resp-nic", self.resp_nic),
            ("resp-wire", self.resp_wire),
        ]
    }

    /// Server-side time (the six on-core phases).
    #[must_use]
    pub fn server(&self) -> Duration {
        self.net_rx + self.parse + self.hash + self.store_op + self.value_copy + self.net_tx
    }

    /// End-to-end round trip: the sum of every phase.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.phases().iter().map(|&(_, d)| d).sum()
    }
}

/// One simulated stack core and its Memcached instance.
///
/// See the crate-level docs for an example.
pub struct CoreSim {
    config: CoreSimConfig,
    engine: PhaseEngine,
    store: KvStore,
    memory: StackMemory,
    mac: NicMac,
    /// Wire payload bytes exchanged (both directions).
    wire_bytes: u64,
    /// Reused trace buffer (avoids per-request chain-vector allocation).
    trace_scratch: AccessTrace,
}

impl core::fmt::Debug for CoreSim {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CoreSim")
            .field("core", &self.config.core.label())
            .field("memory", &self.memory)
            .finish_non_exhaustive()
    }
}

impl CoreSim {
    /// Builds the simulated core.
    ///
    /// # Errors
    ///
    /// Returns the store's error if the slab arena is too small to exist.
    pub fn new(config: CoreSimConfig) -> Result<Self, StoreError> {
        if config.store_bytes < 1 << 20 {
            return Err(StoreError::OutOfMemory);
        }
        let engine = if config.l2 {
            PhaseEngine::with_l2(config.core.clone())
        } else {
            PhaseEngine::without_l2(config.core.clone())
        };
        let memory = match &config.memory {
            MemoryKind::Mercury(dram) => StackMemory::Dram(DramStack::new(dram.clone())),
            MemoryKind::Iridium(flash) => {
                // The FTL only needs to cover this core's simulated store
                // partition (plus over-provisioning), not the whole
                // 19.8 GB stack — timing is per-page and identical, and
                // construction stays cheap for sweeps that build many
                // cores.
                let mut sized = flash.clone();
                let per_block = u64::from(sized.pages_per_block) * sized.page_bytes;
                let needed_blocks =
                    (config.store_bytes * 2).div_ceil(per_block * u64::from(sized.planes));
                sized.blocks_per_plane = (needed_blocks as u32).max(8);
                StackMemory::Flash {
                    ftl: Ftl::new(sized, 1.0 / 16.0),
                    buffer: SramBuffer::on_die(),
                }
            }
            MemoryKind::Hybrid(hybrid) => {
                // Same flash down-sizing as Iridium so the degenerate
                // 0-byte tier reproduces its timing bit for bit.
                let mut sized = hybrid.clone();
                let per_block = u64::from(sized.flash.pages_per_block) * sized.flash.page_bytes;
                let needed_blocks =
                    (config.store_bytes * 2).div_ceil(per_block * u64::from(sized.flash.planes));
                sized.flash.blocks_per_plane = (needed_blocks as u32).max(8);
                StackMemory::Hybrid {
                    tier: Box::new(HybridMemory::new(sized)),
                    buffer: SramBuffer::on_die(),
                }
            }
        };
        Ok(CoreSim {
            engine,
            store: KvStore::new(StoreConfig::with_capacity(config.store_bytes)),
            memory,
            mac: NicMac::for_cores(1),
            wire_bytes: 0,
            trace_scratch: AccessTrace::default(),
            config,
        })
    }

    /// The configuration this core was built from.
    pub fn config(&self) -> &CoreSimConfig {
        &self.config
    }

    /// The store's statistics (hits, misses, evictions…).
    pub fn store_stats(&self) -> densekv_kv::StoreStats {
        self.store.stats()
    }

    /// Per-level cache hit/miss counters of the core's hierarchy.
    pub fn cache_stats(&self) -> densekv_cpu::CacheHierarchyStats {
        self.engine.cache_stats()
    }

    /// Forces the engine's full LRU walk (differential tests only).
    #[doc(hidden)]
    pub fn disable_l2_residency_shortcut(&mut self) {
        self.engine.disable_l2_residency_shortcut();
    }

    /// Loads `population` keys of `value_bytes` each (untimed), so
    /// subsequent GETs hit.
    ///
    /// # Errors
    ///
    /// Propagates store errors (e.g. the population does not fit).
    pub fn preload(&mut self, value_bytes: u64, population: u64) -> Result<(), StoreError> {
        for id in 0..population {
            let key = densekv_workload::key_bytes(id);
            self.store
                .set(&key, vec![0xAB; stored_len(value_bytes) as usize], None, 0)?;
        }
        Ok(())
    }

    /// Loads a single key of `value_bytes` (untimed).
    ///
    /// # Errors
    ///
    /// Propagates store errors.
    pub fn preload_one(&mut self, key: &[u8], value_bytes: u64) -> Result<(), StoreError> {
        self.store
            .set(key, vec![0xAB; stored_len(value_bytes) as usize], None, 0)
            .map(|_| ())
    }

    /// Device bytes moved since the last counter reset.
    pub fn device_bytes(&self) -> u64 {
        self.memory.device_bytes()
    }

    /// Device bytes split `(DRAM tier, flash array)` since the last
    /// counter reset. Single-tier stacks report everything on their own
    /// tier, so the two always sum to [`CoreSim::device_bytes`].
    pub fn device_tier_bytes(&self) -> (u64, u64) {
        self.memory.device_tier_bytes()
    }

    /// A snapshot of the hybrid DRAM tier's counters, if this core runs
    /// on a Helios-style memory; `None` for pure Mercury/Iridium.
    pub fn tier_stats(&self) -> Option<TierSnapshot> {
        match &self.memory {
            StackMemory::Hybrid { tier, .. } => Some(tier.snapshot()),
            _ => None,
        }
    }

    /// Wire payload bytes exchanged since the last counter reset.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Resets the bandwidth counters (not the caches or the store).
    pub fn reset_counters(&mut self) {
        self.memory.reset_counters();
        self.wire_bytes = 0;
    }

    /// Runs a phase whose stream (if any) targets the store device.
    fn run_store(&mut self, spec: &PhaseSpec) -> PhaseResult {
        self.memory.run_phase(&mut self.engine, spec, false)
    }

    /// Runs a phase whose stream (if any) targets the packet buffers.
    fn run_buffer(&mut self, spec: &PhaseSpec) -> PhaseResult {
        self.memory.run_phase(&mut self.engine, spec, true)
    }

    /// Converts a store-space byte offset to a device line address.
    fn store_line(offset: u64) -> u64 {
        STORE_BASE_LINE + offset / densekv_mem::LINE_BYTES
    }

    /// Executes one request end-to-end and returns its timing.
    pub fn execute(&mut self, request: &Request) -> RequestTiming {
        self.execute_breakdown(request).0
    }

    /// Executes one request and returns its timing together with the
    /// per-phase decomposition of the round trip. [`CoreSim::execute`]
    /// is this call with the breakdown discarded — both run the same
    /// code, so observed and unobserved executions are identical.
    pub fn execute_breakdown(&mut self, request: &Request) -> (RequestTiming, PhaseBreakdown) {
        self.execute_parts(request.op, &request.key, request.value_bytes)
    }

    /// [`CoreSim::execute_breakdown`] without a materialized
    /// [`Request`]: slot-based drivers (the sweeps and the open-loop
    /// runner) pass key bytes straight out of their request-slot arena,
    /// so no per-request `Vec` allocation happens on the hot path.
    pub fn execute_parts(
        &mut self,
        op: Op,
        key: &[u8],
        value_bytes: u64,
    ) -> (RequestTiming, PhaseBreakdown) {
        let key_len = key.len() as u64;
        let sizes = match op {
            Op::Get => MessageSizes::get(key_len, value_bytes),
            Op::Put => MessageSizes::put(key_len, value_bytes),
        };

        // --- The store operation itself (real data structures) runs
        // first: the store never consults the timing models, so hoisting
        // it ahead of the phase walk is observable-neutral — and its
        // trace parameterizes the phase specs.
        let mut trace = std::mem::take(&mut self.trace_scratch);
        let hit = match op {
            Op::Get => self.store.get_traced(key, 0, &mut trace).is_some(),
            Op::Put => {
                match self
                    .store
                    .set(key, vec![0xCD; stored_len(value_bytes) as usize], None, 0)
                {
                    Ok(set) => {
                        trace = set.trace;
                        true
                    }
                    Err(_) => {
                        trace = AccessTrace::default();
                        false
                    }
                }
            }
        };

        // --- Receive path: kernel RX + payload landing in buffers.
        let rx = self.config.tcp.rx_cost(sizes.request_frames());
        let rx_result = self.run_buffer(&PhaseSpec {
            name: "net-rx",
            instructions: rx.instructions,
            ifetch_footprint_lines: 3_000,
            ifetch_per_kinstr: 12,
            kernel_refs: rx.kernel_refs,
            store_refs: Vec::new(),
            stream: Some(StreamRef {
                start_line: BUFFER_BASE_LINE,
                lines: lines_for_bytes(sizes.request_payload),
                kind: AccessKind::Write,
            }),
            uncached_ops: rx.uncached_ops,
        });

        // --- Protocol parse.
        let parse_result = self.run_buffer(&PhaseSpec {
            name: "parse",
            instructions: PARSE_INSTR,
            ifetch_footprint_lines: 200,
            ifetch_per_kinstr: 6,
            kernel_refs: 4,
            store_refs: Vec::new(),
            stream: None,
            uncached_ops: 0,
        });

        // --- Key hash.
        let hash_result = self.run_buffer(&PhaseSpec {
            name: "hash",
            instructions: hash_instructions(key.len()),
            ifetch_footprint_lines: 64,
            ifetch_per_kinstr: 2,
            kernel_refs: 0,
            store_refs: Vec::new(),
            stream: None,
            uncached_ops: 0,
        });

        // --- Store metadata + value movement, priced from the trace.
        let (store_result, copy_result) = match op {
            Op::Get => self.get_phases(&trace, value_bytes),
            Op::Put => self.put_phases(&trace, value_bytes),
        };

        // --- Transmit path: kernel TX + NIC DMA out of the buffers.
        let tx = self.config.tcp.tx_cost(sizes.response_frames());
        let tx_result = self.run_buffer(&PhaseSpec {
            name: "net-tx",
            instructions: tx.instructions,
            ifetch_footprint_lines: 2_500,
            ifetch_per_kinstr: 12,
            kernel_refs: tx.kernel_refs,
            store_refs: Vec::new(),
            stream: None,
            uncached_ops: tx.uncached_ops,
        });
        // NIC DMA drains the response from the buffers: bandwidth, not
        // core stall (it overlaps wire serialization).
        let dma_lines = lines_for_bytes(sizes.response_payload);
        for i in 0..dma_lines {
            self.memory.dma_buffer_line(BUFFER_BASE_LINE + i);
        }

        self.wire_bytes += sizes.request_payload + sizes.response_payload;

        let breakdown = PhaseBreakdown {
            client_overhead: self.config.client_overhead,
            req_wire: self.config.wire.one_way(sizes.request_payload),
            req_nic: self.mac.message_latency(sizes.request_frames()),
            net_rx: rx_result.time,
            parse: parse_result.time,
            hash: hash_result.time,
            store_op: store_result.time,
            value_copy: copy_result.time,
            net_tx: tx_result.time,
            resp_nic: self.mac.message_latency(sizes.response_frames()),
            resp_wire: self.config.wire.one_way(sizes.response_payload),
        };
        let timing = RequestTiming {
            rtt: breakdown.total(),
            server: breakdown.server(),
            network: breakdown.net_rx + breakdown.net_tx + breakdown.value_copy,
            store: breakdown.parse + breakdown.store_op,
            hash: breakdown.hash,
            hit,
        };

        self.trace_scratch = trace;
        (timing, breakdown)
    }

    /// Executes a batched multi-GET (`get k1 k2 …`): one network
    /// round-trip, one parse, then per-key hash/lookup/copy work. This is
    /// the classic Memcached batching optimization — with ~87 % of a
    /// small request spent in the network stack (Fig. 4), batching
    /// amortizes exactly the dominant cost.
    ///
    /// Returns the timing of the whole exchange plus the number of hits.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty.
    pub fn execute_multiget(&mut self, keys: &[Vec<u8>], value_bytes: u64) -> (RequestTiming, u32) {
        assert!(!keys.is_empty(), "multiget needs at least one key");
        let key_len = keys[0].len() as u64;
        let sizes = MessageSizes::multiget(key_len, value_bytes, keys.len() as u64);

        let rx = self.config.tcp.rx_cost(sizes.request_frames());
        let rx_result = self.run_buffer(&PhaseSpec {
            name: "net-rx",
            instructions: rx.instructions,
            ifetch_footprint_lines: 3_000,
            ifetch_per_kinstr: 12,
            kernel_refs: rx.kernel_refs,
            store_refs: Vec::new(),
            stream: Some(StreamRef {
                start_line: BUFFER_BASE_LINE,
                lines: lines_for_bytes(sizes.request_payload),
                kind: AccessKind::Write,
            }),
            uncached_ops: rx.uncached_ops,
        });
        let parse_result = self.run_buffer(&PhaseSpec {
            name: "parse",
            instructions: PARSE_INSTR + 200 * (keys.len() as u64 - 1),
            ifetch_footprint_lines: 200,
            ifetch_per_kinstr: 6,
            kernel_refs: 4,
            store_refs: Vec::new(),
            stream: None,
            uncached_ops: 0,
        });

        let mut hash_time = Duration::ZERO;
        let mut store_time = Duration::ZERO;
        let mut copy_time = Duration::ZERO;
        let mut hits = 0;
        for key in keys {
            let hash_result = self.run_buffer(&PhaseSpec {
                name: "hash",
                instructions: hash_instructions(key.len()),
                ifetch_footprint_lines: 64,
                ifetch_per_kinstr: 2,
                kernel_refs: 0,
                store_refs: Vec::new(),
                stream: None,
                uncached_ops: 0,
            });
            hash_time += hash_result.time;
            let mut trace = std::mem::take(&mut self.trace_scratch);
            let hit = self.store.get_traced(key, 0, &mut trace).is_some();
            let (store_result, copy_result) = self.get_phases(&trace, value_bytes);
            self.trace_scratch = trace;
            store_time += store_result.time;
            copy_time += copy_result.time;
            if hit {
                hits += 1;
            }
        }

        let tx = self.config.tcp.tx_cost(sizes.response_frames());
        let tx_result = self.run_buffer(&PhaseSpec {
            name: "net-tx",
            instructions: tx.instructions,
            ifetch_footprint_lines: 2_500,
            ifetch_per_kinstr: 12,
            kernel_refs: tx.kernel_refs,
            store_refs: Vec::new(),
            stream: None,
            uncached_ops: tx.uncached_ops,
        });
        for i in 0..lines_for_bytes(sizes.response_payload) {
            self.memory.dma_buffer_line(BUFFER_BASE_LINE + i);
        }
        self.wire_bytes += sizes.request_payload + sizes.response_payload;

        let server = rx_result.time
            + parse_result.time
            + hash_time
            + store_time
            + copy_time
            + tx_result.time;
        let rtt = self.config.client_overhead
            + self.config.wire.one_way(sizes.request_payload)
            + self.mac.message_latency(sizes.request_frames())
            + server
            + self.mac.message_latency(sizes.response_frames())
            + self.config.wire.one_way(sizes.response_payload);
        (
            RequestTiming {
                rtt,
                server,
                network: rx_result.time + tx_result.time + copy_time,
                store: parse_result.time + store_time,
                hash: hash_time,
                hit: hits == keys.len() as u32,
            },
            hits,
        )
    }

    /// GET phase walk: metadata refs and value stream priced from the
    /// [`AccessTrace`] the already-executed lookup produced.
    fn get_phases(&mut self, trace: &AccessTrace, value_bytes: u64) -> (PhaseResult, PhaseResult) {
        let metadata: Vec<u64> = trace.metadata_offsets().map(Self::store_line).collect();
        let store_result = self.run_store(&PhaseSpec {
            name: "store-get",
            instructions: GET_STORE_INSTR,
            ifetch_footprint_lines: 1_500,
            ifetch_per_kinstr: 10,
            kernel_refs: 6,
            store_refs: metadata,
            stream: None,
            uncached_ops: 0,
        });

        // Value moves store -> CPU -> socket buffer.
        let mut copy_result = PhaseResult::default();
        if let Some((offset, len)) = trace.value {
            let lines = lines_for_bytes(len.max(value_bytes));
            let read = self.run_store(&PhaseSpec {
                name: "value-copy",
                instructions: COPY_INSTR_PER_LINE * lines,
                ifetch_footprint_lines: 64,
                ifetch_per_kinstr: 2,
                kernel_refs: 0,
                store_refs: Vec::new(),
                stream: Some(StreamRef {
                    start_line: Self::store_line(offset),
                    lines,
                    kind: AccessKind::Read,
                }),
                uncached_ops: 0,
            });
            let write = self.run_buffer(&PhaseSpec {
                name: "value-copy",
                instructions: 0,
                ifetch_footprint_lines: 64,
                ifetch_per_kinstr: 2,
                kernel_refs: 0,
                store_refs: Vec::new(),
                stream: Some(StreamRef {
                    start_line: BUFFER_BASE_LINE,
                    lines,
                    kind: AccessKind::Write,
                }),
                uncached_ops: 0,
            });
            copy_result = read;
            copy_result.merge(&write);
        }
        (store_result, copy_result)
    }

    /// PUT phase walk: metadata refs + metadata writes + value stream
    /// priced from the [`AccessTrace`] the already-executed insert
    /// produced.
    fn put_phases(&mut self, trace: &AccessTrace, value_bytes: u64) -> (PhaseResult, PhaseResult) {
        let metadata: Vec<u64> = trace.metadata_offsets().map(Self::store_line).collect();
        // Metadata updates dirty a few lines; charge them as a short
        // write burst at the head of the item.
        let first_meta = metadata.first().copied().unwrap_or(0);
        let store_result = self.run_store(&PhaseSpec {
            name: "store-put",
            instructions: PUT_STORE_INSTR,
            ifetch_footprint_lines: 1_800,
            ifetch_per_kinstr: 10,
            kernel_refs: 10,
            store_refs: metadata,
            stream: Some(StreamRef {
                start_line: first_meta,
                lines: PUT_METADATA_WRITES as u64,
                kind: AccessKind::Write,
            }),
            uncached_ops: 0,
        });

        let mut copy_result = PhaseResult::default();
        if let Some((offset, len)) = trace.value {
            let lines = lines_for_bytes(len.max(value_bytes));
            // Read the payload out of the socket buffer...
            let read = self.run_buffer(&PhaseSpec {
                name: "value-copy",
                instructions: COPY_INSTR_PER_LINE * lines,
                ifetch_footprint_lines: 64,
                ifetch_per_kinstr: 2,
                kernel_refs: 0,
                store_refs: Vec::new(),
                stream: Some(StreamRef {
                    start_line: BUFFER_BASE_LINE,
                    lines,
                    kind: AccessKind::Read,
                }),
                uncached_ops: 0,
            });
            // ...and write it into the item's chunk. On Iridium the
            // write goes through the FTL as whole-page programs (with
            // garbage collection in the loop); on Mercury it streams
            // through the DRAM.
            let write_bytes = len.max(value_bytes);
            let write = match self.memory.ftl_value_write(offset, write_bytes) {
                Some(ftl_latency) => PhaseResult {
                    time: ftl_latency,
                    busy: Duration::ZERO,
                    stall: ftl_latency,
                    mem_refs: lines,
                    l2_hits: 0,
                    mem_bytes: 0, // the FTL's device counter tracks bytes
                },
                None => self.run_store(&PhaseSpec {
                    name: "value-copy",
                    instructions: 0,
                    ifetch_footprint_lines: 64,
                    ifetch_per_kinstr: 2,
                    kernel_refs: 0,
                    store_refs: Vec::new(),
                    stream: Some(StreamRef {
                        start_line: Self::store_line(offset),
                        lines,
                        kind: AccessKind::Write,
                    }),
                    uncached_ops: 0,
                }),
            };
            copy_result = read;
            copy_result.merge(&write);
        }
        (store_result, copy_result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get_request(size: u64) -> Request {
        Request {
            op: Op::Get,
            key: densekv_workload::key_bytes(1),
            value_bytes: size,
        }
    }

    fn put_request(size: u64) -> Request {
        Request {
            op: Op::Put,
            key: densekv_workload::key_bytes(1),
            value_bytes: size,
        }
    }

    fn warmed(config: CoreSimConfig, size: u64) -> CoreSim {
        let mut core = CoreSim::new(config).unwrap();
        core.preload(size, 16).unwrap();
        for _ in 0..300 {
            core.execute(&get_request(size));
        }
        core.reset_counters();
        core
    }

    #[test]
    fn breakdown_phases_tile_the_rtt() {
        let mut core = warmed(CoreSimConfig::mercury_a7(), 1024);
        for request in [get_request(1024), put_request(1024)] {
            let (timing, b) = core.execute_breakdown(&request);
            assert_eq!(b.total(), timing.rtt, "phases must sum to the RTT");
            assert_eq!(b.server(), timing.server);
            let phase_sum: Duration = b.phases().iter().map(|&(_, d)| d).sum();
            assert_eq!(phase_sum, timing.rtt);
            // Every named phase is present exactly once.
            assert_eq!(b.phases().len(), 11);
        }
        // The executed requests exercised the cache hierarchy.
        let cache = core.cache_stats();
        assert!(cache.l1i.hits + cache.l1i.misses > 0);
        assert!(cache.l2.expect("A7 config has an L2").hits > 0);
    }

    #[test]
    fn a7_mercury_64b_get_near_11ktps() {
        // Table 4 calibration: 8.44 MTPS / 768 cores = 11.0 KTPS/core.
        let mut core = warmed(CoreSimConfig::mercury_a7(), 64);
        let t = core.execute(&get_request(64));
        assert!(t.hit);
        let tps = 1.0 / t.rtt.as_secs_f64();
        assert!(
            (9_000.0..13_500.0).contains(&tps),
            "A7 Mercury 64 B GET: {tps:.0} TPS (rtt {})",
            t.rtt
        );
    }

    #[test]
    fn a15_beats_a7_by_2_to_3x() {
        let mut a7 = warmed(CoreSimConfig::mercury_a7(), 64);
        let mut a15 = warmed(
            CoreSimConfig::mercury(CoreConfig::a15_1ghz(), true, Duration::from_nanos(10)),
            64,
        );
        let t7 = a7.execute(&get_request(64)).rtt.as_secs_f64();
        let t15 = a15.execute(&get_request(64)).rtt.as_secs_f64();
        let ratio = t7 / t15;
        assert!(
            (1.8..3.5).contains(&ratio),
            "A15 should be ~2.5-3x the A7: {ratio:.2}"
        );
    }

    #[test]
    fn iridium_a7_64b_get_near_5ktps() {
        // Table 4: 16.49 MTPS / 3072 cores = 5.4 KTPS/core.
        let mut core = warmed(CoreSimConfig::iridium_a7(), 64);
        let t = core.execute(&get_request(64));
        let tps = 1.0 / t.rtt.as_secs_f64();
        assert!(
            (4_000.0..7_500.0).contains(&tps),
            "A7 Iridium 64 B GET: {tps:.0} TPS (rtt {})",
            t.rtt
        );
    }

    #[test]
    fn iridium_put_below_about_1ktps() {
        // §6.2 / Fig. 6: flash PUTs average below ~1 KTPS.
        let mut core = warmed(CoreSimConfig::iridium_a7(), 64);
        let t = core.execute(&put_request(64));
        let tps = 1.0 / t.rtt.as_secs_f64();
        assert!(tps < 1_600.0, "Iridium 64 B PUT: {tps:.0} TPS");
    }

    #[test]
    fn helios_zero_tier_matches_iridium_exactly() {
        // Degenerate limit: a Helios core with a 0-byte DRAM tier is an
        // Iridium core, request for request.
        let mut iridium = CoreSim::new(CoreSimConfig::iridium_a7()).unwrap();
        let mut helios = CoreSim::new(CoreSimConfig::helios_a7(0)).unwrap();
        iridium.preload(256, 16).unwrap();
        helios.preload(256, 16).unwrap();
        for i in 0..50 {
            let request = if i % 5 == 0 {
                put_request(256)
            } else {
                get_request(256)
            };
            let a = iridium.execute(&request);
            let b = helios.execute(&request);
            assert_eq!(a, b, "request {i} diverged");
        }
        assert_eq!(iridium.device_bytes(), helios.device_bytes());
    }

    #[test]
    fn helios_warm_tier_sits_between_iridium_and_mercury() {
        // A tier larger than the touched working set serves re-references
        // at DRAM speed, so warm GETs leave flash latency behind.
        let mut iridium = warmed(CoreSimConfig::iridium_a7(), 256);
        let mut helios = warmed(CoreSimConfig::helios_a7(64 << 20), 256);
        let mut mercury = warmed(CoreSimConfig::mercury_a7(), 256);
        let flash = iridium.execute(&get_request(256)).rtt;
        let hybrid = helios.execute(&get_request(256)).rtt;
        let dram = mercury.execute(&get_request(256)).rtt;
        assert!(
            hybrid < flash,
            "warm Helios GET ({hybrid}) should beat Iridium ({flash})"
        );
        assert!(hybrid >= dram, "Helios cannot beat pure DRAM ({dram})");
        assert!(
            hybrid.as_secs_f64() < dram.as_secs_f64() * 1.01,
            "warm hits should converge to Mercury speed ({hybrid} vs {dram})"
        );
        let stats = helios.tier_stats().expect("hybrid core exposes tier stats");
        assert!(
            stats.hit_rate() > 0.9,
            "warm tier hit rate {}",
            stats.hit_rate()
        );
        let (dram_bytes, flash_bytes) = helios.device_tier_bytes();
        assert_eq!(dram_bytes + flash_bytes, helios.device_bytes());
        assert!(dram_bytes > 0);
    }

    #[test]
    fn fig4_network_dominates_small_gets() {
        // Fig. 4a: ~87% network / ~10% store / 2-3% hash below 4 KB.
        let mut core = warmed(
            CoreSimConfig::mercury(CoreConfig::a15_1ghz(), true, Duration::from_nanos(10)),
            256,
        );
        let t = core.execute(&get_request(256));
        let total = t.server.as_secs_f64();
        let net = t.network.as_secs_f64() / total;
        let store = t.store.as_secs_f64() / total;
        let hash = t.hash.as_secs_f64() / total;
        assert!((0.75..0.95).contains(&net), "network share {net:.2}");
        assert!((0.04..0.2).contains(&store), "store share {store:.2}");
        assert!(hash < 0.08, "hash share {hash:.2}");
    }

    #[test]
    fn put_spends_more_in_store_than_get() {
        let mut core = warmed(CoreSimConfig::mercury_a7(), 1024);
        let g = core.execute(&get_request(1024));
        let p = core.execute(&put_request(1024));
        assert!(p.store > g.store, "Fig. 4b: PUT metadata work is larger");
    }

    #[test]
    fn larger_values_take_longer() {
        let mut core = warmed(CoreSimConfig::mercury_a7(), 64);
        core.preload(1 << 16, 4).unwrap();
        let small = core.execute(&get_request(64)).rtt;
        let big = core
            .execute(&Request {
                op: Op::Get,
                key: densekv_workload::key_bytes(2),
                value_bytes: 1 << 16,
            })
            .rtt;
        assert!(big > small * 2, "64 KB ({big}) vs 64 B ({small})");
    }

    #[test]
    fn memory_latency_sensitivity_without_l2() {
        let fast = {
            let mut c = warmed(
                CoreSimConfig::mercury(CoreConfig::a7_1ghz(), false, Duration::from_nanos(10)),
                64,
            );
            c.execute(&get_request(64)).rtt
        };
        let slow = {
            let mut c = warmed(
                CoreSimConfig::mercury(CoreConfig::a7_1ghz(), false, Duration::from_nanos(100)),
                64,
            );
            c.execute(&get_request(64)).rtt
        };
        let ratio = slow.as_secs_f64() / fast.as_secs_f64();
        assert!(
            ratio > 1.3,
            "no-L2 cores must feel DRAM latency (Fig. 5d): {ratio:.2}"
        );
    }

    #[test]
    fn l2_insulates_from_memory_latency() {
        let fast = {
            let mut c = warmed(CoreSimConfig::mercury_a7(), 64);
            c.execute(&get_request(64)).rtt
        };
        let slow = {
            let mut c = warmed(
                CoreSimConfig::mercury(CoreConfig::a7_1ghz(), true, Duration::from_nanos(100)),
                64,
            );
            c.execute(&get_request(64)).rtt
        };
        let ratio = slow.as_secs_f64() / fast.as_secs_f64();
        assert!(
            ratio < 1.15,
            "with an L2 the Fig. 5c curves are nearly flat: {ratio:.2}"
        );
    }

    #[test]
    fn iridium_without_l2_collapses() {
        // §6.2: removing the L2 yields average TPS below 100.
        let mut core = CoreSim::new(CoreSimConfig::iridium(
            CoreConfig::a7_1ghz(),
            false,
            Duration::from_micros(10),
        ))
        .unwrap();
        core.preload(64, 16).unwrap();
        for _ in 0..5 {
            core.execute(&get_request(64));
        }
        let t = core.execute(&get_request(64));
        let tps = 1.0 / t.rtt.as_secs_f64();
        assert!(tps < 150.0, "no-L2 Iridium: {tps:.0} TPS");
    }

    #[test]
    fn counters_track_traffic() {
        let mut core = warmed(CoreSimConfig::mercury_a7(), 4096);
        core.execute(&get_request(4096));
        assert!(core.device_bytes() > 4096, "value + buffers moved");
        assert!(core.wire_bytes() > 4096);
        core.reset_counters();
        assert_eq!(core.device_bytes(), 0);
        assert_eq!(core.wire_bytes(), 0);
    }

    #[test]
    fn get_miss_is_cheap_and_counted() {
        let mut core = warmed(CoreSimConfig::mercury_a7(), 64);
        let t = core.execute(&Request {
            op: Op::Get,
            key: b"never-stored".to_vec(),
            value_bytes: 64,
        });
        assert!(!t.hit);
        assert_eq!(core.store_stats().get_misses, 1);
    }

    #[test]
    fn multiget_amortizes_the_network_stack() {
        let mut core = warmed(CoreSimConfig::mercury_a7(), 64);
        core.preload(64, 32).unwrap();
        let keys: Vec<Vec<u8>> = (0..16).map(densekv_workload::key_bytes).collect();
        // Warm the batched path too.
        for _ in 0..30 {
            core.execute_multiget(&keys, 64);
        }
        let single = core.execute(&get_request(1)).rtt;
        let (batched, hits) = core.execute_multiget(&keys, 64);
        assert_eq!(hits, 16);
        let per_key = batched.rtt.as_secs_f64() / 16.0;
        let speedup = single.as_secs_f64() / per_key;
        assert!(
            speedup > 3.0,
            "batching 16 GETs should amortize the dominant network cost: {speedup:.2}x"
        );
        // But not 16x: per-key store work and response bytes remain.
        assert!(speedup < 16.0, "speedup {speedup:.2}x");
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn empty_multiget_panics() {
        let mut core = CoreSim::new(CoreSimConfig::mercury_a7()).unwrap();
        core.execute_multiget(&[], 64);
    }
}
