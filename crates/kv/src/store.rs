//! The key-value store: Memcached 1.4 semantics over the slab allocator,
//! hash table, and eviction policies.
//!
//! The simulator's operations return (alongside their result) an
//! [`AccessTrace`] — the byte offsets of the hash bucket, chain entries,
//! item header, and value the operation touched: [`KvStore::get_traced`]
//! for GETs, [`SetOutcome::trace`] for stores. The simulator feeds those
//! addresses to the cache and memory-device models, making the timing
//! model execution-driven. The protocol's [`KvStore::get`] skips the
//! trace and borrows the value in place.

use core::fmt;

use crate::hash::jenkins_oaat;
use crate::lru::{EvictionKind, EvictionPolicy};
use crate::slab::{SlabAddr, SlabAllocator, SlabError};
use crate::table::HashTable;

/// Per-item metadata overhead, matching Memcached's `item` header plus
/// chain pointers (48 B) — keys and values share the item's slab chunk.
pub const ITEM_HEADER_BYTES: u64 = 48;

/// Maximum key length (Memcached: 250 bytes).
pub const MAX_KEY_BYTES: usize = 250;

/// The one item-size policy every layer shares: an item's footprint
/// ([`ITEM_HEADER_BYTES`] + key + value) must fit the slab's largest
/// chunk — one 1 MB page. The protocol's
/// [`crate::protocol::MAX_VALUE_BYTES`] caps the `set` nbytes field at
/// the same 1 MB (a value that passes the parser can still push the
/// footprint past the chunk and fail here), and `densekv-engine`'s
/// overflow allocations enforce this same bound above its 4 KB top
/// tier. Breaching it returns [`StoreError::ValueTooLarge`], rendered
/// as `SERVER_ERROR object too large for cache` in both backends.
pub const MAX_ITEM_FOOTPRINT_BYTES: u64 = crate::slab::PAGE_BYTES;

/// Errors returned by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Key exceeds [`MAX_KEY_BYTES`].
    KeyTooLong {
        /// Offending key length.
        len: usize,
    },
    /// The item (header + key + value) exceeds the largest slab chunk.
    ValueTooLarge {
        /// Total item bytes requested.
        bytes: u64,
    },
    /// Memory is exhausted and eviction could not make room.
    OutOfMemory,
    /// CAS token didn't match (the item changed since `gets`).
    CasMismatch,
    /// Target does not exist (CAS, `replace`, `append`, `incr`…).
    NotFound,
    /// `add` refused because the key already exists.
    Exists,
    /// `incr`/`decr` on a value that is not an unsigned decimal.
    NotNumeric,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::KeyTooLong { len } => write!(f, "key of {len} bytes exceeds 250"),
            StoreError::ValueTooLarge { bytes } => {
                write!(f, "item of {bytes} bytes exceeds the largest slab class")
            }
            StoreError::OutOfMemory => write!(f, "out of memory after eviction attempts"),
            StoreError::CasMismatch => write!(f, "compare-and-swap token mismatch"),
            StoreError::NotFound => write!(f, "key not found"),
            StoreError::Exists => write!(f, "key already exists"),
            StoreError::NotNumeric => write!(f, "value is not an unsigned decimal"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Store configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreConfig {
    /// Memory budget for item storage (slab arena), bytes.
    pub memory_bytes: u64,
    /// Eviction policy (per slab class, as in Memcached).
    pub eviction: EvictionKind,
    /// Initial hash-table buckets.
    pub initial_buckets: u64,
    /// Evict when full (Memcached `-M` disables this; we default on).
    pub evict_on_full: bool,
}

impl StoreConfig {
    /// A config with the given memory budget and defaults elsewhere.
    pub fn with_capacity(memory_bytes: u64) -> Self {
        StoreConfig {
            memory_bytes,
            eviction: EvictionKind::StrictLru,
            initial_buckets: 1024,
            evict_on_full: true,
        }
    }
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig::with_capacity(64 << 20)
    }
}

/// Counters exposed by `stats`, mirroring Memcached's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// GETs that found a live item.
    pub get_hits: u64,
    /// GETs that missed (absent or expired).
    pub get_misses: u64,
    /// Successful SETs.
    pub sets: u64,
    /// Successful deletes.
    pub deletes: u64,
    /// Items evicted to make room.
    pub evictions: u64,
    /// Items dropped because their TTL lapsed (lazy expiry).
    pub expirations: u64,
    /// Successful `touch`es (TTL updates on live items).
    pub touches: u64,
    /// Value bytes served by GET hits (the store-side `bytes_read`).
    pub bytes_read: u64,
    /// Value bytes accepted by successful stores (`bytes_written`).
    pub bytes_written: u64,
    /// Item bytes (headers + keys + values) freed by lazy expiry —
    /// distinguishes TTL churn from eviction pressure.
    pub expired_bytes: u64,
    /// Live items.
    pub items: u64,
    /// Bytes of live item data (keys + values + headers).
    pub bytes: u64,
}

impl StoreStats {
    /// Fraction of GETs that hit; `1.0` before any GET has been issued
    /// (an idle store has not missed anything).
    pub fn hit_rate(&self) -> f64 {
        let total = self.get_hits + self.get_misses;
        if total == 0 {
            1.0
        } else {
            self.get_hits as f64 / total as f64
        }
    }

    /// Adds `other`'s counters and gauges into these, field by field:
    /// how a striped store folds its per-stripe stats into one.
    pub fn merge(&mut self, other: &StoreStats) {
        self.get_hits += other.get_hits;
        self.get_misses += other.get_misses;
        self.sets += other.sets;
        self.deletes += other.deletes;
        self.evictions += other.evictions;
        self.expirations += other.expirations;
        self.touches += other.touches;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.expired_bytes += other.expired_bytes;
        self.items += other.items;
        self.bytes += other.bytes;
    }

    /// Counter change since an `earlier` snapshot of the same store.
    ///
    /// Monotonic counters subtract; the instantaneous gauges (`items`,
    /// `bytes`) carry this snapshot's value. Lets a timeline sampler turn
    /// lifetime counters into per-interval rates.
    pub fn delta(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            get_hits: self.get_hits - earlier.get_hits,
            get_misses: self.get_misses - earlier.get_misses,
            sets: self.sets - earlier.sets,
            deletes: self.deletes - earlier.deletes,
            evictions: self.evictions - earlier.evictions,
            expirations: self.expirations - earlier.expirations,
            touches: self.touches - earlier.touches,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            expired_bytes: self.expired_bytes - earlier.expired_bytes,
            items: self.items,
            bytes: self.bytes,
        }
    }
}

/// Byte offsets (within the store's address space) an operation touched.
///
/// Layout: hash-table buckets live at the front of the address space
/// (8 bytes per bucket); the slab arena follows at
/// [`AccessTrace::SLAB_REGION_OFFSET`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessTrace {
    /// Offset of the hash bucket head examined.
    pub bucket_offset: u64,
    /// Offsets of the item headers walked along the chain (including the
    /// matching item, if any).
    pub chain_offsets: Vec<u64>,
    /// Offset and length of the value read or written, if any.
    pub value: Option<(u64, u64)>,
}

impl AccessTrace {
    /// Where the slab arena starts in the store address space (1 GB in,
    /// leaving room for any table size we simulate).
    pub const SLAB_REGION_OFFSET: u64 = 1 << 30;

    /// All metadata offsets (bucket + chain walk) in access order.
    pub fn metadata_offsets(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.bucket_offset).chain(self.chain_offsets.iter().copied())
    }
}

/// A live item.
#[derive(Debug, Clone)]
struct Item {
    key: Vec<u8>,
    value: Vec<u8>,
    flags: u32,
    /// Absolute expiry in seconds; `None` = immortal.
    expires_at: Option<u64>,
    cas: u64,
    addr: SlabAddr,
}

impl Item {
    fn footprint(&self) -> u64 {
        ITEM_HEADER_BYTES + self.key.len() as u64 + self.value.len() as u64
    }
}

/// A successful GET: the stored value borrowed in place, with its
/// flags and CAS token.
///
/// The borrow ties the hit to the store (and, behind a shard lock, to
/// the lock guard), so a server renders the value straight into its
/// reply buffer before unlocking — one copy per key, no owned result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetHit<'a> {
    value: &'a [u8],
    flags: u32,
    cas: u64,
}

impl<'a> GetHit<'a> {
    /// Builds a hit from its parts — how alternative backends (the
    /// [`crate::backend::StoreBackend`] implementations outside this
    /// crate) hand out GET results without access to private fields.
    pub fn new(value: &'a [u8], flags: u32, cas: u64) -> Self {
        GetHit { value, flags, cas }
    }

    /// The value bytes, as stored.
    pub fn value(&self) -> &'a [u8] {
        self.value
    }

    /// The client-opaque flags stored with the item.
    pub fn flags(&self) -> u32 {
        self.flags
    }

    /// The CAS token (for `gets`/`cas`).
    pub fn cas(&self) -> u64 {
        self.cas
    }
}

/// Outcome of a successful SET.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetOutcome {
    /// Items evicted to make room.
    pub evicted: u64,
    /// The addresses the operation touched.
    pub trace: AccessTrace,
}

/// The single-threaded store. [`crate::Striped`] splits it (or any
/// other backend) across independently locked stripes.
///
/// # Examples
///
/// ```
/// use densekv_kv::store::{KvStore, StoreConfig};
///
/// let mut store = KvStore::new(StoreConfig::with_capacity(16 << 20));
/// store.set(b"k", b"v".to_vec(), None, 0)?;
/// assert!(store.get(b"k", 0).is_some());
/// assert!(store.delete(b"k").is_some());
/// assert!(store.get(b"k", 0).is_none());
/// # Ok::<(), densekv_kv::StoreError>(())
/// ```
pub struct KvStore {
    config: StoreConfig,
    slab: SlabAllocator,
    table: HashTable,
    /// One eviction policy per slab class (Memcached keeps per-class LRU).
    policies: Vec<Box<dyn EvictionPolicy + Send>>,
    items: Vec<Option<Item>>,
    free_slots: Vec<u32>,
    stats: StoreStats,
    next_cas: u64,
}

impl fmt::Debug for KvStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KvStore")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl KvStore {
    /// Creates an empty store.
    pub fn new(config: StoreConfig) -> Self {
        let slab = SlabAllocator::new(config.memory_bytes);
        let policies = (0..slab.class_count())
            .map(|_| config.eviction.build())
            .collect();
        KvStore {
            table: HashTable::new(config.initial_buckets),
            policies,
            items: Vec::new(),
            free_slots: Vec::new(),
            stats: StoreStats::default(),
            next_cas: 1,
            slab,
            config,
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The configured memory budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.slab.arena_bytes()
    }

    /// Live items.
    pub fn len(&self) -> u64 {
        self.stats.items
    }

    /// True when the store holds no items.
    pub fn is_empty(&self) -> bool {
        self.stats.items == 0
    }

    fn bucket_offset(&self, hash: u64) -> u64 {
        (hash % self.table.bucket_count()) * 8
    }

    fn header_offset(&self, addr: SlabAddr) -> u64 {
        AccessTrace::SLAB_REGION_OFFSET + self.slab.byte_offset(addr)
    }

    fn value_offset(&self, item: &Item) -> u64 {
        self.header_offset(item.addr) + ITEM_HEADER_BYTES + item.key.len() as u64
    }

    fn is_expired(item: &Item, now: u64) -> bool {
        item.expires_at.is_some_and(|t| t <= now)
    }

    /// Looks up a live item slot, lazily expiring a stale one. With a
    /// `trace`, also records the walk into it (reusing its buffer); the
    /// protocol-only verbs pass `None` and skip the bookkeeping.
    fn lookup(
        &mut self,
        key: &[u8],
        hash: u64,
        now: u64,
        mut trace: Option<&mut AccessTrace>,
    ) -> Option<u32> {
        let items = &self.items;
        let found = self.table.find_with(hash, |slot| {
            items[slot as usize]
                .as_ref()
                .is_some_and(|item| item.key == key)
        });
        if let Some(trace) = trace.as_deref_mut() {
            trace.bucket_offset = self.bucket_offset(hash);
            trace.chain_offsets.clear();
            trace.value = None;
        }
        let slot = found.slot?;
        let item = self.items[slot as usize].as_ref().expect("found slot live");
        // Reconstruct chain-walk addresses: we log the matched item's
        // header (dependent loads along the chain are represented by the
        // probe count).
        if let Some(trace) = trace {
            let header = self.header_offset(item.addr);
            for _ in 1..found.probes {
                // Probed-but-unmatched headers: charge one header line each;
                // we use the matched item's neighbourhood as a proxy address.
                trace.chain_offsets.push(header);
            }
            trace.chain_offsets.push(header);
        }
        if Self::is_expired(item, now) {
            let freed = item.footprint();
            self.remove_slot(slot, hash);
            self.stats.expirations += 1;
            self.stats.expired_bytes += freed;
            return None;
        }
        Some(slot)
    }

    /// The GET path [`KvStore::get`] and [`KvStore::get_traced`] share:
    /// one lookup with lazy expiry, the LRU touch, and the hit/miss
    /// counters. Returns the live slot on a hit.
    fn get_slot(&mut self, key: &[u8], now: u64, trace: Option<&mut AccessTrace>) -> Option<u32> {
        let hash = jenkins_oaat(key);
        let Some(slot) = self.lookup(key, hash, now, trace) else {
            self.stats.get_misses += 1;
            return None;
        };
        let item = self.items[slot as usize].as_ref().expect("live");
        self.policies[item.addr.class as usize].on_access(slot);
        self.stats.get_hits += 1;
        self.stats.bytes_read += item.value.len() as u64;
        Some(slot)
    }

    /// Fetches `key`, borrowing the stored value on a live hit.
    pub fn get(&mut self, key: &[u8], now: u64) -> Option<GetHit<'_>> {
        let slot = self.get_slot(key, now, None)?;
        let item = self.items[slot as usize].as_ref().expect("live");
        Some(GetHit::new(&item.value, item.flags, item.cas))
    }

    /// [`KvStore::get`] for timing-model callers: identical side
    /// effects (lookup walk, LRU touch, stats), plus the addresses the
    /// lookup touched written into `trace`. Returns the value length.
    pub fn get_traced(&mut self, key: &[u8], now: u64, trace: &mut AccessTrace) -> Option<u64> {
        let slot = self.get_slot(key, now, Some(&mut *trace))?;
        let item = self.items[slot as usize].as_ref().expect("live");
        trace.value = Some((self.value_offset(item), item.value.len() as u64));
        Some(item.value.len() as u64)
    }

    /// Stores `key` → `value` with optional TTL (seconds from `now`).
    ///
    /// # Errors
    ///
    /// [`StoreError::KeyTooLong`], [`StoreError::ValueTooLarge`], or
    /// [`StoreError::OutOfMemory`] when eviction (if enabled) cannot make
    /// room.
    pub fn set(
        &mut self,
        key: &[u8],
        value: Vec<u8>,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<SetOutcome, StoreError> {
        self.set_with_flags(key, value, 0, ttl_secs, now)
    }

    /// [`KvStore::set`] with client flags.
    ///
    /// # Errors
    ///
    /// As for [`KvStore::set`].
    pub fn set_with_flags(
        &mut self,
        key: &[u8],
        value: Vec<u8>,
        flags: u32,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<SetOutcome, StoreError> {
        if key.len() > MAX_KEY_BYTES {
            return Err(StoreError::KeyTooLong { len: key.len() });
        }
        let hash = jenkins_oaat(key);
        let footprint = ITEM_HEADER_BYTES + key.len() as u64 + value.len() as u64;

        // Replace any existing copy first (frees its chunk).
        let mut trace = AccessTrace::default();
        if let Some(slot) = self.lookup(key, hash, now, Some(&mut trace)) {
            self.remove_slot(slot, hash);
        }

        let (addr, evicted) = self.allocate_with_eviction(footprint)?;
        let cas = self.next_cas;
        self.next_cas += 1;
        let item = Item {
            key: key.to_vec(),
            value,
            flags,
            expires_at: ttl_secs.map(|t| now + t),
            cas,
            addr,
        };
        trace.value = Some((
            AccessTrace::SLAB_REGION_OFFSET
                + self.slab.byte_offset(addr)
                + ITEM_HEADER_BYTES
                + item.key.len() as u64,
            item.value.len() as u64,
        ));
        trace.chain_offsets.push(self.header_offset(addr));
        self.stats.bytes += item.footprint();
        self.stats.items += 1;
        self.stats.sets += 1;
        self.stats.bytes_written += item.value.len() as u64;

        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.items[slot as usize] = Some(item);
                slot
            }
            None => {
                self.items.push(Some(item));
                (self.items.len() - 1) as u32
            }
        };
        self.table.insert(hash, slot);
        self.policies[addr.class as usize].on_insert(slot);
        Ok(SetOutcome { evicted, trace })
    }

    /// Compare-and-swap: stores only if the item's CAS token still equals
    /// `cas`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the key is absent,
    /// [`StoreError::CasMismatch`] if the token changed, or any
    /// [`KvStore::set`] error.
    pub fn cas(
        &mut self,
        key: &[u8],
        value: Vec<u8>,
        cas: u64,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<SetOutcome, StoreError> {
        let hash = jenkins_oaat(key);
        let slot = self
            .lookup(key, hash, now, None)
            .ok_or(StoreError::NotFound)?;
        let current = self.items[slot as usize].as_ref().expect("live").cas;
        if current != cas {
            return Err(StoreError::CasMismatch);
        }
        self.set(key, value, ttl_secs, now)
    }

    /// Deletes `key`, returning its trace if it was present.
    pub fn delete(&mut self, key: &[u8]) -> Option<AccessTrace> {
        let hash = jenkins_oaat(key);
        let mut trace = AccessTrace::default();
        let slot = self.lookup(key, hash, u64::MAX.saturating_sub(1), Some(&mut trace))?;
        self.remove_slot(slot, hash);
        self.stats.deletes += 1;
        Some(trace)
    }

    /// Stores only if the key is absent (Memcached `add`).
    ///
    /// # Errors
    ///
    /// [`StoreError::Exists`] if the key is live, or any [`KvStore::set`]
    /// error.
    pub fn add(
        &mut self,
        key: &[u8],
        value: Vec<u8>,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<SetOutcome, StoreError> {
        let hash = jenkins_oaat(key);
        if self.lookup(key, hash, now, None).is_some() {
            return Err(StoreError::Exists);
        }
        self.set(key, value, ttl_secs, now)
    }

    /// Stores only if the key already exists (Memcached `replace`).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the key is absent, or any
    /// [`KvStore::set`] error.
    pub fn replace(
        &mut self,
        key: &[u8],
        value: Vec<u8>,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<SetOutcome, StoreError> {
        let hash = jenkins_oaat(key);
        if self.lookup(key, hash, now, None).is_none() {
            return Err(StoreError::NotFound);
        }
        self.set(key, value, ttl_secs, now)
    }

    /// Appends (or, with `front`, prepends) bytes to an existing value
    /// (Memcached `append`/`prepend`). Flags, TTL, and CAS advance as a
    /// store.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the key is absent, or any
    /// [`KvStore::set`] error.
    pub fn concat(
        &mut self,
        key: &[u8],
        extra: &[u8],
        front: bool,
        now: u64,
    ) -> Result<SetOutcome, StoreError> {
        let hash = jenkins_oaat(key);
        let slot = self
            .lookup(key, hash, now, None)
            .ok_or(StoreError::NotFound)?;
        let (mut value, flags, expires_at) = {
            let item = self.items[slot as usize].as_ref().expect("live");
            (item.value.clone(), item.flags, item.expires_at)
        };
        if front {
            let mut combined = extra.to_vec();
            combined.extend_from_slice(&value);
            value = combined;
        } else {
            value.extend_from_slice(extra);
        }
        let ttl = expires_at.map(|t| t.saturating_sub(now));
        self.set_with_flags(key, value, flags, ttl, now)
    }

    /// Increments (or decrements) a numeric value (Memcached
    /// `incr`/`decr`). The value must be an ASCII decimal; decrements
    /// saturate at zero, as Memcached's do.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the key is absent,
    /// [`StoreError::NotNumeric`] if the value isn't an unsigned decimal,
    /// or any [`KvStore::set`] error.
    pub fn incr_decr(
        &mut self,
        key: &[u8],
        delta: u64,
        decrement: bool,
        now: u64,
    ) -> Result<u64, StoreError> {
        let hash = jenkins_oaat(key);
        let slot = self
            .lookup(key, hash, now, None)
            .ok_or(StoreError::NotFound)?;
        let (current, flags, expires_at) = {
            let item = self.items[slot as usize].as_ref().expect("live");
            let text = std::str::from_utf8(&item.value).map_err(|_| StoreError::NotNumeric)?;
            let n: u64 = text.trim().parse().map_err(|_| StoreError::NotNumeric)?;
            (n, item.flags, item.expires_at)
        };
        let next = if decrement {
            current.saturating_sub(delta)
        } else {
            current.wrapping_add(delta)
        };
        let ttl = expires_at.map(|t| t.saturating_sub(now));
        self.set_with_flags(key, next.to_string().into_bytes(), flags, ttl, now)?;
        Ok(next)
    }

    /// Updates a live item's TTL without touching its value.
    pub fn touch(&mut self, key: &[u8], ttl_secs: Option<u64>, now: u64) -> bool {
        let hash = jenkins_oaat(key);
        match self.lookup(key, hash, now, None) {
            Some(slot) => {
                let item = self.items[slot as usize].as_mut().expect("live");
                item.expires_at = ttl_secs.map(|t| now + t);
                self.stats.touches += 1;
                true
            }
            None => false,
        }
    }

    /// Drops every item (Memcached `flush_all`).
    pub fn flush_all(&mut self) {
        let slots: Vec<u32> = self
            .items
            .iter()
            .enumerate()
            .filter_map(|(i, item)| item.as_ref().map(|_| i as u32))
            .collect();
        for slot in slots {
            let hash = {
                let item = self.items[slot as usize].as_ref().expect("live");
                jenkins_oaat(&item.key)
            };
            self.remove_slot(slot, hash);
        }
    }

    fn remove_slot(&mut self, slot: u32, hash: u64) {
        let item = self.items[slot as usize].take().expect("slot is live");
        self.table.remove(hash, slot);
        self.policies[item.addr.class as usize].on_remove(slot);
        self.slab.free(item.addr);
        self.stats.bytes -= item.footprint();
        self.stats.items -= 1;
        self.free_slots.push(slot);
    }

    /// Allocates a chunk, evicting same-class victims as needed (the
    /// Memcached strategy: eviction can only help within the class).
    fn allocate_with_eviction(&mut self, footprint: u64) -> Result<(SlabAddr, u64), StoreError> {
        let class = self
            .slab
            .class_for(footprint)
            .ok_or(StoreError::ValueTooLarge { bytes: footprint })? as usize;
        let mut evicted = 0;
        loop {
            match self.slab.allocate(footprint) {
                Ok(addr) => return Ok((addr, evicted)),
                Err(SlabError::ObjectTooLarge { requested, .. }) => {
                    return Err(StoreError::ValueTooLarge { bytes: requested })
                }
                Err(SlabError::OutOfMemory) => {
                    if !self.config.evict_on_full {
                        return Err(StoreError::OutOfMemory);
                    }
                    let Some(victim) = self.policies[class].pop_victim() else {
                        return Err(StoreError::OutOfMemory);
                    };
                    let hash = {
                        let item = self.items[victim as usize].as_ref().expect("victim live");
                        jenkins_oaat(&item.key)
                    };
                    // pop_victim already dropped it from the policy;
                    // remove_slot's on_remove is then a no-op.
                    self.remove_slot(victim, hash);
                    self.stats.evictions += 1;
                    evicted += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> KvStore {
        KvStore::new(StoreConfig::with_capacity(2 << 20))
    }

    #[test]
    fn stats_hit_rate_and_delta() {
        let mut s = small();
        assert_eq!(s.stats().hit_rate(), 1.0); // idle sentinel
        s.set(b"k", b"v".to_vec(), None, 0).unwrap();
        s.get(b"k", 0);
        let mid = s.stats();
        s.get(b"k", 0);
        s.get(b"absent", 0);
        let end = s.stats();
        assert_eq!(end.hit_rate(), 2.0 / 3.0);
        let d = end.delta(&mid);
        assert_eq!(d.get_hits, 1);
        assert_eq!(d.get_misses, 1);
        assert_eq!(d.sets, 0);
        assert_eq!(d.hit_rate(), 0.5);
        assert_eq!(d.items, end.items); // gauges carry the latest value
    }

    #[test]
    fn byte_and_expiry_counters_track_traffic() {
        let mut s = small();
        s.set(b"k", b"hello".to_vec(), None, 0).unwrap(); // 5 bytes in
        s.get(b"k", 0).unwrap(); // 5 bytes out
        s.get(b"k", 0).unwrap(); // 5 more
        assert!(s.touch(b"k", Some(10), 0));
        s.set(b"t", b"xy".to_vec(), Some(5), 0).unwrap(); // 2 bytes in
        assert!(s.get(b"t", 10).is_none(), "expired");
        let stats = s.stats();
        assert_eq!(stats.bytes_written, 7);
        assert_eq!(stats.bytes_read, 10);
        assert_eq!(stats.touches, 1);
        assert_eq!(stats.expirations, 1);
        assert_eq!(stats.expired_bytes, ITEM_HEADER_BYTES + 1 + 2);
        // Deltas subtract the monotonic counters.
        let before = stats;
        s.get(b"k", 0).unwrap();
        let d = s.stats().delta(&before);
        assert_eq!(d.bytes_read, 5);
        assert_eq!(d.bytes_written, 0);
        assert_eq!(d.touches, 0);
        assert_eq!(d.expired_bytes, 0);
    }

    #[test]
    fn set_get_roundtrip_with_flags() {
        let mut s = small();
        s.set_with_flags(b"k", b"hello".to_vec(), 99, None, 0)
            .unwrap();
        let hit = s.get(b"k", 0).unwrap();
        assert_eq!(hit.value(), b"hello");
        assert_eq!(hit.flags(), 99);
        assert_eq!(s.stats().get_hits, 1);
    }

    #[test]
    fn get_missing_counts_miss() {
        let mut s = small();
        assert!(s.get(b"nope", 0).is_none());
        assert_eq!(s.stats().get_misses, 1);
    }

    #[test]
    fn overwrite_replaces_value_and_keeps_one_item() {
        let mut s = small();
        s.set(b"k", b"one".to_vec(), None, 0).unwrap();
        s.set(b"k", b"two".to_vec(), None, 0).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(b"k", 0).unwrap().value(), b"two");
    }

    #[test]
    fn delete_removes() {
        let mut s = small();
        s.set(b"k", b"v".to_vec(), None, 0).unwrap();
        assert!(s.delete(b"k").is_some());
        assert!(s.delete(b"k").is_none());
        assert!(s.get(b"k", 0).is_none());
        assert_eq!(s.stats().items, 0);
        assert_eq!(s.stats().bytes, 0);
    }

    #[test]
    fn ttl_expires_lazily() {
        let mut s = small();
        s.set(b"k", b"v".to_vec(), Some(10), 100).unwrap();
        assert!(s.get(b"k", 105).is_some(), "still alive at 105");
        assert!(s.get(b"k", 110).is_none(), "expired at 110");
        assert_eq!(s.stats().expirations, 1);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn touch_extends_ttl() {
        let mut s = small();
        s.set(b"k", b"v".to_vec(), Some(10), 0).unwrap();
        assert!(s.touch(b"k", Some(100), 5));
        assert!(s.get(b"k", 50).is_some());
        assert!(!s.touch(b"missing", None, 0));
    }

    #[test]
    fn cas_semantics() {
        let mut s = small();
        s.set(b"k", b"v1".to_vec(), None, 0).unwrap();
        let token = s.get(b"k", 0).unwrap().cas();
        // Interleaved write bumps the token.
        s.set(b"k", b"v2".to_vec(), None, 0).unwrap();
        assert_eq!(
            s.cas(b"k", b"v3".to_vec(), token, None, 0),
            Err(StoreError::CasMismatch)
        );
        let fresh = s.get(b"k", 0).unwrap().cas();
        s.cas(b"k", b"v3".to_vec(), fresh, None, 0).unwrap();
        assert_eq!(s.get(b"k", 0).unwrap().value(), b"v3");
        assert_eq!(
            s.cas(b"absent", b"x".to_vec(), 1, None, 0),
            Err(StoreError::NotFound)
        );
    }

    #[test]
    fn key_length_enforced() {
        let mut s = small();
        let long = vec![b'a'; 251];
        assert_eq!(
            s.set(&long, b"v".to_vec(), None, 0),
            Err(StoreError::KeyTooLong { len: 251 })
        );
    }

    #[test]
    fn oversized_value_rejected() {
        let mut s = small();
        let huge = vec![0u8; (2 << 20) + 1];
        assert!(matches!(
            s.set(b"k", huge, None, 0),
            Err(StoreError::ValueTooLarge { .. })
        ));
    }

    #[test]
    fn item_footprint_boundary_at_the_largest_chunk() {
        // The shared size policy, at its exact boundary: a footprint of
        // MAX_ITEM_FOOTPRINT_BYTES stores; one byte more is rejected.
        let mut s = small();
        let fit = (MAX_ITEM_FOOTPRINT_BYTES - ITEM_HEADER_BYTES) as usize - 1;
        s.set(b"k", vec![0u8; fit], None, 0).expect("exactly fits");
        assert_eq!(
            s.set(b"k", vec![0u8; fit + 1], None, 0),
            Err(StoreError::ValueTooLarge {
                bytes: MAX_ITEM_FOOTPRINT_BYTES + 1
            })
        );
    }

    #[test]
    fn eviction_makes_room_lru_order() {
        // 2 MB arena, ~64 KB values: ~30 fit; insert 40 and confirm the
        // earliest (least recently used) were evicted.
        let mut s = small();
        let value = vec![7u8; 64 << 10];
        let mut total_evicted = 0;
        for i in 0..40 {
            let key = format!("key{i:02}");
            let out = s.set(key.as_bytes(), value.clone(), None, 0).unwrap();
            total_evicted += out.evicted;
        }
        assert!(total_evicted > 0);
        assert!(s.get(b"key39", 0).is_some(), "newest survives");
        assert!(s.get(b"key00", 0).is_none(), "oldest evicted");
        assert_eq!(s.stats().evictions, total_evicted);
    }

    #[test]
    fn eviction_disabled_returns_oom() {
        let mut cfg = StoreConfig::with_capacity(2 << 20);
        cfg.evict_on_full = false;
        let mut s = KvStore::new(cfg);
        let value = vec![0u8; 512 << 10];
        let mut result = Ok(());
        for i in 0..10 {
            if let Err(e) = s.set(format!("k{i}").as_bytes(), value.clone(), None, 0) {
                result = Err(e);
                break;
            }
        }
        assert_eq!(result, Err(StoreError::OutOfMemory));
    }

    #[test]
    fn oom_never_surfaces_while_same_class_victims_remain() {
        // The slab's retry contract, enforced at the store: with
        // eviction enabled, OutOfMemory must stay internal as long as
        // the needed class holds victims to evict — sets keep
        // succeeding indefinitely past the arena capacity.
        let mut s = small();
        let value = vec![1u8; 64 << 10];
        for i in 0..200 {
            s.set(format!("k{i}").as_bytes(), value.clone(), None, 0)
                .expect("eviction absorbs the pressure");
        }
        assert!(s.stats().evictions > 0, "capacity was really exceeded");
    }

    #[test]
    fn oom_surfaces_once_eviction_cannot_free_a_fitting_chunk() {
        // Eviction is enabled, but every resident item lives in a large
        // class: the small-class eviction policy is empty, so the store
        // must report OutOfMemory only after pop_victim finds nothing —
        // not silently evict unrelated classes.
        let mut s = small();
        let big = vec![2u8; 512 << 10];
        for i in 0..2 {
            s.set(format!("big{i}").as_bytes(), big.clone(), None, 0)
                .unwrap();
        }
        // The arena's pages are all class-assigned to the big class;
        // a small item needs a fresh page and has no victims.
        let err = s.set(b"tiny", b"x".to_vec(), None, 0).unwrap_err();
        assert_eq!(err, StoreError::OutOfMemory);
        assert_eq!(s.stats().evictions, 0, "no cross-class eviction churn");
        assert!(s.get(b"big0", 0).is_some(), "resident items survive");
    }

    #[test]
    fn get_recency_protects_from_eviction() {
        let mut s = small();
        let value = vec![3u8; 64 << 10];
        // 20 items fit in the 2 MB arena without eviction.
        for i in 0..20 {
            let out = s
                .set(format!("key{i:02}").as_bytes(), value.clone(), None, 0)
                .unwrap();
            assert_eq!(out.evicted, 0, "warmup insert {i} must not evict");
        }
        // Touch key00: it becomes the most recently used of the batch.
        assert!(s.get(b"key00", 0).is_some());
        // Force evictions; key01 (now the true LRU) must go before key00.
        for j in 0..15 {
            s.set(format!("extra{j}").as_bytes(), value.clone(), None, 0)
                .unwrap();
        }
        assert!(s.stats().evictions > 0);
        assert!(s.get(b"key00", 0).is_some(), "recently used key survives");
        assert!(s.get(b"key01", 0).is_none(), "LRU key evicted");
    }

    #[test]
    fn traces_have_distinct_regions() {
        let mut s = small();
        s.set(b"k", vec![1; 1000], None, 0).unwrap();
        let mut t = AccessTrace::default();
        assert_eq!(s.get_traced(b"k", 0, &mut t), Some(1000));
        assert!(t.bucket_offset < AccessTrace::SLAB_REGION_OFFSET);
        for off in &t.chain_offsets {
            assert!(*off >= AccessTrace::SLAB_REGION_OFFSET);
        }
        let (voff, vlen) = t.value.unwrap();
        assert_eq!(vlen, 1000);
        assert!(voff > AccessTrace::SLAB_REGION_OFFSET);
        // Value sits after the header and key in the chunk.
        assert_eq!(voff - t.chain_offsets[0], ITEM_HEADER_BYTES + 1);
    }

    #[test]
    fn flush_all_empties() {
        let mut s = small();
        for i in 0..50 {
            s.set(format!("k{i}").as_bytes(), vec![0; 100], None, 0)
                .unwrap();
        }
        s.flush_all();
        assert!(s.is_empty());
        assert_eq!(s.stats().bytes, 0);
        for i in 0..50 {
            assert!(s.get(format!("k{i}").as_bytes(), 0).is_none());
        }
    }

    #[test]
    fn stats_bytes_track_footprint() {
        let mut s = small();
        s.set(b"key", vec![0; 100], None, 0).unwrap();
        assert_eq!(s.stats().bytes, ITEM_HEADER_BYTES + 3 + 100);
        s.delete(b"key");
        assert_eq!(s.stats().bytes, 0);
    }

    #[test]
    fn add_only_when_absent() {
        let mut s = small();
        s.add(b"k", b"one".to_vec(), None, 0).unwrap();
        assert_eq!(
            s.add(b"k", b"two".to_vec(), None, 0),
            Err(StoreError::Exists)
        );
        assert_eq!(s.get(b"k", 0).unwrap().value(), b"one");
        // Expired items count as absent.
        s.set(b"t", b"v".to_vec(), Some(5), 0).unwrap();
        s.add(b"t", b"fresh".to_vec(), None, 10).unwrap();
        assert_eq!(s.get(b"t", 10).unwrap().value(), b"fresh");
    }

    #[test]
    fn replace_only_when_present() {
        let mut s = small();
        assert_eq!(
            s.replace(b"k", b"x".to_vec(), None, 0),
            Err(StoreError::NotFound)
        );
        s.set(b"k", b"one".to_vec(), None, 0).unwrap();
        s.replace(b"k", b"two".to_vec(), None, 0).unwrap();
        assert_eq!(s.get(b"k", 0).unwrap().value(), b"two");
    }

    #[test]
    fn append_and_prepend() {
        let mut s = small();
        s.set_with_flags(b"k", b"mid".to_vec(), 7, None, 0).unwrap();
        s.concat(b"k", b"-end", false, 0).unwrap();
        s.concat(b"k", b"start-", true, 0).unwrap();
        let hit = s.get(b"k", 0).unwrap();
        assert_eq!(hit.value(), b"start-mid-end");
        assert_eq!(hit.flags(), 7, "flags survive concat");
        assert_eq!(
            s.concat(b"missing", b"x", false, 0),
            Err(StoreError::NotFound)
        );
    }

    #[test]
    fn incr_decr_semantics() {
        let mut s = small();
        s.set(b"n", b"10".to_vec(), None, 0).unwrap();
        assert_eq!(s.incr_decr(b"n", 5, false, 0), Ok(15));
        assert_eq!(s.incr_decr(b"n", 20, true, 0), Ok(0), "decr saturates");
        assert_eq!(s.get(b"n", 0).unwrap().value(), b"0");
        s.set(b"s", b"abc".to_vec(), None, 0).unwrap();
        assert_eq!(s.incr_decr(b"s", 1, false, 0), Err(StoreError::NotNumeric));
        assert_eq!(
            s.incr_decr(b"missing", 1, false, 0),
            Err(StoreError::NotFound)
        );
    }

    #[test]
    fn concat_preserves_remaining_ttl() {
        let mut s = small();
        s.set(b"k", b"a".to_vec(), Some(100), 0).unwrap();
        s.concat(b"k", b"b", false, 40).unwrap();
        assert!(s.get(b"k", 90).is_some(), "alive until the original expiry");
        assert!(s.get(b"k", 110).is_none(), "expired at the original time");
    }

    /// An item's key, value length, flags, CAS and chunk.
    type Resident = (Vec<u8>, usize, u32, u64, SlabAddr);

    /// Every item slot's identity and placement, in slot order: two
    /// stores with equal residents evicted the same victims.
    fn residents(s: &KvStore) -> Vec<Option<Resident>> {
        s.items
            .iter()
            .map(|item| {
                item.as_ref()
                    .map(|i| (i.key.clone(), i.value.len(), i.flags, i.cas, i.addr))
            })
            .collect()
    }

    /// Drives two identical 2 MB stores with one op stream — `(kind,
    /// key, value length, dt)` — one answering GETs through `get`, the
    /// other through `get_traced`. After every op the two must agree
    /// on hit/miss and value length, on every counter (expirations and
    /// evictions included), and on their residents slot by slot, so
    /// the same victims leave in the same LRU order. Returns the final
    /// counters.
    fn get_differential(ops: &[(u8, u8, u32, u64)]) -> StoreStats {
        let mut by_hit = small();
        let mut by_trace = small();
        let mut trace = AccessTrace::default();
        let mut now = 0;
        for &(kind, id, len, dt) in ops {
            let key = format!("key{id}").into_bytes();
            match kind {
                // Sets outnumber gets so the stream overfills the store.
                0..=4 => {
                    let ttl = (dt % 3 == 0).then_some(dt + 1);
                    let set = |s: &mut KvStore| {
                        s.set_with_flags(&key, vec![id; len as usize], u32::from(id), ttl, now)
                            .map(|outcome| outcome.evicted)
                    };
                    assert_eq!(set(&mut by_hit), set(&mut by_trace));
                }
                5 => now += dt,
                _ => {
                    let hit = by_hit.get(&key, now).map(|h| {
                        assert!(h.value().iter().all(|&b| b == id));
                        assert_eq!(h.flags(), u32::from(id));
                        h.value().len() as u64
                    });
                    let traced = by_trace.get_traced(&key, now, &mut trace);
                    assert_eq!(hit, traced, "key {id} at {now}");
                    if traced.is_some() {
                        assert_eq!(trace.value.map(|(_, len)| len), traced);
                    }
                }
            }
            assert_eq!(by_hit.stats(), by_trace.stats());
            assert_eq!(residents(&by_hit), residents(&by_trace));
        }
        by_trace.stats()
    }

    /// A `get_differential` op: mostly 12–13 KB sets over 256 keys
    /// (about 3 MB of distinct items in one slab class, more than the
    /// 2 MB store), plus clock ticks and gets.
    fn get_op() -> impl proptest::Strategy<Value = (u8, u8, u32, u64)> {
        (0u8..8, proptest::any::<u8>(), 12_000u32..13_000, 0u64..20)
    }

    proptest::proptest! {
        /// `get` and `get_traced` are one GET path: under eviction
        /// pressure and lazy expiry they leave identical stores behind.
        #[test]
        fn get_traced_matches_get_observably(
            ops in proptest::collection::vec(get_op(), 1..600)
        ) {
            get_differential(&ops);
        }
    }

    #[test]
    fn get_differential_exercises_eviction_and_expiry() {
        use proptest::Strategy as _;
        let ops = proptest::collection::vec(get_op(), 600)
            .sample(&mut proptest::rng_for("get_differential", 0));
        let stats = get_differential(&ops);
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(stats.expirations > 0, "{stats:?}");
        assert!(stats.get_hits > 0 && stats.get_misses > 0, "{stats:?}");
    }
}
