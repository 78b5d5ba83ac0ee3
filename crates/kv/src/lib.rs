//! A Memcached-style in-memory key-value store.
//!
//! This is a real, functional store — the simulated Mercury/Iridium cores
//! execute their GETs and PUTs against it, and its memory layout (slab
//! chunk offsets, hash-bucket positions) feeds the cache/memory timing
//! models as actual addresses. It follows Memcached 1.4's architecture:
//!
//! * [`slab`] — a slab allocator with geometrically growing size classes,
//! * [`table`] — a chained hash table with incremental expansion,
//! * [`lru`] — strict LRU (Memcached 1.4) and "Bags" pseudo-LRU
//!   (Wiggins & Langston's scalability work, §3.6 of the paper),
//! * [`store`] — the store itself: get/set/delete/CAS, TTL expiry,
//!   eviction, statistics, and per-operation access traces,
//! * [`protocol`] / [`binary`] — the text and binary wire protocols,
//! * [`server`] / [`client`] — the command loop and the client-side
//!   codec, so full byte-level request/response loops run in-process,
//! * [`striped`] — [`Striped`], any backend split across independently
//!   locked stripes: the global-lock, striped and Bags designs of the
//!   baseline lock-scaling experiments and the live front-end's shards,
//! * [`backend`] — the [`StoreBackend`] trait the command loop
//!   dispatches through, so real engines (`densekv-engine`) serve the
//!   same protocol as the model store.
//!
//! # Examples
//!
//! ```
//! use densekv_kv::store::{KvStore, StoreConfig};
//!
//! let mut store = KvStore::new(StoreConfig::with_capacity(16 << 20));
//! store.set(b"user:42", b"hello".to_vec(), None, 0)?;
//! let hit = store.get(b"user:42", 0).expect("resident");
//! assert_eq!(hit.value(), b"hello");
//! # Ok::<(), densekv_kv::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod binary;
pub mod client;
#[cfg(test)]
mod concurrent;
pub mod hash;
pub mod lru;
pub mod protocol;
pub mod server;
pub mod slab;
pub mod store;
pub mod striped;
pub mod table;

pub use backend::StoreBackend;
pub use server::{Clock, FixedClock, WallClock};
pub use store::{KvStore, StoreConfig, StoreError, StoreStats};
pub use striped::Striped;
