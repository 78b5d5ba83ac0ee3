//! Core and cache models for the Mercury/Iridium logic die.
//!
//! The paper evaluates two ARM cores on the 3D stack's logic die:
//!
//! * **Cortex-A7** — a small dual-issue in-order core (Table 1: 100 mW,
//!   0.58 mm² at 1 GHz in 28 nm),
//! * **Cortex-A15** — an aggressive out-of-order core (600 mW at 1 GHz,
//!   1 W at 1.5 GHz, 2.82 mm²),
//!
//! each with or without a 2 MB L2 cache (§6.2 studies the L2's effect at
//! every memory latency).
//!
//! This crate provides:
//!
//! * [`cache`] — a true-LRU set-associative cache simulator used for the
//!   L1I and L2 (the L1D's one reference stream, the cyclic kernel walk,
//!   misses on every lookup, so the engine keeps only its counters),
//! * [`core`] — the core configurations (frequency, effective IPC,
//!   memory-level parallelism, power/area from Table 1),
//! * [`engine`] — the phase timing engine: it executes a request phase's
//!   reference stream (instruction fetches, kernel-structure references,
//!   store/value references) against the cache hierarchy and a
//!   [`densekv_mem::MemoryTiming`] device, returning the phase's time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod core;
pub mod engine;

pub use crate::core::{CoreConfig, CoreKind};
pub use cache::{Cache, CacheConfig};
pub use engine::{CacheHierarchyStats, CacheLevelStats, PhaseEngine, PhaseResult, PhaseSpec};
