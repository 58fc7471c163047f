//! # coic-cache
//!
//! The edge result cache at the heart of CoIC:
//!
//! * [`digest`] — content digests (from-scratch SHA-256) keying models and
//!   panoramas,
//! * [`store`] — size-aware bounded store with TTL,
//! * [`policy`] — eviction policies (LRU/FIFO/LFU/SLRU/GDSF) for the
//!   cache-management ablation,
//! * [`exact`] — digest-keyed lookup (render/panorama tasks),
//! * [`approx`] — feature-descriptor lookup under a distance threshold
//!   (recognition tasks),
//! * [`ann`] — the approximate-nearest-neighbour families behind approx
//!   lookup (multi-probe LSH, HNSW, linear scan) + a mutable adapter,
//! * [`snapshot`] — the concurrent snapshot/journal descriptor cache
//!   (lock-free lookups, deterministic batch rebuilds),
//! * [`sketch`]/[`admission`] — count-min sketch + TinyLFU admission gate,
//! * [`concurrent`] — single-mutex shared wrappers (contention baseline),
//! * [`sharded`] — sharded exact-cache wrappers for the real-TCP edge,
//! * [`metrics`] — the unified [`metrics::Metrics`] view (publishes to the
//!   `coic-obs` registry) and the typed [`metrics::Lookup`] outcome,
//! * [`stats`] — legacy hit/miss/eviction counters (facade view).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod ann;
pub mod approx;
pub mod concurrent;
pub mod digest;
pub mod exact;
pub mod metrics;
pub mod policy;
pub mod sharded;
pub mod sketch;
pub mod snapshot;
pub mod stats;
pub mod store;
mod sync;

pub use admission::{TinyLfu, TinyLfuConfig};
pub use ann::{AnnFamily, AnnIndex, DynamicAnn, ProbeStats};
pub use approx::{ApproxCache, ApproxLookup, IndexKind};
pub use concurrent::{SharedApproxCache, SharedExactCache};
pub use digest::{fnv1a64, sha256, Digest};
pub use exact::ExactCache;
pub use metrics::{Lookup, Metrics};
pub use policy::{EvictionPolicy, PolicyKind};
pub use sharded::{ShardedExactCache, TouchStats, DEFAULT_SHARDS};
pub use sketch::CountMinSketch;
pub use snapshot::{IndexTelemetry, SnapshotApproxCache, DEFAULT_REBUILD_BATCH};
pub use stats::CacheStats;
pub use store::Store;
