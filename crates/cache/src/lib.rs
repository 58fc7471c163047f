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
//! * [`sharded`] — the concurrent exact cache: [`exact`] shards behind
//!   per-shard read/write locks,
//! * [`metrics`] — the unified [`metrics::Metrics`] view (publishes to the
//!   `coic-obs` registry) and the typed [`metrics::Lookup`] outcome.
//!
//! One production stack serves the edge, simulated and live alike:
//! [`ShardedExactCache`] for digests, [`SnapshotApproxCache`] over the
//! [`AnnIndex`] families for descriptors. [`ApproxCache`] is the
//! single-threaded research cache the `ext_*` experiments tune.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod ann;
pub mod approx;
pub mod digest;
pub mod exact;
pub mod metrics;
pub mod policy;
pub mod sharded;
pub mod sketch;
pub mod snapshot;
mod stats;
pub mod store;
mod sync;

pub use admission::{TinyLfu, TinyLfuConfig};
pub use ann::{AnnFamily, AnnIndex, DynamicAnn, ProbeStats};
pub use approx::{ApproxCache, ApproxLookup, IndexKind};
pub use digest::{fnv1a64, sha256, Digest};
pub use exact::ExactCache;
pub use metrics::{Lookup, Metrics};
pub use policy::{EvictionPolicy, PolicyKind};
pub use sharded::{ShardedExactCache, DEFAULT_SHARDS};
pub use sketch::CountMinSketch;
pub use snapshot::{IndexTelemetry, SnapshotApproxCache, DEFAULT_REBUILD_BATCH};
pub use stats::CacheStats;
pub use store::Store;
