//! The metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! Storage is `BTreeMap`-backed on purpose: iteration order is the sorted
//! key order, so the canonical snapshot is byte-stable without a separate
//! sort pass and no randomized hasher ever touches the data (the lint's
//! no-default-hashmap rule covers this crate).

use crate::canonical::CanonicalWriter;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Default latency bucket upper bounds, in integer nanoseconds:
/// 1/2/5-per-decade from 1 ms to 10 s. Observations above the last bound
/// land in the overflow bucket.
pub const LATENCY_BOUNDS_NS: [u64; 13] = [
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
];

/// A fixed-bucket integer histogram. `buckets[i]` counts observations
/// `<= bounds[i]` (and greater than the previous bound); `overflow`
/// counts observations above the last bound. All units are integers —
/// nanoseconds for latencies — so snapshots are exactly reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Arc<Vec<u64>>,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds.
    pub fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: Arc::new(bounds.to_vec()),
            buckets: vec![0; bounds.len()],
            overflow: 0,
            count: 0,
            sum: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        match self.bounds.partition_point(|&b| b < value) {
            i if i < self.buckets.len() => self.buckets[i] += 1,
            _ => self.overflow += 1,
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket counts, aligned with the bounds the histogram was built
    /// with.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Observations above the last bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, Histogram>,
}

/// Apply `update` to the value stored under `name`, which `first` makes on
/// first use. The key is looked up by `&str`, once; only a first use
/// allocates its `String`.
fn upsert<V>(
    map: &mut BTreeMap<String, V>,
    name: &str,
    first: impl FnOnce() -> V,
    update: impl FnOnce(&mut V),
) {
    match map.get_mut(name) {
        Some(v) => update(v),
        None => {
            let mut v = first();
            update(&mut v);
            map.insert(name.to_string(), v);
        }
    }
}

/// A clonable, thread-safe metrics registry. Clones share storage, so a
/// handle can be passed to every layer of the stack and merged snapshots
/// read from any of them.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn with<R>(&self, f: impl FnOnce(&mut RegistryInner) -> R) -> R {
        // A panic while holding this lock poisons only bookkeeping;
        // recover the data rather than propagating the poison.
        let mut guard = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard)
    }

    /// Add `delta` to a named counter (created at zero on first use).
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.with(|i| upsert(&mut i.counters, name, || 0, |c| *c += delta));
    }

    /// Current value of a counter (zero when never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.with(|i| i.counters.get(name).copied().unwrap_or(0))
    }

    /// Set a named gauge.
    pub fn gauge_set(&self, name: &str, value: i64) {
        self.with(|i| upsert(&mut i.gauges, name, || value, |g| *g = value));
    }

    /// Current value of a gauge (zero when never set).
    pub fn gauge(&self, name: &str) -> i64 {
        self.with(|i| i.gauges.get(name).copied().unwrap_or(0))
    }

    /// Record an observation into a named histogram with the default
    /// latency buckets.
    pub fn observe(&self, name: &str, value: u64) {
        self.observe_with(name, value, &LATENCY_BOUNDS_NS);
    }

    /// Record an observation into a named histogram, creating it with the
    /// given bounds on first use (later calls reuse the existing bounds).
    pub fn observe_with(&self, name: &str, value: u64, bounds: &[u64]) {
        self.with(|i| {
            upsert(
                &mut i.hists,
                name,
                || Histogram::new(bounds),
                |h| h.observe(value),
            );
        });
    }

    /// A copy of a named histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.with(|i| i.hists.get(name).cloned())
    }

    /// The canonical metrics snapshot: sorted keys, integer units, one
    /// metric per line. Two runs that recorded the same values produce
    /// byte-identical snapshots — the determinism tests diff this.
    ///
    /// ```text
    /// counter cache.exact.hits 12
    /// gauge qoe.accuracy_ppm 940000
    /// hist qoe.latency_ns count=9 sum=81000000 buckets=0,3,6,...,0 overflow=0
    /// ```
    pub fn canonical(&self) -> String {
        self.with(|i| {
            let mut w = CanonicalWriter::new();
            for (name, v) in &i.counters {
                w.word("counter").word(name).word(&v.to_string()).end_line();
            }
            for (name, v) in &i.gauges {
                w.word("gauge").word(name).word(&v.to_string()).end_line();
            }
            for (name, h) in &i.hists {
                let buckets: Vec<String> = h.buckets().iter().map(|b| b.to_string()).collect();
                w.word("hist")
                    .word(name)
                    .field("count", h.count())
                    .field("sum", h.sum())
                    .field("buckets", buckets.join(","))
                    .field("overflow", h.overflow())
                    .end_line();
            }
            w.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let mut h = Histogram::new(&[10, 20, 50]);
        // Exactly on a bound lands in that bound's bucket…
        h.observe(10);
        // …one above it spills into the next…
        h.observe(11);
        h.observe(20);
        // …zero goes in the first bucket, and above-last is overflow.
        h.observe(0);
        h.observe(51);
        assert_eq!(h.buckets(), &[2, 2, 0]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 10 + 11 + 20 + 51);
    }

    #[test]
    fn histogram_default_latency_bounds_cover_sim_scales() {
        let mut h = Histogram::new(&LATENCY_BOUNDS_NS);
        h.observe(999_999); // just under 1 ms → first bucket
        h.observe(1_000_000); // exactly 1 ms → first bucket (inclusive)
        h.observe(10_000_000_000); // exactly 10 s → last bucket
        h.observe(10_000_000_001); // above → overflow
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(*h.buckets().last().unwrap(), 1);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn canonical_snapshot_is_sorted_and_stable() {
        let r = MetricsRegistry::new();
        r.counter_add("z.last", 1);
        r.counter_add("a.first", 2);
        r.gauge_set("mid", -3);
        r.observe_with("lat", 7, &[10, 20]);
        let snap = r.canonical();
        let a = snap.find("a.first").unwrap();
        let z = snap.find("z.last").unwrap();
        assert!(a < z, "counters must be key-sorted:\n{snap}");
        assert!(snap.contains("gauge mid -3"));
        assert!(snap.contains("hist lat count=1 sum=7 buckets=1,0 overflow=0"));
        assert_eq!(snap, r.canonical(), "snapshot must be reproducible");
    }

    #[test]
    fn clones_share_storage() {
        let r = MetricsRegistry::new();
        let r2 = r.clone();
        r.counter_add("n", 1);
        r2.counter_add("n", 1);
        assert_eq!(r.counter("n"), 2);
    }
}
