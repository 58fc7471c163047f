//! The unified cache metrics view and the typed lookup outcome.
//!
//! [`Metrics`] is one flat struct — store accounting plus the sharded
//! cache's deferred-touch counters — that publishes to, and is derivable
//! back from, the [`coic_obs::MetricsRegistry`]. The per-shard relaxed
//! atomics stay where they are (they are the measured hot path);
//! `Metrics` is the snapshot every caller reads.

use coic_obs::MetricsRegistry;

/// Outcome of an edge-cache lookup, replacing the old bool/`Option`-tuple
/// returns: callers match on *why* a value was (or was not) served.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup<V> {
    /// The key matched exactly (digest-keyed caches).
    ExactHit(V),
    /// A stored descriptor matched within the distance threshold.
    ApproxHit {
        /// The matched value.
        value: V,
        /// Distance between query and matched descriptor.
        distance: f32,
    },
    /// No acceptable entry.
    Miss,
}

impl<V> Lookup<V> {
    /// Did the lookup produce a value?
    pub fn is_hit(&self) -> bool {
        !matches!(self, Lookup::Miss)
    }

    /// The served value, if any.
    pub fn value(&self) -> Option<&V> {
        match self {
            Lookup::ExactHit(v) | Lookup::ApproxHit { value: v, .. } => Some(v),
            Lookup::Miss => None,
        }
    }

    /// Consume the outcome, keeping only the served value.
    pub fn into_value(self) -> Option<V> {
        match self {
            Lookup::ExactHit(v) | Lookup::ApproxHit { value: v, .. } => Some(v),
            Lookup::Miss => None,
        }
    }

    /// Map the carried value, preserving the outcome kind.
    pub fn map<U>(self, f: impl FnOnce(V) -> U) -> Lookup<U> {
        match self {
            Lookup::ExactHit(v) => Lookup::ExactHit(f(v)),
            Lookup::ApproxHit { value, distance } => Lookup::ApproxHit {
                value: f(value),
                distance,
            },
            Lookup::Miss => Lookup::Miss,
        }
    }

    /// Stable label for trace fields: `exact`, `approx` or `miss`.
    pub fn kind_str(&self) -> &'static str {
        match self {
            Lookup::ExactHit(_) => "exact",
            Lookup::ApproxHit { .. } => "approx",
            Lookup::Miss => "miss",
        }
    }
}

/// One cache's merged counters: store accounting plus the deferred-touch
/// protocol, in a single registry-compatible view.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Metrics {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Entries dropped for TTL expiry.
    pub expired: u64,
    /// Inserts rejected (oversized).
    pub rejected: u64,
    /// Inserts rejected by the admission gate.
    pub admission_rejects: u64,
    /// Recency touches queued by read-path hits.
    pub touch_queued: u64,
    /// Touches dropped (queue full or contended).
    pub touch_dropped: u64,
    /// Touches replayed against a still-present key.
    pub touch_replayed: u64,
    /// Touches that found their key gone (protocol invariant: zero).
    pub touch_dead: u64,
}

/// Registry keys a cache publishes under `<prefix>.<key>`, in the fixed
/// order [`Metrics::publish`]/[`Metrics::from_registry`] use.
const KEYS: [&str; 11] = [
    "hits",
    "misses",
    "insertions",
    "evictions",
    "expired",
    "rejected",
    "admission_rejects",
    "touch_queued",
    "touch_dropped",
    "touch_replayed",
    "touch_dead",
];

impl Metrics {
    fn values(&self) -> [u64; 11] {
        [
            self.hits,
            self.misses,
            self.insertions,
            self.evictions,
            self.expired,
            self.rejected,
            self.admission_rejects,
            self.touch_queued,
            self.touch_dropped,
            self.touch_replayed,
            self.touch_dead,
        ]
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio over all lookups (zero when none happened).
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Add this snapshot into `reg` as counters named `<prefix>.<key>`.
    pub fn publish(&self, reg: &MetricsRegistry, prefix: &str) {
        for (key, value) in KEYS.iter().zip(self.values()) {
            reg.counter_add(&format!("{prefix}.{key}"), value);
        }
    }

    /// Read the snapshot back from counters published under `prefix` —
    /// the inverse of [`Metrics::publish`] (modulo other publishers
    /// adding under the same prefix).
    pub fn from_registry(reg: &MetricsRegistry, prefix: &str) -> Metrics {
        let get = |key: &str| reg.counter(&format!("{prefix}.{key}"));
        Metrics {
            hits: get("hits"),
            misses: get("misses"),
            insertions: get("insertions"),
            evictions: get("evictions"),
            expired: get("expired"),
            rejected: get("rejected"),
            admission_rejects: get("admission_rejects"),
            touch_queued: get("touch_queued"),
            touch_dropped: get("touch_dropped"),
            touch_replayed: get("touch_replayed"),
            touch_dead: get("touch_dead"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Metrics {
        Metrics {
            hits: 7,
            misses: 3,
            insertions: 5,
            evictions: 2,
            expired: 1,
            rejected: 0,
            admission_rejects: 4,
            touch_queued: 6,
            touch_dropped: 1,
            touch_replayed: 5,
            touch_dead: 0,
        }
    }

    #[test]
    fn publish_then_from_registry_roundtrips() {
        let reg = MetricsRegistry::new();
        let m = sample();
        m.publish(&reg, "cache.exact");
        assert_eq!(Metrics::from_registry(&reg, "cache.exact"), m);
        // A second publish under the same prefix accumulates (counters).
        m.publish(&reg, "cache.exact");
        assert_eq!(Metrics::from_registry(&reg, "cache.exact").hits, 14);
        // Other prefixes are untouched.
        assert_eq!(
            Metrics::from_registry(&reg, "cache.recog"),
            Metrics::default()
        );
    }

    #[test]
    fn hit_ratio_math() {
        let m = sample();
        assert_eq!(m.lookups(), 10);
        assert!((m.hit_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(Metrics::default().hit_ratio(), 0.0);
    }

    #[test]
    fn lookup_outcome_helpers() {
        let hit: Lookup<u32> = Lookup::ApproxHit {
            value: 9,
            distance: 0.25,
        };
        assert!(hit.is_hit());
        assert_eq!(hit.value(), Some(&9));
        assert_eq!(hit.kind_str(), "approx");
        let mapped = hit.map(|v| v * 2);
        assert_eq!(mapped.into_value(), Some(18));
        assert_eq!(Lookup::<u32>::ExactHit(1).kind_str(), "exact");
        let miss: Lookup<u32> = Lookup::Miss;
        assert!(!miss.is_hit());
        assert_eq!(miss.value(), None);
        assert_eq!(miss.kind_str(), "miss");
    }
}
