//! The [`Telemetry`] handle instrumented code reports through.

use crate::metrics::MetricsRegistry;
use crate::trace::{Fields, TraceKind, TraceLog};

/// The name of the trait that carried [`Telemetry`]'s recording methods
/// until they became its own; `benchmark/src/layers.rs` still imports it.
pub type Recorder = Telemetry;

/// The observability handle: a shared [`MetricsRegistry`] plus a shared
/// [`TraceLog`]. Clones share both, so one handle threads through every
/// layer of a run. `Telemetry::default()` is disabled — metrics still
/// register (they are cheap and always useful) but the trace drops
/// records, so default-constructed configs carry no tracing overhead.
///
/// It stays sans-IO: every method takes caller-supplied data (including
/// timestamps from the caller's `Clock`) and performs no IO. Trace records
/// have one path: the `*_with` methods take the fields as a closure, which
/// a disabled trace never calls — so a site pays for its `Vec` and
/// `String`s only when someone records them. [`Telemetry::event`] wraps
/// [`Telemetry::event_with`] for a caller whose fields already exist.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: MetricsRegistry,
    trace: TraceLog,
}

impl Telemetry {
    /// A recording handle (metrics + trace both live).
    pub fn new() -> Telemetry {
        Telemetry {
            registry: MetricsRegistry::new(),
            trace: TraceLog::enabled(),
        }
    }

    /// A handle whose trace discards records. The registry still works.
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// Is the trace recording?
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The shared trace log.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// JSONL export of the trace (see [`TraceLog::to_jsonl`]).
    pub fn trace_jsonl(&self) -> String {
        self.trace.to_jsonl()
    }

    /// Canonical metrics snapshot (see
    /// [`MetricsRegistry::canonical`]).
    pub fn metrics_canonical(&self) -> String {
        self.registry.canonical()
    }

    /// Add to a named counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.registry.counter_add(name, delta);
    }

    /// Set a named gauge.
    pub fn gauge_set(&self, name: &str, value: i64) {
        self.registry.gauge_set(name, value);
    }

    /// Record a latency observation (integer ns) into a named histogram.
    pub fn observe(&self, name: &str, value_ns: u64) {
        self.registry.observe(name, value_ns);
    }

    /// Open a span, building its fields only if it is recorded.
    pub fn span_enter_with(&self, at_ns: u64, name: &'static str, fields: impl FnOnce() -> Fields) {
        self.trace.push_with(at_ns, TraceKind::Enter, name, fields);
    }

    /// Close a span, building its fields only if it is recorded.
    pub fn span_exit_with(&self, at_ns: u64, name: &'static str, fields: impl FnOnce() -> Fields) {
        self.trace.push_with(at_ns, TraceKind::Exit, name, fields);
    }

    /// Record a point event, building its fields only if it is recorded.
    pub fn event_with(&self, at_ns: u64, name: &'static str, fields: impl FnOnce() -> Fields) {
        self.trace.push_with(at_ns, TraceKind::Event, name, fields);
    }

    /// Record a point event whose fields are already built.
    pub fn event(&self, at_ns: u64, name: &'static str, fields: Fields) {
        self.event_with(at_ns, name, || fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Value;
    use std::cell::Cell;

    #[test]
    fn telemetry_routes_to_registry_and_trace() {
        let tel = Telemetry::new();
        tel.counter_add("c", 2);
        tel.observe("lat", 5_000_000);
        tel.event(7, "e", vec![("k", Value::U64(1))]);
        assert_eq!(tel.registry().counter("c"), 2);
        assert_eq!(tel.registry().histogram("lat").unwrap().count(), 1);
        assert_eq!(tel.trace().len(), 1);
    }

    #[test]
    fn disabled_telemetry_still_counts_but_does_not_trace() {
        let tel = Telemetry::disabled();
        tel.counter_add("c", 1);
        tel.event(0, "e", vec![]);
        assert_eq!(tel.registry().counter("c"), 1);
        assert!(tel.trace().is_empty());
        assert!(!tel.trace_enabled());
    }

    /// Every record kind, through `rec`: how many times the fields were
    /// built.
    fn fields_built(rec: &Telemetry) -> u32 {
        let built = Cell::new(0u32);
        let fields = || {
            built.set(built.get() + 1);
            vec![("k", Value::U64(1))]
        };
        rec.span_enter_with(1, "s", fields);
        rec.event_with(2, "e", fields);
        rec.span_exit_with(3, "s", fields);
        built.get()
    }

    #[test]
    fn fields_are_built_once_per_record_and_only_when_recorded() {
        assert_eq!(fields_built(&Telemetry::disabled()), 0);
        let tel = Telemetry::new();
        assert_eq!(fields_built(&tel), 3);
        let kinds: Vec<TraceKind> = tel.trace().events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [TraceKind::Enter, TraceKind::Event, TraceKind::Exit],
            "each lazy entry point records its own kind"
        );
        assert!(tel
            .trace()
            .events()
            .iter()
            .all(|e| e.fields == [("k", Value::U64(1))]));
    }
}
