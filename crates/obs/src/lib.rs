//! # coic-obs
//!
//! The unified observability layer for CoIC: one API every crate reports
//! through, replacing the ad-hoc per-crate stats structs.
//!
//! Three layers (DESIGN.md §12):
//!
//! * [`Recorder`] — the trait instrumented code talks to: counters,
//!   gauges, latency observations, and structured trace spans/events.
//!   [`NullRecorder`] discards everything; [`Telemetry`] records.
//! * [`MetricsRegistry`] — deterministic storage: `BTreeMap`-backed
//!   counters, gauges and fixed-bucket integer histograms. No default
//!   hashers, no wall clock — every timestamp is passed in by the caller,
//!   which owns a `Clock`, so simulated and live runs share one code path
//!   and seeded sim runs stay byte-reproducible.
//! * Exporters — a JSONL trace writer ([`TraceLog::to_jsonl`]), the
//!   canonical metrics snapshot ([`MetricsRegistry::canonical`], sorted
//!   keys, integer units) for determinism diffing, and the human summary
//!   behind `coic obs report` ([`report::summarize_trace`]).
//!
//! This crate is dependency-free and does no IO: exporters return
//! `String`s and the caller decides where they go.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod canonical;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod trace;

pub use canonical::CanonicalWriter;
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::{NullRecorder, Recorder, Telemetry};
pub use trace::{Fields, TraceEvent, TraceKind, TraceLog, Value};
