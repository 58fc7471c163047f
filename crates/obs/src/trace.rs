//! Structured trace spans and events with typed key–value fields.
//!
//! A trace is an append-only sequence of [`TraceEvent`]s. Timestamps are
//! caller-provided virtual-or-wall nanoseconds (this crate never reads a
//! clock), names and field keys are `&'static str` so the hot path
//! allocates only the field vector — which a disabled log never lets the
//! caller build ([`TraceLog::push_with`]) — and the JSONL export is
//! deterministic: events in recorded order, fields in caller order.

use std::sync::{Arc, Mutex};

/// A typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (JSON-encoded with Rust's shortest-roundtrip formatting).
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::F64(v as f64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

/// The typed fields of one record, in caller order.
pub type Fields = Vec<(&'static str, Value)>;

/// What kind of trace record this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A span opened.
    Enter,
    /// A span closed.
    Exit,
    /// A point event.
    Event,
}

impl TraceKind {
    fn as_str(self) -> &'static str {
        match self {
            TraceKind::Enter => "enter",
            TraceKind::Exit => "exit",
            TraceKind::Event => "event",
        }
    }
}

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Caller-provided timestamp, nanoseconds.
    pub at_ns: u64,
    /// Enter/exit/event.
    pub kind: TraceKind,
    /// Record name, e.g. `request` or `edge.lookup`.
    pub name: &'static str,
    /// Typed fields, in caller order.
    pub fields: Fields,
}

/// An append-only, clonable trace buffer. A disabled log drops every
/// record, so instrumentation can stay unconditionally wired.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    enabled: bool,
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl TraceLog {
    /// A recording trace log.
    pub fn enabled() -> TraceLog {
        TraceLog {
            enabled: true,
            events: Arc::default(),
        }
    }

    /// A log that discards every record.
    pub fn disabled() -> TraceLog {
        TraceLog::default()
    }

    /// Does this log record anything?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append a record whose fields are already built (see
    /// [`TraceLog::push_with`]).
    pub fn push(&self, at_ns: u64, kind: TraceKind, name: &'static str, fields: Fields) {
        self.push_with(at_ns, kind, name, || fields);
    }

    /// Append a record, building its fields only if the log records: a
    /// disabled log never calls `fields`, an enabled one calls it exactly
    /// once, before taking the lock.
    pub fn push_with(
        &self,
        at_ns: u64,
        kind: TraceKind,
        name: &'static str,
        fields: impl FnOnce() -> Fields,
    ) {
        if !self.enabled {
            return;
        }
        let fields = fields();
        let mut guard = match self.events.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.push(TraceEvent {
            at_ns,
            kind,
            name,
            fields,
        });
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        match self.events.lock() {
            Ok(g) => g.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    /// True when no records were captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of all records, in append order.
    pub fn events(&self) -> Vec<TraceEvent> {
        match self.events.lock() {
            Ok(g) => g.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Export the trace as JSON Lines: one object per record,
    /// `{"t":ns,"k":"enter|exit|event","n":"name","f":{...}}`, fields in
    /// recorded order. Deterministic for a deterministic event sequence.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            out.push_str("{\"t\":");
            out.push_str(&ev.at_ns.to_string());
            out.push_str(",\"k\":\"");
            out.push_str(ev.kind.as_str());
            out.push_str("\",\"n\":\"");
            escape_into(ev.name, &mut out);
            out.push_str("\",\"f\":{");
            for (i, (key, value)) in ev.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_into(key, &mut out);
                out.push_str("\":");
                write_value(value, &mut out);
            }
            out.push_str("}}\n");
        }
        out
    }
}

fn write_value(v: &Value, out: &mut String) {
    use std::fmt::Write as _;
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Value::F64(_) => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => {
            out.push('"');
            escape_into(s, out);
            out.push('"');
        }
    }
}

/// Minimal JSON string escaping (quote, backslash, control characters).
fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_is_one_object_per_event_in_order() {
        let log = TraceLog::enabled();
        log.push(
            5,
            TraceKind::Enter,
            "request",
            vec![("seq", Value::U64(0)), ("kind", Value::from("pano"))],
        );
        log.push(
            9,
            TraceKind::Exit,
            "request",
            vec![("ok", Value::Bool(true))],
        );
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t\":5,\"k\":\"enter\",\"n\":\"request\",\"f\":{\"seq\":0,\"kind\":\"pano\"}}"
        );
        assert_eq!(
            lines[1],
            "{\"t\":9,\"k\":\"exit\",\"n\":\"request\",\"f\":{\"ok\":true}}"
        );
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = TraceLog::disabled();
        log.push(1, TraceKind::Event, "x", vec![]);
        assert!(log.is_empty());
        assert_eq!(log.to_jsonl(), "");
    }

    #[test]
    fn strings_are_escaped() {
        let log = TraceLog::enabled();
        log.push(
            0,
            TraceKind::Event,
            "x",
            vec![("s", Value::from("a\"b\\c\nd"))],
        );
        assert!(log.to_jsonl().contains("\"s\":\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let log = TraceLog::enabled();
        log.push(0, TraceKind::Event, "x", vec![("f", Value::F64(f64::NAN))]);
        assert!(log.to_jsonl().contains("\"f\":null"));
    }
}
