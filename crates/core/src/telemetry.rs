//! Decision-to-trace glue: maps the engine's [`Decision`] stream onto the
//! structured trace events of [`coic_obs`].
//!
//! The engine itself stays telemetry-free — it already externalizes every
//! choice it makes as a `Decision`, which is what makes its behavior
//! byte-comparable between the simulator and the live stack. This module
//! gives both drivers one shared vocabulary for turning those decisions
//! into trace events, so a sim trace and a live trace of the same workload
//! use identical event names and fields.

use crate::engine::Decision;
use crate::qoe::Path;
use coic_obs::{Recorder, Value};

/// Stable trace label for a hit path (same vocabulary as
/// [`Path::label`], which this forwards to).
pub fn path_label(path: Path) -> &'static str {
    path.label()
}

/// Emit one engine decision as a structured trace event on behalf of
/// `client`. Event names are `decision.<variant>`; every event carries the
/// client id and the request sequence number.
pub fn record_decision(rec: &impl Recorder, at_ns: u64, client: u64, decision: &Decision) {
    let base = |seq: u64| vec![("client", Value::from(client)), ("seq", Value::from(seq))];
    let with_attempt = |seq: u64, attempt: u32| {
        let mut f = base(seq);
        f.push(("attempt", Value::from(attempt as u64)));
        f
    };
    match *decision {
        Decision::Attempt { seq, attempt } => {
            rec.event_with(at_ns, "decision.attempt", || with_attempt(seq, attempt));
        }
        Decision::AttemptFailed { seq, attempt } => {
            rec.event_with(at_ns, "decision.attempt_failed", || {
                with_attempt(seq, attempt)
            });
        }
        Decision::Retry { seq, attempt } => {
            rec.event_with(at_ns, "decision.retry", || with_attempt(seq, attempt));
        }
        Decision::Upload { seq } => rec.event_with(at_ns, "decision.upload", || base(seq)),
        Decision::Unavailable { seq } => {
            rec.event_with(at_ns, "decision.unavailable", || base(seq))
        }
        Decision::Degrade { seq } => rec.event_with(at_ns, "decision.degrade", || base(seq)),
        Decision::Probe { seq } => rec.event_with(at_ns, "decision.probe", || base(seq)),
        Decision::Rejoin { seq } => rec.event_with(at_ns, "decision.rejoin", || base(seq)),
        Decision::OriginAttempt { seq, attempt } => {
            rec.event_with(at_ns, "decision.origin_attempt", || {
                with_attempt(seq, attempt)
            });
        }
        Decision::Complete { seq, path } => rec.event_with(at_ns, "decision.complete", || {
            let mut f = base(seq);
            f.push(("path", Value::from(path_label(path))));
            f
        }),
        Decision::Overloaded { seq } => rec.event_with(at_ns, "decision.overloaded", || base(seq)),
        Decision::Fail { seq } => rec.event_with(at_ns, "decision.fail", || base(seq)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coic_obs::Telemetry;

    #[test]
    fn decisions_become_named_events() {
        let tel = Telemetry::new();
        record_decision(&tel, 10, 3, &Decision::Attempt { seq: 7, attempt: 0 });
        record_decision(
            &tel,
            20,
            3,
            &Decision::Complete {
                seq: 7,
                path: Path::EdgeHit,
            },
        );
        let jsonl = tel.trace_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"n\":\"decision.attempt\""));
        assert!(lines[0].contains("\"client\":3"));
        assert!(lines[0].contains("\"seq\":7"));
        assert!(lines[1].contains("\"n\":\"decision.complete\""));
        assert!(lines[1].contains("\"path\":\"edge_hit\""));
    }

    #[test]
    fn every_variant_maps_to_a_distinct_name() {
        let tel = Telemetry::new();
        let all = [
            Decision::Attempt { seq: 0, attempt: 0 },
            Decision::AttemptFailed { seq: 0, attempt: 0 },
            Decision::Retry { seq: 0, attempt: 1 },
            Decision::Upload { seq: 0 },
            Decision::Unavailable { seq: 0 },
            Decision::Degrade { seq: 0 },
            Decision::Probe { seq: 0 },
            Decision::Rejoin { seq: 0 },
            Decision::OriginAttempt { seq: 0, attempt: 0 },
            Decision::Overloaded { seq: 0 },
            Decision::Complete {
                seq: 0,
                path: Path::CloudMiss,
            },
            Decision::Fail { seq: 0 },
        ];
        for d in &all {
            record_decision(&tel, 0, 0, d);
        }
        let jsonl = tel.trace_jsonl();
        let names: std::collections::BTreeSet<&str> = jsonl
            .lines()
            .map(|l| {
                let start = l.find("\"n\":\"").unwrap() + 5;
                let end = l[start..].find('"').unwrap();
                &l[start..start + end]
            })
            .collect();
        assert_eq!(names.len(), all.len(), "names must be distinct: {names:?}");
    }
}
