//! `sim_replay`: the simulator as the system's other front door. One
//! operation is one `simrun::run` of a seeded trace; its latency is the
//! wall-clock time of that call, its work the requests it simulated.

use std::time::Instant;

use coic_cache::fnv1a64;
use coic_core::simrun::{self, SimConfig};
use coic_workload::Request;

use crate::live::{peak_rss_mb, Measured, Stop, Tally};
use crate::stats::Sample;

/// What the simulator reported when set-up replayed every trace once.
#[derive(Debug, Default, Clone)]
pub struct SimFacts {
    /// FNV-1a of each trace's canonical `QoeReport`, by trace: what every
    /// timed replay must reproduce.
    pub report_fnv: Vec<u64>,
    /// Simulated (virtual) median latency of the first trace, ms.
    pub virtual_p50_ms: f64,
    pub peer_hits: u64,
    pub lan_bytes: u64,
}

/// Replay every trace once, untimed (set-up): the first run pays the
/// allocator's growth, and its canonical reports become the reference.
pub fn reference(traces: &[Vec<Request>], config: &SimConfig) -> SimFacts {
    let mut facts = SimFacts::default();
    for (k, trace) in traces.iter().enumerate() {
        let mut report = simrun::run(trace, config);
        facts
            .report_fnv
            .push(fnv1a64(report.canonical().as_bytes()));
        facts.peer_hits += report.peer_hits;
        facts.lan_bytes += report.lan_bytes;
        if k == 0 {
            facts.virtual_p50_ms = report.latency_ms.median();
        }
    }
    facts
}

/// Replay `traces` in turn until `stop`. The simulator is deterministic, so
/// every replay of a trace must reproduce its reference report byte for
/// byte; one that does not is counted as failed requests.
pub fn run_sim(
    traces: &[Vec<Request>],
    config: &SimConfig,
    reference: &SimFacts,
    stop: Stop,
) -> Measured {
    let mut out = Measured::default();
    let epoch = Instant::now();
    for (op, trace) in traces.iter().cycle().enumerate() {
        let begun = Instant::now();
        match stop {
            Stop::Ops(n) if op as u64 >= n => break,
            Stop::After(d) if begun.duration_since(epoch) >= d => break,
            _ => {}
        }
        let mut report = simrun::run(trace, config);
        let done = Instant::now();
        let fnv = fnv1a64(report.canonical().as_bytes());
        let requests = trace.len() as u64;
        let incomplete = requests - (report.completed as u64).min(requests) + report.failed;
        let repeats = reference.report_fnv.get(op % traces.len()) == Some(&fnv);
        out.tally.add(&Tally {
            attempted: requests,
            failed: if repeats {
                incomplete.min(requests)
            } else {
                requests
            },
            hits: report.edge_hits + report.peer_hits,
            retries: report.retries,
            ..Tally::default()
        });
        out.ledger.fold_bytes(&(op as u64).to_be_bytes());
        out.ledger.fold_bytes(&fnv.to_be_bytes());
        if repeats && incomplete == 0 {
            out.samples.push(Sample::new(
                done.duration_since(epoch).as_nanos() as u64,
                done.duration_since(begun).as_nanos() as u64,
            ));
        }
    }
    out.wall_ns = epoch.elapsed().as_nanos() as u64;
    out.peak_rss_mb = peak_rss_mb(out.samples.len());
    out
}
