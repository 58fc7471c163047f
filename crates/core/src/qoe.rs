//! QoE accounting: per-request records and aggregated reports.
//!
//! The paper's metric is user-perceived end-to-end latency; we additionally
//! track hit paths, recognition accuracy and bytes moved per network
//! segment (the costs a deployment would care about).

use coic_netsim::Summary;
use coic_obs::{CanonicalWriter, MetricsRegistry};
use std::collections::BTreeMap;

/// How a request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Edge cache hit.
    EdgeHit,
    /// Local miss answered by a cooperating peer edge.
    PeerHit,
    /// Miss: forwarded to the cloud and cached.
    CloudMiss,
    /// Origin baseline: full offload, no cache.
    Baseline,
}

impl Path {
    /// Stable label, shared by trace events and per-path summaries.
    pub fn label(self) -> &'static str {
        match self {
            Path::EdgeHit => "edge_hit",
            Path::PeerHit => "peer_hit",
            Path::CloudMiss => "cloud_miss",
            Path::Baseline => "baseline",
        }
    }
}

/// One completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Request id.
    pub req_id: u64,
    /// Task family label.
    pub kind: &'static str,
    /// Issue time (virtual ns).
    pub issued_ns: u64,
    /// Completion time (virtual ns).
    pub completed_ns: u64,
    /// How it was satisfied.
    pub path: Path,
    /// For recognition: was the label correct?
    pub correct: Option<bool>,
    /// Transmission attempts beyond the first this request needed
    /// (lossy-link retransmissions).
    pub retries: u32,
}

impl Record {
    /// End-to-end latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.completed_ns - self.issued_ns) as f64 / 1e6
    }
}

/// Aggregated outcome of one simulation run, or a running fold of a live
/// client's completions ([`QoeReport::push`]): it keeps each request's
/// latency samples, not its record.
#[derive(Debug, Clone, Default)]
pub struct QoeReport {
    /// All end-to-end latencies, ms.
    pub latency_ms: Summary,
    /// Latencies by task family.
    pub latency_by_kind: BTreeMap<&'static str, Summary>,
    /// Latencies by hit path (keys from [`Path::label`]). Under admission
    /// control, shed requests that completed through the origin fallback
    /// land under `baseline`, so this split separates the latency of work
    /// the edge admitted from the latency of work it deflected.
    pub latency_by_path: BTreeMap<&'static str, Summary>,
    /// Requests satisfied from the local edge cache.
    pub edge_hits: u64,
    /// Requests satisfied by a cooperating peer edge.
    pub peer_hits: u64,
    /// Requests that went to the cloud (miss or baseline).
    pub cloud_trips: u64,
    /// Recognition accuracy (None if no recognition requests).
    pub accuracy: Option<f64>,
    /// Completed requests.
    pub completed: usize,
    /// Bytes delivered on the access (client↔edge) segment.
    pub access_bytes: u64,
    /// Bytes delivered on the WAN (edge↔cloud) segment.
    pub wan_bytes: u64,
    /// Bytes delivered on the inter-edge LAN (multi-edge runs only).
    pub lan_bytes: u64,
    /// Requests abandoned after exhausting retries (lossy-link runs).
    pub failed: u64,
    /// Total retransmissions across completed requests.
    pub retries: u64,
    /// Completed requests that needed at least one retransmission.
    pub retried_requests: u64,
    /// Records that carried a recognition verdict, and the correct ones:
    /// `accuracy` is their ratio.
    judged: u64,
    correct: u64,
}

/// Staged construction of a [`QoeReport`]: aggregate records, then attach
/// the out-of-band fields (failure count, per-segment byte counts) the
/// drivers learn from the network layer rather than the records.
#[derive(Debug, Default)]
pub struct QoeReportBuilder {
    records_agg: QoeReport,
    failed: u64,
    access_bytes: u64,
    wan_bytes: u64,
    lan_bytes: u64,
}

impl QoeReportBuilder {
    /// Aggregate the completed-request records (replaces any earlier
    /// `records` call).
    pub fn records(mut self, records: &[Record]) -> Self {
        self.records_agg = QoeReport::default();
        for r in records {
            self.records_agg.push(r);
        }
        self
    }

    /// Requests abandoned after exhausting every path.
    pub fn failed(mut self, n: u64) -> Self {
        self.failed = n;
        self
    }

    /// Bytes delivered on the access (client↔edge) segment.
    pub fn access_bytes(mut self, n: u64) -> Self {
        self.access_bytes = n;
        self
    }

    /// Bytes delivered on the WAN (edge↔cloud) segment.
    pub fn wan_bytes(mut self, n: u64) -> Self {
        self.wan_bytes = n;
        self
    }

    /// Bytes delivered on the inter-edge LAN segment.
    pub fn lan_bytes(mut self, n: u64) -> Self {
        self.lan_bytes = n;
        self
    }

    /// Finish the report. Without a `records` call this is an empty
    /// report carrying only the out-of-band fields.
    pub fn build(self) -> QoeReport {
        QoeReport {
            failed: self.failed,
            access_bytes: self.access_bytes,
            wan_bytes: self.wan_bytes,
            lan_bytes: self.lan_bytes,
            ..self.records_agg
        }
    }
}

impl QoeReport {
    /// Start building a report.
    pub fn builder() -> QoeReportBuilder {
        QoeReportBuilder::default()
    }

    /// Build a report from records (network byte counts added separately).
    pub fn from_records(records: &[Record]) -> QoeReport {
        QoeReport::builder().records(records).build()
    }

    /// Fold one completed request into the report.
    pub fn push(&mut self, r: &Record) {
        self.completed += 1;
        self.retries += u64::from(r.retries);
        if r.retries > 0 {
            self.retried_requests += 1;
        }
        let l = r.latency_ms();
        self.latency_ms.push(l);
        self.latency_by_kind.entry(r.kind).or_default().push(l);
        self.latency_by_path
            .entry(r.path.label())
            .or_default()
            .push(l);
        match r.path {
            Path::EdgeHit => self.edge_hits += 1,
            Path::PeerHit => self.peer_hits += 1,
            Path::CloudMiss | Path::Baseline => self.cloud_trips += 1,
        }
        if let Some(c) = r.correct {
            self.judged += 1;
            self.correct += u64::from(c);
            self.accuracy = Some(self.correct as f64 / self.judged as f64);
        }
    }

    /// Cache hit ratio over completed requests (local + peer hits).
    pub fn hit_ratio(&self) -> f64 {
        let n = self.edge_hits + self.peer_hits + self.cloud_trips;
        if n == 0 {
            0.0
        } else {
            (self.edge_hits + self.peer_hits) as f64 / n as f64
        }
    }

    /// Mean latency in ms.
    pub fn mean_latency_ms(&self) -> f64 {
        self.latency_ms.mean()
    }

    /// p99 latency (ms) over the requests the edge actually served — every
    /// path except `baseline`. Under admission control the baseline records
    /// are shed requests that completed through the origin fallback, so
    /// this isolates how the admitted work fared while the edge shed load.
    pub fn admitted_p99_ms(&self) -> f64 {
        let mut s = Summary::new();
        for (label, sum) in &self.latency_by_path {
            if *label != Path::Baseline.label() {
                s.merge(sum);
            }
        }
        s.p99()
    }

    /// Canonical, deterministic serialization on the shared
    /// [`CanonicalWriter`]: per-kind sections are emitted in sorted key
    /// order (the backing `BTreeMap` iterates sorted by construction), so
    /// two identical runs produce byte-identical strings. Used by the
    /// determinism tests and the CI determinism job to diff reports.
    pub fn canonical(&mut self) -> String {
        let mut w = CanonicalWriter::new();
        w.field("completed", self.completed)
            .field("failed", self.failed)
            .end_line();
        w.field("edge_hits", self.edge_hits)
            .field("peer_hits", self.peer_hits)
            .field("cloud_trips", self.cloud_trips)
            .end_line();
        w.field("retries", self.retries)
            .field("retried_requests", self.retried_requests)
            .end_line();
        match self.accuracy {
            Some(a) => w.float6("accuracy", a),
            None => w.field("accuracy", "n/a"),
        }
        .end_line();
        w.word("latency")
            .float6("mean", self.latency_ms.mean())
            .float6("median", self.latency_ms.median())
            .float6("p99", self.latency_ms.quantile(0.99))
            .end_line();
        for (kind, summary) in self.latency_by_kind.iter_mut() {
            w.field("kind", kind)
                .field("n", summary.count())
                .float6("mean", summary.mean())
                .float6("median", summary.median())
                .end_line();
        }
        w.word("bytes")
            .field("access", self.access_bytes)
            .field("wan", self.wan_bytes)
            .field("lan", self.lan_bytes)
            .end_line();
        w.finish()
    }

    /// Publish the report's counters into the shared metrics registry
    /// under the `qoe.` prefix. Latency summaries are published as a
    /// gauge of the mean only (full distributions already live in the
    /// registry's latency histograms, fed per-request by the drivers).
    pub fn publish(&self, reg: &MetricsRegistry) {
        reg.counter_add("qoe.completed", self.completed as u64);
        reg.counter_add("qoe.failed", self.failed);
        reg.counter_add("qoe.edge_hits", self.edge_hits);
        reg.counter_add("qoe.peer_hits", self.peer_hits);
        reg.counter_add("qoe.cloud_trips", self.cloud_trips);
        reg.counter_add("qoe.retries", self.retries);
        reg.counter_add("qoe.retried_requests", self.retried_requests);
        reg.counter_add("qoe.access_bytes", self.access_bytes);
        reg.counter_add("qoe.wan_bytes", self.wan_bytes);
        reg.counter_add("qoe.lan_bytes", self.lan_bytes);
        if let Some(a) = self.accuracy {
            reg.gauge_set("qoe.accuracy_ppm", (a * 1e6).round() as i64);
            reg.counter_add("qoe.accuracy_present", 1);
        }
    }

    /// Reconstruct the counter view of a report from registry values
    /// published by [`QoeReport::publish`]. Latency summaries are empty:
    /// the registry keeps distributions as fixed-bucket histograms, which
    /// cannot be folded back into exact [`Summary`] values.
    pub fn from_registry(reg: &MetricsRegistry) -> QoeReport {
        let mut report = QoeReport::builder()
            .failed(reg.counter("qoe.failed"))
            .access_bytes(reg.counter("qoe.access_bytes"))
            .wan_bytes(reg.counter("qoe.wan_bytes"))
            .lan_bytes(reg.counter("qoe.lan_bytes"))
            .build();
        report.completed = reg.counter("qoe.completed") as usize;
        report.edge_hits = reg.counter("qoe.edge_hits");
        report.peer_hits = reg.counter("qoe.peer_hits");
        report.cloud_trips = reg.counter("qoe.cloud_trips");
        report.retries = reg.counter("qoe.retries");
        report.retried_requests = reg.counter("qoe.retried_requests");
        report.accuracy = (reg.counter("qoe.accuracy_present") > 0)
            .then(|| reg.gauge("qoe.accuracy_ppm") as f64 / 1e6);
        report
    }
}

/// Latency reduction of `coic` relative to `baseline`, in percent
/// (the y-axis of both paper figures).
pub fn reduction_percent(baseline_ms: f64, coic_ms: f64) -> f64 {
    if baseline_ms <= 0.0 {
        return 0.0;
    }
    (baseline_ms - coic_ms) / baseline_ms * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(latency_ns: u64, path: Path, correct: Option<bool>) -> Record {
        Record {
            req_id: 0,
            kind: "recognition",
            issued_ns: 1_000,
            completed_ns: 1_000 + latency_ns,
            path,
            correct,
            retries: 0,
        }
    }

    #[test]
    fn retries_aggregate() {
        let mut a = rec(10_000_000, Path::EdgeHit, None);
        a.retries = 2;
        let b = rec(10_000_000, Path::EdgeHit, None);
        let mut c = rec(10_000_000, Path::CloudMiss, None);
        c.retries = 1;
        let report = QoeReport::from_records(&[a, b, c]);
        assert_eq!(report.retries, 3);
        assert_eq!(report.retried_requests, 2);
    }

    #[test]
    fn report_aggregates() {
        let records = vec![
            rec(10_000_000, Path::EdgeHit, Some(true)),
            rec(30_000_000, Path::CloudMiss, Some(true)),
            rec(20_000_000, Path::EdgeHit, Some(false)),
        ];
        let mut report = QoeReport::from_records(&records);
        assert_eq!(report.completed, 3);
        assert_eq!(report.edge_hits, 2);
        assert_eq!(report.cloud_trips, 1);
        assert!((report.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert!((report.mean_latency_ms() - 20.0).abs() < 1e-9);
        assert!((report.latency_ms.median() - 20.0).abs() < 1e-9);
        assert!((report.accuracy.unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_absent_without_truth() {
        let records = vec![rec(1_000, Path::Baseline, None)];
        let report = QoeReport::from_records(&records);
        assert_eq!(report.accuracy, None);
    }

    #[test]
    fn reduction_math() {
        assert!((reduction_percent(100.0, 50.0) - 50.0).abs() < 1e-12);
        assert!((reduction_percent(100.0, 100.0)).abs() < 1e-12);
        assert_eq!(reduction_percent(0.0, 10.0), 0.0);
        assert!(reduction_percent(50.0, 75.0) < 0.0); // regressions are visible
    }

    #[test]
    fn latency_ms_conversion() {
        let r = rec(5_500_000, Path::EdgeHit, None);
        assert!((r.latency_ms() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn builder_attaches_out_of_band_fields() {
        let records = vec![rec(10_000_000, Path::EdgeHit, None)];
        let report = QoeReport::builder()
            .records(&records)
            .failed(2)
            .access_bytes(100)
            .wan_bytes(50)
            .lan_bytes(7)
            .build();
        assert_eq!(report.completed, 1);
        assert_eq!(report.failed, 2);
        assert_eq!(report.access_bytes, 100);
        assert_eq!(report.wan_bytes, 50);
        assert_eq!(report.lan_bytes, 7);
        // Without records: an empty report that still carries the fields.
        let empty = QoeReport::builder().failed(1).build();
        assert_eq!(empty.completed, 0);
        assert_eq!(empty.failed, 1);
    }

    #[test]
    fn canonical_byte_format_is_frozen() {
        let records = vec![
            rec(10_000_000, Path::EdgeHit, Some(true)),
            rec(30_000_000, Path::CloudMiss, Some(true)),
        ];
        let mut report = QoeReport::builder()
            .records(&records)
            .access_bytes(12)
            .wan_bytes(34)
            .lan_bytes(0)
            .build();
        let expected = "completed=2 failed=0\n\
                        edge_hits=1 peer_hits=0 cloud_trips=1\n\
                        retries=0 retried_requests=0\n\
                        accuracy=1.000000\n\
                        latency mean=20.000000 median=20.000000 p99=29.800000\n\
                        kind=recognition n=2 mean=20.000000 median=20.000000\n\
                        bytes access=12 wan=34 lan=0\n";
        assert_eq!(report.canonical(), expected);
        // Absent accuracy prints the n/a sentinel, not a number.
        let mut plain = QoeReport::from_records(&[rec(1_000_000, Path::Baseline, None)]);
        assert!(plain.canonical().contains("accuracy=n/a\n"));
    }

    #[test]
    fn registry_roundtrip_preserves_counter_view() {
        let records = vec![
            rec(10_000_000, Path::EdgeHit, Some(true)),
            rec(30_000_000, Path::PeerHit, Some(false)),
            rec(20_000_000, Path::CloudMiss, None),
        ];
        let report = QoeReport::builder()
            .records(&records)
            .failed(1)
            .access_bytes(10)
            .wan_bytes(20)
            .lan_bytes(30)
            .build();
        let reg = MetricsRegistry::new();
        report.publish(&reg);
        let back = QoeReport::from_registry(&reg);
        assert_eq!(back.completed, report.completed);
        assert_eq!(back.failed, report.failed);
        assert_eq!(back.edge_hits, report.edge_hits);
        assert_eq!(back.peer_hits, report.peer_hits);
        assert_eq!(back.cloud_trips, report.cloud_trips);
        assert_eq!(back.retries, report.retries);
        assert_eq!(back.retried_requests, report.retried_requests);
        assert_eq!(back.access_bytes, report.access_bytes);
        assert_eq!(back.wan_bytes, report.wan_bytes);
        assert_eq!(back.lan_bytes, report.lan_bytes);
        assert!((back.accuracy.unwrap() - 0.5).abs() < 1e-6);
        // No accuracy published → none reconstructed (0.0 is a real value,
        // so absence must not collapse into it).
        let reg2 = MetricsRegistry::new();
        QoeReport::from_records(&[rec(1_000, Path::Baseline, None)]).publish(&reg2);
        assert_eq!(QoeReport::from_registry(&reg2).accuracy, None);
    }
}
