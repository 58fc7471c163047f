//! The benchmark's vocabulary: workload and metric names, units and
//! directions, and the constants frozen on the seed commit. `BENCHMARK.json`
//! repeats the names; a self-test keeps the two in step.

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 7;
/// Measured seconds when `--seconds` is not given (`run_seconds`).
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Load-generating client threads and connections. The harness refuses to
/// run on fewer processors, because the clients would then time each other.
pub const CLIENTS: usize = 2;
/// How often the set-up is repeated in one run, at least; `setup_s` is the
/// median.
pub const SETUPS: usize = 3;

/// `mix_open` offered rate, requests per second: 40 % of the rate at which
/// the seed commit stopped keeping up on the 2-vCPU sandbox. Frozen: never
/// re-calibrated per run (see README, "Calibration of mix_open").
pub const MIX_OPEN_RATE_RPS: f64 = 400.0;
/// Saturation rate the five `harness.knee_rps` steps are fractions of.
pub const MIX_OPEN_SATURATION_RPS: f64 = 1000.0;
/// `mix_open` latency limit from due time, microseconds (frozen).
pub const MIX_OPEN_LIMIT_US: f64 = 10_000.0;

/// Fixed operation counts of `check` (exact-repeat runs), per workload.
pub fn check_ops(workload: &str) -> u64 {
    match workload {
        "hit_small" => 20_000,
        "payload_large" => 300,
        "recog_shared" => 2_000,
        "miss_churn" => 1_600,
        "mix_open" => 3_000,
        _ => 40,
    }
}

/// Canonical `QoeReport` hash of `sim_replay`'s first trace at
/// [`DEFAULT_SEED`], recorded on the seed commit. `check` fails when the
/// simulator stops reproducing it.
pub const SIM_REPLAY_REPORT_FNV: u64 = 0xc14b_9a34_4b67_4900;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "hit_small",
        why: "closed loop, 2 clients, 16 warmed 8 KB panoramas, all hits: per-message cost (IO driver, framing, codec, engine) is all of the time",
    },
    Workload {
        name: "payload_large",
        why: "closed loop, 2 clients, 8 warmed 1 MB models, all hits: per-byte cost (CRC, copies) dominates and per-message cost vanishes",
    },
    Workload {
        name: "recog_shared",
        why: "closed loop, 2 clients, recognition over 100 Zipf-0.5 landmarks with fresh views: vision and the approximate cache do the work; carries accuracy",
    },
    Workload {
        name: "miss_churn",
        why: "closed loop, 2 clients, 100 kB models over a working set 5x the 8 MiB cache: the miss path, single-flight, cloud connect, insert and evict",
    },
    Workload {
        name: "mix_open",
        why: "open loop at a frozen Poisson rate, 2 pipelined connections, the three paper apps mixed: queueing and head-of-line blocking, latency from due time",
    },
    Workload {
        name: "sim_replay",
        why: "single thread, simrun::run of seeded 16-edge cluster traces: the simulator's event queue, edge node and cluster tier, no sockets or vision",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees; printed by every workload with
/// `--trace 0`. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [Metric; 6] = [
    m("setup_s", "s", Lower),
    m("goodput_rps", "1/s", Higher),
    m("lat_p50_us", "us", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("hit_ratio", "ratio", Higher),
    m("accuracy", "ratio", Higher),
];

/// Single layers, measured from outside; printed by every workload with
/// `--trace 1`. A metric that does not apply to a workload reads 0.
pub const PER_LAYER: [Metric; 65] = [
    m("workload.gen_ns_per_req", "ns", Lower),
    m("vision.observe_us", "us", Lower),
    m("vision.extract_us", "us", Lower),
    m("vision.classify_us", "us", Lower),
    m("client.prepare_us", "us", Lower),
    m("cloud.execute_us.recog", "us", Lower),
    m("cloud.execute_us.model", "us", Lower),
    m("cloud.execute_us.pano", "us", Lower),
    m("content.model_gen_us", "us", Lower),
    m("content.pano_gen_us", "us", Lower),
    m("cache.exact_lookup_ns", "ns", Lower),
    m("cache.exact_insert_ns", "ns", Lower),
    m("cache.exact_hits", "count", Higher),
    m("cache.exact_misses", "count", Lower),
    m("cache.exact_insertions", "count", Lower),
    m("cache.exact_evictions", "count", Lower),
    m("cache.lookups_per_request", "ratio", Lower),
    m("cache.approx_lookup_ns", "ns", Lower),
    m("cache.approx_insert_ns", "ns", Lower),
    m("cache.maintain_us", "us", Lower),
    m("cache.recog_hits", "count", Higher),
    m("cache.recog_misses", "count", Lower),
    m("index.rebuilds", "count", Lower),
    m("index.probes_per_lookup", "ratio", Lower),
    m("protocol.encode_query_ns", "ns", Lower),
    m("protocol.decode_query_ns", "ns", Lower),
    m("protocol.encode_reply_ns", "ns", Lower),
    m("protocol.decode_reply_ns", "ns", Lower),
    m("protocol.reply_bytes", "B", Lower),
    m("rt.crc32_mbps", "MB/s", Higher),
    m("rt.frame_encode_ns", "ns", Lower),
    m("rt.frame_decode_ns", "ns", Lower),
    m("rt.echo_rtt_us", "us", Lower),
    m("rt.connect_us", "us", Lower),
    m("engine.client_step_ns", "ns", Lower),
    m("engine.admission_ns", "ns", Lower),
    m("engine.flight_ns", "ns", Lower),
    m("engine.retries", "count", Lower),
    m("cluster.plan_ns", "ns", Lower),
    m("cluster.ring_owner_ns", "ns", Lower),
    m("cluster.peer_hits", "count", Higher),
    m("cluster.lan_bytes", "B", Lower),
    m("simrun.wall_us_per_req", "us", Lower),
    m("simrun.virtual_p50_ms", "ms", Lower),
    m("simrun.report_fnv", "hash32", Lower),
    m("simrun.accuracy", "ratio", Higher),
    m("netrun.wait_reply_us.hit", "us", Lower),
    m("netrun.wait_reply_us.miss", "us", Lower),
    m("netrun.stages_us.hit", "us", Lower),
    m("netrun.stages_us.miss", "us", Lower),
    m("netrun.unattributed_us.hit", "us", Lower),
    m("netrun.unattributed_us.miss", "us", Lower),
    m("obs.counter_ns", "ns", Lower),
    m("obs.observe_ns", "ns", Lower),
    m("obs.event_ns", "ns", Lower),
    m("obs.tax_share", "ratio", Lower),
    m("harness.lat_p95_us", "us", Lower),
    m("harness.lat_p99_us", "us", Lower),
    m("harness.lat_max_us", "us", Lower),
    m("harness.gen_late_p99_us", "us", Lower),
    m("harness.knee_rps", "1/s", Higher),
    m("harness.slo_share", "ratio", Higher),
    m("harness.fail_share", "ratio", Lower),
    m("harness.trace_overhead_share", "ratio", Lower),
    m("harness.samples", "count", Higher),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    /// A name the benchmark contract accepts: starts with a letter or digit,
    /// then letters, digits, `_`, `.` and `-`, at most 64 characters.
    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(
            !well_formed("") && !well_formed(".x") && !well_formed("a b") && !well_formed("µs")
        );
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let text = |m: &Json, k: &str| {
            m.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads and these tables are what
    /// the harness prints: every metric the harness prints must be listed
    /// there with the same unit and direction, and every end-to-end metric
    /// must carry a bound.
    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let text = |k| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (text("name"), text("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let expect = |table: &[Metric]| -> Vec<(String, String, String)> {
            table
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
                .collect()
        };
        let strip = |rows: Vec<(String, String, String, Option<f64>)>| -> Vec<_> {
            rows.into_iter().map(|(n, u, b, _)| (n, u, b)).collect()
        };
        let end_to_end = listed(&doc, "end_to_end");
        assert_eq!(strip(end_to_end.clone()), expect(&END_TO_END));
        assert_eq!(strip(listed(&doc, "per_layer")), expect(&PER_LAYER));
        let bound = |name: &str| {
            end_to_end
                .iter()
                .find(|m| m.0 == name)
                .and_then(|m| m.3)
                .unwrap_or_else(|| panic!("{name} has no bound"))
        };
        for m in END_TO_END {
            assert!(bound(m.name) > 0.0 && bound(m.name) <= 0.25, "{}", m.name);
            // Set-up time gets the largest bound.
            assert!(bound("setup_s") >= bound(m.name), "{}", m.name);
        }
        assert!(listed(&doc, "per_layer").iter().all(|m| m.3.is_none()));
        assert_eq!(
            (END_TO_END[0].name, END_TO_END[0].unit, END_TO_END[0].better),
            ("setup_s", "s", Lower)
        );
    }
}
