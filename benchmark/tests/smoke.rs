//! Smoke every workload through the built binary in `--quick` mode (one
//! set-up, a twentieth of the measuring time), timed and traced, and check
//! what the driver relies on: the result line's shape, the metric names and
//! units, and that the traced run reconciles.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 6] = [
    "hit_small",
    "payload_large",
    "recog_shared",
    "miss_churn",
    "mix_open",
    "sim_replay",
];

/// `"name": {"value": v, "unit": "u"}` pairs of a result line's metrics.
fn metrics(line: &str) -> Vec<(String, f64, String)> {
    let body = line.split_once("\"metrics\": {").expect("metrics object").1;
    body.split("}, ")
        .filter_map(|item| {
            let (name, rest) = item
                .trim_start_matches('"')
                .split_once("\": {\"value\": ")?;
            let (value, unit) = rest.split_once(", \"unit\": \"")?;
            Some((
                name.to_string(),
                value.parse().ok()?,
                unit.trim_end_matches(['"', '}']).to_string(),
            ))
        })
        .collect()
}

fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let after = text.split_once(&format!("\"{section}\": [")).unwrap().1;
    let block = after.split_once(']').unwrap().0;
    block
        .split('{')
        .skip(1)
        .map(|m| {
            let field = |k: &str| {
                let rest = m.split_once(&format!("\"{k}\": \"")).unwrap().1;
                rest.split_once('"').unwrap().0.to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool, out_dir: &Path) -> (String, Vec<(String, f64, String)>) {
    let out = Command::new(env!("CARGO_BIN_EXE_coic-benchmark"))
        .args(["--workload", workload, "--seed", "11", "--quick"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap().to_string();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": ")
            && last.contains(", \"failed\": 0, \"metrics\": {"),
        "{workload}: {last}"
    );
    let m = metrics(&last);
    (stdout, m)
}

#[test]
fn every_workload_runs_timed_and_traced_and_prints_what_benchmark_json_lists() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let (end_to_end, per_layer) = (listed("end_to_end"), listed("per_layer"));
    for workload in WORKLOADS {
        let (_, timed) = run(workload, false, &out_dir);
        let printed: Vec<(String, String)> = timed
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(printed, end_to_end, "{workload}");
        for (name, value, _) in &timed {
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload} {name} = {value}"
            );
        }

        let (stdout, traced) = run(workload, true, &out_dir);
        let printed: Vec<(String, String)> = traced
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(printed, per_layer, "{workload}");
        let value = |name: &str| traced.iter().find(|(n, _, _)| n == name).unwrap().1;

        // The span file holds one JSON object per line, and every span but
        // a root names a parent recorded before it.
        let file = out_dir.join(format!("trace_{workload}.jsonl"));
        let text = std::fs::read_to_string(&file).unwrap();
        assert!(stdout.contains(&format!("trace_{workload}.jsonl")));
        assert!(text.lines().count() > 100, "{workload}");
        for (i, line) in text.lines().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"id\":{i},\"parent\":")),
                "{line}"
            );
            assert!(
                line.contains("\"name\":\"") && line.ends_with('}'),
                "{line}"
            );
        }

        if workload != "sim_replay" {
            // wait_reply = stages + echo + unattributed, per path.
            for path in ["hit", "miss"] {
                let wait = value(&format!("netrun.wait_reply_us.{path}"));
                if wait > 0.0 {
                    let sum = value(&format!("netrun.stages_us.{path}"))
                        + value("rt.echo_rtt_us")
                        + value(&format!("netrun.unattributed_us.{path}"));
                    assert!(
                        (wait - sum).abs() < 1e-6,
                        "{workload} {path}: {wait} != {sum}"
                    );
                }
            }
            assert!(value("netrun.wait_reply_us.hit") > 0.0, "{workload}");
            assert!(value("rt.echo_rtt_us") > 0.0 && value("rt.connect_us") > 0.0);
        } else {
            assert!(value("simrun.wall_us_per_req") > 0.0 && value("simrun.report_fnv") > 0.0);
        }
        if workload == "miss_churn" {
            assert!(value("netrun.wait_reply_us.miss") > 0.0);
            assert!(value("cache.exact_evictions") > 0.0);
        }
        assert_eq!(value("engine.retries"), 0.0, "{workload}");
        assert_eq!(value("harness.fail_share"), 0.0, "{workload}");
    }
}

#[test]
fn a_bad_command_line_fails_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "0"],
        &["--frobnicate", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_coic-benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
