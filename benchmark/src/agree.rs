//! `check` and `agree`: sets of runs as child processes of this binary, one
//! fresh process per run so that memory and caches never carry over.
//!
//! `check` runs fixed operation counts twice on one seed and demands exact
//! repeats; `agree` runs the timed benchmark in two sets and demands that
//! the sets agree within each metric's bound.

use std::process::Command;

use crate::json::{self, Json};
use crate::spec::{self, Better, END_TO_END, WORKLOADS};
use crate::stats;

/// Where this run happened: printed with every result, since a number that
/// depends on threads means nothing without the processor count.
pub fn environment() -> Vec<(&'static str, String)> {
    let run = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("cpu", cpu),
        ("rustc", run("rustc", &["--version"])),
        ("git_rev", run("git", &["rev-parse", "--short", "HEAD"])),
    ]
}

/// `(name, bound)` of every end-to-end metric in a `BENCHMARK.json`.
pub fn parse_bounds(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = json::parse(text)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name} has no bound"))?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// One child run: its `info` lines and its result line.
struct ChildRun {
    info: Vec<(String, String)>,
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl ChildRun {
    fn info(&self, key: &str) -> &str {
        self.info
            .iter()
            .find(|(k, _)| k == key)
            .map_or("", |(_, v)| v.as_str())
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

fn child(args: &[String]) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "run {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let info = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("info "))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let result = json::parse(last)?;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildRun {
        info,
        correct: result.get("correct") == Some(&Json::Bool(true)),
        failed: result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        metrics,
    })
}

fn flag<T: std::str::FromStr>(argv: &[String], name: &str, default: T) -> Result<T, String> {
    match argv.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => argv
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn run_args(workload: &str, seed: u64, extra: &[&str]) -> Vec<String> {
    let mut v = vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        seed.to_string(),
    ];
    v.extend(extra.iter().map(|s| s.to_string()));
    v
}

/// Exact-repeat check. Each workload runs a fixed operation count twice on
/// one seed: no request may fail, and the reply ledger, the exact cache's
/// insert count and the simulator's canonical report hash must repeat. A
/// third run on the next seed must pass and differ, which shows the inputs
/// follow the seed and the harness is not fitted to one.
pub fn check(argv: &[String]) -> Result<(), String> {
    let seed = flag(argv, "--seed", spec::DEFAULT_SEED)?;
    let mut problems = Vec::new();
    for w in WORKLOADS {
        let ops = spec::check_ops(w.name).to_string();
        let extra = ["--ops", ops.as_str(), "--quick"];
        let a = child(&run_args(w.name, seed, &extra))?;
        let b = child(&run_args(w.name, seed, &extra))?;
        let other = child(&run_args(w.name, seed + 1, &extra))?;
        println!(
            "check {:<14} ledger={} repeat={} other_seed={} failed={}+{}+{} exact_insertions={}|{} report_fnv={}",
            w.name,
            a.info("ledger"),
            b.info("ledger"),
            other.info("ledger"),
            a.failed,
            b.failed,
            other.failed,
            a.info("exact_insertions"),
            b.info("exact_insertions"),
            a.info("report_fnv"),
        );
        for (run, name) in [(&a, "first"), (&b, "repeat"), (&other, "other-seed")] {
            if !run.correct || run.failed != 0 {
                problems.push(format!(
                    "{}: {name} run had {} failed requests",
                    w.name, run.failed
                ));
            }
        }
        for key in ["ledger", "exact_insertions", "report_fnv"] {
            if a.info(key) != b.info(key) {
                problems.push(format!(
                    "{}: {key} drifted between two runs of seed {seed}: {} then {}",
                    w.name,
                    a.info(key),
                    b.info(key)
                ));
            }
        }
        if a.info("ledger") == other.info("ledger") {
            problems.push(format!(
                "{}: seed {} gave the ledger of seed {seed}",
                w.name,
                seed + 1
            ));
        }
        if w.name == "sim_replay" && seed == spec::DEFAULT_SEED {
            let recorded = format!("{:016x}", spec::SIM_REPLAY_REPORT_FNV);
            if a.info("report_fnv") != recorded {
                problems.push(format!(
                    "sim_replay: canonical report hash {} differs from the recorded {recorded}",
                    a.info("report_fnv")
                ));
            }
        }
    }
    if problems.is_empty() {
        println!("check: every workload repeated exactly");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// Is `second` worse than `first` by more than `bound` of `first`?
fn worse_by(first: f64, second: f64, better: Better, bound: f64) -> bool {
    match better {
        Better::Lower => second > first * (1.0 + bound),
        Better::Higher => second < first * (1.0 - bound),
    }
}

/// Two sets of timed runs of the same build. With `--runs N` each set runs
/// every workload on N consecutive seeds, as the driver does with ten: a
/// metric passes when the spread of each set (quartile distance over the
/// median; not applied to `setup_s`) stays within its bound and the second
/// set's median is not worse than the first's by more than the bound. With
/// one run per set there is no spread, and the two values must lie within
/// the bound of each other.
pub fn agree(argv: &[String]) -> Result<(), String> {
    let seed = flag(argv, "--seed", spec::DEFAULT_SEED)?;
    let runs: u64 = flag(argv, "--runs", 1)?;
    let seconds: f64 = flag(argv, "--seconds", spec::DEFAULT_SECONDS)?;
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bounds = parse_bounds(&text)?;
    for (k, v) in environment() {
        println!("env {k}={v}");
    }
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>7} {:>8} {:>8} {:>6} {:>9}  verdict",
        "workload", "metric", "set1", "set2", "ratio", "spread1", "spread2", "bound", "samples"
    );
    let mut disagreements = 0;
    for w in WORKLOADS {
        // values[set][metric] over the seeds; samples of the last run.
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        let mut samples = String::new();
        for set in &mut values {
            for s in 0..runs.max(1) {
                let secs = seconds.to_string();
                let run = child(&run_args(w.name, seed + s, &["--seconds", secs.as_str()]))?;
                if !run.correct {
                    return Err(format!(
                        "{} seed {}: {} failed requests",
                        w.name,
                        seed + s,
                        run.failed
                    ));
                }
                for (slot, m) in set.iter_mut().zip(END_TO_END) {
                    slot.push(
                        run.metric(m.name)
                            .ok_or_else(|| format!("{} missing", m.name))?,
                    );
                }
                samples = run.info("samples").to_string();
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == m.name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("{} has no bound in BENCHMARK.json", m.name))?;
            let med = |set: usize| stats::median(&values[set][i]).unwrap_or(0.0);
            let spread = |set: usize| stats::spread(&values[set][i]);
            let (a, b) = (med(0), med(1));
            let steady =
                m.name == "setup_s" || [spread(0), spread(1)].iter().flatten().all(|s| *s <= bound);
            let agrees = if runs > 1 {
                !worse_by(a, b, m.better, bound)
            } else {
                !worse_by(a, b, m.better, bound) && !worse_by(b, a, m.better, bound)
            };
            let show = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{s:.4}"));
            println!(
                "{:<14} {:<12} {:>14.4} {:>14.4} {:>7.4} {:>8} {:>8} {:>6} {:>9}  {}",
                w.name,
                m.name,
                a,
                b,
                if a != 0.0 { b / a } else { 0.0 },
                show(spread(0)),
                show(spread(1)),
                bound,
                samples,
                if steady && agrees { "ok" } else { "DISAGREE" }
            );
            disagreements += usize::from(!(steady && agrees));
        }
    }
    if disagreements == 0 {
        println!("agree: both sets agree on every metric of every workload");
        Ok(())
    } else {
        Err(format!("{disagreements} metric(s) disagree"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!(worse_by(100.0, 111.0, Better::Lower, 0.10));
        assert!(!worse_by(100.0, 109.0, Better::Lower, 0.10));
        assert!(!worse_by(100.0, 50.0, Better::Lower, 0.10));
        assert!(worse_by(100.0, 89.0, Better::Higher, 0.10));
        assert!(!worse_by(100.0, 91.0, Better::Higher, 0.10));
        assert!(!worse_by(100.0, 500.0, Better::Higher, 0.10));
    }

    #[test]
    fn bounds_are_read_by_name() {
        let text = r#"{"end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.2},
                                       {"name": "b", "unit": "s", "better": "lower", "bound": 0.05}]}"#;
        assert_eq!(
            parse_bounds(text).unwrap(),
            vec![("a".to_string(), 0.2), ("b".to_string(), 0.05)]
        );
        assert!(parse_bounds(r#"{"end_to_end": [{"name": "a"}]}"#).is_err());
        assert!(parse_bounds("{}").is_err());
    }
}
