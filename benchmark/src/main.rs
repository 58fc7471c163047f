//! The CoIC benchmark harness.
//!
//! `coic-benchmark --workload W --seed N --seconds S --trace 0|1` runs one
//! workload in this process (cloud, edge and load generator together) and
//! prints its metrics by name, then one JSON result line. `check` and
//! `agree` run sets of those as child processes. See `benchmark/README.md`.

#![forbid(unsafe_code)]

mod agree;
mod inputs;
mod json;
mod layers;
mod live;
mod open;
mod run;
mod sim;
mod span;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use live::Stop;
use spec::{Metric, END_TO_END, PER_LAYER};

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Fixed operation count in place of `seconds` (exact-repeat runs).
    pub ops: Option<u64>,
    pub trace: bool,
    /// One set-up and a twentieth of the measuring time: a smoke run.
    pub quick: bool,
    /// Where trace files go.
    pub out_dir: PathBuf,
}

impl Args {
    fn stop(&self) -> Stop {
        match self.ops {
            Some(n) => Stop::Ops(n),
            None => Stop::After(self.horizon()),
        }
    }

    pub fn horizon(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn usage() -> String {
    let mut text = "usage: coic-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
[--ops <n>] [--trace <0|1>] [--quick] [--out-dir <dir>]
       coic-benchmark check [--seed <n>]
       coic-benchmark agree [--seed <n>] [--runs <n>] [--seconds <s>]
workloads:"
        .to_string();
    for w in spec::WORKLOADS {
        text.push_str(&format!("\n  {:<14} {}", w.name, w.why));
    }
    text
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        ops: None,
        trace: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--ops" => args.ops = Some(value.parse().map_err(|e| bad(&e))?),
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }
    if args.ops == Some(0) {
        return Err("--ops must be at least 1".into());
    }
    if args.quick {
        args.seconds /= 20.0;
    }
    Ok(args)
}

/// What a run hands back: the result line's fields and the metric values in
/// table order.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(Metric, f64)>,
    /// Free-form facts printed before the result line (`key=value`).
    pub info: Vec<(&'static str, String)>,
}

fn run_one(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < spec::CLIENTS {
        return Err(format!(
            "{nproc} processor(s): the load is generated by {} client threads, which would time each other",
            spec::CLIENTS
        ));
    }
    let io = |e: std::io::Error| format!("{}: {e}", args.workload);
    let (mut ready, setups) = run::set_up_repeatedly(
        &args.workload,
        args.seed,
        args.horizon(),
        args.quick || args.trace,
    )
    .map_err(io)?;
    let mut info = vec![
        ("nproc", nproc.to_string()),
        ("clients", spec::CLIENTS.to_string()),
        ("connections", spec::CLIENTS.to_string()),
        ("setups", format!("{setups:?}")),
    ];
    if args.trace {
        let mut outcome = trace::traced_run(args, &mut ready).map_err(io)?;
        info.append(&mut outcome.info);
        return Ok(Outcome { info, ..outcome });
    }
    let m = run::timed_run(&mut ready, args.stop()).map_err(io)?;
    let per_sample = run::requests_per_sample(&ready.inputs.plan);
    let e2e = run::end_to_end(&setups, &m, per_sample)
        .ok_or_else(|| format!("{}: no request was answered", args.workload))?;
    info.push(("ledger", format!("{:016x}", m.ledger.0)));
    info.push(("samples", m.samples.len().to_string()));
    info.push(("wall_s", format!("{:.3}", m.wall_ns as f64 / 1e9)));
    info.push(("retries", m.tally.retries.to_string()));
    info.push(("slice_p50_us", format!("{:.1?}", e2e.sliced.slice_p50_us)));
    if let Some(stack) = &ready.stack {
        let insertions = stack.edge.exact_cache_metrics().insertions;
        info.push(("exact_insertions", insertions.to_string()));
    }
    if let Some(fnv) = ready.sim.report_fnv.first() {
        info.push(("report_fnv", format!("{fnv:016x}")));
    }
    if !m.late_ns.is_empty() {
        info.push(("slo_share", format!("{:.4}", open::slo_share(&m))));
    }
    let failed = m.tally.failed + ready.warmup.failed;
    Ok(Outcome {
        correct: failed == 0,
        attempted: m.tally.attempted + ready.warmup.attempted,
        failed,
        metrics: END_TO_END.iter().copied().zip(e2e.values()).collect(),
        info,
    })
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json` in the working
/// directory when there is one.
fn bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    agree::parse_bounds(&text).unwrap_or_default()
}

fn print_outcome(args: &Args, out: &Outcome) {
    println!(
        "# coic-benchmark workload={} seed={} seconds={} ops={:?} trace={} quick={}",
        args.workload, args.seed, args.seconds, args.ops, args.trace as u8, args.quick
    );
    for (k, v) in agree::environment() {
        println!("env {k}={v}");
    }
    for (k, v) in &out.info {
        println!("info {k}={v}");
    }
    let bounds = bounds();
    for (metric, value) in &out.metrics {
        let bound = bounds
            .iter()
            .find(|(n, _)| n == metric.name)
            .map_or(String::new(), |(_, b)| format!(" bound={b}"));
        println!(
            "metric {:<32} {:>16} {:<6} better={}{bound}",
            metric.name,
            json::number(*value),
            metric.unit,
            metric.better.as_str()
        );
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::number(*v),
                json::quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some("check") => ("check", &argv[1..]),
        Some("agree") => ("agree", &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let result = match command {
        "check" => agree::check(rest),
        "agree" => agree::agree(rest),
        _ => parse_args(rest).and_then(|args| {
            if !spec::is_workload(&args.workload) {
                return Err(format!("unknown workload {:?}\n{}", args.workload, usage()));
            }
            let out = run_one(&args)?;
            debug_assert_eq!(
                out.metrics.len(),
                if args.trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                }
            );
            print_outcome(&args, &out);
            Ok(())
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("coic-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
