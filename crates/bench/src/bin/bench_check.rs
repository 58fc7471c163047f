//! Bench regression gate: compare a fresh `BENCH_edge.json` against the
//! committed baseline and exit nonzero on regression.
//!
//! ```text
//! bench_check --baseline bench/baseline.json --current BENCH_edge.json \
//!             [--tolerance 0.25] [--min-speedup 1.2]
//! ```
//!
//! Direction-aware: only *worse* results fail (throughput below the band,
//! p50 above it, sharded-vs-mutex speedup under the floor). Absolute
//! numbers drift with host speed, so CI runs a wide band (±25%) plus the
//! machine-independent speedup ratio; tighter gating against a
//! locally-refreshed baseline is a developer workflow (see
//! EXPERIMENTS.md).
//!
//! The *current* report is additionally held to the snapshot-index
//! acceptance gate ([`check_approx_gate`]): the default snapshot family
//! must beat the mutex baseline on p95 and throughput at every thread
//! count, and every snapshot family's hit ratio is pinned to the linear
//! scan. That comparison is within one run on one host, so no tolerance
//! band applies.

use coic_bench::perf::{check_approx_gate, check_regression, BenchReport};
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    baseline: PathBuf,
    current: PathBuf,
    tolerance: f64,
    min_speedup: f64,
}

fn parse_args() -> Result<Opts, String> {
    let mut baseline = None;
    let mut current = None;
    let mut tolerance = 0.25;
    let mut min_speedup = 1.2;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || {
            args.next()
                .ok_or_else(|| format!("missing value after {flag}"))
        };
        match flag.as_str() {
            "--baseline" => baseline = Some(PathBuf::from(val()?)),
            "--current" => current = Some(PathBuf::from(val()?)),
            "--tolerance" => {
                tolerance = val()?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --tolerance: {e}"))?
            }
            "--min-speedup" => {
                min_speedup = val()?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --min-speedup: {e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Opts {
        baseline: baseline.ok_or("--baseline is required")?,
        current: current.ok_or("--current is required")?,
        tolerance,
        min_speedup,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_check: {e}");
            eprintln!(
                "usage: bench_check --baseline <json> --current <json> \
                 [--tolerance 0.25] [--min-speedup 1.2]"
            );
            return ExitCode::from(2);
        }
    };
    let baseline = match BenchReport::load(&opts.baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_check: baseline: {e}");
            return ExitCode::from(2);
        }
    };
    let current = match BenchReport::load(&opts.current) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_check: current: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "bench_check: baseline rev {} vs current rev {} \
         (tolerance ±{:.0}%, min speedup {:.2})",
        baseline.git_rev,
        current.git_rev,
        opts.tolerance * 100.0,
        opts.min_speedup
    );
    let cells_compared = baseline.results.len();
    let mut verdict = check_regression(&baseline, &current, opts.tolerance, opts.min_speedup);
    let approx = check_approx_gate(&current);
    verdict.failures.extend(approx.failures);
    verdict.notes.extend(approx.notes);
    for note in &verdict.notes {
        println!("  ok: {note}");
    }
    if verdict.failures.is_empty() {
        println!("bench_check: PASS ({cells_compared} cells compared)");
        ExitCode::SUCCESS
    } else {
        for failure in &verdict.failures {
            eprintln!("  REGRESSION: {failure}");
        }
        eprintln!("bench_check: FAIL ({} regressions)", verdict.failures.len());
        ExitCode::FAILURE
    }
}
