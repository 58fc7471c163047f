//! # coic-cli
//!
//! Command-line front end for the CoIC reproduction. Subcommands:
//!
//! ```text
//! coic trace gen   --app safedriving|arena|vrvideo|flashcrowd --out trace.csv [...]
//! coic trace info  --in trace.csv
//! coic sim         --in trace.csv [--mode coic|origin] [network flags]
//!                  [--trace-out t.jsonl] [--metrics-out m.txt]
//! coic live        --in trace.csv [--seed N]
//!                  [--trace-out t.jsonl] [--metrics-out m.txt]
//! coic compare     --in trace.csv [network flags]
//! coic obs report  [--trace t.jsonl] [--metrics m.txt]
//! coic model gen   --size-bytes N --seed N --out model.cmf
//! coic model info  --in model.cmf
//! coic model render --in model.cmf --out render.pgm [--size 256]
//! coic hash        --in any-file
//! coic pano gen    --frame N --out pano.pgm [--height 256]
//! coic pano crop   --frame N --yaw R --pitch R --out view.pgm
//! coic lint        [--root DIR] [--rules FILE]
//! coic analyze trace --trace t.jsonl --metrics m.txt [--invariants FILE]
//! ```
//!
//! All subcommand logic lives in this library so it is unit-testable; the
//! binary is a thin `main`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};

/// Top-level dispatch: returns the text to print, or an error message.
pub fn run(raw: Vec<String>) -> Result<String, String> {
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(USAGE.to_string());
    }
    let args = Args::parse(raw).map_err(|e| e.to_string())?;
    let cmd: Vec<&str> = args.command.iter().map(|s| s.as_str()).collect();
    match cmd.as_slice() {
        ["trace", "gen"] => commands::trace_gen(&args),
        ["trace", "info"] => commands::trace_info(&args),
        ["sim"] => commands::sim(&args),
        ["live"] => commands::live(&args),
        ["compare"] => commands::compare(&args),
        ["obs", "report"] => commands::obs_report(&args),
        ["model", "gen"] => commands::model_gen(&args),
        ["model", "info"] => commands::model_info(&args),
        ["model", "render"] => commands::model_render(&args),
        ["hash"] => commands::hash(&args),
        ["pano", "gen"] => commands::pano_gen(&args),
        ["pano", "crop"] => commands::pano_crop(&args),
        ["lint"] => commands::lint(&args),
        ["analyze", "trace"] => commands::analyze_trace(&args),
        [] | ["help"] => Ok(USAGE.to_string()),
        other => Err(format!("unknown command {:?}\n\n{USAGE}", other.join(" ")).into()),
    }
    .map_err(|e: Box<dyn std::error::Error>| e.to_string())
}

/// Usage text.
pub const USAGE: &str = "\
coic — cooperative edge caching for mobile immersive computing

USAGE:
  coic trace gen    --app safedriving|arena|vrvideo|flashcrowd --out FILE
                    [--users N] [--requests N] [--seed N] [--zipf S]
                    [--pool N] [--model-kb N] [--frames N]
                    [--rate X] [--burst-x X] [--burst-start-ms N]
                    [--burst-ms N] [--hot N] [--horizon-ms N]
                    [--zones N] [--shared F]
  coic trace info   --in FILE
  coic sim          --in FILE [--mode coic|origin] [--access-mbps X]
                    [--wan-mbps X] [--clients N] [--edges N]
                    [--peer-lookup 0|1] [--peer-fanout K] [--replicate N]
                    [--prefetch N] [--seed N]
                    [--origin-fallback 0|1] [--open-loop 0|1]
                    [--lookup-ms N] [--admission N]
                    [--admission-aimd 0|1] [--admission-queue N]
                    [--admission-age-ms N] [--latency-target-ms N]
                    [--retry-after-ms N] [--brownout 0|1]
                    [--edge-down MS@EDGE[,MS@EDGE...]]
                    [--canonical 0|1] [--trace-out FILE] [--metrics-out FILE]
  coic live         --in FILE [--seed N]
                    [--trace-out FILE] [--metrics-out FILE]
  coic compare      --in FILE [same network flags as sim]
  coic obs report   [--trace FILE] [--metrics FILE]
  coic model gen    --size-bytes N --out FILE [--seed N]
  coic model info   --in FILE
  coic model render --in FILE --out FILE.pgm [--size N]
  coic hash         --in FILE
  coic pano gen     --frame N --out FILE.pgm [--height N]
  coic pano crop    --frame N --yaw R --pitch R --out FILE.pgm
                    [--fov R] [--width N] [--height N]
  coic lint         [--root DIR] [--rules FILE]
  coic analyze trace --trace FILE --metrics FILE
                    [--invariants FILE] [--root DIR]";
