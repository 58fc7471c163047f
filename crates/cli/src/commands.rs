//! Subcommand implementations. Each returns the text to print.

use crate::args::Args;
use coic_core::cluster::ClusterConfig;
use coic_core::engine::{AdmissionConfig, BrownoutConfig};
use coic_core::simrun::{compare as sim_compare, run as sim_run, Mode, SimConfig};
use coic_workload::{
    from_csv, summarize, to_csv, ArenaMultiplayer, FlashCrowd, Population, Request, SafeDrivingAr,
    VrVideo, ZoneId, ZoneModel,
};
use std::fmt::Write as _;
use std::time::Duration;

type CmdResult = Result<String, Box<dyn std::error::Error>>;

// ------------------------------------------------------------------ trace --

/// `trace gen`: generate a workload trace and write it as CSV.
pub fn trace_gen(args: &Args) -> CmdResult {
    let app = args.require("app")?;
    let out = args.require("out")?;
    let users: u32 = args.num("users", 4)?;
    let requests: usize = args.num("requests", 100)?;
    let seed: u64 = args.num("seed", 1)?;
    // `--zones N` spreads users round-robin across N zones (zone k maps to
    // edge k in the simulator) instead of colocating everyone at zone 0 —
    // the multi-edge cluster experiments need cross-edge traffic.
    let zones: u32 = args.num("zones", 1)?;
    let shared: f64 = args.num("shared", 1.0)?;
    let population = if zones > 1 {
        Population::round_robin(users, zones)
    } else {
        Population::colocated(users, ZoneId(0))
    };
    let trace: Vec<Request> = match app {
        "safedriving" => SafeDrivingAr {
            population,
            zones: ZoneModel::new(zones, args.num("pool", 40)?, shared, seed),
            rate_per_sec: args.num("rate", 4.0)?,
            zipf_s: args.num("zipf", 0.7)?,
            total_requests: requests,
        }
        .generate(seed),
        "arena" => {
            let model_kb: u64 = args.num("model-kb", 2048)?;
            let models: Vec<(u64, u64)> = (0..args.num("models", 8)?)
                .map(|i| (i, model_kb * 1024))
                .collect();
            ArenaMultiplayer {
                population,
                models,
                zipf_s: args.num("zipf", 0.9)?,
                rate_per_sec: args.num("rate", 1.0)?,
                total_requests: requests,
            }
            .generate(seed)
        }
        "vrvideo" => VrVideo {
            population,
            frame_interval_ns: 100_000_000,
            max_start_skew_frames: args.num("skew-frames", 0)?,
            user_stagger_ns: args.num("stagger-ms", 25u64)? * 1_000_000,
            frames_per_user: args.num("frames", 20)?,
        }
        .generate(seed),
        "flashcrowd" => FlashCrowd {
            population,
            base_rate_per_sec: args.num("rate", 10.0)?,
            burst_multiplier: args.num("burst-x", 8.0)?,
            burst_start_ns: args.num("burst-start-ms", 500u64)? * 1_000_000,
            burst_len_ns: args.num("burst-ms", 500u64)? * 1_000_000,
            hot_contents: args.num("hot", 8)?,
            zipf_s: args.num("zipf", 1.0)?,
            horizon_ns: args.num("horizon-ms", 2_000u64)? * 1_000_000,
        }
        .generate(seed),
        other => {
            return Err(
                format!("unknown app {other:?} (safedriving|arena|vrvideo|flashcrowd)").into(),
            )
        }
    };
    std::fs::write(out, to_csv(&trace))?;
    let s = summarize(&trace);
    Ok(format!(
        "wrote {} requests ({} unique contents) to {out}",
        s.requests, s.unique_contents
    ))
}

/// `trace info`: summarize a CSV trace.
pub fn trace_info(args: &Args) -> CmdResult {
    let path = args.require("in")?;
    let trace = from_csv(&std::fs::read_to_string(path)?)?;
    let s = summarize(&trace);
    let mut kinds = std::collections::BTreeMap::new();
    for r in &trace {
        *kinds
            .entry(match r.kind {
                coic_workload::RequestKind::Recognition { .. } => "recognition",
                coic_workload::RequestKind::RenderLoad { .. } => "render_load",
                coic_workload::RequestKind::Panorama { .. } => "panorama",
            })
            .or_insert(0u64) += 1;
    }
    let users: std::collections::BTreeSet<_> = trace.iter().map(|r| r.user.0).collect();
    let span_ms = trace.last().map(|r| r.at_ns as f64 / 1e6).unwrap_or(0.0);
    let mut out = String::new();
    writeln!(out, "requests:        {}", s.requests)?;
    writeln!(out, "unique contents: {}", s.unique_contents)?;
    writeln!(out, "users:           {}", users.len())?;
    writeln!(out, "span:            {span_ms:.1} ms")?;
    for (k, n) in kinds {
        writeln!(out, "  {k:<12} {n}")?;
    }
    Ok(out.trim_end().to_string())
}

// -------------------------------------------------------------------- sim --

fn sim_config(args: &Args) -> Result<SimConfig, Box<dyn std::error::Error>> {
    let mut cfg = SimConfig::builder()
        .mode(match args.get("mode").unwrap_or("coic") {
            "coic" => Mode::CoIc,
            "origin" => Mode::Origin,
            other => return Err(format!("unknown mode {other:?} (coic|origin)").into()),
        })
        .access_mbps(args.num("access-mbps", 400.0)?)
        .wan_mbps(args.num("wan-mbps", 50.0)?)
        .num_clients(args.num("clients", 4)?)
        .num_edges(args.num("edges", 1)?)
        .prefetch_depth(args.num("prefetch", 0)?)
        .seed(args.num("seed", 1)?)
        .build();
    cfg.edge.threshold = args.num("threshold", cfg.edge.threshold)?;
    if let Some(kind) = index_arg(args)? {
        cfg.edge.index = kind;
    }
    cfg.origin_fallback = args.num("origin-fallback", 0u8)? != 0;
    // Cooperative cluster tier: `--peer-fanout K` (K > 0) turns on the
    // consistent-hash cluster — each exact-task miss probes up to K ring
    // peers before forwarding to the cloud. `--replicate N` sets the
    // hot-entry threshold (N requests landing on an edge replicate the
    // entry there; 0 keeps pure partitioning).
    let fanout: u32 = args.num("peer-fanout", 0u32)?;
    if fanout > 0 {
        cfg.cluster = Some(ClusterConfig {
            peer_fanout: fanout,
            replicate_hot: args.num("replicate", ClusterConfig::default().replicate_hot)?,
            ..ClusterConfig::default()
        });
    }
    // Fault injection: `--edge-down MS@EDGE[,MS@EDGE...]` takes the named
    // edges down permanently at the given sim time — the workload the
    // breaker/failover paths (and the trace verifier's breaker-transition
    // and quiet-after invariants) need to see real data.
    if let Some(spec) = args.get("edge-down") {
        for part in spec.split(',') {
            let (ms, edge) = part
                .split_once('@')
                .ok_or_else(|| format!("--edge-down {part:?}: expected MS@EDGE"))?;
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("--edge-down {part:?}: bad milliseconds"))?;
            let edge: u32 = edge
                .parse()
                .map_err(|_| format!("--edge-down {part:?}: bad edge id"))?;
            cfg.edge_down_ms.push((ms, edge));
        }
    }
    // `--open-loop 1` fires requests at their trace timestamps regardless
    // of completions (the arrival model overload experiments need);
    // `--lookup-ms N` pins the edge's per-lookup service time, i.e. its
    // capacity under admission control.
    cfg.closed_loop = args.num("open-loop", 0u8)? == 0;
    cfg.compute.lookup_ns = args.num("lookup-ms", cfg.compute.lookup_ns / 1_000_000)? * 1_000_000;

    // Overload protection: `--admission N` bounds edge concurrency at N
    // (`--admission-aimd 1` instead lets AIMD adapt the limit in 1..=N on
    // the observed sojourn time vs `--latency-target-ms`).
    let admission: u32 = args.num("admission", 0u32)?;
    if admission > 0 {
        let mut a = if args.num("admission-aimd", 0u8)? != 0 {
            AdmissionConfig {
                min_concurrency: 1,
                max_concurrency: admission,
                initial_concurrency: admission,
                ..AdmissionConfig::default()
            }
        } else {
            AdmissionConfig::fixed(admission)
        };
        a.queue_limit = args.num("admission-queue", a.queue_limit)?;
        a.max_queue_age = Duration::from_millis(
            args.num("admission-age-ms", a.max_queue_age.as_millis() as u64)?,
        );
        a.latency_target = Duration::from_millis(
            args.num("latency-target-ms", a.latency_target.as_millis() as u64)?,
        );
        a.retry_after_ms = args.num("retry-after-ms", a.retry_after_ms)?;
        cfg.admission = Some(a);
        if args.num("brownout", 0u8)? != 0 {
            cfg.brownout = Some(BrownoutConfig::default());
        }
    }
    Ok(cfg)
}

fn report_text(label: &str, r: &mut coic_core::QoeReport) -> String {
    format!(
        "{label}: mean {:.1} ms  p50 {:.1} ms  p99 {:.1} ms  hits {:.1}% (local {} / peer {})  \
         WAN {:.2} MB  accuracy {}",
        r.mean_latency_ms(),
        r.latency_ms.median(),
        r.latency_ms.p99(),
        r.hit_ratio() * 100.0,
        r.edge_hits,
        r.peer_hits,
        r.wan_bytes as f64 / 1e6,
        r.accuracy
            .map(|a| format!("{:.1}%", a * 100.0))
            .unwrap_or_else(|| "n/a".into()),
    )
}

/// Parse `--index` when present: the recognition-descriptor index family
/// the edge's snapshot cache builds (`linear`, `mp-lsh` or `hnsw`).
fn index_arg(args: &Args) -> Result<Option<coic_cache::AnnFamily>, Box<dyn std::error::Error>> {
    match args.get("index") {
        None => Ok(None),
        Some(name) => coic_cache::AnnFamily::parse(name)
            .map(Some)
            .ok_or_else(|| format!("unknown index {name:?} (linear|mp-lsh|hnsw)").into()),
    }
}

/// When either telemetry export flag is present, return a recording
/// [`Telemetry`] handle; otherwise a disabled one (zero overhead).
fn telemetry_for(args: &Args) -> coic_obs::Telemetry {
    if args.get("trace-out").is_some() || args.get("metrics-out").is_some() {
        coic_obs::Telemetry::new()
    } else {
        coic_obs::Telemetry::disabled()
    }
}

/// Write the JSONL trace / canonical metrics snapshot to the paths named
/// by `--trace-out` / `--metrics-out`; returns a human note per file
/// written (callers in byte-stable output modes discard it).
fn write_telemetry(
    args: &Args,
    tel: &coic_obs::Telemetry,
) -> Result<String, Box<dyn std::error::Error>> {
    let mut notes = String::new();
    if let Some(p) = args.get("trace-out") {
        std::fs::write(p, tel.trace_jsonl())?;
        write!(notes, "\nwrote trace to {p}")?;
    }
    if let Some(p) = args.get("metrics-out") {
        std::fs::write(p, tel.metrics_canonical())?;
        write!(notes, "\nwrote metrics to {p}")?;
    }
    Ok(notes)
}

/// `sim`: run one trace through one system. `--index` picks the edge's
/// descriptor index family (`linear|mp-lsh|hnsw`). With `--canonical 1` the
/// report is emitted in the canonical byte-stable serialization (sorted
/// keys, fixed precision), so two runs of the same seeded workload can be
/// diffed textually — the CI determinism job does exactly that.
/// `--trace-out`/`--metrics-out` export the unified telemetry: a JSONL
/// trace of the request lifecycle and the registry's canonical snapshot,
/// both byte-identical across runs of the same seed.
pub fn sim(args: &Args) -> CmdResult {
    let trace = from_csv(&std::fs::read_to_string(args.require("in")?)?)?;
    let cfg = sim_config(args)?;
    let tel = telemetry_for(args);
    let mut report = if tel.trace_enabled() {
        coic_core::simrun::run_instrumented(&trace, &cfg, &tel).0
    } else {
        sim_run(&trace, &cfg)
    };
    let notes = write_telemetry(args, &tel)?;
    if args.num("canonical", 0u8)? != 0 {
        // The canonical serialization is diffed byte-for-byte by the CI
        // determinism job — no notes appended.
        return Ok(report.canonical().trim_end().to_string());
    }
    let mut out = report_text(
        if cfg.mode == Mode::CoIc {
            "coic"
        } else {
            "origin"
        },
        &mut report,
    );
    if cfg.admission.is_some() {
        // The number admission control defends: tail latency of the work
        // the edge accepted (shed requests complete via the fallback and
        // are excluded here, but still count in the overall p99 above).
        out.push_str(&format!(
            "  admitted-p99 {:.1} ms",
            report.admitted_p99_ms()
        ));
    }
    out.push_str(&notes);
    Ok(out)
}

// ------------------------------------------------------------------- live --

/// `live`: replay a CSV trace through the real TCP loopback stack — a
/// spawned cloud process, one edge with its one-shard exact cache and the
/// snapshot descriptor index picked by `--index`, and a blocking
/// client with origin fallback — then print the same QoE report shape the
/// simulator emits.
/// `--trace-out`/`--metrics-out` export the unified telemetry with the
/// same event vocabulary as `coic sim` (timestamps are wall clock here,
/// so unlike the simulator the trace bytes vary between runs).
pub fn live(args: &Args) -> CmdResult {
    use coic_core::netrun::{spawn_cloud, spawn_edge_with, NetClient, NetConfig};
    use coic_core::{ClientConfig, ComputeConfig, EdgeConfig, ModelLibrary, PanoLibrary};
    use coic_vision::ObjectClass;
    use std::sync::Arc;

    let trace = from_csv(&std::fs::read_to_string(args.require("in")?)?)?;
    let seed: u64 = args.num("seed", 1)?;
    let tel = telemetry_for(args);
    // The cloud must know every class the trace can ask for.
    let classes: Vec<ObjectClass> = {
        let max = trace
            .iter()
            .filter_map(|r| match r.kind {
                coic_workload::RequestKind::Recognition { class, .. } => Some(class),
                _ => None,
            })
            .max();
        (0..=max.unwrap_or(0)).map(ObjectClass).collect()
    };
    let models = Arc::new(ModelLibrary::new());
    let panos = Arc::new(PanoLibrary::new(64));
    let compute = ComputeConfig::default();
    let cloud = spawn_cloud(&classes, 64, compute, models.clone(), panos.clone(), seed)?;
    let net = NetConfig::builder().telemetry(tel.clone()).build();
    let mut edge_cfg = EdgeConfig::default();
    if let Some(kind) = index_arg(args)? {
        edge_cfg.index = kind;
    }
    let edge = spawn_edge_with(cloud.addr(), &edge_cfg, net.clone(), None)?;
    let mut client = NetClient::connect_with(
        edge.addr(),
        Some(cloud.addr()),
        net,
        ClientConfig::default(),
        compute,
        models,
        panos,
    )?;
    let mut failed = 0u64;
    for r in &trace {
        if client.execute(r).is_err() {
            failed += 1;
        }
    }
    client.publish_metrics(tel.registry());
    edge.publish_metrics(tel.registry());
    let mut out = report_text("live", &mut client.report());
    if failed > 0 {
        write!(out, "  failed {failed}")?;
    }
    out.push_str(&write_telemetry(args, &tel)?);
    Ok(out)
}

// -------------------------------------------------------------------- obs --

/// `obs report`: human summary of telemetry exports — per-name record
/// counts and span balance for a JSONL trace (`--trace`), section counts
/// plus the sorted snapshot for a canonical metrics file (`--metrics`).
pub fn obs_report(args: &Args) -> CmdResult {
    let mut out = String::new();
    if let Some(p) = args.get("trace") {
        out.push_str(&coic_obs::report::summarize_trace(
            &std::fs::read_to_string(p)?,
        ));
    }
    if let Some(p) = args.get("metrics") {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&coic_obs::report::summarize_metrics(
            &std::fs::read_to_string(p)?,
        ));
    }
    if out.is_empty() {
        return Err("obs report needs --trace FILE and/or --metrics FILE".into());
    }
    Ok(out)
}

/// `compare`: origin vs CoIC on the same trace.
pub fn compare(args: &Args) -> CmdResult {
    let trace = from_csv(&std::fs::read_to_string(args.require("in")?)?)?;
    let cfg = sim_config(args)?;
    let (mut origin, mut coic, red) = sim_compare(&trace, &cfg);
    Ok(format!(
        "{}\n{}\nlatency reduction: {red:.2}%",
        report_text("origin", &mut origin),
        report_text("coic  ", &mut coic)
    ))
}

// ------------------------------------------------------------------ model --

/// `model gen`: write a procedurally generated CMF model.
pub fn model_gen(args: &Args) -> CmdResult {
    let size: u64 = args.num_required("size-bytes")?;
    let seed: u64 = args.num("seed", 1)?;
    let out = args.require("out")?;
    let mesh = coic_render::procgen::model_of_size(size, seed);
    let bytes = coic_core::cmf::encode(&mesh);
    std::fs::write(out, &bytes)?;
    Ok(format!(
        "wrote {:?}: {} bytes, {} vertices, {} triangles",
        mesh.name,
        bytes.len(),
        mesh.vertices.len(),
        mesh.triangle_count()
    ))
}

/// `model info`: parse and describe a CMF file.
pub fn model_info(args: &Args) -> CmdResult {
    let path = args.require("in")?;
    let bytes = std::fs::read(path)?;
    let mesh = coic_core::cmf::decode(&bytes)?;
    let digest = coic_cache::Digest::of(&bytes);
    let bb = mesh.aabb().expect("valid mesh has vertices");
    Ok(format!(
        "name:      {}\nbytes:     {}\nvertices:  {}\ntriangles: {}\naabb:      \
         ({:.2},{:.2},{:.2})..({:.2},{:.2},{:.2})\nsha256:    {}",
        mesh.name,
        bytes.len(),
        mesh.vertices.len(),
        mesh.triangle_count(),
        bb.min.x,
        bb.min.y,
        bb.min.z,
        bb.max.x,
        bb.max.y,
        bb.max.z,
        digest.to_hex()
    ))
}

/// `model render`: rasterize a CMF file to a PGM image.
pub fn model_render(args: &Args) -> CmdResult {
    use coic_render::{Camera, Framebuffer, Mat4, Scene, Vec3};
    let bytes = std::fs::read(args.require("in")?)?;
    let out = args.require("out")?;
    let size: u32 = args.num("size", 256)?;
    let mesh = coic_core::cmf::decode(&bytes)?;
    // Frame the model: fit its bounding box into view.
    let bb = mesh.aabb().expect("valid mesh has vertices");
    let center = (bb.min + bb.max) * 0.5;
    let extent = (bb.max - bb.min).length().max(1e-3);
    let mut scene = Scene::new();
    let id = scene.add_model(mesh);
    scene.add_instance(id, Mat4::translate(-center));
    let camera = Camera {
        eye: Vec3::new(0.6, 0.6, 1.2) * extent,
        target: Vec3::ZERO,
        far: extent * 10.0,
        ..Camera::default()
    };
    let mut fb = Framebuffer::new(size, size);
    let stats = scene.render(&camera, &mut fb);
    coic_render::write_framebuffer_pgm(out, &fb)?;
    Ok(format!(
        "rendered {} triangles ({} pixels shaded) to {out}",
        stats.triangles_drawn, stats.pixels_shaded
    ))
}

// ------------------------------------------------------------------- hash --

/// `hash`: SHA-256 content digest of a file — the exact key the edge cache
/// would use for it.
pub fn hash(args: &Args) -> CmdResult {
    let path = args.require("in")?;
    let bytes = std::fs::read(path)?;
    let digest = coic_cache::Digest::of(&bytes);
    Ok(format!(
        "{}  {path} ({} bytes)",
        digest.to_hex(),
        bytes.len()
    ))
}

// ------------------------------------------------------------------- pano --

/// `pano gen`: synthesize a panorama frame to PGM.
pub fn pano_gen(args: &Args) -> CmdResult {
    let frame: u64 = args.num_required("frame")?;
    let height: u32 = args.num("height", 256)?;
    let out = args.require("out")?;
    let pano = coic_render::Panorama::synthesize(frame, height);
    coic_render::write_pgm(out, pano.width(), pano.height(), pano.bytes())?;
    Ok(format!(
        "wrote frame {frame}: {}×{} equirect to {out}",
        pano.width(),
        pano.height()
    ))
}

/// `pano crop`: crop a viewport from a panorama frame to PGM.
pub fn pano_crop(args: &Args) -> CmdResult {
    let frame: u64 = args.num_required("frame")?;
    let yaw: f64 = args.num_required("yaw")?;
    let pitch: f64 = args.num_required("pitch")?;
    let fov: f64 = args.num("fov", 1.4)?;
    let w: u32 = args.num("width", 256)?;
    let h: u32 = args.num("height", 144)?;
    let out = args.require("out")?;
    let pano = coic_render::Panorama::synthesize(frame, 256);
    let crop = pano.crop_viewport(yaw, pitch, fov, w, h);
    coic_render::write_pgm(out, w, h, &crop)?;
    Ok(format!(
        "wrote {w}×{h} viewport (yaw {yaw}, pitch {pitch}) to {out}"
    ))
}

// ------------------------------------------------------------------- lint --

/// `lint`: run the in-tree static analysis pass over the workspace (see
/// `analyze/rules.toml` and DESIGN.md §11). Prints findings and errors —
/// so the process exits nonzero — when any rule fires.
pub fn lint(args: &Args) -> CmdResult {
    let root = std::path::PathBuf::from(args.get("root").unwrap_or("."));
    let rules = match args.get("rules") {
        Some(p) => std::path::PathBuf::from(p),
        None => root.join("analyze").join("rules.toml"),
    };
    let mut out = String::new();
    let clean = coic_analyze::run_lint(&root, &rules, &mut out)?;
    if clean {
        Ok(out)
    } else {
        Err(out.into())
    }
}

/// `analyze trace`: verify an exported decision trace + canonical
/// metrics snapshot against the declarative invariants in
/// `analyze/trace_invariants.toml` (see DESIGN.md §16). Prints one line
/// per invariant; exits nonzero when any invariant is violated.
pub fn analyze_trace(args: &Args) -> CmdResult {
    let root = std::path::PathBuf::from(args.get("root").unwrap_or("."));
    let trace = std::path::PathBuf::from(args.require("trace")?);
    let metrics = std::path::PathBuf::from(args.require("metrics")?);
    let invariants = match args.get("invariants") {
        Some(p) => std::path::PathBuf::from(p),
        None => root.join("analyze").join("trace_invariants.toml"),
    };
    let mut out = String::new();
    let clean = coic_analyze::run_trace_check(&trace, &metrics, &invariants, &mut out)?;
    if clean {
        Ok(out)
    } else {
        Err(out.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("coic_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn lint_flags_fixtures_and_passes_the_workspace() {
        let ws = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .unwrap();
        let fixtures = ws.join("crates/analyze/fixtures");
        // The deliberately-violating fixture tree must fail…
        let err = lint(&args(&format!(
            "--root {} --rules {}",
            fixtures.display(),
            fixtures.join("rules.toml").display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("finding(s)"), "{err}");
        // …and the workspace itself must pass under its own rules.
        let ok = lint(&args(&format!("--root {}", ws.display()))).unwrap();
        assert!(ok.contains("lint clean"), "{ok}");
    }

    #[test]
    fn analyze_trace_validates_a_seeded_cluster_run() {
        let ws = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .unwrap();
        let path = tmp("t_cluster.csv");
        trace_gen(&args(&format!(
            "--app arena --out {path} --users 12 --requests 400"
        )))
        .unwrap();
        let (t, m) = (tmp("cluster.jsonl"), tmp("cluster.metrics"));
        sim(&args(&format!(
            "--in {path} --clients 12 --edges 16 --peer-fanout 3 --replicate 2 \
             --seed 7 --edge-down 100@3 --trace-out {t} --metrics-out {m}"
        )))
        .unwrap();
        // The scenario exercises the paths the invariants pin: peer
        // probes, a mid-run edge failure (quiet-after + the probe
        // excuse), and enough timeouts to trip a breaker.
        let trace = std::fs::read_to_string(&t).unwrap();
        assert!(trace.contains("\"n\":\"edge.down\""), "no edge failure");
        assert!(
            trace.contains("\"n\":\"cluster.peer_state\""),
            "no breaker trip"
        );
        let out = analyze_trace(&args(&format!(
            "--root {} --trace {t} --metrics {m}",
            ws.display()
        )))
        .unwrap();
        assert!(out.contains("trace clean"), "{out}");
        assert!(out.contains("ok probe-terminal"), "{out}");
        // The corrupted fixture must fail loudly through the same entry
        // point CI uses.
        let fixtures = ws.join("crates/analyze/fixtures/trace");
        let err = analyze_trace(&args(&format!(
            "--trace {} --metrics {} --invariants {}",
            fixtures.join("corrupt.jsonl").display(),
            fixtures.join("corrupt_metrics.txt").display(),
            fixtures.join("invariants.toml").display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("trace violation(s)"), "{err}");
    }

    #[test]
    fn trace_gen_info_roundtrip() {
        let path = tmp("t1.csv");
        let msg = trace_gen(&args(&format!(
            "--app safedriving --out {path} --users 2 --requests 30"
        )))
        .unwrap();
        assert!(msg.contains("30 requests"));
        let info = trace_info(&args(&format!("--in {path}"))).unwrap();
        assert!(info.contains("requests:        30"));
        assert!(info.contains("recognition"));
    }

    #[test]
    fn sim_and_compare_run_end_to_end() {
        let path = tmp("t2.csv");
        trace_gen(&args(&format!(
            "--app arena --out {path} --users 2 --requests 10 --model-kb 256"
        )))
        .unwrap();
        let out = sim(&args(&format!("--in {path} --clients 2"))).unwrap();
        assert!(out.contains("mean"));
        let out = compare(&args(&format!("--in {path} --clients 2"))).unwrap();
        assert!(out.contains("latency reduction"));
    }

    #[test]
    fn sim_canonical_output_is_reproducible() {
        let path = tmp("t4.csv");
        trace_gen(&args(&format!(
            "--app vrvideo --out {path} --users 2 --frames 5"
        )))
        .unwrap();
        let a = sim(&args(&format!("--in {path} --clients 2 --canonical 1"))).unwrap();
        let b = sim(&args(&format!("--in {path} --clients 2 --canonical 1"))).unwrap();
        assert_eq!(a, b, "same seed must serialize identically");
        assert!(a.contains("completed="));
        assert!(a.contains("latency mean="));
    }

    #[test]
    fn sim_trace_and_metrics_exports_are_reproducible() {
        let path = tmp("t5.csv");
        trace_gen(&args(&format!(
            "--app vrvideo --out {path} --users 2 --frames 5"
        )))
        .unwrap();
        let run = |tag: &str| {
            let (t, m) = (tmp(&format!("{tag}.jsonl")), tmp(&format!("{tag}.metrics")));
            sim(&args(&format!(
                "--in {path} --clients 2 --seed 7 --trace-out {t} --metrics-out {m}"
            )))
            .unwrap();
            (
                std::fs::read_to_string(t).unwrap(),
                std::fs::read_to_string(m).unwrap(),
            )
        };
        let (trace_a, metrics_a) = run("a");
        let (trace_b, metrics_b) = run("b");
        assert_eq!(trace_a, trace_b, "seeded traces must be byte-identical");
        assert_eq!(metrics_a, metrics_b, "snapshots must be byte-identical");
        assert!(trace_a.contains("\"n\":\"request\""), "{trace_a}");
        assert!(trace_a.contains("\"n\":\"edge.lookup\""), "{trace_a}");
        assert!(metrics_a.contains("counter qoe.completed"), "{metrics_a}");
        assert!(metrics_a.contains("hist qoe.latency_ns"), "{metrics_a}");
    }

    #[test]
    fn overload_sim_sheds_and_exports_reproducibly() {
        let path = tmp("t_crowd.csv");
        trace_gen(&args(&format!(
            "--app flashcrowd --out {path} --users 8 --rate 40 --burst-x 20 \
             --burst-start-ms 200 --burst-ms 300 --horizon-ms 800 --seed 3"
        )))
        .unwrap();
        let run = |tag: &str| {
            let (t, m) = (tmp(&format!("{tag}.jsonl")), tmp(&format!("{tag}.metrics")));
            sim(&args(&format!(
                "--in {path} --clients 8 --seed 7 --origin-fallback 1 \
                 --admission 1 --admission-queue 1 --admission-age-ms 5 \
                 --brownout 1 --trace-out {t} --metrics-out {m}"
            )))
            .unwrap();
            (
                std::fs::read_to_string(t).unwrap(),
                std::fs::read_to_string(m).unwrap(),
            )
        };
        let (trace_a, metrics_a) = run("crowd_a");
        let (trace_b, metrics_b) = run("crowd_b");
        assert_eq!(
            trace_a, trace_b,
            "seeded shed traces must be byte-identical"
        );
        assert_eq!(metrics_a, metrics_b, "snapshots must be byte-identical");
        assert!(trace_a.contains("\"n\":\"edge.admitted\""), "{metrics_a}");
        assert!(trace_a.contains("\"n\":\"edge.shed\""), "{metrics_a}");
        assert!(metrics_a.contains("counter robustness.shed"), "{metrics_a}");
    }

    #[test]
    fn obs_report_summarizes_exports() {
        let path = tmp("t6.csv");
        trace_gen(&args(&format!(
            "--app vrvideo --out {path} --users 2 --frames 3"
        )))
        .unwrap();
        let (t, m) = (tmp("r.jsonl"), tmp("r.metrics"));
        sim(&args(&format!(
            "--in {path} --clients 2 --trace-out {t} --metrics-out {m}"
        )))
        .unwrap();
        let out = obs_report(&args(&format!("--trace {t} --metrics {m}"))).unwrap();
        assert!(out.contains("trace records:"), "{out}");
        assert!(out.contains("decision.complete"), "{out}");
        assert!(out.contains("counters"), "{out}");
        assert!(obs_report(&args("")).is_err());
    }

    #[test]
    fn live_replays_a_trace_and_exports_telemetry() {
        let path = tmp("t7.csv");
        trace_gen(&args(&format!(
            "--app vrvideo --out {path} --users 1 --frames 3"
        )))
        .unwrap();
        let (t, m) = (tmp("l.jsonl"), tmp("l.metrics"));
        let out = live(&args(&format!(
            "--in {path} --trace-out {t} --metrics-out {m}"
        )))
        .unwrap();
        assert!(out.contains("live:"), "{out}");
        let trace = std::fs::read_to_string(t).unwrap();
        assert!(trace.contains("\"n\":\"request\""), "{trace}");
        assert!(trace.contains("\"n\":\"edge.lookup\""), "{trace}");
        let metrics = std::fs::read_to_string(m).unwrap();
        assert!(metrics.contains("counter qoe.completed"), "{metrics}");
        assert!(metrics.contains("counter cache.exact.hits"), "{metrics}");
    }

    #[test]
    fn model_gen_info_render_pipeline() {
        let cmf = tmp("m.cmf");
        let pgm = tmp("m.pgm");
        let msg = model_gen(&args(&format!("--size-bytes 120000 --out {cmf} --seed 5"))).unwrap();
        assert!(msg.contains("vertices"));
        let info = model_info(&args(&format!("--in {cmf}"))).unwrap();
        assert!(info.contains("sha256"));
        let rendered = model_render(&args(&format!("--in {cmf} --out {pgm} --size 64"))).unwrap();
        assert!(rendered.contains("rendered"));
        let (w, h, _) = coic_render::decode_pgm(&std::fs::read(&pgm).unwrap()).unwrap();
        assert_eq!((w, h), (64, 64));
    }

    #[test]
    fn pano_gen_and_crop() {
        let p1 = tmp("p.pgm");
        let p2 = tmp("v.pgm");
        pano_gen(&args(&format!("--frame 7 --out {p1} --height 64"))).unwrap();
        let (w, _, _) = coic_render::decode_pgm(&std::fs::read(&p1).unwrap()).unwrap();
        assert_eq!(w, 128);
        pano_crop(&args(&format!(
            "--frame 7 --yaw 1.0 --pitch 0.1 --out {p2} --width 80 --height 45"
        )))
        .unwrap();
        let (w, h, _) = coic_render::decode_pgm(&std::fs::read(&p2).unwrap()).unwrap();
        assert_eq!((w, h), (80, 45));
    }

    #[test]
    fn hash_matches_digest() {
        let path = tmp("h.bin");
        std::fs::write(&path, b"abc").unwrap();
        let out = hash(&args(&format!("--in {path}"))).unwrap();
        // FIPS vector for "abc".
        assert!(out.starts_with("ba7816bf8f01cfea414140de5dae2223"));
        assert!(out.contains("(3 bytes)"));
    }

    #[test]
    fn dispatch_and_usage() {
        assert!(crate::run(vec![]).unwrap().contains("USAGE"));
        assert!(crate::run(vec!["help".into()]).unwrap().contains("USAGE"));
        assert!(crate::run(vec!["frobnicate".into()]).is_err());
    }

    #[test]
    fn a_flag_the_command_never_reads_is_an_error() {
        let path = tmp("t_flags.csv");
        trace_gen(&args(&format!(
            "--app arena --out {path} --users 2 --requests 4 --model-kb 64"
        )))
        .unwrap();
        let sim = |extra: &str| {
            let line = format!("sim --in {path} --clients 2 {extra}");
            crate::run(line.split_whitespace().map(String::from).collect())
        };
        assert!(sim("--edges 2").is_ok());
        for flag in ["--clinets 8", "--peer-lookup 1"] {
            let err = sim(flag).unwrap_err();
            let name = flag.split_whitespace().next().unwrap();
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn bad_app_and_mode_errors() {
        let path = tmp("t3.csv");
        assert!(trace_gen(&args(&format!("--app nope --out {path}"))).is_err());
        trace_gen(&args(&format!(
            "--app vrvideo --out {path} --users 2 --frames 5"
        )))
        .unwrap();
        assert!(sim(&args(&format!("--in {path} --mode warp"))).is_err());
    }
}
