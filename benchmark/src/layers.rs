//! Per-layer costs measured from outside: the harness times calls into each
//! layer's public functions, on the workload's own requests where it has
//! requests of that kind and on a standard probe where it has none. Every
//! number is the median over batches of the time per call; each batch is one
//! span in the trace file.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use coic_cache::{Digest, DEFAULT_SHARDS};
use coic_core::cluster::{ClusterConfig, ClusterState, HashRing};
use coic_core::content::{ModelLibrary, PanoLibrary};
use coic_core::engine::{
    AdmissionConfig, AdmissionController, ClientEngine, EngineConfig, ReplyKind, RobustnessStats,
    ShardedSingleFlight, SimClock, TimerKind,
};
use coic_core::protocol::Msg;
use coic_core::services::EdgeConfig;
use coic_core::task::{RecognitionResult, TaskRequest, TaskResult};
use coic_netsim::rt::{crc32, encode_frame, FrameConn, FrameDecoder, FrameServer};
use coic_obs::{MetricsRegistry, Recorder, Telemetry, Value};
use coic_vision::{
    FeatureVec, ObjectClass, PrototypeClassifier, SceneGenerator, SimNet, ViewParams,
};
use coic_workload::{Request, RequestKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::live::{edge_caches, landmark_classes, query, Content, CLOUD_SEED, IMAGE_SIDE};
use crate::span::Tracer;
use crate::stats;

/// Values by per-layer metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Batches per micro-measurement; the reported value is their median.
pub const BATCHES: usize = 15;

/// A [`Tracer`] and how many batches each measurement takes: [`BATCHES`],
/// or fewer in a smoke run.
pub struct Bench<'a> {
    pub tracer: &'a mut Tracer,
    pub batches: usize,
}

/// Median over the batches of the nanoseconds one call of `call` takes;
/// `call` gets the running call number.
fn per_call_ns(
    tr: &mut Bench,
    name: &'static str,
    calls_per_batch: usize,
    mut call: impl FnMut(usize),
) -> f64 {
    let batches = tr.batches;
    let tr = &mut *tr.tracer;
    let mut per_call = Vec::with_capacity(batches);
    for batch in 0..batches {
        let span = tr.start(name, None, batch as u64);
        let begun = Instant::now();
        for i in 0..calls_per_batch {
            call(batch * calls_per_batch + i);
        }
        per_call.push(begun.elapsed().as_nanos() as f64 / calls_per_batch as f64);
        tr.end(span);
    }
    stats::median(&per_call).unwrap_or(0.0)
}

/// The workload's requests by kind, with a standard probe standing in for a
/// kind the workload does not send.
pub struct Probe {
    pub recognitions: Vec<Request>,
    pub model: Request,
    pub pano: Request,
    /// The kind the workload sends most: its messages size the protocol,
    /// framing and exact-cache measurements.
    pub primary: Request,
}

impl Probe {
    pub fn of(requests: &[Request], seed: u64) -> Probe {
        let sample = &requests[..requests.len().min(512)];
        let of_kind = |f: fn(&RequestKind) -> bool| -> Vec<Request> {
            sample.iter().filter(|r| f(&r.kind)).copied().collect()
        };
        let standard = |kind| Request { kind, ..sample[0] };
        let mut recognitions = of_kind(|k| matches!(k, RequestKind::Recognition { .. }));
        let models = of_kind(|k| matches!(k, RequestKind::RenderLoad { .. }));
        let panos = of_kind(|k| matches!(k, RequestKind::Panorama { .. }));
        let counts = [recognitions.len(), models.len(), panos.len()];
        if recognitions.is_empty() {
            recognitions = (0..32)
                .map(|i| {
                    standard(RequestKind::Recognition {
                        class: i % 16,
                        view_seed: seed ^ u64::from(i),
                    })
                })
                .collect();
        }
        recognitions.truncate(32);
        let model = models.first().copied().unwrap_or_else(|| {
            standard(RequestKind::RenderLoad {
                model_id: seed,
                size_bytes: 100_000,
            })
        });
        let pano = panos
            .first()
            .copied()
            .unwrap_or_else(|| standard(RequestKind::Panorama { frame_id: seed }));
        let primary = if counts[0] >= counts[1] && counts[0] >= counts[2] && counts[0] > 0 {
            recognitions[0]
        } else if counts[1] >= counts[2] && counts[1] > 0 {
            model
        } else {
            pano
        };
        Probe {
            recognitions,
            model,
            pano,
            primary,
        }
    }
}

fn key(i: usize) -> Digest {
    Digest::of(&(i as u64).to_le_bytes())
}

/// A descriptor the approximate cache has not seen: one of `base` moved by
/// a call-specific offset well past the hit threshold.
fn novel(base: &[FeatureVec], i: usize) -> FeatureVec {
    let mut v = base[i % base.len()].as_slice().to_vec();
    let n = v.len();
    v[i % n] += 2.0 + (i / n) as f32;
    FeatureVec::new(v)
}

/// Time every layer. `population` is how many entries the approximate cache
/// holds while it is measured (what the workload's live edge reached).
pub fn measure(
    tr: &mut Bench,
    probe: &Probe,
    content: &Content,
    edge: &EdgeConfig,
    population: usize,
) -> Values {
    let mut v = Values::new();
    let logic = content.client_logic();
    let net = SimNet::default_net();
    let gen = SceneGenerator::new(IMAGE_SIDE);
    let cloud = content.cloud_service();

    // vision
    let views: Vec<(ObjectClass, u64)> = probe
        .recognitions
        .iter()
        .filter_map(|r| match r.kind {
            RequestKind::Recognition { class, view_seed } => Some((ObjectClass(class), view_seed)),
            _ => None,
        })
        .collect();
    let observe = |&(class, view_seed): &(ObjectClass, u64)| {
        let mut rng = StdRng::seed_from_u64(view_seed);
        let view = ViewParams::jittered(&mut rng, 0.08, 4.0);
        gen.observe(class, &view, &mut rng)
    };
    v.insert(
        "vision.observe_us",
        per_call_ns(tr, "vision.observe", 8, |i| {
            black_box(observe(&views[i % views.len()]));
        }) / 1e3,
    );
    let images: Vec<_> = views.iter().map(observe).collect();
    v.insert(
        "vision.extract_us",
        per_call_ns(tr, "vision.extract", 8, |i| {
            black_box(net.extract(&images[i % images.len()]));
        }) / 1e3,
    );
    let embeddings: Vec<FeatureVec> = images.iter().map(|im| net.extract(im)).collect();
    let classifier = {
        let mut rng = StdRng::seed_from_u64(CLOUD_SEED);
        PrototypeClassifier::train(&net, &gen, &landmark_classes(), 5, 0.08, 4.0, &mut rng)
    };
    v.insert(
        "vision.classify_us",
        per_call_ns(tr, "vision.classify", 64, |i| {
            black_box(classifier.predict(&embeddings[i % embeddings.len()]));
        }) / 1e3,
    );

    // core::services
    v.insert(
        "client.prepare_us",
        per_call_ns(tr, "client.prepare", 8, |_| {
            black_box(logic.prepare(&probe.primary));
        }) / 1e3,
    );
    let prepared = |r: &Request| logic.prepare(r);
    let recog_tasks: Vec<TaskRequest> = probe
        .recognitions
        .iter()
        .map(|r| prepared(r).task)
        .collect();
    v.insert(
        "cloud.execute_us.recog",
        per_call_ns(tr, "cloud.execute.recog", 8, |i| {
            black_box(cloud.execute(&recog_tasks[i % recog_tasks.len()]));
        }) / 1e3,
    );
    let model_task = prepared(&probe.model).task;
    let pano_task = prepared(&probe.pano).task;
    v.insert(
        "cloud.execute_us.model",
        per_call_ns(tr, "cloud.execute.model", 64, |_| {
            black_box(cloud.execute(&model_task));
        }) / 1e3,
    );
    v.insert(
        "cloud.execute_us.pano",
        per_call_ns(tr, "cloud.execute.pano", 64, |_| {
            black_box(cloud.execute(&pano_task));
        }) / 1e3,
    );

    // core::content: the first get of an id generates it.
    if let RequestKind::RenderLoad {
        model_id,
        size_bytes,
    } = probe.model.kind
    {
        let fresh = ModelLibrary::new();
        v.insert(
            "content.model_gen_us",
            per_call_ns(tr, "content.model_gen", 1, |i| {
                black_box(fresh.get(model_id + i as u64, size_bytes));
            }) / 1e3,
        );
    }
    if let RequestKind::Panorama { frame_id } = probe.pano.kind {
        let fresh = PanoLibrary::new(content.panos.height());
        v.insert(
            "content.pano_gen_us",
            per_call_ns(tr, "content.pano_gen", 2, |i| {
                black_box(fresh.get(frame_id + i as u64));
            }) / 1e3,
        );
    }

    // The primary request's own messages.
    let primary = prepared(&probe.primary);
    let (result, _) = cloud.execute(&primary.task);
    let entry_bytes = result.byte_size().max(1);
    let query = query(1, &primary);
    let reply = Msg::Hit {
        req_id: 1,
        result: result.clone(),
    };
    let query_bytes = query.encode();
    let reply_bytes = reply.encode();
    // Small messages are batched so that a batch outlasts the clock's grain.
    let calls = (65_536 / reply_bytes.len()).clamp(1, 256);
    v.insert("protocol.reply_bytes", reply_bytes.len() as f64);
    v.insert(
        "protocol.encode_query_ns",
        per_call_ns(tr, "protocol.encode_query", 256, |_| {
            black_box(query.encode());
        }),
    );
    v.insert(
        "protocol.decode_query_ns",
        per_call_ns(tr, "protocol.decode_query", 256, |_| {
            black_box(Msg::decode(&query_bytes).ok());
        }),
    );
    v.insert(
        "protocol.encode_reply_ns",
        per_call_ns(tr, "protocol.encode_reply", calls, |_| {
            black_box(reply.encode());
        }),
    );
    v.insert(
        "protocol.decode_reply_ns",
        per_call_ns(tr, "protocol.decode_reply", calls, |_| {
            black_box(Msg::decode(&reply_bytes).ok());
        }),
    );

    // netsim::rt
    let crc_ns = per_call_ns(tr, "rt.crc32", calls, |_| {
        black_box(crc32(&reply_bytes));
    });
    v.insert("rt.crc32_mbps", reply_bytes.len() as f64 / crc_ns * 1e3);
    v.insert(
        "rt.frame_encode_ns",
        per_call_ns(tr, "rt.frame_encode", calls, |_| {
            black_box(encode_frame(&reply_bytes).ok());
        }),
    );
    let frame = encode_frame(&reply_bytes).expect("reply fits a frame");
    v.insert(
        "rt.frame_decode_ns",
        per_call_ns(tr, "rt.frame_decode", calls, |_| {
            let mut decoder = FrameDecoder::new();
            decoder.push(&frame);
            black_box(decoder.next_frame().ok());
        }),
    );
    transport(tr, &mut v, query_bytes.len(), reply_bytes.len());

    // cache (exact): at the workload's entry size and capacity.
    let (exact, approx) = edge_caches(edge);
    let resident = ((edge.exact_cache_bytes / entry_bytes) as usize).clamp(1, 1_024);
    for i in 0..resident {
        exact.insert(key(i), result.clone(), entry_bytes, 0);
    }
    // Digests are hashed ahead, outside the timed calls.
    let keys: Vec<Digest> = (0..resident + BATCHES * 256).map(key).collect();
    v.insert(
        "cache.exact_lookup_ns",
        per_call_ns(tr, "cache.exact_lookup", 1_024, |i| {
            black_box(exact.lookup(&keys[i % resident], i as u64));
        }),
    );
    v.insert(
        "cache.exact_insert_ns",
        per_call_ns(tr, "cache.exact_insert", 256, |i| {
            exact.insert(keys[resident + i], result.clone(), entry_bytes, i as u64);
        }),
    );

    // cache (approx): at the population the workload's edge reached.
    let label = RecognitionResult {
        label: 0,
        distance: 0.0,
    };
    let entry = |d: &FeatureVec| d.byte_size() + TaskResult::Recognition(label).byte_size();
    for i in 0..population.max(1) {
        let d = novel(&embeddings, i);
        approx.insert(d.clone(), label, entry(&d), 0);
    }
    approx.maintain(0);
    v.insert(
        "cache.approx_lookup_ns",
        per_call_ns(tr, "cache.approx_lookup", 64, |i| {
            black_box(approx.lookup(&embeddings[i % embeddings.len()], i as u64));
        }),
    );
    let mut inserted = population.max(1);
    v.insert(
        "cache.approx_insert_ns",
        per_call_ns(tr, "cache.approx_insert", 16, |_| {
            let d = novel(&embeddings, inserted);
            inserted += 1;
            approx.insert(d.clone(), label, entry(&d), 0);
        }),
    );
    v.insert(
        "cache.maintain_us",
        per_call_ns(tr, "cache.maintain", 1, |_| {
            // Every fold has the same eight journal entries to absorb.
            for _ in 0..8 {
                let d = novel(&embeddings, inserted);
                inserted += 1;
                approx.insert(d.clone(), label, entry(&d), 0);
            }
            black_box(approx.maintain(0));
        }) / 1e3,
    );

    // core::engine
    let mut engine = ClientEngine::new(
        EngineConfig::default(),
        SimClock::new(),
        RobustnessStats::default(),
    );
    v.insert(
        "engine.client_step_ns",
        per_call_ns(tr, "engine.client_step", 256, |i| {
            let id = i as u64;
            black_box(engine.begin(id, "panorama", 0, 0));
            black_box(engine.on_timer(id, TimerKind::Prep, 0));
            black_box(engine.on_reply(id, ReplyKind::Hit, None));
        }),
    );
    let mut admission = AdmissionController::new(AdmissionConfig::fixed(64));
    v.insert(
        "engine.admission_ns",
        per_call_ns(tr, "engine.admission", 1_024, |i| {
            black_box(admission.offer(i as u64, i as u64));
            black_box(admission.release(1_000, i as u64));
        }),
    );
    let flights: ShardedSingleFlight<Digest, u32> = ShardedSingleFlight::new(DEFAULT_SHARDS);
    v.insert(
        "engine.flight_ns",
        per_call_ns(tr, "engine.flight", 1_024, |i| {
            let k = keys[i % keys.len()];
            black_box(flights.claim(k, 0));
            black_box(flights.complete(&k));
        }),
    );

    // core::cluster: a 16-edge ring as sim_replay runs it.
    let cluster_cfg = ClusterConfig {
        peer_fanout: 3,
        replicate_hot: 2,
        ..ClusterConfig::default()
    };
    let ring = HashRing::new(16, cluster_cfg.vnodes);
    v.insert(
        "cluster.ring_owner_ns",
        per_call_ns(tr, "cluster.ring_owner", 1_024, |i| {
            black_box(ring.owner(&keys[i % keys.len()]));
        }),
    );
    let mut state = ClusterState::new(0, 16, cluster_cfg);
    v.insert(
        "cluster.plan_ns",
        per_call_ns(tr, "cluster.plan", 256, |i| {
            // A plan takes a breaker grant per peer; settle each as the
            // drivers do, or the peers trip open.
            let plan = state.plan(&keys[i % keys.len()], i as u64);
            for peer in &plan.peers {
                state.record_probe(*peer, true, i as u64);
            }
            black_box(plan);
        }),
    );

    // obs
    let registry = MetricsRegistry::new();
    v.insert(
        "obs.counter_ns",
        per_call_ns(tr, "obs.counter", 1_024, |_| {
            registry.counter_add("bench.counter", 1);
        }),
    );
    v.insert(
        "obs.observe_ns",
        per_call_ns(tr, "obs.observe", 1_024, |i| {
            registry.observe("bench.latency_ns", i as u64 * 1_000);
        }),
    );
    let telemetry = Telemetry::new();
    v.insert(
        "obs.event_ns",
        per_call_ns(tr, "obs.event", 256, |i| {
            telemetry.event(
                i as u64,
                "bench.event",
                vec![("req", Value::from(i as u64))],
            );
        }),
    );
    v
}

/// Transport alone: a `FrameServer` that answers any frame with
/// `reply_len` bytes, asked with `query_len` bytes over one `FrameConn`; and
/// the cost of opening a connection to it, which the edge pays per miss.
fn transport(tr: &mut Bench, v: &mut Values, query_len: usize, reply_len: usize) {
    let reply = vec![0x5au8; reply_len];
    let Ok(server) = FrameServer::spawn("127.0.0.1:0", move |_| Some(reply.clone())) else {
        return;
    };
    let addr = server.local_addr();
    let query = vec![0xa5u8; query_len];
    if let Ok(mut conn) = FrameConn::connect(addr) {
        let budget = Instant::now() + Duration::from_millis(40 * tr.batches as u64);
        let mut rtts = Vec::new();
        while rtts.len() < 400 && (rtts.len() < 20 || Instant::now() < budget) {
            let span = tr.tracer.start("rt.echo", None, rtts.len() as u64);
            let begun = Instant::now();
            let ok = conn.send(&query).is_ok() && conn.recv().is_ok();
            rtts.push(begun.elapsed().as_nanos() as f64 / 1e3);
            tr.tracer.end(span);
            if !ok {
                return;
            }
        }
        // The first exchanges pay thread start-up on the server side.
        v.insert(
            "rt.echo_rtt_us",
            stats::median(&rtts[rtts.len() / 10..]).unwrap_or(0.0),
        );
    }
    let connect_ns = per_call_ns(tr, "rt.connect", 16, |_| {
        black_box(FrameConn::connect_timeout(&addr, Duration::from_millis(500)).ok());
    });
    v.insert("rt.connect_us", connect_ns / 1e3);
}
