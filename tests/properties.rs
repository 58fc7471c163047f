//! Property-based tests (proptest) on the core data structures and
//! invariants across the workspace.

use coic::cache::{
    AnnFamily, CountMinSketch, Digest, ExactCache, Lookup, PolicyKind, SnapshotApproxCache, Store,
    TinyLfuConfig,
};
use coic::core::cmf::{decode as cmf_decode, encode as cmf_encode};
use coic::core::{
    FeatureDescriptor, Msg, ProtoError, RecognitionResult, RetryPolicy, TaskRequest, TaskResult,
};
use coic::netsim::{Link, LinkParams, SimDuration, SimTime, TxOutcome};
use coic::render::{Mesh, Vertex};
use coic::vision::{distance, FeatureVec, Image};
use coic::workload::Zipf;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

// ---------------------------------------------------------------- cache --

proptest! {
    /// A store never exceeds its byte capacity, whatever the operation mix.
    #[test]
    fn store_capacity_never_exceeded(
        ops in prop::collection::vec((0u8..3, 0u64..40, 1u64..64), 1..200),
        capacity in 64u64..512,
    ) {
        let mut store: Store<u64, u64> = Store::new(capacity, PolicyKind::Lru, None);
        for (i, (op, key, size)) in ops.into_iter().enumerate() {
            match op {
                0 => { store.insert(key, key, size, i as u64); }
                1 => { store.get(&key, i as u64); }
                _ => { store.remove(&key); }
            }
            prop_assert!(store.used_bytes() <= capacity);
        }
    }

    /// Whatever was inserted and not evicted/replaced is retrievable with
    /// the exact value, under every policy.
    #[test]
    fn store_get_returns_last_inserted_value(
        pairs in prop::collection::vec((0u64..20, 0u64..1000), 1..60),
        policy_idx in 0usize..5,
    ) {
        let policy = PolicyKind::ALL[policy_idx];
        // Capacity large enough that nothing is ever evicted.
        let mut store: Store<u64, u64> = Store::new(1 << 20, policy, None);
        let mut model = std::collections::HashMap::new();
        for (i, (k, v)) in pairs.into_iter().enumerate() {
            store.insert(k, v, 8, i as u64);
            model.insert(k, v);
        }
        for (k, v) in model {
            prop_assert_eq!(store.get(&k, u64::MAX / 2), Some(&v));
        }
    }

    /// Eviction policies yield each live id exactly once when drained.
    #[test]
    fn policies_drain_each_id_once(
        ids in prop::collection::btree_set(0u64..500, 1..80),
        accesses in prop::collection::vec(0u64..500, 0..80),
        policy_idx in 0usize..5,
    ) {
        let mut p = PolicyKind::ALL[policy_idx].build();
        for &id in &ids {
            p.on_insert(id, 1 + id % 97);
        }
        for a in accesses {
            if ids.contains(&a) {
                p.on_access(a);
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        while let Some(v) = p.victim() {
            prop_assert!(seen.insert(v), "duplicate victim {}", v);
            p.on_remove(v);
        }
        prop_assert_eq!(seen, ids);
    }

    /// Exact cache: lookup(k) hits iff k was inserted and neither evicted
    /// nor expired — with generous capacity, always.
    #[test]
    fn exact_cache_membership(keys in prop::collection::vec(any::<u64>(), 1..50)) {
        let mut cache: ExactCache<u64> = ExactCache::new(1 << 20, PolicyKind::Lru, None);
        for &k in &keys {
            cache.insert(Digest::of(&k.to_le_bytes()), k, 16, 0);
        }
        for &k in &keys {
            prop_assert_eq!(cache.lookup(&Digest::of(&k.to_le_bytes()), 1), Some(&k));
        }
        prop_assert_eq!(cache.lookup(&Digest::of(b"not a key"), 1), None);
    }

    /// Approximate cache: a query identical to a stored descriptor always
    /// hits (distance 0 ≤ any positive threshold), for every index family,
    /// whether the entry is still journaled or folded into the snapshot.
    /// The journal scan and the linear family find the stored copy itself;
    /// the ANN families may answer with any entry inside the threshold
    /// (the satisficing radius, see `AnnIndex`), so off the snapshot they
    /// owe a hit, not the zero-distance one.
    #[test]
    fn approx_cache_self_hit(
        vecs in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, 8), 1..30),
        threshold in 0.01f32..2.0,
    ) {
        let vecs: Vec<FeatureVec> = vecs.into_iter().map(FeatureVec::new).collect();
        for family in [AnnFamily::Linear, AnnFamily::DEFAULT_MPLSH, AnnFamily::DEFAULT_HNSW] {
            // A batch above the entry count keeps every insert journaled
            // until `maintain`.
            let cache: SnapshotApproxCache<usize> =
                SnapshotApproxCache::new(1 << 20, threshold, family, 8, 64);
            for (i, v) in vecs.iter().enumerate() {
                cache.insert(v.clone(), i, 32, 0);
            }
            for side in ["journal", "snapshot"] {
                let exact = side == "journal" || family == AnnFamily::Linear;
                let bound = if exact { 1e-6 } else { threshold };
                for v in &vecs {
                    match cache.lookup(v, 1) {
                        Lookup::ApproxHit { distance, .. } => prop_assert!(
                            distance <= bound,
                            "{} self-query on the {} side hit at {} (threshold {})",
                            family.label(),
                            side,
                            distance,
                            threshold
                        ),
                        miss => prop_assert!(
                            false,
                            "{} self-query missed on the {} side: {:?}",
                            family.label(),
                            side,
                            miss
                        ),
                    }
                }
                cache.maintain(2);
            }
        }
    }
}

proptest! {
    /// Count-min estimates are one-sided: never below the true count
    /// (before any aging pass).
    #[test]
    fn sketch_never_undercounts(
        keys in prop::collection::vec(0u64..64, 1..300),
    ) {
        let mut sketch = CountMinSketch::new(512, 4, u64::MAX);
        let mut truth = std::collections::HashMap::new();
        for k in keys {
            sketch.increment(k);
            *truth.entry(k).or_insert(0u32) += 1;
        }
        for (k, count) in truth {
            prop_assert!(sketch.estimate(k) >= count.min(255));
        }
    }

    /// A store with TinyLFU admission still never exceeds capacity and
    /// still returns correct values for whatever it holds.
    #[test]
    fn admission_store_stays_consistent(
        ops in prop::collection::vec((0u64..30, 1u64..40), 1..150),
        capacity in 64u64..256,
    ) {
        let mut store: Store<u64, u64> =
            Store::new(capacity, PolicyKind::Lru, None).with_admission(TinyLfuConfig::default());
        for (i, (key, size)) in ops.into_iter().enumerate() {
            store.insert(key, key * 7, size, i as u64);
            prop_assert!(store.used_bytes() <= capacity);
            if let Some(&v) = store.get(&key, i as u64) {
                prop_assert_eq!(v, key * 7);
            }
        }
    }

    /// CSV trace round-trip for arbitrary traces.
    #[test]
    fn trace_csv_round_trip(
        rows in prop::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u64>(), 0u8..3, any::<u64>(), any::<u64>()),
            0..60,
        ),
    ) {
        use coic::workload::{Request, RequestKind, UserId, ZoneId};
        let trace: Vec<Request> = rows
            .into_iter()
            .map(|(user, zone, at_ns, kind, a, b)| Request {
                user: UserId(user),
                zone: ZoneId(zone),
                at_ns,
                kind: match kind {
                    0 => RequestKind::Recognition {
                        class: a as u32,
                        view_seed: b,
                    },
                    1 => RequestKind::RenderLoad {
                        model_id: a,
                        size_bytes: b,
                    },
                    _ => RequestKind::Panorama { frame_id: a },
                },
            })
            .collect();
        let csv = coic::workload::to_csv(&trace);
        let back = coic::workload::from_csv(&csv).unwrap();
        prop_assert_eq!(back, trace);
    }

    /// Parsing arbitrary text never panics.
    #[test]
    fn trace_csv_parse_never_panics(junk in ".{0,300}") {
        let _ = coic::workload::from_csv(&junk);
    }

    /// Panorama viewport crops are always well-formed for any look
    /// direction and sane FOV.
    #[test]
    fn panorama_crop_total(
        yaw in -10.0f64..10.0,
        pitch in -1.5f64..1.5,
        fov in 0.2f64..3.0,
        frame in any::<u64>(),
    ) {
        use coic::render::Panorama;
        let p = Panorama::synthesize(frame, 32);
        let crop = p.crop_viewport(yaw, pitch, fov, 16, 9);
        prop_assert_eq!(crop.len(), 16 * 9);
    }

    /// The adaptive controller's threshold always stays within bounds and
    /// its stride sampler matches the configured rate over long runs.
    #[test]
    fn adaptive_controller_invariants(
        outcomes in prop::collection::vec(any::<bool>(), 0..500),
        rate in 0.0f64..1.0,
    ) {
        use coic::core::{AdaptiveConfig, AdaptiveThreshold};
        let cfg = AdaptiveConfig {
            shadow_rate: rate,
            ..AdaptiveConfig::default()
        };
        let mut ctl = AdaptiveThreshold::new(0.5, cfg);
        let mut sampled = 0usize;
        let n = 1000;
        for _ in 0..n {
            if ctl.should_shadow() {
                sampled += 1;
            }
        }
        let expect = (rate * n as f64) as isize;
        prop_assert!((sampled as isize - expect).abs() <= 1);
        for o in outcomes {
            ctl.record(o);
            let t = ctl.threshold();
            prop_assert!((cfg.min_threshold..=cfg.max_threshold).contains(&t));
        }
    }
}

// ------------------------------------------------------------- protocol --

fn arb_descriptor() -> impl Strategy<Value = FeatureDescriptor> {
    prop_oneof![
        prop::collection::vec(-10.0f32..10.0, 0..64)
            .prop_map(|v| FeatureDescriptor::Dnn(FeatureVec::new(v))),
        any::<[u8; 32]>().prop_map(|b| FeatureDescriptor::ModelHash(Digest(b))),
        any::<[u8; 32]>().prop_map(|b| FeatureDescriptor::PanoramaHash(Digest(b))),
    ]
}

fn arb_task() -> impl Strategy<Value = TaskRequest> {
    prop_oneof![
        (1u32..12, 1u32..12, any::<u8>()).prop_map(|(w, h, fill)| TaskRequest::Recognition {
            image: Image::new(w, h, fill)
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(model_id, size_bytes)| {
            TaskRequest::RenderLoad {
                model_id,
                size_bytes,
            }
        }),
        any::<u64>().prop_map(|frame_id| TaskRequest::Panorama { frame_id }),
    ]
}

fn arb_result() -> impl Strategy<Value = TaskResult> {
    prop_oneof![
        (any::<u32>(), -10.0f32..10.0).prop_map(|(label, distance)| {
            TaskResult::Recognition(RecognitionResult { label, distance })
        }),
        prop::collection::vec(any::<u8>(), 0..200)
            .prop_map(|b| TaskResult::Model(bytes::Bytes::from(b))),
        prop::collection::vec(any::<u8>(), 0..200)
            .prop_map(|b| TaskResult::Panorama(bytes::Bytes::from(b))),
    ]
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (any::<u64>(), arb_descriptor(), prop::option::of(arb_task())).prop_map(
            |(req_id, descriptor, hint)| Msg::Query {
                req_id,
                descriptor,
                hint
            }
        ),
        (any::<u64>(), arb_result()).prop_map(|(req_id, result)| Msg::Hit { req_id, result }),
        any::<u64>().prop_map(|req_id| Msg::NeedPayload { req_id }),
        (any::<u64>(), arb_task()).prop_map(|(req_id, task)| Msg::Upload { req_id, task }),
        (any::<u64>(), arb_task()).prop_map(|(req_id, task)| Msg::Forward { req_id, task }),
        (any::<u64>(), arb_result())
            .prop_map(|(req_id, result)| Msg::CloudReply { req_id, result }),
        (any::<u64>(), arb_result()).prop_map(|(req_id, result)| Msg::Result { req_id, result }),
        (any::<u64>(), arb_task()).prop_map(|(req_id, task)| Msg::BaselineRequest { req_id, task }),
        (any::<u64>(), arb_result())
            .prop_map(|(req_id, result)| Msg::BaselineReply { req_id, result }),
        any::<u64>().prop_map(|req_id| Msg::Unavailable { req_id }),
    ]
}

proptest! {
    /// Codec round-trip for arbitrary messages, and encoded_len is exact.
    #[test]
    fn protocol_round_trip(msg in arb_msg()) {
        let bytes = msg.encode();
        prop_assert_eq!(bytes.len() as u64, msg.encoded_len());
        let back = Msg::decode(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Decoding arbitrary junk never panics (errors are fine).
    #[test]
    fn protocol_decode_never_panics(junk in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = Msg::decode(&junk);
    }

    /// Truncating a valid message never decodes successfully.
    #[test]
    fn protocol_truncation_always_detected(msg in arb_msg(), cut in 0usize..100) {
        let bytes = msg.encode();
        if cut < bytes.len() {
            prop_assert!(Msg::decode(&bytes[..cut]).is_err());
        }
    }

    /// A message decodes from exactly its own bytes — by copy and by
    /// slicing the frame alike — and never with anything appended: a blob
    /// sliced out of a frame keeps the whole frame alive, so an accepted
    /// tail would be memory the cache pins without accounting for it.
    #[test]
    fn protocol_trailing_bytes_always_rejected(
        msg in arb_msg(),
        tail in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        let mut bytes = msg.encode().to_vec();
        prop_assert_eq!(Msg::decode_frame(bytes::Bytes::from(bytes.clone())).unwrap(), msg);
        bytes.extend_from_slice(&tail);
        prop_assert_eq!(Msg::decode(&bytes), Err(ProtoError::Trailing(tail.len())));
        prop_assert_eq!(
            Msg::decode_frame(bytes::Bytes::from(bytes)),
            Err(ProtoError::Trailing(tail.len()))
        );
    }

    /// Flipping any single bit of a valid frame never panics the decoder;
    /// whatever still decodes must be internally consistent (its own
    /// re-encode round-trips and encoded_len stays exact).
    #[test]
    fn protocol_bit_flip_never_panics(msg in arb_msg(), pos in any::<u64>(), bit in 0u8..8) {
        let mut bytes = msg.encode().to_vec();
        let idx = (pos % bytes.len() as u64) as usize;
        bytes[idx] ^= 1 << bit;
        if let Ok(decoded) = Msg::decode(&bytes) {
            let re = decoded.encode();
            prop_assert_eq!(re.len() as u64, decoded.encoded_len());
            // Byte-level round-trip (a flipped float bit may be NaN, so
            // structural equality would be too strict here).
            let again = Msg::decode(&re).unwrap().encode();
            prop_assert_eq!(again.as_slice(), re.as_slice());
        }
    }

    /// Corrupting the magic or version byte is always rejected.
    #[test]
    fn protocol_bad_header_always_rejected(msg in arb_msg(), idx in 0usize..2, bit in 0u8..8) {
        let mut bytes = msg.encode().to_vec();
        bytes[idx] ^= 1 << bit;
        prop_assert!(Msg::decode(&bytes).is_err());
    }
}

// ------------------------------------------------------------------ cmf --

fn arb_mesh() -> impl Strategy<Value = Mesh> {
    (
        "[a-z]{0,12}",
        prop::collection::vec((-10.0f32..10.0, -10.0f32..10.0, -10.0f32..10.0), 3..40),
        1usize..20,
    )
        .prop_map(|(name, positions, tris)| {
            let n = positions.len() as u32;
            let vertices: Vec<Vertex> = positions
                .into_iter()
                .map(|(x, y, z)| Vertex {
                    pos: coic::render::Vec3::new(x, y, z),
                    normal: coic::render::Vec3::new(0.0, 1.0, 0.0),
                })
                .collect();
            let indices: Vec<u32> = (0..tris)
                .flat_map(|t| {
                    let t = t as u32;
                    [t % n, (t + 1) % n, (t + 2) % n]
                })
                .collect();
            Mesh::new(name, vertices, indices)
        })
}

proptest! {
    /// CMF round-trips arbitrary valid meshes bit-exactly.
    #[test]
    fn cmf_round_trip(mesh in arb_mesh()) {
        let bytes = cmf_encode(&mesh);
        let back = cmf_decode(&bytes).unwrap();
        prop_assert_eq!(back, mesh);
    }

    /// CMF decode never panics on junk.
    #[test]
    fn cmf_decode_never_panics(junk in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = cmf_decode(&junk);
    }
}

// ------------------------------------------------------------- distance --

proptest! {
    /// Metric axioms for L2 on arbitrary vectors.
    #[test]
    fn l2_metric_axioms(
        a in prop::collection::vec(-100.0f32..100.0, 8),
        b in prop::collection::vec(-100.0f32..100.0, 8),
        c in prop::collection::vec(-100.0f32..100.0, 8),
    ) {
        let (a, b, c) = (FeatureVec::new(a), FeatureVec::new(b), FeatureVec::new(c));
        prop_assert!(distance::l2(&a, &a) <= 1e-3);
        prop_assert!((distance::l2(&a, &b) - distance::l2(&b, &a)).abs() <= 1e-3);
        // Triangle inequality with float slack.
        prop_assert!(
            distance::l2(&a, &c) <= distance::l2(&a, &b) + distance::l2(&b, &c) + 1e-2
        );
    }

    /// Cosine distance stays in [0, 2].
    #[test]
    fn cosine_bounded(
        a in prop::collection::vec(-100.0f32..100.0, 8),
        b in prop::collection::vec(-100.0f32..100.0, 8),
    ) {
        let d = distance::cosine(&FeatureVec::new(a), &FeatureVec::new(b));
        prop_assert!((0.0..=2.0).contains(&d));
    }
}

// ----------------------------------------------------------------- simrun --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// The simulation driver completes every request (or counts an explicit
    /// failure) and reproduces exactly, across the whole configuration
    /// space: modes, tiers, edges, the cluster tier, a mid-run edge death,
    /// prefetch, shaping, loss.
    #[test]
    fn simrun_total_and_deterministic(
        mode_coic in any::<bool>(),
        edge_tier in any::<bool>(),
        edges in 1u32..3,
        cluster in prop::option::of((1u32..3, 0u32..3)),
        edge_down in prop::option::of((0u64..2_000, 0u32..2)),
        prefetch in 0u32..3,
        loss_pct in 0u32..6,
        shape in any::<bool>(),
        seed in 0u64..1000,
    ) {
        use coic::core::cluster::ClusterConfig;
        use coic::core::simrun::{run, ExecTier, Mode, SimConfig};
        use coic::workload::{Population, SafeDrivingAr, VrVideo, ZoneModel};

        let mut trace = SafeDrivingAr {
            population: Population::round_robin(4, edges),
            zones: ZoneModel::new(edges, 6, 0.5, 3),
            rate_per_sec: 5.0,
            zipf_s: 0.8,
            total_requests: 8,
        }
        .generate(seed);
        trace.extend(
            VrVideo {
                population: Population::round_robin(4, edges),
                frame_interval_ns: 200_000_000,
                max_start_skew_frames: 1,
                user_stagger_ns: 10_000_000,
                frames_per_user: 2,
            }
            .generate(seed),
        );
        trace.sort_by_key(|r| r.at_ns);

        let cfg = SimConfig {
            mode: if mode_coic { Mode::CoIc } else { Mode::Origin },
            exec_tier: if edge_tier { ExecTier::Edge } else { ExecTier::Cloud },
            num_clients: 4,
            num_edges: edges,
            cluster: cluster.map(|(peer_fanout, replicate_hot)| ClusterConfig {
                peer_fanout,
                replicate_hot,
                ..ClusterConfig::default()
            }),
            edge_down_ms: edge_down.map(|(ms, e)| (ms, e % edges)).into_iter().collect(),
            prefetch_depth: prefetch,
            access_loss: loss_pct as f64 / 100.0,
            request_timeout_ms: 2_000,
            retry: RetryPolicy::immediate(7, 0),
            client_shaper: shape.then_some((20.0, 256 * 1024)),
            seed,
            ..SimConfig::default()
        };
        let n = trace.len();
        let a = run(&trace, &cfg);
        prop_assert_eq!(a.completed as u64 + a.failed, n as u64);
        let b = run(&trace, &cfg);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.edge_hits, b.edge_hits);
        prop_assert_eq!(a.wan_bytes, b.wan_bytes);
    }
}

// -------------------------------------------------------------------- qoe --

fn arb_record() -> impl Strategy<Value = coic::core::Record> {
    use coic::core::{Path, Record};
    (
        any::<u64>(),
        0usize..4,
        0u64..1_000_000_000,
        0u64..50_000_000,
        0usize..4,
        prop::option::of(any::<bool>()),
        0u32..4,
    )
        .prop_map(
            |(req_id, kind, issued_ns, latency_ns, path, correct, retries)| Record {
                req_id,
                kind: ["recognition", "model", "panorama", "annotation"][kind],
                issued_ns,
                completed_ns: issued_ns + latency_ns,
                path: [
                    Path::EdgeHit,
                    Path::PeerHit,
                    Path::CloudMiss,
                    Path::Baseline,
                ][path],
                correct,
                retries,
            },
        )
}

proptest! {
    /// Folding records one at a time into a report is the same aggregation
    /// as building it from the whole list, and both equal a report whose
    /// fields are computed here directly from the list: the canonical bytes
    /// and the per-path split agree, for the empty list too.
    #[test]
    fn a_folded_report_equals_one_built_from_the_records(
        records in prop::collection::vec(arb_record(), 0..40),
    ) {
        use coic::core::{Path, QoeReport};
        // A client's report before its first completion.
        prop_assert_eq!(
            QoeReport::default().canonical(),
            QoeReport::from_records(&[]).canonical()
        );
        let mut folded = QoeReport::default();
        for r in &records {
            folded.push(r);
        }
        let mut built = QoeReport::from_records(&records);
        let mut reference = QoeReport::default();
        for r in &records {
            let l = r.latency_ms();
            reference.latency_ms.push(l);
            reference.latency_by_kind.entry(r.kind).or_default().push(l);
            reference.latency_by_path.entry(r.path.label()).or_default().push(l);
        }
        let count = |p: Path| records.iter().filter(|r| r.path == p).count() as u64;
        reference.completed = records.len();
        reference.edge_hits = count(Path::EdgeHit);
        reference.peer_hits = count(Path::PeerHit);
        reference.cloud_trips = count(Path::CloudMiss) + count(Path::Baseline);
        reference.retries = records.iter().map(|r| u64::from(r.retries)).sum();
        reference.retried_requests = records.iter().filter(|r| r.retries > 0).count() as u64;
        let verdicts: Vec<bool> = records.iter().filter_map(|r| r.correct).collect();
        reference.accuracy = (!verdicts.is_empty()).then(|| {
            verdicts.iter().filter(|&&c| c).count() as f64 / verdicts.len() as f64
        });
        let expected = reference.canonical();
        prop_assert_eq!(folded.canonical(), expected.clone());
        prop_assert_eq!(built.canonical(), expected);
        let split = |r: &QoeReport| -> Vec<(&'static str, usize)> {
            r.latency_by_path.iter().map(|(k, s)| (*k, s.count())).collect()
        };
        prop_assert_eq!(split(&folded), split(&reference));
        prop_assert_eq!(split(&built), split(&reference));
    }
}

// ----------------------------------------------------------------- misc --

proptest! {
    /// Zipf samples stay in range and the pmf is a distribution.
    #[test]
    fn zipf_is_a_distribution(n in 1usize..200, s in 0.0f64..3.0, seed in any::<u64>()) {
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Links deliver in FIFO order without jitter, regardless of sizes.
    #[test]
    fn link_fifo_order(sizes in prop::collection::vec(1u64..100_000, 1..40)) {
        let mut link = Link::new(LinkParams::mbps_ms(50.0, 7));
        let mut rng = StdRng::seed_from_u64(0);
        let mut last = SimTime::ZERO;
        for s in sizes {
            match link.transmit(SimTime::ZERO, s, &mut rng) {
                TxOutcome::Delivered(t) => {
                    prop_assert!(t >= last);
                    last = t;
                }
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }
    }

    /// Serialization delay is additive: t(a) + t(b) == t(a+b) within 1 ns
    /// rounding per call.
    #[test]
    fn serialization_additive(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let p = LinkParams::mbps_ms(123.0, 0);
        let lhs = p.serialization_delay(a) + p.serialization_delay(b);
        let rhs = p.serialization_delay(a + b);
        let diff = lhs.as_nanos().abs_diff(rhs.as_nanos());
        prop_assert!(diff <= 2, "diff {} ns", diff);
    }

    /// SimTime/SimDuration arithmetic is consistent.
    #[test]
    fn time_arithmetic_consistent(a in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((t + dur) - t, dur);
        prop_assert_eq!((t + dur).saturating_since(t + dur), SimDuration::ZERO);
    }
}

// ---------------------------------------------------------------- engine --

/// Drive one request through a [`ClientEngine`], realizing every effect:
/// each `SendQuery`/`SendOrigin` consults the script for an outcome (drop,
/// reply, transport failure); every armed timer is fired — in arming order —
/// whenever the effect queue drains, so stale timers are exercised too.
/// Returns (edge sends, origin sends, terminal decisions, full trace).
fn drive_engine(
    cfg: coic::core::EngineConfig,
    script: &[u8],
) -> (u32, u32, usize, Vec<coic::core::Decision>) {
    use coic::core::{ClientEngine, Effect, ReplyKind, RobustnessStats, SimClock, TimerKind};
    use std::collections::VecDeque;

    let clock = SimClock::new();
    let mut engine = ClientEngine::new(cfg, clock, RobustnessStats::default());
    let mut queue: VecDeque<Effect> = engine.begin(1, "model", 0, 0).into();
    // (kind, epoch, fired) for every timer ever armed.
    let mut timers: Vec<(TimerKind, u32, bool)> = Vec::new();
    let mut edge_sends = 0u32;
    let mut origin_sends = 0u32;
    let mut terminal = 0usize;
    let mut step = 0usize;
    loop {
        step += 1;
        assert!(step < 1_000, "engine did not terminate");
        let Some(eff) = queue.pop_front() else {
            if terminal > 0 {
                break;
            }
            // Quiescent but live: some armed timer must still be pending,
            // and firing timers in order must eventually make progress.
            let next = timers.iter_mut().find(|t| !t.2);
            let Some(t) = next else {
                panic!("request live but no effect and no pending timer");
            };
            t.2 = true;
            let (kind, epoch) = (t.0, t.1);
            queue.extend(engine.on_timer(1, kind, epoch));
            continue;
        };
        match eff {
            Effect::ArmTimer { kind, epoch, .. } => timers.push((kind, epoch, false)),
            Effect::SendQuery { attempt, .. } => {
                edge_sends += 1;
                match script[(attempt as usize) % script.len()] % 6 {
                    0 => {} // dropped: the deadline timer will fire
                    1 => queue.extend(engine.on_reply(1, ReplyKind::Hit, None)),
                    2 => queue.extend(engine.on_reply(1, ReplyKind::Result, None)),
                    3 => queue.extend(engine.on_reply(1, ReplyKind::Unavailable, None)),
                    4 => queue.extend(engine.on_transport_failure(1)),
                    _ => queue.extend(engine.on_reply(1, ReplyKind::NeedPayload, None)),
                }
            }
            Effect::SendUpload { .. } => {
                queue.extend(engine.on_reply(1, ReplyKind::Result, None));
            }
            Effect::SendOrigin { attempt, .. } => {
                origin_sends += 1;
                match script[(attempt as usize).wrapping_add(3) % script.len()] % 3 {
                    0 => {} // dropped
                    1 => queue.extend(engine.on_reply(1, ReplyKind::Baseline, None)),
                    _ => queue.extend(engine.on_transport_failure(1)),
                }
            }
            Effect::ProbeEdge { .. } => {
                queue.extend(engine.on_probe_result(1, script[0].is_multiple_of(2)));
            }
            Effect::Complete { .. } | Effect::GiveUp { .. } => terminal += 1,
        }
    }
    // Terminal: the request's state is gone, and firing every leftover
    // timer and replaying every event class must be a no-op (no transition
    // out of a terminal state).
    assert_eq!(engine.in_flight(), 0, "an ended request leaves no state");
    let trace: Vec<_> = engine.drain_decisions().collect();
    for &(kind, epoch, fired) in &timers {
        if !fired {
            assert!(engine.on_timer(1, kind, epoch).is_empty());
        }
    }
    for reply in [
        ReplyKind::Hit,
        ReplyKind::Result,
        ReplyKind::PeerResult,
        ReplyKind::Baseline,
        ReplyKind::NeedPayload,
        ReplyKind::Unavailable,
    ] {
        assert!(engine.on_reply(1, reply, Some(true)).is_empty());
    }
    assert!(engine.on_transport_failure(1).is_empty());
    assert!(engine.on_probe_result(1, true).is_empty());
    assert_eq!(engine.drain_decisions().len(), 0, "terminal must be quiet");
    (edge_sends, origin_sends, terminal, trace)
}

proptest! {
    /// Backoff is deterministic, never exceeds `max_backoff`, and jitter
    /// only shrinks the nominal delay, within the configured fraction.
    #[test]
    fn retry_backoff_capped_deterministic_and_jitter_bounded(
        base_ms in 0u64..100,
        max_ms in 0u64..1_000,
        jitter in 0.0f64..1.0,
        seed in any::<u64>(),
        req in any::<u64>(),
        attempt in 0u32..40,
    ) {
        let p = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(base_ms),
            max_backoff: Duration::from_millis(max_ms),
            jitter_frac: jitter,
            seed,
        };
        let d = p.backoff(req, attempt);
        prop_assert_eq!(d, p.backoff(req, attempt)); // deterministic
        prop_assert!(d <= p.max_backoff);
        let nominal = RetryPolicy { jitter_frac: 0.0, ..p.clone() }.backoff(req, attempt);
        prop_assert!(d <= nominal);
        // Jitter removes at most `jitter_frac` of the nominal delay
        // (1 ns slack for mul_f64 rounding).
        let floor = nominal.mul_f64(1.0 - jitter);
        prop_assert!(d.as_nanos() + 1 >= floor.as_nanos());
    }

    /// The immediate policy never sleeps, whatever the coordinates.
    #[test]
    fn retry_immediate_never_sleeps(
        tries in 1u32..20,
        seed in any::<u64>(),
        req in any::<u64>(),
        attempt in 0u32..40,
    ) {
        let p = RetryPolicy::immediate(tries, seed);
        prop_assert_eq!(p.max_attempts, tries);
        prop_assert_eq!(p.backoff(req, attempt), Duration::ZERO);
    }

    /// Under an arbitrary outcome script the engine always terminates, the
    /// per-path attempt count never exceeds the retry cap, terminal states
    /// admit no further transitions, and identical scripts give identical
    /// decision traces.
    #[test]
    fn engine_terminates_within_attempt_cap(
        max_attempts in 1u32..5,
        origin_fallback in any::<bool>(),
        use_edge in any::<bool>(),
        script in prop::collection::vec(any::<u8>(), 1..12),
    ) {
        let cfg = coic::core::EngineConfig {
            retry: RetryPolicy {
                max_attempts,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(8),
                jitter_frac: 0.25,
                seed: 11,
            },
            deadline_ns: 1_000_000,
            probe_interval_ns: 1_000_000,
            use_edge,
            origin_fallback,
        };
        let (edge, origin, terminal, trace) = drive_engine(cfg.clone(), &script);
        prop_assert_eq!(terminal, 1, "exactly one terminal effect");
        prop_assert!(edge <= max_attempts);
        prop_assert!(origin <= max_attempts);
        if !use_edge {
            prop_assert_eq!(edge, 0);
        }
        let (e2, o2, t2, trace2) = drive_engine(cfg, &script);
        prop_assert_eq!((edge, origin, terminal), (e2, o2, t2));
        prop_assert_eq!(trace, trace2);
    }
}

/// Drive one [`ClientEngine`] through `requests` requests, at most
/// `MAX_IN_FLIGHT` at a time, over a scripted virtual network: each edge
/// attempt is answered by a hit, a miss, a payload request, `Unavailable`,
/// `Overloaded`, a transport failure, silence (its deadline expires) or a
/// reply that arrives after its deadline; each origin attempt by a reply,
/// a failure or silence. Every armed timer fires (stale ones too). After
/// every event the engine may hold no more states than requests in flight,
/// and an event for an ended request must be quiet. Returns how many times
/// each decision class was taken, keyed by its name.
fn bounded_engine_run(requests: u64, seed: u64) -> std::collections::BTreeMap<String, u64> {
    use coic::core::{
        ClientEngine, Decision, Effect, EngineConfig, ReplyKind, RobustnessStats, SimClock,
        TimerKind,
    };
    use rand::RngExt;
    use std::collections::{BTreeMap, HashSet};

    const MAX_IN_FLIGHT: usize = 8;
    enum Ev {
        Timer(TimerKind, u32),
        Reply(ReplyKind),
        Failure,
        Probe(bool),
    }
    let clock = SimClock::new();
    let cfg = EngineConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(400),
            jitter_frac: 0.25,
            seed,
        },
        deadline_ns: 1_000_000,
        probe_interval_ns: 200_000,
        use_edge: true,
        origin_fallback: true,
    };
    let mut engine = ClientEngine::new(cfg, clock.clone(), RobustnessStats::default());
    let mut rng = StdRng::seed_from_u64(seed);
    // Pending events by (virtual time, arrival order).
    let mut queue: BTreeMap<(u64, u64), (u64, Ev)> = BTreeMap::new();
    let mut order = 0u64;
    let mut live: HashSet<u64> = HashSet::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let (mut begun, mut ended, mut now) = (0u64, 0u64, 0u64);
    loop {
        // Keep the window full, then take the next event.
        let (req_id, effects) = if live.len() < MAX_IN_FLIGHT && begun < requests {
            begun += 1;
            live.insert(begun);
            (begun, engine.begin(begun, "model", now, 0))
        } else if let Some(((at, _), (req_id, ev))) = queue.pop_first() {
            now = at;
            clock.set(SimTime::from_nanos(at));
            let effects = match ev {
                Ev::Timer(kind, epoch) => engine.on_timer(req_id, kind, epoch),
                Ev::Reply(kind) => engine.on_reply(req_id, kind, None),
                Ev::Failure => engine.on_transport_failure(req_id),
                Ev::Probe(ok) => engine.on_probe_result(req_id, ok),
            };
            (req_id, effects)
        } else {
            break;
        };
        let quiet = !live.contains(&req_id);
        let mut schedule = |delay: u64, ev: Ev| {
            order += 1;
            queue.insert((now + delay, order), (req_id, ev));
        };
        for effect in &effects {
            match *effect {
                Effect::ArmTimer {
                    kind,
                    epoch,
                    delay_ns,
                    ..
                } => schedule(delay_ns, Ev::Timer(kind, epoch)),
                Effect::SendQuery { .. } => match rng.random_range(0..12u32) {
                    0..=3 => schedule(50_000, Ev::Reply(ReplyKind::Hit)),
                    4 => schedule(300_000, Ev::Reply(ReplyKind::Result)),
                    5 => schedule(50_000, Ev::Reply(ReplyKind::NeedPayload)),
                    6 => schedule(50_000, Ev::Reply(ReplyKind::Unavailable)),
                    7 => schedule(
                        50_000,
                        Ev::Reply(ReplyKind::Overloaded { retry_after_ms: 1 }),
                    ),
                    8 => schedule(20_000, Ev::Failure),
                    9 => schedule(1_500_000, Ev::Reply(ReplyKind::Hit)),
                    _ => {} // lost: the deadline fires
                },
                Effect::SendUpload { .. } => schedule(300_000, Ev::Reply(ReplyKind::Result)),
                Effect::SendOrigin { .. } => match rng.random_range(0..4u32) {
                    0 | 1 => schedule(400_000, Ev::Reply(ReplyKind::Baseline)),
                    2 => schedule(20_000, Ev::Failure),
                    _ => {}
                },
                Effect::ProbeEdge { .. } => schedule(10_000, Ev::Probe(rng.random_bool(0.75))),
                Effect::Complete { .. } | Effect::GiveUp { .. } => {
                    assert!(live.remove(&req_id), "request {req_id} ended twice");
                    ended += 1;
                }
            }
        }
        let decisions: Vec<Decision> = engine.drain_decisions().collect();
        if quiet {
            assert!(effects.is_empty(), "ended request {req_id} acted");
            assert!(decisions.is_empty(), "terminal must be quiet");
        }
        for d in decisions {
            let name = match d {
                Decision::Complete { path, .. } => format!("complete.{}", path.label()),
                other => format!("{other:?}")
                    .split([' ', '{'])
                    .next()
                    .unwrap()
                    .to_string(),
            };
            *counts.entry(name).or_default() += 1;
        }
        assert!(engine.in_flight() <= MAX_IN_FLIGHT);
        assert_eq!(engine.in_flight(), live.len());
    }
    assert_eq!((begun, ended), (requests, requests));
    assert_eq!(engine.in_flight(), 0);
    counts
}

/// Decision classes a bounded-life run must exercise.
const BOUNDED_MIX: [&str; 12] = [
    "complete.edge_hit",
    "complete.cloud_miss",
    "complete.baseline",
    "Upload",
    "AttemptFailed",
    "Overloaded",
    "Unavailable",
    "Degrade",
    "Probe",
    "Rejoin",
    "Retry",
    "Fail",
];

#[test]
fn bounded_engine_state_over_a_hundred_thousand_requests() {
    let counts = bounded_engine_run(100_000, 7);
    for class in BOUNDED_MIX {
        assert!(
            counts.get(class).copied().unwrap_or(0) > 0,
            "no {class} in {counts:?}"
        );
    }
}

#[test]
#[ignore = "10^6 requests; run in release (CI's identity soak)"]
fn bounded_engine_state_over_a_million_requests() {
    let counts = bounded_engine_run(1_000_000, 8);
    for class in BOUNDED_MIX {
        assert!(
            counts.get(class).copied().unwrap_or(0) > 0,
            "no {class} in {counts:?}"
        );
    }
}

// ------------------------------------------------------ frame decoder --

use coic::netsim::rt::{encode_frame, FrameDecoder};

/// Split `wire` into chunks at the given cut offsets (reduced modulo the
/// wire length, then sorted and deduped).
fn fragment(wire: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
    points.push(0);
    points.push(wire.len());
    points.sort_unstable();
    points.dedup();
    points
        .windows(2)
        .map(|w| wire[w[0]..w[1]].to_vec())
        .filter(|c| !c.is_empty())
        .collect()
}

proptest! {
    /// The batched incremental decoder (event-loop read path) yields the
    /// exact frame sequence of the single-read path, no matter how the
    /// byte stream is fragmented across reads — including fragments that
    /// split a length header, a CRC, or a payload, and reads that carry
    /// several frames at once.
    #[test]
    fn batched_decode_is_fragmentation_invariant(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..12),
        cuts in prop::collection::vec(0usize..8192, 0..40),
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend_from_slice(&encode_frame(p).unwrap());
        }

        // Single-read path: the whole stream arrives in one push.
        let mut whole = FrameDecoder::new();
        whole.push(&wire);
        let mut expect = Vec::new();
        while let Some(frame) = whole.next_frame().unwrap() {
            expect.push(frame.to_vec());
        }
        prop_assert_eq!(&expect, &payloads);

        // Fragmented path: arbitrary chunking, draining after each push
        // exactly as the event loop drains after each readable wakeup.
        let mut frag = FrameDecoder::new();
        let mut got = Vec::new();
        for chunk in fragment(&wire, &cuts) {
            frag.push(&chunk);
            while let Some(frame) = frag.next_frame().unwrap() {
                got.push(frame.to_vec());
            }
        }
        prop_assert_eq!(got, expect);
        prop_assert_eq!(frag.buffered(), 0, "no bytes may be left behind");
    }

    /// Flipping any single byte of a one-frame wire image can never make
    /// the decoder return a *different* frame silently: it either still
    /// yields the original payload bytes (a flip in a part the CRC does
    /// not guard never exists — header flips change length or CRC) or
    /// surfaces an error / keeps waiting for more bytes.
    #[test]
    fn corrupted_wire_never_yields_a_wrong_frame(
        payload in prop::collection::vec(any::<u8>(), 1..200),
        at in 0usize..8192,
        xor in 1u8..=255,
    ) {
        let mut wire = encode_frame(&payload).unwrap();
        let at = at % wire.len();
        wire[at] ^= xor;
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        match dec.next_frame() {
            Ok(Some(frame)) => prop_assert_eq!(frame.as_ref(), &payload[..]),
            Ok(None) => {}  // length grew: decoder waits for bytes that never come
            Err(_) => {}    // CRC mismatch or oversized length — rejected
        }
    }
}
