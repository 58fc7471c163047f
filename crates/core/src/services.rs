//! The three CoIC roles as transport-independent services.
//!
//! [`ClientLogic`], [`EdgeService`] and [`CloudService`] contain all
//! decision logic; the simulation driver ([`crate::simrun`]) and the real
//! TCP deployment ([`crate::netrun`]) are thin shells that move their
//! messages and charge time. There is one of each: the simulator and the
//! live edge construct the same [`EdgeService`] over the same cache stack,
//! so a figure the simulator prints comes from the code that serves
//! sockets.

use crate::compute::ComputeConfig;
use crate::content::{ModelLibrary, PanoLibrary};
use crate::descriptor::FeatureDescriptor;
use crate::task::{Held, RecognitionResult, TaskRequest, TaskResult};
use coic_cache::{
    AnnFamily, Digest, IndexTelemetry, Lookup, Metrics, PolicyKind, ShardedExactCache,
    SnapshotApproxCache, TinyLfuConfig, DEFAULT_REBUILD_BATCH,
};
use coic_obs::MetricsRegistry;
use coic_vision::{ObjectClass, PrototypeClassifier, SceneGenerator, SimNet, ViewParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Edge cache configuration.
#[derive(Debug, Clone, Copy)]
pub struct EdgeConfig {
    /// Capacity of the recognition (approximate) cache, bytes.
    pub recog_cache_bytes: u64,
    /// Capacity of the exact (model/panorama) cache, bytes.
    pub exact_cache_bytes: u64,
    /// Eviction policy of the exact (model/panorama) cache. The
    /// recognition cache ignores it: it evicts least-recently-used first,
    /// by `(last_used, id)`, when it folds its journal.
    pub policy: PolicyKind,
    /// Distance threshold for recognition hits.
    pub threshold: f32,
    /// Index backing the approximate cache.
    pub index: AnnFamily,
    /// Descriptor embedding dimensionality.
    pub embedding_dim: usize,
    /// TinyLFU admission on the exact cache (None = admit everything).
    pub admission: Option<TinyLfuConfig>,
    /// TTL for exact-cache entries, ms (None = never expire). Live content
    /// — e.g. panoramas of a real-time VR world — must not be served
    /// stale forever.
    pub exact_ttl_ms: Option<u64>,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            recog_cache_bytes: 64 * 1024 * 1024,
            exact_cache_bytes: 512 * 1024 * 1024,
            policy: PolicyKind::Lru,
            threshold: 0.45,
            index: AnnFamily::Linear,
            embedding_dim: 32,
            admission: None,
            exact_ttl_ms: None,
        }
    }
}

/// The edge cache service — the one cache stack [`crate::engine::EdgeEngine`]
/// looks requests up in, in the simulator and in the live TCP edge alike.
/// Every method takes `&self`:
///
/// * recognition descriptors go through the snapshot/journal cache
///   ([`SnapshotApproxCache`]) — lookups walk an immutable `Arc`-swapped
///   snapshot lock-free, inserts journal (and are visible immediately),
///   and [`EdgeService::maintain`] folds rebuilds at points the driver
///   chooses; the live edge searches it and inserts into it from
///   connection threads, outside the engine's lock;
/// * exact digests go through a one-shard [`ShardedExactCache`], which
///   makes exactly the decisions of a bare `ExactCache` (`coic-cache`'s
///   `tests/equiv.rs`) on both realisers. The engine makes every exact
///   lookup and insert a request causes. An entry is a [`Held`]
///   result, and a lookup returns the entry itself, so a live reply
///   reuses the blob checksum kept with it; a [`Held`] computes that sum
///   only on its first send, so the simulator, which never sends, never
///   causes one.
pub struct EdgeService {
    recog: SnapshotApproxCache<RecognitionResult>,
    exact: ShardedExactCache<Held>,
}

impl EdgeService {
    /// Create the service's two caches as `cfg` sizes them.
    pub fn new(cfg: &EdgeConfig) -> Self {
        EdgeService {
            recog: SnapshotApproxCache::new(
                cfg.recog_cache_bytes,
                cfg.threshold,
                cfg.index,
                cfg.embedding_dim,
                DEFAULT_REBUILD_BATCH,
            ),
            exact: {
                let ttl_ns = cfg.exact_ttl_ms.map(|ms| ms * 1_000_000);
                let c = ShardedExactCache::new(cfg.exact_cache_bytes, cfg.policy, ttl_ns, 1);
                match cfg.admission {
                    Some(a) => c.with_admission(a),
                    None => c,
                }
            },
        }
    }

    /// Look a descriptor up in the matching cache, reporting *why* it hit
    /// (exact digest match vs within-threshold descriptor match) rather
    /// than a bare bool/`Option` pair; the trace records `kind_str()` and
    /// the approx distance. An exact hit is the cache's own entry, so that
    /// what a sender learns about it (its blob's checksum) stays with it.
    pub fn lookup(&self, descriptor: &FeatureDescriptor, now_ns: u64) -> Lookup<Arc<Held>> {
        match descriptor {
            FeatureDescriptor::Dnn(v) => self
                .recog
                .lookup(v, now_ns)
                .map(|r| Arc::new(Held::new(TaskResult::Recognition(*r)))),
            FeatureDescriptor::ModelHash(d) | FeatureDescriptor::PanoramaHash(d) => {
                match self.exact.lookup(d, now_ns) {
                    Some(entry) => Lookup::ExactHit(entry),
                    None => Lookup::Miss,
                }
            }
        }
    }

    /// Insert a freshly computed result under its descriptor. An exact
    /// entry keeps the blob checksum `held` carries (a result decoded from
    /// a verified frame has one — [`Held::from_frame`]; one held with
    /// [`Held::new`] is summed by its first send, if it is ever sent) and
    /// is charged the result's size. Returns how many journal entries a
    /// recognition insert folded when it tripped the snapshot cache's
    /// self-fold (zero otherwise) — the live edge traces `index.rebuild`
    /// with it.
    ///
    /// # Panics
    /// Panics when the descriptor and result kinds disagree.
    pub fn insert(&self, descriptor: &FeatureDescriptor, held: Held, now_ns: u64) -> usize {
        match (descriptor, held.result()) {
            (FeatureDescriptor::Dnn(v), result @ TaskResult::Recognition(r)) => {
                // Charge the descriptor plus the annotation payload.
                let size = v.byte_size() + result.byte_size();
                self.recog.insert(v.clone(), *r, size, now_ns)
            }
            (FeatureDescriptor::ModelHash(d) | FeatureDescriptor::PanoramaHash(d), result) => {
                let size = result.byte_size();
                self.exact.insert(*d, held, size, now_ns);
                0
            }
            (d, r) => panic!(
                "descriptor kind {} does not match result kind {}",
                d.kind(),
                r.kind()
            ),
        }
    }

    /// Fold the recognition cache's journal into a fresh snapshot (see
    /// [`SnapshotApproxCache::maintain`]; inserts also self-fold at the
    /// rebuild batch). Drivers call this where they want rebuild cost to
    /// land — the end of a run or measurement window — rather than
    /// mid-lookup. Returns how many journal entries were folded.
    pub fn maintain(&self, now_ns: u64) -> usize {
        self.recog.maintain(now_ns)
    }

    /// Does the exact cache currently hold this digest, unexpired at
    /// `now_ns`? (No stats or recency side effects — used by the
    /// prefetcher to avoid refetching.)
    pub fn exact_contains(&self, digest: &Digest, now_ns: u64) -> bool {
        self.exact.contains(digest, now_ns)
    }

    /// Direct exact-cache lookup by digest (peer queries: "do you hold
    /// this content?"), returning the cache's own entry.
    pub fn exact_lookup(&self, digest: &Digest, now_ns: u64) -> Option<Arc<Held>> {
        self.exact.lookup(digest, now_ns)
    }

    /// Recognition cache metrics.
    pub fn recog_metrics(&self) -> Metrics {
        self.recog.metrics()
    }

    /// Exact cache metrics.
    pub fn exact_metrics(&self) -> Metrics {
        self.exact.metrics()
    }

    /// Publish both caches' metrics into the shared registry under
    /// `cache.recog.*` and `cache.exact.*`, plus the recognition index
    /// hot-path telemetry under `index.*`.
    pub fn publish_metrics(&self, reg: &MetricsRegistry) {
        self.recog_metrics().publish(reg, "cache.recog");
        self.exact_metrics().publish(reg, "cache.exact");
        self.index_telemetry().publish(reg);
    }

    /// Snapshot of the recognition index hot-path telemetry (probe
    /// counts, rebuilds, journal depth, snapshot age).
    pub fn index_telemetry(&self) -> IndexTelemetry {
        self.recog.index_telemetry()
    }

    /// The recognition index family's label (`mp-lsh`, `hnsw`, `linear`).
    pub fn index_family(&self) -> &'static str {
        self.recog.family_label()
    }

    /// Combined hit ratio over both caches.
    pub fn hit_ratio(&self) -> f64 {
        let r = self.recog_metrics();
        let e = self.exact_metrics();
        let hits = r.hits + e.hits;
        let total = r.lookups() + e.lookups();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// The cloud execution service — the paper's "server" that runs complete
/// IC tasks.
pub struct CloudService {
    net: Arc<SimNet>,
    classifier: PrototypeClassifier,
    models: Arc<ModelLibrary>,
    panos: Arc<PanoLibrary>,
    compute: ComputeConfig,
}

impl CloudService {
    /// Train the cloud's recognition model over `classes` and wire up the
    /// content libraries. With no classes nothing is trained, and the
    /// service executes everything but recognition.
    pub fn new(
        classes: &[ObjectClass],
        gen: &SceneGenerator,
        compute: ComputeConfig,
        models: Arc<ModelLibrary>,
        panos: Arc<PanoLibrary>,
        seed: u64,
    ) -> Self {
        let net = SimNet::shared_default();
        let mut rng = StdRng::seed_from_u64(seed);
        let classifier = PrototypeClassifier::train(&net, gen, classes, 5, 0.08, 4.0, &mut rng);
        CloudService {
            net,
            classifier,
            models,
            panos,
            compute,
        }
    }

    /// Execute a task, returning the result and its virtual compute cost.
    pub fn execute(&self, task: &TaskRequest) -> (TaskResult, u64) {
        let (held, cost) = self.execute_held(task);
        (held.result().clone(), cost)
    }

    /// [`CloudService::execute`] returning a model or panorama as the
    /// content library holds it — the entry itself, so a server that sends
    /// it leaves the blob's checksum with the library for the next send.
    /// The cloud never hashes content: the asker named it by its digest.
    ///
    /// # Panics
    /// Panics on a recognition task if the service was trained on no
    /// classes: it has no label to answer with, and a made-up one would be
    /// a wrong result, not an error.
    pub fn execute_held(&self, task: &TaskRequest) -> (Arc<Held>, u64) {
        match task {
            TaskRequest::Recognition { image } => {
                assert!(
                    self.classifier.num_classes() > 0,
                    "recognition task reached a cloud service trained on no classes"
                );
                let embedding = self.net.extract(image);
                let (label, distance) = self.classifier.predict(&embedding);
                let result = TaskResult::Recognition(RecognitionResult {
                    label: label.0,
                    distance,
                });
                (Arc::new(Held::new(result)), self.compute.cloud_infer_ns())
            }
            TaskRequest::RenderLoad {
                model_id,
                size_bytes,
            } => {
                let held = self.models.held(*model_id, *size_bytes);
                let cost = self
                    .compute
                    .load_cloud
                    .full_load_ns(held.result().byte_size());
                (held, cost)
            }
            TaskRequest::Panorama { frame_id } => {
                (self.panos.held(*frame_id), self.compute.pano_render_ns)
            }
        }
    }
}

/// A prepared client request: descriptor, full task, prep cost, truth.
#[derive(Debug, Clone)]
pub struct PreparedRequest {
    /// Descriptor to query the edge with.
    pub descriptor: FeatureDescriptor,
    /// Full task for the miss path.
    pub task: TaskRequest,
    /// On-device preparation time (capture + descriptor extraction), ns.
    pub prep_ns: u64,
    /// Ground-truth class for recognition requests (accuracy accounting).
    pub truth: Option<u32>,
}

/// Client-side preprocessing configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Camera frame side length (pixels).
    pub image_side: u32,
    /// Viewpoint jitter between co-located users, radians.
    pub angle_spread: f64,
    /// Sensor noise sigma.
    pub noise_sigma: f64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            image_side: 64,
            angle_spread: 0.08,
            noise_sigma: 4.0,
        }
    }
}

/// Client-side preprocessing: turns a workload request into a descriptor
/// plus a full task.
pub struct ClientLogic {
    net: Arc<SimNet>,
    gen: SceneGenerator,
    models: Arc<ModelLibrary>,
    panos: Arc<PanoLibrary>,
    compute: ComputeConfig,
    cfg: ClientConfig,
}

impl ClientLogic {
    /// Create the client logic.
    pub fn new(
        cfg: ClientConfig,
        compute: ComputeConfig,
        models: Arc<ModelLibrary>,
        panos: Arc<PanoLibrary>,
    ) -> Self {
        ClientLogic {
            net: SimNet::shared_default(),
            gen: SceneGenerator::new(cfg.image_side),
            models,
            panos,
            compute,
            cfg,
        }
    }

    /// Prepare a workload request for transmission.
    pub fn prepare(&self, req: &coic_workload::Request) -> PreparedRequest {
        use coic_workload::RequestKind;
        match req.kind {
            RequestKind::Recognition { class, view_seed } => {
                let mut rng = StdRng::seed_from_u64(view_seed);
                let view =
                    ViewParams::jittered(&mut rng, self.cfg.angle_spread, self.cfg.noise_sigma);
                let image = self.gen.observe(ObjectClass(class), &view, &mut rng);
                let descriptor = FeatureDescriptor::Dnn(self.net.extract(&image));
                PreparedRequest {
                    descriptor,
                    task: TaskRequest::Recognition { image },
                    prep_ns: self.compute.descriptor_ns(),
                    truth: Some(class),
                }
            }
            RequestKind::RenderLoad {
                model_id,
                size_bytes,
            } => {
                let digest = self.models.digest(model_id, size_bytes);
                PreparedRequest {
                    descriptor: FeatureDescriptor::ModelHash(digest),
                    task: TaskRequest::RenderLoad {
                        model_id,
                        size_bytes,
                    },
                    // Hash lookup in the app manifest: negligible but nonzero.
                    prep_ns: 100_000,
                    truth: None,
                }
            }
            RequestKind::Panorama { frame_id } => {
                let digest = self.panos.digest(frame_id);
                PreparedRequest {
                    descriptor: FeatureDescriptor::PanoramaHash(digest),
                    task: TaskRequest::Panorama { frame_id },
                    prep_ns: 100_000,
                    truth: None,
                }
            }
        }
    }
}

/// Resolve whether a recognition reply was correct.
pub fn recognition_correct(result: &TaskResult, truth: Option<u32>) -> Option<bool> {
    match (result, truth) {
        (TaskResult::Recognition(r), Some(t)) => Some(r.label == t),
        _ => None,
    }
}

/// Convenience: digest carried by a hash-type descriptor.
pub fn descriptor_digest(d: &FeatureDescriptor) -> Option<Digest> {
    match d {
        FeatureDescriptor::ModelHash(h) | FeatureDescriptor::PanoramaHash(h) => Some(*h),
        FeatureDescriptor::Dnn(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coic_workload::{Request, RequestKind, UserId, ZoneId};

    fn setup() -> (ClientLogic, EdgeService, CloudService) {
        let models = Arc::new(ModelLibrary::new());
        let panos = Arc::new(PanoLibrary::new(64));
        let compute = ComputeConfig::default();
        let client = ClientLogic::new(
            ClientConfig::default(),
            compute,
            models.clone(),
            panos.clone(),
        );
        let edge = EdgeService::new(&EdgeConfig::default());
        let classes: Vec<_> = (0..10).map(ObjectClass).collect();
        let gen = SceneGenerator::new(64);
        let cloud = CloudService::new(&classes, &gen, compute, models, panos, 7);
        (client, edge, cloud)
    }

    /// The result `edge` answers `d` with, if it hits.
    fn hit(edge: &EdgeService, d: &FeatureDescriptor, now: u64) -> Option<TaskResult> {
        edge.lookup(d, now)
            .into_value()
            .map(|held| held.result().clone())
    }

    fn put(edge: &EdgeService, d: &FeatureDescriptor, r: &TaskResult, now: u64) -> usize {
        edge.insert(d, Held::new(r.clone()), now)
    }

    fn recog_req(class: u32, view_seed: u64) -> Request {
        Request {
            user: UserId(0),
            zone: ZoneId(0),
            at_ns: 0,
            kind: RequestKind::Recognition { class, view_seed },
        }
    }

    /// FNV-1a 64 of the camera frame `prepare` captures for class `c` (row)
    /// under view seed `s` (column), at `ClientConfig::default()`.
    #[rustfmt::skip]
    const FRAME_FNV: [[u64; 4]; 8] = [
        [0x9b6a9a84028aac31, 0xf567b92c9c0b46f5, 0x56b240f90cb29997, 0xf239373bd6e92482],
        [0x10593ca5251984f9, 0xba76d9458438125f, 0x2ecfa893def4f86d, 0x8be46c22847a8b8e],
        [0x2269d630751150d6, 0x5fcef73d96390539, 0xeaf96db8621a182a, 0xf2976ff55ecb6824],
        [0x61391a6762bb69c7, 0x469b4d2035931da6, 0xfe71fec56bc3b906, 0xd20c492b9e9a92cb],
        [0x292b5cd3aa227e0f, 0x2a3aeb86be71fd9a, 0x6dbd7365bdee9355, 0x4bb5c9cb4e3d30b5],
        [0xdcffd83c220ed0b8, 0xa6584dfe08fe7456, 0xd47a406484ad2c0c, 0x0cd53067519c3379],
        [0xfe579995ee349613, 0x6efacd1bdb0d2f2f, 0x1695b2219e88a12c, 0xc4b983c2e3d52b78],
        [0x30138a705e5f119d, 0xe86ec127558a590f, 0x1831eada1da3cbc1, 0x31f5cfd9ea51ecc4],
    ];

    /// Every recognition request's bytes start at this frame, and every
    /// golden and benchmark ledger hashes descriptors of it: a change that
    /// moves a pixel fails here even if it also edits the scene tests'
    /// per-pixel oracle.
    #[test]
    fn prepared_frames_are_pinned() {
        let (client, _, _) = setup();
        let hashes: Vec<[u64; 4]> = (0..8)
            .map(|class| {
                std::array::from_fn(|s| match client.prepare(&recog_req(class, s as u64)).task {
                    TaskRequest::Recognition { image } => coic_cache::fnv1a64(image.pixels()),
                    other => panic!("expected a recognition task, got {other:?}"),
                })
            })
            .collect();
        assert_eq!(hashes, FRAME_FNV);
    }

    #[test]
    fn recognition_miss_then_hit_flow() {
        let (client, edge, cloud) = setup();
        // First request: miss, upload, cloud executes, edge caches.
        let p1 = client.prepare(&recog_req(3, 100));
        assert_eq!(hit(&edge, &p1.descriptor, 0), None);
        let (result, cost) = cloud.execute(&p1.task);
        assert!(cost > 0);
        assert_eq!(recognition_correct(&result, p1.truth), Some(true));
        put(&edge, &p1.descriptor, &result, 0);

        // Second request: same object seen again (another user at the same
        // spot, same viewpoint) — must hit.
        let p2 = client.prepare(&recog_req(3, 100));
        match hit(&edge, &p2.descriptor, 1) {
            Some(TaskResult::Recognition(r)) => assert_eq!(r.label, 3),
            other => panic!("expected a hit, got {other:?}"),
        }
        assert_eq!(edge.recog_metrics().hits, 1);
    }

    #[test]
    fn typed_lookup_reports_hit_kind() {
        let (client, edge, cloud) = setup();
        let p = client.prepare(&recog_req(4, 77));
        assert!(matches!(edge.lookup(&p.descriptor, 0), Lookup::Miss));
        let (r, _) = cloud.execute(&p.task);
        put(&edge, &p.descriptor, &r, 0);
        match edge.lookup(&p.descriptor, 1) {
            Lookup::ApproxHit { value, distance } => {
                assert!(distance >= 0.0);
                assert!(matches!(value.result(), TaskResult::Recognition(_)));
            }
            other => panic!("expected ApproxHit, got {other:?}"),
        }
        let req = Request {
            user: UserId(0),
            zone: ZoneId(0),
            at_ns: 0,
            kind: RequestKind::Panorama { frame_id: 3 },
        };
        let pp = client.prepare(&req);
        let (pr, _) = cloud.execute(&pp.task);
        put(&edge, &pp.descriptor, &pr, 0);
        match edge.lookup(&pp.descriptor, 1) {
            Lookup::ExactHit(entry) => assert!(matches!(entry.result(), TaskResult::Panorama(_))),
            other => panic!("expected ExactHit, got {other:?}"),
        }
    }

    #[test]
    fn nearby_views_usually_hit() {
        // The statistical property Fig 2a depends on: most re-observations
        // of a cached object from a jittered viewpoint land within the
        // threshold.
        let (client, edge, cloud) = setup();
        let p1 = client.prepare(&recog_req(5, 1000));
        let (r1, _) = cloud.execute(&p1.task);
        put(&edge, &p1.descriptor, &r1, 0);
        let mut hits = 0;
        let n = 30;
        for seed in 0..n {
            let p = client.prepare(&recog_req(5, 2000 + seed));
            if hit(&edge, &p.descriptor, 0).is_some() {
                hits += 1;
            }
        }
        assert!(hits >= n / 2, "only {hits}/{n} nearby views hit");
    }

    #[test]
    fn different_object_does_not_hit() {
        let (client, edge, cloud) = setup();
        let p1 = client.prepare(&recog_req(1, 5));
        let (r1, _) = cloud.execute(&p1.task);
        put(&edge, &p1.descriptor, &r1, 0);
        let p2 = client.prepare(&recog_req(2, 6));
        assert_eq!(hit(&edge, &p2.descriptor, 0), None, "a different class hit");
    }

    #[test]
    fn render_load_flow_hits_exactly() {
        let (client, edge, cloud) = setup();
        let req = Request {
            user: UserId(0),
            zone: ZoneId(0),
            at_ns: 0,
            kind: RequestKind::RenderLoad {
                model_id: 11,
                size_bytes: 80_000,
            },
        };
        let p = client.prepare(&req);
        let digest = descriptor_digest(&p.descriptor).unwrap();
        assert!(!edge.exact_contains(&digest, 0));
        assert_eq!(hit(&edge, &p.descriptor, 0), None);
        let (result, _) = cloud.execute(&p.task);
        match &result {
            TaskResult::Model(bytes) => {
                // The model is genuinely loadable.
                crate::cmf::load_cmf(bytes).unwrap();
            }
            other => panic!("expected Model, got {other:?}"),
        }
        put(&edge, &p.descriptor, &result, 0);
        // Same model requested by another user: exact hit.
        assert!(matches!(
            hit(&edge, &p.descriptor, 1),
            Some(TaskResult::Model(_))
        ));
        assert_eq!(edge.exact_metrics().hits, 1);
        // The peer-query entry points see the same entry.
        assert!(edge.exact_contains(&digest, 1));
        let entry = edge.exact_lookup(&digest, 2).expect("cached");
        assert_eq!(entry.result(), &result);
    }

    #[test]
    fn panorama_flow() {
        let (client, edge, cloud) = setup();
        let req = Request {
            user: UserId(1),
            zone: ZoneId(0),
            at_ns: 0,
            kind: RequestKind::Panorama { frame_id: 42 },
        };
        let p = client.prepare(&req);
        assert_eq!(hit(&edge, &p.descriptor, 0), None);
        let (result, cost) = cloud.execute(&p.task);
        assert_eq!(cost, ComputeConfig::default().pano_render_ns);
        put(&edge, &p.descriptor, &result, 0);
        match hit(&edge, &p.descriptor, 1) {
            Some(TaskResult::Panorama(b)) => assert_eq!(b.len(), 128 * 64),
            other => panic!("expected a hit, got {other:?}"),
        }
    }

    #[test]
    fn the_cloud_serves_content_without_hashing_it() {
        let models = Arc::new(ModelLibrary::new());
        let panos = Arc::new(PanoLibrary::new(64));
        let cloud = CloudService::new(
            &[],
            &SceneGenerator::new(64),
            ComputeConfig::default(),
            models.clone(),
            panos.clone(),
            7,
        );
        let (model, _) = cloud.execute_held(&TaskRequest::RenderLoad {
            model_id: 3,
            size_bytes: 20_000,
        });
        let (pano, _) = cloud.execute_held(&TaskRequest::Panorama { frame_id: 4 });
        assert_eq!(
            (models.len(), models.digested(), panos.digested()),
            (1, 0, 0)
        );
        // A client naming the content later hashes the bytes the cloud sent.
        let blob = |held: &Held| held.result().blob().cloned().expect("content has bytes");
        assert_eq!(models.digest(3, 20_000), Digest::of(&blob(&model)));
        assert_eq!(panos.digest(4), Digest::of(&blob(&pano)));
        assert_eq!((models.digested(), panos.digested()), (1, 1));
    }

    #[test]
    fn exact_ttl_expires_stale_content() {
        let models = Arc::new(ModelLibrary::new());
        let panos = Arc::new(PanoLibrary::new(64));
        let compute = ComputeConfig::default();
        let client = ClientLogic::new(
            ClientConfig::default(),
            compute,
            models.clone(),
            panos.clone(),
        );
        let edge = EdgeService::new(&EdgeConfig {
            exact_ttl_ms: Some(100),
            ..EdgeConfig::default()
        });
        // No recognition here, so a cloud trained on nothing serves it.
        let gen = SceneGenerator::new(64);
        let cloud = CloudService::new(&[], &gen, compute, models, panos, 7);
        let req = Request {
            user: UserId(0),
            zone: ZoneId(0),
            at_ns: 0,
            kind: RequestKind::Panorama { frame_id: 5 },
        };
        let p = client.prepare(&req);
        assert_eq!(hit(&edge, &p.descriptor, 0), None);
        let (result, _) = cloud.execute(&p.task);
        put(&edge, &p.descriptor, &result, 0);
        // Within TTL: hit. After TTL (100 ms = 1e8 ns): miss again.
        assert!(hit(&edge, &p.descriptor, 50_000_000).is_some());
        assert_eq!(hit(&edge, &p.descriptor, 150_000_000), None);
        assert!(!edge.exact_contains(&descriptor_digest(&p.descriptor).unwrap(), 150_000_000));
        // The read path only reports the stale entry absent; the next
        // write replays the queued hit, finds it expired and drops it.
        put(&edge, &p.descriptor, &result, 150_000_000);
        assert_eq!(edge.exact_metrics().expired, 1);
    }

    #[test]
    #[should_panic(expected = "trained on no classes")]
    fn recognition_on_an_untrained_cloud_is_an_error_not_a_label() {
        let (client, _, _) = setup();
        let untrained = CloudService::new(
            &[],
            &SceneGenerator::new(64),
            ComputeConfig::default(),
            Arc::new(ModelLibrary::new()),
            Arc::new(PanoLibrary::new(64)),
            7,
        );
        untrained.execute(&client.prepare(&recog_req(0, 1)).task);
    }

    #[test]
    fn hit_ratio_combines_caches() {
        let (client, edge, cloud) = setup();
        let p = client.prepare(&recog_req(0, 1));
        assert_eq!(hit(&edge, &p.descriptor, 0), None);
        let (r, _) = cloud.execute(&p.task);
        put(&edge, &p.descriptor, &r, 0);
        let p2 = client.prepare(&recog_req(0, 1));
        assert!(hit(&edge, &p2.descriptor, 0).is_some());
        assert!((edge.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn maintain_folds_recognition_journal_and_publishes_telemetry() {
        let (_, edge, _) = setup();
        let r = TaskResult::Recognition(RecognitionResult {
            label: 1,
            distance: 0.0,
        });
        for i in 0..5u64 {
            let mut raw = vec![0.0f32; 32];
            raw[(i as usize) % 32] = 1.0;
            let d = FeatureDescriptor::Dnn(coic_vision::FeatureVec::new(raw));
            put(&edge, &d, &r, i);
        }
        let t = edge.index_telemetry();
        assert_eq!(t.journal_depth, 5);
        assert_eq!(edge.maintain(10), 5);
        let t = edge.index_telemetry();
        assert_eq!((t.journal_depth, t.rebuilds, t.snapshot_len), (0, 1, 5));
        let reg = MetricsRegistry::new();
        edge.publish_metrics(&reg);
        assert_eq!(reg.counter("index.rebuild"), 1);
        assert_eq!(reg.gauge("index.snapshot_len"), 5);
        assert!(!edge.index_family().is_empty());
    }

    #[test]
    fn concurrent_queries_share_one_service() {
        let (_, edge, _) = setup();
        let digest = Digest::of(b"pano 1");
        put(
            &edge,
            &FeatureDescriptor::PanoramaHash(digest),
            &TaskResult::Panorama(bytes::Bytes::from(vec![1u8; 64])),
            0,
        );
        let hits = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| hit(&edge, &FeatureDescriptor::PanoramaHash(digest), 1).is_some())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("query thread"))
                .filter(|&hit| hit)
                .count()
        });
        assert_eq!(hits, 8);
        assert_eq!(edge.exact_metrics().hits, 8);
    }

    #[test]
    #[should_panic(expected = "does not match result kind")]
    fn mismatched_insert_panics() {
        let (_, edge, _) = setup();
        let d = FeatureDescriptor::Dnn(coic_vision::FeatureVec::new(vec![0.0; 32]));
        let r = TaskResult::Model(bytes::Bytes::new());
        put(&edge, &d, &r, 0);
    }
}
