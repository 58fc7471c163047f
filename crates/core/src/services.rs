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
    Digest, IndexKind, IndexTelemetry, Lookup, Metrics, PolicyKind, ShardedExactCache,
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
    /// Eviction policy for both caches.
    pub policy: PolicyKind,
    /// Distance threshold for recognition hits.
    pub threshold: f32,
    /// Index backing the approximate cache.
    pub index: IndexKind,
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
            index: IndexKind::Linear,
            embedding_dim: 32,
            admission: None,
            exact_ttl_ms: None,
        }
    }
}

/// What the edge decides to do with a query.
#[derive(Debug, Clone, PartialEq)]
pub enum EdgeReply {
    /// Cached result — return immediately.
    Hit(TaskResult),
    /// Recognition miss without payload: ask the client to upload.
    NeedPayload,
    /// Miss with a task hint: forward straight to the cloud.
    Forward(TaskRequest),
}

/// The edge cache service — the one implementation both the simulator
/// and the live TCP edge serve from. Every method takes `&self`, so the
/// live edge shares it across connection threads without a service-wide
/// lock:
///
/// * recognition descriptors go through the snapshot/journal cache
///   ([`SnapshotApproxCache`]) — lookups walk an immutable `Arc`-swapped
///   snapshot lock-free, inserts journal (and are visible immediately),
///   and [`EdgeService::maintain`] folds rebuilds at points the driver
///   chooses;
/// * exact digests go through [`ShardedExactCache`], where a hit
///   share-locks one shard and payload clones happen outside any lock. An
///   entry is a [`Held`] result: the live edge reads entries as they are
///   held ([`EdgeService::lookup_held`]) so a reply can reuse the blob
///   checksum kept with the entry; the simulator reads plain results and
///   never causes one to be computed.
///
/// The exact cache's capacity is split evenly across shards, so the shard
/// count changes which entries get evicted. The simulator therefore
/// builds the service with one shard, which makes exactly the decisions
/// of a bare `ExactCache` (`coic-cache`'s `tests/equiv.rs`); the live
/// edge passes [`crate::netrun::NetConfig::cache_shards`].
pub struct EdgeService {
    recog: SnapshotApproxCache<RecognitionResult>,
    exact: ShardedExactCache<Held>,
}

impl EdgeService {
    /// Create the service with `shards` lock shards for the exact cache
    /// (the snapshot recognition cache is unsharded by design — see
    /// [`coic_cache::sharded`]).
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(cfg: &EdgeConfig, shards: usize) -> Self {
        EdgeService {
            recog: SnapshotApproxCache::new(
                cfg.recog_cache_bytes,
                cfg.threshold,
                cfg.index.ann_family(),
                cfg.embedding_dim,
                DEFAULT_REBUILD_BATCH,
            ),
            exact: {
                let ttl_ns = cfg.exact_ttl_ms.map(|ms| ms * 1_000_000);
                let c = ShardedExactCache::new(cfg.exact_cache_bytes, cfg.policy, ttl_ns, shards);
                match cfg.admission {
                    Some(a) => c.with_admission(a),
                    None => c,
                }
            },
        }
    }

    /// Look a descriptor up in the matching cache, reporting *why* it hit
    /// (exact digest match vs within-threshold descriptor match) rather
    /// than a bare bool/`Option` pair. This is the typed entry point
    /// [`EdgeService::handle_query`] and the telemetry layer share (the
    /// trace records `kind_str()` and the approx distance).
    pub fn lookup(&self, descriptor: &FeatureDescriptor, now_ns: u64) -> Lookup<TaskResult> {
        // The Arc clone happens under the shard read lock; the payload
        // clone happens here, after release.
        self.lookup_as(descriptor, now_ns, TaskResult::Recognition, |held| {
            held.result().clone()
        })
    }

    /// [`EdgeService::lookup`] returning the cache's own entry rather than
    /// a copy of the result in it, so that what the sender learns about the
    /// entry (its blob's checksum) stays with the entry.
    pub fn lookup_held(&self, descriptor: &FeatureDescriptor, now_ns: u64) -> Lookup<Arc<Held>> {
        self.lookup_as(
            descriptor,
            now_ns,
            |r| Arc::new(Held::new(TaskResult::Recognition(r))),
            |held| held,
        )
    }

    fn lookup_as<T>(
        &self,
        descriptor: &FeatureDescriptor,
        now_ns: u64,
        recognized: impl FnOnce(RecognitionResult) -> T,
        held: impl FnOnce(Arc<Held>) -> T,
    ) -> Lookup<T> {
        match descriptor {
            FeatureDescriptor::Dnn(v) => self.recog.lookup(v, now_ns).map(|r| recognized(*r)),
            FeatureDescriptor::ModelHash(d) | FeatureDescriptor::PanoramaHash(d) => {
                match self.exact.lookup(d, now_ns) {
                    Some(entry) => Lookup::ExactHit(held(entry)),
                    None => Lookup::Miss,
                }
            }
        }
    }

    /// Handle a descriptor query (the core of Figure 1's edge box).
    pub fn handle_query(
        &self,
        descriptor: &FeatureDescriptor,
        hint: Option<&TaskRequest>,
        now_ns: u64,
    ) -> EdgeReply {
        match self.lookup(descriptor, now_ns).into_value() {
            Some(result) => EdgeReply::Hit(result),
            None => match hint {
                Some(task) => EdgeReply::Forward(task.clone()),
                None => EdgeReply::NeedPayload,
            },
        }
    }

    /// Insert a freshly computed result under its descriptor. Returns how
    /// many journal entries a recognition insert folded when it tripped
    /// the snapshot cache's self-fold (zero otherwise) — the live edge
    /// uses this to trace `index.rebuild` events.
    ///
    /// # Panics
    /// Panics when the descriptor and result kinds disagree.
    pub fn insert(
        &self,
        descriptor: &FeatureDescriptor,
        result: &TaskResult,
        now_ns: u64,
    ) -> usize {
        self.insert_held(descriptor, Held::new(result.clone()), now_ns)
    }

    /// [`EdgeService::insert`] for a result that arrives already held: an
    /// exact entry keeps the blob checksum `held` carries (a result decoded
    /// from a verified frame has one — [`Held::from_frame`]). The entry is
    /// charged the result's size, as ever.
    ///
    /// # Panics
    /// Panics when the descriptor and result kinds disagree.
    pub fn insert_held(&self, descriptor: &FeatureDescriptor, held: Held, now_ns: u64) -> usize {
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

    /// Direct exact-cache lookup by digest (peer queries and single-flight
    /// re-checks: "do you hold this content?"). The payload clone runs
    /// outside the shard lock.
    pub fn exact_lookup(&self, digest: &Digest, now_ns: u64) -> Option<TaskResult> {
        self.exact_lookup_held(digest, now_ns)
            .map(|held| held.result().clone())
    }

    /// [`EdgeService::exact_lookup`] returning the cache's own entry.
    pub fn exact_lookup_held(&self, digest: &Digest, now_ns: u64) -> Option<Arc<Held>> {
        self.exact.lookup(digest, now_ns)
    }

    /// Recognition cache metrics.
    pub fn recog_metrics(&self) -> Metrics {
        self.recog.metrics()
    }

    /// Exact cache metrics, merged across shards.
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

    /// Shard count of the exact cache.
    pub fn shard_count(&self) -> usize {
        self.exact.shard_count()
    }

    /// Which exact-cache shard serves this digest (telemetry label only —
    /// the lookup itself routes internally).
    pub fn exact_shard_of(&self, digest: &Digest) -> usize {
        self.exact.shard_of_key(digest)
    }
}

/// The cloud execution service — the paper's "server" that runs complete
/// IC tasks.
pub struct CloudService {
    net: SimNet,
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
        let net = SimNet::default_net();
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
                let (held, _) = self.models.held(*model_id, *size_bytes);
                let cost = self
                    .compute
                    .load_cloud
                    .full_load_ns(held.result().byte_size());
                (held, cost)
            }
            TaskRequest::Panorama { frame_id } => {
                let (held, _) = self.panos.held(*frame_id);
                (held, self.compute.pano_render_ns)
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
    net: SimNet,
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
            net: SimNet::default_net(),
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
        let edge = EdgeService::new(&EdgeConfig::default(), 4);
        let classes: Vec<_> = (0..10).map(ObjectClass).collect();
        let gen = SceneGenerator::new(64);
        let cloud = CloudService::new(&classes, &gen, compute, models, panos, 7);
        (client, edge, cloud)
    }

    fn recog_req(class: u32, view_seed: u64) -> Request {
        Request {
            user: UserId(0),
            zone: ZoneId(0),
            at_ns: 0,
            kind: RequestKind::Recognition { class, view_seed },
        }
    }

    #[test]
    fn recognition_miss_then_hit_flow() {
        let (client, edge, cloud) = setup();
        // First request: miss, upload, cloud executes, edge caches.
        let p1 = client.prepare(&recog_req(3, 100));
        match edge.handle_query(&p1.descriptor, None, 0) {
            EdgeReply::NeedPayload => {}
            other => panic!("expected NeedPayload, got {other:?}"),
        }
        let (result, cost) = cloud.execute(&p1.task);
        assert!(cost > 0);
        assert_eq!(recognition_correct(&result, p1.truth), Some(true));
        edge.insert(&p1.descriptor, &result, 0);

        // Second request: same object seen again (another user at the same
        // spot, same viewpoint) — must hit.
        let p2 = client.prepare(&recog_req(3, 100));
        match edge.handle_query(&p2.descriptor, None, 1) {
            EdgeReply::Hit(TaskResult::Recognition(r)) => assert_eq!(r.label, 3),
            other => panic!("expected Hit, got {other:?}"),
        }
        assert_eq!(edge.recog_metrics().hits, 1);
    }

    #[test]
    fn typed_lookup_reports_hit_kind() {
        let (client, edge, cloud) = setup();
        let p = client.prepare(&recog_req(4, 77));
        assert_eq!(edge.lookup(&p.descriptor, 0), Lookup::Miss);
        let (r, _) = cloud.execute(&p.task);
        edge.insert(&p.descriptor, &r, 0);
        match edge.lookup(&p.descriptor, 1) {
            Lookup::ApproxHit { value, distance } => {
                assert!(distance >= 0.0);
                assert!(matches!(value, TaskResult::Recognition(_)));
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
        edge.insert(&pp.descriptor, &pr, 0);
        assert!(matches!(
            edge.lookup(&pp.descriptor, 1),
            Lookup::ExactHit(TaskResult::Panorama(_))
        ));
    }

    #[test]
    fn nearby_views_usually_hit() {
        // The statistical property Fig 2a depends on: most re-observations
        // of a cached object from a jittered viewpoint land within the
        // threshold.
        let (client, edge, cloud) = setup();
        let p1 = client.prepare(&recog_req(5, 1000));
        let (r1, _) = cloud.execute(&p1.task);
        edge.insert(&p1.descriptor, &r1, 0);
        let mut hits = 0;
        let n = 30;
        for seed in 0..n {
            let p = client.prepare(&recog_req(5, 2000 + seed));
            if matches!(edge.handle_query(&p.descriptor, None, 0), EdgeReply::Hit(_)) {
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
        edge.insert(&p1.descriptor, &r1, 0);
        let p2 = client.prepare(&recog_req(2, 6));
        match edge.handle_query(&p2.descriptor, None, 0) {
            EdgeReply::NeedPayload => {}
            other => panic!("expected miss for a different class, got {other:?}"),
        }
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
        // Miss with hint → forward.
        let fwd = match edge.handle_query(&p.descriptor, Some(&p.task), 0) {
            EdgeReply::Forward(t) => t,
            other => panic!("expected Forward, got {other:?}"),
        };
        let (result, _) = cloud.execute(&fwd);
        match &result {
            TaskResult::Model(bytes) => {
                // The model is genuinely loadable.
                coic_render::load_cmf(bytes).unwrap();
            }
            other => panic!("expected Model, got {other:?}"),
        }
        edge.insert(&p.descriptor, &result, 0);
        // Same model requested by another user: exact hit.
        match edge.handle_query(&p.descriptor, Some(&p.task), 1) {
            EdgeReply::Hit(TaskResult::Model(_)) => {}
            other => panic!("expected Hit, got {other:?}"),
        }
        assert_eq!(edge.exact_metrics().hits, 1);
        // The peer-query entry points see the same entry.
        assert!(edge.exact_contains(&digest, 1));
        assert_eq!(edge.exact_lookup(&digest, 2), Some(result));
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
        let fwd = match edge.handle_query(&p.descriptor, Some(&p.task), 0) {
            EdgeReply::Forward(t) => t,
            other => panic!("expected Forward, got {other:?}"),
        };
        let (result, cost) = cloud.execute(&fwd);
        assert_eq!(cost, ComputeConfig::default().pano_render_ns);
        edge.insert(&p.descriptor, &result, 0);
        match edge.handle_query(&p.descriptor, Some(&p.task), 1) {
            EdgeReply::Hit(TaskResult::Panorama(b)) => assert_eq!(b.len(), 128 * 64),
            other => panic!("expected Hit, got {other:?}"),
        }
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
        let edge = EdgeService::new(
            &EdgeConfig {
                exact_ttl_ms: Some(100),
                ..EdgeConfig::default()
            },
            1,
        );
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
        let fwd = match edge.handle_query(&p.descriptor, Some(&p.task), 0) {
            EdgeReply::Forward(t) => t,
            other => panic!("expected Forward, got {other:?}"),
        };
        let (result, _) = cloud.execute(&fwd);
        edge.insert(&p.descriptor, &result, 0);
        // Within TTL: hit. After TTL (100 ms = 1e8 ns): miss again.
        assert!(matches!(
            edge.handle_query(&p.descriptor, Some(&p.task), 50_000_000),
            EdgeReply::Hit(_)
        ));
        assert!(matches!(
            edge.handle_query(&p.descriptor, Some(&p.task), 150_000_000),
            EdgeReply::Forward(_)
        ));
        assert!(!edge.exact_contains(&descriptor_digest(&p.descriptor).unwrap(), 150_000_000));
        // The read path only reports the stale entry absent; the next
        // write replays the queued hit, finds it expired and drops it.
        edge.insert(&p.descriptor, &result, 150_000_000);
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
        let _ = edge.handle_query(&p.descriptor, None, 0); // miss
        let (r, _) = cloud.execute(&p.task);
        edge.insert(&p.descriptor, &r, 0);
        let p2 = client.prepare(&recog_req(0, 1));
        let _ = edge.handle_query(&p2.descriptor, None, 0); // hit
        assert!((edge.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn exact_shard_labels_stay_in_range() {
        let (_, edge, _) = setup();
        assert_eq!(edge.shard_count(), 4);
        for tag in 0..32u8 {
            assert!(edge.exact_shard_of(&Digest::of(&[tag])) < edge.shard_count());
        }
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
            edge.insert(&d, &r, i);
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
        edge.insert(
            &FeatureDescriptor::PanoramaHash(digest),
            &TaskResult::Panorama(bytes::Bytes::from(vec![1u8; 64])),
            0,
        );
        let hits = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        matches!(
                            edge.handle_query(&FeatureDescriptor::PanoramaHash(digest), None, 1),
                            EdgeReply::Hit(_)
                        )
                    })
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
        edge.insert(&d, &r, 0);
    }
}
