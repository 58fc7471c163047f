//! The live stack under test (cloud, edge and clients on loopback, in this
//! process), the reply check, and the closed-loop load generator.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use coic_cache::{
    Digest, ShardedExactCache, SnapshotApproxCache, DEFAULT_REBUILD_BATCH, DEFAULT_SHARDS,
};
use coic_core::compute::ComputeConfig;
use coic_core::content::{ModelLibrary, PanoLibrary};
use coic_core::netrun::{
    spawn_cloud, spawn_edge_with, CloudHandle, EdgeHandle, NetClient, NetConfig,
};
use coic_core::protocol::Msg;
use coic_core::qoe::Path;
use coic_core::services::{ClientConfig, ClientLogic, CloudService, EdgeConfig, PreparedRequest};
use coic_core::task::{RecognitionResult, TaskRequest, TaskResult};
use coic_vision::{ObjectClass, SceneGenerator};
use coic_workload::{Request, RequestKind};

use crate::inputs::RECOG_CLASSES;
use crate::stats::Sample;

/// Camera frame side the clients capture and the cloud trains on.
pub const IMAGE_SIDE: u32 = 64;
/// Seed the cloud trains its classifier with. The classifier is part of the
/// system, not of a workload's inputs, so it does not follow `--seed`.
pub const CLOUD_SEED: u64 = 7;

/// A content library. The clients and the reply check share one, as an app
/// and its manifest do; the cloud has its own, so that content a client
/// has only named still has to be generated when the cloud is first asked
/// for it.
#[derive(Clone)]
pub struct Content {
    pub models: Arc<ModelLibrary>,
    pub panos: Arc<PanoLibrary>,
}

impl Content {
    pub fn new(pano_height: u32) -> Content {
        Content {
            models: Arc::new(ModelLibrary::new()),
            panos: Arc::new(PanoLibrary::new(pano_height)),
        }
    }

    /// Client-side preprocessing over this library, configured as the
    /// clients are.
    pub fn client_logic(&self) -> ClientLogic {
        ClientLogic::new(
            ClientConfig::default(),
            ComputeConfig::default(),
            self.models.clone(),
            self.panos.clone(),
        )
    }

    /// A cloud service over this library, trained as the live cloud is.
    pub fn cloud_service(&self) -> CloudService {
        CloudService::new(
            &landmark_classes(),
            &SceneGenerator::new(IMAGE_SIDE),
            ComputeConfig::default(),
            self.models.clone(),
            self.panos.clone(),
            CLOUD_SEED,
        )
    }
}

/// The query a client sends for a prepared request: a small task rides along
/// as the hint, a recognition's camera frame does not (the edge asks for it
/// with `NeedPayload` on a miss).
pub fn query(req_id: u64, prepared: &PreparedRequest) -> Msg {
    Msg::Query {
        req_id,
        descriptor: prepared.descriptor.clone(),
        hint: match &prepared.task {
            TaskRequest::Recognition { .. } => None,
            small => Some(small.clone()),
        },
    }
}

/// The edge's two caches, built from its configuration as the live edge
/// builds them.
pub fn edge_caches(
    edge: &EdgeConfig,
) -> (
    ShardedExactCache<TaskResult>,
    SnapshotApproxCache<RecognitionResult>,
) {
    (
        ShardedExactCache::new(edge.exact_cache_bytes, edge.policy, None, DEFAULT_SHARDS),
        SnapshotApproxCache::new(
            edge.recog_cache_bytes,
            edge.threshold,
            edge.index.ann_family(),
            edge.embedding_dim,
            DEFAULT_REBUILD_BATCH,
        ),
    )
}

/// A running cloud and edge. Dropping it stops both and joins their accept
/// threads.
pub struct Stack {
    /// Held for its lifetime: dropping the handle stops the cloud.
    _cloud: CloudHandle,
    pub edge: EdgeHandle,
    pub content: Content,
}

pub fn landmark_classes() -> Vec<ObjectClass> {
    (0..RECOG_CLASSES).map(ObjectClass).collect()
}

impl Stack {
    /// Spawn cloud and edge on ephemeral loopback ports. The edge runs
    /// whatever `NetConfig::builder().build()` gives, changed only by
    /// `net`, so the benchmark follows the shipped default driver.
    pub fn spawn(
        edge_cfg: &EdgeConfig,
        pano_height: u32,
        net: NetConfig,
    ) -> std::io::Result<Stack> {
        let content = Content::new(pano_height);
        let origin = Content::new(pano_height);
        let cloud = spawn_cloud(
            &landmark_classes(),
            IMAGE_SIDE,
            ComputeConfig::default(),
            origin.models,
            origin.panos,
            CLOUD_SEED,
        )?;
        let edge = spawn_edge_with(cloud.addr(), edge_cfg, net, None)?;
        Ok(Stack {
            _cloud: cloud,
            edge,
            content,
        })
    }

    /// A blocking client of the edge with no origin fallback: a refusal is
    /// a failed request, never a silent detour.
    pub fn client(&self) -> std::io::Result<NetClient> {
        NetClient::connect_with(
            self.edge.addr(),
            None,
            NetConfig::builder().build(),
            ClientConfig::default(),
            ComputeConfig::default(),
            self.content.models.clone(),
            self.content.panos.clone(),
        )
    }
}

/// What the reply check found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The payload equals the library's content with this digest.
    Exact(Digest),
    /// A recognition label; `true` when it is the ground-truth class.
    Label(bool),
    /// Wrong kind of result or wrong payload.
    Wrong,
}

/// Check a result against the request's ground truth. The library's digest
/// is the digest of the library's bytes, so comparing the bytes checks the
/// digest without hashing a megabyte inside the timed path.
pub fn verify(content: &Content, req: &Request, result: &TaskResult) -> Verdict {
    let exact = |(bytes, digest): (bytes::Bytes, Digest), got: &bytes::Bytes| {
        if bytes == *got {
            Verdict::Exact(digest)
        } else {
            Verdict::Wrong
        }
    };
    match (req.kind, result) {
        (
            RequestKind::RenderLoad {
                model_id,
                size_bytes,
            },
            TaskResult::Model(got),
        ) => exact(content.models.get(model_id, size_bytes), got),
        (RequestKind::Panorama { frame_id }, TaskResult::Panorama(got)) => {
            exact(content.panos.get(frame_id), got)
        }
        (RequestKind::Recognition { class, .. }, TaskResult::Recognition(r)) => {
            Verdict::Label(r.label == class)
        }
        _ => Verdict::Wrong,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a fold of requests and their checked replies, in request order. A
/// payload is folded as the digest it was checked against, so a hit and a
/// miss that carry the same bytes fold alike; a recognition reply folds as
/// its kind only, since which neighbour an approximate hit returns depends
/// on how two clients interleave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ledger(pub u64);

impl Default for Ledger {
    fn default() -> Ledger {
        Ledger(FNV_OFFSET)
    }
}

impl Ledger {
    pub fn fold_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn fold(&mut self, index: u64, request: &Request, verdict: Option<Verdict>) {
        self.fold_bytes(&index.to_be_bytes());
        let (kind, a, b) = match request.kind {
            RequestKind::Recognition { class, view_seed } => (0u8, u64::from(class), view_seed),
            RequestKind::RenderLoad {
                model_id,
                size_bytes,
            } => (1, model_id, size_bytes),
            RequestKind::Panorama { frame_id } => (2, frame_id, 0),
        };
        self.fold_bytes(&[kind]);
        self.fold_bytes(&a.to_be_bytes());
        self.fold_bytes(&b.to_be_bytes());
        match verdict {
            Some(Verdict::Exact(d)) => self.fold_bytes(d.as_bytes()),
            Some(Verdict::Label(_)) => self.fold_bytes(b"label"),
            Some(Verdict::Wrong) => self.fold_bytes(b"wrong"),
            None => self.fold_bytes(b"failed"),
        }
    }
}

/// Counts every load generator keeps besides its latency samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    /// Errors, refusals, deadline misses and wrong payloads.
    pub failed: u64,
    /// Correct answers served from an edge cache (own or a peer's).
    pub hits: u64,
    pub recognitions: u64,
    pub recognitions_correct: u64,
    pub retries: u64,
}

impl Tally {
    pub fn correct(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.hits += other.hits;
        self.recognitions += other.recognitions;
        self.recognitions_correct += other.recognitions_correct;
        self.retries += other.retries;
    }

    /// Count one checked reply. A mislabelled recognition is an answer (it
    /// lowers `accuracy`), not a failure.
    pub fn count(&mut self, verdict: Verdict, hit: bool) {
        self.attempted += 1;
        match verdict {
            Verdict::Wrong => {
                self.failed += 1;
                return;
            }
            Verdict::Label(ok) => {
                self.recognitions += 1;
                self.recognitions_correct += u64::from(ok);
            }
            Verdict::Exact(_) => {}
        }
        self.hits += u64::from(hit);
    }

    pub fn count_failure(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }
}

/// Everything a timed run produced.
#[derive(Debug, Default)]
pub struct Measured {
    pub samples: Vec<Sample>,
    pub tally: Tally,
    pub ledger: Ledger,
    /// Length of the timed run, nanoseconds.
    pub wall_ns: u64,
    /// How late the open-loop generator sent each request, nanoseconds.
    pub late_ns: Vec<u64>,
    /// Requests that completed within the open loop's latency limit.
    pub within_limit: u64,
    /// [`peak_rss_mb`] when the timed run ended.
    pub peak_rss_mb: f64,
}

/// Peak resident set of this process (`VmHWM`) less the latency log the
/// harness has itself written by then (`logged` samples), MB. The log grows
/// with the number of requests a run gets through: left in, it is two
/// thirds of `hit_small`'s resident set, and a faster edge would read as a
/// fatter one.
pub fn peak_rss_mb(logged: usize) -> f64 {
    let hwm_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    let log_kb = (logged * std::mem::size_of::<Sample>()) as f64 / 1024.0;
    (hwm_kb - log_kb) / 1024.0
}

/// When a closed-loop client stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many requests (exact-repeat runs).
    Ops(u64),
    /// When the timed run is this old.
    After(Duration),
}

/// Run `requests` through `client` untimed, counting failures.
pub fn warm_up(client: &mut NetClient, content: &Content, requests: &[Request]) -> Tally {
    let mut tally = Tally::default();
    for req in requests {
        match client.execute(req) {
            Ok(out) => tally.count(verify(content, req, &out.result), false),
            Err(_) => tally.count_failure(),
        }
    }
    tally
}

struct ClientLog {
    samples: Vec<Sample>,
    tally: Tally,
    ledger: Ledger,
    end_ns: u64,
}

/// Requests a client sends before it hangs up and connects afresh. A
/// `NetClient` keeps a QoE record of every request it ever sent; without an
/// end to its session, `peak_rss_mb` would measure how many requests the run
/// got through.
const SESSION_REQUESTS: usize = 8_192;

/// One client's closed loop: latency runs from `NetClient::execute` entry
/// to the checked result, so preprocessing, both round trips of a
/// recognition miss and retries are inside it.
fn drive(
    client: &mut NetClient,
    stack: &Stack,
    stream: &[Request],
    stop: Stop,
    epoch: Instant,
) -> ClientLog {
    let content = &stack.content;
    let mut log = ClientLog {
        // Room for every sample up front: a vector that doubles as it grows
        // makes `peak_rss_mb` jump by megabytes when a faster run crosses a
        // power of two. Untouched capacity is not resident.
        samples: Vec::with_capacity(1 << 21),
        tally: Tally::default(),
        ledger: Ledger::default(),
        end_ns: 0,
    };
    for (i, req) in stream.iter().cycle().enumerate() {
        if i > 0 && i % SESSION_REQUESTS == 0 {
            // A session that cannot be renewed carries on with the old one.
            if let Ok(fresh) = stack.client() {
                *client = fresh;
            }
        }
        let begun = Instant::now();
        match stop {
            Stop::Ops(n) if i as u64 >= n => break,
            Stop::After(d) if begun.duration_since(epoch) >= d => break,
            _ => {}
        }
        let verdict = match client.execute(req) {
            Ok(out) => {
                let verdict = verify(content, req, &out.result);
                let done = Instant::now();
                log.tally
                    .count(verdict, matches!(out.path, Path::EdgeHit | Path::PeerHit));
                log.tally.retries += u64::from(out.retries);
                if verdict != Verdict::Wrong {
                    log.samples.push(Sample::new(
                        done.duration_since(epoch).as_nanos() as u64,
                        done.duration_since(begun).as_nanos() as u64,
                    ));
                }
                Some(verdict)
            }
            Err(_) => {
                log.tally.count_failure();
                None
            }
        };
        log.ledger.fold(i as u64, req, verdict);
    }
    log.end_ns = epoch.elapsed().as_nanos() as u64;
    log
}

/// Drive one stream per client, each on its own thread and connection,
/// from a common start.
pub fn run_closed(
    clients: &mut [NetClient],
    stack: &Stack,
    streams: &[Vec<Request>],
    stop: Stop,
) -> Measured {
    let barrier = Barrier::new(clients.len() + 1);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .map(|(client, stream)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    // Every thread reads the clock right after the barrier;
                    // the few microseconds between their epochs are far
                    // below a slice of the run.
                    drive(client, stack, stream, stop, Instant::now())
                })
            })
            .collect();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let logged = logs.iter().map(|l| l.samples.len()).sum();
    let mut out = Measured {
        // Read before the logs are merged: the copy is the harness's too.
        peak_rss_mb: peak_rss_mb(logged),
        ..Measured::default()
    };
    out.samples.reserve_exact(logged);
    for log in logs {
        out.samples.extend(log.samples);
        out.tally.add(&log.tally);
        out.ledger.fold_bytes(&log.ledger.0.to_be_bytes());
        out.wall_ns = out.wall_ns.max(log.end_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use coic_core::task::RecognitionResult;
    use coic_workload::{UserId, ZoneId};

    fn req(kind: RequestKind) -> Request {
        Request {
            user: UserId(0),
            zone: ZoneId(0),
            at_ns: 0,
            kind,
        }
    }

    #[test]
    fn verify_accepts_library_content_and_nothing_else() {
        let content = Content::new(64);
        let pano = req(RequestKind::Panorama { frame_id: 3 });
        let (bytes, digest) = content.panos.get(3);
        assert_eq!(
            verify(&content, &pano, &TaskResult::Panorama(bytes.clone())),
            Verdict::Exact(digest)
        );
        let other = content.panos.get(4).0;
        assert_eq!(
            verify(&content, &pano, &TaskResult::Panorama(other)),
            Verdict::Wrong
        );
        // Right bytes under the wrong kind are wrong too.
        assert_eq!(
            verify(&content, &pano, &TaskResult::Model(bytes)),
            Verdict::Wrong
        );
        let recog = req(RequestKind::Recognition {
            class: 5,
            view_seed: 1,
        });
        let label = |label| {
            TaskResult::Recognition(RecognitionResult {
                label,
                distance: 0.0,
            })
        };
        assert_eq!(verify(&content, &recog, &label(5)), Verdict::Label(true));
        assert_eq!(verify(&content, &recog, &label(6)), Verdict::Label(false));
    }

    #[test]
    fn tally_counts_a_mislabel_as_an_answer_and_a_wrong_payload_as_a_failure() {
        let mut t = Tally::default();
        t.count(Verdict::Exact(Digest::of(b"x")), true);
        t.count(Verdict::Label(false), true);
        t.count(Verdict::Wrong, true);
        t.count_failure();
        assert_eq!((t.attempted, t.failed, t.hits), (4, 2, 2));
        assert_eq!((t.recognitions, t.recognitions_correct), (1, 0));
        assert_eq!(t.correct(), 2);
    }

    #[test]
    fn ledger_ignores_which_label_came_back_but_not_which_payload() {
        let recog = |view_seed| {
            req(RequestKind::Recognition {
                class: 1,
                view_seed,
            })
        };
        let fold_of = |r: &Request, v| {
            let mut l = Ledger::default();
            l.fold(0, r, Some(v));
            l
        };
        let fold = |v| fold_of(&recog(1), v);
        // The request itself is part of the ledger.
        assert_ne!(
            fold_of(&recog(1), Verdict::Label(true)),
            fold_of(&recog(2), Verdict::Label(true))
        );
        assert_eq!(fold(Verdict::Label(true)), fold(Verdict::Label(false)));
        assert_ne!(
            fold(Verdict::Exact(Digest::of(b"a"))),
            fold(Verdict::Exact(Digest::of(b"b")))
        );
        assert_ne!(fold(Verdict::Label(true)), fold(Verdict::Wrong));
    }
}
