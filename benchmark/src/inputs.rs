//! Seeded inputs. Every request the programs receive is generated here from
//! `--seed`: the same seed gives the same streams, schedule and traces, and
//! a different seed addresses different content.

use coic_core::cluster::ClusterConfig;
use coic_core::services::EdgeConfig;
use coic_core::simrun::SimConfig;
use coic_workload::{
    ArenaMultiplayer, ArrivalProcess, Poisson, Population, Request, RequestKind, SafeDrivingAr,
    UserId, Zipf, ZoneId, ZoneModel,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::spec::{CLIENTS, MIX_OPEN_RATE_RPS};

/// Panorama frame height (`PanoLibrary::new(64)`: 128 x 64 one-byte pixels,
/// 8 KB a frame) of every workload but `hit_small`.
pub const PANO_HEIGHT: u32 = 64;
/// `hit_small` frames are 32 x 16 pixels, 512 B: at 8 KB the CRC of the
/// reply alone is a third of the round trip, and the workload exists to
/// show the cost of a message, not of its bytes.
const HIT_SMALL_PANO_HEIGHT: u32 = 64;
/// Landmark classes of the recognition workloads.
pub const RECOG_CLASSES: u32 = 100;
/// Seed of the landmarks' popularity order, as `fig2a` fixes it: which
/// landmark is popular belongs to the place, and `--seed` varies who looks
/// at it, when and from where.
const LANDMARK_SEED: u64 = 3;

const HIT_SMALL_POOL: u64 = 16;
const PAYLOAD_LARGE_MODELS: u64 = 8;
const PAYLOAD_LARGE_BYTES: u64 = 1_000_000;
const RECOG_WARMUP: usize = 1_000;
const MISS_CHURN_BYTES: u64 = 100_000;
/// Cold ids each `miss_churn` client cycles through; with two clients the
/// working set is 400 models of 100 kB against an 8 MiB cache.
const MISS_CHURN_COLD: u64 = 200;
/// Every eighth `miss_churn` request asks for the client's one hot model.
const MISS_CHURN_HOT_EVERY: usize = 8;
const MIX_PANO_WINDOW: u64 = 64;
/// The `mix_open` panorama window slides one frame every this many
/// panorama requests, so about one in eight of them is a first touch.
const MIX_PANO_SLIDE_EVERY: u64 = 8;
const MIX_MODELS: u64 = 12;
const MIX_RECOG_WARMUP: usize = 300;
const SIM_TRACES: u64 = 8;
const SIM_REQUESTS: usize = 2_000;

/// What one workload runs.
pub enum Plan {
    /// Each client sends its next request when the previous one completed.
    /// A client that runs out of stream starts it again.
    Closed {
        warmup: Vec<Request>,
        streams: Vec<Vec<Request>>,
    },
    /// Requests are due on a schedule (nanoseconds from the start of the
    /// timed run), whether or not earlier ones completed.
    Open {
        warmup: Vec<Request>,
        schedule: Vec<(u64, Request)>,
    },
    /// Each operation is one `simrun::run` of the next trace, in turn.
    Sim {
        traces: Vec<Vec<Request>>,
        config: Box<SimConfig>,
    },
}

pub struct Inputs {
    pub plan: Plan,
    /// Edge configuration the live workloads spawn with.
    pub edge: EdgeConfig,
    /// Height of the panorama frames the content library makes.
    pub pano_height: u32,
    /// Requests generated, for `workload.gen_ns_per_req`.
    pub generated: usize,
}

fn request(user: u32, kind: RequestKind) -> Request {
    Request {
        user: UserId(user),
        zone: ZoneId(0),
        at_ns: 0,
        kind,
    }
}

/// First content id of a seed: seeds address disjoint content.
fn content_base(seed: u64) -> u64 {
    (seed % 1_000_000) * 10_000
}

fn pano(user: u32, frame_id: u64) -> Request {
    request(user, RequestKind::Panorama { frame_id })
}

fn model(user: u32, model_id: u64, size_bytes: u64) -> Request {
    request(
        user,
        RequestKind::RenderLoad {
            model_id,
            size_bytes,
        },
    )
}

/// `len` uniform draws from `pool` per client.
fn uniform_streams(seed: u64, len: usize, pool: &[Request]) -> Vec<Vec<Request>> {
    (0..CLIENTS)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x9e37_79b9 * (c as u64 + 1)));
            (0..len)
                .map(|_| {
                    let mut r = pool[rng.random_range(0..pool.len())];
                    r.user = UserId(c as u32);
                    r
                })
                .collect()
        })
        .collect()
}

fn recognition_trace(seed: u64, users: u32, total: usize) -> Vec<Request> {
    SafeDrivingAr {
        population: Population::colocated(users, ZoneId(0)),
        zones: ZoneModel::new(1, RECOG_CLASSES, 1.0, LANDMARK_SEED),
        rate_per_sec: 4.0,
        zipf_s: 0.5,
        total_requests: total,
    }
    .generate(seed)
}

fn hit_small(seed: u64) -> Plan {
    let base = content_base(seed);
    let pool: Vec<Request> = (0..HIT_SMALL_POOL).map(|k| pano(0, base + k)).collect();
    Plan::Closed {
        streams: uniform_streams(seed, 8_192, &pool),
        warmup: pool,
    }
}

fn payload_large(seed: u64) -> Plan {
    let base = content_base(seed);
    let pool: Vec<Request> = (0..PAYLOAD_LARGE_MODELS)
        .map(|k| model(0, base + k, PAYLOAD_LARGE_BYTES))
        .collect();
    Plan::Closed {
        streams: uniform_streams(seed, 512, &pool),
        warmup: pool,
    }
}

fn recog_shared(seed: u64) -> Plan {
    let mut trace = recognition_trace(seed, CLIENTS as u32, RECOG_WARMUP + 40_000);
    let rest = trace.split_off(RECOG_WARMUP);
    let streams = (0..CLIENTS as u32)
        .map(|c| rest.iter().filter(|r| r.user.0 == c).copied().collect())
        .collect();
    Plan::Closed {
        warmup: trace,
        streams,
    }
}

fn miss_churn(seed: u64) -> Plan {
    let base = content_base(seed);
    let cold = |c: u64, k: u64| model(c as u32, base + c * MISS_CHURN_COLD + k, MISS_CHURN_BYTES);
    let hot = |c: u64| model(c as u32, base + 5_000 + c, MISS_CHURN_BYTES);
    let clients = CLIENTS as u64;
    // One pass over every id fills the cloud's model library and leaves the
    // cache full and evicting; the hot models go last so they start cached.
    let warmup = (0..clients)
        .flat_map(|c| (0..MISS_CHURN_COLD).map(move |k| (c, k)))
        .map(|(c, k)| cold(c, k))
        .chain((0..clients).map(hot))
        .collect();
    // Clients ask for disjoint ids, so no two misses ever coalesce and the
    // insert count of a fixed-length run repeats exactly.
    // 200 groups of seven cold ids and the hot one: the cold ids go round
    // exactly seven times, so the stream can repeat without a seam.
    let cycle = MISS_CHURN_COLD as usize * MISS_CHURN_HOT_EVERY;
    let streams = (0..clients)
        .map(|c| {
            let mut k = 0u64;
            (0..cycle)
                .map(|j| {
                    if j % MISS_CHURN_HOT_EVERY == MISS_CHURN_HOT_EVERY - 1 {
                        hot(c)
                    } else {
                        k += 1;
                        cold(c, (k - 1) % MISS_CHURN_COLD)
                    }
                })
                .collect()
        })
        .collect();
    Plan::Closed { warmup, streams }
}

/// Sizes of the `mix_open` models: 100 kB to 1 MB in equal steps.
fn mix_model_bytes(k: u64) -> u64 {
    100_000 + k * 900_000 / (MIX_MODELS - 1)
}

/// Arrival times of a Poisson process at `rate_per_sec`, nanoseconds from
/// zero, until `horizon_ns`.
pub fn poisson_schedule(seed: u64, rate_per_sec: f64, horizon_ns: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals = Poisson::new(rate_per_sec);
    let mut due = Vec::new();
    let mut t = arrivals.next_gap_ns(&mut rng);
    while t < horizon_ns {
        due.push(t);
        t += arrivals.next_gap_ns(&mut rng);
    }
    due
}

/// The first panorama window of a `mix_open` epoch: what a warm-up loads.
pub fn mix_window(seed: u64, epoch: u64) -> Vec<Request> {
    let first = content_base(seed) + epoch * 1_000;
    (0..MIX_PANO_WINDOW).map(|k| pano(0, first + k)).collect()
}

/// The three paper apps on one schedule: 60 % panoramas over a sliding
/// window, 25 % recognition, 15 % models. Epoch 0 is the timed run; the
/// traced run's further schedules take other epochs, which watch other
/// panorama frames from other viewpoints but load the same models.
pub fn mix_schedule(
    seed: u64,
    epoch: u64,
    rate_per_sec: f64,
    horizon_ns: u64,
) -> Vec<(u64, Request)> {
    let base = content_base(seed);
    let mixed = seed ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let due = poisson_schedule(mixed, rate_per_sec, horizon_ns);
    let mut rng = StdRng::seed_from_u64(mixed ^ 0x6d69_785f_6f70_656e);
    let landmarks = ZoneModel::new(1, RECOG_CLASSES, 1.0, LANDMARK_SEED);
    let landmark_rank = Zipf::new(RECOG_CLASSES as usize, 0.5);
    let model_rank = Zipf::new(MIX_MODELS as usize, 0.9);
    let mut panos_sent = 0u64;
    due.into_iter()
        .map(|t| {
            let u: f64 = rng.random();
            let req = if u < 0.60 {
                let start = epoch * 1_000 + panos_sent / MIX_PANO_SLIDE_EVERY;
                panos_sent += 1;
                pano(0, base + start + rng.random_range(0..MIX_PANO_WINDOW))
            } else if u < 0.85 {
                request(
                    0,
                    RequestKind::Recognition {
                        class: landmarks.pool(ZoneId(0))[landmark_rank.sample(&mut rng)] as u32,
                        view_seed: rng.random(),
                    },
                )
            } else {
                let k = model_rank.sample(&mut rng) as u64;
                model(0, base + k, mix_model_bytes(k))
            };
            (t, req)
        })
        .collect()
}

/// The warm-up loads every model, the first panorama window and 300
/// recognitions.
fn mix_open(seed: u64, horizon_ns: u64) -> Plan {
    let base = content_base(seed);
    let warmup = (0..MIX_MODELS)
        .map(|k| model(0, base + k, mix_model_bytes(k)))
        .chain(mix_window(seed, 0))
        .chain(recognition_trace(seed ^ 1, 1, MIX_RECOG_WARMUP))
        .collect();
    Plan::Open {
        warmup,
        schedule: mix_schedule(seed, 0, MIX_OPEN_RATE_RPS, horizon_ns),
    }
}

/// The CI `cluster-smoke` scenario: 32 users in 16 zones ask 16 edges for
/// 24 Zipf-1.1 models, ring probes of fan-out 3, hot replication at 2.
/// Models are 20 kB: `simrun::run` builds its own model library, and at
/// the CLI's 2 MB that generation would be 95 % of every run.
fn sim_replay(seed: u64) -> Plan {
    let base = content_base(seed);
    let traces = (0..SIM_TRACES)
        .map(|k| {
            ArenaMultiplayer {
                population: Population::round_robin(32, 16),
                models: (0..24).map(|i| (base + i, 20 * 1024)).collect(),
                zipf_s: 1.1,
                rate_per_sec: 1.0,
                total_requests: SIM_REQUESTS,
            }
            .generate(seed * SIM_TRACES + k)
        })
        .collect();
    let config = SimConfig::builder()
        .num_clients(32)
        .num_edges(16)
        .seed(seed)
        .cluster(ClusterConfig {
            peer_fanout: 3,
            replicate_hot: 2,
            ..ClusterConfig::default()
        })
        .build();
    Plan::Sim {
        traces,
        config: Box::new(config),
    }
}

/// Generate the inputs of `workload`. `horizon_ns` is the length of the
/// timed run, which only the open-loop schedule depends on.
pub fn generate(workload: &str, seed: u64, horizon_ns: u64) -> Inputs {
    let mut edge = EdgeConfig::default();
    let mut pano_height = PANO_HEIGHT;
    let plan = match workload {
        "hit_small" => {
            pano_height = HIT_SMALL_PANO_HEIGHT;
            hit_small(seed)
        }
        "payload_large" => payload_large(seed),
        "recog_shared" => recog_shared(seed),
        "miss_churn" => {
            edge.exact_cache_bytes = 8 * 1024 * 1024;
            miss_churn(seed)
        }
        "mix_open" => mix_open(seed, horizon_ns),
        "sim_replay" => sim_replay(seed),
        other => panic!("unknown workload {other}"),
    };
    let generated = match &plan {
        Plan::Closed { warmup, streams } => {
            warmup.len() + streams.iter().map(Vec::len).sum::<usize>()
        }
        Plan::Open { warmup, schedule } => warmup.len() + schedule.len(),
        Plan::Sim { traces, .. } => traces.iter().map(Vec::len).sum(),
    };
    Inputs {
        plan,
        edge,
        pano_height,
        generated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(workload: &str, seed: u64) -> String {
        match generate(workload, seed, 500_000_000).plan {
            Plan::Closed { warmup, streams } => format!("{warmup:?}{streams:?}"),
            Plan::Open { warmup, schedule } => format!("{warmup:?}{schedule:?}"),
            Plan::Sim { traces, .. } => format!("{traces:?}"),
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_others() {
        for w in crate::spec::WORKLOADS {
            assert_eq!(fingerprint(w.name, 7), fingerprint(w.name, 7), "{}", w.name);
            assert_ne!(fingerprint(w.name, 7), fingerprint(w.name, 8), "{}", w.name);
        }
    }

    #[test]
    fn poisson_schedule_repeats_and_keeps_its_rate() {
        let a = poisson_schedule(3, 1_000.0, 2_000_000_000);
        assert_eq!(a, poisson_schedule(3, 1_000.0, 2_000_000_000));
        assert_ne!(a, poisson_schedule(4, 1_000.0, 2_000_000_000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 2_000_000_000));
        // 2000 expected, standard deviation about 45.
        assert!((1_750..2_250).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn miss_churn_clients_share_no_id_and_ask_for_the_hot_one_every_eighth() {
        let Plan::Closed { warmup, streams } = miss_churn(7) else {
            unreachable!()
        };
        assert_eq!(warmup.len(), 402);
        let ids = |s: &[Request]| -> std::collections::BTreeSet<u64> {
            s.iter()
                .map(|r| match r.kind {
                    RequestKind::RenderLoad { model_id, .. } => model_id,
                    _ => unreachable!(),
                })
                .collect()
        };
        assert!(ids(&streams[0]).is_disjoint(&ids(&streams[1])));
        assert_eq!(ids(&streams[0]).len(), 201);
        assert_eq!(streams[0].len(), 1_600);
        let hot = streams[0][7];
        assert!(streams[0].iter().skip(7).step_by(8).all(|r| *r == hot));
        assert_eq!(
            streams[0].iter().filter(|r| **r == hot).count() * 8,
            streams[0].len()
        );
    }

    #[test]
    fn mix_open_keeps_its_shares() {
        let s = mix_schedule(7, 0, 2_000.0, 4_000_000_000);
        assert_ne!(s, mix_schedule(7, 1, 2_000.0, 4_000_000_000));
        let n = s.len() as f64;
        let share =
            |f: fn(&RequestKind) -> bool| s.iter().filter(|(_, r)| f(&r.kind)).count() as f64 / n;
        assert!((share(|k| matches!(k, RequestKind::Panorama { .. })) - 0.60).abs() < 0.03);
        assert!((share(|k| matches!(k, RequestKind::Recognition { .. })) - 0.25).abs() < 0.03);
        assert!((share(|k| matches!(k, RequestKind::RenderLoad { .. })) - 0.15).abs() < 0.03);
    }
}
