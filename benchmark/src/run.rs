//! One benchmark run of one workload: set-up (repeated, timed), the timed
//! run, and the end-to-end metrics.

use std::time::{Duration, Instant};

use coic_core::netrun::{NetClient, NetConfig};

use crate::inputs::{self, Inputs, Plan};
use crate::live::{run_closed, warm_up, Measured, Stack, Stop, Tally};
use crate::open::{self, Scheduled};
use crate::sim::{self, run_sim, SimFacts};
use crate::spec::{CLIENTS, MIX_OPEN_LIMIT_US, SETUPS};
use crate::stats::{self, Sliced};

/// A workload set up and ready for its first timed request.
pub struct Ready {
    pub inputs: Inputs,
    /// The live stack; `None` for `sim_replay`.
    pub stack: Option<Stack>,
    /// Closed-loop clients, connected.
    pub clients: Vec<NetClient>,
    /// The open loop's prepared schedule.
    pub scheduled: Vec<Scheduled>,
    pub warmup: Tally,
    /// What the simulator reported for each trace during set-up.
    pub sim: SimFacts,
    /// Time spent generating the inputs, nanoseconds.
    pub gen_ns: u64,
}

/// Everything between process start and the first timed request: generate
/// the inputs, spawn cloud and edge, connect the clients, fill the caches as
/// the workload defines, and for the open loop preprocess and frame the
/// schedule; `sim_replay` replays every trace once. Client 0 sends the whole warm-up, which also moves its request
/// ids clear of client 1's (the edge keys a pending upload by id alone).
pub fn set_up(
    workload: &str,
    seed: u64,
    horizon: Duration,
    net: NetConfig,
) -> std::io::Result<Ready> {
    let begun = Instant::now();
    let inputs = inputs::generate(workload, seed, horizon.as_nanos() as u64);
    let gen_ns = begun.elapsed().as_nanos() as u64;
    let mut ready = Ready {
        stack: None,
        clients: Vec::new(),
        scheduled: Vec::new(),
        warmup: Tally::default(),
        sim: SimFacts::default(),
        gen_ns,
        inputs,
    };
    let warmup = match &ready.inputs.plan {
        Plan::Sim { traces, config } => {
            ready.sim = sim::reference(traces, config);
            return Ok(ready);
        }
        Plan::Closed { warmup, .. } | Plan::Open { warmup, .. } => warmup,
    };
    let stack = Stack::spawn(&ready.inputs.edge, ready.inputs.pano_height, net)?;
    let mut first = stack.client()?;
    ready.warmup = warm_up(&mut first, &stack.content, warmup);
    match &ready.inputs.plan {
        Plan::Closed { .. } => {
            ready.clients.push(first);
            for _ in 1..CLIENTS {
                ready.clients.push(stack.client()?);
            }
        }
        Plan::Open { schedule, .. } => {
            ready.scheduled = open::prepare(&stack.content.client_logic(), schedule);
        }
        Plan::Sim { .. } => unreachable!("returned above"),
    }
    ready.stack = Some(stack);
    Ok(ready)
}

/// Set up several times (once when `once`: a smoke run, or a traced run,
/// which reports no set-up time), tearing each earlier stack down before the
/// next, and keep the last. Returns every set-up time. There are [`SETUPS`]
/// repetitions, and more of a short set-up (up to 9, to fill about 1.5 s):
/// the median of three 0.13 s set-ups moves by half when a neighbour
/// disturbs two of them.
pub fn set_up_repeatedly(
    workload: &str,
    seed: u64,
    horizon: Duration,
    once: bool,
) -> std::io::Result<(Ready, Vec<f64>)> {
    let mut times: Vec<f64> = Vec::new();
    let mut ready = None;
    let wanted = |first: f64| ((1.5 / first).ceil() as usize).clamp(SETUPS, 9);
    while times.len()
        < times
            .first()
            .map_or(1, |&t| if once { 1 } else { wanted(t) })
    {
        drop(ready.take());
        let begun = Instant::now();
        ready = Some(set_up(
            workload,
            seed,
            horizon,
            NetConfig::builder().build(),
        )?);
        times.push(begun.elapsed().as_secs_f64());
    }
    Ok((ready.expect("at least one set-up"), times))
}

/// The timed run of a set-up workload.
pub fn timed_run(ready: &mut Ready, stop: Stop) -> std::io::Result<Measured> {
    match &ready.inputs.plan {
        Plan::Closed { streams, .. } => {
            let stack = ready.stack.as_ref().expect("closed loop has a stack");
            Ok(run_closed(&mut ready.clients, stack, streams, stop))
        }
        Plan::Open { .. } => {
            let stack = ready.stack.as_ref().expect("open loop has a stack");
            let due_by = |d: Duration| {
                ready
                    .scheduled
                    .partition_point(|s| s.due_ns < d.as_nanos() as u64)
            };
            let scheduled = match stop {
                Stop::Ops(n) => &ready.scheduled[..ready.scheduled.len().min(n as usize)],
                Stop::After(d) => &ready.scheduled[..due_by(d)],
            };
            let limit_ns = (MIX_OPEN_LIMIT_US * 1e3) as u64;
            open::run_open(stack.edge.addr(), &stack.content, scheduled, limit_ns)
        }
        Plan::Sim { traces, config } => Ok(run_sim(traces, config, &ready.sim, stop)),
    }
}

/// Requests one latency sample stands for: a `sim_replay` sample is a whole
/// simulated trace.
pub fn requests_per_sample(plan: &Plan) -> f64 {
    match plan {
        Plan::Sim { traces, .. } => traces.first().map_or(1.0, |t| t.len() as f64),
        _ => 1.0,
    }
}

/// The end-to-end metrics of one run, in `spec::END_TO_END` order.
pub struct EndToEnd {
    pub setup_s: f64,
    pub sliced: Sliced,
    pub goodput_rps: f64,
    pub peak_rss_mb: f64,
    pub hit_ratio: f64,
    pub accuracy: f64,
}

impl EndToEnd {
    pub fn values(&self) -> [f64; 6] {
        [
            self.setup_s,
            self.goodput_rps,
            self.sliced.p50_us,
            self.peak_rss_mb,
            self.hit_ratio,
            self.accuracy,
        ]
    }
}

/// Reduce a timed run. `None` when nothing was answered correctly.
pub fn end_to_end(setups: &[f64], m: &Measured, per_sample: f64) -> Option<EndToEnd> {
    let sliced = stats::sliced(&m.samples, m.wall_ns)?;
    let t = &m.tally;
    let answered = t.correct() as f64;
    Some(EndToEnd {
        setup_s: stats::median(setups)?,
        goodput_rps: sliced.rate * per_sample,
        sliced,
        peak_rss_mb: m.peak_rss_mb,
        // Answers served from an edge cache, of all answers.
        hit_ratio: t.hits as f64 / answered,
        // Answers that were the right answer: a checked payload always is,
        // a recognition label when it names the ground-truth class.
        accuracy: (t.correct() - t.recognitions + t.recognitions_correct) as f64 / answered,
    })
}
