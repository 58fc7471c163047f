//! The brownout ladder: graceful degradation for an edge under pressure.
//!
//! Three rungs, driven by the admission queue's occupancy (the
//! [`super::admission::AdmissionController::pressure`] signal):
//!
//! * **Healthy** — full service: cache lookups, peer queries, cloud
//!   forwards.
//! * **Degraded** — cheap work only: cache *hits* are still served, but
//!   misses are shed with `Msg::Overloaded` instead of spending edge
//!   compute and upstream capacity on recognition / forwarding.
//! * **Shedding** — every new request is refused with `Msg::Overloaded`
//!   and a retry-after hint, so the client's breaker/backoff machinery
//!   routes it to the cloud.
//!
//! Escalation is immediate (protection must not lag the overload);
//! de-escalation steps down one rung at a time and only after a minimum
//! dwell with pressure below the entry threshold minus a hysteresis
//! margin, so the ladder cannot flap around a threshold.
//!
//! Clock-agnostic like the rest of the engine: callers pass `now_ns`.

use std::time::Duration;

/// Where the edge currently sits on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrownoutState {
    /// Full service.
    Healthy,
    /// Cache-hits-only: misses are shed instead of forwarded.
    Degraded,
    /// Every new request is shed with a retry-after hint.
    Shedding,
}

impl BrownoutState {
    /// Stable label for telemetry events.
    pub fn as_str(&self) -> &'static str {
        match self {
            BrownoutState::Healthy => "healthy",
            BrownoutState::Degraded => "degraded",
            BrownoutState::Shedding => "shedding",
        }
    }

    /// Stable numeric encoding for the `edge.brownout_state` gauge
    /// (0 = healthy, 1 = degraded, 2 = shedding).
    pub fn as_gauge(&self) -> u64 {
        match self {
            BrownoutState::Healthy => 0,
            BrownoutState::Degraded => 1,
            BrownoutState::Shedding => 2,
        }
    }
}

/// Tuning for [`BrownoutLadder`].
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutConfig {
    /// Queue pressure at which Healthy escalates to Degraded.
    pub degraded_enter: f64,
    /// Queue pressure at which any state escalates to Shedding.
    pub shed_enter: f64,
    /// Hysteresis: a state is left downward only once pressure drops
    /// below its entry threshold minus this margin.
    pub exit_margin: f64,
    /// Minimum time spent in a state before stepping down the ladder.
    pub min_dwell: Duration,
}

impl Default for BrownoutConfig {
    fn default() -> BrownoutConfig {
        BrownoutConfig {
            degraded_enter: 0.5,
            shed_enter: 0.9,
            exit_margin: 0.25,
            min_dwell: Duration::from_millis(20),
        }
    }
}

/// The ladder's state machine. Feed it the pressure signal on every
/// admission event; it reports transitions so the caller can emit the
/// `edge.brownout_state` event exactly once per change.
#[derive(Debug)]
pub struct BrownoutLadder {
    cfg: BrownoutConfig,
    state: BrownoutState,
    entered_at_ns: u64,
}

impl BrownoutLadder {
    /// A ladder starting Healthy at time zero.
    pub fn new(cfg: BrownoutConfig) -> BrownoutLadder {
        BrownoutLadder {
            cfg,
            state: BrownoutState::Healthy,
            entered_at_ns: 0,
        }
    }

    /// Current rung.
    pub fn state(&self) -> BrownoutState {
        self.state
    }

    /// Observe the pressure signal at `now_ns`. Returns `Some(new_state)`
    /// when the ladder moved.
    pub fn observe(&mut self, pressure: f64, now_ns: u64) -> Option<BrownoutState> {
        let target = self.target_state(pressure, now_ns);
        if target == self.state {
            return None;
        }
        self.state = target;
        self.entered_at_ns = now_ns;
        Some(target)
    }

    fn target_state(&self, pressure: f64, now_ns: u64) -> BrownoutState {
        // Escalation: immediate, straight to the rung the pressure demands.
        let demanded = if pressure >= self.cfg.shed_enter {
            BrownoutState::Shedding
        } else if pressure >= self.cfg.degraded_enter {
            BrownoutState::Degraded
        } else {
            BrownoutState::Healthy
        };
        if demanded > self.state {
            return demanded;
        }
        if demanded == self.state {
            return self.state;
        }
        // De-escalation: one rung at a time, after the dwell, and only
        // once pressure clears the hysteresis band below the threshold
        // that put us here.
        let dwelled =
            now_ns.saturating_sub(self.entered_at_ns) >= self.cfg.min_dwell.as_nanos() as u64;
        if !dwelled {
            return self.state;
        }
        let exit_below = match self.state {
            BrownoutState::Shedding => self.cfg.shed_enter - self.cfg.exit_margin,
            BrownoutState::Degraded => self.cfg.degraded_enter - self.cfg.exit_margin,
            BrownoutState::Healthy => return BrownoutState::Healthy,
        };
        if pressure < exit_below {
            match self.state {
                BrownoutState::Shedding => BrownoutState::Degraded,
                _ => BrownoutState::Healthy,
            }
        } else {
            self.state
        }
    }
}

/// Verdict for one offered request, combining admission and brownout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Admitted with full service. The caller must `release` when done.
    Serve,
    /// Admitted under Degraded: serve the request only if the cache hits;
    /// on a miss, shed it (`release` the slot, reply `Msg::Overloaded`).
    ServeCachedOnly,
    /// Waiting in the bounded queue; a later [`Drain::start`] entry (or a
    /// shed) decides its fate.
    Queued,
    /// Refused: reply `Msg::Overloaded` with the hint.
    Shed {
        /// Milliseconds the client should wait before retrying the edge.
        retry_after_ms: u32,
    },
}

/// One overload-control decision produced by [`OverloadControl`]: the
/// verdict for the offered request, queued requests shed to reach it, and
/// the brownout transition (if any) the caller should record.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadDecision {
    /// What happens to the request that was just offered.
    pub verdict: Verdict,
    /// Previously queued request ids shed (aged out / evicted), oldest
    /// first. Each must be answered `Msg::Overloaded`.
    pub shed: Vec<u64>,
    /// Brownout transition triggered by this event, for telemetry.
    pub transition: Option<BrownoutState>,
}

/// The edge's complete overload-control state: an
/// [`AdmissionController`] plus an optional [`BrownoutLadder`] watching
/// its queue pressure. One sans-IO implementation shared verbatim by the
/// simulator (virtual `now_ns`) and the live edge (wall `now_ns` behind a
/// mutex).
#[derive(Debug)]
pub struct OverloadControl {
    admission: AdmissionController,
    ladder: Option<BrownoutLadder>,
}

use super::admission::{AdmissionConfig, AdmissionController, Admit, Drain};

impl OverloadControl {
    /// Build from the two configs; `brownout: None` disables the ladder
    /// (pure admission control).
    pub fn new(admission: AdmissionConfig, brownout: Option<BrownoutConfig>) -> OverloadControl {
        OverloadControl {
            admission: AdmissionController::new(admission),
            ladder: brownout.map(BrownoutLadder::new),
        }
    }

    /// Offer one request at `now_ns`.
    pub fn offer(&mut self, id: u64, now_ns: u64) -> OverloadDecision {
        if self.state() == BrownoutState::Shedding {
            self.admission.note_shed();
            let shed = self.admission.expire(now_ns);
            let transition = self.observe(now_ns);
            return OverloadDecision {
                verdict: Verdict::Shed {
                    retry_after_ms: self.admission.retry_after_ms(),
                },
                shed,
                transition,
            };
        }
        let (admit, shed) = self.admission.offer(id, now_ns);
        let transition = self.observe(now_ns);
        let verdict = match admit {
            Admit::Admitted if self.state() == BrownoutState::Degraded => Verdict::ServeCachedOnly,
            Admit::Admitted => Verdict::Serve,
            Admit::Queued => Verdict::Queued,
            Admit::Shed { retry_after_ms } => Verdict::Shed { retry_after_ms },
        };
        OverloadDecision {
            verdict,
            shed,
            transition,
        }
    }

    /// Complete one admitted request (observed sojourn `service_ns`).
    /// Returns the queue drain plus any brownout transition. Requests in
    /// [`Drain::start`] begin service now; ask [`OverloadControl::state`]
    /// whether they get full or cached-only service.
    pub fn release(&mut self, service_ns: u64, now_ns: u64) -> (Drain, Option<BrownoutState>) {
        let drain = self.admission.release(service_ns, now_ns);
        let transition = self.observe(now_ns);
        (drain, transition)
    }

    /// Record a degraded-mode cache miss that was shed (counting only; the
    /// slot is returned through [`OverloadControl::release`] as usual).
    pub fn note_shed(&mut self) {
        self.admission.note_shed();
    }

    /// Shed queued entries older than the age bound without any other
    /// admission event — the self-driven expiry a live waiter runs while
    /// it blocks, so an idle edge still ages its queue out. Returns the
    /// shed ids (oldest first) plus any brownout transition.
    pub fn expire(&mut self, now_ns: u64) -> (Vec<u64>, Option<BrownoutState>) {
        let shed = self.admission.expire(now_ns);
        let transition = self.observe(now_ns);
        (shed, transition)
    }

    /// Take a queued request out of the queue (see
    /// [`AdmissionController::withdraw`]).
    pub(crate) fn withdraw(&mut self, id: u64) {
        self.admission.withdraw(id);
    }

    fn observe(&mut self, now_ns: u64) -> Option<BrownoutState> {
        let pressure = self.admission.pressure();
        self.ladder
            .as_mut()
            .and_then(|l| l.observe(pressure, now_ns))
    }

    /// Current brownout rung (Healthy when the ladder is disabled).
    pub fn state(&self) -> BrownoutState {
        self.ladder
            .as_ref()
            .map_or(BrownoutState::Healthy, |l| l.state())
    }

    /// Retry-after hint (milliseconds) for shed replies.
    pub fn retry_after_ms(&self) -> u32 {
        self.admission.retry_after_ms()
    }

    /// The underlying admission controller (read-only view).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn ladder() -> BrownoutLadder {
        BrownoutLadder::new(BrownoutConfig {
            degraded_enter: 0.5,
            shed_enter: 0.9,
            exit_margin: 0.2,
            min_dwell: Duration::from_millis(10),
        })
    }

    #[test]
    fn escalates_immediately_and_straight_to_the_demanded_rung() {
        let mut l = ladder();
        assert_eq!(l.observe(0.1, 0), None);
        assert_eq!(l.observe(0.6, MS), Some(BrownoutState::Degraded));
        assert_eq!(l.observe(0.95, MS), Some(BrownoutState::Shedding));
        let mut fresh = ladder();
        // A pressure spike escalates Healthy → Shedding in one step.
        assert_eq!(fresh.observe(1.0, 0), Some(BrownoutState::Shedding));
    }

    #[test]
    fn deescalates_one_rung_at_a_time_after_dwell_and_hysteresis() {
        let mut l = ladder();
        l.observe(1.0, 0);
        assert_eq!(l.state(), BrownoutState::Shedding);
        // Pressure collapses instantly, but the dwell gate holds.
        assert_eq!(l.observe(0.0, 5 * MS), None);
        // After the dwell it steps to Degraded, not straight to Healthy.
        assert_eq!(l.observe(0.0, 11 * MS), Some(BrownoutState::Degraded));
        // And the Degraded dwell restarts from the transition.
        assert_eq!(l.observe(0.0, 15 * MS), None);
        assert_eq!(l.observe(0.0, 22 * MS), Some(BrownoutState::Healthy));
    }

    #[test]
    fn hysteresis_band_prevents_flapping() {
        let mut l = ladder();
        l.observe(0.6, 0);
        assert_eq!(l.state(), BrownoutState::Degraded);
        // 0.35 is below the 0.5 entry threshold but inside the 0.2
        // hysteresis band (exit requires < 0.3): no transition, ever.
        assert_eq!(l.observe(0.35, 50 * MS), None);
        assert_eq!(l.observe(0.29, 60 * MS), Some(BrownoutState::Healthy));
    }

    #[test]
    fn state_labels_and_gauges_are_stable() {
        assert_eq!(BrownoutState::Healthy.as_str(), "healthy");
        assert_eq!(BrownoutState::Degraded.as_gauge(), 1);
        assert_eq!(BrownoutState::Shedding.as_gauge(), 2);
        assert!(BrownoutState::Shedding > BrownoutState::Degraded);
    }

    fn control() -> OverloadControl {
        OverloadControl::new(
            AdmissionConfig {
                queue_limit: 4,
                max_queue_age: Duration::from_millis(50),
                min_concurrency: 1,
                max_concurrency: 2,
                initial_concurrency: 2,
                latency_target: Duration::from_millis(5),
                retry_after_ms: 30,
            },
            Some(BrownoutConfig {
                degraded_enter: 0.5,
                shed_enter: 1.0,
                exit_margin: 0.25,
                min_dwell: Duration::from_millis(10),
            }),
        )
    }

    #[test]
    fn ladder_climbs_as_the_queue_fills_and_sheds_at_the_top() {
        let mut c = control();
        assert_eq!(c.offer(1, 0).verdict, Verdict::Serve);
        assert_eq!(c.offer(2, 0).verdict, Verdict::Serve);
        assert_eq!(c.offer(3, 0).transition, None); // pressure 0.25
                                                    // Second waiter: pressure 0.5 ≥ 0.5 → Degraded.
        let d = c.offer(4, 0);
        assert_eq!(d.verdict, Verdict::Queued);
        assert_eq!(d.transition, Some(BrownoutState::Degraded));
        assert_eq!(c.offer(5, MS).transition, None); // 0.75
                                                     // Fourth waiter fills the queue: pressure 1.0 → Shedding…
        let d = c.offer(6, MS);
        assert_eq!(d.transition, Some(BrownoutState::Shedding));
        // …and the next arrival is refused outright with the hint.
        let d = c.offer(7, 2 * MS);
        assert_eq!(d.verdict, Verdict::Shed { retry_after_ms: 30 });
        assert!(d.shed.is_empty());
    }

    #[test]
    fn degraded_admissions_are_cached_only_until_pressure_clears() {
        let mut c = control();
        c.offer(1, 0);
        c.offer(2, 0);
        c.offer(3, 0);
        assert_eq!(c.offer(4, 0).transition, Some(BrownoutState::Degraded));
        // Fast releases drain the queue (limit is capped at 2, so each
        // release starts exactly one waiter, oldest first).
        let (drain, _) = c.release(MS, 2 * MS);
        assert_eq!(drain.start, vec![3]);
        assert_eq!(c.state(), BrownoutState::Degraded);
        let (drain, _) = c.release(MS, 3 * MS);
        assert_eq!(drain.start, vec![4]);
        let (drain, _) = c.release(MS, 4 * MS);
        assert!(drain.start.is_empty());
        // A slot is free but the dwell holds the ladder at Degraded: the
        // admission is cached-only.
        let d = c.offer(6, 5 * MS);
        assert_eq!(d.verdict, Verdict::ServeCachedOnly);
        // After the dwell with an empty queue the ladder steps home and
        // admissions are full-service again.
        let (_, transition) = c.release(MS, 20 * MS);
        assert_eq!(transition, Some(BrownoutState::Healthy));
        c.release(MS, 21 * MS);
        assert_eq!(c.offer(7, 22 * MS).verdict, Verdict::Serve);
    }

    #[test]
    fn control_without_ladder_is_pure_admission() {
        let mut c = OverloadControl::new(AdmissionConfig::fixed(1), None);
        assert_eq!(c.state(), BrownoutState::Healthy);
        assert_eq!(c.offer(1, 0).verdict, Verdict::Serve);
        assert_eq!(c.offer(2, 0).verdict, Verdict::Queued);
        let (drain, transition) = c.release(MS, MS);
        assert_eq!(drain.start, vec![2]);
        assert_eq!(transition, None);
        assert_eq!(c.admission().admitted_total(), 2);
    }
}
