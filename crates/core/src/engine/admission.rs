//! Admission control for an overloaded edge: a bounded request queue with
//! deterministic oldest-first shedding plus an AIMD concurrency limiter.
//!
//! Clock-agnostic like the rest of the engine: every method takes the
//! current time in nanoseconds (from a [`super::clock::Clock`]) instead of
//! reading a wall clock, so the simulator drives it under virtual time and
//! the live edge under real time through one implementation.
//!
//! The model is a single service station. At most `limit` requests are *in
//! service* at once; the limit adapts by AIMD on the observed sojourn time
//! (additive increase while completions meet the latency target,
//! multiplicative decrease when they miss it). Requests that arrive with
//! every slot busy wait in a bounded FIFO queue. The queue sheds
//! deterministically and always oldest-first: entries older than
//! `max_queue_age` are dropped whenever the controller is touched, and a
//! full queue evicts its oldest entry to make room for the newcomer (the
//! oldest waiter is the one most likely to have blown its deadline
//! already, so it is the cheapest to abandon). Shed requests are answered
//! with [`crate::protocol::Msg::Overloaded`] carrying a retry-after hint.

use std::collections::VecDeque;
use std::time::Duration;

/// Tuning for [`AdmissionController`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum number of requests waiting for a service slot. `0` means
    /// no queue: anything beyond the concurrency limit is shed outright.
    pub queue_limit: usize,
    /// Queued requests older than this are shed (age-based shedding).
    pub max_queue_age: Duration,
    /// AIMD floor for the concurrency limit.
    pub min_concurrency: u32,
    /// AIMD ceiling for the concurrency limit (the physical capacity).
    pub max_concurrency: u32,
    /// Concurrency limit at start-up.
    pub initial_concurrency: u32,
    /// Sojourn-time target: completions at or under it grow the limit by
    /// one, completions over it halve the limit (floored at the minimum).
    pub latency_target: Duration,
    /// Retry-after hint carried on every shed reply, in milliseconds.
    pub retry_after_ms: u32,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            queue_limit: 64,
            max_queue_age: Duration::from_millis(250),
            min_concurrency: 1,
            max_concurrency: 256,
            initial_concurrency: 8,
            latency_target: Duration::from_millis(50),
            retry_after_ms: 100,
        }
    }
}

impl AdmissionConfig {
    /// A fixed concurrency limit (`min = max = initial`), i.e. no AIMD
    /// adaptation — useful for tests and for modelling a known capacity.
    pub fn fixed(limit: u32) -> AdmissionConfig {
        let limit = limit.max(1);
        AdmissionConfig {
            min_concurrency: limit,
            max_concurrency: limit,
            initial_concurrency: limit,
            ..AdmissionConfig::default()
        }
    }

    /// The collapse baseline: the same fixed service capacity but an
    /// effectively unbounded queue that never sheds. Under sustained
    /// overload its waiting time grows without bound — the regime the
    /// bounded configurations exist to prevent.
    pub fn unbounded(limit: u32) -> AdmissionConfig {
        AdmissionConfig {
            queue_limit: usize::MAX,
            max_queue_age: Duration::from_secs(u64::MAX / 2_000_000_000),
            ..AdmissionConfig::fixed(limit)
        }
    }
}

/// Outcome of offering one request to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// A service slot was free: the request is in service now. The caller
    /// must eventually call [`AdmissionController::release`] for it.
    Admitted,
    /// All slots are busy: the request is waiting in the bounded queue.
    /// It starts service when a future `release` returns it in
    /// [`Drain::start`], or is shed by age / eviction.
    Queued,
    /// The request was refused outright (no queue space at all). Reply
    /// `Msg::Overloaded` with the embedded retry-after hint.
    Shed {
        /// Milliseconds the client should wait before retrying the edge.
        retry_after_ms: u32,
    },
}

/// Queued requests whose fate was decided by a `release` or `offer` call:
/// `start` entered service (their slots are already accounted for), `shed`
/// must be answered `Msg::Overloaded`. Both are ordered oldest-first.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Drain {
    /// Request ids that just moved from the queue into service.
    pub start: Vec<u64>,
    /// Request ids shed from the queue (aged out or evicted).
    pub shed: Vec<u64>,
}

impl Drain {
    /// No queued request changed state.
    pub fn is_empty(&self) -> bool {
        self.start.is_empty() && self.shed.is_empty()
    }
}

/// The admission controller: bounded queue + AIMD concurrency limiter.
///
/// Single-threaded by design (`&mut self`), like the rest of the sans-IO
/// engine; the live edge wraps it in a mutex, the simulator owns it.
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    limit: u32,
    inflight: u32,
    /// Waiting requests, oldest at the front: `(id, enqueued_at_ns)`.
    queue: VecDeque<(u64, u64)>,
    admitted_total: u64,
    shed_total: u64,
}

impl AdmissionController {
    /// Controller with the given tuning (fields are clamped into a
    /// consistent `min ≤ initial ≤ max` order).
    pub fn new(cfg: AdmissionConfig) -> AdmissionController {
        let mut cfg = cfg;
        cfg.min_concurrency = cfg.min_concurrency.max(1);
        cfg.max_concurrency = cfg.max_concurrency.max(cfg.min_concurrency);
        cfg.initial_concurrency = cfg
            .initial_concurrency
            .clamp(cfg.min_concurrency, cfg.max_concurrency);
        let limit = cfg.initial_concurrency;
        AdmissionController {
            cfg,
            limit,
            inflight: 0,
            queue: VecDeque::new(),
            admitted_total: 0,
            shed_total: 0,
        }
    }

    /// Offer one request at `now_ns`. Besides the verdict for *this*
    /// request, returns the ids of any queued requests shed to decide it
    /// (age expiry plus at most one oldest-entry eviction); the caller
    /// must answer each of those `Msg::Overloaded`.
    pub fn offer(&mut self, id: u64, now_ns: u64) -> (Admit, Vec<u64>) {
        let mut evicted = self.expire(now_ns);
        if self.inflight < self.limit {
            self.inflight += 1;
            self.admitted_total += 1;
            return (Admit::Admitted, evicted);
        }
        if self.cfg.queue_limit == 0 {
            self.shed_total += 1;
            return (
                Admit::Shed {
                    retry_after_ms: self.cfg.retry_after_ms,
                },
                evicted,
            );
        }
        if self.queue.len() >= self.cfg.queue_limit {
            // Full: evict the oldest waiter to keep shedding age-ordered.
            if let Some((old, _)) = self.queue.pop_front() {
                self.shed_total += 1;
                evicted.push(old);
            }
        }
        self.queue.push_back((id, now_ns));
        (Admit::Queued, evicted)
    }

    /// Complete one in-service request whose observed sojourn (offer →
    /// completion) was `service_ns`. Feeds the AIMD limiter, frees the
    /// slot, then drains the queue: aged-out entries are shed and the
    /// oldest survivors fill whatever slots the new limit allows.
    pub fn release(&mut self, service_ns: u64, now_ns: u64) -> Drain {
        self.inflight = self.inflight.saturating_sub(1);
        if service_ns <= self.cfg.latency_target.as_nanos() as u64 {
            self.limit = (self.limit + 1).min(self.cfg.max_concurrency);
        } else {
            self.limit = (self.limit / 2).max(self.cfg.min_concurrency);
        }
        let mut drain = Drain {
            shed: self.expire(now_ns),
            ..Drain::default()
        };
        while self.inflight < self.limit {
            match self.queue.pop_front() {
                Some((id, _)) => {
                    self.inflight += 1;
                    self.admitted_total += 1;
                    drain.start.push(id);
                }
                None => break,
            }
        }
        drain
    }

    /// Shed every queued request older than the age bound. Returned
    /// oldest-first; callers reply `Msg::Overloaded` to each.
    pub fn expire(&mut self, now_ns: u64) -> Vec<u64> {
        let age = self.cfg.max_queue_age.as_nanos() as u64;
        let mut out = Vec::new();
        while let Some(&(id, at)) = self.queue.front() {
            if now_ns.saturating_sub(at) > age {
                self.queue.pop_front();
                self.shed_total += 1;
                out.push(id);
            } else {
                break;
            }
        }
        out
    }

    /// Take a queued request out of the queue without serving or shedding
    /// it (its requester went away).
    pub(crate) fn withdraw(&mut self, id: u64) {
        self.queue.retain(|&(queued, _)| queued != id);
    }

    /// Record a shed that happened outside the queue (e.g. a brownout
    /// refusal before `offer`, or a degraded-mode cache miss).
    pub fn note_shed(&mut self) {
        self.shed_total += 1;
    }

    /// Queue occupancy in `[0, 1]` — the pressure signal the brownout
    /// ladder watches. An unbounded queue always reports `0.0` (the
    /// baseline configuration opts out of brownout by construction).
    pub fn pressure(&self) -> f64 {
        if self.cfg.queue_limit == 0 || self.cfg.queue_limit == usize::MAX {
            return 0.0;
        }
        self.queue.len() as f64 / self.cfg.queue_limit as f64
    }

    /// Requests currently in service.
    pub fn inflight(&self) -> u32 {
        self.inflight
    }

    /// Requests currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Retry-after hint (milliseconds) carried on shed replies.
    pub fn retry_after_ms(&self) -> u32 {
        self.cfg.retry_after_ms
    }

    /// Total requests admitted into service since construction.
    pub fn admitted_total(&self) -> u64 {
        self.admitted_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn cfg() -> AdmissionConfig {
        AdmissionConfig {
            queue_limit: 3,
            max_queue_age: Duration::from_millis(10),
            min_concurrency: 1,
            max_concurrency: 8,
            initial_concurrency: 2,
            latency_target: Duration::from_millis(5),
            retry_after_ms: 25,
        }
    }

    #[test]
    fn admits_until_the_limit_then_queues_then_evicts_oldest() {
        let mut c = AdmissionController::new(cfg());
        assert_eq!(c.offer(1, 0), (Admit::Admitted, vec![]));
        assert_eq!(c.offer(2, 0), (Admit::Admitted, vec![]));
        assert_eq!(c.offer(3, MS), (Admit::Queued, vec![]));
        assert_eq!(c.offer(4, 2 * MS), (Admit::Queued, vec![]));
        assert_eq!(c.offer(5, 3 * MS), (Admit::Queued, vec![]));
        // Queue full: the oldest waiter (3) is evicted for the newcomer.
        assert_eq!(c.offer(6, 4 * MS), (Admit::Queued, vec![3]));
        assert_eq!(c.queue_depth(), 3);
        assert_eq!(c.shed_total, 1);
    }

    #[test]
    fn zero_queue_sheds_outright_with_the_configured_hint() {
        let mut c = AdmissionController::new(AdmissionConfig {
            queue_limit: 0,
            ..cfg()
        });
        assert_eq!(c.offer(1, 0).0, Admit::Admitted);
        assert_eq!(c.offer(2, 0).0, Admit::Admitted);
        assert_eq!(c.offer(3, 0).0, Admit::Shed { retry_after_ms: 25 });
        assert_eq!(c.shed_total, 1);
    }

    #[test]
    fn release_feeds_aimd_and_starts_the_oldest_waiter() {
        let mut c = AdmissionController::new(cfg());
        c.offer(1, 0);
        c.offer(2, 0);
        c.offer(3, MS);
        c.offer(4, 2 * MS);
        // Fast completion: limit 2 → 3, freeing two slots; both waiters
        // start, oldest first.
        let d = c.release(MS, 3 * MS);
        assert_eq!(d.start, vec![3, 4]);
        assert!(d.shed.is_empty());
        assert_eq!(c.limit, 3);
        assert_eq!(c.inflight(), 3);
    }

    #[test]
    fn slow_completions_halve_the_limit_down_to_the_floor() {
        let mut c = AdmissionController::new(AdmissionConfig {
            initial_concurrency: 8,
            ..cfg()
        });
        for id in 0..8 {
            assert_eq!(c.offer(id, 0).0, Admit::Admitted);
        }
        c.release(20 * MS, 20 * MS); // over target: 8 → 4
        assert_eq!(c.limit, 4);
        c.release(20 * MS, 20 * MS); // 4 → 2
        c.release(20 * MS, 20 * MS); // 2 → 1
        c.release(20 * MS, 20 * MS); // floored
        assert_eq!(c.limit, 1);
        // Recovery is additive: one fast completion grows it by one.
        c.release(MS, 21 * MS);
        assert_eq!(c.limit, 2);
    }

    #[test]
    fn aged_waiters_are_shed_on_any_touch() {
        let mut c = AdmissionController::new(cfg());
        c.offer(1, 0);
        c.offer(2, 0);
        c.offer(3, MS);
        c.offer(4, 2 * MS);
        // 12ms later both waiters exceed the 10ms age bound; the offer
        // sheds them before deciding the newcomer (which then queues).
        let (admit, shed) = c.offer(5, 13 * MS);
        assert_eq!(admit, Admit::Queued);
        assert_eq!(shed, vec![3, 4]);
        assert_eq!(c.queue_depth(), 1);
    }

    #[test]
    fn release_sheds_aged_waiters_before_starting_fresh_ones() {
        let mut c = AdmissionController::new(cfg());
        c.offer(1, 0);
        c.offer(2, 0);
        c.offer(3, 0); // will age out
        c.offer(4, 5 * MS); // still fresh at 13ms
        let d = c.release(MS, 13 * MS);
        assert_eq!(d.shed, vec![3]);
        assert_eq!(d.start, vec![4]);
    }

    /// Property: shedding is always oldest-first. Under a seeded
    /// pseudo-random arrival/completion schedule, every shed batch drops
    /// a prefix of the queue in enqueue order — no younger entry is ever
    /// shed while an older one keeps waiting.
    #[test]
    fn shedding_is_always_oldest_first_under_random_schedules() {
        // SplitMix64: the same deterministic generator RetryPolicy uses.
        let mut state = 0x5EED_u64;
        let mut rng = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut c = AdmissionController::new(AdmissionConfig {
            queue_limit: 4,
            max_queue_age: Duration::from_millis(8),
            min_concurrency: 1,
            max_concurrency: 4,
            initial_concurrency: 2,
            latency_target: Duration::from_millis(3),
            retry_after_ms: 10,
        });
        // Ground truth: enqueue time per id, and the live queue mirror.
        let mut enqueued_at = std::collections::BTreeMap::new();
        let mut mirror: Vec<u64> = Vec::new();
        let mut now = 0u64;
        let mut next_id = 0u64;
        let check = |shed: &[u64],
                     started: &[u64],
                     mirror: &mut Vec<u64>,
                     at: &std::collections::BTreeMap<u64, u64>| {
            for batch in [shed, started] {
                for id in batch {
                    assert_eq!(
                        mirror.first(),
                        Some(id),
                        "drained {id} but queue front was {:?}",
                        mirror.first()
                    );
                    mirror.remove(0);
                }
            }
            // Everything shed must be at least as old as every survivor.
            let oldest_left = mirror.iter().map(|id| at[id]).min();
            for id in shed {
                if let Some(min_left) = oldest_left {
                    assert!(
                        at[id] <= min_left,
                        "shed {id} (t={}) before older waiter (t={min_left})",
                        at[id]
                    );
                }
            }
        };
        for _ in 0..2_000 {
            now += rng() % (3 * MS);
            if rng() % 3 > 0 {
                let id = next_id;
                next_id += 1;
                let (admit, shed) = c.offer(id, now);
                if admit == Admit::Queued {
                    // Shed happened before this enqueue.
                    check(&shed, &[], &mut mirror, &enqueued_at);
                    enqueued_at.insert(id, now);
                    mirror.push(id);
                } else {
                    check(&shed, &[], &mut mirror, &enqueued_at);
                }
            } else if c.inflight() > 0 {
                let d = c.release(rng() % (6 * MS), now);
                check(&d.shed, &d.start, &mut mirror, &enqueued_at);
            }
        }
        assert!(c.shed_total > 0, "schedule never exercised shedding");
        assert!(c.admitted_total() > 0);
    }

    #[test]
    fn pressure_tracks_queue_occupancy() {
        let mut c = AdmissionController::new(cfg());
        assert_eq!(c.pressure(), 0.0);
        c.offer(1, 0);
        c.offer(2, 0);
        assert_eq!(c.pressure(), 0.0, "in-service load is not queue pressure");
        c.offer(3, 0);
        assert!((c.pressure() - 1.0 / 3.0).abs() < 1e-9);
        c.offer(4, 0);
        c.offer(5, 0);
        assert_eq!(c.pressure(), 1.0);
        let unbounded = AdmissionController::new(AdmissionConfig::unbounded(2));
        assert_eq!(unbounded.pressure(), 0.0);
    }

    #[test]
    fn unbounded_baseline_never_sheds() {
        let mut c = AdmissionController::new(AdmissionConfig::unbounded(1));
        c.offer(0, 0);
        for id in 1..500u64 {
            let (admit, shed) = c.offer(id, id * MS);
            assert_eq!(admit, Admit::Queued);
            assert!(shed.is_empty());
        }
        assert_eq!(c.shed_total, 0);
        assert_eq!(c.queue_depth(), 499);
        // And the fixed limit never adapts.
        c.release(u64::MAX / 4, 500 * MS);
        assert_eq!(c.limit, 1);
    }
}
