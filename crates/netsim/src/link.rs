//! Point-to-point link model.
//!
//! A [`Link`] models the path between two nodes as a serialization pipe with
//! a droptail queue, mirroring what `tc` with a `tbf`/`netem` combination
//! produces on a real interface (the paper shapes an 802.11ac link and an
//! edge-cloud uplink with `tc`):
//!
//! * **serialization delay** — `size * 8 / bandwidth`; back-to-back messages
//!   queue behind each other (the link transmits one frame at a time),
//! * **propagation delay** — constant one-way latency,
//! * **jitter** — optional uniform extra delay in `[0, jitter_max]`,
//! * **loss** — optional i.i.d. drop probability,
//! * **droptail queue** — messages whose backlog would exceed the queue
//!   byte limit are dropped.

use crate::time::{SimDuration, SimTime};
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// Static link parameters.
///
/// # Examples
/// ```
/// use coic_netsim::{LinkParams, SimDuration};
///
/// // The paper's 802.11ac access link: 400 Mbit/s, 2 ms one-way delay.
/// let wifi = LinkParams::mbps_ms(400.0, 2);
/// // A 300 kB camera frame serializes in 6 ms at that rate.
/// assert_eq!(wifi.serialization_delay(300_000), SimDuration::from_millis(6));
/// ```
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkParams {
    /// Link rate in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Maximum extra uniform jitter added per message (0 disables jitter).
    pub jitter_max: SimDuration,
    /// Independent per-message drop probability in `[0, 1]`.
    pub loss: f64,
    /// Droptail queue capacity in bytes (backlog beyond this is dropped).
    pub queue_limit_bytes: u64,
}

impl LinkParams {
    /// A lossless, jitter-free link — the common experiment configuration
    /// (`tc` shaping in the paper controls only rate and delay).
    pub fn ideal(bandwidth_bps: u64, propagation: SimDuration) -> Self {
        LinkParams {
            bandwidth_bps,
            propagation,
            jitter_max: SimDuration::ZERO,
            loss: 0.0,
            // Deep default queue: experiment links should shape latency,
            // not silently drop; droptail studies set their own limit.
            queue_limit_bytes: 256 * 1024 * 1024,
        }
    }

    /// Convenience constructor taking megabits per second and milliseconds,
    /// the units used in the paper's figures.
    pub fn mbps_ms(mbps: f64, delay_ms: u64) -> Self {
        Self::ideal((mbps * 1e6) as u64, SimDuration::from_millis(delay_ms))
    }

    /// Serialization delay of `bytes` at this link's rate.
    pub fn serialization_delay(&self, bytes: u64) -> SimDuration {
        debug_assert!(self.bandwidth_bps > 0, "link bandwidth must be positive");
        // bits * 1e9 / bps, computed in u128 to avoid overflow for large
        // payloads on slow links.
        let ns = (bytes as u128 * 8 * 1_000_000_000) / self.bandwidth_bps as u128;
        SimDuration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }
}

/// Outcome of offering a message to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Message will be delivered at the contained time.
    Delivered(SimTime),
    /// Message was dropped by random loss.
    Lost,
    /// Message was dropped because the droptail queue was full.
    QueueDrop,
}

/// Per-link counters.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct LinkStats {
    /// Messages successfully scheduled for delivery.
    pub delivered_msgs: u64,
    /// Bytes successfully scheduled for delivery.
    pub delivered_bytes: u64,
    /// Messages dropped by random loss.
    pub lost_msgs: u64,
    /// Messages dropped by queue overflow.
    pub queue_drops: u64,
}

/// Dynamic state of one direction of a link.
#[derive(Debug, Clone)]
pub struct Link {
    params: LinkParams,
    /// Time at which the transmitter finishes the last accepted message.
    busy_until: SimTime,
    stats: LinkStats,
}

impl Link {
    /// Create a link in the idle state.
    pub fn new(params: LinkParams) -> Self {
        assert!(params.bandwidth_bps > 0, "link bandwidth must be positive");
        assert!(
            (0.0..=1.0).contains(&params.loss),
            "loss probability must be in [0,1]"
        );
        Link {
            params,
            busy_until: SimTime::ZERO,
            stats: LinkStats::default(),
        }
    }

    /// The static parameters this link was built with.
    pub fn params(&self) -> &LinkParams {
        &self.params
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Replace the link parameters mid-simulation (models `tc` re-shaping a
    /// live interface). In-flight messages keep their old schedule.
    pub fn reshape(&mut self, params: LinkParams) {
        assert!(params.bandwidth_bps > 0, "link bandwidth must be positive");
        self.params = params;
    }

    /// Current backlog in bytes if a message were offered at `now`
    /// (the untransmitted residue of previously accepted messages).
    pub fn backlog_bytes(&self, now: SimTime) -> u64 {
        let backlog_time = self.busy_until.saturating_since(now);
        // bytes = time * bps / 8 / 1e9
        ((backlog_time.as_nanos() as u128 * self.params.bandwidth_bps as u128)
            / (8 * 1_000_000_000)) as u64
    }

    /// Offer a message of `bytes` to the link at time `now`.
    ///
    /// Returns when (and whether) the last bit arrives at the far end.
    pub fn transmit<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        bytes: u64,
        rng: &mut R,
    ) -> TxOutcome {
        if self.params.loss > 0.0 && rng.random::<f64>() < self.params.loss {
            self.stats.lost_msgs += 1;
            return TxOutcome::Lost;
        }
        if self.backlog_bytes(now) + bytes > self.params.queue_limit_bytes {
            self.stats.queue_drops += 1;
            return TxOutcome::QueueDrop;
        }
        let start = self.busy_until.max(now);
        let ser = self.params.serialization_delay(bytes);
        self.busy_until = start + ser;
        let jitter = if self.params.jitter_max > SimDuration::ZERO {
            SimDuration::from_nanos(rng.random_range(0..=self.params.jitter_max.as_nanos()))
        } else {
            SimDuration::ZERO
        };
        let deliver = self.busy_until + self.params.propagation + jitter;
        self.stats.delivered_msgs += 1;
        self.stats.delivered_bytes += bytes;
        TxOutcome::Delivered(deliver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn serialization_delay_math() {
        // 100 Mbps, 1 MB message: 8e6 bits / 1e8 bps = 80 ms.
        let p = LinkParams::mbps_ms(100.0, 0);
        assert_eq!(
            p.serialization_delay(1_000_000),
            SimDuration::from_millis(80)
        );
    }

    #[test]
    fn delivery_includes_propagation() {
        let mut l = Link::new(LinkParams::mbps_ms(100.0, 10));
        let out = l.transmit(SimTime::ZERO, 1_000_000, &mut rng());
        assert_eq!(
            out,
            TxOutcome::Delivered(SimTime::from_millis(90)) // 80 ser + 10 prop
        );
    }

    #[test]
    fn back_to_back_messages_queue() {
        let mut l = Link::new(LinkParams::mbps_ms(100.0, 5));
        let mut r = rng();
        let a = l.transmit(SimTime::ZERO, 1_000_000, &mut r);
        let b = l.transmit(SimTime::ZERO, 1_000_000, &mut r);
        assert_eq!(a, TxOutcome::Delivered(SimTime::from_millis(85)));
        // Second message waits for the first to serialize: 160 + 5.
        assert_eq!(b, TxOutcome::Delivered(SimTime::from_millis(165)));
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut l = Link::new(LinkParams::mbps_ms(100.0, 5));
        let mut r = rng();
        let _ = l.transmit(SimTime::ZERO, 1_000_000, &mut r);
        // Offer the next message long after the link drained.
        let b = l.transmit(SimTime::from_secs(1), 1_000_000, &mut r);
        assert_eq!(
            b,
            TxOutcome::Delivered(SimTime::from_secs(1) + SimDuration::from_millis(85))
        );
    }

    #[test]
    fn fifo_delivery_order_without_jitter() {
        let mut l = Link::new(LinkParams::mbps_ms(50.0, 3));
        let mut r = rng();
        let mut last = SimTime::ZERO;
        for i in 1..=20u64 {
            match l.transmit(SimTime::ZERO, i * 1000, &mut r) {
                TxOutcome::Delivered(t) => {
                    assert!(t > last, "deliveries must be FIFO-ordered");
                    last = t;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn droptail_queue_overflows() {
        let mut p = LinkParams::mbps_ms(1.0, 1);
        p.queue_limit_bytes = 10_000;
        let mut l = Link::new(p);
        let mut r = rng();
        // First accepted (queue empty), following ones overflow the backlog.
        assert!(matches!(
            l.transmit(SimTime::ZERO, 9_000, &mut r),
            TxOutcome::Delivered(_)
        ));
        assert_eq!(
            l.transmit(SimTime::ZERO, 9_000, &mut r),
            TxOutcome::QueueDrop
        );
        assert_eq!(l.stats().queue_drops, 1);
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut p = LinkParams::mbps_ms(10.0, 1);
        p.loss = 1.0;
        let mut l = Link::new(p);
        for _ in 0..10 {
            assert_eq!(l.transmit(SimTime::ZERO, 100, &mut rng()), TxOutcome::Lost);
        }
        assert_eq!(l.stats().lost_msgs, 10);
        assert_eq!(l.stats().delivered_msgs, 0);
    }

    #[test]
    fn jitter_bounded_by_max() {
        let mut p = LinkParams::mbps_ms(1000.0, 10);
        p.jitter_max = SimDuration::from_millis(5);
        let mut l = Link::new(p);
        let mut r = rng();
        for _ in 0..200 {
            // Use widely spaced offers so queueing never interferes.
            let now = l.busy_until + SimDuration::from_secs(1);
            match l.transmit(now, 1000, &mut r) {
                TxOutcome::Delivered(t) => {
                    let base = now + p.serialization_delay(1000) + p.propagation;
                    let extra = t.saturating_since(base);
                    assert!(extra <= SimDuration::from_millis(5));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn reshape_changes_rate() {
        let mut l = Link::new(LinkParams::mbps_ms(100.0, 0));
        let mut r = rng();
        l.reshape(LinkParams::mbps_ms(10.0, 0));
        let out = l.transmit(SimTime::ZERO, 1_000_000, &mut r);
        assert_eq!(out, TxOutcome::Delivered(SimTime::from_millis(800)));
    }

    #[test]
    fn backlog_accounting() {
        let mut l = Link::new(LinkParams::mbps_ms(8.0, 0)); // 1 MB/s
        let mut r = rng();
        let _ = l.transmit(SimTime::ZERO, 500_000, &mut r);
        // After 0.25 s, 250 kB have left the queue.
        assert_eq!(l.backlog_bytes(SimTime::from_millis(250)), 250_000);
        assert_eq!(l.backlog_bytes(SimTime::from_secs(1)), 0);
    }
}
