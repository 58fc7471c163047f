//! The discrete-event simulation engine.
//!
//! Nodes are event-driven state machines implementing [`Node`]; the engine
//! pops time-ordered events and dispatches them. All interaction with the
//! world (sending messages, arming timers, reading the clock, drawing
//! randomness) goes through the [`Ctx`] handed to each callback, which keeps
//! nodes deterministic and free of shared mutable state — the style the
//! smoltcp/poll-based guides recommend for testable network code.

use crate::event::{EventId, EventQueue};
use crate::link::{LinkParams, TxOutcome};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An event-driven simulation participant.
///
/// `M` is the application message type carried between nodes; the engine
/// treats it as opaque and charges the network only for the byte size the
/// sender declares (application-layer simulation, as in the paper's
/// request/response experiments).
pub trait Node<M> {
    /// Called once before any other callback, at t = 0.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}
    /// A message from `from` has fully arrived.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);
    /// A timer armed with [`Ctx::set_timer`] has fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _token: u64) {}
    /// A send armed with [`Ctx::send_after`] or [`Ctx::send_routed_after`]
    /// is due. The default sends it; a node that cannot send any more (a
    /// crashed one) drops it instead.
    fn on_depart(&mut self, ctx: &mut Ctx<'_, M>, departure: Departure<M>) {
        departure.send(ctx);
    }
}

/// A message whose send was put off with [`Ctx::send_after`] or
/// [`Ctx::send_routed_after`], handed to [`Node::on_depart`] when it is due.
pub struct Departure<M> {
    to: NodeId,
    routed: bool,
    bytes: u64,
    msg: M,
}

impl<M> Departure<M> {
    /// Send it now, the way it was armed: over the direct link, or routed.
    pub fn send(self, ctx: &mut Ctx<'_, M>) {
        if self.routed {
            ctx.send_routed(self.to, self.bytes, self.msg);
        } else {
            ctx.send(self.to, self.bytes, self.msg);
        }
    }
}

/// Names a timer armed with [`Ctx::set_timer`], for [`Ctx::cancel_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId(EventId);

enum SimEvent<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        /// Final destination when the engine is relaying hop-by-hop.
        dst: NodeId,
        bytes: u64,
        msg: M,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Depart {
        node: NodeId,
        departure: Departure<M>,
    },
    Reshape {
        from: NodeId,
        to: NodeId,
        params: LinkParams,
    },
}

/// Counters the engine accumulates across the whole run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStats {
    /// Events dispatched.
    pub events: u64,
    /// Timers cancelled while pending: each one would otherwise have been
    /// dispatched as an event.
    pub cancelled: u64,
    /// Messages handed to `on_message`.
    pub delivered: u64,
    /// Messages dropped by link loss.
    pub lost: u64,
    /// Messages dropped by droptail queues.
    pub queue_dropped: u64,
    /// Messages abandoned because no route existed.
    pub unroutable: u64,
}

impl SimStats {
    /// Publish the counters into the shared metrics registry under the
    /// `sim.` prefix.
    pub fn publish(&self, reg: &coic_obs::MetricsRegistry) {
        reg.counter_add("sim.events", self.events);
        reg.counter_add("sim.cancelled", self.cancelled);
        reg.counter_add("sim.delivered", self.delivered);
        reg.counter_add("sim.lost", self.lost);
        reg.counter_add("sim.queue_dropped", self.queue_dropped);
        reg.counter_add("sim.unroutable", self.unroutable);
    }

    /// Reconstruct the counters from registry values published by
    /// [`SimStats::publish`].
    pub fn from_registry(reg: &coic_obs::MetricsRegistry) -> SimStats {
        SimStats {
            events: reg.counter("sim.events"),
            cancelled: reg.counter("sim.cancelled"),
            delivered: reg.counter("sim.delivered"),
            lost: reg.counter("sim.lost"),
            queue_dropped: reg.counter("sim.queue_dropped"),
            unroutable: reg.counter("sim.unroutable"),
        }
    }
}

struct World<M> {
    now: SimTime,
    queue: EventQueue<SimEvent<M>>,
    topo: Topology,
    rng: StdRng,
    stats: SimStats,
}

impl<M> World<M> {
    /// Transmit one hop; schedule the Deliver event on success.
    fn transmit_hop(&mut self, from: NodeId, to: NodeId, dst: NodeId, bytes: u64, msg: M) {
        let Some(link) = self.topo.link_mut(from, to) else {
            panic!("no link {from}->{to}: send() requires a direct link; use send_routed()");
        };
        let now = self.now;
        match link.transmit(now, bytes, &mut self.rng) {
            TxOutcome::Delivered(at) => {
                self.queue.schedule(
                    at,
                    SimEvent::Deliver {
                        from,
                        to,
                        dst,
                        bytes,
                        msg,
                    },
                );
            }
            TxOutcome::Lost => self.stats.lost += 1,
            TxOutcome::QueueDrop => self.stats.queue_dropped += 1,
        }
    }
}

/// Handle through which a node interacts with the simulation.
pub struct Ctx<'a, M> {
    node: NodeId,
    world: &'a mut World<M>,
}

impl<'a, M> Ctx<'a, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Id of the node being dispatched.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Send `msg` (`bytes` long on the wire) over the *direct* link to `to`.
    ///
    /// # Panics
    /// Panics if no direct link exists — topology mistakes should fail loudly
    /// in experiments rather than silently blackhole traffic.
    pub fn send(&mut self, to: NodeId, bytes: u64, msg: M) {
        let from = self.node;
        self.world.transmit_hop(from, to, to, bytes, msg);
    }

    /// Send `msg` toward `dst`, relaying hop-by-hop along shortest paths.
    /// Intermediate nodes never observe the message (store-and-forward at
    /// the engine level). Unroutable messages are counted and dropped.
    pub fn send_routed(&mut self, dst: NodeId, bytes: u64, msg: M) {
        let from = self.node;
        match self.world.topo.next_hop(from, dst) {
            Some(hop) => self.world.transmit_hop(from, hop, dst, bytes, msg),
            None => self.world.stats.unroutable += 1,
        }
    }

    /// Arm a timer that fires `after` from now, delivering `token` to
    /// [`Node::on_timer`]. Also the mechanism for modelling local compute
    /// delays: schedule a timer for the compute duration and continue the
    /// state machine when it fires.
    pub fn set_timer(&mut self, after: SimDuration, token: u64) -> TimerId {
        let node = self.node;
        let at = self.world.now + after;
        TimerId(
            self.world
                .queue
                .schedule(at, SimEvent::Timer { node, token }),
        )
    }

    /// Disarm a timer that has not fired: it never reaches
    /// [`Node::on_timer`]. A timer that fired or was cancelled already is
    /// left alone.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        if self.world.queue.cancel(timer.0).is_some() {
            self.world.stats.cancelled += 1;
        }
    }

    /// [`Ctx::send`] `after` from now — once the node's local work is done.
    /// The departure is one event carrying the message, ordered exactly
    /// like a timer armed at this point, and it passes through
    /// [`Node::on_depart`] on its way out.
    pub fn send_after(&mut self, after: SimDuration, to: NodeId, bytes: u64, msg: M) {
        self.depart_after(after, to, false, bytes, msg);
    }

    /// [`Ctx::send_routed`] `after` from now; see [`Ctx::send_after`].
    pub fn send_routed_after(&mut self, after: SimDuration, dst: NodeId, bytes: u64, msg: M) {
        self.depart_after(after, dst, true, bytes, msg);
    }

    fn depart_after(&mut self, after: SimDuration, to: NodeId, routed: bool, bytes: u64, msg: M) {
        let node = self.node;
        let at = self.world.now + after;
        let departure = Departure {
            to,
            routed,
            bytes,
            msg,
        };
        self.world
            .queue
            .schedule(at, SimEvent::Depart { node, departure });
    }

    /// Immutable access to the topology (e.g. to look up names or link
    /// parameters when reporting).
    pub fn topology(&self) -> &Topology {
        &self.world.topo
    }
}

/// The simulation engine: owns the topology, the nodes, the clock and the
/// event queue.
pub struct Simulator<M> {
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    world: World<M>,
    started: bool,
}

impl<M> Simulator<M> {
    /// Create a simulator over `topo`, seeding the deterministic RNG.
    pub fn new(topo: Topology, seed: u64) -> Self {
        let n = topo.node_count();
        let mut nodes = Vec::with_capacity(n);
        nodes.resize_with(n, || None);
        Simulator {
            nodes,
            world: World {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                topo,
                rng: StdRng::seed_from_u64(seed),
                stats: SimStats::default(),
            },
            started: false,
        }
    }

    /// Attach the behaviour for node `id`.
    ///
    /// # Panics
    /// Panics if the id is out of range or already bound.
    pub fn bind(&mut self, id: NodeId, node: Box<dyn Node<M>>) {
        let slot = &mut self.nodes[id.0];
        assert!(slot.is_none(), "node {id} already bound");
        *slot = Some(node);
    }

    /// Engine counters.
    pub fn stats(&self) -> &SimStats {
        &self.world.stats
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The topology (to inspect link stats after a run).
    pub fn topology(&self) -> &Topology {
        &self.world.topo
    }

    fn dispatch<F>(&mut self, node_id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node<M>, &mut Ctx<'_, M>),
    {
        let mut node = self.nodes[node_id.0]
            .take()
            .unwrap_or_else(|| panic!("event for unbound node {node_id}"));
        {
            let mut ctx = Ctx {
                node: node_id,
                world: &mut self.world,
            };
            f(node.as_mut(), &mut ctx);
        }
        self.nodes[node_id.0] = Some(node);
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            if self.nodes[i].is_some() {
                self.dispatch(NodeId(i), |n, ctx| n.on_start(ctx));
            }
        }
    }

    /// Execute a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        let Some((at, ev)) = self.world.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.world.now, "time went backwards");
        self.world.now = at;
        self.world.stats.events += 1;
        match ev {
            SimEvent::Deliver {
                from,
                to,
                dst,
                bytes,
                msg,
            } => {
                if to != dst {
                    // Engine-level store-and-forward relay.
                    match self.world.topo.next_hop(to, dst) {
                        Some(hop) => self.world.transmit_hop(to, hop, dst, bytes, msg),
                        None => {
                            self.world.stats.unroutable += 1;
                        }
                    }
                } else {
                    self.world.stats.delivered += 1;
                    self.dispatch(to, |n, ctx| n.on_message(ctx, from, msg));
                }
            }
            SimEvent::Timer { node, token } => {
                self.dispatch(node, |n, ctx| n.on_timer(ctx, token));
            }
            SimEvent::Depart { node, departure } => {
                self.dispatch(node, |n, ctx| n.on_depart(ctx, departure));
            }
            SimEvent::Reshape { from, to, params } => {
                self.world.topo.reshape(from, to, params);
            }
        }
        true
    }

    /// Schedule a live link-parameter change at virtual time `at` (models
    /// `tc` re-shaping an interface mid-experiment, or wireless fading
    /// steps). Affects only the `from → to` direction; in-flight messages
    /// keep their old schedule.
    pub fn reshape_at(&mut self, at: SimTime, from: NodeId, to: NodeId, params: LinkParams) {
        self.world
            .queue
            .schedule(at, SimEvent::Reshape { from, to, params });
    }

    /// Run until the event queue is empty or `max_events` were dispatched.
    /// Returns the number of events dispatched.
    pub fn run(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;

    /// Echoes every message straight back to its sender.
    struct Echo;
    impl Node<u32> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            ctx.send(from, 100, msg + 1);
        }
    }

    /// Sends one message at start, records the reply time.
    struct Pinger {
        peer: NodeId,
        reply: Option<(SimTime, u32)>,
    }
    impl Node<u32> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.send(self.peer, 100, 41);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
            self.reply = Some((ctx.now(), msg));
        }
    }

    fn two_node_sim() -> (Simulator<u32>, NodeId, NodeId) {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.connect(a, b, LinkParams::mbps_ms(8.0, 10)); // 1 MB/s, 10 ms
        (Simulator::new(topo, 1), a, b)
    }

    #[test]
    fn ping_pong_round_trip_time() {
        let (mut sim, a, b) = two_node_sim();
        sim.bind(
            a,
            Box::new(Pinger {
                peer: b,
                reply: None,
            }),
        );
        sim.bind(b, Box::new(Echo));
        sim.run(100);
        // 100 B at 1 MB/s = 0.1 ms serialization each way + 10 ms prop each way.
        assert_eq!(sim.now(), SimTime::from_micros(20_200));
        assert_eq!(sim.stats().delivered, 2);
    }

    #[test]
    fn timers_fire_in_order() {
        struct T {
            fired: Vec<u64>,
        }
        impl Node<()> for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(5), 5);
                ctx.set_timer(SimDuration::from_millis(1), 1);
                ctx.set_timer(SimDuration::from_millis(3), 3);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let mut sim: Simulator<()> = Simulator::new(topo, 0);
        sim.bind(a, Box::new(T { fired: vec![] }));
        sim.run(10);
        // The simulator owns the node, so check the clock and the event
        // count: three timers fired and the last one at 5 ms.
        assert_eq!(sim.now(), SimTime::from_millis(5));
        assert_eq!(sim.stats().events, 3);
    }

    /// Logs what reaches it. At start it arms one send — carried, or as a
    /// timer that sends — between two plain timers of the same instant.
    struct Sender {
        peer: NodeId,
        /// Arm the send with `send_after` (else a timer that sends).
        carried: bool,
        /// Drop departures in `on_depart` instead of sending them.
        swallow: bool,
        log: std::rc::Rc<std::cell::RefCell<Vec<&'static str>>>,
    }
    impl Node<u32> for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            let at = SimDuration::from_millis(5);
            ctx.set_timer(at, 1);
            if self.carried {
                ctx.send_after(at, self.peer, 1_000, 7);
            } else {
                ctx.set_timer(at, 0);
            }
            ctx.set_timer(at, 2);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, token: u64) {
            if token == 0 {
                self.log.borrow_mut().push("send");
                ctx.send(self.peer, 1_000, 7);
            } else {
                self.log
                    .borrow_mut()
                    .push(["", "timer 1", "timer 2"][token as usize]);
            }
        }
        fn on_depart(&mut self, ctx: &mut Ctx<'_, u32>, departure: Departure<u32>) {
            self.log.borrow_mut().push("send");
            if !self.swallow {
                departure.send(ctx);
            }
        }
    }

    /// Run a [`Sender`] against a recorder; returns the sender's log, the
    /// receiver's arrivals and the engine's counters.
    fn send_later(carried: bool, swallow: bool) -> (Vec<&'static str>, Vec<SimTime>, SimStats) {
        struct Recorder(std::rc::Rc<std::cell::RefCell<Vec<SimTime>>>);
        impl Node<u32> for Recorder {
            fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _: NodeId, _: u32) {
                self.0.borrow_mut().push(ctx.now());
            }
        }
        let (mut sim, a, b) = two_node_sim();
        let log = std::rc::Rc::default();
        let arrivals = std::rc::Rc::default();
        sim.bind(
            a,
            Box::new(Sender {
                peer: b,
                carried,
                swallow,
                log: std::rc::Rc::clone(&log),
            }),
        );
        sim.bind(b, Box::new(Recorder(std::rc::Rc::clone(&arrivals))));
        sim.run(100);
        let stats = *sim.stats();
        let log = log.borrow().clone();
        let arrivals = arrivals.borrow().clone();
        (log, arrivals, stats)
    }

    #[test]
    fn a_carried_send_departs_where_the_timer_it_replaces_fires() {
        let (timed, timed_arrivals, timed_stats) = send_later(false, false);
        let (carried, carried_arrivals, carried_stats) = send_later(true, false);
        // Equal-time FIFO: between the timers armed before and after it.
        assert_eq!(timed, ["timer 1", "send", "timer 2"]);
        assert_eq!(carried, timed);
        // 5 ms wait, then 1 kB at 1 MB/s (1 ms) and 10 ms on the wire.
        assert_eq!(timed_arrivals, [SimTime::from_millis(16)]);
        assert_eq!(carried_arrivals, timed_arrivals);
        // One departure event stands for the one timer.
        assert_eq!(carried_stats.events, timed_stats.events);
        assert_eq!(carried_stats.delivered, 1);
    }

    #[test]
    fn an_overriding_on_depart_can_swallow_the_send() {
        let (log, arrivals, stats) = send_later(true, true);
        assert_eq!(log, ["timer 1", "send", "timer 2"]);
        assert!(arrivals.is_empty());
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn a_cancelled_timer_never_fires_and_is_counted_once() {
        struct Canceller {
            first: Option<TimerId>,
            fired: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
        }
        impl Node<()> for Canceller {
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                self.first = Some(ctx.set_timer(SimDuration::from_millis(1), 1));
                let doomed = ctx.set_timer(SimDuration::from_millis(2), 2);
                ctx.set_timer(SimDuration::from_millis(3), 3);
                ctx.cancel_timer(doomed);
                ctx.cancel_timer(doomed);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, token: u64) {
                self.fired.borrow_mut().push(token);
                if token == 3 {
                    // Fired long ago: cancelling it is a no-op.
                    ctx.cancel_timer(self.first.expect("armed at start"));
                }
            }
        }
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let mut sim: Simulator<()> = Simulator::new(topo, 0);
        let fired = std::rc::Rc::default();
        sim.bind(
            a,
            Box::new(Canceller {
                first: None,
                fired: std::rc::Rc::clone(&fired),
            }),
        );
        sim.run(10);
        assert_eq!(*fired.borrow(), [1, 3]);
        assert_eq!(sim.stats().events, 2);
        assert_eq!(sim.stats().cancelled, 1);
    }

    #[test]
    fn routed_send_relays_through_middle() {
        struct Sink {
            got: Option<(NodeId, u32, SimTime)>,
        }
        impl Node<u32> for Sink {
            fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
                self.got = Some((from, msg, ctx.now()));
            }
        }
        struct Src {
            dst: NodeId,
        }
        impl Node<u32> for Src {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                ctx.send_routed(self.dst, 1_000_000, 7);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
        }
        struct Idle;
        impl Node<u32> for Idle {
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {
                panic!("relay node must not see relayed messages");
            }
        }
        let (mut topo, c, e, s) = {
            let access = LinkParams::mbps_ms(80.0, 5); // 10 MB/s
            let wan = LinkParams::mbps_ms(80.0, 20);
            Topology::chain(access, wan)
        };
        let _ = topo.next_hop(c, s);
        let mut sim = Simulator::new(topo, 3);
        sim.bind(c, Box::new(Src { dst: s }));
        sim.bind(e, Box::new(Idle));
        sim.bind(s, Box::new(Sink { got: None }));
        sim.run(100);
        // hop1: 100 ms ser + 5 ms; hop2: 100 ms ser + 20 ms => 225 ms total.
        assert_eq!(sim.now(), SimTime::from_millis(225));
        assert_eq!(sim.stats().delivered, 1);
    }

    #[test]
    fn identical_seeds_reproduce_exactly() {
        let run = |seed: u64| {
            let mut topo = Topology::new();
            let a = topo.add_node("a");
            let b = topo.add_node("b");
            let mut params = LinkParams::mbps_ms(8.0, 10);
            params.jitter_max = SimDuration::from_millis(2);
            topo.connect(a, b, params);
            let mut sim = Simulator::new(topo, seed);
            sim.bind(
                a,
                Box::new(Pinger {
                    peer: b,
                    reply: None,
                }),
            );
            sim.bind(b, Box::new(Echo));
            sim.run(1000);
            (sim.now(), sim.stats().delivered)
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn direct_send_without_link_panics() {
        struct Bad {
            dst: NodeId,
        }
        impl Node<()> for Bad {
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.send(self.dst, 1, ());
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
        }
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b"); // no link installed
        let mut sim: Simulator<()> = Simulator::new(topo, 0);
        sim.bind(a, Box::new(Bad { dst: b }));
        sim.run(1);
    }

    #[test]
    fn scheduled_reshape_changes_rates_mid_run() {
        // A sender transmits one message before and one after a scheduled
        // bandwidth drop; the second must serialize 10× slower.
        struct TwoShots {
            peer: NodeId,
        }
        impl Node<u32> for TwoShots {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                ctx.set_timer(SimDuration::from_millis(0), 1);
                ctx.set_timer(SimDuration::from_millis(500), 2);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, token: u64) {
                ctx.send(self.peer, 1_000_000, token as u32);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
        }
        struct Recorder {
            arrivals: Rc<std::cell::RefCell<Vec<SimTime>>>,
        }
        impl Node<u32> for Recorder {
            fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _: NodeId, _: u32) {
                self.arrivals.borrow_mut().push(ctx.now());
            }
        }
        use std::rc::Rc;
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.connect(a, b, LinkParams::mbps_ms(80.0, 0)); // 10 MB/s
        let mut sim = Simulator::new(topo, 0);
        let arrivals = Rc::new(std::cell::RefCell::new(Vec::new()));
        sim.bind(a, Box::new(TwoShots { peer: b }));
        sim.bind(
            b,
            Box::new(Recorder {
                arrivals: arrivals.clone(),
            }),
        );
        sim.reshape_at(SimTime::from_millis(250), a, b, LinkParams::mbps_ms(8.0, 0));
        sim.run(100);
        let t = arrivals.borrow();
        // First: 1 MB at 10 MB/s = 100 ms. Second: sent at 500 ms, 1 MB at
        // 1 MB/s = 1000 ms -> arrives at 1500 ms.
        assert_eq!(t[0], SimTime::from_millis(100));
        assert_eq!(t[1], SimTime::from_millis(1500));
    }
}
