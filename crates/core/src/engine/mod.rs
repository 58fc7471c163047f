//! The sans-IO orchestration engines shared by the simulator and the live
//! TCP stack: [`ClientEngine`] for a client's requests, [`EdgeEngine`] for
//! the edge box.
//!
//! Everything that *decides* — retry budgets, backoff, deadline expiry,
//! degrade-to-origin, edge re-probing; admission, lookup, miss coalescing,
//! ring probes, cloud fallback, placement, circuit breaking — lives here as
//! clock-agnostic state machines. Everything that *does* — sockets, virtual
//! links, timers, sleeps, cache inserts — lives in the drivers
//! ([`crate::simrun`] and [`crate::netrun`]), which translate engine
//! effects into IO and feed IO outcomes back as events.
//!
//! The split buys three things:
//!
//! 1. **No duplicated policy.** Each decision exists once, in this module,
//!    instead of once per stack.
//! 2. **Determinism.** Under a virtual clock the engines are pure
//!    functions of their event sequences; the same seeded workload and
//!    [`FaultSchedule`] traverse byte-identical client [`Decision`] traces
//!    and edge decisions in the simulator and the live loopback stack.
//! 3. **Testability.** State-machine invariants (terminal states are
//!    quiet, armed timers are fired or superseded, a closed connection
//!    leaves nothing behind) are checked directly, without sockets or
//!    sleeps.
//!
//! ```text
//!   driver events                    engine                   effects
//!   ─────────────       ──────────────────────────────       ─────────
//!   begin(req)     ──▶  ┌──────────────────────────────┐ ──▶ ArmTimer(Prep)
//!   on_timer       ──▶  │ Prep → EdgeInFlight ⇄ Backoff │ ──▶ SendQuery/ArmTimer
//!   on_reply       ──▶  │   ↓ exhausted      ↓ reply    │ ──▶ SendUpload
//!   on_transport_  ──▶  │ Degrade → Origin → Done/Fail  │ ──▶ SendOrigin
//!     failure           │   ↑ probe ok                  │ ──▶ ProbeEdge
//!   on_probe_result──▶  └──────────────────────────────┘ ──▶ Complete/GiveUp
//! ```
//!
//! The edge engine's events and effects are charted in [`edge`].

pub mod admission;
pub mod breaker;
pub mod brownout;
pub mod client;
pub mod clock;
pub mod edge;
pub mod fault;
pub mod flight;
pub mod retry;
pub mod stats;
mod sync;

pub use admission::{AdmissionConfig, AdmissionController, Admit, Drain};
pub use breaker::{BreakerState, CircuitBreaker};
pub use brownout::{BrownoutConfig, BrownoutLadder, BrownoutState, OverloadControl, Verdict};
pub use client::{ClientEngine, Decision, Effect, EngineConfig, ReplyKind, TimerKind};
pub use clock::{Clock, SimClock, WallClock};
pub use edge::{
    Answer, Charge, ConnId, Deadline, EdgeEffect, EdgeEngine, EdgeTimer, Slot, PENDING_PER_CONN_MAX,
};
pub use fault::FaultSchedule;
pub use flight::{FlightClaim, ShardedSingleFlight, SingleFlight};
pub use retry::RetryPolicy;
pub use stats::{RobustnessSnapshot, RobustnessStats};
