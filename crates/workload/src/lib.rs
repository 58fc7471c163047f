//! # coic-workload
//!
//! Workload generation for the CoIC reproduction: Zipf popularity
//! ([`zipf`]), arrival processes ([`arrivals`]), user/zone/content locality
//! ([`mobility`]), the three application scenarios from the paper's
//! motivation ([`apps`]), and CSV trace exchange ([`trace_io`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps;
pub mod arrivals;
pub mod mobility;
pub mod trace_io;
pub mod zipf;

pub use apps::{
    summarize, ArenaMultiplayer, FlashCrowd, Request, RequestKind, SafeDrivingAr, TraceSummary,
    VrVideo,
};
pub use arrivals::{ArrivalProcess, Poisson};
pub use mobility::{ContentId, Population, UserId, ZoneId, ZoneModel};
pub use trace_io::{from_csv, to_csv, TraceParseError};
pub use zipf::Zipf;
