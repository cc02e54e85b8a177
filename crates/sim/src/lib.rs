//! # wsn-sim — a deterministic discrete-event wireless sensor network simulator
//!
//! This crate is the substrate for the iCPDA reproduction: it stands in
//! for the ns-2 simulator used by the paper's evaluation. It models:
//!
//! * node deployment over a planar region and the induced unit-disk
//!   communication graph ([`topology`]),
//! * a byte-accurate radio with per-frame airtime ([`radio`]),
//! * a CSMA/CA-style MAC with carrier sense, binary-exponential backoff,
//!   receiver-side collisions and half-duplex loss ([`mac`], [`sim`]),
//! * promiscuous overhearing, which the protocol's integrity layer
//!   depends on ([`app::Application::on_overhear`]),
//! * per-node traffic, loss and energy accounting ([`metrics`]).
//!
//! Protocols implement [`app::Application`] (one instance per node) and
//! are driven by [`sim::Simulator`]. Everything is single-threaded and
//! deterministic given a seed.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use wsn_sim::prelude::*;
//!
//! // Deploy 100 nodes on the paper's 400 m x 400 m field.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let dep = Deployment::uniform_random(100, Region::paper_default(), 50.0, &mut rng);
//! assert!(dep.average_degree() > 2.0);
//! ```

#![forbid(unsafe_code)]

pub mod app;
pub mod arena;
pub mod calendar;
pub mod channel;
pub mod fault;
pub mod frame;
pub mod geometry;
pub mod ids;
pub mod mac;
pub mod metrics;
pub mod profile;
pub mod radio;
pub mod sim;
pub mod time;
pub mod topology;
pub mod trace;

pub use app::{Application, Context, TimerId, TimerToken};
pub use arena::{ArenaStats, FrameArena};
pub use calendar::CalendarQueue;
pub use channel::{ChannelPlan, ChannelPlanError, GilbertElliott, LinkWindow};
pub use fault::{FaultPlan, FaultPlanError};
pub use frame::{Destination, Frame, WireSize};
pub use ids::NodeId;
pub use metrics::{LossCause, Metrics, NodeMetrics};
pub use profile::{EngineProfile, EngineProfiler};
pub use radio::{LossModel, LossModelError};
pub use sim::{SimConfig, Simulator};
pub use time::{SimDuration, SimTime};
pub use topology::Deployment;
pub use trace::{FlightRecorder, Trace, TraceEntry, TraceKind, TraceLevel};

// Observability types used in the `Context`/`SimConfig` API surface, so
// protocols need no direct `icpda-obs` dependency for instrumentation.
pub use icpda_obs::{Obs, ObsLevel, Span, SpanSnapshot};

/// Convenient glob-import of the common simulator types.
pub mod prelude {
    pub use crate::app::{Application, Context, SharedPayload, TimerId, TimerToken};
    pub use crate::channel::{ChannelPlan, ChannelPlanError, GilbertElliott, LinkWindow};
    pub use crate::fault::{FaultPlan, FaultPlanError};
    pub use crate::frame::{Destination, Frame, WireSize};
    pub use crate::geometry::{Point, Region};
    pub use crate::ids::NodeId;
    pub use crate::mac::MacConfig;
    pub use crate::metrics::{LossCause, Metrics};
    pub use crate::radio::{LossModel, LossModelError};
    pub use crate::sim::{SimConfig, Simulator};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::Deployment;
    pub use icpda_obs::{Obs, ObsLevel, Span, SpanSnapshot};
}
