//! # icpda — cluster-based integrity-enforcing, privacy-preserving data aggregation
//!
//! A from-scratch reproduction of the ICDCS 2009 cluster-based protocol
//! that *simultaneously* preserves the privacy of individual sensor
//! readings and lets the base station detect data-pollution attacks,
//! while still computing exact additive aggregates in-network.
//!
//! The protocol's three phases (see [`node::IcpdaNode`]):
//!
//! 1. **Cluster formation** ([`cluster`]) — probabilistic head
//!    self-election on the query flood, one-hop joins, roster broadcast.
//! 2. **Privacy** ([`shares`]) — intra-cluster additive secret sharing
//!    with polynomial blinding over 𝔽ₚ; the cluster sum is recovered by
//!    interpolation while individual readings stay information-
//!    theoretically hidden unless an adversary captures *all* of a
//!    member's share traffic ([`privacy`]).
//! 3. **Integrity** ([`monitor`]) — transparent intra-cluster
//!    aggregation plus promiscuous peer monitoring of upstream reports,
//!    with alarms routed to the base station, which rejects polluted
//!    rounds.
//!
//! # Examples
//!
//! ```
//! use agg::AggFunction;
//! use icpda::{IcpdaConfig, IcpdaRun};
//! use rand::SeedableRng;
//! use wsn_sim::geometry::Region;
//! use wsn_sim::topology::Deployment;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let dep = Deployment::uniform_random_with_central_bs(
//!     150, Region::paper_default(), 50.0, &mut rng);
//! let readings = agg::readings::count_readings(150);
//! let outcome = IcpdaRun::new(
//!     dep, IcpdaConfig::paper_default(AggFunction::Count), readings, 42).run();
//! assert!(outcome.accepted, "honest round is accepted");
//! ```

#![forbid(unsafe_code)]

pub mod adversary;
pub mod attack;
pub mod cluster;
pub mod config;
pub mod monitor;
pub mod msg;
pub mod node;
pub mod privacy;
pub mod reliability;
pub mod runner;
pub mod session;
pub mod shares;

pub use adversary::{
    evaluate_collusion, AdversaryPlan, AdversaryPlanError, Behavior, CollusionReport, CollusionView,
};
pub use attack::Pollution;
pub use cluster::Roster;
pub use config::{HeadElection, IcpdaConfig, IntegrityMode, PhaseSchedule, PrivacyMode};
pub use monitor::{CachedAggregate, CheckOutcome, MonitorCache};
pub use msg::{IcpdaMsg, MergedRef};
pub use node::{BsDecision, IcpdaNode, Role};
pub use privacy::{evaluate_disclosure, evaluate_disclosure_with_keys, DisclosureReport};
pub use reliability::{ReliabilityConfig, RetryState};
pub use runner::{IcpdaOutcome, IcpdaRun, StreamOutcome};
pub use session::{run_session, SessionOutcome};
