//! Heavy-traffic workload engine.
//!
//! Every earlier bench drove the simulator with a Poisson trickle — a
//! handful of packets per simulated day. This crate models the traffic a
//! production deployment would actually face ("heavy traffic from
//! millions of users"): a seeded population of per-user accounts with
//! balances, non-homogeneous arrival curves (steady, diurnal, flash
//! crowd, airdrop storm), mixed packet sizes via memo padding and routed
//! memos, and sustained multi-week schedules — all serde-configurable and
//! a pure function of `(config, seed)`.
//!
//! Two halves:
//!
//! * [`TrafficGenerator`] turns a [`TrafficConfig`] into an endless,
//!   deterministic stream of [`Arrival`]s via Lewis thinning over the
//!   configured [`ArrivalCurve`].
//! * [`EventQueue`] is the discrete-event core the harnesses schedule
//!   against: a global binary heap of timed events with deterministic
//!   `(time, insertion sequence)` tie-breaking, so same-seed runs pop
//!   events in a byte-identical order.
//!
//! # Examples
//!
//! ```
//! use workload::{ArrivalCurve, TrafficConfig, TrafficGenerator};
//!
//! let config = TrafficConfig::steady(10_000, 2_000);
//! let mut generator = TrafficGenerator::new(config, 42);
//! // A step loop takes each arrival due by the end of its step; the first
//! // one not yet due waits inside the generator.
//! let mut arrivals = Vec::new();
//! for step_end_ms in (1_000..=60_000).step_by(1_000) {
//!     while let Some(arrival) = generator.pop_due(step_end_ms) {
//!         arrivals.push(arrival);
//!     }
//! }
//! assert!(!arrivals.is_empty());
//! // Same (config, seed) ⇒ byte-identical schedule.
//! let mut again = TrafficGenerator::new(TrafficConfig::steady(10_000, 2_000), 42);
//! let again: Vec<_> = std::iter::from_fn(|| again.pop_due(60_000)).collect();
//! assert_eq!(arrivals, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod curve;
mod generator;
mod population;
mod queue;

pub use config::{AmountMix, AppKind, AppMix, MemoMix, TrafficConfig, INBOUND_FRACTION};
pub use curve::ArrivalCurve;
pub use generator::{Arrival, Direction, TrafficGenerator};
pub use population::UserPopulation;
pub use queue::EventQueue;
