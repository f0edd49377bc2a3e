//! Deterministic fault injection and invariant checking for the guest
//! blockchain testnet.
//!
//! The paper's evaluation (§V) is a story of faults: a dominant validator's
//! 10-hour outage stalls finality (§V-C, Table I), host congestion stretches
//! light-client updates (§V-A), and relayer gaps fatten the block-interval
//! tail (Fig. 6). This crate turns those one-off incidents into a
//! reusable drill harness:
//!
//! * [`ChaosPlan`] ([`plan`]) — a serialisable, seeded schedule of
//!   [`Fault`]s: validator crashes, latency spikes and clock skew, relayer
//!   halts, dropped/duplicated/reordered chunk submissions, host congestion
//!   storms and inclusion-failure bursts, counterparty halts, and
//!   counterfeit voucher mints.
//! * [`ChaosController`] ([`controller`]) — evaluates the schedule each
//!   tick and hands injection decisions to the testnet harness. An empty
//!   plan is provably inert: the run is bit-identical to one without chaos.
//! * [`InvariantSuite`] ([`invariants`]) — audits cross-chain safety at
//!   every finalised guest block (ICS-20 conservation, no double
//!   finalisation, light-client monotonicity, stake conservation, no
//!   orphaned packets) and records violations naming the active faults.
//!
//! # Examples
//!
//! ```
//! use chaos::{ChaosController, ChaosPlan, Fault};
//! use sim_crypto::time::DAY_MS;
//!
//! // Crash validator 0 for ten hours starting on day 11 — the §V-C outage.
//! let plan = ChaosPlan::new(20240901)
//!     .with(11 * DAY_MS, 11 * DAY_MS + 35_940_000, Fault::ValidatorCrash { validator: 0 });
//! let controller = ChaosController::new(plan);
//! assert!(controller.crash_window_at(0, 11 * DAY_MS + 1).is_some());
//! assert!(controller.crash_window_at(0, 10 * DAY_MS).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod invariants;
pub mod plan;

pub use controller::ChaosController;
pub use invariants::{
    CheckContext, InvariantConfig, InvariantKind, InvariantSuite, InvariantViolation,
};
pub use plan::{ChaosPlan, Fault, FaultEvent};
