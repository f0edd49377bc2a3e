//! Discrete-event simulation of a complete guest-blockchain deployment.
//!
//! This crate stands in for the paper's month-long main-net experiment
//! (§V): a Solana-like host chain runs the Guest Contract; 24 simulated
//! validators (calibrated to Table I, including the seven silent ones and
//! validator #1's outage) sign blocks; a relayer shuttles packets and
//! chunked light-client updates; Poisson workloads send ICS-20 transfers in
//! both directions.
//!
//! Build a [`Testnet`] from a [`TestnetConfig`] — [`TestnetConfig::paper`]
//! reproduces the deployment, [`TestnetConfig::small`] is a fast variant
//! for tests — then call [`Testnet::run_for`] and read the measurement
//! vectors ([`Testnet::send_records`], [`Testnet::sign_records`], and the
//! relayer's job records).
//!
//! # Examples
//!
//! ```
//! use testnet::{Testnet, TestnetConfig};
//!
//! let mut net = Testnet::build(TestnetConfig::small(1));
//! net.run_for(60_000); // one simulated minute
//! assert!(net.host.slot() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod experiments;
mod harness;
pub mod metrics;

pub use chaos::{
    ChaosPlan, Fault, FaultEvent, InvariantConfig, InvariantKind, InvariantSuite,
    InvariantViolation,
};
pub use config::{
    paper_outage_plan, paper_validators, sign_fee_for_cents, RogueConfig, TelemetryMode,
    TestnetConfig, ValidatorProfile, Workload, DAY_MS, HOUR_MS,
};
pub use experiments::{evaluate, report_of, EvaluationReport, StorageReport, ValidatorRow};
pub use harness::{Testnet, CP_DENOM, CP_USER, GUEST_DENOM, GUEST_USER};
pub use metrics::{cdf, correlation, fraction_below, quantile, SendRecord, SignRecord, Summary};
pub use monitor::{
    relevant_detectors, score, AlertRecord, EvalReport, EventScore, KindScore, Monitor,
    MonitorConfig, ALL_FAULT_KINDS,
};
pub use telemetry::{
    Artifact, FieldValue, MetricsSnapshot, OutputOptions, PacketTraceReport, RunReport, Section,
    Telemetry, TraceId,
};
