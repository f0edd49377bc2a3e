//! Deterministic online health monitoring for the guest deployment.
//!
//! The monitoring story has three layers:
//!
//! 1. **Detectors** ([`detectors`]) — streaming health checks evaluated
//!    on the shared sim clock against the run's own [`telemetry`], each
//!    built on that sink and reading it through handles made once: a
//!    client-staleness watchdog over head and light-client height gauges,
//!    a stuck-packet detector over open lifecycle traces, a rolling
//!    latency-percentile regression check against a calibration baseline,
//!    a fee/CU-spike detector, a relayer fee-payer runway estimator, and
//!    one conservation check over the ICS-20 supply-drift and ICS-29
//!    fee-imbalance gauges.
//! 2. **Alert lifecycle** ([`alerts`]) — a Pending → Firing → Resolved
//!    state machine with deterministic debounce and hold-down; every
//!    transition is journaled as a telemetry event and surfaces in the
//!    run report's health scorecard.
//! 3. **Chaos-scored quality** ([`eval`]) — replay a
//!    [`chaos::ChaosPlan`], cross-reference the injected faults against
//!    the fired alerts, and compute per-fault-kind detection precision,
//!    recall and mean-time-to-detect (MTTD). The `monitor_eval` bench bin
//!    emits the resulting detector-coverage matrix.
//!
//! Everything is deterministic: no wall clock, no entropy. The same seed
//! and the same plan reproduce the same alert journal byte for byte —
//! which is what makes detection quality a *testable* property instead
//! of an operational anecdote.
//!
//! # Example
//!
//! ```
//! use monitor::{Monitor, MonitorConfig};
//! use telemetry::Telemetry;
//!
//! let telemetry = Telemetry::recording();
//! let mut config = MonitorConfig::small();
//! config.debounce_ms = 60_000;
//! // The monitor is built on the run's sink and reads only that sink.
//! let mut monitor = Monitor::standard(&telemetry, config);
//!
//! // The harness publishes gauges; the monitor watches them.
//! telemetry.gauge_set_at(0, "guest.head", 1.0);
//! for minute in 0..60 {
//!     monitor.tick(minute * 60_000); // head never advances…
//! }
//! let records = monitor.alert_records();
//! assert_eq!(records[0].detector, "client.staleness");
//! assert_eq!(records[0].target, "guest.head");
//! ```

mod alerts;
mod config;
mod detectors;
mod eval;
mod monitor;

pub use alerts::{AlertBook, AlertRecord, Finding};
pub use config::MonitorConfig;
pub use detectors::{
    ConservationDetector, Detector, LatencyRegressionDetector, RateSpikeDetector, RunwayDetector,
    StalenessDetector, StuckPacketDetector,
};
pub use eval::{score, EvalReport, EventScore, KindScore};
pub use monitor::Monitor;
