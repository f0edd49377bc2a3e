//! Shared machinery for the per-figure experiment binaries.
//!
//! Every `fig*`/`table1`/`recv_packet_cost` binary replays the same
//! simulated deployment; the report is cached on disk (keyed by duration
//! and seed) so running all binaries costs one simulation. Results are
//! emitted as a telemetry [`Artifact`] — one structure rendered both as
//! terminal text (suppressed by `--quiet`) and, with `--json <path>`, as
//! a machine-readable JSON file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

use std::path::PathBuf;

use telemetry::Flags;
use testnet::{evaluate, EvaluationReport, OutputOptions, Section, Summary, TestnetConfig, DAY_MS};

/// Command-line options shared by the experiment binaries.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Simulated duration in days (paper: 28).
    pub days: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Ignore any cached report.
    pub fresh: bool,
    /// Artifact emission: `--quiet` and `--json <path>`.
    pub output: OutputOptions,
}

impl RunOptions {
    /// Parses `--days N`, `--seed N`, `--fresh`, `--quiet` and
    /// `--json <path>` from `std::env::args`; anything else exits 2.
    pub fn from_args() -> Self {
        let mut flags = Flags::from_env();
        Self {
            days: flags.value("--days", 28),
            seed: flags.value("--seed", 20240901),
            fresh: flags.switch("--fresh"),
            output: flags.output(),
        }
    }
}

fn cache_path(options: &RunOptions) -> PathBuf {
    std::env::temp_dir()
        .join(format!("be-my-guest-report-{}d-seed{}.json", options.days, options.seed))
}

/// Runs (or loads from cache) the paper-configuration deployment and
/// returns its evaluation report. Progress notes go to stderr unless
/// `--quiet` was given.
pub fn paper_report(options: &RunOptions) -> EvaluationReport {
    let path = cache_path(options);
    if !options.fresh {
        if let Ok(bytes) = std::fs::read(&path) {
            if let Ok(report) = serde_json::from_slice::<EvaluationReport>(&bytes) {
                if !options.output.quiet {
                    eprintln!("(loaded cached report from {})", path.display());
                }
                return report;
            }
        }
    }
    if !options.output.quiet {
        eprintln!(
            "simulating {} days of the paper deployment (seed {})…",
            options.days, options.seed
        );
    }
    let mut config = TestnetConfig::paper();
    config.seed = options.seed;
    let started = std::time::Instant::now();
    let report = evaluate(config, options.days * DAY_MS);
    if !options.output.quiet {
        eprintln!("…done in {:.1?}", started.elapsed());
    }
    if let Ok(bytes) = serde_json::to_vec(&report) {
        let _ = std::fs::write(&path, bytes);
    }
    report
}

/// Appends a value-CDF to an artifact section: quantile rows as text plus
/// named scalar values for the JSON twin. NaN samples are discarded by the
/// underlying quantile.
pub fn cdf_section(section: &mut Section, label: &str, unit: &str, values: &[f64], points: &[f64]) {
    section.line(format!("{label} (n = {}):", values.len()));
    for q in points {
        let v = testnet::quantile(values, *q);
        let pct = (q * 100.0) as u32;
        section.line(format!("  p{pct:<4} {v:>10.2} {unit}"));
        section.value(&format!("{label}_p{pct}"), v);
    }
    let summary = Summary::of(values);
    if summary.count > 0 {
        section.line(format!("  min  {:>10.2} {unit}", summary.min));
        section.line(format!("  max  {:>10.2} {unit}", summary.max));
        section.value(&format!("{label}_min"), summary.min);
        section.value(&format!("{label}_max"), summary.max);
    }
}
