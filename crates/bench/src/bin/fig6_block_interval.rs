//! Fig. 6 — interval between the generation of consecutive guest blocks.
//!
//! Paper: the distribution follows the packet arrival rate up to the
//! Δ = 1 h cut-off, where an empty block is generated; about a quarter of
//! guest blocks sat at the cut-off, and five blocks took vastly longer
//! (validator signing delays).
//!
//! Also sweeps Δ to show how the cut-off mass moves (a DESIGN.md ablation).
//!
//! Usage: `cargo run --release -p bench --bin fig6_block_interval -- [--days N] [--quiet] [--json <path>]`

use bench::{cdf_section, paper_report, RunOptions};
use testnet::{evaluate, Artifact, ChaosPlan, TestnetConfig, DAY_MS, HOUR_MS};

fn main() {
    let options = RunOptions::from_args();
    let report = paper_report(&options);
    let intervals = &report.fig6_block_intervals_min;

    let mut artifact =
        Artifact::new("Fig. 6 — interval between consecutive guest blocks", "fig6_block_interval");
    let section = artifact.section("");
    cdf_section(section, "interval", "min", intervals, &[0.25, 0.50, 0.75, 0.90]);
    let at_cutoff = intervals.iter().filter(|v| **v >= 59.0 && **v < 70.0).count();
    let way_over = intervals.iter().filter(|v| **v >= 70.0).count();
    section
        .line(format!(
            "at the Δ = 1 h cut-off: {:.0} % ({at_cutoff} blocks)   (paper: ≈25 %)",
            at_cutoff as f64 / intervals.len().max(1) as f64 * 100.0,
        ))
        .value("at_cutoff_blocks", at_cutoff as f64);
    section
        .line(format!(
            "vastly over Δ: {way_over} blocks   (paper: 5, from validator signing delays)"
        ))
        .value("way_over_blocks", way_over as f64);

    // Ablation: how Δ changes the empty-block share (run shorter sweeps).
    let sweep_days = options.days.min(7);
    let sweep_section = artifact.section(format!("Δ sweep ({sweep_days}-day runs)"));
    for delta_h in [1u64, 2, 4] {
        let mut config = TestnetConfig::paper();
        config.seed = options.seed + delta_h;
        config.guest.delta_ms = delta_h * HOUR_MS;
        // Drop the day-11 outage plan for a clean sweep.
        config.chaos = ChaosPlan::default();
        let sweep = evaluate(config, sweep_days * DAY_MS);
        let v = &sweep.fig6_block_intervals_min;
        let cutoff_min = delta_h as f64 * 60.0;
        let at = v.iter().filter(|x| **x >= cutoff_min - 1.0).count();
        let empty_pct = at as f64 / v.len().max(1) as f64 * 100.0;
        sweep_section
            .line(format!(
                "Δ = {delta_h} h: {:>4} blocks, {empty_pct:>4.0} % empty (at cut-off)",
                v.len(),
            ))
            .value(&format!("empty_pct_delta_{delta_h}h"), empty_pct);
    }

    artifact.emit(options.output.quiet, options.output.json.as_deref());
}
