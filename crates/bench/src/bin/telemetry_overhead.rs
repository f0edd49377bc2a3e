//! Telemetry overhead — what observing the simulation costs.
//!
//! Runs the same airdrop-storm scenario twice per repetition, with
//! telemetry disabled and full, and reports what the pipeline costs: the
//! median over `--reps` of the wall-clock difference to the disabled run
//! of the same repetition, in ms and in µs per journal line of the full
//! run. That is what the CI gate budgets — the pipeline's own cost,
//! which a faster simulator does not change. The percentage of the
//! (min-of-reps) blind run is printed beside it for the reader only: its
//! denominator shrinks with every simulator speed-up.
//!
//! Usage: `cargo run --release -p bench --bin telemetry_overhead -- \
//!   [--users N] [--gap-ms N] [--hours N] [--seed N] [--reps N] \
//!   [--quiet] [--json <path>]`

use std::time::Instant;

use telemetry::Flags;
use testnet::{Artifact, TelemetryMode, Testnet, TestnetConfig, HOUR_MS};
use workload::TrafficConfig;

/// One timed storm run in the given telemetry mode.
fn storm_run(
    users: u32,
    gap_ms: u64,
    seed: u64,
    sim_ms: u64,
    telemetry: TelemetryMode,
) -> (Testnet, f64) {
    let mut config = TestnetConfig::small(seed);
    config.traffic = Some(TrafficConfig::airdrop_storm(users, gap_ms));
    config.telemetry = telemetry;
    let mut net = Testnet::build(config);
    let started = Instant::now();
    net.run_for(sim_ms);
    (net, started.elapsed().as_secs_f64() * 1_000.0)
}

fn main() {
    let mut flags = Flags::from_env();
    let users = flags.value("--users", 1_000u32);
    let gap_ms = flags.value("--gap-ms", 30_000u64);
    let hours = flags.value("--hours", 2u64);
    let seed = flags.value("--seed", 2026u64);
    let reps = flags.value("--reps", 3u32).max(1);
    let output = flags.output();
    let sim_ms = hours.clamp(1, 24 * 28) * HOUR_MS;

    let mut artifact = Artifact::new(
        format!(
            "Telemetry overhead — airdrop storm, {users} users, {hours} simulated \
             hour(s) (seed {seed}, {reps} reps)"
        ),
        "telemetry_overhead",
    );

    // The two modes interleaved within each repetition; the cost is the
    // median of the per-repetition differences.
    let (mut blind_ms, mut full_ms) = (f64::MAX, f64::MAX);
    let mut costs = Vec::new();
    let mut journal_lines = 0;
    for _ in 0..reps {
        let (_, blind) = storm_run(users, gap_ms, seed, sim_ms, TelemetryMode::Disabled);
        let (net, full) = storm_run(users, gap_ms, seed, sim_ms, TelemetryMode::Full);
        blind_ms = blind_ms.min(blind);
        full_ms = full_ms.min(full);
        costs.push(full - blind);
        journal_lines = net.telemetry().journal_len();
    }
    costs.sort_by(f64::total_cmp);
    let cost_ms = costs[costs.len() / 2];
    let cost_us_per_line = cost_ms * 1_000.0 / journal_lines.max(1) as f64;
    let overhead_pct = (full_ms / blind_ms.max(1e-9) - 1.0) * 100.0;
    artifact
        .section("pipeline cost vs disabled telemetry")
        .line(format!(
            "{:<10} {:>10} {:>10} {:>10} {:>10} {:>14}",
            "mode", "wall s", "cost ms", "us/line", "of blind", "journal lines"
        ))
        .line(format!("{:<10} {:>10.2}", "disabled", blind_ms / 1_000.0))
        .line(format!(
            "{:<10} {:>10.2} {cost_ms:>10.1} {cost_us_per_line:>10.2} {overhead_pct:>9.1}% \
             {journal_lines:>14}",
            "full",
            full_ms / 1_000.0,
        ))
        .line(format!(
            "headline: full {cost_us_per_line:+.1} us per journal line (median of {reps} paired \
             differences)"
        ))
        .value("disabled_wall_ms", blind_ms)
        .value("full_wall_ms", full_ms)
        .value("full_cost_ms", cost_ms)
        .value("full_cost_us_per_line", cost_us_per_line)
        .value("full_overhead_pct", overhead_pct)
        .value("full_journal_lines", journal_lines as f64);

    artifact.emit(output.quiet, output.json.as_deref());
}
