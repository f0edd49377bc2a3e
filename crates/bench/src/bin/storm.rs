//! Storm — what the simulator's own wall time goes to, and what observing
//! it costs, on the heaviest workload: the airdrop storm.
//!
//! The storm is simulated `1 + 2 × --reps` times in this process:
//!
//! - **profile**: one run with the self-profiler on, reported as a
//!   hierarchical phase tree rooted at the harness `step`, a top-N hot-path
//!   table ranked by self time, and the telemetry pipeline's own recording
//!   cost. The raw [`ProfileReport`] goes to `--profile` (conventionally
//!   `BENCH_profile.json`, read by `trace_explorer --profile`), the summary
//!   to `--profile_summary`.
//! - **overhead**: `--reps` pairs of runs with telemetry disabled and full.
//!   The cost is the median over the pairs of the wall-clock difference, in
//!   ms and in µs per journal line of the full run (`--overhead`). That is
//!   what the CI gate budgets: the pipeline's own cost, which a faster
//!   simulator does not change. The percentage of the (min-of-reps) blind
//!   run is printed beside it for the reader only: its denominator shrinks
//!   with every simulator speed-up.
//!
//! Wall-clock numbers vary run to run; the *sim timeline* does not. The
//! profiler only observes, so the profiled run's telemetry is checked to be
//! byte-identical to the first full run's, which differs from it only in
//! having the profiler off.
//!
//! Usage: `cargo run --release -p bench --bin storm -- \
//!   [--users N] [--gap-ms N] [--hours N] [--seed N] [--reps N] [--quiet] \
//!   [--profile <path>] [--profile_summary <path>] [--overhead <path>]`

use sim_crypto::time::HOUR_MS;
use std::time::Instant;

use profiler::ProfileReport;
use telemetry::{Artifact, Flags};
use testnet::{TelemetryMode, Testnet, TestnetConfig};
use workload::TrafficConfig;

/// One timed storm run, with the profiler and the telemetry mode given.
fn storm_run(
    users: u32,
    gap_ms: u64,
    seed: u64,
    sim_ms: u64,
    profile: bool,
    telemetry: TelemetryMode,
) -> (Testnet, f64) {
    let mut config = TestnetConfig::small(seed);
    config.traffic = Some(TrafficConfig::airdrop_storm(users, gap_ms));
    config.profile = profile;
    config.telemetry = telemetry;
    let mut net = Testnet::build(config);
    let started = Instant::now();
    net.run_for(sim_ms);
    (net, started.elapsed().as_secs_f64() * 1_000.0)
}

/// Total wall milliseconds recorded under scopes with `name` (the
/// telemetry pipeline's `telemetry.record` scopes appear both at the
/// harness gauge flush and inside host block production).
fn wall_of_named(report: &ProfileReport, name: &str) -> f64 {
    report.entries.iter().filter(|e| e.name == name).map(|e| e.wall_ms).sum()
}

fn main() {
    let mut flags = Flags::from_env();
    let users = flags.value("--users", 1_000u32);
    let gap_ms = flags.value("--gap-ms", 30_000u64);
    let hours = flags.value("--hours", 2u64);
    let seed = flags.value("--seed", 2026u64);
    let reps = flags.value("--reps", 3u32).max(1);
    let quiet = flags.switch("--quiet");
    let profile_path: Option<String> = flags.optional("--profile");
    let summary_path: Option<String> = flags.optional("--profile_summary");
    let overhead_path: Option<String> = flags.optional("--overhead");
    flags.finish();
    let sim_ms = hours.clamp(1, 24 * 28) * HOUR_MS;
    let scenario = format!("airdrop storm, {users} users, {hours} simulated hour(s)");

    // The profiled run; of it only its summary and its telemetry are kept.
    let (net, wall_ms) = storm_run(users, gap_ms, seed, sim_ms, true, TelemetryMode::Full);
    let report = net.profile_report();
    let profiled_telemetry = net.run_report("profile").to_json();
    drop(net);
    if let Some(path) = profile_path.as_deref() {
        if let Err(err) = std::fs::write(path, report.to_json()) {
            eprintln!("could not write {path}: {err}");
            std::process::exit(1);
        }
        eprintln!("(profile written to {path})");
    }
    let title = format!("Self-profile — {scenario} (seed {seed})");
    let mut summary = profile_summary(&report, wall_ms, title);

    // The two modes interleaved within each repetition; the cost is the
    // median of the per-repetition differences. The first full run is the
    // profiled run's bare twin.
    let (mut blind_ms, mut full_ms) = (f64::MAX, f64::MAX);
    let mut costs = Vec::new();
    let mut journal_lines = 0;
    let mut identical = false;
    for rep in 0..reps {
        let (_, blind) = storm_run(users, gap_ms, seed, sim_ms, false, TelemetryMode::Disabled);
        let (net, full) = storm_run(users, gap_ms, seed, sim_ms, false, TelemetryMode::Full);
        if rep == 0 {
            identical = net.run_report("profile").to_json() == profiled_telemetry;
        }
        blind_ms = blind_ms.min(blind);
        full_ms = full_ms.min(full);
        costs.push(full - blind);
        journal_lines = net.telemetry().journal_len();
    }

    summary
        .section("observer check")
        .line(format!(
            "profiled vs bare same-seed telemetry identical: {}",
            if identical { "ok" } else { "FAIL" },
        ))
        .value("no_perturbation", f64::from(u8::from(identical)));

    costs.sort_by(f64::total_cmp);
    let cost_ms = costs[costs.len() / 2];
    let cost_us_per_line = cost_ms * 1_000.0 / journal_lines.max(1) as f64;
    let overhead_pct = (full_ms / blind_ms.max(1e-9) - 1.0) * 100.0;
    let mut overhead = Artifact::new(
        format!("Telemetry overhead — {scenario} (seed {seed}, {reps} reps)"),
        "overhead",
    );
    overhead
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

    summary.emit(quiet, summary_path.as_deref());
    overhead.emit(quiet, overhead_path.as_deref());
}

/// The profile summary: step attribution and the hot-path table of the
/// profiled run, whose `run_for` loop took `wall_ms`.
fn profile_summary(report: &ProfileReport, wall_ms: f64, title: String) -> Artifact {
    let mut artifact = Artifact::new(title, "profile_summary");
    let step = report.entry("step");

    // Attribution: how much of the per-step wall time lands in a named
    // child phase instead of the uninstrumented remainder (`self_ms`).
    let (step_wall, step_self, step_calls) =
        step.map(|e| (e.wall_ms, e.self_ms, e.calls)).unwrap_or((0.0, 0.0, 0));
    let attributed_pct =
        if step_wall > 0.0 { (step_wall - step_self) / step_wall * 100.0 } else { 0.0 };
    // Coverage: how much of the whole `run_for` loop the `step` scope saw
    // (the remainder is `run_for`'s deadline check between steps).
    let covered_pct = if wall_ms > 0.0 { report.total_ms / wall_ms * 100.0 } else { 0.0 };
    let subsystems: Vec<_> = report.entries.iter().filter(|e| e.depth == 1).collect();
    let (top_name, top_wall) = subsystems
        .iter()
        .max_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
        .map_or(("none", 0.0), |e| (e.name.as_str(), e.wall_ms));
    let telemetry_self_ms = wall_of_named(report, "telemetry.record");
    let telemetry_self_pct =
        if step_wall > 0.0 { telemetry_self_ms / step_wall * 100.0 } else { 0.0 };

    artifact
        .section("attribution")
        .line(format!(
            "{step_calls} steps, {:.1} s profiled wall ({covered_pct:.1}% of the \
             {:.1} s run loop)",
            report.total_ms / 1_000.0,
            wall_ms / 1_000.0,
        ))
        .line(format!(
            "phase attribution: {attributed_pct:.1}% of step time in named phases \
             (unattributed remainder {step_self:.1} ms)",
        ))
        .line(format!("top subsystem: {top_name} ({top_wall:.1} ms wall)"))
        .line(format!(
            "telemetry self-cost: {telemetry_self_ms:.1} ms recording \
             ({telemetry_self_pct:.2}% of step time)"
        ))
        .value("step_profiled", f64::from(u8::from(step.is_some())))
        .value("subsystems", subsystems.len() as f64)
        .value("steps", step_calls as f64)
        .value("wall_ms", wall_ms)
        .value("profiled_wall_ms", report.total_ms)
        .value("covered_pct", covered_pct)
        .value("attributed_pct", attributed_pct)
        .value("top_subsystem_wall_ms", top_wall)
        .value("telemetry_self_ms", telemetry_self_ms)
        .value("telemetry_self_pct", telemetry_self_pct);

    let hot = artifact.section("hot paths (self time, top 12)");
    for line in report.render_table(12).lines() {
        hot.line(line);
    }
    artifact
}
