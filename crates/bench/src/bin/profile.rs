//! Profile — the wall-clock self-profiler on the heaviest workload.
//!
//! Runs the airdrop-storm shape with profiling enabled and reports where
//! the simulator's own wall time goes: a hierarchical phase tree rooted
//! at the harness `step`, a top-N hot-path table ranked by self time, and
//! the telemetry pipeline's own recording cost. The raw [`ProfileReport`]
//! is written as JSON (`--profile-json`, conventionally
//! `BENCH_profile.json`) for `trace_explorer --profile` and the CI gate.
//!
//! Wall-clock numbers vary run to run; the *sim timeline* does not — the
//! profiler only observes, so a profiled run is byte-identical to a bare
//! one (asserted here against an unprofiled same-seed run).
//!
//! Usage: `cargo run --release -p bench --bin profile -- \
//!   [--users N] [--gap-ms N] [--hours N] [--seed N] [--quiet] \
//!   [--json <path>] [--profile-json <path>]`

use std::time::Instant;

use profiler::ProfileReport;
use telemetry::Flags;
use testnet::{Artifact, Testnet, TestnetConfig, HOUR_MS};
use workload::TrafficConfig;

/// One airdrop-storm run; profiling switchable so the determinism audit
/// can compare profiled vs bare telemetry.
fn storm_run(users: u32, gap_ms: u64, seed: u64, sim_ms: u64, profile: bool) -> (Testnet, f64) {
    let mut config = TestnetConfig::small(seed);
    config.traffic = Some(TrafficConfig::airdrop_storm(users, gap_ms));
    config.profile = profile;
    let mut net = Testnet::build(config);
    let started = Instant::now();
    net.run_heavy_for(sim_ms);
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
    let profile_json: Option<String> = flags.optional("--profile-json");
    let output = flags.output();
    let sim_ms = hours.clamp(1, 24 * 28) * HOUR_MS;

    let mut artifact = Artifact::new(
        format!(
            "Self-profile — airdrop storm, {users} users, {hours} simulated hour(s) \
             (seed {seed})"
        ),
        "profile",
    );

    let (net, wall_ms) = storm_run(users, gap_ms, seed, sim_ms, true);
    let report = net.profile_report();
    let step = report.entry("step").cloned();

    // Attribution: how much of the per-step wall time lands in a named
    // child phase instead of the uninstrumented remainder (`self_ms`).
    let (step_wall, step_self, step_calls) =
        step.as_ref().map(|e| (e.wall_ms, e.self_ms, e.calls)).unwrap_or((0.0, 0.0, 0));
    let attributed_pct =
        if step_wall > 0.0 { (step_wall - step_self) / step_wall * 100.0 } else { 0.0 };
    // Coverage: how much of the whole driver loop the `step` scope saw
    // (the remainder is `run_heavy_for` bookkeeping between steps).
    let covered_pct = if wall_ms > 0.0 { report.total_ms / wall_ms * 100.0 } else { 0.0 };
    let subsystems: Vec<_> = report.entries.iter().filter(|e| e.depth == 1).collect();
    let top_subsystem = subsystems
        .iter()
        .max_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
        .map(|e| (e.name.clone(), e.wall_ms));
    let telemetry_self_ms = wall_of_named(&report, "telemetry.record");
    let telemetry_self_pct =
        if step_wall > 0.0 { telemetry_self_ms / step_wall * 100.0 } else { 0.0 };

    let summary = artifact.section("attribution");
    let (top_name, top_wall) = top_subsystem.unwrap_or_else(|| ("none".to_string(), 0.0));
    summary
        .line(format!(
            "{step_calls} steps, {:.1} s profiled wall ({covered_pct:.1}% of the \
             {:.1} s driver loop)",
            report.total_ms / 1_000.0,
            wall_ms / 1_000.0,
        ))
        .line(format!(
            "phase attribution: {attributed_pct:.1}% of step time in named phases \
             (unattributed remainder {:.1} ms)",
            step_self,
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

    // The profiler must be a pure observer: a bare same-seed run's
    // telemetry is byte-identical to the profiled run's.
    let (bare, _) = storm_run(users, gap_ms, seed, sim_ms, false);
    let identical = bare.run_report("profile").to_json() == net.run_report("profile").to_json();
    artifact
        .section("observer check")
        .line(format!(
            "profiled vs bare same-seed telemetry identical: {}",
            if identical { "ok" } else { "FAIL" },
        ))
        .value("no_perturbation", f64::from(u8::from(identical)));

    if let Some(path) = profile_json.as_deref() {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => eprintln!("(profile written to {path})"),
            Err(err) => eprintln!("could not write {path}: {err}"),
        }
    }
    artifact.emit(output.quiet, output.json.as_deref());
}
