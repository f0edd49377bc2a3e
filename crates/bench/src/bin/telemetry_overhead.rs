//! Telemetry overhead — what observing the simulation costs.
//!
//! Runs the same airdrop-storm scenario three times per repetition with
//! telemetry disabled, head-sampled (1-in-N packet traces, anomalies
//! always kept) and full, and reports what each mode's pipeline costs:
//! the median over `--reps` of the wall-clock difference to the disabled
//! run of the same repetition, in ms and in µs per journal line of the
//! full run. That is what the CI gate budgets — the pipeline's own cost,
//! which a faster simulator does not change. The percentage of the
//! (min-of-reps) blind run is printed beside it for the reader only: its
//! denominator shrinks with every simulator speed-up.
//!
//! Also audits the sampler itself: two same-seed sampled runs must
//! export byte-identical journals and run reports (the head-sampling
//! decision is a pure function of trace identity and seed), and the
//! sampled run's monitor-facing aggregates (counters, gauges, open-trace
//! status) must let the alert battery see exactly what the full run saw.
//!
//! Usage: `cargo run --release -p bench --bin telemetry_overhead -- \
//!   [--users N] [--gap-ms N] [--hours N] [--seed N] [--keep N] \
//!   [--reps N] [--quiet] [--json <path>]`

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
    net.run_heavy_for(sim_ms);
    (net, started.elapsed().as_secs_f64() * 1_000.0)
}

/// The full observable output of a run: journal plus structured report.
fn fingerprint(net: &Testnet) -> String {
    let mut out = net.telemetry().journal_jsonl();
    out.push_str(&net.run_report("telemetry_overhead").to_json());
    out
}

fn main() {
    let mut flags = Flags::from_env();
    let users = flags.value("--users", 1_000u32);
    let gap_ms = flags.value("--gap-ms", 30_000u64);
    let hours = flags.value("--hours", 2u64);
    let seed = flags.value("--seed", 2026u64);
    let keep_one_in = flags.value("--keep", 8u64);
    let reps = flags.value("--reps", 3u32).max(1);
    let output = flags.output();
    let sim_ms = hours.clamp(1, 24 * 28) * HOUR_MS;
    let modes = [
        ("disabled", TelemetryMode::Disabled),
        ("sampled", TelemetryMode::Sampled { keep_one_in }),
        ("full", TelemetryMode::Full),
    ];

    let mut artifact = Artifact::new(
        format!(
            "Telemetry overhead — airdrop storm, {users} users, {hours} simulated \
             hour(s), 1-in-{keep_one_in} sampling (seed {seed}, {reps} reps)"
        ),
        "telemetry_overhead",
    );

    // ------------------------------------------------------------------
    // Overhead sweep: the three modes interleaved within each repetition,
    // each mode's cost the median of its per-repetition differences.
    // ------------------------------------------------------------------
    let mut walls = [f64::MAX; 3];
    let mut costs: [Vec<f64>; 3] = Default::default();
    let mut journal_lines = [0u64; 3];
    let mut nets: Vec<Option<Testnet>> = vec![None, None, None];
    for _ in 0..reps {
        let mut disabled_ms = 0.0;
        for (i, (_, mode)) in modes.iter().enumerate() {
            let (net, wall_ms) = storm_run(users, gap_ms, seed, sim_ms, *mode);
            if i == 0 {
                disabled_ms = wall_ms;
            }
            walls[i] = walls[i].min(wall_ms);
            costs[i].push(wall_ms - disabled_ms);
            journal_lines[i] = net.telemetry().journal_jsonl().lines().count() as u64;
            nets[i] = Some(net);
        }
    }
    let sweep = artifact.section("pipeline cost vs disabled telemetry");
    sweep.line(format!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>14}",
        "mode", "wall s", "cost ms", "us/line", "of blind", "journal lines"
    ));
    let baseline = walls[0];
    let full_lines = journal_lines[2].max(1) as f64;
    let mut headline = Vec::new();
    for (i, (label, _)) in modes.iter().enumerate() {
        costs[i].sort_by(f64::total_cmp);
        let cost_ms = costs[i][costs[i].len() / 2];
        let cost_us_per_line = cost_ms * 1_000.0 / full_lines;
        let overhead_pct = (walls[i] / baseline.max(1e-9) - 1.0) * 100.0;
        headline.push(format!("{label} {cost_us_per_line:+.1}"));
        sweep
            .line(format!(
                "{label:<10} {:>10.2} {cost_ms:>10.1} {cost_us_per_line:>10.2} {overhead_pct:>9.1}% {:>14}",
                walls[i] / 1_000.0,
                journal_lines[i],
            ))
            .value(&format!("{label}_wall_ms"), walls[i])
            .value(&format!("{label}_cost_ms"), cost_ms)
            .value(&format!("{label}_cost_us_per_line"), cost_us_per_line)
            .value(&format!("{label}_overhead_pct"), overhead_pct)
            .value(&format!("{label}_journal_lines"), journal_lines[i] as f64);
    }
    sweep.line(format!(
        "headline: {} us per full-mode journal line (median of {reps} paired differences)",
        headline[1..].join(", "),
    ));

    // ------------------------------------------------------------------
    // Sampler audit: determinism, thinning, and monitor parity.
    // ------------------------------------------------------------------
    let audit = artifact.section("sampler audit");
    let sampled = nets[1].take().expect("sampled run kept");
    let full = nets[2].take().expect("full run kept");

    let (rerun, _) = storm_run(users, gap_ms, seed, sim_ms, TelemetryMode::Sampled { keep_one_in });
    let deterministic = fingerprint(&sampled) == fingerprint(&rerun);

    let sampling = sampled.telemetry().sampling().expect("sampled mode");
    let decided = sampling.kept + sampling.dropped + sampling.escalated;
    let thinning = if decided > 0 { sampling.dropped as f64 / decided as f64 * 100.0 } else { 0.0 };

    // Monitor parity: detectors read unsampled aggregates, so both runs
    // must fire the same alerts in the same order.
    let sampled_alerts = format!("{:?}", sampled.alert_records());
    let full_alerts = format!("{:?}", full.alert_records());
    let monitor_parity = sampled_alerts == full_alerts;

    audit
        .line(format!(
            "same-seed sampled reruns byte-identical: {}",
            if deterministic { "ok" } else { "FAIL" },
        ))
        .line(format!(
            "traces: {} kept, {} dropped, {} escalated (anomalies) — {thinning:.1}% thinned",
            sampling.kept, sampling.dropped, sampling.escalated,
        ))
        .line(format!(
            "monitor alert parity sampled vs full: {}",
            if monitor_parity { "ok" } else { "FAIL" },
        ))
        .value("sampled_deterministic", f64::from(u8::from(deterministic)))
        .value("traces_kept", sampling.kept as f64)
        .value("traces_dropped", sampling.dropped as f64)
        .value("traces_escalated", sampling.escalated as f64)
        .value("thinned_pct", thinning)
        .value("monitor_parity", f64::from(u8::from(monitor_parity)));

    artifact.emit(output.quiet, output.json.as_deref());
}
