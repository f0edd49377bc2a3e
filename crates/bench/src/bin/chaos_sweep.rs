//! Chaos sweep — the same small deployment replayed under a battery of
//! fault scenarios, with the invariant suite auditing every run.
//!
//! Each row pairs a `ChaosPlan` with the resulting throughput, latency,
//! relayer recovery counters and invariant verdict, so a regression in
//! fault handling (or a new false-positive invariant) is visible at a
//! glance.
//!
//! Usage: `cargo run --release -p bench --bin chaos_sweep -- [--minutes N] [--seed N] [--quiet] [--json <path>]`

use telemetry::Flags;
use testnet::{
    quantile, report_of, Artifact, ChaosPlan, Fault, InvariantViolation, Section, Testnet,
    TestnetConfig,
};

const MINUTE_MS: u64 = 60 * 1_000;

struct Scenario {
    name: &'static str,
    plan: ChaosPlan,
}

fn scenarios(seed: u64, duration_ms: u64) -> Vec<Scenario> {
    let third = duration_ms / 3;
    vec![
        Scenario { name: "baseline", plan: ChaosPlan::new(seed) },
        Scenario {
            // Two of the small config's four equal-stake validators crash:
            // the survivors hold 200 of 400 stake, under the 2/3 quorum, so
            // finalisation stalls for the window (§V-C writ small).
            name: "validator-crash",
            plan: ChaosPlan::new(seed)
                .with(third, 2 * third, Fault::ValidatorCrash { validator: 0 })
                .with(third, 2 * third, Fault::ValidatorCrash { validator: 1 }),
        },
        Scenario {
            name: "latency-spike",
            plan: ChaosPlan::new(seed).with(
                third,
                2 * third,
                Fault::ValidatorLatencySpike { validator: 0, factor: 8.0 },
            ),
        },
        Scenario {
            name: "congestion-storm",
            plan: ChaosPlan::new(seed)
                .with(third, 2 * third, Fault::CongestionStorm { load: 0.92 })
                .with(third, 2 * third, Fault::InclusionFailureBurst { probability: 0.2 }),
        },
        Scenario {
            name: "relayer-halt",
            plan: ChaosPlan::new(seed).with(third, third + 4 * MINUTE_MS, Fault::RelayerHalt),
        },
        Scenario {
            name: "chunk-drop",
            plan: ChaosPlan::new(seed).with(0, duration_ms, Fault::ChunkDrop { probability: 0.2 }),
        },
        Scenario {
            name: "chunk-dup+reorder",
            plan: ChaosPlan::new(seed)
                .with(0, duration_ms, Fault::ChunkDuplicate { probability: 0.2 })
                .with(0, duration_ms, Fault::ChunkReorder { probability: 0.2 }),
        },
        Scenario {
            name: "counterfeit-mint",
            plan: ChaosPlan::new(seed).at(
                third,
                Fault::CounterfeitMint {
                    account: "mallory".into(),
                    denom: "transfer/channel-0/wsol".into(),
                    amount: 1_000_000_000,
                },
            ),
        },
    ]
}

fn violation_summary(violations: &[InvariantViolation]) -> String {
    if violations.is_empty() {
        return "none".into();
    }
    let mut kinds: Vec<String> =
        violations.iter().map(|v| v.invariant.name().to_string()).collect();
    kinds.sort();
    kinds.dedup();
    format!("{} ({})", violations.len(), kinds.join(", "))
}

/// Runs one plan over the small deployment and appends its result row.
fn run_row(section: &mut Section, name: &str, seed: u64, duration_ms: u64, plan: ChaosPlan) {
    let mut config = TestnetConfig::small(seed);
    config.workload.outbound_mean_gap_ms = 45_000;
    config.workload.inbound_mean_gap_ms = 60_000;
    config.chaos = plan;
    let mut net = Testnet::build(config);
    net.run_for(duration_ms);
    let report = report_of(&net, duration_ms);
    let latencies = &report.fig2_send_latency_s;
    let (p50, p99) = if latencies.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (quantile(latencies, 0.50), quantile(latencies, 0.99))
    };
    section
        .line(format!(
            "{name:<18} {:>6} {p50:>8.2} {p99:>8.2} {:>6} {:>6} {:>7}  {}",
            report.completed_sends,
            net.relayer.failed_jobs(),
            net.relayer.lost_submissions(),
            net.relayer.resubmissions(),
            violation_summary(net.invariant_violations()),
        ))
        .value(&format!("{name}_sends"), report.completed_sends as f64)
        .value(&format!("{name}_p50_s"), p50)
        .value(&format!("{name}_violations"), net.invariant_violations().len() as f64);
}

fn main() {
    let mut flags = Flags::from_env();
    let minutes = flags.value("--minutes", 10u64);
    let seed = flags.value("--seed", 7u64);
    let output = flags.output();
    let duration_ms = minutes * MINUTE_MS;

    let mut artifact = Artifact::new(
        format!("Chaos sweep — {minutes} simulated minutes per scenario (seed {seed})"),
        "chaos_sweep",
    );
    let battery = artifact.section("fault battery");
    battery.line(format!(
        "{:<18} {:>6} {:>8} {:>8} {:>6} {:>6} {:>7}  violations",
        "scenario", "sends", "p50 s", "p99 s", "fail", "lost", "resub"
    ));
    for scenario in scenarios(seed, duration_ms) {
        run_row(battery, scenario.name, seed, duration_ms, scenario.plan);
    }
    battery
        .line("")
        .line("baseline must show zero violations; counterfeit-mint must show")
        .line("an ics20-conservation breach — anything else is a regression.");

    // Intensity sweep: chunk-drop probability against delivery latency and
    // loss/recovery counters, one run per step.
    let sweep = artifact.section("chunk-drop intensity sweep");
    sweep.line(format!(
        "{:<18} {:>6} {:>8} {:>8} {:>6} {:>6} {:>7}  violations",
        "p", "sends", "p50 s", "p99 s", "fail", "lost", "resub"
    ));
    for step in 0..=4u32 {
        let probability = f64::from(step) * 0.125;
        let mut plan = ChaosPlan::new(seed);
        if probability > 0.0 {
            plan = plan.with(0, duration_ms, Fault::ChunkDrop { probability });
        }
        let label = format!("p={probability:.3}");
        run_row(sweep, &label, seed, duration_ms, plan);
    }

    artifact.emit(output.quiet, output.json.as_deref());
}
