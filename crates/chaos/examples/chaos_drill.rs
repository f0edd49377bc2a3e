//! A guided chaos drill: one small deployment, a 12-minute storyline of
//! faults, and the invariant suite narrating what broke and what held.
//!
//! Run with `cargo run --release -p chaos --example chaos_drill`
//! (add `--quiet` / `--json <path>` for artifact emission). Exits with
//! status 1 if the counterfeit mint goes undetected.

use chaos::{ChaosPlan, Fault};
use sim_crypto::time::MINUTE_MS;
use telemetry::{Artifact, Flags};
use testnet::{report_of, Testnet, TestnetConfig};

fn main() {
    let output = Flags::from_env().output();
    let duration = 12 * MINUTE_MS;
    // The storyline: a congestion storm in minutes 2–4, a crashed
    // validator in minutes 5–7, flaky chunk delivery in minutes 7–9, and a
    // counterfeit mint at minute 10 that the ICS-20 conservation check
    // must flag.
    let plan = ChaosPlan::new(0xD811)
        .with(2 * MINUTE_MS, 4 * MINUTE_MS, Fault::CongestionStorm { load: 0.9 })
        .with(5 * MINUTE_MS, 7 * MINUTE_MS, Fault::ValidatorCrash { validator: 0 })
        .with(7 * MINUTE_MS, 9 * MINUTE_MS, Fault::ChunkDrop { probability: 0.3 })
        .at(
            10 * MINUTE_MS,
            Fault::CounterfeitMint {
                account: "mallory".into(),
                denom: "transfer/channel-0/wsol".into(),
                amount: 1_000_000_000,
            },
        );

    let mut artifact = Artifact::new("chaos drill — 12-minute fault storyline", "chaos_drill");
    let plan_section = artifact.section("plan");
    for line in serde_json::to_string_pretty(&plan).expect("plan serialises").lines() {
        plan_section.line(line);
    }

    let mut config = TestnetConfig::small(0xD811);
    config.workload.outbound_mean_gap_ms = 30_000;
    config.workload.inbound_mean_gap_ms = 45_000;
    config.chaos = plan;
    let mut net = Testnet::build(config);
    net.run_for(duration);

    let report = report_of(&net, duration);
    let stats = artifact.section(format!("after {} simulated minutes", duration / MINUTE_MS));
    stats
        .line(format!("completed sends:     {}", report.completed_sends))
        .value("completed_sends", report.completed_sends as f64);
    stats
        .line(format!("in flight at end:    {}", report.in_flight_sends))
        .value("in_flight_sends", report.in_flight_sends as f64);
    stats
        .line(format!("relayer failed jobs: {}", net.relayer.failed_jobs()))
        .value("failed_jobs", net.relayer.failed_jobs() as f64);
    stats
        .line(format!(
            "chunks lost / resent: {} / {}",
            net.relayer.lost_submissions(),
            net.relayer.resubmissions()
        ))
        .value("lost_submissions", net.relayer.lost_submissions() as f64)
        .value("resubmissions", net.relayer.resubmissions() as f64);

    let violations = net.invariant_violations().to_vec();
    let verdict = artifact.section(format!("invariant violations ({})", violations.len()));
    verdict.value("violations", violations.len() as f64);
    if violations.is_empty() {
        verdict.line("no invariant violations — the counterfeit mint went undetected?!");
        artifact.emit(output.quiet, output.json.as_deref());
        std::process::exit(1);
    }
    for violation in &violations {
        verdict.line(format!(
            "[{:>6.1} min] {} — {}",
            violation.at_ms as f64 / MINUTE_MS as f64,
            violation.invariant.name(),
            violation.details,
        ));
        verdict.line(format!("    active faults: {}", violation.faults.join(", ")));
        if !violation.linked_traces.is_empty() {
            let ids: Vec<String> =
                violation.linked_traces.iter().map(|id| format!("trace-{id}")).collect();
            verdict.line(format!("    in-flight packet traces: {}", ids.join(", ")));
        }
    }
    // Attach the full telemetry run report so the JSON artifact carries the
    // packet traces the violations point into.
    artifact.report = Some(net.run_report("chaos-drill"));
    artifact.emit(output.quiet, output.json.as_deref());
}
