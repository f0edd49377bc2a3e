//! Latency attribution — the causal trace graph and critical-path
//! attribution engine over both deployment shapes.
//!
//! Four parts:
//! 1. Stage attribution on the single-link testnet under a flash-crowd
//!    workload: every completed packet lifecycle becomes a causal graph,
//!    its critical path is partitioned into named stages (mempool wait,
//!    finality wait, relayer delivery, ack write, …), and the per-stage
//!    table reports totals, p50/p95/max and the share of summed
//!    end-to-end time. Gate: the named stages must explain ≥95% of the
//!    end-to-end time (`coverage_pct`), and the shares must sum to ~100%
//!    (the critical path partitions each packet's interval).
//! 2. Per-app attribution on a 4-chain mesh running an even
//!    transfer/NFT/ICA mix through stacked middleware: per-app
//!    end-to-end percentiles and each app's dominant stage.
//! 3. Determinism: both parts run twice; the attribution JSON, every
//!    per-packet causal-graph rendering and the collapsed-stack output
//!    must match byte for byte.
//! 4. Pure observation: building graphs and attribution reads a finished
//!    run report — re-rendering the report afterwards must produce the
//!    same bytes as before.
//!
//! Usage: `cargo run --release -p bench --bin latency_attribution -- \
//!   [--users N] [--hours N] [--seed N] [--quiet] [--json <path>]`

use mesh::{Mesh, MeshConfig, TrafficOutcome};
use telemetry::{AttributionReport, CausalGraph, Flags, RunReport};
use testnet::{Artifact, Testnet, TestnetConfig, HOUR_MS};
use workload::{AppMix, TrafficConfig};

/// One attributed run: the source report plus everything derived from it.
struct AttributedRun {
    report_json: String,
    attribution: AttributionReport,
    attribution_json: String,
    /// Every completed packet's causal-graph rendering, concatenated in
    /// report order — the graph-level determinism fingerprint.
    graphs_text: String,
    collapsed: String,
    /// Report bytes re-rendered *after* graph + attribution construction;
    /// must equal `report_json` (the engine is a pure observer).
    report_json_after: String,
}

fn attribute(report: &RunReport) -> AttributedRun {
    let report_json = report.to_json();
    let attribution = AttributionReport::from_report(report);
    let graphs_text = report
        .packets
        .iter()
        .map(|p| CausalGraph::from_packet(p).render_text())
        .collect::<Vec<_>>()
        .join("\n");
    let collapsed = attribution.collapsed_stacks(report);
    AttributedRun {
        report_json,
        attribution_json: attribution.to_json(),
        attribution,
        graphs_text,
        collapsed,
        report_json_after: report.to_json(),
    }
}

/// Part 1 run: flash-crowd traffic over the single-link testnet.
fn testnet_run(users: u32, hours: u64, seed: u64) -> AttributedRun {
    let mut config = TestnetConfig::small(seed);
    config.traffic = Some(TrafficConfig::flash_crowd(users, 30_000));
    let mut net = Testnet::build(config);
    net.run_heavy_for(hours * HOUR_MS);
    attribute(&net.run_report("latency_attribution"))
}

/// Part 2 run: even transfer/NFT/ICA mix over a 4-chain line mesh.
fn mesh_run(users: u32, hours: u64, seed: u64) -> (AttributedRun, TrafficOutcome) {
    let config = MeshConfig::line(4, seed);
    let mut net = Mesh::build(config).expect("line topologies validate");
    let traffic = TrafficConfig::airdrop_storm(users, 60_000).with_app_mix(AppMix::even());
    let outcome = net
        .run_with_traffic(&traffic, seed, hours * HOUR_MS, 2 * HOUR_MS)
        .expect("a 4-chain line accepts traffic");
    (attribute(&net.run_report("latency_attribution")), outcome)
}

fn main() {
    let mut flags = Flags::from_env();
    let users = flags.value("--users", 400u32);
    let hours = flags.value("--hours", 2u64).clamp(1, 24);
    let seed = flags.value("--seed", 2026u64);
    let output = flags.output();

    let mut artifact = Artifact::new(
        format!(
            "Latency attribution — causal trace graphs and critical-path stages, \
             {users} users, {hours} simulated hour(s) (seed {seed})"
        ),
        "latency_attribution",
    );

    // ------------------------------------------------------------------
    // Part 1: per-stage attribution on the testnet (flash crowd).
    // ------------------------------------------------------------------
    let first = testnet_run(users, hours, seed);
    let att = &first.attribution;
    let section = artifact.section("per-stage critical-path attribution (testnet, flash crowd)");
    section.line(format!(
        "{} packets, {} completed ({} timed out), mean end-to-end {:.1} s",
        att.packets,
        att.completed,
        att.timed_out,
        att.mean_end_to_end_ms / 1_000.0,
    ));
    section.line(format!(
        "{:<16} {:>8} {:>10} {:>9} {:>9} {:>9} {:>7}",
        "stage", "packets", "total s", "p50 s", "p95 s", "max s", "share"
    ));
    for stage in &att.stages {
        section
            .line(format!(
                "{:<16} {:>8} {:>10.1} {:>9.1} {:>9.1} {:>9.1} {:>6.1}%",
                stage.stage,
                stage.packets,
                stage.total_ms as f64 / 1_000.0,
                stage.p50_ms as f64 / 1_000.0,
                stage.p95_ms as f64 / 1_000.0,
                stage.max_ms as f64 / 1_000.0,
                stage.share_pct,
            ))
            .value(&format!("stage_{}_share_pct", stage.stage), stage.share_pct)
            .value(&format!("stage_{}_p95_ms", stage.stage), stage.p95_ms as f64);
    }
    let dominant =
        att.dominant_stage().map(|s| s.stage.clone()).unwrap_or_else(|| "none".to_string());
    let coverage = att.coverage_pct();
    let share_sum = att.share_sum_pct();
    section
        .line(format!(
            "coverage: {coverage:.2}% named, shares sum to {share_sum:.2}%, \
             dominant stage: {dominant}"
        ))
        .value("packets", att.packets as f64)
        .value("completed", att.completed as f64)
        .value("mean_end_to_end_ms", att.mean_end_to_end_ms)
        .value("coverage_pct", coverage)
        .value("share_sum_pct", share_sum)
        .value("collapsed_stack_lines", first.collapsed.lines().count() as f64);

    // ------------------------------------------------------------------
    // Part 2: per-app attribution on the mesh (even 3-way app mix).
    // ------------------------------------------------------------------
    let (mesh_first, outcome) = mesh_run(users.min(96), hours.max(2), seed);
    let mesh_att = &mesh_first.attribution;
    let section = artifact.section("per-app end-to-end latency (4-chain mesh, transfer/nft/ica)");
    section.line(format!(
        "{} routed legs attributed ({} traffic deliveries), mesh coverage {:.2}%",
        mesh_att.completed,
        outcome.delivered,
        mesh_att.coverage_pct(),
    ));
    let mut apps_present = true;
    for app in ["transfer", "nft", "ica"] {
        match mesh_att.app(app) {
            Some(g) => {
                section
                    .line(format!(
                        "{:<10} {:>6} packets  p50 {:>7.1} s  p95 {:>7.1} s  max {:>7.1} s  \
                         dominant: {}",
                        g.key,
                        g.packets,
                        g.p50_ms as f64 / 1_000.0,
                        g.p95_ms as f64 / 1_000.0,
                        g.max_ms as f64 / 1_000.0,
                        g.dominant_stage,
                    ))
                    .value(&format!("app_{app}_packets"), g.packets as f64)
                    .value(&format!("app_{app}_p50_ms"), g.p50_ms as f64)
                    .value(&format!("app_{app}_p95_ms"), g.p95_ms as f64)
                    .value(&format!("app_{app}_max_ms"), g.max_ms as f64);
            }
            None => {
                section.line(format!("{app:<10} MISSING — no completed packets attributed"));
                apps_present = false;
            }
        }
    }
    section
        .value("apps_present", f64::from(u8::from(apps_present)))
        .value("mesh_coverage_pct", mesh_att.coverage_pct());

    // ------------------------------------------------------------------
    // Parts 3 + 4: determinism and pure observation.
    // ------------------------------------------------------------------
    let section = artifact.section("determinism + pure observation");
    let second = testnet_run(users, hours, seed);
    let (mesh_second, _) = mesh_run(users.min(96), hours.max(2), seed);
    let testnet_identical = first.attribution_json == second.attribution_json
        && first.graphs_text == second.graphs_text
        && first.collapsed == second.collapsed;
    let mesh_identical = mesh_first.attribution_json == mesh_second.attribution_json
        && mesh_first.graphs_text == mesh_second.graphs_text
        && mesh_first.collapsed == mesh_second.collapsed;
    let determinism_ok = testnet_identical && mesh_identical;
    let no_perturbation = [&first, &second, &mesh_first, &mesh_second]
        .iter()
        .all(|run| run.report_json == run.report_json_after);
    section
        .line(format!(
            "second runs byte-identical (graphs + attribution + collapsed stacks): \
             testnet {testnet_identical}, mesh {mesh_identical}"
        ))
        .line(format!("report bytes unchanged by attribution (pure observer): {no_perturbation}"))
        .value("determinism_ok", f64::from(u8::from(determinism_ok)))
        .value("no_perturbation", f64::from(u8::from(no_perturbation)));

    artifact.emit(output.quiet, output.json.as_deref());
}
