//! The causal trace graphs and the latency-attribution tables are pure
//! functions of a run's telemetry: a same-seed rerun — even one stressed
//! by a flash crowd and a mid-run link outage — must reproduce every
//! graph rendering, the attribution JSON and the collapsed-stack output
//! byte for byte.

use chaos::{ChaosPlan, Fault};
use mesh::{Mesh, MeshConfig};
use sim_crypto::time::HOUR_MS;
use telemetry::{AttributionReport, CausalGraph};
use workload::{AppMix, TrafficConfig};

/// Flash-crowd traffic over a 3-chain line with the B<>C link cut for
/// half an hour mid-surge; returns every determinism fingerprint the
/// attribution engine produces.
fn stressed_run(seed: u64) -> (String, String, String, f64) {
    let mut config = MeshConfig::line(3, seed);
    config.chaos = ChaosPlan::new(seed).with(
        30 * 60 * 1_000,
        60 * 60 * 1_000,
        Fault::LinkDown { link: "chain-b<>chain-c".into() },
    );
    let mut net = Mesh::build(config).expect("line topologies validate");
    let traffic = TrafficConfig::flash_crowd(64, 60_000).with_app_mix(AppMix::even());
    net.run_with_traffic(&traffic, seed, 2 * HOUR_MS, HOUR_MS).expect("traffic routes");

    let report = net.run_report("attribution_determinism");
    let graphs = report
        .packets
        .iter()
        .map(|p| CausalGraph::from_packet(p).render_text())
        .collect::<Vec<_>>()
        .join("\n");
    let attribution = AttributionReport::from_report(&report);
    let collapsed = attribution.collapsed_stacks(&report);
    (graphs, attribution.to_json(), collapsed, attribution.coverage_pct())
}

#[test]
fn graphs_and_attribution_are_byte_identical_across_reruns() {
    let (graphs_a, attribution_a, collapsed_a, coverage) = stressed_run(77);
    let (graphs_b, attribution_b, collapsed_b, _) = stressed_run(77);
    assert!(!graphs_a.is_empty(), "the flash crowd must complete some lifecycles");
    assert_eq!(graphs_a, graphs_b, "causal-graph renderings diverged across reruns");
    assert_eq!(attribution_a, attribution_b, "attribution JSON diverged across reruns");
    assert_eq!(collapsed_a, collapsed_b, "collapsed stacks diverged across reruns");
    // The named stages must still explain the bulk of the end-to-end
    // time even with a link down mid-surge.
    assert!(coverage >= 95.0, "stage coverage {coverage:.1}% under chaos");
}

#[test]
fn different_seeds_produce_different_traffic() {
    let (graphs_a, ..) = stressed_run(77);
    let (graphs_b, ..) = stressed_run(78);
    assert_ne!(graphs_a, graphs_b, "seeds must actually steer the workload");
}
