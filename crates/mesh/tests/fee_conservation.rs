//! ICS-29 fee conservation under fire: every escrowed fee unit must end
//! up paid to a relayer, refunded to the payer, or still registered as
//! pending — with the escrow account holding exactly the pending sum —
//! no matter how many routes a chaos fault forces onto the timeout
//! path. And the full application stacks (fees + app mix + monitor)
//! must stay byte-identically replayable under the same seed.

use apps::PacketFee;
use chaos::{ChaosPlan, Fault};
use mesh::{Mesh, MeshConfig, TrafficOutcome};
use monitor::MonitorConfig;
use sim_crypto::time::MINUTE_MS;
use workload::{AppMix, TrafficConfig};

/// A fee-charging 3-chain line whose middle chain goes dark mid-run —
/// the mesh-scale analogue of the paper's day-11 operator outage.
fn outage_run(seed: u64) -> (Mesh, TrafficOutcome) {
    let mut config = MeshConfig::line(3, seed);
    config.hop_timeout_ms = 2 * MINUTE_MS;
    config.packet_fee = Some(PacketFee::flat(5, 3, 2));
    config.chaos = ChaosPlan::new(seed).with(
        10 * MINUTE_MS,
        20 * MINUTE_MS,
        Fault::ChainHalt { chain: "chain-b".into() },
    );
    let mut net = Mesh::build(config).unwrap();
    // Minutes-compressed monitor thresholds, matching the mesh's
    // second-scale blocks (same knobs as the monitor_alerts tests).
    let mut monitor = MonitorConfig::small();
    monitor.cadence_ms = 30_000;
    monitor.debounce_ms = MINUTE_MS;
    monitor.hold_down_ms = 2 * MINUTE_MS;
    monitor.head_staleness_slo_ms = 3 * MINUTE_MS;
    monitor.stuck_packet_slo_ms = 5 * MINUTE_MS;
    net.enable_monitor(monitor);
    let traffic = TrafficConfig::steady(30, 20_000);
    let outcome = net.run_with_traffic(&traffic, seed, 30 * MINUTE_MS, 15 * MINUTE_MS).unwrap();
    (net, outcome)
}

#[test]
fn fees_conserve_through_a_mid_run_outage() {
    let (net, outcome) = outage_run(51);
    assert!(outcome.delivered > 0, "routes before/after the outage must deliver");
    assert!(outcome.refunded > 0, "the outage must force some routes onto the timeout path");

    let totals = net.fee_totals();
    assert!(totals.escrowed > 0, "every routed transfer escrows a fee");
    assert!(totals.paid > 0, "delivered routes pay their relayers");
    assert!(totals.refunded > 0, "timed-out routes refund recv+ack fees to the payer");
    assert_eq!(
        totals.escrowed,
        totals.paid + totals.refunded + totals.pending,
        "every escrowed unit must be accounted for: {totals:?}"
    );
    assert_eq!(net.fee_imbalance(), 0, "the escrow account must hold exactly the pending sum");
}

#[test]
fn fee_conservation_detector_stays_quiet_on_a_conserving_run() {
    let (net, _) = outage_run(52);
    let fee_alerts = net
        .alert_records()
        .iter()
        .filter(|record| record.detector.contains("fee-conservation"))
        .count();
    assert_eq!(fee_alerts, 0, "a conserving run must not trip the fee detector");
    // The outage itself is real, though: the monitor must have seen
    // *something* (staleness or stuck packets) while chain-b was dark.
    assert!(
        !net.alert_records().is_empty(),
        "a 10-minute chain halt must raise at least one alert"
    );
}

/// The full stacked configuration: fees on, traffic split across all
/// three applications, monitor ticking.
fn stacked_run(seed: u64) -> (TrafficOutcome, String) {
    let mut config = MeshConfig::ring(4, seed);
    config.hop_timeout_ms = 2 * MINUTE_MS;
    config.packet_fee = Some(PacketFee::flat(5, 3, 2));
    let mut net = Mesh::build(config).unwrap();
    net.enable_monitor(MonitorConfig::small());
    let traffic = TrafficConfig::steady(40, 20_000).with_app_mix(AppMix::even());
    let outcome = net.run_with_traffic(&traffic, seed, 10 * MINUTE_MS, 10 * MINUTE_MS).unwrap();
    assert_eq!(net.fee_imbalance(), 0);
    assert_eq!(net.nft_supply_drift(), 0);
    (outcome, net.run_report("stacked").to_json())
}

#[test]
fn stacked_apps_replay_byte_identically_under_the_same_seed() {
    let (outcome_a, report_a) = stacked_run(2026);
    let (outcome_b, report_b) = stacked_run(2026);
    assert_eq!(outcome_a, outcome_b);
    assert_eq!(report_a, report_b, "fees + app mix + monitor must not perturb determinism");
}

#[test]
fn fee_free_config_is_unchanged_by_the_fee_middleware_being_stacked() {
    // `packet_fee: None` must behave exactly like the pre-fee mesh: the
    // middleware is inert, so no fee state appears anywhere.
    let mut config = MeshConfig::line(3, 53);
    config.hop_timeout_ms = 2 * MINUTE_MS;
    let mut net = Mesh::build(config).unwrap();
    let traffic = TrafficConfig::steady(20, 20_000);
    let outcome = net.run_with_traffic(&traffic, 53, 10 * MINUTE_MS, 10 * MINUTE_MS).unwrap();
    assert!(outcome.delivered > 0);
    let totals = net.fee_totals();
    assert_eq!((totals.escrowed, totals.paid, totals.refunded, totals.pending), (0, 0, 0, 0));
    assert_eq!(net.fee_imbalance(), 0);
}
