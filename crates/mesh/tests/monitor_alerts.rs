//! The mesh detector battery end to end: a halted chain must fire the
//! per-chain staleness watchdog, a counterfeit voucher mint must fire
//! the supply-drift check, and a clean run must stay silent.

use chaos::{ChaosPlan, Fault};
use mesh::{Mesh, MeshConfig, PathPolicy};
use monitor::MonitorConfig;
use sim_crypto::time::MINUTE_MS;

/// Minutes-compressed thresholds matching the mesh's second-scale blocks.
fn fast_monitor() -> MonitorConfig {
    let mut config = MonitorConfig::small();
    config.cadence_ms = 30_000;
    config.debounce_ms = MINUTE_MS;
    config.hold_down_ms = 2 * MINUTE_MS;
    config.head_staleness_slo_ms = 3 * MINUTE_MS;
    config.stuck_packet_slo_ms = 5 * MINUTE_MS;
    config
}

#[test]
fn halted_chain_fires_chain_staleness_and_resolves() {
    let mut config = MeshConfig::line(3, 31);
    config.chaos = ChaosPlan::new(31).with(
        2 * MINUTE_MS,
        12 * MINUTE_MS,
        Fault::ChainHalt { chain: "chain-b".into() },
    );
    let mut net = Mesh::build(config).unwrap();
    net.enable_monitor(fast_monitor());
    net.run_for(20 * MINUTE_MS);

    let records = net.alert_records();
    let stale: Vec<_> = records
        .iter()
        .filter(|r| r.detector == "chain.staleness" && r.target == "mesh.chain-b.head")
        .collect();
    assert_eq!(stale.len(), 1, "alerts: {records:?}");
    // Head freezes at minute 2; 3 min SLO + 1 min debounce ⇒ fires by
    // minute ~7, well inside the 10-minute halt.
    assert!(stale[0].fired_ms < 8 * MINUTE_MS, "fired at {} ms", stale[0].fired_ms);
    assert!(stale[0].resolved_ms.is_some(), "resolves after the halt lifts");
    // The other chains kept producing: no alert about them.
    assert!(records.iter().all(|r| r.target != "mesh.chain-a.head"));
    assert!(records.iter().all(|r| r.target != "mesh.chain-c.head"));
}

#[test]
fn counterfeit_voucher_fires_mesh_supply_drift() {
    let mut net = Mesh::build(MeshConfig::line(3, 32)).unwrap();
    net.enable_monitor(fast_monitor());
    // A voucher denomination minted with no matching escrow on the peer:
    // chain-b's local channel back to chain-a.
    let counterfeit = format!("transfer/{}/tok-a", net.links()[0].b_channel);
    net.mint("chain-b", "mallory", &counterfeit, 5_000).unwrap();
    net.run_for(5 * MINUTE_MS);

    assert!(net.supply_drift() >= 5_000, "drift {}", net.supply_drift());
    let records = net.alert_records();
    let drift: Vec<_> = records.iter().filter(|r| r.detector == "supply.drift").collect();
    assert_eq!(drift.len(), 1, "alerts: {records:?}");
    assert_eq!(drift[0].target, "mesh.supply.drift");
    assert_eq!(drift[0].resolved_ms, None, "counterfeit backing never appears");
}

#[test]
fn clean_routed_transfer_raises_no_alerts() {
    let mut net = Mesh::build(MeshConfig::line(3, 33)).unwrap();
    net.enable_monitor(fast_monitor());
    net.mint("chain-a", "alice", "tok-a", 1_000).unwrap();
    let route = net
        .send_along_route(
            "chain-a",
            "chain-c",
            "alice",
            "carol",
            "tok-a",
            300,
            &PathPolicy::FewestHops,
        )
        .unwrap();
    assert!(net.run_until_settled(route, 10 * MINUTE_MS));
    net.run_for(10 * MINUTE_MS);
    assert_eq!(net.supply_drift(), 0);
    assert!(net.alert_records().is_empty(), "alerts: {:?}", net.alert_records());
}
