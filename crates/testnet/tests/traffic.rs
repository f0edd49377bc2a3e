//! Heavy-traffic mode: the workload generator driving the testnet must
//! deliver packets end to end, keep the invariant suite quiet, and replay
//! byte-identically under one seed.

use sim_crypto::time::HOUR_MS;
use testnet::{Testnet, TestnetConfig};
use workload::TrafficConfig;

fn traffic_net(seed: u64) -> Testnet {
    let mut config = TestnetConfig::small(seed);
    // ~1 arrival/min from a 300-user population, mixed directions.
    config.traffic = Some(TrafficConfig::steady(300, 60_000));
    Testnet::build(config)
}

/// Fingerprint of everything observable: the run report plus per-packet
/// lifecycle bounds.
fn report_of(net: &Testnet) -> String {
    net.run_report("traffic").to_json()
}

/// Packet lifecycles that ran to completion.
fn completed(net: &Testnet) -> usize {
    net.run_report("traffic").packets.iter().filter(|p| p.completed).count()
}

#[test]
fn traffic_mode_delivers_packets() {
    let mut net = traffic_net(11);
    net.run_for(6 * HOUR_MS);
    let completed = completed(&net);
    let generated = net.traffic().expect("traffic mode on").generated();
    assert!(generated >= 100, "expected a steady arrival stream, got {generated}");
    assert!(completed >= 100, "expected delivered packets, got {completed}");
    assert!(net.invariant_violations().is_empty(), "{:?}", net.invariant_violations());
}

#[test]
fn same_seed_heavy_runs_are_byte_identical() {
    let mut a = traffic_net(21);
    let mut b = traffic_net(21);
    a.run_for(3 * HOUR_MS);
    b.run_for(3 * HOUR_MS);
    assert_eq!(report_of(&a), report_of(&b), "same-seed runs diverged");
}

#[test]
fn different_seeds_diverge_in_traffic_mode() {
    let mut a = traffic_net(1);
    let mut b = traffic_net(2);
    a.run_for(2 * HOUR_MS);
    b.run_for(2 * HOUR_MS);
    assert_ne!(report_of(&a), report_of(&b));
}

#[test]
fn every_traffic_shape_delivers_accounts_and_replays() {
    let shapes = [
        TrafficConfig::steady,
        TrafficConfig::diurnal,
        TrafficConfig::flash_crowd,
        TrafficConfig::airdrop_storm,
    ];
    for traffic in shapes.map(|shape| shape(100, 120_000)) {
        let name = traffic.shape_label();
        let run = || {
            let mut config = TestnetConfig::small(2026);
            config.traffic = Some(traffic.clone());
            let mut net = Testnet::build(config);
            net.run_for(2 * HOUR_MS);
            net
        };
        let net = run();
        assert!(completed(&net) >= 10, "{name}: only {} delivered", completed(&net));
        let ledger = net.delivery_accounting().expect("traffic mode keeps the ledger");
        assert_eq!(ledger.unexplained(), 0, "{name}: {ledger:?}");
        assert!(net.invariant_violations().is_empty(), "{name}: {:?}", net.invariant_violations());
        assert_eq!(report_of(&net), report_of(&run()), "{name}: same-seed reruns diverged");
    }
}
