//! The six gauges `Testnet::step` flushes are read behind change stamps
//! and written only on a change. After every step each must still equal a
//! direct read of its source, through halts of the relayer and of the
//! counterparty and a forced congestion storm.

use testnet::{ChaosPlan, Fault, Testnet, TestnetConfig, HOUR_MS};
use workload::TrafficConfig;

const MINUTE_MS: u64 = 60_000;

/// Each gauge's value against a direct read of its source.
fn gauges_against_sources(net: &Testnet) -> Vec<(&'static str, Option<f64>, Option<f64>)> {
    let telemetry = net.telemetry();
    let endpoints = net.endpoints();
    let guest = net.contract.borrow();
    let guest_client = guest.ibc().client(&endpoints.cp_client_on_guest).ok();
    let cp_client = net.cp.ibc().client(&endpoints.guest_client_on_cp).ok();
    let payer = net.relayer.payer();
    [
        ("relayer.backlog", net.relayer.backlog() as f64),
        ("guest.head", guest.head_height() as f64),
        ("cp.head", net.cp.height() as f64),
        ("relayer.payer.balance", net.host.bank().balance(&payer) as f64),
    ]
    .into_iter()
    .map(|(name, source)| (name, Some(source)))
    .chain([
        ("client.guest_on_cp", cp_client.map(|client| client.latest_height() as f64)),
        ("client.cp_on_guest", guest_client.map(|client| client.latest_height() as f64)),
    ])
    .map(|(name, source)| (name, telemetry.gauge_handle(name).get(), source))
    .collect()
}

#[test]
fn every_step_gauge_equals_its_source_after_every_step() {
    let mut config = TestnetConfig::small(4040);
    config.traffic = Some(TrafficConfig::airdrop_storm(200, 30_000));
    config.chaos = ChaosPlan::new(4040)
        .with(20 * MINUTE_MS, 35 * MINUTE_MS, Fault::RelayerHalt)
        .with(30 * MINUTE_MS, 50 * MINUTE_MS, Fault::CounterpartyHalt)
        .with(60 * MINUTE_MS, 75 * MINUTE_MS, Fault::CongestionStorm { load: 0.95 });
    let mut net = Testnet::build(config);
    let (mut steps, mut moves) = (0u64, [0u64; 6]);
    let mut previous = gauges_against_sources(&net);
    while net.host.now_ms() < 2 * HOUR_MS {
        net.step();
        steps += 1;
        let now = net.host.now_ms();
        let current = gauges_against_sources(&net);
        for (index, &(name, gauge, source)) in current.iter().enumerate() {
            assert_eq!(gauge, source, "{name} at {now} ms (step {steps})");
            moves[index] += u64::from(gauge != previous[index].1);
        }
        previous = current;
    }
    // Every gauge moved, and none on every step: the run exercised both
    // the re-read and the kept value of each source.
    for ((name, ..), moved) in previous.iter().zip(moves) {
        assert!(moved > 1 && moved < steps, "{name} moved on {moved} of {steps} steps");
    }
}
