//! Heavy-traffic mode: the workload generator driving the testnet through
//! the discrete-event fast path must deliver packets end to end, keep the
//! invariant suite quiet, and replay byte-identically under one seed.

use testnet::{Testnet, TestnetConfig, HOUR_MS};
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
fn traffic_mode_delivers_packets_on_the_fast_path() {
    let mut net = traffic_net(11);
    net.run_heavy_for(6 * HOUR_MS);
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
    a.run_heavy_for(3 * HOUR_MS);
    b.run_heavy_for(3 * HOUR_MS);
    assert_eq!(report_of(&a), report_of(&b), "fast-path runs diverged under one seed");
}

#[test]
fn different_seeds_diverge_in_traffic_mode() {
    let mut a = traffic_net(1);
    let mut b = traffic_net(2);
    a.run_heavy_for(2 * HOUR_MS);
    b.run_heavy_for(2 * HOUR_MS);
    assert_ne!(report_of(&a), report_of(&b));
}

/// `step` calls and completed lifecycles of one steady run on either
/// driver loop.
fn steady_run(traffic: TrafficConfig, sim_ms: u64, heavy: bool) -> (u64, usize) {
    let mut config = TestnetConfig::small(2026);
    config.traffic = Some(traffic);
    config.profile = true;
    let mut net = Testnet::build(config);
    if heavy {
        net.run_heavy_for(sim_ms);
    } else {
        net.run_for(sim_ms);
    }
    let steps = net.profile_report().entry("step").expect("step is profiled").calls;
    (steps, completed(&net))
}

/// What the discrete-event loop is for, stated in work rather than in wall
/// time. Quiet (one arrival every ~5 minutes): idle stretches are crossed
/// in one clock jump, so the same horizon takes strictly fewer harness
/// steps than slot-by-slot polling. Loaded (~1 arrival a second): both
/// loops are bound by the same mandatory work, and the event loop must not
/// take more steps. Either way it delivers no less than the floor.
#[test]
fn event_loop_takes_fewer_steps_than_polling_when_quiet_and_no_more_when_loaded() {
    let quiet = || TrafficConfig::steady(50, 300_000);
    let (polled_steps, polled_completed) = steady_run(quiet(), 4 * HOUR_MS, false);
    let (event_steps, event_completed) = steady_run(quiet(), 4 * HOUR_MS, true);
    assert!(event_steps < polled_steps, "quiet: event {event_steps} vs polled {polled_steps}");
    assert!(polled_completed >= 30 && event_completed >= 30, "quiet: delivered too few");

    let loaded = || TrafficConfig::steady(300, 1_000);
    let (polled_steps, polled_completed) = steady_run(loaded(), HOUR_MS / 3, false);
    let (event_steps, event_completed) = steady_run(loaded(), HOUR_MS / 3, true);
    assert!(event_steps <= polled_steps, "loaded: event {event_steps} vs polled {polled_steps}");
    assert!(polled_completed >= 200 && event_completed >= 200, "loaded: delivered too few");
}

#[test]
fn every_bench_shape_delivers_accounts_and_replays_on_the_fast_path() {
    for (name, traffic) in TrafficConfig::bench_shapes(100, 120_000) {
        let run = || {
            let mut config = TestnetConfig::small(2026);
            config.traffic = Some(traffic.clone());
            let mut net = Testnet::build(config);
            net.run_heavy_for(2 * HOUR_MS);
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
