//! End-to-end monitor tests against the full testnet harness: injected
//! faults must surface as alerts with the documented lifecycle, and the
//! whole alert stream must be deterministic.

use chaos::{ChaosPlan, Fault};
use monitor::{score, MonitorConfig};
use sim_crypto::time::MINUTE_MS;
use testnet::{Testnet, TestnetConfig};

/// Minutes-compressed monitor thresholds so a fault scenario fits in a
/// sub-hour simulated run.
fn fast_monitor() -> MonitorConfig {
    let mut config = MonitorConfig::small();
    config.cadence_ms = 30_000;
    config.debounce_ms = 2 * MINUTE_MS;
    config.hold_down_ms = 3 * MINUTE_MS;
    config.head_staleness_slo_ms = 5 * MINUTE_MS;
    config.client_staleness_slo_ms = 10 * MINUTE_MS;
    config.stuck_packet_slo_ms = 10 * MINUTE_MS;
    config
}

/// Two of the small config's four equal-stake validators crash for
/// 12 minutes: the survivors hold 200 of 400 stake, below the 2/3
/// quorum, so guest finalisation stalls for the window.
fn outage_config(seed: u64) -> TestnetConfig {
    let mut config = TestnetConfig::small(seed);
    config.monitor = fast_monitor();
    config.chaos = ChaosPlan::new(seed)
        .with(10 * MINUTE_MS, 22 * MINUTE_MS, Fault::ValidatorCrash { validator: 0 })
        .with(10 * MINUTE_MS, 22 * MINUTE_MS, Fault::ValidatorCrash { validator: 1 });
    config
}

fn run_outage(seed: u64) -> Testnet {
    let mut net = Testnet::build(outage_config(seed));
    net.run_for(35 * MINUTE_MS);
    net
}

#[test]
fn quorum_stall_fires_staleness_then_resolves() {
    let net = run_outage(11);
    let staleness: Vec<_> = net
        .alert_records()
        .iter()
        .filter(|r| r.detector == "client.staleness" && r.target == "guest.head")
        .collect();
    assert_eq!(staleness.len(), 1, "alerts: {:?}", net.alert_records());
    let alert = staleness[0];
    // The head freezes when the crash starts at minute 10; the 5-minute
    // SLO plus the 2-minute debounce put the fire inside the window and
    // far before its end.
    assert!(alert.fired_ms >= 16 * MINUTE_MS, "fired at {} ms", alert.fired_ms);
    assert!(alert.fired_ms < 22 * MINUTE_MS, "fired at {} ms", alert.fired_ms);
    // Recovery at minute 22 resolves it after the 3-minute hold-down.
    let resolved = alert.resolved_ms.expect("alert resolves after the outage");
    assert!((25 * MINUTE_MS..35 * MINUTE_MS).contains(&resolved), "resolved {resolved} ms");

    // Scored against the injected plan: the crash is detected, with an
    // MTTD of roughly SLO + debounce — a fraction of the 12 min outage.
    let report = score(&net.config().chaos, net.alert_records(), 10 * MINUTE_MS);
    let row = report.kind("validator-crash").expect("crash windows were injected");
    assert_eq!(row.recall, 1.0, "{row:?}");
    let mttd = row.mean_time_to_detect_ms.expect("detected");
    assert!(mttd <= 8 * MINUTE_MS, "MTTD {mttd} ms");
    assert!(row.precision > 0.99, "{row:?}");
}

#[test]
fn counterfeit_mint_fires_supply_drift() {
    let mut config = TestnetConfig::small(23);
    config.monitor = fast_monitor();
    config.chaos = ChaosPlan::new(23).at(
        5 * MINUTE_MS,
        Fault::CounterfeitMint {
            account: "mallory".into(),
            denom: "transfer/channel-0/wsol".into(),
            amount: 1_000_000_000,
        },
    );
    let mut net = Testnet::build(config);
    net.run_for(15 * MINUTE_MS);

    let drift: Vec<_> =
        net.alert_records().iter().filter(|r| r.detector == "supply.drift").collect();
    assert_eq!(drift.len(), 1, "alerts: {:?}", net.alert_records());
    // Mint at minute 5, audit within a minute, 2-minute debounce.
    assert!(drift[0].fired_ms <= 9 * MINUTE_MS, "fired at {} ms", drift[0].fired_ms);
    // Counterfeit vouchers never regain backing: the alert stays firing.
    assert_eq!(drift[0].resolved_ms, None);

    let report = score(&net.config().chaos, net.alert_records(), 10 * MINUTE_MS);
    let row = report.kind("counterfeit-mint").expect("mint was injected");
    assert_eq!(row.recall, 1.0, "{row:?}");
    assert!(row.mean_time_to_detect_ms.unwrap() <= 4 * MINUTE_MS, "{row:?}");
}

#[test]
fn healthy_run_fires_no_alerts() {
    let mut config = TestnetConfig::small(5);
    config.monitor = fast_monitor();
    let mut net = Testnet::build(config);
    net.run_for(20 * MINUTE_MS);
    assert!(net.alert_records().is_empty(), "alerts: {:?}", net.alert_records());
    assert!(net.run_report("t").alerts.is_empty());
}

#[test]
fn same_seed_same_plan_is_byte_identical() {
    let a = run_outage(42);
    let b = run_outage(42);

    // The journaled alert transitions agree exactly…
    assert_eq!(a.run_report("t").alerts, b.run_report("t").alerts);
    assert!(!a.run_report("t").alerts.is_empty(), "scenario must alert");
    // …as do the fired records and the serialized evaluation report (the
    // payload of BENCH_monitor_eval.json).
    assert_eq!(a.alert_records(), b.alert_records());
    let eval_a = serde_json::to_string(&score(&a.config().chaos, a.alert_records(), 0)).unwrap();
    let eval_b = serde_json::to_string(&score(&b.config().chaos, b.alert_records(), 0)).unwrap();
    assert_eq!(eval_a, eval_b);
}
