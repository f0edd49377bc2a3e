//! Determinism regression: the whole deployment — host chain, guest
//! contract, counterparty, relayer, workload, chaos controller — must be a
//! pure function of the configuration seed. Two week-long runs with the
//! same seed have to produce byte-identical metrics JSON; any hidden
//! nondeterminism (iteration-order leaks, stray entropy, chaos machinery
//! consuming RNG at baseline) shows up here as a diff.

use sim_crypto::time::{DAY_MS, HOUR_MS};
use testnet::{report_of, Testnet, TestnetConfig};

/// A week of simulated time with a sparse-but-nonzero workload, rendered
/// to the serialised evaluation report.
fn week_long_report(seed: u64) -> String {
    let mut config = TestnetConfig::small(seed);
    // Sparse traffic keeps the run cheap while still exercising sends in
    // both directions across the week.
    config.workload.outbound_mean_gap_ms = 4 * HOUR_MS;
    config.workload.inbound_mean_gap_ms = 6 * HOUR_MS;
    let mut net = Testnet::build(config);
    net.run_for(7 * DAY_MS);
    let mut report = serde_json::to_string(&report_of(&net, 7 * DAY_MS)).unwrap();
    // Fold in chain state beyond the aggregate report so a divergence in
    // un-reported state (balances, heights) cannot hide.
    let contract = net.contract.borrow();
    report.push_str(&format!(
        "|head={} finalised={} sends={} cp_height={}",
        contract.head_height(),
        contract.is_finalised(contract.head_height()),
        net.send_records.len(),
        net.cp.height(),
    ));
    report
}

/// Two same-seed 7-day runs must serialise to byte-identical JSON.
#[test]
fn same_seed_week_runs_are_byte_identical() {
    let first = std::thread::spawn(|| week_long_report(7));
    let second = week_long_report(7);
    let first = first.join().expect("first run panicked");
    assert!(!second.is_empty());
    assert_eq!(first, second, "same-seed runs diverged — a nondeterminism leak in the harness");
}

/// A different seed must actually change the outcome; otherwise the
/// byte-equality above would be vacuous.
#[test]
fn different_seeds_diverge() {
    let mut a = TestnetConfig::small(1);
    let mut b = TestnetConfig::small(2);
    for config in [&mut a, &mut b] {
        config.workload.outbound_mean_gap_ms = HOUR_MS;
        config.workload.inbound_mean_gap_ms = 2 * HOUR_MS;
    }
    let mut net_a = Testnet::build(a);
    let mut net_b = Testnet::build(b);
    net_a.run_for(6 * HOUR_MS);
    net_b.run_for(6 * HOUR_MS);
    let report_a = serde_json::to_string(&report_of(&net_a, 6 * HOUR_MS)).unwrap();
    let report_b = serde_json::to_string(&report_of(&net_b, 6 * HOUR_MS)).unwrap();
    assert_ne!(report_a, report_b, "seed has no effect on the report");
}
