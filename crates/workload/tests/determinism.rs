//! Workload determinism regression: the generated schedule must be a
//! pure function of `(config, seed)` for every arrival-curve shape, and
//! must survive a serde round trip of the configuration — scenario files
//! have to replay byte-identically.

use workload::{TrafficConfig, TrafficGenerator};

const HOUR_MS: u64 = 60 * 60 * 1_000;

/// Renders a schedule to one canonical string (what "byte-identical"
/// means for a schedule).
fn schedule_bytes(config: TrafficConfig, seed: u64, horizon_ms: u64) -> String {
    let mut generator = TrafficGenerator::new(config, seed);
    let mut out = String::new();
    while let Some(arrival) = generator.pop_due(horizon_ms) {
        out.push_str(&format!(
            "{}|{}|{:?}|{}|{}\n",
            arrival.at_ms, arrival.user, arrival.direction, arrival.amount, arrival.memo
        ));
    }
    out
}

fn shapes() -> Vec<(&'static str, TrafficConfig)> {
    TrafficConfig::bench_shapes(5_000, 3_000)
}

#[test]
fn same_seed_schedules_are_byte_identical_per_shape() {
    for (label, config) in shapes() {
        let first = schedule_bytes(config.clone(), 11, 3 * HOUR_MS);
        let second = schedule_bytes(config, 11, 3 * HOUR_MS);
        assert!(!first.is_empty(), "{label}: three hours of traffic must produce arrivals");
        assert_eq!(first, second, "{label}: same-seed schedules diverged");
    }
}

#[test]
fn different_seeds_diverge_per_shape() {
    for (label, config) in shapes() {
        let a = schedule_bytes(config.clone(), 1, HOUR_MS);
        let b = schedule_bytes(config, 2, HOUR_MS);
        assert_ne!(a, b, "{label}: the seed has no effect");
    }
}

#[test]
fn serde_round_trip_preserves_the_schedule() {
    for (label, config) in shapes() {
        let json = serde_json::to_string(&config).expect("traffic config serialises");
        let restored: TrafficConfig = serde_json::from_str(&json).expect("and deserialises");
        assert_eq!(config, restored, "{label}: config did not round-trip");
        assert_eq!(
            schedule_bytes(config, 7, HOUR_MS),
            schedule_bytes(restored, 7, HOUR_MS),
            "{label}: schedule changed across a serde round trip"
        );
    }
}

#[test]
fn population_balances_are_part_of_the_replay() {
    // Two same-seed generators must agree on post-run balances too — the
    // population is state the schedule depends on (amount clamping).
    let config = TrafficConfig::steady(50, 500);
    let mut a = TrafficGenerator::new(config.clone(), 21);
    let mut b = TrafficGenerator::new(config, 21);
    while a.pop_due(HOUR_MS).is_some() {}
    while b.pop_due(HOUR_MS).is_some() {}
    for user in 0..50 {
        assert_eq!(a.population().balance(user), b.population().balance(user));
        assert_eq!(a.population().name(user), b.population().name(user));
    }
}
