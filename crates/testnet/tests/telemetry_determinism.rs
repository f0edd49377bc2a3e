//! Telemetry determinism regression: observability must be a pure function
//! of the configuration seed, exactly like the simulation it watches. Two
//! same-seed runs have to produce a byte-identical JSONL journal and a
//! byte-identical serialised [`telemetry::RunReport`] — any wall-clock
//! timestamp, map-iteration leak, or nondeterministic id allocation in the
//! telemetry layer shows up here as a diff.

use sim_crypto::time::HOUR_MS;
use testnet::{Testnet, TestnetConfig};

/// A day of simulated time with traffic in both directions, rendered to
/// the raw journal plus the aggregated run report.
fn telemetry_outputs(seed: u64) -> (String, String) {
    let mut config = TestnetConfig::small(seed);
    config.workload.outbound_mean_gap_ms = HOUR_MS;
    config.workload.inbound_mean_gap_ms = 2 * HOUR_MS;
    let mut net = Testnet::build(config);
    net.run_for(24 * HOUR_MS);
    let journal = net.telemetry().journal_jsonl();
    let report = net.run_report("telemetry-determinism").to_json();
    (journal, report)
}

/// Same-seed runs must emit byte-identical journals and reports.
#[test]
fn same_seed_runs_emit_identical_telemetry() {
    // `Telemetry` is deliberately `!Send`, so each run builds its own
    // sink inside its thread (mirroring `determinism.rs`).
    let first = std::thread::spawn(|| telemetry_outputs(11));
    let (second_journal, second_report) = telemetry_outputs(11);
    let (first_journal, first_report) = first.join().expect("first run panicked");
    assert!(!first_journal.is_empty(), "a day of traffic must journal packet lifecycles");
    assert_eq!(
        first_journal, second_journal,
        "same-seed journals diverged — nondeterminism in the telemetry layer"
    );
    assert_eq!(first_report, second_report, "same-seed run reports diverged");
}

/// The journal must stay a record of discrete lifecycle events (packets,
/// block finalisations, epochs, relayer jobs), not a per-slot firehose: a
/// day is ~200k slots in the small profile, and per-slot host aggregates
/// belong in the metrics registry. Finalisation cadence (every few
/// seconds) dominates the journal; slot cadence (400 ms) must not.
#[test]
fn journal_volume_stays_bounded() {
    let mut config = TestnetConfig::small(3);
    config.workload.outbound_mean_gap_ms = HOUR_MS;
    config.workload.inbound_mean_gap_ms = 2 * HOUR_MS;
    let mut net = Testnet::build(config);
    net.run_for(24 * HOUR_MS);
    let slots = net.host.slot();
    let journal_len = net.telemetry().journal_len();
    assert!(journal_len > 0, "telemetry recorded nothing");
    assert!(
        journal_len < slots / 10,
        "journal has {journal_len} records over {slots} slots — per-slot data is leaking in"
    );
}
