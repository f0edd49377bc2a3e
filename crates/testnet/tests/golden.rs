//! Cross-commit golden: the run report of a short heavy-traffic run,
//! hashed. The determinism tests compare two runs of one build, so a
//! refactor that shifts the sim timeline (an extra RNG draw, a reordered
//! submission, a renamed telemetry field) passes them; this constant only
//! survives when the timeline is byte-identical to the commit it was
//! captured at. Re-capture it only for a change that *means* to move the
//! timeline, and say so in the PR.

use relayer::JobKind;
use testnet::{Testnet, TestnetConfig};
use workload::TrafficConfig;

const MINUTE_MS: u64 = 60_000;

/// The timeline of 43bb6f3 (the commit before the relay core was unified),
/// re-hashed once since for a format change: `"sampling": null` left `meta`
/// with the sampler (put the line back and the report hashes to the old
/// constant; CHANGES.md PR 21).
const GOLDEN_SHA256: &str = "18f939fa7589aab3b9d7eced6e52a93a6b57bc9c666640b9ecc6792f474f863a";

/// The same run with a host block's worth of guest-bound transactions
/// unconfirmed, re-captured when a pipelined job began submitting its whole
/// plan in one tick and every pipelined client update began keeping the
/// §VI-C cap's pace, and again when packet jobs began riding behind the
/// client update that proves them and the pace began spreading what is left
/// of the cap's hourly budget instead of a fixed hour over the cap.
const PIPELINED_GOLDEN_SHA256: &str =
    "31f7c31c25963698402351f80e1eb5a3a570ddb428900a9acf6575000b6b16e9";

/// Half an hour of steady traffic on `small(7)` with one doomed transfer;
/// returns the run report's SHA-256.
fn golden_run(pipelined: bool) -> String {
    let mut config = TestnetConfig::small(7);
    config.relayer.pipelined = pipelined;
    config.traffic = Some(TrafficConfig::steady(300, 20_000));
    let mut net = Testnet::build(config);
    net.run_heavy_for(5 * MINUTE_MS);
    // One doomed transfer, already expired on the counterparty's clock
    // (which only advances with its blocks, so a near-future deadline
    // would race them): the recv → expired → timeout-message path is in
    // the hash.
    let timeout_at = net.cp.now_ms();
    net.inject_outbound_transfer(777, timeout_at);
    net.run_heavy_for(25 * MINUTE_MS);

    let kinds = |kind| net.relayer.records().iter().filter(|r| r.kind == kind).count();
    assert_eq!(kinds(JobKind::TimeoutPacket), 1, "the injected transfer timed out");
    assert!(kinds(JobKind::RecvPacket) > 0 && kinds(JobKind::AckPacket) > 0);
    assert_eq!(net.relayer.failed_jobs(), 0);

    sim_crypto::sha256(net.run_report("golden").to_json().as_bytes()).to_hex()
}

/// The deployed relayer, one job at a time: `GOLDEN_SHA256` predates the
/// pipelined mode, so this proves the sequential scheduler unchanged.
#[test]
fn steady_half_hour_with_a_timeout_matches_the_golden_report() {
    assert_eq!(golden_run(false), GOLDEN_SHA256, "the sim timeline moved");
}

#[test]
fn pipelined_steady_half_hour_matches_its_golden_report() {
    assert_eq!(golden_run(true), PIPELINED_GOLDEN_SHA256, "the pipelined sim timeline moved");
}
