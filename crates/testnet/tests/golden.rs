//! Cross-commit golden: the run report of a short heavy-traffic run,
//! hashed. The determinism tests compare two runs of one build, so a
//! refactor that shifts the sim timeline (an extra RNG draw, a reordered
//! submission, a renamed telemetry field) passes them; this constant only
//! survives when the timeline is byte-identical to the commit it was
//! captured at. Re-capture it only for a change that *means* to move the
//! timeline, and say so in the PR.

use relayer::JobKind;
use sim_crypto::time::MINUTE_MS;
use testnet::{Testnet, TestnetConfig};
use workload::TrafficConfig;

/// The timeline of 43bb6f3 (the commit before the relay core was unified),
/// re-hashed once for a format change: `"sampling": null` left `meta` with
/// the sampler. Re-captured once more when the testnet lost its second
/// clock: this run used to cross idle stretches in one jump, and now steps
/// every host slot like the paper runs, so the skipped slots' jitter draws
/// and the deadlines the jump met late (the 3-s counterparty check, Δ) are
/// back in the timeline. The relay scheduler did not change; it is the same
/// sequential relayer.
const GOLDEN_SHA256: &str = "20ac5d261179a83935664c8123285d2c8dbe5a293c43b46e29f4d0e2a3b3b914";

/// The same run with a host block's worth of guest-bound transactions
/// unconfirmed, re-captured when a pipelined job began submitting its whole
/// plan in one tick and every pipelined client update began keeping the
/// §VI-C cap's pace, and again when packet jobs began riding behind the
/// client update that proves them and the pace began spreading what is left
/// of the cap's hourly budget instead of a fixed hour over the cap, and
/// last when the run began stepping every host slot instead of jumping idle
/// stretches (the clock change above; no scheduler change).
const PIPELINED_GOLDEN_SHA256: &str =
    "3ae0f9feae4c9bf81179ac9fbe8bb83962642054d0ef5389f9d9192f09359355";

/// Half an hour of steady traffic on `small(7)` with one doomed transfer;
/// returns the run report's SHA-256.
fn golden_run(pipelined: bool) -> String {
    let mut config = TestnetConfig::small(7);
    config.relayer.pipelined = pipelined;
    config.traffic = Some(TrafficConfig::steady(300, 20_000));
    let mut net = Testnet::build(config);
    net.run_for(5 * MINUTE_MS);
    // One doomed transfer, already expired on the counterparty's clock
    // (which only advances with its blocks, so a near-future deadline
    // would race them): the recv → expired → timeout-message path is in
    // the hash.
    let timeout_at = net.cp.now_ms();
    net.inject_outbound_transfer(777, timeout_at);
    net.run_for(25 * MINUTE_MS);

    let kinds = |kind| net.relayer.records().iter().filter(|r| r.kind == kind).count();
    assert_eq!(kinds(JobKind::TimeoutPacket), 1, "the injected transfer timed out");
    assert!(kinds(JobKind::RecvPacket) > 0 && kinds(JobKind::AckPacket) > 0);
    assert_eq!(net.relayer.failed_jobs(), 0);

    sim_crypto::sha256(net.run_report("golden").to_json().as_bytes()).to_hex()
}

/// The deployed relayer, one job at a time: `GOLDEN_SHA256` was first
/// captured before the pipelined mode and since re-hashed only for the
/// format and clock changes named on it, so this proves the sequential
/// scheduler unchanged.
#[test]
fn steady_half_hour_with_a_timeout_matches_the_golden_report() {
    assert_eq!(golden_run(false), GOLDEN_SHA256, "the sim timeline moved");
}

#[test]
fn pipelined_steady_half_hour_matches_its_golden_report() {
    assert_eq!(golden_run(true), PIPELINED_GOLDEN_SHA256, "the pipelined sim timeline moved");
}
