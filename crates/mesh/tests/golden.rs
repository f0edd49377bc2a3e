//! Cross-commit golden: the run report of a short mixed-app mesh run with
//! a link outage, hashed. `determinism.rs` and `traffic.rs` compare two
//! runs of one build and cannot see a refactor that shifts the timeline;
//! this constant only survives when the relay order, fee charges, error
//! counts and telemetry are byte-identical to the commit it was captured
//! at. Re-capture it only for a change that *means* to move the timeline.

use chaos::{ChaosPlan, Fault};
use mesh::{Mesh, MeshConfig};
use workload::{AppMix, TrafficConfig};

const MINUTE_MS: u64 = 60_000;

/// The timeline of 43bb6f3 (the commit before the relay core was unified),
/// re-hashed once since for a format change: `"sampling": null` left `meta`
/// with the sampler (put the line back and the report hashes to the old
/// constant; CHANGES.md PR 21).
const GOLDEN_SHA256: &str = "9d7000cf4404c98fef4fd7cdde98d17512c19a806953a8a5f2f80c6b2828c086";

#[test]
fn mixed_app_line_with_a_link_outage_matches_the_golden_report() {
    let seed = 7;
    let mut config = MeshConfig::line(3, seed);
    config.hop_timeout_ms = 2 * MINUTE_MS;
    // Down for twice the hop timeout: legs queued behind it expire, so
    // recv, ack *and* timeout messages are all in the hash.
    config.chaos = ChaosPlan::new(seed).with(
        3 * MINUTE_MS,
        7 * MINUTE_MS,
        Fault::LinkDown { link: "chain-b<>chain-c".into() },
    );
    let mut net = Mesh::build(config).unwrap();
    let traffic = TrafficConfig::steady(60, 10_000).with_app_mix(AppMix::even());
    let outcome = net.run_with_traffic(&traffic, seed, 15 * MINUTE_MS, 10 * MINUTE_MS).unwrap();

    assert!(outcome.delivered > 0, "{outcome:?}");
    assert!(outcome.refunded > 0, "the outage must time some routes out: {outcome:?}");
    assert_eq!(net.supply_drift(), 0);

    let digest = sim_crypto::sha256(net.run_report("golden").to_json().as_bytes());
    assert_eq!(digest.to_hex(), GOLDEN_SHA256, "the sim timeline moved");
}
