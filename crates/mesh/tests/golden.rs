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

/// Captured at 43bb6f3 (the commit before the relay core was unified).
const GOLDEN_SHA256: &str = "5d88a8e6b349470de39a2d0249d5b6283044fd30f6026ddb3516f974892925c6";

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
