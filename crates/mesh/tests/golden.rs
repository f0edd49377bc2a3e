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

/// Re-captured when the mesh relayer began proving each step at its
/// source's latest commit, once that commit holds it, instead of only at
/// a tick where the live store still equalled the commit: steps now leave
/// on the first tick after the block that committed them, so every relay
/// instant, client update and latency moved. The timeline before that
/// was 43bb6f3's (the commit before the relay core was unified), under
/// `9d7000cf…c086` once `"sampling": null` left `meta` (CHANGES.md PR 21).
const GOLDEN_SHA256: &str = "1337f34d2dd60da4a2a69b9d20af1d4ccabec5ed5a58c7fb1c1ac6aba68beab3";

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
