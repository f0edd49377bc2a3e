//! The guest's Δ deadline on a quiet deployment. With no traffic the guest
//! state never changes, so every guest block is cut because the head grew
//! older than Δ (Alg. 1 l. 15), and the clock must meet that deadline on
//! time: no busy relayer or mempool wakes it up, only the deadline itself.

use sim_crypto::time::HOUR_MS;
use testnet::{Testnet, TestnetConfig};

/// A legacy Poisson mean gap whose first draw lands far beyond any
/// horizon here; small enough that `−ln(u) ≤ 28` times it cannot overflow.
const NEVER_MS: u64 = u64::MAX / 64;

#[test]
fn a_quiet_guest_cuts_a_block_within_two_slots_of_each_delta() {
    let mut config = TestnetConfig::small(2026);
    config.workload.outbound_mean_gap_ms = NEVER_MS;
    config.workload.inbound_mean_gap_ms = NEVER_MS;
    // Validators sign well inside Δ, so the head is finalised before its
    // deadline and Δ alone decides when the next block is cut.
    for validator in &mut config.validators {
        validator.latency_median_ms = 500;
    }
    let delta_ms = config.guest.delta_ms;
    // A host slot lasts `slot_millis` plus a jitter below 3/8 of it.
    let slot_ms = config.host_profile.slot_millis;
    let max_slot_ms = slot_ms + slot_ms * 3 / 8;
    // Once the head is Δ old, the relayer sees it at the end of the first
    // slot at or past the deadline (at most one slot late) and submits one
    // `GenerateBlock`; an idle host includes that transaction in the very
    // next slot, whose time stamps the new block. So two slots at most.
    let bound_ms = delta_ms + 2 * max_slot_ms;

    let mut net = Testnet::build(config);
    let genesis_height = net.contract.borrow().head_height();
    net.run_for(4 * HOUR_MS);
    assert!(net.send_records.is_empty(), "the deployment stayed quiet");

    let guest = net.contract.borrow();
    let blocks: Vec<_> = (genesis_height..=guest.head_height())
        .map(|h| guest.block_at(h).expect("produced"))
        .collect();
    let intervals: Vec<u64> = blocks
        .windows(2)
        .filter(|pair| pair[1].state_root == pair[0].state_root)
        .map(|pair| pair[1].timestamp_ms - pair[0].timestamp_ms)
        .collect();
    // Four hours of blocks at a little over Δ apart.
    let expected = (4 * HOUR_MS / bound_ms) as usize;
    assert!(intervals.len() >= expected, "{} Δ-cut blocks, expected ≥ {expected}", intervals.len());
    let shortest = intervals.iter().copied().min().expect("non-empty");
    assert!(shortest >= delta_ms, "a block was cut {shortest} ms after its parent, before Δ");
    let worst = intervals.iter().copied().max().expect("non-empty");
    assert!(worst <= bound_ms, "a block was cut {worst} ms after its parent, bound {bound_ms} ms");
}
