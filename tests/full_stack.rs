//! Cross-crate invariants on a live simulated deployment.

use be_my_guest::ibc_core::ProvableStore;
use be_my_guest::testnet::{Testnet, TestnetConfig, CP_DENOM, CP_USER, GUEST_DENOM, GUEST_USER};

fn run(seed: u64, minutes: u64) -> Testnet {
    let mut config = TestnetConfig::small(seed);
    config.workload.outbound_mean_gap_ms = 50_000;
    config.workload.inbound_mean_gap_ms = 70_000;
    let mut net = Testnet::build(config);
    net.run_for(minutes * 60 * 1_000);
    net
}

/// Every wSOL voucher minted on the counterparty is backed 1:1 by escrow
/// on the guest, and vice versa — no token is ever created from nothing.
#[test]
fn token_supply_is_conserved_across_chains() {
    let net = run(21, 25);
    let port = net.endpoints().port.clone();
    let guest_channel = net.endpoints().guest_channel.clone();
    let cp_channel = net.endpoints().cp_channel.clone();

    // Both sides bind `ModuleStack`s, so the ledgers are reached through
    // the typed `Module::ics20()` accessor rather than a downcast.
    let contract = net.contract.borrow();
    let guest_bank = contract
        .ibc()
        .module(&port)
        .and_then(|m| m.ics20())
        .expect("the guest transfer stack fronts an ICS-20 ledger");
    let cp_bank = net
        .cp
        .ibc()
        .module(&port)
        .and_then(|m| m.ics20())
        .expect("the counterparty transfer stack fronts an ICS-20 ledger");

    // Outbound direction: guest escrow ≥ counterparty vouchers in
    // circulation (strictly greater only for packets still in flight).
    let voucher_on_cp = format!("transfer/{cp_channel}/{GUEST_DENOM}");
    let minted_on_cp = cp_bank.balance(CP_USER, &voucher_on_cp);
    let escrowed = guest_bank.balance(&format!("escrow:{guest_channel}"), GUEST_DENOM);
    assert!(escrowed >= minted_on_cp, "escrow {escrowed} < vouchers {minted_on_cp}");
    assert!(minted_on_cp > 0, "some transfers completed");

    // Inbound direction likewise.
    let voucher_on_guest = format!("transfer/{guest_channel}/{CP_DENOM}");
    let minted_on_guest = guest_bank.balance(GUEST_USER, &voucher_on_guest);
    let escrow_on_cp = cp_bank.balance(&format!("escrow:{cp_channel}"), CP_DENOM);
    assert!(escrow_on_cp >= minted_on_guest);
}

/// Delivered inbound packets leave *sealed* receipts: the data is gone,
/// the commitment root still covers them, and redelivery stays impossible.
#[test]
fn receipts_are_sealed_and_bounded() {
    let net = run(22, 25);
    let delivered = net
        .relayer
        .records()
        .iter()
        .filter(|r| r.kind == be_my_guest::relayer::JobKind::RecvPacket)
        .count();
    assert!(delivered > 0, "packets were delivered");

    let contract = net.contract.borrow();
    let stats = contract.storage_stats();
    assert!(
        stats.sealed_reclaimed > 0 || delivered < 16,
        "sealing reclaimed storage ({delivered} deliveries, {} reclaimed)",
        stats.sealed_reclaimed
    );
    // Each delivered packet's receipt is sealed (reads error, not None).
    let endpoints = net.relayer.endpoints();
    let key =
        be_my_guest::ibc_core::path::packet_receipt(&endpoints.port, &endpoints.guest_channel, 1);
    assert!(
        ProvableStore::get(contract.ibc().store(), &key).is_err(),
        "first delivered receipt must be sealed"
    );
}

/// Acknowledged outbound packets have their commitments cleared — the
/// provable store does not accumulate completed transfers.
#[test]
fn acked_commitments_are_cleared() {
    let net = run(23, 30);
    let acked = net
        .relayer
        .records()
        .iter()
        .filter(|r| r.kind == be_my_guest::relayer::JobKind::AckPacket)
        .count();
    assert!(acked > 0, "acks flowed back");

    let contract = net.contract.borrow();
    let endpoints = net.relayer.endpoints();
    let mut cleared = 0;
    for sequence in 1..=acked as u64 {
        let key = be_my_guest::ibc_core::path::packet_commitment(
            &endpoints.port,
            &endpoints.guest_channel,
            sequence,
        );
        if matches!(ProvableStore::get(contract.ibc().store(), &key), Ok(None)) {
            cleared += 1;
        }
    }
    assert!(cleared > 0, "at least the earliest acked commitments are gone");
}

/// The relayer completes every job it starts on a healthy network.
#[test]
fn no_relayer_jobs_fail_on_a_healthy_network() {
    let net = run(24, 25);
    assert_eq!(net.relayer.failed_jobs(), 0);
    assert!(!net.relayer.records().is_empty());
}

/// The guest contract's own view and the counterparty's light client view
/// of the guest chain agree at every verified height.
#[test]
fn light_client_view_matches_chain_state() {
    let net = run(25, 20);
    let endpoints = net.relayer.endpoints();
    let contract = net.contract.borrow();
    let client = net.cp.ibc().client(&endpoints.guest_client_on_cp).unwrap();
    let verified = client.latest_height();
    assert!(verified > 0, "counterparty verified guest blocks");
    for height in 1..=verified {
        if let Some(consensus) = client.consensus_state(height) {
            let block = contract.block_at(height).expect("verified height exists");
            assert_eq!(consensus.root, block.state_root, "height {height}");
            assert_eq!(consensus.timestamp_ms, block.timestamp_ms, "height {height}");
        }
    }
}

/// Fees flow: every send paid the contract's packet fee into the vault and
/// the contract accounted for it.
#[test]
fn packet_fees_are_collected() {
    let net = run(26, 20);
    let sends = net.send_records.len() as u64;
    assert!(sends > 0);
    let collected = net.contract.borrow().fees_collected();
    let fee = be_my_guest::guest_chain::SEND_FEE_LAMPORTS;
    assert_eq!(collected, sends * fee, "every send paid exactly the configured fee");
}
