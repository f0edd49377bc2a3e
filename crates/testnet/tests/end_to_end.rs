//! End-to-end simulation tests: packets flow through the full stack —
//! host transactions, guest contract, validators, relayer, counterparty.

use relayer::JobKind;
use sim_crypto::time::HOUR_MS;
use testnet::{Testnet, TestnetConfig, CP_DENOM, CP_USER, GUEST_DENOM, GUEST_USER};

fn cp_balance(net: &mut Testnet, account: &str, denom: &str) -> u128 {
    let port = net.endpoints().port.clone();
    net.cp.ibc_mut().module_mut(&port).unwrap().ics20_mut().unwrap().balance(account, denom)
}

fn guest_balance(net: &mut Testnet, account: &str, denom: &str) -> u128 {
    let port = net.endpoints().port.clone();
    let contract = net.contract.clone();
    let mut guard = contract.borrow_mut();
    guard.ibc_mut().module_mut(&port).unwrap().ics20_mut().unwrap().balance(account, denom)
}

#[test]
fn outbound_transfers_reach_the_counterparty() {
    let mut net = Testnet::build(TestnetConfig::small(1));
    // Sends arrive roughly every minute; 12 minutes ≈ a dozen transfers.
    net.run_for(12 * 60 * 1_000);

    assert!(!net.send_records.is_empty(), "workload produced sends");
    let finalised = net.send_records.iter().filter(|r| r.finalised_ms.is_some()).count();
    assert!(finalised > 0, "sends reached finalised guest blocks");

    // Tokens arrived on the counterparty as vouchers.
    let voucher = format!("transfer/{}/{}", net.endpoints().cp_channel, GUEST_DENOM);
    let received = cp_balance(&mut net, CP_USER, &voucher);
    assert!(received > 0, "counterparty received {received}");

    // The guest escrowed at least that amount (later sends may still be
    // in flight when the run stops).
    let escrow = format!("escrow:{}", net.endpoints().guest_channel);
    let escrowed = guest_balance(&mut net, &escrow, GUEST_DENOM);
    assert!(escrowed >= received, "escrow {escrowed} covers deliveries {received}");
}

#[test]
fn inbound_transfers_reach_the_guest_through_chunked_updates() {
    let mut config = TestnetConfig::small(2);
    // Make inbound traffic dominate.
    config.workload.inbound_mean_gap_ms = 45_000;
    config.workload.outbound_mean_gap_ms = 10_000_000;
    let mut net = Testnet::build(config);
    net.run_for(15 * 60 * 1_000);

    // The relayer ran chunked client updates and packet deliveries.
    let updates = net.relayer.records().iter().filter(|r| r.kind == JobKind::ClientUpdate).count();
    let recvs: Vec<_> =
        net.relayer.records().iter().filter(|r| r.kind == JobKind::RecvPacket).collect();
    assert!(updates > 0, "light client updates happened");
    assert!(!recvs.is_empty(), "packets were delivered to the guest");
    for record in &recvs {
        assert!(
            (2..=6).contains(&record.tx_count),
            "paper §V-A: 4–5 transactions per delivery, got {}",
            record.tx_count
        );
    }

    // Update jobs take many transactions (the 1232-byte limit at work).
    let update_txs: Vec<usize> = net
        .relayer
        .records()
        .iter()
        .filter(|r| r.kind == JobKind::ClientUpdate)
        .map(|r| r.tx_count)
        .collect();
    let mean = update_txs.iter().sum::<usize>() as f64 / update_txs.len() as f64;
    assert!(mean > 5.0, "updates are chunked, mean {mean}");

    // Vouchers arrived on the guest ledger.
    let voucher = format!("transfer/{}/{}", net.endpoints().guest_channel, CP_DENOM);
    assert!(guest_balance(&mut net, GUEST_USER, &voucher) > 0);
}

#[test]
fn acknowledgements_flow_back_to_the_guest() {
    let mut config = TestnetConfig::small(3);
    config.workload.outbound_mean_gap_ms = 60_000;
    config.workload.inbound_mean_gap_ms = 10_000_000;
    let mut net = Testnet::build(config);
    net.run_for(20 * 60 * 1_000);

    let acks = net.relayer.records().iter().filter(|r| r.kind == JobKind::AckPacket).count();
    assert!(acks > 0, "acknowledgements were delivered back");
}

#[test]
fn empty_blocks_appear_after_delta() {
    let mut config = TestnetConfig::small(4);
    // No traffic at all: only Δ-triggered empty blocks.
    config.workload.outbound_mean_gap_ms = u64::MAX / 4;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    let mut net = Testnet::build(config);
    // Δ in the fast config is 10 s; run 2 minutes.
    net.run_for(2 * 60 * 1_000);

    let contract = net.contract.borrow();
    assert!(
        contract.head_height() >= 5,
        "Δ-triggered empty blocks, head at {}",
        contract.head_height()
    );
    // Consecutive block timestamps are at least Δ apart (no state churn).
    // Skip the handshake-era blocks produced during bootstrap.
    let first_idle = (1..=contract.head_height())
        .find(|h| {
            let b = contract.block_at(*h).unwrap();
            b.state_root == contract.head().state_root
        })
        .unwrap();
    let mut previous = contract.block_at(first_idle).unwrap();
    for height in first_idle + 1..=contract.head_height() {
        let block = contract.block_at(height).unwrap();
        assert_eq!(block.state_root, previous.state_root, "empty block");
        assert!(block.timestamp_ms - previous.timestamp_ms >= contract.config().delta_ms);
        previous = block;
    }
}

#[test]
fn same_seed_reproduces_the_run() {
    let run = |seed| {
        let mut net = Testnet::build(TestnetConfig::small(seed));
        net.run_for(5 * 60 * 1_000);
        let head = net.contract.borrow().head_height();
        (net.send_records.len(), net.sign_records.len(), head, net.host.slot())
    };
    assert_eq!(run(7), run(7));
}

/// A host event hands observers the value it was encoded from instead of
/// having each parse the bytes; over an hour of traffic that value is, for
/// every event of every block, exactly what the bytes parse to.
#[test]
fn typed_event_payloads_are_what_their_bytes_parse_to() {
    use guest_chain::GuestEvent;

    let mut net = Testnet::build(TestnetConfig::small(5));
    let (mut guest_events, mut finalised) = (0usize, 0usize);
    while net.host.now_ms() < HOUR_MS {
        net.step();
        let block = net.host.latest_block().expect("a step produces a block");
        for event in block.events() {
            let parsed = serde_json::from_slice::<GuestEvent>(event.payload()).ok();
            assert_eq!(event.payload_as::<GuestEvent>(), parsed, "{event:?}");
            guest_events += usize::from(parsed.is_some());
            finalised += usize::from(matches!(parsed, Some(GuestEvent::FinalisedBlock { .. })));
        }
    }
    assert!(guest_events > 100 && finalised > 10, "{guest_events} events, {finalised} finalised");
}
