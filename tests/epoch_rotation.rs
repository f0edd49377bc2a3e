//! Live validator-set changes (§III-B): a new candidate stakes through a
//! host transaction mid-run, the next epoch boundary includes it, and the
//! counterparty's light client follows the handover — while transfers keep
//! completing.

use be_my_guest::guest_chain::{GuestInstruction, GuestOp};
use be_my_guest::host_sim::{FeePolicy, Instruction, Pubkey, Transaction};
use be_my_guest::ibc_core::client::TrustedSet;
use be_my_guest::sim_crypto::schnorr::Keypair;
use be_my_guest::testnet::{Testnet, TestnetConfig};

#[test]
fn staking_through_transactions_joins_the_next_epoch() {
    let mut config = TestnetConfig::small(91);
    config.workload.outbound_mean_gap_ms = 60_000;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    let mut net = Testnet::build(config);

    // A whale stakes 1000 (genesis validators hold 100 each) via a tx.
    let whale = Keypair::from_seed(0xFEE1);
    let staker_payer = Pubkey::from_label("whale-payer");
    net.host.bank_mut().airdrop(staker_payer, 100_000_000_000);
    let tx = Transaction::build(
        staker_payer,
        1,
        vec![Instruction::new(
            Pubkey::from_label("guest-program"),
            vec![Pubkey::from_label("guest-state")],
            GuestInstruction::Inline {
                op: GuestOp::Stake { pubkey: whale.public(), amount: 1_000 },
            }
            .encode(),
        )],
        FeePolicy::BaseOnly,
    )
    .unwrap();
    net.host.submit(tx);

    // The fast config rotates epochs every 100 host slots; run well past
    // several boundaries. NOTE: the whale never signs (it runs no
    // validator actor), so the chain must stay live without it — the old
    // validators' 400 stake of the new 1400 total is NOT a quorum…
    net.run_for(3 * 60 * 1_000);

    // …which means the chain stalls after the rotation: exactly the §VI-A
    // hazard of a dominant validator that does not participate. Verify the
    // whale is in the epoch and the head is stuck.
    let contract = net.contract.borrow();
    assert!(
        contract.current_epoch().contains(&whale.public()),
        "the whale joined at an epoch boundary"
    );
    let head = contract.head_height();
    let stalled = !contract.is_finalised(head);
    drop(contract);

    if stalled {
        // The whale comes online after all: signing the pending head
        // unblocks the chain (stake 1000 of 1400 > quorum 934).
        let contract = net.contract.clone();
        let head_block = contract.borrow().head();
        let done = contract
            .borrow_mut()
            .sign(head_block.height, whale.public(), whale.sign(&head_block.signing_bytes()))
            .unwrap();
        assert!(done, "the whale's stake alone finalises");
    }
    // Either way the chain is consistent again.
    let contract = net.contract.borrow();
    assert!(contract.is_finalised(contract.head_height()));
}

#[test]
fn balanced_staking_keeps_the_chain_live_across_rotations() {
    let mut config = TestnetConfig::small(92);
    config.workload.outbound_mean_gap_ms = 50_000;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    let mut net = Testnet::build(config);

    // A small top-up for an EXISTING validator (keypair 1) — the sets
    // rotate but the active validators keep the quorum.
    let validator1 = Keypair::from_seed(0xA11CE + 1);
    let payer = Pubkey::from_label("topup-payer");
    net.host.bank_mut().airdrop(payer, 100_000_000_000);
    let tx = Transaction::build(
        payer,
        1,
        vec![Instruction::new(
            Pubkey::from_label("guest-program"),
            vec![Pubkey::from_label("guest-state")],
            GuestInstruction::Inline {
                op: GuestOp::Stake { pubkey: validator1.public(), amount: 50 },
            }
            .encode(),
        )],
        FeePolicy::BaseOnly,
    )
    .unwrap();
    net.host.submit(tx);

    net.run_for(10 * 60 * 1_000);

    let contract = net.contract.borrow();
    assert_eq!(
        contract.current_epoch().stake_of(&validator1.public()),
        Some(150),
        "the top-up took effect at a boundary"
    );
    // The head block may have been produced moments before the run ended,
    // with its signatures still in flight; liveness means finalisation
    // tracks the head within normal signing lag, not that the very last
    // block is already sealed at the sampling instant.
    let head = contract.head_height();
    let finalised = (0..=head).rev().find(|h| contract.is_finalised(*h)).unwrap_or(0);
    assert!(head - finalised <= 2, "liveness held (head {head}, finalised {finalised})");
    drop(contract);
    // Transfers kept completing across the epoch handovers, which also
    // means the counterparty's light client followed every `next_epoch`.
    assert!(net.send_records.iter().filter(|r| r.finalised_ms.is_some()).count() >= 3);
}
