//! Governance and incident scenarios through on-chain transactions: the
//! fisherman path, self-destruction after abandonment, and the dominant
//! validator's outage stalling and recovering the chain.

use be_my_guest::chaos::{ChaosPlan, Fault};
use be_my_guest::guest_chain::{GuestBlock, GuestInstruction, GuestOp, SignedVote};
use be_my_guest::host_sim::{FeePolicy, Instruction, Pubkey, Transaction};
use be_my_guest::sim_crypto::schnorr::Keypair;
use be_my_guest::sim_crypto::sha256;
use be_my_guest::sim_crypto::time::DAY_MS;
use be_my_guest::testnet::config::RogueConfig;
use be_my_guest::testnet::{paper_validators, Testnet, TestnetConfig, ValidatorProfile};

fn submit_op(net: &mut Testnet, payer: Pubkey, op: GuestOp) -> u64 {
    let tx = Transaction::build(
        payer,
        1,
        vec![Instruction::new(
            Pubkey::from_label("guest-program"),
            vec![Pubkey::from_label("guest-state")],
            GuestInstruction::Inline { op }.encode(),
        )],
        FeePolicy::BaseOnly,
    )
    .unwrap();
    net.host.submit(tx)
}

/// A fisherman submits equivocation evidence as a host transaction; with
/// slashing enabled the rogue validator loses its stake.
#[test]
fn fisherman_slashes_through_a_host_transaction() {
    let mut config = TestnetConfig::small(41);
    config.guest.slashing_enabled = true;
    config.workload.outbound_mean_gap_ms = u64::MAX / 4;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    let mut net = Testnet::build(config);
    let fisherman = Pubkey::from_label("fisherman");
    net.host.bank_mut().airdrop(fisherman, 10_000_000_000);

    // The rogue is validator seed 0xA11CE (harness keypair 0); it signs a
    // block hash that is not on the chain.
    let rogue = Keypair::from_seed(0xA11CE);
    let fork = sha256(b"not the canonical block");
    let vote = SignedVote {
        height: 1,
        block_hash: fork,
        pubkey: rogue.public(),
        signature: rogue.sign(&GuestBlock::signing_bytes_for(1, &fork)),
    };
    let before = net.contract.borrow().staking().stake_of(&rogue.public());
    assert!(before > 0);

    let id = submit_op(&mut net, fisherman, GuestOp::ReportMisbehaviour { vote });
    for _ in 0..5 {
        net.step();
    }
    let _ = id;
    assert_eq!(
        net.contract.borrow().staking().stake_of(&rogue.public()),
        0,
        "stake slashed on-chain"
    );
}

/// Self-destruction through a transaction: rejected while the chain is
/// alive, accepted after abandonment, and the vault pays out.
#[test]
fn self_destruct_via_transaction_after_abandonment() {
    let mut config = TestnetConfig::small(42);
    config.guest.abandonment_timeout_ms = 60_000;
    // Stop all block production: no traffic, and Δ so large the relayer
    // never generates an empty block.
    config.guest.delta_ms = u64::MAX / 4;
    config.workload.outbound_mean_gap_ms = u64::MAX / 4;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    let mut net = Testnet::build(config);
    let caller = Pubkey::from_label("liquidator");
    net.host.bank_mut().airdrop(caller, 10_000_000_000);

    // Too early: the contract refuses.
    let id = submit_op(&mut net, caller, GuestOp::SelfDestruct);
    net.step();
    let outcome_failed = {
        let block = net.host.latest_block().unwrap();
        !block.outcome_of(id).unwrap().is_ok()
    };
    assert!(outcome_failed, "self-destruct rejected while alive");
    assert!(!net.contract.borrow().is_destroyed());

    // After a minute of silence the chain counts as abandoned.
    net.run_for(70_000);
    let total_stake = net.contract.borrow().staking().total_stake();
    assert!(total_stake > 0);
    let before = net.host.bank().balance(&caller);
    submit_op(&mut net, caller, GuestOp::SelfDestruct);
    net.step();
    assert!(net.contract.borrow().is_destroyed());
    assert_eq!(net.contract.borrow().staking().total_stake(), 0);
    // The caller received the released stake (minus its transaction fee).
    assert!(net.host.bank().balance(&caller) + 10_000 >= before + total_stake);
}

/// The §V-C incident: while the quorum-dominant validator is down, blocks
/// stall; when it returns, the chain recovers and the pending block
/// finalises with a latency in the tens of minutes.
#[test]
fn dominant_validator_outage_stalls_and_recovers() {
    let mut config = TestnetConfig::small(43);
    // Three validators; #0 dominant (its vote alone is quorum), crashed
    // between minutes 2 and 22.
    config.validators = vec![
        ValidatorProfile::reliable(1_000),
        ValidatorProfile::reliable(100),
        ValidatorProfile::reliable(100),
    ];
    config.chaos = ChaosPlan::new(43).with(
        2 * 60 * 1_000,
        22 * 60 * 1_000,
        Fault::ValidatorCrash { validator: 0 },
    );
    config.workload.outbound_mean_gap_ms = 90_000;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    let mut net = Testnet::build(config);
    net.run_for(30 * 60 * 1_000);

    // Some send finished only after the outage ended: latency ≥ ~10 min.
    let worst = net
        .send_records
        .iter()
        .filter_map(|r| r.finalised_ms.map(|f| f - r.sent_ms))
        .max()
        .expect("sends completed");
    assert!(worst > 8 * 60 * 1_000, "the stall shows up as a straggler ({worst} ms)");
    // But the chain recovered: finalisation tracks the head again (the
    // very last block may still have its signatures in flight).
    let contract = net.contract.borrow();
    let head = contract.head_height();
    let finalised = (0..=head).rev().find(|h| contract.is_finalised(*h)).unwrap_or(0);
    assert!(head - finalised <= 2, "chain recovered (head {head}, finalised {finalised})");
}

/// The complete §III-C loop inside the running deployment: a rogue
/// validator gossips conflicting votes, the fisherman actor detects and
/// reports them on-chain, the contract slashes — and the chain keeps
/// finalising with the remaining quorum.
#[test]
fn fisherman_catches_a_live_rogue_validator() {
    let mut config = TestnetConfig::small(44);
    config.guest.slashing_enabled = true;
    // Validator 3 equivocates on roughly every other block. Validators
    // 0..=2 alone still hold a quorum (300 of 400 stake = 3/4 > 2/3).
    config.rogue = Some(RogueConfig { validator: 3, equivocate_probability: 0.5 });
    config.workload.outbound_mean_gap_ms = 45_000;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    let mut net = Testnet::build(config);

    let rogue_key = Keypair::from_seed(0xA11CE + 3).public();
    let before = net.contract.borrow().staking().stake_of(&rogue_key);
    assert_eq!(before, 100);

    net.run_for(10 * 60 * 1_000);

    assert!(net.fisherman_reports >= 1, "the fisherman reported the rogue");
    assert_eq!(
        net.contract.borrow().staking().stake_of(&rogue_key),
        0,
        "the rogue was slashed on-chain"
    );
    // Liveness: the chain kept finalising after the slash. The head block
    // may still have its signatures in flight when the run ends; a few
    // seconds on, it is final.
    let head = net.contract.borrow().head_height();
    assert!(head > 3);
    net.run_for(20_000);
    assert!(net.contract.borrow().is_finalised(head));
    assert!(net.send_records.iter().any(|r| r.finalised_ms.is_some()));
}

/// Sanity: the paper validator table keeps its structural properties even
/// after config evolution.
#[test]
fn paper_validator_profiles_stay_consistent() {
    let profiles = paper_validators();
    assert_eq!(profiles.len(), 24);
    let total: u64 = profiles.iter().map(|p| p.stake).sum();
    let quorum = total * 2 / 3 + 1;
    assert!(profiles[0].stake >= quorum, "validator #1 alone reaches quorum");
    // The §V-C outage lives in the paper chaos plan.
    let plan = TestnetConfig::paper().chaos;
    let crash = plan
        .events
        .iter()
        .find(|e| matches!(e.fault, Fault::ValidatorCrash { validator: 0 }))
        .expect("paper plan crashes validator #1");
    assert!(crash.from_ms < 28 * DAY_MS, "outage inside the run");
    assert_eq!(crash.until_ms - crash.from_ms, 35_940_000, "a 9h59m outage");
}

/// Validator rewards through host transactions: fees accumulate as sends
/// flow, signers earn pro-rata shares, and a claim pays out of the vault.
#[test]
fn validator_rewards_flow_through_the_vault() {
    let mut config = TestnetConfig::small(45);
    config.workload.outbound_mean_gap_ms = 45_000;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    let mut net = Testnet::build(config);
    net.run_for(8 * 60 * 1_000);

    // Every validator signed (reliable profiles); all earned something.
    let validator = Keypair::from_seed(0xA11CE).public();
    let earned = net.contract.borrow().reward_balance(&validator);
    assert!(earned > 0, "signers earn fee shares");

    // Claim via a transaction: lamports leave the vault to the claimer.
    let claimer = Pubkey::from_label("validator-payout");
    net.host.bank_mut().airdrop(claimer, 1_000_000_000);
    let before = net.host.bank().balance(&claimer);
    submit_op(&mut net, claimer, GuestOp::ClaimRewards { pubkey: validator });
    net.step();
    assert_eq!(
        net.host.bank().balance(&claimer),
        before + earned - 5_000, // minus the claim transaction's fee
    );
    assert_eq!(net.contract.borrow().reward_balance(&validator), 0);

    // Accounting closes: fees = rewards (credited) + treasury + pot still
    // accruing for the next block.
    let contract = net.contract.borrow();
    assert!(contract.treasury() > 0);
    assert!(contract.fees_collected() >= contract.treasury());
}
