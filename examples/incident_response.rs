//! Incident-response walkthrough: the three operational hazards the paper
//! discusses, replayed against a live deployment —
//!
//! 1. §V-C: the quorum-dominant validator goes down; the chain stalls and
//!    recovers when it returns (the Fig. 2 stragglers).
//! 2. §III-C: a rogue validator equivocates; a fisherman reports it and
//!    the contract slashes.
//! 3. §VI-A: the chain is abandoned; self-destruction releases the stakes
//!    so the last validators are not trapped.
//!
//! ```text
//! cargo run --release --example incident_response
//! ```

use be_my_guest::guest_chain::{GuestInstruction, GuestOp};
use be_my_guest::host_sim::{FeePolicy, Instruction, Pubkey, Transaction};
use be_my_guest::sim_crypto::schnorr::Keypair;
use be_my_guest::testnet::config::RogueConfig;
use be_my_guest::testnet::{ChaosPlan, Fault, Testnet, TestnetConfig, ValidatorProfile};

fn submit(net: &mut Testnet, payer: Pubkey, op: GuestOp) {
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
    net.host.submit(tx);
}

fn main() {
    // ------------------------------------------------------------------
    // Incident 1: the dominant validator's outage (§V-C)
    // ------------------------------------------------------------------
    println!("incident 1 — dominant validator outage");
    let mut config = TestnetConfig::small(7001);
    config.validators = vec![
        ValidatorProfile::reliable(1_000),
        ValidatorProfile::reliable(100),
        ValidatorProfile::reliable(100),
    ];
    // Down minutes 1–6.
    config.chaos =
        ChaosPlan::new(7001).with(60_000, 6 * 60_000, Fault::ValidatorCrash { validator: 0 });
    config.workload.outbound_mean_gap_ms = 45_000;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    let mut net = Testnet::build(config);
    net.run_for(10 * 60_000);

    let latencies: Vec<u64> =
        net.send_records.iter().filter_map(|r| r.finalised_ms.map(|f| f - r.sent_ms)).collect();
    let worst = latencies.iter().max().copied().unwrap_or(0);
    let typical = latencies.iter().min().copied().unwrap_or(0);
    println!("  transfers: {} completed", latencies.len());
    println!(
        "  typical finalisation {:.1} s; worst (stalled through the outage) {:.0} s",
        typical as f64 / 1_000.0,
        worst as f64 / 1_000.0
    );
    println!("  chain recovered: head finalised = {}\n", {
        let c = net.contract.borrow();
        c.is_finalised(c.head_height())
    });

    // ------------------------------------------------------------------
    // Incident 2: equivocation caught by a fisherman (§III-C)
    // ------------------------------------------------------------------
    println!("incident 2 — rogue validator vs. fisherman");
    let mut config = TestnetConfig::small(7002);
    config.guest.slashing_enabled = true;
    config.rogue = Some(RogueConfig { validator: 3, equivocate_probability: 0.6 });
    config.workload.outbound_mean_gap_ms = 40_000;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    let mut net = Testnet::build(config);
    let rogue = Keypair::from_seed(0xA11CE + 3).public();
    let stake_before = net.contract.borrow().staking().stake_of(&rogue);
    net.run_for(6 * 60_000);
    println!("  fisherman reports submitted: {}", net.fisherman_reports);
    println!(
        "  rogue stake: {stake_before} → {} (slashed on-chain)",
        net.contract.borrow().staking().stake_of(&rogue)
    );
    println!("  chain still finalising: {}\n", {
        let c = net.contract.borrow();
        c.is_finalised(c.head_height())
    });

    // ------------------------------------------------------------------
    // Incident 3: abandonment and self-destruction (§VI-A)
    // ------------------------------------------------------------------
    println!("incident 3 — abandonment and self-destruction");
    let mut config = TestnetConfig::small(7003);
    config.guest.abandonment_timeout_ms = 90_000;
    config.guest.delta_ms = u64::MAX / 4; // no empty blocks: true silence
    config.workload.outbound_mean_gap_ms = u64::MAX / 4;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    let mut net = Testnet::build(config);
    let liquidator = Pubkey::from_label("liquidator");
    net.host.bank_mut().airdrop(liquidator, 10_000_000_000);

    let stake_total = net.contract.borrow().staking().total_stake();
    submit(&mut net, liquidator, GuestOp::SelfDestruct);
    net.step();
    println!(
        "  early self-destruct rejected (chain alive): destroyed = {}",
        net.contract.borrow().is_destroyed()
    );
    net.run_for(100_000); // silence past the abandonment timeout
    submit(&mut net, liquidator, GuestOp::SelfDestruct);
    net.step();
    println!(
        "  after 100 s of silence: destroyed = {}, {} stake released to the caller",
        net.contract.borrow().is_destroyed(),
        stake_total
    );
}
