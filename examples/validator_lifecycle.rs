//! Validator lifecycle: staking, epoch rotation, fisherman evidence and
//! slashing, and the exit hold period (§III-B, §III-C, §VI-A).
//!
//! ```text
//! cargo run --release --example validator_lifecycle
//! ```

use be_my_guest::guest_chain::{GuestBlock, GuestConfig, GuestContract, SignedVote};
use be_my_guest::ibc_core::client::TrustedSet;
use be_my_guest::sim_crypto::schnorr::Keypair;
use be_my_guest::sim_crypto::sha256;

fn finalise(contract: &mut GuestContract, block: &GuestBlock, keypairs: &[Keypair]) {
    for kp in keypairs {
        if !contract.current_epoch().contains(&kp.public()) {
            continue;
        }
        if contract.sign(block.height, kp.public(), kp.sign(&block.signing_bytes())).unwrap() {
            break;
        }
    }
    assert!(contract.is_finalised(block.height));
}

fn main() {
    // Genesis: four validators with 100 staked each; slashing enabled
    // (the full design — the paper's deployment ran with it disabled).
    let keypairs: Vec<Keypair> = (0..6).map(Keypair::from_seed).collect();
    let genesis: Vec<_> = keypairs[..4].iter().map(|kp| (kp.public(), 100)).collect();
    let mut config = GuestConfig::fast();
    config.slashing_enabled = true;
    let mut contract = GuestContract::new(config, genesis, 0, 0);
    println!(
        "epoch 0: {} validators, quorum {} of {} stake",
        contract.current_epoch().len(),
        contract.current_epoch().quorum_stake(),
        contract.current_epoch().total_stake()
    );

    // --- A whale stakes and outbids everyone at the next epoch ----------
    let whale = &keypairs[4];
    contract.stake(whale.public(), 1_000).unwrap();
    println!("\nwhale staked 1000; candidates now hold {}", contract.staking().total_stake());

    // Rotation happens in the first block past the minimum epoch length
    // (100 host blocks in the fast config).
    let block = contract.generate_block(15_000, 150).unwrap();
    assert!(block.is_last_in_epoch(), "boundary block announces the next epoch");
    finalise(&mut contract, &block, &keypairs);
    println!(
        "epoch rotated: {} validators, whale included: {}",
        contract.current_epoch().len(),
        contract.current_epoch().contains(&whale.public())
    );

    // --- A fisherman catches an equivocating validator -------------------
    // Validator 0 signs a block that does not exist on the chain (a fork).
    let rogue = &keypairs[0];
    let fork_hash = sha256(b"rogue fork at height 1");
    let vote = SignedVote {
        height: 1,
        block_hash: fork_hash,
        pubkey: rogue.public(),
        signature: rogue.sign(&GuestBlock::signing_bytes_for(1, &fork_hash)),
    };
    let before = contract.staking().stake_of(&rogue.public());
    let burned = contract.report_misbehaviour(&vote).unwrap();
    println!(
        "\nfisherman evidence accepted: validator slashed {burned} (stake {before} → {})",
        contract.staking().stake_of(&rogue.public())
    );

    // Honest evidence is rejected — signing the canonical block is fine.
    let honest_block = contract.block_at(1).unwrap();
    let honest = &keypairs[1];
    let honest_vote = SignedVote {
        height: 1,
        block_hash: honest_block.hash(),
        pubkey: honest.public(),
        signature: honest.sign(&honest_block.signing_bytes()),
    };
    println!(
        "honest vote as 'evidence': {:?}",
        contract.report_misbehaviour(&honest_vote).unwrap_err()
    );

    // --- Exit with the hold period (§VI-A's discussion) ------------------
    let exiting = &keypairs[2];
    contract.request_unstake(&exiting.public(), 20_000).unwrap();
    println!("\nvalidator requested exit at t=20 s; stake held for 60 s (fast config)");
    match contract.claim_unstaked(&exiting.public(), 50_000) {
        Err(err) => println!("  claim at t=50 s: {err}"),
        Ok(_) => unreachable!("hold period must be enforced"),
    }
    let amount = contract.claim_unstaked(&exiting.public(), 81_000).unwrap();
    println!("  claim at t=81 s: released {amount}");

    // The exited validator drops out at the next rotation.
    if let Ok(block) = contract.generate_block(90_000, 300) {
        finalise(&mut contract, &block, &keypairs);
    }
    println!(
        "\nfinal epoch has {} validators; exited validator still present: {}",
        contract.current_epoch().len(),
        contract.current_epoch().contains(&exiting.public())
    );
}
