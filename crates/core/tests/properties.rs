//! Property-based tests of the guest chain: finalisation order-invariance,
//! epoch determinism, light-client quorum arithmetic.

use guest_chain::{Epoch, GuestConfig, GuestContract, GuestHeader, GuestLightClient, Validator};
use ibc_core::client::TrustedSet;
use ibc_core::LightClient;
use proptest::prelude::*;
use sim_crypto::schnorr::Keypair;

fn contract_with_stakes(stakes: &[u64]) -> (GuestContract, Vec<Keypair>) {
    let keypairs: Vec<Keypair> = (0..stakes.len() as u64).map(Keypair::from_seed).collect();
    let genesis = keypairs.iter().zip(stakes).map(|(kp, stake)| (kp.public(), *stake)).collect();
    let mut config = GuestConfig::fast();
    config.max_validators = stakes.len().max(1);
    (GuestContract::new(config, genesis, 0, 0), keypairs)
}

proptest! {
    /// A block finalises exactly when the accumulated signer stake crosses
    /// the quorum, regardless of the order signatures arrive in.
    #[test]
    fn finalisation_is_order_invariant(
        stakes in proptest::collection::vec(1u64..1_000, 2..8),
        order in any::<u64>(),
    ) {
        let (mut contract, keypairs) = contract_with_stakes(&stakes);
        let block = contract.generate_block(20_000, 10).unwrap();
        let quorum = contract.current_epoch().quorum_stake();

        // Deterministic shuffle of the signing order.
        let mut indices: Vec<usize> = (0..keypairs.len()).collect();
        let mut state = order;
        for i in (1..indices.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            indices.swap(i, (state >> 33) as usize % (i + 1));
        }

        let mut voted = 0u64;
        let mut finalised = false;
        for index in indices {
            let kp = &keypairs[index];
            let done = contract
                .sign(block.height, kp.public(), kp.sign(&block.signing_bytes()))
                .unwrap();
            prop_assert!(!finalised || !done, "finalises exactly once");
            if done {
                finalised = true;
            }
            voted += contract.current_epoch().stake_of(&kp.public()).unwrap();
            prop_assert_eq!(
                contract.is_finalised(block.height),
                voted >= quorum,
                "finalised iff stake {} >= quorum {}", voted, quorum
            );
        }
        prop_assert!(contract.is_finalised(block.height), "all signatures reach quorum");
    }

    /// The epoch id is a pure function of the validator set, independent of
    /// insertion order and duplicates.
    #[test]
    fn epoch_id_is_canonical(
        stakes in proptest::collection::vec((0u64..20, 1u64..1_000), 1..10),
        seed in any::<u64>(),
    ) {
        let validators: Vec<Validator> = stakes
            .iter()
            .map(|(s, stake)| Validator { pubkey: Keypair::from_seed(*s).public(), stake: *stake })
            .collect();
        let mut shuffled = validators.clone();
        let mut state = seed;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        // Note: Epoch::new dedups by key, so duplicated seeds collapse the
        // same way on both sides.
        prop_assert_eq!(Epoch::new(validators).id(), Epoch::new(shuffled).id());
    }

    /// The guest light client accepts a header exactly when the signer
    /// subset holds strictly more stake than the quorum threshold requires.
    #[test]
    fn light_client_quorum_boundary(
        stakes in proptest::collection::vec(1u64..100, 3..8),
        mask in any::<u8>(),
    ) {
        let (mut contract, keypairs) = contract_with_stakes(&stakes);
        let epoch = contract.current_epoch().clone();
        let genesis = contract.block_at(0).unwrap();
        let block = contract.generate_block(20_000, 10).unwrap();
        let signing = block.signing_bytes();

        let signers: Vec<&Keypair> = keypairs
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i % 8)) != 0)
            .map(|(_, kp)| kp)
            .collect();
        let signed_stake: u64 = signers
            .iter()
            .filter_map(|kp| epoch.stake_of(&kp.public()))
            .sum();
        let header = GuestHeader {
            block,
            signatures: signers.iter().map(|kp| (kp.public(), kp.sign(&signing))).collect(),
        };
        let mut client = GuestLightClient::from_genesis(&genesis, epoch.clone());
        let accepted = client.update(&header.encode()).is_ok();
        prop_assert_eq!(accepted, signed_stake >= epoch.quorum_stake());
    }

    /// Fees accumulate exactly, whatever the packet mix.
    #[test]
    fn fee_accounting_is_exact(fees in proptest::collection::vec(50_000u64..200_000, 0..10)) {
        let (mut contract, _) = contract_with_stakes(&[100, 100, 100]);
        let mut expected = 0;
        for fee in fees {
            // No channel is open, so the send itself fails — but only
            // *after* fee collection per Alg. 1's ordering (collect_fees is
            // line 7, before any packet work).
            let _ = contract.send_packet(
                &ibc_core::PortId::transfer(),
                &ibc_core::ChannelId::new(0),
                b"p".to_vec(),
                ibc_core::Timeout::NEVER,
                fee,
            );
            expected += fee;
            prop_assert_eq!(contract.fees_collected(), expected);
        }
    }
}
