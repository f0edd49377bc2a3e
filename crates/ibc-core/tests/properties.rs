//! Property-based tests of the IBC core.

use ibc_core::channel::{Acknowledgement, Packet, Timeout};
use ibc_core::ics20::FungibleTokenPacketData;
use ibc_core::types::{ChannelId, PortId};
use proptest::prelude::*;

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        1u64..1_000_000,
        0u64..50,
        0u64..50,
        proptest::collection::vec(any::<u8>(), 0..256),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(sequence, src, dst, payload, th, tt)| Packet {
            sequence,
            source_port: PortId::transfer(),
            source_channel: ChannelId::new(src),
            destination_port: PortId::transfer(),
            destination_channel: ChannelId::new(dst),
            payload,
            timeout: Timeout { height: th, timestamp_ms: tt },
        })
}

proptest! {
    /// Packets survive their wire encoding.
    #[test]
    fn packet_round_trip(packet in arb_packet()) {
        prop_assert_eq!(Packet::decode(&packet.encode()).unwrap(), packet);
    }

    /// Any difference in any field changes the commitment.
    #[test]
    fn commitment_binds_fields(a in arb_packet(), b in arb_packet()) {
        if a != b {
            prop_assert_ne!(a.commitment(), b.commitment());
        } else {
            prop_assert_eq!(a.commitment(), b.commitment());
        }
    }

    /// Timeout expiry is monotone: once expired, later views stay expired.
    #[test]
    fn timeout_monotone(
        height in 0u64..1_000,
        time in 0u64..1_000_000,
        dh in 0u64..1_000,
        dt in 0u64..1_000_000,
        ah in 0u64..100,
        at in 0u64..100_000,
    ) {
        let timeout = Timeout { height, timestamp_ms: time };
        if timeout.has_expired(dh, dt) {
            prop_assert!(timeout.has_expired(dh + ah, dt + at));
        }
    }

    /// Acknowledgements round-trip and success/error commitments differ.
    #[test]
    fn ack_round_trip(payload in proptest::collection::vec(any::<u8>(), 0..64), err in ".{0,40}") {
        let success = Acknowledgement::Success(payload);
        prop_assert_eq!(
            Acknowledgement::decode(&success.encode()).unwrap(), success.clone()
        );
        let error = Acknowledgement::Error(err);
        prop_assert_eq!(Acknowledgement::decode(&error.encode()).unwrap(), error.clone());
        prop_assert_ne!(success.commitment(), error.commitment());
    }

    /// ICS-20 packet data round-trips, including memos with tricky content.
    #[test]
    fn ics20_data_round_trip(
        denom in "[a-z/0-9-]{1,40}",
        amount in any::<u128>(),
        sender in ".{0,30}",
        receiver in ".{0,30}",
        memo in ".{0,100}",
    ) {
        let data = FungibleTokenPacketData { denom, amount, sender, receiver, memo };
        prop_assert_eq!(FungibleTokenPacketData::decode(&data.encode()).unwrap(), data);
    }
}

mod ics20_ledger {
    use super::*;
    use ibc_core::ics20::TransferModule;
    use ibc_core::Module;

    proptest! {
        /// Total supply of a voucher denomination is conserved across any
        /// sequence of recv packets (mint) and error acks (refund).
        #[test]
        fn recv_then_refund_is_identity(
            amount in 1u128..1_000_000,
            balance in 0u128..1_000_000,
        ) {
            let mut module = TransferModule::new();
            module.mint("alice", "sol", balance + amount);

            // Outbound debit (escrow), then a timeout refund.
            let data = FungibleTokenPacketData {
                denom: "sol".into(),
                amount,
                sender: "alice".into(),
                receiver: "bob".into(),
                memo: String::new(),
            };
            let packet = Packet {
                sequence: 1,
                source_port: PortId::transfer(),
                source_channel: ChannelId::new(0),
                destination_port: PortId::transfer(),
                destination_channel: ChannelId::new(1),
                payload: data.encode(),
                timeout: Timeout::NEVER,
            };
            // Simulate the send-side debit through the public API:
            // a send_transfer would do this; here we replicate via burn+mint.
            module.transfer_internal("alice", "escrow:channel-0", "sol", amount).unwrap();
            prop_assert_eq!(module.balance("alice", "sol"), balance);
            module.on_timeout(&packet).unwrap();
            prop_assert_eq!(module.balance("alice", "sol"), balance + amount);
            prop_assert_eq!(module.balance("escrow:channel-0", "sol"), 0);
        }
    }
}

/// The proof hand-off decoder (`ProofData::bytes`) takes bytes a relayer
/// chose: it answers `InvalidProof`, never a panic, and a length it reads is
/// spent only against input that is there.
mod proof_hand_off {
    use super::*;
    use ibc_core::client::{LightClient, MockClient};
    use ibc_core::store::{decode_proof, encode_proof};
    use ibc_core::types::IbcError;
    use sealable_trie::Trie;

    fn trie(keys: u16) -> Trie {
        let mut trie = Trie::new();
        for i in 0..keys {
            trie.insert(&i.to_be_bytes(), &[i as u8; 5]).unwrap();
        }
        trie
    }

    #[test]
    fn lengths_are_not_trusted_ahead_of_the_input() {
        for claim in [
            &[0u8, 0xff, 0xff][..],          // a leaf of 65 535 nibbles, none present
            &[2, 0xff, 0xff, 0x11],          // an extension likewise
            &[1, 0xff, 0xff],                // a full branch, no hashes
            &[1, 0xff, 0xff, 7, 7, 7, 7, 7], // …and a fraction of one
            &[0, 0, 0],                      // an empty path, no hash
            &[3],                            // no such node
            b"{\"nodes\":[]}",               // the old JSON hand-off
        ] {
            assert!(matches!(decode_proof(claim), Err(IbcError::InvalidProof(_))), "{claim:?}");
        }
        assert_eq!(decode_proof(&[]).unwrap().nodes().len(), 0);
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_are_refused_or_canonical(
            bytes in proptest::collection::vec(
                prop_oneof![3 => 0u8..3, 2 => Just(0xffu8), 5 => any::<u8>()], 0..300),
        ) {
            match decode_proof(&bytes) {
                Ok(proof) => prop_assert_eq!(encode_proof(&proof), bytes),
                Err(IbcError::InvalidProof(_)) => {}
                Err(other) => prop_assert!(false, "unexpected {other:?}"),
            }
        }

        /// One flipped bit anywhere in a real proof: the light client says
        /// `InvalidProof`, for the member and for the absent key alike.
        #[test]
        fn a_flipped_bit_never_verifies(
            keys in 1u16..200,
            pick in any::<prop::sample::Index>(),
            flip in any::<prop::sample::Index>(),
            bit in 0u8..8,
        ) {
            let trie = trie(keys);
            let mut client = MockClient::new();
            client.trust(7, trie.root_hash(), 0);
            let present = (pick.index(keys as usize) as u16).to_be_bytes();
            let absent = keys.to_be_bytes();

            let member = encode_proof(&trie.prove(&present).unwrap());
            let value = [present[1]; 5];
            prop_assert!(client.verify_membership(7, &present, &value, &member).is_ok());
            let mut damaged = member.clone();
            damaged[flip.index(member.len())] ^= 1 << bit;
            let verdict = client.verify_membership(7, &present, &value, &damaged);
            prop_assert!(matches!(verdict, Err(IbcError::InvalidProof(_))), "{verdict:?}");

            let non_member = encode_proof(&trie.prove(&absent).unwrap());
            prop_assert!(client.verify_non_membership(7, &absent, &non_member).is_ok());
            let mut damaged = non_member.clone();
            damaged[flip.index(non_member.len())] ^= 1 << bit;
            let verdict = client.verify_non_membership(7, &absent, &damaged);
            prop_assert!(matches!(verdict, Err(IbcError::InvalidProof(_))), "{verdict:?}");
        }
    }
}
