//! The guest blockchain's light client (runs on the counterparty chain):
//! guest headers as `ibc_core::client::QuorumClient` reads them. The paper
//! notes this client is deliberately lightweight (§VI-D).

use ibc_core::client::{Anchor, ConsensusState, QuorumClient, QuorumHeader};
use ibc_core::types::{Height, IbcError};
use serde::{Deserialize, Serialize};
use sim_crypto::schnorr::{PublicKey, Signature};

use crate::block::GuestBlock;
use crate::epoch::Epoch;

/// A guest light-client header: a block plus its quorum signatures.
///
/// Relayers assemble these from `FinalisedBlock` events (Alg. 2 l. 6).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GuestHeader {
    /// The finalised guest block.
    pub block: GuestBlock,
    /// Validator signatures over the block.
    pub signatures: Vec<(PublicKey, Signature)>,
}

impl GuestHeader {
    /// Wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("header serializes")
    }
}

/// Misbehaviour evidence freezing the client: two quorum-signed headers at
/// the same height with different hashes (a fork of the guest chain).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GuestMisbehaviour {
    /// First header.
    pub header_a: GuestHeader,
    /// Conflicting header at the same height.
    pub header_b: GuestHeader,
}

impl GuestMisbehaviour {
    /// Wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("misbehaviour serializes")
    }
}

/// The guest's light client (runs on the counterparty): the stake-quorum
/// client over guest blocks, following the epochs they announce.
pub type GuestLightClient = QuorumClient<GuestHeader>;

/// A genesis block is the trusted setup a client starts from.
impl Anchor for GuestBlock {
    fn anchor(&self) -> (Height, ConsensusState) {
        (self.height, ConsensusState { root: self.state_root, timestamp_ms: self.timestamp_ms })
    }
}

impl Anchor for GuestHeader {
    fn anchor(&self) -> (Height, ConsensusState) {
        self.block.anchor()
    }
}

impl QuorumHeader for GuestHeader {
    type Set = Epoch;

    const CLIENT_TYPE: &'static str = "guest";

    fn decode_evidence(bytes: &[u8]) -> Option<(Self, Self)> {
        let evidence = serde_json::from_slice::<GuestMisbehaviour>(bytes).ok()?;
        Some((evidence.header_a, evidence.header_b))
    }

    fn signed_bytes(&self) -> Vec<u8> {
        self.block.signing_bytes()
    }

    fn signatures(&self) -> &[(PublicKey, Signature)] {
        &self.signatures
    }

    /// The next epoch, announced by the last block of an epoch.
    fn into_next_set(self) -> Option<Epoch> {
        self.block.next_epoch
    }

    fn conflicts_with(&self, other: &Self) -> bool {
        self.block.hash() != other.block.hash()
    }

    fn check_set(&self, epoch: &Epoch) -> Result<(), IbcError> {
        (self.block.epoch_id == epoch.id()).then_some(()).ok_or_else(|| {
            IbcError::ClientVerification(
                "header is not of the trusted epoch (relay epochs in order)".into(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::Validator;
    use ibc_core::LightClient;
    use sim_crypto::schnorr::Keypair;
    use sim_crypto::sha256;

    fn setup() -> (Vec<Keypair>, Epoch, GuestBlock, GuestLightClient) {
        let keypairs: Vec<Keypair> = (0..4).map(Keypair::from_seed).collect();
        let epoch = Epoch::new(
            keypairs.iter().map(|kp| Validator { pubkey: kp.public(), stake: 100 }).collect(),
        );
        let genesis = GuestBlock::genesis(&epoch, sha256(b"genesis-root"), 0, 0);
        let client = GuestLightClient::from_genesis(&genesis, epoch.clone());
        (keypairs, epoch, genesis, client)
    }

    fn make_block(prev: &GuestBlock, epoch: &Epoch, root: &[u8], timestamp_ms: u64) -> GuestBlock {
        GuestBlock {
            height: prev.height + 1,
            prev_hash: prev.hash(),
            state_root: sha256(root),
            timestamp_ms,
            host_height: prev.host_height + 10,
            epoch_id: epoch.id(),
            next_epoch: None,
        }
    }

    fn sign_header(block: GuestBlock, keypairs: &[Keypair]) -> GuestHeader {
        let signing = block.signing_bytes();
        GuestHeader {
            block,
            signatures: keypairs.iter().map(|kp| (kp.public(), kp.sign(&signing))).collect(),
        }
    }

    #[test]
    fn quorum_header_accepted() {
        let (keypairs, epoch, genesis, mut client) = setup();
        let block = make_block(&genesis, &epoch, b"r1", 1_000);
        let header = sign_header(block.clone(), &keypairs[..3]);
        assert_eq!(client.update(&header.encode()).unwrap(), 1);
        let cs = client.consensus_state(1).unwrap();
        assert_eq!(cs.root, block.state_root);
    }

    #[test]
    fn sub_quorum_header_rejected() {
        let (keypairs, epoch, genesis, mut client) = setup();
        let block = make_block(&genesis, &epoch, b"r1", 1_000);
        let header = sign_header(block, &keypairs[..2]);
        assert!(client.update(&header.encode()).is_err());
    }

    #[test]
    fn duplicate_signers_do_not_stack_stake() {
        let (keypairs, epoch, genesis, mut client) = setup();
        let block = make_block(&genesis, &epoch, b"r1", 1_000);
        let signing = block.signing_bytes();
        let dup = keypairs[0].sign(&signing);
        let header = GuestHeader {
            block,
            signatures: vec![
                (keypairs[0].public(), dup),
                (keypairs[0].public(), dup),
                (keypairs[0].public(), dup),
            ],
        };
        assert!(client.update(&header.encode()).is_err());
    }

    #[test]
    fn outsider_signature_rejected() {
        let (mut keypairs, epoch, genesis, mut client) = setup();
        keypairs.push(Keypair::from_seed(99));
        let block = make_block(&genesis, &epoch, b"r1", 1_000);
        let header = sign_header(block, &keypairs[2..]); // 2 insiders + outsider
        assert!(client.update(&header.encode()).is_err());
    }

    #[test]
    fn non_monotonic_rejected() {
        let (keypairs, epoch, genesis, mut client) = setup();
        let block = make_block(&genesis, &epoch, b"r1", 1_000);
        client.update(&sign_header(block.clone(), &keypairs).encode()).unwrap();
        assert!(client.update(&sign_header(block, &keypairs).encode()).is_err());
    }

    #[test]
    fn epoch_rotation_followed() {
        let (keypairs, epoch, genesis, mut client) = setup();
        let new_validator = Keypair::from_seed(7);
        let next_epoch =
            Epoch::new(vec![Validator { pubkey: new_validator.public(), stake: 1_000 }]);
        let mut boundary = make_block(&genesis, &epoch, b"r1", 1_000);
        boundary.next_epoch = Some(next_epoch.clone());
        client.update(&sign_header(boundary.clone(), &keypairs[..3]).encode()).unwrap();

        // Blocks of the new epoch are now verified against the new set.
        let b2 = make_block(&boundary, &next_epoch, b"r2", 2_000);
        let header = sign_header(b2, std::slice::from_ref(&new_validator));
        client.update(&header.encode()).unwrap();

        // The old validators can no longer finalise headers.
        let stale_epoch_block = GuestBlock {
            height: 3,
            prev_hash: sha256(b"x"),
            state_root: sha256(b"r3"),
            timestamp_ms: 3_000,
            host_height: 30,
            epoch_id: epoch.id(),
            next_epoch: None,
        };
        assert!(client.update(&sign_header(stale_epoch_block, &keypairs).encode()).is_err());
    }

    #[test]
    fn misbehaviour_detects_forks() {
        let (keypairs, epoch, genesis, client) = setup();
        let block_a = make_block(&genesis, &epoch, b"fork-a", 1_000);
        let block_b = make_block(&genesis, &epoch, b"fork-b", 1_000);
        let evidence = GuestMisbehaviour {
            header_a: sign_header(block_a.clone(), &keypairs[..3]),
            header_b: sign_header(block_b, &keypairs[..3]),
        };
        assert!(client.check_misbehaviour(&evidence.encode()));

        // Same block twice is not a fork.
        let benign = GuestMisbehaviour {
            header_a: sign_header(block_a.clone(), &keypairs[..3]),
            header_b: sign_header(block_a.clone(), &keypairs[..3]),
        };
        assert!(!client.check_misbehaviour(&benign.encode()));

        // A fork without quorum is not valid evidence.
        let weak = GuestMisbehaviour {
            header_a: sign_header(block_a, &keypairs[..3]),
            header_b: sign_header(make_block(&genesis, &epoch, b"fork-c", 1_000), &keypairs[..1]),
        };
        assert!(!client.check_misbehaviour(&weak.encode()));
    }

    #[test]
    fn proof_verification_against_verified_root() {
        let (keypairs, epoch, genesis, mut client) = setup();
        let mut trie = sealable_trie::Trie::new();
        trie.insert(b"commitments/k", b"v").unwrap();
        let mut block = make_block(&genesis, &epoch, b"", 1_000);
        block.state_root = trie.root_hash();
        client.update(&sign_header(block, &keypairs).encode()).unwrap();

        let proof = ibc_core::store::encode_proof(&trie.prove(b"commitments/k").unwrap());
        client.verify_membership(1, b"commitments/k", b"v", &proof).unwrap();
        assert!(client.verify_membership(1, b"commitments/k", b"w", &proof).is_err());
        let absent = ibc_core::store::encode_proof(&trie.prove(b"nope").unwrap());
        client.verify_non_membership(1, b"nope", &absent).unwrap();
    }
}
