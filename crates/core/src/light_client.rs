//! The guest blockchain's light client (runs on the counterparty chain).
//!
//! Verifies that a guest block was finalised by a quorum of the guest's
//! validator epoch, tracks epoch rotations announced in epoch-closing
//! blocks, and checks sealable-trie proofs against verified state roots.
//! The paper notes this client is deliberately lightweight (§VI-D).

use std::collections::BTreeMap;

use ibc_core::client::ConsensusState;
use ibc_core::types::{Height, IbcError};
use ibc_core::LightClient;
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

    /// Parses the wire encoding.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        serde_json::from_slice(bytes).ok()
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

/// The light client state.
///
/// # Examples
///
/// ```
/// use guest_chain::{GuestConfig, GuestContract, GuestHeader, GuestLightClient};
/// use ibc_core::LightClient;
/// use sim_crypto::schnorr::Keypair;
///
/// // A guest chain finalises a block…
/// let validators: Vec<Keypair> = (0..3).map(Keypair::from_seed).collect();
/// let genesis_set = validators.iter().map(|kp| (kp.public(), 100)).collect();
/// let mut contract = GuestContract::new(GuestConfig::fast(), genesis_set, 0, 0);
/// let block = contract.generate_block(15_000, 10)?;
/// for kp in &validators {
///     if contract.sign(block.height, kp.public(), kp.sign(&block.signing_bytes()))? {
///         break;
///     }
/// }
///
/// // …and the counterparty's light client verifies the quorum.
/// let mut client = GuestLightClient::from_genesis(
///     &contract.block_at(0).unwrap(),
///     contract.current_epoch().clone(),
/// );
/// let header = GuestHeader {
///     block: block.clone(),
///     signatures: contract.signatures_at(block.height),
/// };
/// assert_eq!(client.update(&header.encode()).unwrap(), block.height);
/// # Ok::<(), guest_chain::GuestError>(())
/// ```
#[derive(Debug)]
pub struct GuestLightClient {
    epoch: Epoch,
    latest: Height,
    consensus: BTreeMap<Height, ConsensusState>,
    frozen: bool,
}

impl GuestLightClient {
    /// Initializes from the guest's genesis block (whose contents are part
    /// of the trusted setup).
    pub fn from_genesis(genesis: &GuestBlock, epoch: Epoch) -> Self {
        let mut consensus = BTreeMap::new();
        consensus.insert(
            genesis.height,
            ConsensusState { root: genesis.state_root, timestamp_ms: genesis.timestamp_ms },
        );
        Self { epoch, latest: genesis.height, consensus, frozen: false }
    }

    /// Verifies a header against an arbitrary epoch (shared by `update` and
    /// misbehaviour checking).
    fn verify_header_against(epoch: &Epoch, header: &GuestHeader) -> Result<(), IbcError> {
        if header.block.epoch_id != epoch.id() {
            return Err(IbcError::ClientVerification(
                "header epoch does not match the trusted epoch (epoch-boundary \
                 blocks must be relayed in order)"
                    .into(),
            ));
        }
        let signing_bytes = header.block.signing_bytes();
        let mut voted = 0u64;
        let mut seen: Vec<PublicKey> = Vec::new();
        for (pubkey, signature) in &header.signatures {
            if seen.contains(pubkey) {
                return Err(IbcError::ClientVerification("duplicate signer".into()));
            }
            seen.push(*pubkey);
            let Some(stake) = epoch.stake_of(pubkey) else {
                return Err(IbcError::ClientVerification(
                    "signer is not a validator of the epoch".into(),
                ));
            };
            if !pubkey.verify(&signing_bytes, signature) {
                return Err(IbcError::ClientVerification("invalid signature".into()));
            }
            voted += stake;
        }
        if voted < epoch.quorum_stake() {
            return Err(IbcError::ClientVerification(format!(
                "no quorum: {voted} < {}",
                epoch.quorum_stake()
            )));
        }
        Ok(())
    }
}

impl LightClient for GuestLightClient {
    fn client_type(&self) -> &'static str {
        "guest"
    }

    fn latest_height(&self) -> Height {
        self.latest
    }

    fn consensus_state(&self, height: Height) -> Option<ConsensusState> {
        self.consensus.get(&height).copied()
    }

    fn update(&mut self, header: &[u8]) -> Result<Height, IbcError> {
        let header = GuestHeader::decode(header)
            .ok_or_else(|| IbcError::ClientVerification("malformed guest header".into()))?;
        if header.block.height <= self.latest {
            return Err(IbcError::ClientVerification("non-monotonic height".into()));
        }
        Self::verify_header_against(&self.epoch, &header)?;
        self.latest = header.block.height;
        self.consensus.insert(
            header.block.height,
            ConsensusState {
                root: header.block.state_root,
                timestamp_ms: header.block.timestamp_ms,
            },
        );
        if let Some(next) = header.block.next_epoch {
            self.epoch = next;
        }
        Ok(self.latest)
    }

    fn check_misbehaviour(&self, evidence: &[u8]) -> bool {
        let Ok(evidence) = serde_json::from_slice::<GuestMisbehaviour>(evidence) else {
            return false;
        };
        let (a, b) = (&evidence.header_a, &evidence.header_b);
        a.block.height == b.block.height
            && a.block.hash() != b.block.hash()
            && Self::verify_header_against(&self.epoch, a).is_ok()
            && Self::verify_header_against(&self.epoch, b).is_ok()
    }

    fn is_frozen(&self) -> bool {
        self.frozen
    }

    fn freeze(&mut self) {
        self.frozen = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::Validator;
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
        assert_eq!(client.epoch.id(), next_epoch.id());

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
