//! Guest blocks.

use serde::{Deserialize, Serialize};
use sim_crypto::schnorr::{PublicKey, Signature};
use sim_crypto::{Hash, Sha256};

use crate::epoch::Epoch;

/// A block of the guest blockchain.
///
/// Guest blocks are generated by the Guest Contract (Alg. 1,
/// `GenerateBlock`) and finalised once a quorum of Validators has signed
/// them. They commit to the guest chain's provable state via
/// [`GuestBlock::state_root`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuestBlock {
    /// Height, starting at 0 for genesis.
    pub height: u64,
    /// Hash of the previous block ([`Hash::ZERO`] for genesis).
    pub prev_hash: Hash,
    /// Root of the guest chain's sealable trie at creation time.
    pub state_root: Hash,
    /// Host-chain timestamp at creation.
    pub timestamp_ms: u64,
    /// Host-chain height at creation (anchors the guest to the host).
    pub host_height: u64,
    /// Id of the epoch whose validators must sign this block.
    pub epoch_id: Hash,
    /// The next epoch's validator set, present only in the last block of an
    /// epoch; light clients adopt it upon verifying this block.
    pub next_epoch: Option<Epoch>,
}

impl GuestBlock {
    /// The genesis block for an initial epoch and state root.
    pub fn genesis(epoch: &Epoch, state_root: Hash, timestamp_ms: u64, host_height: u64) -> Self {
        Self {
            height: 0,
            prev_hash: Hash::ZERO,
            state_root,
            timestamp_ms,
            host_height,
            epoch_id: epoch.id(),
            next_epoch: None,
        }
    }

    /// Whether this block closes its epoch.
    pub fn is_last_in_epoch(&self) -> bool {
        self.next_epoch.is_some()
    }

    /// The block hash.
    pub fn hash(&self) -> Hash {
        let mut hasher = Sha256::new();
        hasher.update(b"bmg/block");
        hasher.update(self.height.to_le_bytes());
        hasher.update(self.prev_hash);
        hasher.update(self.state_root);
        hasher.update(self.timestamp_ms.to_le_bytes());
        hasher.update(self.host_height.to_le_bytes());
        hasher.update(self.epoch_id);
        match &self.next_epoch {
            Some(epoch) => {
                hasher.update([1u8]);
                hasher.update(epoch.id());
            }
            None => {
                hasher.update([0u8]);
            }
        }
        hasher.finalize()
    }

    /// The bytes a validator signs for a block with this height and hash.
    ///
    /// Binding (height, hash) — rather than the hash alone — lets the
    /// fishermen express all three §III-C misbehaviour kinds as one
    /// [`SignedVote`] check.
    pub fn signing_bytes_for(height: u64, block_hash: &Hash) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(9 + 32 + 8);
        bytes.extend_from_slice(b"bmg/vote/");
        bytes.extend_from_slice(&height.to_le_bytes());
        bytes.extend_from_slice(block_hash.as_bytes());
        bytes
    }

    /// The bytes a validator signs to endorse this block.
    pub fn signing_bytes(&self) -> Vec<u8> {
        Self::signing_bytes_for(self.height, &self.hash())
    }
}

/// A validator's endorsement of a block at a height — also the fisherman
/// evidence format (§III-C).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignedVote {
    /// The height voted on.
    pub height: u64,
    /// The block hash voted for.
    pub block_hash: Hash,
    /// The voting validator.
    pub pubkey: PublicKey,
    /// Signature over [`GuestBlock::signing_bytes_for`].
    pub signature: Signature,
}

impl SignedVote {
    /// Whether the signature actually endorses `(height, block_hash)`.
    pub fn verify(&self) -> bool {
        self.pubkey
            .verify(&GuestBlock::signing_bytes_for(self.height, &self.block_hash), &self.signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::Validator;
    use sim_crypto::schnorr::Keypair;
    use sim_crypto::sha256;

    fn sample_epoch() -> Epoch {
        Epoch::new(vec![Validator { pubkey: Keypair::from_seed(1).public(), stake: 10 }])
    }

    #[test]
    fn genesis_links_to_zero() {
        let block = GuestBlock::genesis(&sample_epoch(), sha256(b"root"), 1_000, 5);
        assert_eq!(block.height, 0);
        assert!(block.prev_hash.is_zero());
        assert!(!block.is_last_in_epoch());
    }

    #[test]
    fn hash_binds_every_field() {
        let base = GuestBlock::genesis(&sample_epoch(), sha256(b"root"), 1_000, 5);
        let mut variants = Vec::new();
        let mut b = base.clone();
        b.height = 1;
        variants.push(b);
        let mut b = base.clone();
        b.state_root = sha256(b"other");
        variants.push(b);
        let mut b = base.clone();
        b.timestamp_ms = 2_000;
        variants.push(b);
        let mut b = base.clone();
        b.host_height = 6;
        variants.push(b);
        let mut b = base.clone();
        b.next_epoch = Some(sample_epoch());
        variants.push(b);
        for v in variants {
            assert_ne!(v.hash(), base.hash());
        }
    }

    #[test]
    fn signed_vote_verifies_and_rejects_forgery() {
        let keypair = Keypair::from_seed(7);
        let block = GuestBlock::genesis(&sample_epoch(), sha256(b"root"), 1_000, 5);
        let vote = SignedVote {
            height: block.height,
            block_hash: block.hash(),
            pubkey: keypair.public(),
            signature: keypair.sign(&block.signing_bytes()),
        };
        assert!(vote.verify());
        let mut forged = vote.clone();
        forged.height = 9;
        assert!(!forged.verify());
        let mut forged = vote;
        forged.block_hash = sha256(b"lie");
        assert!(!forged.verify());
    }
}
