//! Counterparty block headers (Tendermint-style commits).

use serde::{Deserialize, Serialize};
use sim_crypto::schnorr::{PublicKey, Signature};
use sim_crypto::{Hash, Sha256};

/// A counterparty header: block metadata plus the validator commit.
///
/// This is the payload the relayer chunks into the guest chain when
/// updating the guest's light client of the counterparty.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CpHeader {
    /// Block height.
    pub height: u64,
    /// Application state root (the IBC store's commitment).
    pub app_hash: Hash,
    /// Block timestamp.
    pub timestamp_ms: u64,
    /// The validator set taking over from the next block, when this block
    /// closes a counterparty epoch (Tendermint-style set rotation). The
    /// current set signs over its hash, so light clients can adopt it.
    #[serde(default)]
    pub next_validators: Option<Vec<(PublicKey, u64)>>,
    /// The commit: signatures from participating validators.
    pub signatures: Vec<(PublicKey, Signature)>,
}

impl CpHeader {
    /// The bytes each validator signs (binding the next validator set when
    /// one is announced).
    pub fn signing_bytes(
        height: u64,
        app_hash: &Hash,
        timestamp_ms: u64,
        next_validators: Option<&[(PublicKey, u64)]>,
    ) -> Vec<u8> {
        let mut hasher = Sha256::new();
        hasher.update(b"cp/commit");
        hasher.update(height.to_le_bytes());
        hasher.update(app_hash);
        hasher.update(timestamp_ms.to_le_bytes());
        match next_validators {
            Some(set) => {
                hasher.update([1u8]);
                hasher.update((set.len() as u64).to_le_bytes());
                for (pk, power) in set {
                    hasher.update(pk.to_bytes());
                    hasher.update(power.to_le_bytes());
                }
            }
            None => {
                hasher.update([0u8]);
            }
        }
        hasher.finalize().into_bytes().to_vec()
    }

    /// Convenience: the signing bytes of this header.
    pub fn own_signing_bytes(&self) -> Vec<u8> {
        Self::signing_bytes(
            self.height,
            &self.app_hash,
            self.timestamp_ms,
            self.next_validators.as_deref(),
        )
    }

    /// Wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("header serializes")
    }

    /// Parses the wire encoding.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        serde_json::from_slice(bytes).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_crypto::schnorr::Keypair;
    use sim_crypto::sha256;

    #[test]
    fn encode_round_trip() {
        let kp = Keypair::from_seed(1);
        let root = sha256(b"app");
        let header = CpHeader {
            height: 10,
            app_hash: root,
            timestamp_ms: 123,
            next_validators: None,
            signatures: vec![(
                kp.public(),
                kp.sign(&CpHeader::signing_bytes(10, &root, 123, None)),
            )],
        };
        assert_eq!(CpHeader::decode(&header.encode()).unwrap(), header);
    }
}
