//! The light client of the counterparty chain (runs inside the guest):
//! the stake-quorum client over Tendermint-style commits.

use ibc_core::client::{Anchor, ConsensusState, QuorumClient, QuorumHeader};
use ibc_core::types::Height;
use sim_crypto::schnorr::{PublicKey, Signature};

use crate::header::CpHeader;

/// Tendermint-like light client: accepts a header once signatures holding
/// more than ⅔ of the known voting power endorse it.
pub type CpLightClient = QuorumClient<CpHeader>;

impl Anchor for CpHeader {
    fn anchor(&self) -> (Height, ConsensusState) {
        (self.height, ConsensusState { root: self.app_hash, timestamp_ms: self.timestamp_ms })
    }
}

impl QuorumHeader for CpHeader {
    type Set = Vec<(PublicKey, u64)>;

    const CLIENT_TYPE: &'static str = "tendermint-sim";

    /// Evidence: two conflicting quorum-signed headers at one height.
    fn decode_evidence(bytes: &[u8]) -> Option<(Self, Self)> {
        serde_json::from_slice(bytes).ok()
    }

    fn signed_bytes(&self) -> Vec<u8> {
        let next = self.next_validators.as_deref();
        CpHeader::signing_bytes(self.height, &self.app_hash, self.timestamp_ms, next)
    }

    fn signatures(&self) -> &[(PublicKey, Signature)] {
        &self.signatures
    }

    /// An announced rotation: the new set signs from the next height on.
    fn into_next_set(self) -> Option<Self::Set> {
        self.next_validators
    }

    fn conflicts_with(&self, other: &Self) -> bool {
        self.app_hash != other.app_hash || self.timestamp_ms != other.timestamp_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibc_core::LightClient;
    use sim_crypto::schnorr::Keypair;
    use sim_crypto::sha256;

    fn setup(n: usize) -> (Vec<Keypair>, CpLightClient) {
        let keypairs: Vec<Keypair> = (0..n as u64).map(Keypair::from_seed).collect();
        let client = CpLightClient::new(keypairs.iter().map(|kp| (kp.public(), 10)).collect());
        (keypairs, client)
    }

    fn header(height: u64, root_seed: &[u8], signers: &[Keypair]) -> CpHeader {
        let app_hash = sha256(root_seed);
        let signing = CpHeader::signing_bytes(height, &app_hash, height * 100, None);
        CpHeader {
            height,
            app_hash,
            timestamp_ms: height * 100,
            next_validators: None,
            signatures: signers.iter().map(|kp| (kp.public(), kp.sign(&signing))).collect(),
        }
    }

    #[test]
    fn quorum_accepted_subquorum_rejected() {
        let (keypairs, mut client) = setup(9);
        // 7 of 9 (power 70/90) > 2/3: accepted.
        assert!(client.update(&header(1, b"a", &keypairs[..7]).encode()).is_ok());
        // Exactly 6 of 9 (power 60/90 = 2/3 exactly): rejected (must be >).
        assert!(client.update(&header(2, b"b", &keypairs[..6]).encode()).is_err());
        assert_eq!(client.latest_height(), 1);
    }

    #[test]
    fn unknown_signer_rejected() {
        let (mut keypairs, mut client) = setup(4);
        keypairs.push(Keypair::from_seed(1_000));
        assert!(client.update(&header(1, b"a", &keypairs).encode()).is_err());
    }

    #[test]
    fn rotation_is_adopted_and_binding() {
        let (keypairs, mut client) = setup(4);
        let new_set: Vec<Keypair> = (10..14).map(Keypair::from_seed).collect();
        let next: Vec<_> = new_set.iter().map(|kp| (kp.public(), 10)).collect();

        // Height 1 announces the rotation, signed by the OLD set.
        let app_hash = sha256(b"rot");
        let signing = CpHeader::signing_bytes(1, &app_hash, 100, Some(&next));
        let rotation_header = CpHeader {
            height: 1,
            app_hash,
            timestamp_ms: 100,
            next_validators: Some(next),
            signatures: keypairs.iter().map(|kp| (kp.public(), kp.sign(&signing))).collect(),
        };
        client.update(&rotation_header.encode()).unwrap();

        // The old set can no longer sign height 2…
        assert!(client.update(&header(2, b"x", &keypairs).encode()).is_err());
        // …but the new set can.
        assert!(client.update(&header(2, b"x", &new_set).encode()).is_ok());
    }

    #[test]
    fn tampered_rotation_rejected() {
        let (keypairs, mut client) = setup(4);
        let honest_next: Vec<_> =
            (10..14u64).map(|s| (Keypair::from_seed(s).public(), 10)).collect();
        let attacker: Vec<_> = (90..94u64).map(|s| (Keypair::from_seed(s).public(), 10)).collect();
        // Signatures cover the honest set; the header carries the
        // attacker's — must fail verification.
        let app_hash = sha256(b"rot");
        let signing = CpHeader::signing_bytes(1, &app_hash, 100, Some(&honest_next));
        let forged = CpHeader {
            height: 1,
            app_hash,
            timestamp_ms: 100,
            next_validators: Some(attacker),
            signatures: keypairs.iter().map(|kp| (kp.public(), kp.sign(&signing))).collect(),
        };
        assert!(client.update(&forged.encode()).is_err());
    }

    #[test]
    fn misbehaviour_on_conflicting_headers() {
        let (keypairs, client) = setup(4);
        let a = header(5, b"fork-a", &keypairs);
        let b = header(5, b"fork-b", &keypairs);
        let evidence = serde_json::to_vec(&(a.clone(), b)).unwrap();
        assert!(client.check_misbehaviour(&evidence));
        let benign = serde_json::to_vec(&(a.clone(), a)).unwrap();
        assert!(!client.check_misbehaviour(&benign));
    }
}
