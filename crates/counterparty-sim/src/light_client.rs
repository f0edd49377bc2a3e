//! The light client of the counterparty chain (runs inside the guest).

use std::collections::BTreeMap;

use ibc_core::client::ConsensusState;
use ibc_core::types::{Height, IbcError};
use ibc_core::LightClient;
use sim_crypto::schnorr::PublicKey;

use crate::header::CpHeader;

/// Tendermint-like light client: accepts a header once signatures holding
/// more than ⅔ of the known voting power endorse it.
#[derive(Debug)]
pub struct CpLightClient {
    validators: Vec<(PublicKey, u64)>,
    total_power: u64,
    latest: Height,
    consensus: BTreeMap<Height, ConsensusState>,
    frozen: bool,
}

impl CpLightClient {
    /// Creates a client trusting the given validator set.
    pub fn new(validators: Vec<(PublicKey, u64)>) -> Self {
        let total_power = validators.iter().map(|(_, p)| p).sum();
        Self { validators, total_power, latest: 0, consensus: BTreeMap::new(), frozen: false }
    }

    fn power_of(&self, key: &PublicKey) -> Option<u64> {
        self.validators.iter().find(|(k, _)| k == key).map(|(_, p)| *p)
    }

    fn verify_header(&self, header: &CpHeader) -> Result<(), IbcError> {
        let signing = header.own_signing_bytes();
        let mut power = 0u64;
        let mut seen: Vec<PublicKey> = Vec::new();
        for (pubkey, signature) in &header.signatures {
            if seen.contains(pubkey) {
                return Err(IbcError::ClientVerification("duplicate signer".into()));
            }
            seen.push(*pubkey);
            let Some(p) = self.power_of(pubkey) else {
                return Err(IbcError::ClientVerification("unknown validator".into()));
            };
            if !pubkey.verify(&signing, signature) {
                return Err(IbcError::ClientVerification("invalid commit signature".into()));
            }
            power += p;
        }
        if power * 3 <= self.total_power * 2 {
            return Err(IbcError::ClientVerification(format!(
                "commit power {power} is not more than 2/3 of {}",
                self.total_power
            )));
        }
        Ok(())
    }
}

impl LightClient for CpLightClient {
    fn client_type(&self) -> &'static str {
        "tendermint-sim"
    }

    fn latest_height(&self) -> Height {
        self.latest
    }

    fn consensus_state(&self, height: Height) -> Option<ConsensusState> {
        self.consensus.get(&height).copied()
    }

    fn update(&mut self, header: &[u8]) -> Result<Height, IbcError> {
        let header = CpHeader::decode(header)
            .ok_or_else(|| IbcError::ClientVerification("malformed header".into()))?;
        if header.height <= self.latest {
            return Err(IbcError::ClientVerification("non-monotonic height".into()));
        }
        self.verify_header(&header)?;
        self.latest = header.height;
        self.consensus.insert(
            header.height,
            ConsensusState { root: header.app_hash, timestamp_ms: header.timestamp_ms },
        );
        // Adopt an announced rotation: the new set signs from the next
        // height on. (The current quorum vouched for it — same trust model
        // as the guest's epoch handover.)
        if let Some(next) = header.next_validators {
            self.total_power = next.iter().map(|(_, p)| p).sum();
            self.validators = next;
        }
        Ok(self.latest)
    }

    fn check_misbehaviour(&self, evidence: &[u8]) -> bool {
        // Evidence: two conflicting quorum-signed headers at one height.
        let Ok((a, b)) = serde_json::from_slice::<(CpHeader, CpHeader)>(evidence) else {
            return false;
        };
        a.height == b.height
            && (a.app_hash != b.app_hash || a.timestamp_ms != b.timestamp_ms)
            && self.verify_header(&a).is_ok()
            && self.verify_header(&b).is_ok()
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
