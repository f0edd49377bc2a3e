//! The counterparty's light client as it was before `QuorumClient`: the
//! oracle of `tests/quorum_oracle.rs`. The code is the old
//! `crates/counterparty-sim/src/light_client.rs` outside its tests, with
//! `CpHeader::decode` and `own_signing_bytes` now reached through
//! `QuorumHeader` (as `decode` and `signed_bytes`).

use std::collections::BTreeMap;

use counterparty_sim::CpHeader;
use ibc_core::client::{ConsensusState, QuorumHeader};
use ibc_core::types::{Height, IbcError};
use ibc_core::LightClient;
use sim_crypto::schnorr::PublicKey;

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
        let signing = header.signed_bytes();
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
