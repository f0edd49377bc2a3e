//! The guest's light client as it was before `QuorumClient`: the oracle of
//! `tests/quorum_oracle.rs`. The code is the old
//! `crates/core/src/light_client.rs` outside its tests and header types,
//! with `GuestHeader::decode` and `Epoch::stake_of` now reached through
//! their traits, and `Epoch::quorum_stake` written out, so that the oracle
//! does not share the `quorum` function it checks.

use std::collections::BTreeMap;

use guest_chain::{Epoch, GuestBlock, GuestHeader, GuestMisbehaviour};
use ibc_core::client::{ConsensusState, QuorumHeader, TrustedSet};
use ibc_core::types::{Height, IbcError};
use ibc_core::LightClient;
use sim_crypto::schnorr::PublicKey;
use sim_crypto::Hash;

/// The light client state.
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
        let quorum_stake = epoch.total_stake() * 2 / 3 + 1;
        if voted < quorum_stake {
            return Err(IbcError::ClientVerification(format!(
                "no quorum: {voted} < {quorum_stake}"
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

    /// Field by field: each trusted key and its stake, the latest height,
    /// the frozen flag, then each consensus state's height, root and
    /// timestamp.
    fn stored_bytes(&self) -> usize {
        self.epoch.len() * (PublicKey::LEN + 8) + 8 + 1 + self.consensus.len() * (8 + Hash::LEN + 8)
    }
}
