//! The one light client of stake-signed headers, for the guest's client of
//! the counterparty (§IV) and the counterparty's client of the guest (§VI-D).

use std::collections::BTreeMap;

use serde::de::DeserializeOwned;
use sim_crypto::schnorr::{PublicKey, Signature};

use super::{ConsensusState, LightClient};
use crate::types::{Height, IbcError};

/// The stake that finalises out of `total`: strictly more than ⅔ of it.
pub const fn quorum(total: u64) -> u64 {
    total * 2 / 3 + 1
}

/// A validator set a light client trusts, weighed by stake.
pub trait TrustedSet {
    /// The stake of `key`, or `None` when it is not in the set.
    fn stake_of(&self, key: &PublicKey) -> Option<u64>;
    /// Sum of all stake.
    fn total_stake(&self) -> u64;
}

/// A Tendermint-style set: each validator's key and voting power.
impl TrustedSet for Vec<(PublicKey, u64)> {
    fn stake_of(&self, key: &PublicKey) -> Option<u64> {
        self.iter().find(|(k, _)| k == key).map(|(_, power)| *power)
    }

    fn total_stake(&self) -> u64 {
        self.iter().map(|(_, power)| power).sum()
    }
}

/// A height pinned to a consensus state: a header, or the genesis block a
/// client starts from on trust.
pub trait Anchor {
    /// The height and the tracked chain's consensus state at it.
    fn anchor(&self) -> (Height, ConsensusState);
}

/// A header format of a [`QuorumClient`]: how to read a header, never
/// whether to accept it.
pub trait QuorumHeader: Anchor + DeserializeOwned {
    /// The set whose stake signs these headers.
    type Set: TrustedSet;
    /// The client's [`LightClient::client_type`].
    const CLIENT_TYPE: &'static str;
    /// Parses the wire encoding (JSON, decision 13).
    fn decode(bytes: &[u8]) -> Option<Self> {
        serde_json::from_slice(bytes).ok()
    }
    /// Parses misbehaviour evidence: two headers claimed for one height.
    fn decode_evidence(bytes: &[u8]) -> Option<(Self, Self)>;
    /// The bytes every signature covers.
    fn signed_bytes(&self) -> Vec<u8>;
    /// The signatures, with their signers.
    fn signatures(&self) -> &[(PublicKey, Signature)];
    /// The set that signs from the next height on, if this header names one.
    fn into_next_set(self) -> Option<Self::Set>;
    /// Whether `other`, at the same height, forks from this header.
    fn conflicts_with(&self, other: &Self) -> bool;
    /// A check against the trusted set made before any signature is read.
    ///
    /// # Errors
    ///
    /// [`IbcError::ClientVerification`] when the header names another set.
    fn check_set(&self, _set: &Self::Set) -> Result<(), IbcError> {
        Ok(())
    }
}

/// Accepts a header above its latest height once distinct members of the
/// trusted set holding at least [`quorum`] of its stake have validly
/// signed it, then stores its consensus state and adopts the set it names.
/// Two such headers at one height that conflict are misbehaviour.
#[derive(Debug)]
pub struct QuorumClient<H: QuorumHeader> {
    trusted: H::Set,
    latest: Height,
    consensus: BTreeMap<Height, ConsensusState>,
    frozen: bool,
}

impl<H: QuorumHeader> QuorumClient<H> {
    /// A client trusting `set`, with no consensus state yet.
    pub fn new(set: H::Set) -> Self {
        Self { trusted: set, latest: 0, consensus: BTreeMap::new(), frozen: false }
    }

    /// A client trusting `set` and `genesis` (part of the trusted setup).
    pub fn from_genesis(genesis: &impl Anchor, set: H::Set) -> Self {
        let (latest, state) = genesis.anchor();
        Self { trusted: set, latest, consensus: BTreeMap::from([(latest, state)]), frozen: false }
    }

    fn verify(&self, header: &H) -> Result<(), IbcError> {
        header.check_set(&self.trusted)?;
        let signed = header.signed_bytes();
        let signatures = header.signatures();
        let mut power = 0u64;
        for (i, (key, signature)) in signatures.iter().enumerate() {
            if signatures[..i].iter().any(|(seen, _)| seen == key) {
                return Err(IbcError::ClientVerification("duplicate signer".into()));
            }
            let Some(stake) = self.trusted.stake_of(key) else {
                return Err(IbcError::ClientVerification("signer is not trusted".into()));
            };
            if !key.verify(&signed, signature) {
                return Err(IbcError::ClientVerification("invalid signature".into()));
            }
            power += stake;
        }
        let needed = quorum(self.trusted.total_stake());
        if power < needed {
            return Err(IbcError::ClientVerification(format!("no quorum: {power} < {needed}")));
        }
        Ok(())
    }
}

impl<H: QuorumHeader> LightClient for QuorumClient<H> {
    fn client_type(&self) -> &'static str {
        H::CLIENT_TYPE
    }

    fn latest_height(&self) -> Height {
        self.latest
    }

    fn consensus_state(&self, height: Height) -> Option<ConsensusState> {
        self.consensus.get(&height).copied()
    }

    fn update(&mut self, header: &[u8]) -> Result<Height, IbcError> {
        let header = H::decode(header)
            .ok_or_else(|| IbcError::ClientVerification("malformed header".into()))?;
        let (height, state) = header.anchor();
        if height <= self.latest {
            return Err(IbcError::ClientVerification("non-monotonic height".into()));
        }
        self.verify(&header)?;
        self.latest = height;
        self.consensus.insert(height, state);
        if let Some(next) = header.into_next_set() {
            self.trusted = next;
        }
        Ok(height)
    }

    fn check_misbehaviour(&self, evidence: &[u8]) -> bool {
        H::decode_evidence(evidence).is_some_and(|(a, b)| {
            a.anchor().0 == b.anchor().0
                && a.conflicts_with(&b)
                && self.verify(&a).is_ok()
                && self.verify(&b).is_ok()
        })
    }

    fn is_frozen(&self) -> bool {
        self.frozen
    }

    fn freeze(&mut self) {
        self.frozen = true;
    }
}
