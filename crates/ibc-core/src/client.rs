//! ICS-02: light clients.
//!
//! A light client tracks a counterparty chain's consensus: it validates
//! headers, stores consensus states (commitment root + timestamp per
//! height) and verifies (non-)membership proofs against those roots.
//! Both chains of the bridge are tracked by one [`QuorumClient`]; the
//! chains supply its header formats (`GuestHeader` in `guest-chain`,
//! `CpHeader` in `counterparty-sim`). The handler talks to every client
//! through [`LightClient`].

mod quorum;

pub use quorum::{quorum, Anchor, QuorumClient, QuorumHeader, TrustedSet};

use sealable_trie::{Proof, Trie};
use serde::{Deserialize, Serialize};
use sim_crypto::Hash;

use crate::handler::IbcHandler;
use crate::handshake::ChainEnd;
use crate::types::{ClientId, Height, IbcError, TimestampMs};

/// A consensus snapshot of the tracked chain at one height.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConsensusState {
    /// The chain's provable-store commitment root at this height.
    pub root: Hash,
    /// The chain's timestamp at this height.
    pub timestamp_ms: TimestampMs,
}

/// A light client instance tracking one counterparty chain.
///
/// Headers, proofs and misbehaviour evidence are exchanged as opaque bytes;
/// each implementation defines its own encodings. This keeps the handler
/// chain-agnostic — precisely the pluggability IBC requires.
pub trait LightClient {
    /// A short type tag, e.g. `"guest"` or `"tendermint-sim"`.
    fn client_type(&self) -> &'static str;

    /// Highest verified height.
    fn latest_height(&self) -> Height;

    /// The consensus state stored for `height`, if any.
    fn consensus_state(&self, height: Height) -> Option<ConsensusState>;

    /// Verifies an encoded header and stores its consensus state.
    ///
    /// Returns the new verified height.
    ///
    /// # Errors
    ///
    /// [`IbcError::ClientVerification`] when the header does not check out
    /// (bad signatures, no quorum, non-monotonic, …).
    fn update(&mut self, header: &[u8]) -> Result<Height, IbcError>;

    /// Verifies that `key ↦ value` is committed by the tracked chain at
    /// `height`: `proof` ([`encode_proof`](crate::store::encode_proof)
    /// bytes) against the root of [`LightClient::consensus_state`].
    ///
    /// # Errors
    ///
    /// [`IbcError::InvalidProof`] when the proof fails.
    fn verify_membership(
        &self,
        height: Height,
        key: &[u8],
        value: &[u8],
        proof: &[u8],
    ) -> Result<(), IbcError> {
        let (root, proof) = root_and_proof(self, height, proof)?;
        if proof.verify_member(&root, key, value) {
            Ok(())
        } else {
            Err(IbcError::InvalidProof("membership proof failed".into()))
        }
    }

    /// Verifies that `key` is absent from the tracked chain at `height`.
    ///
    /// # Errors
    ///
    /// [`IbcError::InvalidProof`] when the proof fails.
    fn verify_non_membership(
        &self,
        height: Height,
        key: &[u8],
        proof: &[u8],
    ) -> Result<(), IbcError> {
        let (root, proof) = root_and_proof(self, height, proof)?;
        if proof.verify_non_member(&root, key) {
            Ok(())
        } else {
            Err(IbcError::InvalidProof("non-membership proof failed".into()))
        }
    }

    /// Checks misbehaviour evidence; returns `true` when valid, in which
    /// case the caller freezes the client.
    fn check_misbehaviour(&self, evidence: &[u8]) -> bool;

    /// Whether the client has been frozen after proven misbehaviour.
    fn is_frozen(&self) -> bool;

    /// Freezes the client.
    fn freeze(&mut self);
}

/// The root `client` holds for `height` and `proof` decoded: what both
/// verifications start from.
fn root_and_proof(
    client: &(impl LightClient + ?Sized),
    height: Height,
    proof: &[u8],
) -> Result<(Hash, Proof), IbcError> {
    let state = client
        .consensus_state(height)
        .ok_or_else(|| IbcError::InvalidProof(format!("no consensus state at height {height}")))?;
    Ok((state.root, crate::store::decode_proof(proof)?))
}

/// A trivial client for tests: trusts a preloaded table of heights.
///
/// Useful wherever a real header-verification pipeline is not the thing
/// under test.
#[derive(Debug, Default)]
pub struct MockClient {
    states: std::collections::BTreeMap<Height, ConsensusState>,
    frozen: bool,
}

impl MockClient {
    /// Creates an empty mock client.
    pub fn new() -> Self {
        Self::default()
    }

    /// Preloads a consensus state.
    pub fn trust(&mut self, height: Height, root: Hash, timestamp_ms: TimestampMs) {
        self.states.insert(height, ConsensusState { root, timestamp_ms });
    }
}

/// Header format understood by [`MockClient`]: plain serde JSON.
#[derive(Debug, Serialize, Deserialize)]
pub struct MockHeader {
    /// New height.
    pub height: Height,
    /// Commitment root at that height.
    pub root: Hash,
    /// Timestamp at that height.
    pub timestamp_ms: TimestampMs,
}

impl LightClient for MockClient {
    fn client_type(&self) -> &'static str {
        "mock"
    }

    fn latest_height(&self) -> Height {
        self.states.keys().next_back().copied().unwrap_or(0)
    }

    fn consensus_state(&self, height: Height) -> Option<ConsensusState> {
        self.states.get(&height).copied()
    }

    fn update(&mut self, header: &[u8]) -> Result<Height, IbcError> {
        let header: MockHeader = serde_json::from_slice(header)
            .map_err(|e| IbcError::ClientVerification(e.to_string()))?;
        if header.height <= self.latest_height() {
            return Err(IbcError::ClientVerification("non-monotonic height".into()));
        }
        self.trust(header.height, header.root, header.timestamp_ms);
        Ok(header.height)
    }

    fn check_misbehaviour(&self, _evidence: &[u8]) -> bool {
        false
    }

    fn is_frozen(&self) -> bool {
        self.frozen
    }

    fn freeze(&mut self) {
        self.frozen = true;
    }
}

/// A chain for tests and benches: a bare handler whose "blocks" are
/// [`MockHeader`]s over its current root, one height per commit, which
/// peers follow through [`MockClient`]s. The third [`ChainEnd`], so
/// fixtures open their links with the same handshake production code does.
pub struct MockChain {
    /// The chain's handler; callers bind ports and drive packets on it
    /// directly.
    pub ibc: IbcHandler<Trie>,
    height: Height,
}

impl MockChain {
    /// A chain at height 0 with an empty store and no ports bound.
    pub fn new() -> Self {
        Self { ibc: IbcHandler::new(Trie::new()), height: 0 }
    }

    /// The height last committed at.
    pub fn height(&self) -> Height {
        self.height
    }
}

impl Default for MockChain {
    fn default() -> Self {
        Self::new()
    }
}

impl ChainEnd<IbcError> for MockChain {
    fn handler(&mut self) -> &mut IbcHandler<Trie> {
        &mut self.ibc
    }

    fn light_client(&self) -> Box<dyn LightClient> {
        Box::new(MockClient::new())
    }

    fn commit(&mut self, now_ms: TimestampMs) -> Result<(Height, Vec<u8>), IbcError> {
        self.height += 1;
        let header =
            MockHeader { height: self.height, root: self.ibc.root(), timestamp_ms: now_ms };
        Ok((self.height, serde_json::to_vec(&header).expect("mock header serializes")))
    }

    fn accept(&mut self, client: &ClientId, header: &[u8], _: TimestampMs) -> Result<(), IbcError> {
        self.ibc.update_client(client, header).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_crypto::sha256;

    #[test]
    fn mock_client_updates_monotonically() {
        let mut client = MockClient::new();
        let header = |height| {
            serde_json::to_vec(&MockHeader {
                height,
                root: sha256([height as u8]),
                timestamp_ms: height * 1_000,
            })
            .unwrap()
        };
        assert_eq!(client.update(&header(5)).unwrap(), 5);
        assert_eq!(client.update(&header(9)).unwrap(), 9);
        assert!(client.update(&header(7)).is_err());
        assert_eq!(client.latest_height(), 9);
    }

    #[test]
    fn mock_client_verifies_real_trie_proofs() {
        let mut trie = Trie::new();
        trie.insert(b"commitments/x", b"value").unwrap();
        let mut client = MockClient::new();
        client.trust(4, trie.root_hash(), 4_000);

        let proof = crate::store::encode_proof(&trie.prove(b"commitments/x").unwrap());
        client.verify_membership(4, b"commitments/x", b"value", &proof).unwrap();
        assert!(client.verify_membership(4, b"commitments/x", b"forged", &proof).is_err());

        let absent = crate::store::encode_proof(&trie.prove(b"missing").unwrap());
        client.verify_non_membership(4, b"missing", &absent).unwrap();
        assert!(client.verify_non_membership(5, b"missing", &absent).is_err(), "unknown height");
    }
}
