//! The provable-store abstraction (IBC's first requirement, §II).

use sealable_trie::{NodeStore, Proof, Trie, TrieError};
use sim_crypto::Hash;

use crate::types::IbcError;

/// A key-value store that can prove membership and non-membership of its
/// entries to external verifiers.
///
/// The guest blockchain backs this with the sealable trie; an ordinary
/// IBC chain backs it with a plain Merkle store. `seal` is the
/// guest-specific extension: stores without sealing fall back to keeping
/// the entry (the default implementation is a no-op).
pub trait ProvableStore {
    /// Writes `value` at `key`.
    ///
    /// # Errors
    ///
    /// [`IbcError::Store`] if the slot is sealed or otherwise unwritable.
    fn set(&mut self, key: &[u8], value: &[u8]) -> Result<(), IbcError>;

    /// Reads the value at `key` (`None` when absent).
    ///
    /// # Errors
    ///
    /// [`IbcError::Store`] if the slot is sealed.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, IbcError>;

    /// Deletes the value at `key`.
    ///
    /// # Errors
    ///
    /// [`IbcError::Store`] if the slot is sealed.
    fn delete(&mut self, key: &[u8]) -> Result<(), IbcError>;

    /// Permanently seals `key` (reclaiming its storage where supported).
    ///
    /// # Errors
    ///
    /// [`IbcError::Store`] if the key is unknown or already sealed.
    fn seal(&mut self, key: &[u8]) -> Result<(), IbcError> {
        let _ = key;
        Ok(())
    }

    /// The current commitment root.
    fn root(&self) -> Hash;

    /// Produces a (non-)membership proof for `key`, serialized.
    ///
    /// # Errors
    ///
    /// [`IbcError::Store`] if the proof cannot be built (sealed path).
    fn prove(&self, key: &[u8]) -> Result<Vec<u8>, IbcError>;
}

fn trie_err(err: TrieError) -> IbcError {
    IbcError::Store(err.to_string())
}

/// A trie proof as [`ProofData`](crate::handler::ProofData) bytes: the
/// hand-off from whoever holds the proof to the light client that checks
/// it, [`Proof::to_bytes`]. (On the guest's wire a proof travels inside a
/// `GuestOp`, as JSON; this is not that.)
pub fn encode_proof(proof: &Proof) -> Vec<u8> {
    proof.to_bytes()
}

/// Reads [`encode_proof`] back.
///
/// # Errors
///
/// [`IbcError::InvalidProof`] on malformed bytes.
pub fn decode_proof(bytes: &[u8]) -> Result<Proof, IbcError> {
    Proof::from_bytes(bytes).ok_or_else(|| IbcError::InvalidProof("malformed proof bytes".into()))
}

impl<S: NodeStore> ProvableStore for Trie<S> {
    fn set(&mut self, key: &[u8], value: &[u8]) -> Result<(), IbcError> {
        self.insert(key, value).map_err(trie_err)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, IbcError> {
        Trie::get(self, key).map_err(trie_err)
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), IbcError> {
        self.remove(key).map(|_| ()).map_err(trie_err)
    }

    fn seal(&mut self, key: &[u8]) -> Result<(), IbcError> {
        Trie::seal(self, key).map_err(trie_err)
    }

    fn root(&self) -> Hash {
        self.root_hash()
    }

    fn prove(&self, key: &[u8]) -> Result<Vec<u8>, IbcError> {
        Trie::prove(self, key).map(|p| encode_proof(&p)).map_err(trie_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trie_implements_provable_store() {
        let mut store: Trie = Trie::new();
        ProvableStore::set(&mut store, b"k", b"v").unwrap();
        assert_eq!(ProvableStore::get(&store, b"k").unwrap().unwrap(), b"v");
        let root = ProvableStore::root(&store);
        let proof = decode_proof(&ProvableStore::prove(&store, b"k").unwrap()).unwrap();
        assert!(proof.verify_member(&root, b"k", b"v"));
        ProvableStore::seal(&mut store, b"k").unwrap();
        assert!(ProvableStore::get(&store, b"k").is_err());
        assert_eq!(ProvableStore::root(&store), root);
    }

    #[test]
    fn proof_round_trips_through_encoding() {
        let mut store: Trie = Trie::new();
        ProvableStore::set(&mut store, b"a", b"1").unwrap();
        let bytes = ProvableStore::prove(&store, b"missing").unwrap();
        let proof = decode_proof(&bytes).unwrap();
        assert!(proof.verify_non_member(&store.root_hash(), b"missing"));
        assert!(decode_proof(b"garbage").is_err());
    }
}
