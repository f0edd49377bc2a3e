//! A *sealable* Merkle-Patricia trie — the provable-storage contribution of
//! "Be My Guest: Welcoming Interoperability into IBC-Incompatible
//! Blockchains" (DSN 2025, §III-A).
//!
//! # Why sealing?
//!
//! An IBC endpoint must remember every packet it has ever received to prevent
//! double delivery, so its provable store grows without bound. Inspired by
//! Bitcoin's disk-reclamation technique, the sealable trie lets a node be
//! **sealed**: its bytes are removed from the underlying storage while its
//! hash remains embedded in the parent, so the trie's *commitment (root
//! hash) is unchanged*. A sealed entry can never be read or overwritten —
//! which is exactly the "was this packet already delivered?" semantics the
//! guest contract needs — and when every child of an interior node is sealed
//! the interior node is reclaimed too. Storage use therefore depends only on
//! the number of *live* keys (open channels and packets in flight), not on
//! history.
//!
//! # Structure
//!
//! The trie is a hex (16-ary) Patricia trie with three node kinds
//! ([`node::Node`]): leaves, branches and extensions. Node hashes commit to
//! value *hashes*, so a value's bytes can be dropped (sealed) without
//! disturbing the commitment. Nodes live in a location-addressed
//! [`store::NodeStore`] (a parent holds its child's [`store::Ptr`] and
//! hash); a node that is referenced but absent from the store *is* a
//! sealed node.
//!
//! A write hashes nothing: the nodes it makes stay dirty until a root,
//! proof, checkpoint, seal or serialisation reads one, and then each is
//! hashed once, bottom-up.
//!
//! Membership and non-membership proofs ([`proof::Proof`]) are verified
//! against a bare root hash by [`proof::Proof::verify`], with no access to
//! the store — this is what a counterparty light client runs. A chain
//! [`Trie::checkpoint`]s the state each block commits to, and relayers
//! [`Trie::prove_at`] the height their light client trusts; the history
//! behind that keeps the nodes later writes retired, never a copy of the
//! state.
//!
//! # Examples
//!
//! ```
//! use sealable_trie::Trie;
//!
//! let mut trie = Trie::new();
//! trie.insert(b"packet/1", b"commitment-a")?;
//! trie.insert(b"packet/2", b"commitment-b")?;
//! let root = trie.root_hash();
//!
//! // Prove membership to an external verifier.
//! let proof = trie.prove(b"packet/1")?;
//! assert!(proof.verify(&root, b"packet/1").is_member());
//!
//! // Seal the entry: the root is unchanged but the data is gone for good.
//! trie.seal(b"packet/1")?;
//! assert_eq!(trie.root_hash(), root);
//! assert!(trie.get(b"packet/1").is_err());          // sealed, not absent
//! assert!(trie.insert(b"packet/1", b"x").is_err()); // cannot be overwritten
//! # Ok::<(), sealable_trie::TrieError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod history;
mod nibbles;
pub mod node;
pub mod proof;
pub mod store;
mod trie;

pub use error::TrieError;
pub use nibbles::Nibbles;
pub use proof::{Proof, VerifyOutcome};
pub use store::{MemStore, NodeStore, StoreStats};
pub use trie::Trie;
