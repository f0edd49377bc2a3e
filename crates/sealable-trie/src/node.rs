//! Trie node representation and hashing.

use std::cell::Cell;

use serde::{Deserialize, Deserializer, Serialize, Serializer};
use sim_crypto::{sha256, Hash, Sha256};

use crate::store::Ptr;
use crate::Nibbles;

/// A stored value.
///
/// The node hash commits to [`Value::hash`] only, so [`Value::data`] can be
/// dropped — *sealed* — without changing the commitment.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Value {
    /// SHA-256 of the value bytes; always present.
    pub hash: Hash,
    /// The value bytes; `None` once the value has been sealed.
    pub data: Option<Vec<u8>>,
}

impl Value {
    /// Creates a live value from bytes.
    pub fn new(data: Vec<u8>) -> Self {
        Self { hash: sha256(&data), data: Some(data) }
    }

    /// Whether the bytes have been sealed away.
    pub fn is_sealed(&self) -> bool {
        self.data.is_none()
    }

    /// Drops the bytes, keeping only the hash.
    pub fn seal(&mut self) {
        self.data = None;
    }
}

/// A reference from a parent node to a child.
///
/// The child's commitment hash is what proofs and the root are built from;
/// the `ptr` locates the child in storage. A `ptr` whose node is missing
/// from the store denotes a *sealed* child: the commitment survives, the
/// data does not. Storing nodes by location rather than by content hash
/// mirrors the paper's Solana implementation (nodes in an account, addressed
/// by index) and ensures two identical subtrees never alias.
///
/// The hash is written when it is first read, not when the child is: a
/// trie write leaves the references it creates *dirty*, and the trie
/// hashes them bottom-up, each once, when a root, proof, checkpoint, seal
/// or serialisation needs one. A node never changes once written, so the
/// cell is set at most once and a settled hash stays valid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChildRef {
    /// Location of the child node in the store.
    pub ptr: Ptr,
    /// Commitment hash of the child node; [`Hash::ZERO`] while dirty (no
    /// node hashes to it: that would take a SHA-256 preimage of zero).
    hash: Cell<Hash>,
}

impl ChildRef {
    /// A reference to a child whose commitment hash is known.
    pub fn new(ptr: Ptr, hash: Hash) -> Self {
        Self { ptr, hash: Cell::new(hash) }
    }

    /// A reference to a child just written and not yet hashed.
    pub(crate) fn dirty(ptr: Ptr) -> Self {
        Self::new(ptr, Hash::ZERO)
    }

    /// The child's commitment hash, or `None` while it is dirty.
    pub fn commitment(&self) -> Option<Hash> {
        Some(self.hash.get()).filter(|hash| !hash.is_zero())
    }

    /// Records the child's hash, once the trie has computed it.
    pub(crate) fn fill(&self, hash: Hash) {
        self.hash.set(hash);
    }

    /// The hash a settled reference holds; what a parent's hash commits to.
    fn settled(&self) -> Hash {
        let hash = self.hash.get();
        debug_assert!(!hash.is_zero(), "a node hashed over a dirty child");
        hash
    }
}

/// The serialised form of a [`ChildRef`], the cell's content as it is (a
/// dirty reference reads back dirty).
#[derive(Serialize, Deserialize)]
struct ChildRefForm {
    ptr: Ptr,
    hash: Hash,
}

impl Serialize for ChildRef {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        ChildRefForm { ptr: self.ptr, hash: self.hash.get() }.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for ChildRef {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let ChildRefForm { ptr, hash } = ChildRefForm::deserialize(deserializer)?;
        Ok(Self::new(ptr, hash))
    }
}

/// A trie node.
///
/// The branch variant is much larger than the others (16 child slots);
/// nodes are stored individually, so the imbalance is accepted in exchange
/// for keeping branches inline-accessible.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub enum Node {
    /// Terminal node holding a value at the end of `path`.
    Leaf {
        /// Remaining nibbles of the key below the parent.
        path: Nibbles,
        /// The stored value.
        value: Value,
    },
    /// 16-way fan-out.
    ///
    /// Branches never carry values: the trie length-prefixes every key, so
    /// no key's nibble path is a proper prefix of another's and all values
    /// terminate in leaves.
    Branch {
        /// Child references indexed by next nibble; `None` = no child.
        children: [Option<ChildRef>; 16],
    },
    /// Path compression: a run of nibbles with a single child below.
    Extension {
        /// The compressed nibble run (never empty).
        path: Nibbles,
        /// Reference to the single child (a branch).
        child: ChildRef,
    },
}

impl Node {
    /// Computes the node's commitment hash.
    ///
    /// Values contribute their *hash*, not their bytes, so sealing a value
    /// leaves the node hash unchanged; children contribute their commitment
    /// hashes (absent children contribute [`Hash::ZERO`]), so every child
    /// must be settled first; storage pointers contribute nothing.
    pub fn hash(&self) -> Hash {
        let mut hasher = Sha256::new();
        match self {
            Node::Leaf { path, value } => {
                hasher.update([0u8]);
                hasher.update(path.encode());
                hasher.update(value.hash);
            }
            Node::Branch { children } => {
                hasher.update([1u8]);
                for child in children {
                    hasher.update(child.as_ref().map_or(Hash::ZERO, ChildRef::settled));
                }
            }
            Node::Extension { path, child } => {
                hasher.update([2u8]);
                hasher.update(path.encode());
                hasher.update(child.settled());
            }
        }
        hasher.finalize()
    }

    /// Approximate storage footprint in bytes, as charged by the node store.
    ///
    /// Mirrors what a Solana account would hold: tag + path + child hashes +
    /// live value bytes. Sealed values no longer pay for their data.
    pub fn storage_size(&self) -> usize {
        match self {
            Node::Leaf { path, value } => {
                1 + 2 + path.len().div_ceil(2) + 32 + value.data.as_ref().map_or(0, |d| d.len())
            }
            Node::Branch { children } => 1 + children.iter().flatten().count() * 40,
            Node::Extension { path, .. } => 1 + 2 + path.len().div_ceil(2) + 40,
        }
    }
}

/// An empty branch child array (helper for construction).
pub fn empty_children() -> [Option<ChildRef>; 16] {
    [const { None }; 16]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealing_value_preserves_node_hash() {
        let mut leaf =
            Node::Leaf { path: Nibbles::from_key(b"k"), value: Value::new(b"v".to_vec()) };
        let before = leaf.hash();
        if let Node::Leaf { value, .. } = &mut leaf {
            value.seal();
        }
        assert_eq!(leaf.hash(), before);
    }

    #[test]
    fn different_values_different_hashes() {
        let a = Node::Leaf { path: Nibbles::from_key(b"k"), value: Value::new(b"1".to_vec()) };
        let b = Node::Leaf { path: Nibbles::from_key(b"k"), value: Value::new(b"2".to_vec()) };
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn different_paths_different_hashes() {
        let a = Node::Leaf { path: Nibbles::from_key(b"a"), value: Value::new(b"v".to_vec()) };
        let b = Node::Leaf { path: Nibbles::from_key(b"b"), value: Value::new(b"v".to_vec()) };
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn branch_child_position_matters() {
        let child = ChildRef::new(1, sha256(b"child"));
        let mut c1 = empty_children();
        c1[0] = Some(child.clone());
        let mut c2 = empty_children();
        c2[1] = Some(child);
        let a = Node::Branch { children: c1 };
        let b = Node::Branch { children: c2 };
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn ptr_does_not_affect_hash() {
        let c1 = ChildRef::new(1, sha256(b"child"));
        let c2 = ChildRef::new(999, sha256(b"child"));
        let mut a = empty_children();
        a[5] = Some(c1);
        let mut b = empty_children();
        b[5] = Some(c2);
        assert_eq!(Node::Branch { children: a }.hash(), Node::Branch { children: b }.hash());
    }

    #[test]
    fn storage_size_shrinks_when_sealed() {
        let mut leaf =
            Node::Leaf { path: Nibbles::from_key(b"key"), value: Value::new(vec![0u8; 100]) };
        let before = leaf.storage_size();
        if let Node::Leaf { value, .. } = &mut leaf {
            value.seal();
        }
        assert!(leaf.storage_size() + 100 == before);
    }

    #[test]
    fn node_kinds_hash_distinctly() {
        // A leaf and an extension with identical byte content must differ.
        let path = Nibbles::from_key(b"x");
        let leaf = Node::Leaf { path: path.clone(), value: Value::new(b"v".to_vec()) };
        let ext = Node::Extension { path, child: ChildRef::new(0, sha256(b"v")) };
        assert_ne!(leaf.hash(), ext.hash());
    }
}
