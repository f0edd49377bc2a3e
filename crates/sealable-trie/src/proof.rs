//! Membership and non-membership proofs.
//!
//! A [`Proof`] is the spine of nodes from the root to the point where the
//! key's path either terminates (membership) or demonstrably diverges
//! (non-membership). Proof nodes carry value *hashes* only, never value
//! bytes, and hash identically to stored [`Node`]s, so a verifier needs
//! nothing but the 32-byte root commitment.

use serde::{Deserialize, Serialize};
use sim_crypto::{sha256, Hash, Sha256};

use crate::node::{ChildRef, Node};
use crate::trie::encode_key;
use crate::Nibbles;

/// A node as it appears inside a proof: values reduced to their hashes.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)] // branches carry 16 slots by design
pub enum ProofNode {
    /// Terminal node.
    Leaf {
        /// Remaining key nibbles below the parent.
        path: Nibbles,
        /// SHA-256 of the value bytes.
        value_hash: Hash,
    },
    /// 16-way fan-out.
    Branch {
        /// Child hashes (`None` = empty slot).
        children: [Option<Hash>; 16],
    },
    /// Path compression node.
    Extension {
        /// Compressed nibbles.
        path: Nibbles,
        /// The single child hash.
        child: Hash,
    },
}

impl ProofNode {
    /// Projects a stored node into its proof form (pointers dropped, value
    /// bytes reduced to hashes). The node's children must be settled, as
    /// every node a trie hands out is.
    pub fn from_node(node: &Node) -> Self {
        let hash = |child: &ChildRef| child.commitment().expect("a proof node over a dirty child");
        match node {
            Node::Leaf { path, value } => Self::Leaf { path: path.clone(), value_hash: value.hash },
            Node::Branch { children } => Self::Branch {
                children: core::array::from_fn(|slot| children[slot].as_ref().map(hash)),
            },
            Node::Extension { path, child } => {
                Self::Extension { path: path.clone(), child: hash(child) }
            }
        }
    }

    /// The commitment hash — byte-for-byte identical to [`Node::hash`].
    pub fn hash(&self) -> Hash {
        let mut hasher = Sha256::new();
        match self {
            Self::Leaf { path, value_hash } => {
                hasher.update([0u8]);
                hasher.update(path.encode());
                hasher.update(value_hash);
            }
            Self::Branch { children } => {
                hasher.update([1u8]);
                for child in children {
                    hasher.update(child.unwrap_or(Hash::ZERO));
                }
            }
            Self::Extension { path, child } => {
                hasher.update([2u8]);
                hasher.update(path.encode());
                hasher.update(child);
            }
        }
        hasher.finalize()
    }

    /// Serialized size in bytes, used for transaction-size accounting in the
    /// host simulator.
    pub fn encoded_len(&self) -> usize {
        match self {
            Self::Leaf { path, .. } => 1 + 2 + path.len().div_ceil(2) + 32,
            Self::Branch { children } => 1 + 2 + children.iter().flatten().count() * 33,
            Self::Extension { path, .. } => 1 + 2 + path.len().div_ceil(2) + 32,
        }
    }
}

/// Result of verifying a [`Proof`] against a root commitment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// The key is present and its value hashes to the contained digest.
    Member(Hash),
    /// The key is provably absent.
    NonMember,
    /// The proof is malformed or does not connect to the root.
    Invalid,
}

impl VerifyOutcome {
    /// `true` for [`VerifyOutcome::Member`].
    pub fn is_member(&self) -> bool {
        matches!(self, Self::Member(_))
    }

    /// `true` for [`VerifyOutcome::NonMember`].
    fn is_non_member(&self) -> bool {
        matches!(self, Self::NonMember)
    }
}

/// A proof of membership or non-membership for one key.
///
/// # Examples
///
/// ```
/// use sealable_trie::Trie;
///
/// let mut trie = Trie::new();
/// trie.insert(b"present", b"data")?;
/// let root = trie.root_hash();
///
/// let proof = trie.prove(b"present")?;
/// assert!(proof.verify_member(&root, b"present", b"data"));
///
/// let absent = trie.prove(b"absent")?;
/// assert!(absent.verify_non_member(&root, b"absent"));
/// # Ok::<(), sealable_trie::TrieError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Proof {
    nodes: Vec<ProofNode>,
}

impl Proof {
    /// Wraps a root-to-divergence spine of proof nodes.
    pub fn new(nodes: Vec<ProofNode>) -> Self {
        Self { nodes }
    }

    /// The spine nodes, root first.
    pub fn nodes(&self) -> &[ProofNode] {
        &self.nodes
    }

    /// Total serialized size in bytes (for transaction accounting).
    pub fn encoded_len(&self) -> usize {
        2 + self.nodes.iter().map(ProofNode::encoded_len).sum::<usize>()
    }

    /// The compact binary form, for handing a proof from one function to
    /// another as bytes (the wire form is the serde one). Nodes in spine
    /// order, each a tag byte and:
    ///
    /// * leaf `0`: path ([`Nibbles::encode`]), 32-byte value hash;
    /// * branch `1`: little-endian `u16` with bit *i* set when slot *i* is
    ///   occupied, then the occupied slots' 32-byte hashes in slot order;
    /// * extension `2`: path, 32-byte child hash.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.nodes.len() * 96);
        for node in &self.nodes {
            let (tag, path, hash) = match node {
                ProofNode::Leaf { path, value_hash } => (0, path, value_hash),
                ProofNode::Extension { path, child } => (2, path, child),
                ProofNode::Branch { children } => {
                    out.push(1);
                    let occupied = children
                        .iter()
                        .enumerate()
                        .fold(0u16, |map, (slot, child)| map | u16::from(child.is_some()) << slot);
                    out.extend_from_slice(&occupied.to_le_bytes());
                    for child in children.iter().flatten() {
                        out.extend_from_slice(child.as_bytes());
                    }
                    continue;
                }
            };
            out.push(tag);
            path.encode_into(&mut out);
            out.extend_from_slice(hash.as_bytes());
        }
        out
    }

    /// Reads [`Proof::to_bytes`] back. `None` for anything `to_bytes` does
    /// not write: an unknown tag, a node cut short, trailing bytes. The
    /// bytes may come from a relayer, so nothing is allocated ahead of the
    /// input that pays for it.
    pub fn from_bytes(mut bytes: &[u8]) -> Option<Self> {
        fn hash(bytes: &mut &[u8]) -> Option<Hash> {
            let (hash, rest) = bytes.split_first_chunk::<32>()?;
            *bytes = rest;
            Some(Hash::from_bytes(*hash))
        }
        let mut nodes = Vec::new();
        while let Some((&tag, rest)) = bytes.split_first() {
            bytes = rest;
            nodes.push(match tag {
                0 | 2 => {
                    let (path, rest) = Nibbles::decode(bytes)?;
                    bytes = rest;
                    let hash = hash(&mut bytes)?;
                    if tag == 0 {
                        ProofNode::Leaf { path, value_hash: hash }
                    } else {
                        ProofNode::Extension { path, child: hash }
                    }
                }
                1 => {
                    let (occupied, rest) = bytes.split_first_chunk::<2>()?;
                    bytes = rest;
                    let occupied = u16::from_le_bytes(*occupied);
                    let mut children = [None; 16];
                    for (slot, child) in children.iter_mut().enumerate() {
                        if occupied >> slot & 1 == 1 {
                            *child = Some(hash(&mut bytes)?);
                        }
                    }
                    ProofNode::Branch { children }
                }
                _ => return None,
            });
        }
        Some(Self { nodes })
    }

    /// Verifies this proof for `key` against `root`.
    ///
    /// Returns [`VerifyOutcome::Member`] with the proven value hash,
    /// [`VerifyOutcome::NonMember`] if the proof shows the key absent, or
    /// [`VerifyOutcome::Invalid`] if the proof doesn't check out.
    pub fn verify(&self, root: &Hash, key: &[u8]) -> VerifyOutcome {
        let encoded = encode_key(key);
        let path = Nibbles::from_key(&encoded);
        let mut remaining = path.as_slice();

        if root.is_zero() {
            // Empty trie: only the empty proof is valid and shows absence.
            return if self.nodes.is_empty() {
                VerifyOutcome::NonMember
            } else {
                VerifyOutcome::Invalid
            };
        }

        let mut expected = *root;
        let mut nodes = self.nodes.iter();
        loop {
            let Some(node) = nodes.next() else {
                return VerifyOutcome::Invalid; // Spine ended mid-descent.
            };
            if node.hash() != expected {
                return VerifyOutcome::Invalid;
            }
            match node {
                ProofNode::Leaf { path: leaf_path, value_hash } => {
                    let outcome = if leaf_path.as_slice() == remaining {
                        VerifyOutcome::Member(*value_hash)
                    } else {
                        VerifyOutcome::NonMember
                    };
                    return Self::finish(outcome, nodes.next().is_some());
                }
                ProofNode::Branch { children } => {
                    let Some(&slot) = remaining.first() else {
                        // Prefix-free keys never terminate at a branch; a
                        // proof claiming so is bogus.
                        return VerifyOutcome::Invalid;
                    };
                    match children[slot as usize] {
                        Some(child) => {
                            expected = child;
                            remaining = &remaining[1..];
                        }
                        None => {
                            return Self::finish(VerifyOutcome::NonMember, nodes.next().is_some());
                        }
                    }
                }
                ProofNode::Extension { path: ext_path, child } => {
                    if remaining.len() >= ext_path.len()
                        && &remaining[..ext_path.len()] == ext_path.as_slice()
                    {
                        expected = *child;
                        remaining = &remaining[ext_path.len()..];
                    } else {
                        return Self::finish(VerifyOutcome::NonMember, nodes.next().is_some());
                    }
                }
            }
        }
    }

    fn finish(outcome: VerifyOutcome, trailing_nodes: bool) -> VerifyOutcome {
        if trailing_nodes {
            VerifyOutcome::Invalid
        } else {
            outcome
        }
    }

    /// Convenience: verifies that `key ↦ value` is a member under `root`.
    pub fn verify_member(&self, root: &Hash, key: &[u8], value: &[u8]) -> bool {
        match self.verify(root, key) {
            VerifyOutcome::Member(hash) => hash == sha256(value),
            _ => false,
        }
    }

    /// Convenience: verifies that `key` is absent under `root`.
    pub fn verify_non_member(&self, root: &Hash, key: &[u8]) -> bool {
        self.verify(root, key).is_non_member()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Value;
    use crate::Trie;

    fn sample_trie() -> Trie {
        let mut trie = Trie::new();
        for i in 0..64u32 {
            trie.insert(format!("key/{i:02}").as_bytes(), format!("val-{i}").as_bytes()).unwrap();
        }
        trie
    }

    #[test]
    fn proof_node_hash_matches_node_hash() {
        let node = Node::Leaf { path: Nibbles::from_key(b"abc"), value: Value::new(b"v".to_vec()) };
        assert_eq!(ProofNode::from_node(&node).hash(), node.hash());

        let branch = Node::Branch {
            children: {
                let mut c = crate::node::empty_children();
                c[3] = Some(ChildRef::new(7, sha256(b"x")));
                c
            },
        };
        assert_eq!(ProofNode::from_node(&branch).hash(), branch.hash());

        let ext = Node::Extension {
            path: Nibbles::from_key(b"p"),
            child: ChildRef::new(0, sha256(b"c")),
        };
        assert_eq!(ProofNode::from_node(&ext).hash(), ext.hash());
    }

    #[test]
    fn membership_proofs_verify() {
        let trie = sample_trie();
        let root = trie.root_hash();
        for i in 0..64u32 {
            let key = format!("key/{i:02}");
            let proof = trie.prove(key.as_bytes()).unwrap();
            assert!(
                proof.verify_member(&root, key.as_bytes(), format!("val-{i}").as_bytes()),
                "key {key}"
            );
        }
    }

    #[test]
    fn non_membership_proofs_verify() {
        let trie = sample_trie();
        let root = trie.root_hash();
        for key in ["key/99", "other", "key/0", "key/000"] {
            let proof = trie.prove(key.as_bytes()).unwrap();
            assert!(proof.verify_non_member(&root, key.as_bytes()), "key {key}");
        }
    }

    #[test]
    fn proof_rejects_wrong_root() {
        let trie = sample_trie();
        let proof = trie.prove(b"key/01").unwrap();
        let bogus_root = sha256(b"bogus");
        assert_eq!(proof.verify(&bogus_root, b"key/01"), VerifyOutcome::Invalid);
    }

    #[test]
    fn proof_rejects_wrong_key() {
        let trie = sample_trie();
        let root = trie.root_hash();
        let proof = trie.prove(b"key/01").unwrap();
        // Verifying the proof for a different key must not produce Member.
        assert!(!proof.verify(&root, b"key/02").is_member());
    }

    #[test]
    fn proof_rejects_wrong_value() {
        let trie = sample_trie();
        let root = trie.root_hash();
        let proof = trie.prove(b"key/01").unwrap();
        assert!(!proof.verify_member(&root, b"key/01", b"forged"));
    }

    #[test]
    fn proof_rejects_truncation_and_padding() {
        let trie = sample_trie();
        let root = trie.root_hash();
        let proof = trie.prove(b"key/01").unwrap();
        assert!(proof.nodes().len() > 1);

        let truncated = Proof::new(proof.nodes()[..proof.nodes().len() - 1].to_vec());
        assert_eq!(truncated.verify(&root, b"key/01"), VerifyOutcome::Invalid);

        let mut padded_nodes = proof.nodes().to_vec();
        padded_nodes.push(padded_nodes[0].clone());
        let padded = Proof::new(padded_nodes);
        assert_eq!(padded.verify(&root, b"key/01"), VerifyOutcome::Invalid);
    }

    /// `16 + n` packs, and so hashes, like `n` in the high half of a byte:
    /// read unchecked, a member's proof respelt that way still connected to
    /// the root but no longer matched the key — a forged absence.
    #[test]
    fn a_respelt_nibble_cannot_forge_absence() {
        // Two keys that part early, so the leaf still has a path to respell.
        let mut trie = Trie::new();
        trie.insert(b"alpha", b"1").unwrap();
        trie.insert(b"beta", b"2").unwrap();
        let text = serde_json::to_string(&trie.prove(b"alpha").unwrap()).unwrap();
        let at = text.rfind("\"path\":[").unwrap() + "\"path\":[".len();
        let end = at + text[at..].find([',', ']']).unwrap();
        let nibble: u8 = text[at..end].parse().unwrap();
        let respelt = format!("{}{}{}", &text[..at], nibble + 16, &text[end..]);
        assert!(serde_json::from_str::<Proof>(&text).is_ok());
        assert!(serde_json::from_str::<Proof>(&respelt).is_err());
    }

    #[test]
    fn empty_trie_non_membership() {
        let trie = Trie::new();
        let root = trie.root_hash();
        let proof = trie.prove(b"anything").unwrap();
        assert!(proof.verify_non_member(&root, b"anything"));
        // A non-empty proof against the zero root is invalid.
        let fake = Proof::new(vec![ProofNode::Leaf {
            path: Nibbles::from_key(b"anything"),
            value_hash: sha256(b"x"),
        }]);
        assert_eq!(fake.verify(&root, b"anything"), VerifyOutcome::Invalid);
    }

    #[test]
    fn single_entry_trie_proofs() {
        let mut trie = Trie::new();
        trie.insert(b"only", b"one").unwrap();
        let root = trie.root_hash();
        assert!(trie.prove(b"only").unwrap().verify_member(&root, b"only", b"one"));
        assert!(trie.prove(b"nope").unwrap().verify_non_member(&root, b"nope"));
    }

    #[test]
    fn proofs_still_work_next_to_sealed_entries() {
        let mut trie = sample_trie();
        let root = trie.root_hash();
        trie.seal(b"key/07").unwrap();
        // Sibling proofs remain constructible and valid against the same root
        // as long as their own path is resident.
        let proof = trie.prove(b"key/21").unwrap();
        assert!(proof.verify_member(&root, b"key/21", b"val-21"));
        // The sealed key itself can no longer be proven.
        assert_eq!(trie.prove(b"key/07"), Err(crate::TrieError::Sealed));
    }

    #[test]
    fn proof_encoded_len_is_positive_and_monotone() {
        let trie = sample_trie();
        let proof = trie.prove(b"key/33").unwrap();
        assert!(proof.encoded_len() > 32);
        let smaller = Proof::new(proof.nodes()[..1].to_vec());
        assert!(smaller.encoded_len() < proof.encoded_len());
    }
}
