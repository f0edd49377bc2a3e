//! The trie as it was when every write hashed the nodes it made: the
//! oracle for the hash-on-read `Trie`. Insert, remove, seal and prove are
//! the eager code path for path, with `put_node` hashing each new node; a
//! checkpoint is a full copy of the state, as the history's own oracle
//! keeps it. Only what the properties compare is kept.

use std::collections::VecDeque;

use sealable_trie::node::{empty_children, ChildRef, Node, Value};
use sealable_trie::proof::ProofNode;
use sealable_trie::{MemStore, Nibbles, NodeStore, Proof, StoreStats, TrieError};
use sim_crypto::Hash;

/// LEB128 length prefix, then the key bytes (the trie's key encoding).
fn encode_key(key: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() + 2);
    let mut len = key.len() as u64;
    loop {
        let byte = (len & 0x7f) as u8;
        len >>= 7;
        if len == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
    out.extend_from_slice(key);
    out
}

/// A trie whose every reference holds its child's hash from the moment
/// the child is written.
#[derive(Clone, Default)]
pub struct EagerTrie {
    store: MemStore,
    root: Option<ChildRef>,
    live_entries: usize,
    sealed_entries: usize,
    /// `(height, state)` for the last `keep` checkpoints.
    checkpoints: VecDeque<(u64, EagerTrie)>,
}

impl EagerTrie {
    pub fn root_hash(&self) -> Hash {
        self.root.as_ref().map_or(Hash::ZERO, |root| root.commitment().expect("eager"))
    }

    pub fn len(&self) -> usize {
        self.live_entries
    }

    pub fn sealed_len(&self) -> usize {
        self.sealed_entries
    }

    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    pub fn checkpoint(&mut self, height: u64, keep: usize) {
        let mut state = self.clone();
        state.checkpoints.clear();
        self.checkpoints.push_back((height, state));
        while self.checkpoints.len() > keep {
            self.checkpoints.pop_front();
        }
    }

    /// What a serde round trip does to a trie: its history is not state.
    pub fn forget_history(&mut self) {
        self.checkpoints.clear();
    }

    pub fn prove_at(&self, height: u64, key: &[u8]) -> Option<Proof> {
        let (_, state) = self.checkpoints.iter().rev().find(|(at, _)| *at == height)?;
        state.prove(key).ok()
    }

    fn read(&self, child: &ChildRef) -> Result<&Node, TrieError> {
        self.store.get(child.ptr).ok_or(TrieError::Sealed)
    }

    fn put_node(&mut self, node: Node) -> ChildRef {
        let hash = node.hash();
        ChildRef::new(self.store.put(node), hash)
    }

    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), TrieError> {
        if key.is_empty() {
            return Err(TrieError::EmptyKey);
        }
        if value.is_empty() {
            return Err(TrieError::EmptyValue);
        }
        let path = Nibbles::from_key(&encode_key(key));
        let (new_root, inserted_new) =
            self.insert_at(self.root.clone(), path.as_slice(), Value::new(value.to_vec()))?;
        self.root = Some(new_root);
        if inserted_new {
            self.live_entries += 1;
        }
        Ok(())
    }

    fn insert_at(
        &mut self,
        node_ref: Option<ChildRef>,
        path: &[u8],
        value: Value,
    ) -> Result<(ChildRef, bool), TrieError> {
        let Some(current) = node_ref else {
            let leaf = Node::Leaf { path: Nibbles::from_nibbles(path.to_vec()), value };
            return Ok((self.put_node(leaf), true));
        };
        match self.read(&current)?.clone() {
            Node::Leaf { path: leaf_path, value: leaf_value } => {
                if leaf_path.as_slice() == path {
                    if leaf_value.is_sealed() {
                        return Err(TrieError::Sealed);
                    }
                    let new = self.put_node(Node::Leaf { path: leaf_path, value });
                    self.store.remove(current.ptr, false);
                    return Ok((new, false));
                }
                let cp = leaf_path.common_prefix_len(path);
                let mut children = empty_children();
                let old_slot = leaf_path.as_slice()[cp] as usize;
                let old_rest = leaf_path.slice(cp + 1, leaf_path.len());
                let old_is_sealed_at_max_depth = leaf_value.is_sealed() && old_rest.is_empty();
                let old_ref = self.put_node(Node::Leaf { path: old_rest, value: leaf_value });
                if old_is_sealed_at_max_depth {
                    self.store.remove(old_ref.ptr, true);
                }
                children[old_slot] = Some(old_ref);
                let new_rest = Nibbles::from_nibbles(path[cp + 1..].to_vec());
                children[path[cp] as usize] =
                    Some(self.put_node(Node::Leaf { path: new_rest, value }));
                let mut subtree = self.put_node(Node::Branch { children });
                if cp > 0 {
                    subtree = self
                        .put_node(Node::Extension { path: leaf_path.slice(0, cp), child: subtree });
                }
                self.store.remove(current.ptr, false);
                Ok((subtree, true))
            }
            Node::Branch { mut children } => {
                let slot = path[0] as usize;
                let (child, inserted_new) =
                    self.insert_at(children[slot].take(), &path[1..], value)?;
                children[slot] = Some(child);
                let new = self.put_node(Node::Branch { children });
                self.store.remove(current.ptr, false);
                Ok((new, inserted_new))
            }
            Node::Extension { path: ext_path, child } => {
                let cp = ext_path.common_prefix_len(path);
                if cp == ext_path.len() {
                    let (new_child, inserted_new) =
                        self.insert_at(Some(child), &path[cp..], value)?;
                    let new = self.put_node(Node::Extension { path: ext_path, child: new_child });
                    self.store.remove(current.ptr, false);
                    return Ok((new, inserted_new));
                }
                let mut children = empty_children();
                let ext_rest = ext_path.slice(cp + 1, ext_path.len());
                children[ext_path.as_slice()[cp] as usize] = Some(if ext_rest.is_empty() {
                    child
                } else {
                    self.put_node(Node::Extension { path: ext_rest, child })
                });
                let new_rest = Nibbles::from_nibbles(path[cp + 1..].to_vec());
                children[path[cp] as usize] =
                    Some(self.put_node(Node::Leaf { path: new_rest, value }));
                let mut subtree = self.put_node(Node::Branch { children });
                if cp > 0 {
                    subtree = self
                        .put_node(Node::Extension { path: ext_path.slice(0, cp), child: subtree });
                }
                self.store.remove(current.ptr, false);
                Ok((subtree, true))
            }
        }
    }

    pub fn remove(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, TrieError> {
        if key.is_empty() {
            return Err(TrieError::EmptyKey);
        }
        let path = Nibbles::from_key(&encode_key(key));
        let Some(root) = self.root.clone() else { return Ok(None) };
        let (new_root, removed) = self.remove_at(root, path.as_slice())?;
        if removed.is_some() {
            self.root = new_root;
            self.live_entries -= 1;
        }
        Ok(removed)
    }

    #[allow(clippy::type_complexity)]
    fn remove_at(
        &mut self,
        current: ChildRef,
        path: &[u8],
    ) -> Result<(Option<ChildRef>, Option<Vec<u8>>), TrieError> {
        match self.read(&current)?.clone() {
            Node::Leaf { path: leaf_path, value } => {
                if leaf_path.as_slice() != path {
                    return Ok((Some(current), None));
                }
                let Some(data) = value.data else {
                    return Err(TrieError::Sealed);
                };
                self.store.remove(current.ptr, false);
                Ok((None, Some(data)))
            }
            Node::Branch { mut children } => {
                let Some(child) = path.first().and_then(|&slot| children[slot as usize].take())
                else {
                    return Ok((Some(current), None));
                };
                let (new_child, removed) = self.remove_at(child, &path[1..])?;
                if removed.is_none() {
                    return Ok((Some(current), None));
                }
                children[path[0] as usize] = new_child;
                let live: Vec<usize> = (0..16).filter(|i| children[*i].is_some()).collect();
                let replacement = match live.as_slice() {
                    [] => None,
                    [only] => {
                        let child = children[*only].take().expect("live slot");
                        Some(self.collapse_branch(*only as u8, child))
                    }
                    _ => Some(self.put_node(Node::Branch { children })),
                };
                self.store.remove(current.ptr, false);
                Ok((replacement, removed))
            }
            Node::Extension { path: ext_path, child } => {
                let Some(rest) = path.strip_prefix(ext_path.as_slice()) else {
                    return Ok((Some(current), None));
                };
                let (new_child, removed) = self.remove_at(child, rest)?;
                if removed.is_none() {
                    return Ok((Some(current), None));
                }
                let replacement =
                    new_child.map(|child_ref| self.merge_extension(ext_path, child_ref));
                self.store.remove(current.ptr, false);
                Ok((replacement, removed))
            }
        }
    }

    fn collapse_branch(&mut self, slot: u8, child_ref: ChildRef) -> ChildRef {
        let Some(child) = self.store.get(child_ref.ptr).cloned() else {
            let mut children = empty_children();
            children[slot as usize] = Some(child_ref);
            return self.put_node(Node::Branch { children });
        };
        let mut merged = Nibbles::from_nibbles(vec![slot]);
        match child {
            Node::Leaf { path, value } => {
                merged.extend_from(&path);
                self.store.remove(child_ref.ptr, false);
                self.put_node(Node::Leaf { path: merged, value })
            }
            Node::Extension { path, child } => {
                merged.extend_from(&path);
                self.store.remove(child_ref.ptr, false);
                self.put_node(Node::Extension { path: merged, child })
            }
            Node::Branch { .. } => {
                self.put_node(Node::Extension { path: merged, child: child_ref })
            }
        }
    }

    fn merge_extension(&mut self, mut merged: Nibbles, child_ref: ChildRef) -> ChildRef {
        let Some(child) = self.store.get(child_ref.ptr).cloned() else {
            return self.put_node(Node::Extension { path: merged, child: child_ref });
        };
        match child {
            Node::Leaf { path, value } => {
                merged.extend_from(&path);
                self.store.remove(child_ref.ptr, false);
                self.put_node(Node::Leaf { path: merged, value })
            }
            Node::Extension { path, child } => {
                merged.extend_from(&path);
                self.store.remove(child_ref.ptr, false);
                self.put_node(Node::Extension { path: merged, child })
            }
            Node::Branch { .. } => {
                self.put_node(Node::Extension { path: merged, child: child_ref })
            }
        }
    }

    pub fn seal(&mut self, key: &[u8]) -> Result<(), TrieError> {
        if key.is_empty() {
            return Err(TrieError::EmptyKey);
        }
        let path = Nibbles::from_key(&encode_key(key));
        let mut current = self.root.clone().ok_or(TrieError::NotFound)?;
        let mut spine: Vec<(ChildRef, Node)> = Vec::new();
        let mut remaining = path.as_slice();
        loop {
            let node = self.read(&current)?.clone();
            let child = match &node {
                Node::Leaf { path: leaf_path, value } => {
                    if leaf_path.as_slice() != remaining {
                        return Err(TrieError::NotFound);
                    }
                    if value.is_sealed() {
                        return Err(TrieError::Sealed);
                    }
                    break;
                }
                Node::Branch { children } => {
                    let Some(child) =
                        remaining.first().and_then(|&slot| children[slot as usize].clone())
                    else {
                        return Err(TrieError::NotFound);
                    };
                    remaining = &remaining[1..];
                    child
                }
                Node::Extension { path: ext_path, child } => {
                    let Some(rest) = remaining.strip_prefix(ext_path.as_slice()) else {
                        return Err(TrieError::NotFound);
                    };
                    remaining = rest;
                    child.clone()
                }
            };
            spine.push((std::mem::replace(&mut current, child), node));
        }

        let Node::Leaf { path: leaf_path, mut value } = self.read(&current)?.clone() else {
            unreachable!("the walk ends at a leaf");
        };
        if leaf_path.is_empty() {
            self.store.remove(current.ptr, true);
            for (ancestor_ref, ancestor) in spine.into_iter().rev() {
                let reclaimable = match &ancestor {
                    Node::Branch { children } => children.iter().all(|child| {
                        child.as_ref().is_some_and(|c| self.store.get(c.ptr).is_none())
                    }),
                    _ => false,
                };
                if !reclaimable {
                    break;
                }
                self.store.remove(ancestor_ref.ptr, true);
            }
        } else {
            value.seal();
            self.store.replace(current.ptr, Node::Leaf { path: leaf_path, value });
        }
        self.live_entries -= 1;
        self.sealed_entries += 1;
        Ok(())
    }

    pub fn prove(&self, key: &[u8]) -> Result<Proof, TrieError> {
        let path = Nibbles::from_key(&encode_key(key));
        let mut nodes = Vec::new();
        let mut remaining = path.as_slice();
        let Some(mut current) = self.root.as_ref() else {
            return Ok(Proof::new(nodes));
        };
        loop {
            let node = self.read(current)?;
            nodes.push(ProofNode::from_node(node));
            match node {
                Node::Leaf { .. } => return Ok(Proof::new(nodes)),
                Node::Branch { children } => {
                    let Some(child) =
                        remaining.first().and_then(|&slot| children[slot as usize].as_ref())
                    else {
                        return Ok(Proof::new(nodes));
                    };
                    current = child;
                    remaining = &remaining[1..];
                }
                Node::Extension { path: ext_path, child } => {
                    let Some(rest) = remaining.strip_prefix(ext_path.as_slice()) else {
                        return Ok(Proof::new(nodes));
                    };
                    current = child;
                    remaining = rest;
                }
            }
        }
    }
}
