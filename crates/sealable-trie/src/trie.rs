//! The sealable Merkle-Patricia trie.

use sim_crypto::Hash;

use crate::node::{empty_children, ChildRef, Node, Value};
use crate::proof::{Proof, ProofNode};
use crate::store::{MemStore, NodeStore, Ptr, StoreStats};
use crate::{Nibbles, TrieError};

/// Internal key encoding: LEB128 length prefix followed by the key bytes.
///
/// The prefix makes the encoded key set *prefix-free* (no encoded key is a
/// proper prefix of another), which guarantees every value terminates in a
/// leaf and lets sealing reclaim whole leaf nodes.
pub(crate) fn encode_key(key: &[u8]) -> Vec<u8> {
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

/// A sealable Merkle-Patricia trie over a pluggable [`NodeStore`].
///
/// See the crate-level documentation for semantics and an example. With
/// the default [`MemStore`] the whole trie (including sealed markers)
/// serializes with serde, so chain state can be snapshotted and restored;
/// the [`Self::checkpoint`] history is not state and is not serialized.
/// `clone` is an independent deep copy and does carry that history.
///
/// Writes hash nothing: the nodes they create are *dirty* until a read
/// needs their hash ([`Self::root_hash`], [`Self::prove`],
/// [`Self::checkpoint`], [`Self::seal`], [`Self::store`],
/// [`Self::verify_integrity`], serialization), which hashes every dirty
/// node once, bottom-up. A run of writes between two reads therefore
/// hashes the nodes that survive it, not every node each write made.
#[derive(Clone, Debug, serde::Deserialize)]
pub struct Trie<S: NodeStore = MemStore> {
    store: S,
    root: Option<ChildRef>,
    live_entries: usize,
    sealed_entries: usize,
}

impl Trie<MemStore> {
    /// Creates an empty trie backed by an in-memory store.
    pub fn new() -> Self {
        Self::with_store(MemStore::new())
    }

    /// Records the current state as committed at block `height`, keeping
    /// the `keep` most recent checkpoints for [`Self::prove_at`]. Hashes
    /// the dirty nodes, so a checkpoint holds a settled state; otherwise
    /// O(1): later writes hand the nodes they retire to the history
    /// instead of dropping them, and nothing is copied.
    pub fn checkpoint(&mut self, height: u64, keep: usize) {
        self.settle_root();
        self.store.checkpoint(height, self.root.clone(), keep);
    }

    /// Merkle proof of `key` as of block `height`, checkable against the
    /// root checkpointed there. `None` when the height's checkpoint has
    /// been evicted (or was never taken) or the key cannot be proven
    /// there.
    pub fn prove_at(&self, height: u64, key: &[u8]) -> Option<Proof> {
        let (checkpoint, root) = self.store.find_checkpoint(height)?;
        prove_from(root, key, |ptr| self.store.get_at(checkpoint, ptr)).ok()
    }
}

impl Default for Trie<MemStore> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: NodeStore + serde::Serialize> serde::Serialize for Trie<S> {
    fn serialize<Z: serde::Serializer>(&self, serializer: Z) -> Result<Z::Ok, Z::Error> {
        use serde::ser::SerializeMap;
        self.settle_root();
        let mut map = serializer.serialize_map()?;
        map.entry("store", &self.store)?;
        map.entry("root", &self.root)?;
        map.entry("live_entries", &self.live_entries)?;
        map.entry("sealed_entries", &self.sealed_entries)?;
        map.end()
    }
}

impl<S: NodeStore> Trie<S> {
    /// Creates an empty trie backed by `store`.
    fn with_store(store: S) -> Self {
        Self { store, root: None, live_entries: 0, sealed_entries: 0 }
    }

    /// The commitment to the current contents ([`Hash::ZERO`] when empty).
    ///
    /// Sealing entries does **not** change this value; inserting or removing
    /// does.
    pub fn root_hash(&self) -> Hash {
        self.settle_root()
    }

    /// Number of live (readable) entries.
    pub fn len(&self) -> usize {
        self.live_entries
    }

    /// Whether the trie has no live entries (it may still have sealed ones).
    pub fn is_empty(&self) -> bool {
        self.live_entries == 0
    }

    /// Number of entries that have been sealed since creation.
    pub fn sealed_len(&self) -> usize {
        self.sealed_entries
    }

    /// Storage statistics of the backing store.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Read-only access to the backing store, every node in it hashed.
    pub fn store(&self) -> &S {
        self.settle_root();
        &self.store
    }

    fn read(&self, child: &ChildRef) -> Result<&Node, TrieError> {
        self.store.get(child.ptr).ok_or(TrieError::Sealed)
    }

    /// Stores a new node, dirty: its hash is left to [`Self::settle`].
    fn put_node(&mut self, node: Node) -> ChildRef {
        ChildRef::dirty(self.store.put(node))
    }

    /// Hashes the dirty nodes under `child`, bottom-up and each once, and
    /// returns its hash. The one place a node hash is computed for the
    /// trie ([`Self::verify_node`] recomputes them to audit).
    ///
    /// A settled reference has a settled subtree (a node never changes
    /// once written, and every write path-copies up to the root), so the
    /// walk stops at the first settled reference on each path. A dirty
    /// reference is always resident: a node leaves the store dirty only
    /// with its parent, and sealing settles what it reclaims.
    fn settle(&self, child: &ChildRef) -> Hash {
        if let Some(hash) = child.commitment() {
            return hash;
        }
        let node = self.store.get(child.ptr).expect("a dirty node is resident");
        match node {
            Node::Leaf { .. } => {}
            Node::Branch { children } => {
                for grandchild in children.iter().flatten() {
                    self.settle(grandchild);
                }
            }
            Node::Extension { child: grandchild, .. } => {
                self.settle(grandchild);
            }
        }
        let hash = node.hash();
        #[cfg(test)]
        tests::NODE_HASHES.with(|count| count.set(count.get() + 1));
        child.fill(hash);
        hash
    }

    /// Settles the whole trie and returns its root hash.
    fn settle_root(&self) -> Hash {
        self.root.as_ref().map_or(Hash::ZERO, |root| self.settle(root))
    }

    /// Inserts `value` under `key`.
    ///
    /// Overwrites a live value; fails on a sealed one.
    ///
    /// # Errors
    ///
    /// * [`TrieError::EmptyKey`] / [`TrieError::EmptyValue`] on empty input.
    /// * [`TrieError::Sealed`] if `key` was sealed, or if reaching its slot
    ///   would require reading a sealed node.
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
        let node = self.read(&current)?.clone();
        match node {
            Node::Leaf { path: leaf_path, value: leaf_value } => {
                if leaf_path.as_slice() == path {
                    if leaf_value.is_sealed() {
                        return Err(TrieError::Sealed);
                    }
                    let new = self.put_node(Node::Leaf { path: leaf_path, value });
                    self.store.remove(current.ptr, false);
                    return Ok((new, false));
                }
                // Split: prefix-free keys guarantee divergence strictly
                // before either path ends.
                let cp = leaf_path.common_prefix_len(path);
                debug_assert!(cp < leaf_path.len() && cp < path.len());
                let mut children = empty_children();
                let old_slot = leaf_path.as_slice()[cp] as usize;
                let old_rest = leaf_path.slice(cp + 1, leaf_path.len());
                let old_is_sealed_at_max_depth = leaf_value.is_sealed() && old_rest.is_empty();
                let old_ref = self.put_node(Node::Leaf { path: old_rest, value: leaf_value });
                if old_is_sealed_at_max_depth {
                    // A sealed skeleton that ends up at maximal depth can
                    // never be split again — reclaim it now, keeping only
                    // its hash in the new branch.
                    self.settle(&old_ref);
                    self.store.remove(old_ref.ptr, true);
                }
                children[old_slot] = Some(old_ref);
                let new_slot = path[cp] as usize;
                let new_rest = Nibbles::from_nibbles(path[cp + 1..].to_vec());
                children[new_slot] = Some(self.put_node(Node::Leaf { path: new_rest, value }));
                let mut subtree = self.put_node(Node::Branch { children });
                if cp > 0 {
                    subtree = self
                        .put_node(Node::Extension { path: leaf_path.slice(0, cp), child: subtree });
                }
                self.store.remove(current.ptr, false);
                Ok((subtree, true))
            }
            Node::Branch { mut children } => {
                // Prefix-freedom: the path cannot end at a branch.
                debug_assert!(!path.is_empty());
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
                // Split the extension at the divergence point.
                debug_assert!(cp < path.len());
                let mut children = empty_children();
                let ext_slot = ext_path.as_slice()[cp] as usize;
                let ext_rest = ext_path.slice(cp + 1, ext_path.len());
                children[ext_slot] = Some(if ext_rest.is_empty() {
                    child
                } else {
                    self.put_node(Node::Extension { path: ext_rest, child })
                });
                let new_slot = path[cp] as usize;
                let new_rest = Nibbles::from_nibbles(path[cp + 1..].to_vec());
                children[new_slot] = Some(self.put_node(Node::Leaf { path: new_rest, value }));
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

    /// Looks up the value stored under `key`.
    ///
    /// # Errors
    ///
    /// [`TrieError::Sealed`] if the key (or a node on its path) has been
    /// sealed — deliberately distinct from `Ok(None)`, which means the key
    /// was never stored.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, TrieError> {
        Ok(self.lookup(key)?.map(<[u8]>::to_vec))
    }

    /// [`Self::get`] without copying the value bytes out.
    fn lookup(&self, key: &[u8]) -> Result<Option<&[u8]>, TrieError> {
        let encoded = encode_key(key);
        let path = Nibbles::from_key(&encoded);
        let mut remaining = path.as_slice();
        let Some(mut current) = self.root.as_ref() else {
            return Ok(None);
        };
        loop {
            let node = self.read(current)?;
            match node {
                Node::Leaf { path: leaf_path, value } => {
                    if leaf_path.as_slice() == remaining {
                        return match &value.data {
                            Some(data) => Ok(Some(data)),
                            None => Err(TrieError::Sealed),
                        };
                    }
                    return Ok(None);
                }
                Node::Branch { children } => {
                    if remaining.is_empty() {
                        return Ok(None);
                    }
                    match &children[remaining[0] as usize] {
                        Some(child) => {
                            current = child;
                            remaining = &remaining[1..];
                        }
                        None => return Ok(None),
                    }
                }
                Node::Extension { path: ext_path, child } => {
                    if remaining.len() >= ext_path.len()
                        && &remaining[..ext_path.len()] == ext_path.as_slice()
                    {
                        let skip = ext_path.len();
                        current = child;
                        remaining = &remaining[skip..];
                    } else {
                        return Ok(None);
                    }
                }
            }
        }
    }

    /// Removes `key`, returning its value.
    ///
    /// # Errors
    ///
    /// [`TrieError::Sealed`] if the key or a node on its path is sealed —
    /// sealed entries are permanent by design.
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
        let node = self.read(&current)?.clone();
        match node {
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
                if path.is_empty() {
                    return Ok((Some(current), None));
                }
                let slot = path[0] as usize;
                let Some(child) = children[slot].take() else {
                    return Ok((Some(current), None));
                };
                let (new_child, removed) = self.remove_at(child, &path[1..])?;
                if removed.is_none() {
                    return Ok((Some(current), None));
                }
                children[slot] = new_child;
                let live: Vec<usize> = (0..16).filter(|i| children[*i].is_some()).collect();
                let replacement =
                    match live.as_slice() {
                        [] => None,
                        [only] => Some(self.collapse_branch(
                            *only as u8,
                            children[*only].take().expect("live slot"),
                        )),
                        _ => Some(self.put_node(Node::Branch { children })),
                    };
                self.store.remove(current.ptr, false);
                Ok((replacement, removed))
            }
            Node::Extension { path: ext_path, child } => {
                if path.len() < ext_path.len() || &path[..ext_path.len()] != ext_path.as_slice() {
                    return Ok((Some(current), None));
                }
                let (new_child, removed) = self.remove_at(child, &path[ext_path.len()..])?;
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

    /// Collapses a branch left with a single child into the canonical form.
    ///
    /// If the child is sealed (unreadable) the branch is kept as-is with one
    /// slot: still a valid trie, just not fully compressed.
    fn collapse_branch(&mut self, slot: u8, child_ref: ChildRef) -> ChildRef {
        let Some(child) = self.store.get(child_ref.ptr).cloned() else {
            // Child is sealed; keep a one-slot branch.
            let mut children = empty_children();
            children[slot as usize] = Some(child_ref);
            return self.put_node(Node::Branch { children });
        };
        match child {
            Node::Leaf { path, value } => {
                let mut merged = Nibbles::from_nibbles(vec![slot]);
                merged.extend_from(&path);
                self.store.remove(child_ref.ptr, false);
                self.put_node(Node::Leaf { path: merged, value })
            }
            Node::Extension { path, child } => {
                let mut merged = Nibbles::from_nibbles(vec![slot]);
                merged.extend_from(&path);
                self.store.remove(child_ref.ptr, false);
                self.put_node(Node::Extension { path: merged, child })
            }
            Node::Branch { .. } => self.put_node(Node::Extension {
                path: Nibbles::from_nibbles(vec![slot]),
                child: child_ref,
            }),
        }
    }

    /// Re-links an extension to a (possibly replaced) child, merging chains
    /// of extensions and absorbing leaves.
    fn merge_extension(&mut self, ext_path: Nibbles, child_ref: ChildRef) -> ChildRef {
        let Some(child) = self.store.get(child_ref.ptr).cloned() else {
            // Sealed child: keep the extension pointing at it.
            return self.put_node(Node::Extension { path: ext_path, child: child_ref });
        };
        match child {
            Node::Leaf { path, value } => {
                let mut merged = ext_path;
                merged.extend_from(&path);
                self.store.remove(child_ref.ptr, false);
                self.put_node(Node::Leaf { path: merged, value })
            }
            Node::Extension { path, child } => {
                let mut merged = ext_path;
                merged.extend_from(&path);
                self.store.remove(child_ref.ptr, false);
                self.put_node(Node::Extension { path: merged, child })
            }
            Node::Branch { .. } => {
                self.put_node(Node::Extension { path: ext_path, child: child_ref })
            }
        }
    }

    /// Seals `key`: the entry becomes permanently unreadable and its storage
    /// is reclaimed, **without changing the root hash**.
    ///
    /// Reclamation is as aggressive as soundness allows:
    ///
    /// * the value bytes are always dropped;
    /// * a leaf at maximal depth (empty remaining path — nothing can ever
    ///   diverge *inside* it) is removed from storage entirely;
    /// * a branch whose 16 slots are all occupied by reclaimed children is
    ///   removed too (no future key can need it), cascading upward.
    ///
    /// A leaf sealed while it still has a remaining path keeps a small
    /// *skeleton* (path + value hash, no data) so that future keys can still
    /// split around it. With dense fixed-width keys — the guest contract
    /// keys packets by `(channel, big-endian sequence)` — completed 16-blocks
    /// collapse and storage reclaims fully, which is the paper's §III-A
    /// claim that state depends only on packets in flight.
    ///
    /// A removed node's hash must survive in its parent, so each is hashed
    /// first if it is dirty; its children are all reclaimed, hence already
    /// hashed, so sealing hashes nothing off the key's own path.
    ///
    /// # Errors
    ///
    /// * [`TrieError::NotFound`] if `key` is not a live entry.
    /// * [`TrieError::Sealed`] if it is already sealed.
    pub fn seal(&mut self, key: &[u8]) -> Result<(), TrieError> {
        if key.is_empty() {
            return Err(TrieError::EmptyKey);
        }
        let path = Nibbles::from_key(&encode_key(key));
        let mut current = self.root.as_ref().ok_or(TrieError::NotFound)?;

        // Walk down, recording the spine (references to the leaf's ancestors).
        let mut spine: Vec<&ChildRef> = Vec::new();
        let mut remaining = path.as_slice();
        let (leaf_path, value) = loop {
            match self.read(current)? {
                Node::Leaf { path: leaf_path, value } => {
                    if leaf_path.as_slice() != remaining {
                        return Err(TrieError::NotFound);
                    }
                    if value.is_sealed() {
                        return Err(TrieError::Sealed);
                    }
                    break (leaf_path, value);
                }
                Node::Branch { children } => {
                    let Some(child) =
                        remaining.first().and_then(|&slot| children[slot as usize].as_ref())
                    else {
                        return Err(TrieError::NotFound);
                    };
                    spine.push(current);
                    current = child;
                    remaining = &remaining[1..];
                }
                Node::Extension { path: ext_path, child } => {
                    let Some(rest) = remaining.strip_prefix(ext_path.as_slice()) else {
                        return Err(TrieError::NotFound);
                    };
                    spine.push(current);
                    current = child;
                    remaining = rest;
                }
            }
        };

        // Reclaim. A max-depth leaf (empty path) is removed outright and
        // the removal cascades through *full* branches; a leaf that could
        // still be split keeps a data-less skeleton.
        if leaf_path.is_empty() {
            self.settle(current);
            let mut reclaimed = vec![current.ptr];
            for ancestor in spine.into_iter().rev() {
                let below = reclaimed[reclaimed.len() - 1];
                // Only a branch with all 16 slots occupied can never be
                // needed again once every child is reclaimed: no new slot
                // can appear and no child can be split. Extensions stay: a
                // future key may diverge inside their compressed path,
                // which requires reading it.
                let reclaimable = match self.read(ancestor)? {
                    Node::Branch { children } => children.iter().all(|child| {
                        child
                            .as_ref()
                            .is_some_and(|c| c.ptr == below || self.store.get(c.ptr).is_none())
                    }),
                    Node::Extension { .. } => false,
                    Node::Leaf { .. } => unreachable!("leaves are never on the spine"),
                };
                if !reclaimable {
                    break;
                }
                self.settle(ancestor);
                reclaimed.push(ancestor.ptr);
            }
            for ptr in reclaimed {
                self.store.remove(ptr, true);
            }
        } else {
            let mut value = value.clone();
            value.seal();
            let skeleton = Node::Leaf { path: leaf_path.clone(), value };
            self.store.replace(current.ptr, skeleton);
        }

        self.live_entries -= 1;
        self.sealed_entries += 1;
        Ok(())
    }

    /// Produces a proof of membership or non-membership for `key`, checkable
    /// against [`Self::root_hash`] with no store access.
    ///
    /// # Errors
    ///
    /// [`TrieError::Sealed`] if building the proof would need to read a
    /// sealed node. (Proving a *sealed* key is impossible by design — the
    /// data backing the proof has been reclaimed.)
    pub fn prove(&self, key: &[u8]) -> Result<Proof, TrieError> {
        self.settle_root();
        prove_from(self.root.as_ref(), key, |ptr| self.store.get(ptr))
    }

    /// Audits the structural integrity of the whole trie: every resident
    /// node's recomputed hash must match the hash its parent holds, value
    /// hashes must match value bytes, and extension paths must be
    /// non-empty. Returns the number of resident nodes visited.
    ///
    /// Intended for tests, fuzzing and operational debugging (a corrupted
    /// store would otherwise surface as baffling proof failures).
    ///
    /// # Errors
    ///
    /// [`TrieError::MissingNode`]-style corruption is reported as
    /// `Err(hash)` of the offending expected commitment.
    pub fn verify_integrity(&self) -> Result<usize, Hash> {
        self.settle_root();
        let Some(root) = &self.root else { return Ok(0) };
        self.verify_node(root)
    }

    fn verify_node(&self, child: &ChildRef) -> Result<usize, Hash> {
        let Some(node) = self.store.get(child.ptr) else {
            return Ok(0); // Sealed: the commitment lives only in the parent.
        };
        let expected = child.commitment().expect("settled by verify_integrity");
        if node.hash() != expected {
            return Err(expected);
        }
        let mut visited = 1;
        match node {
            Node::Leaf { value, .. } => {
                if let Some(data) = &value.data {
                    if sim_crypto::sha256(data) != value.hash {
                        return Err(expected);
                    }
                }
            }
            Node::Branch { children } => {
                for grandchild in children.iter().flatten() {
                    visited += self.verify_node(grandchild)?;
                }
            }
            Node::Extension { path, child: grandchild } => {
                if path.is_empty() {
                    return Err(expected);
                }
                visited += self.verify_node(grandchild)?;
            }
        }
        Ok(visited)
    }
}

/// The proof walk from `root` over any `Ptr → node` lookup, so proofs of
/// live state and of a checkpointed state are one function. Every node it
/// reaches must be settled.
fn prove_from<'a>(
    root: Option<&'a ChildRef>,
    key: &[u8],
    get: impl Fn(Ptr) -> Option<&'a Node>,
) -> Result<Proof, TrieError> {
    let path = Nibbles::from_key(&encode_key(key));
    let mut nodes = Vec::new();
    let mut remaining = path.as_slice();
    let Some(mut current) = root else {
        // Empty trie: the empty proof shows non-membership.
        return Ok(Proof::new(nodes));
    };
    loop {
        let node = get(current.ptr).ok_or(TrieError::Sealed)?;
        nodes.push(ProofNode::from_node(node));
        match node {
            Node::Leaf { .. } => return Ok(Proof::new(nodes)),
            Node::Branch { children } => {
                let Some(&slot) = remaining.first() else {
                    return Ok(Proof::new(nodes));
                };
                match &children[slot as usize] {
                    Some(child) => {
                        current = child;
                        remaining = &remaining[1..];
                    }
                    None => return Ok(Proof::new(nodes)),
                }
            }
            Node::Extension { path: ext_path, child } => {
                if remaining.len() >= ext_path.len()
                    && &remaining[..ext_path.len()] == ext_path.as_slice()
                {
                    let skip = ext_path.len();
                    current = child;
                    remaining = &remaining[skip..];
                } else {
                    return Ok(Proof::new(nodes));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Node hashes computed by this thread's tries, for the work tests.
        pub(super) static NODE_HASHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn empty_trie() {
        let trie = Trie::new();
        assert_eq!(trie.root_hash(), Hash::ZERO);
        assert!(trie.is_empty());
        assert_eq!(trie.get(b"missing").unwrap(), None);
    }

    #[test]
    fn insert_get_single() {
        let mut trie = Trie::new();
        trie.insert(b"key", b"value").unwrap();
        assert_eq!(trie.get(b"key").unwrap().unwrap(), b"value");
        assert_eq!(trie.len(), 1);
        assert_ne!(trie.root_hash(), Hash::ZERO);
    }

    #[test]
    fn overwrite_changes_root() {
        let mut trie = Trie::new();
        trie.insert(b"key", b"v1").unwrap();
        let r1 = trie.root_hash();
        trie.insert(b"key", b"v2").unwrap();
        assert_ne!(trie.root_hash(), r1);
        assert_eq!(trie.get(b"key").unwrap().unwrap(), b"v2");
        assert_eq!(trie.len(), 1);
    }

    #[test]
    fn many_keys_round_trip() {
        let mut trie = Trie::new();
        for i in 0u32..500 {
            let key = format!("key/{i:04}");
            let value = format!("value-{i}");
            trie.insert(key.as_bytes(), value.as_bytes()).unwrap();
        }
        assert_eq!(trie.len(), 500);
        for i in 0u32..500 {
            let key = format!("key/{i:04}");
            assert_eq!(trie.get(key.as_bytes()).unwrap().unwrap(), format!("value-{i}").as_bytes());
        }
        assert_eq!(trie.get(b"key/0500").unwrap(), None);
    }

    #[test]
    fn insertion_order_independent_root() {
        let keys: Vec<Vec<u8>> = (0..100u32).map(|i| format!("k{i}").into_bytes()).collect();
        let mut forward = Trie::new();
        for k in &keys {
            forward.insert(k, b"v").unwrap();
        }
        let mut backward = Trie::new();
        for k in keys.iter().rev() {
            backward.insert(k, b"v").unwrap();
        }
        assert_eq!(forward.root_hash(), backward.root_hash());
    }

    #[test]
    fn remove_restores_previous_root() {
        let mut trie = Trie::new();
        trie.insert(b"a", b"1").unwrap();
        let r1 = trie.root_hash();
        trie.insert(b"b", b"2").unwrap();
        assert_eq!(trie.remove(b"b").unwrap().unwrap(), b"2");
        assert_eq!(trie.root_hash(), r1);
        assert_eq!(trie.len(), 1);
        assert_eq!(trie.remove(b"b").unwrap(), None);
    }

    #[test]
    fn remove_all_empties_store() {
        let mut trie = Trie::new();
        for i in 0..50u32 {
            trie.insert(format!("key{i}").as_bytes(), b"v").unwrap();
        }
        for i in 0..50u32 {
            assert!(trie.remove(format!("key{i}").as_bytes()).unwrap().is_some());
        }
        assert!(trie.is_empty());
        assert!(trie.root.is_none());
        assert_eq!(trie.stats().node_count, 0, "store should be empty");
        assert_eq!(trie.stats().byte_count, 0);
    }

    #[test]
    fn seal_preserves_root_and_blocks_access() {
        let mut trie = Trie::new();
        trie.insert(b"a", b"1").unwrap();
        trie.insert(b"b", b"2").unwrap();
        let root = trie.root_hash();
        trie.seal(b"a").unwrap();
        assert_eq!(trie.root_hash(), root);
        assert_eq!(trie.get(b"a"), Err(TrieError::Sealed));
        assert_eq!(trie.insert(b"a", b"x"), Err(TrieError::Sealed));
        assert_eq!(trie.remove(b"a"), Err(TrieError::Sealed));
        assert_eq!(trie.seal(b"a"), Err(TrieError::Sealed));
        // The sibling is unaffected.
        assert_eq!(trie.get(b"b").unwrap().unwrap(), b"2");
        assert_eq!(trie.len(), 1);
        assert_eq!(trie.sealed_len(), 1);
    }

    #[test]
    fn seal_missing_key_is_not_found() {
        let mut trie = Trie::new();
        trie.insert(b"a", b"1").unwrap();
        assert_eq!(trie.seal(b"zz"), Err(TrieError::NotFound));
        assert_eq!(trie.seal(b""), Err(TrieError::EmptyKey));
    }

    #[test]
    fn sealing_everything_reclaims_interior_nodes() {
        // Dense fixed-width keys (the guest contract's packet keying): a
        // complete 16-block of sealed leaves collapses its branch, and the
        // collapse cascades.
        let mut trie = Trie::new();
        for seq in 0..=255u64 {
            trie.insert(&seq.to_be_bytes(), b"commitment").unwrap();
        }
        let root = trie.root_hash();
        let full = trie.stats().byte_count;
        for seq in 0..=255u64 {
            trie.seal(&seq.to_be_bytes()).unwrap();
        }
        assert_eq!(trie.root_hash(), root, "sealing never moves the root");
        // Everything collapses except at most the root extension above the
        // fully dead region.
        assert!(
            trie.stats().node_count <= 1,
            "expected near-total reclamation, got {} nodes",
            trie.stats().node_count
        );
        assert!(trie.stats().byte_count < full / 10);
        assert_eq!(trie.len(), 0);
        assert_eq!(trie.sealed_len(), 256);
    }

    #[test]
    fn storage_stays_bounded_under_seal_churn() {
        // The paper's claim (§III-A): storage depends on packets in flight,
        // not on history. Alg. 1 keys packets by hash(packet), so seal-heavy
        // namespaces see uniformly distributed keys; we reproduce that usage
        // (plus a few permanently live entries, as the guest contract always
        // has: client states, channel ends, sequence counters).
        let mut trie = Trie::new();
        for i in 0..8u32 {
            trie.insert(format!("state/{i}").as_bytes(), b"live").unwrap();
        }
        let mut peak_live = 0;
        let mut seq = 0u64;
        for _round in 0..10u32 {
            let first = seq;
            for _ in 0..256 {
                trie.insert(&seq.to_be_bytes(), b"32-byte-commitment-placeholder!").unwrap();
                seq += 1;
            }
            peak_live = peak_live.max(trie.stats().byte_count);
            for s in first..seq {
                trie.seal(&s.to_be_bytes()).unwrap();
            }
        }
        let final_bytes = trie.stats().byte_count;
        // After sealing each round, the resident set must stay far below the
        // peak that held 256 live packets, despite 2560 packets of history.
        assert!(
            final_bytes * 5 < peak_live,
            "final {final_bytes} should be far below peak {peak_live}"
        );
        assert_eq!(trie.len(), 8);
        assert_eq!(trie.sealed_len(), 2560);
    }

    #[test]
    fn immediate_insert_seal_churn_reclaims_fully() {
        // The guest contract's receipt pattern: insert a receipt, seal it
        // right away, repeat with the next sequence number. Skeletons left
        // at intermediate depths must be reclaimed as the region densifies.
        let mut trie = Trie::new();
        for seq in 0..4096u64 {
            trie.insert(&seq.to_be_bytes(), b"receipt").unwrap();
            trie.seal(&seq.to_be_bytes()).unwrap();
        }
        let stats = trie.stats();
        // Only the right spine (a handful of partial branches/extensions)
        // may stay resident.
        assert!(stats.node_count < 24, "resident nodes: {}", stats.node_count);
        assert!(stats.byte_count < 2_000, "resident bytes: {}", stats.byte_count);
        assert_eq!(trie.sealed_len(), 4096);
    }

    #[test]
    fn get_does_not_mutate() {
        let mut trie = Trie::new();
        trie.insert(b"k", b"v").unwrap();
        let root = trie.root_hash();
        let _ = trie.get(b"k").unwrap();
        let _ = trie.get(b"other").unwrap();
        assert_eq!(trie.root_hash(), root);
    }

    #[test]
    fn empty_key_and_value_rejected() {
        let mut trie = Trie::new();
        assert_eq!(trie.insert(b"", b"v"), Err(TrieError::EmptyKey));
        assert_eq!(trie.insert(b"k", b""), Err(TrieError::EmptyValue));
        assert_eq!(trie.remove(b""), Err(TrieError::EmptyKey));
    }

    #[test]
    fn prefix_keys_coexist() {
        // The length-prefix encoding makes "ab" and "abc" diverge even
        // though one is a byte-prefix of the other.
        let mut trie = Trie::new();
        trie.insert(b"ab", b"short").unwrap();
        trie.insert(b"abc", b"long").unwrap();
        assert_eq!(trie.get(b"ab").unwrap().unwrap(), b"short");
        assert_eq!(trie.get(b"abc").unwrap().unwrap(), b"long");
        trie.seal(b"ab").unwrap();
        assert_eq!(trie.get(b"abc").unwrap().unwrap(), b"long");
    }

    #[test]
    fn binary_keys_supported() {
        let mut trie = Trie::new();
        let k1 = [0u8, 0, 1];
        let k2 = [0u8, 0, 1, 0];
        trie.insert(&k1, b"one").unwrap();
        trie.insert(&k2, b"two").unwrap();
        assert_eq!(trie.get(&k1).unwrap().unwrap(), b"one");
        assert_eq!(trie.get(&k2).unwrap().unwrap(), b"two");
    }

    #[test]
    fn identical_values_do_not_alias() {
        // Two keys with identical trailing paths and values used to share a
        // content-addressed node; sealing one must not affect the other.
        let mut trie = Trie::new();
        trie.insert(b"a-suffix", b"same").unwrap();
        trie.insert(b"b-suffix", b"same").unwrap();
        trie.seal(b"a-suffix").unwrap();
        assert_eq!(trie.get(b"b-suffix").unwrap().unwrap(), b"same");
    }

    #[test]
    fn removing_sibling_of_sealed_keeps_branch() {
        let mut trie = Trie::new();
        trie.insert(b"x1", b"one").unwrap();
        trie.insert(b"x2", b"two").unwrap();
        trie.insert(b"x3", b"three").unwrap();
        trie.seal(b"x1").unwrap();
        // Removing x2 leaves a branch whose only remaining child (x1) is
        // sealed: the branch cannot be collapsed but the trie stays valid.
        assert_eq!(trie.remove(b"x2").unwrap().unwrap(), b"two");
        assert_eq!(trie.get(b"x3").unwrap().unwrap(), b"three");
        assert_eq!(trie.get(b"x1"), Err(TrieError::Sealed));
    }

    #[test]
    fn get_reports_all_three_cases() {
        let mut trie = Trie::new();
        trie.insert(b"live", b"v").unwrap();
        trie.insert(b"gone", b"v").unwrap();
        trie.seal(b"gone").unwrap();
        assert_eq!(trie.get(b"live"), Ok(Some(b"v".to_vec())));
        assert_eq!(trie.get(b"gone"), Err(TrieError::Sealed));
        assert_eq!(trie.get(b"nope"), Ok(None));
    }

    #[test]
    fn serde_snapshot_round_trip_preserves_everything() {
        // Persistence: a trie with live, removed and sealed entries must
        // survive serialization — roots, reads, seals and proofs intact.
        let mut trie = Trie::new();
        for i in 0..64u64 {
            trie.insert(&i.to_be_bytes(), format!("value-{i}").as_bytes()).unwrap();
        }
        trie.checkpoint(1, 8);
        for i in 0..16u64 {
            trie.seal(&i.to_be_bytes()).unwrap();
        }
        trie.remove(&63u64.to_be_bytes()).unwrap();

        let snapshot = serde_json::to_vec(&trie).unwrap();
        let restored: Trie = serde_json::from_slice(&snapshot).unwrap();

        // The checkpoint's history is not state: it is neither written
        // nor restored.
        let serde_json::Value::Object(store) = serde_json::to_value(&trie.store).unwrap() else {
            panic!("a store serialises as an object");
        };
        assert_eq!(
            store.iter().map(|(name, _)| name.as_str()).collect::<Vec<_>>(),
            ["nodes", "next", "stats"]
        );
        assert!(trie.store.retained() > 0 && trie.prove_at(1, &5u64.to_be_bytes()).is_some());
        assert!(restored.store.retained() == 0 && restored.prove_at(1, b"any").is_none());

        assert_eq!(restored.root_hash(), trie.root_hash());
        assert_eq!(restored.len(), trie.len());
        assert_eq!(restored.sealed_len(), trie.sealed_len());
        assert_eq!(restored.get(&20u64.to_be_bytes()).unwrap().unwrap(), b"value-20");
        assert_eq!(restored.get(&5u64.to_be_bytes()), Err(TrieError::Sealed));
        assert_eq!(restored.get(&63u64.to_be_bytes()).unwrap(), None);
        let proof = restored.prove(&20u64.to_be_bytes()).unwrap();
        assert!(proof.verify_member(&trie.root_hash(), &20u64.to_be_bytes(), b"value-20"));

        // The restored trie keeps working: fresh inserts and seals.
        let mut restored = restored;
        restored.insert(&100u64.to_be_bytes(), b"after-restore").unwrap();
        restored.seal(&100u64.to_be_bytes()).unwrap();
    }

    #[test]
    fn integrity_holds_through_mutations_and_detects_corruption() {
        let mut trie = Trie::new();
        assert_eq!(trie.verify_integrity(), Ok(0));
        for i in 0..200u64 {
            trie.insert(&i.to_be_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        for i in 0..50u64 {
            trie.seal(&i.to_be_bytes()).unwrap();
        }
        for i in 190..200u64 {
            trie.remove(&i.to_be_bytes()).unwrap();
        }
        let visited = trie.verify_integrity().unwrap();
        assert!(visited > 0);
        assert_eq!(visited, trie.stats().node_count, "every resident node checked");

        // Corrupt a resident node through the store: the auditor notices.
        let mut corrupted = trie.clone();
        let some_ptr = corrupted.store.iter().map(|(p, _)| p).max().unwrap();
        corrupted.store.replace(
            some_ptr,
            Node::Leaf {
                path: Nibbles::from_key(b"bogus"),
                value: Value::new(b"corruption".to_vec()),
            },
        );
        assert!(corrupted.verify_integrity().is_err());
    }

    /// The node hashes `work` computes on this thread.
    fn hashes_in(work: impl FnOnce()) -> u64 {
        let before = NODE_HASHES.with(std::cell::Cell::get);
        work();
        NODE_HASHES.with(std::cell::Cell::get) - before
    }

    /// Resident nodes written at or after `since`: the dirty ones, when
    /// `since` is the store's next `Ptr` at the last settling read.
    fn written_since(trie: &Trie, since: Ptr) -> u64 {
        trie.store.iter().filter(|(ptr, _)| *ptr >= since).count() as u64
    }

    #[test]
    fn a_read_hashes_each_live_dirty_node_once_and_writes_hash_nothing() {
        // Every insert under the shared prefix rewrites the spine above
        // it; hashing on write hashed each of those copies.
        let mut trie = Trie::new();
        let key = |seq: u64| {
            [b"commitments/ports/transfer/channels/channel-0/".as_slice(), &seq.to_be_bytes()]
                .concat()
        };
        let written = hashes_in(|| (0..64).for_each(|seq| trie.insert(&key(seq), b"c").unwrap()));
        assert_eq!(written, 0, "writes hash nothing");
        let live = trie.stats().node_count as u64;
        assert_eq!(written_since(&trie, 0), live, "everything is dirty");
        assert_eq!(
            hashes_in(|| {
                trie.root_hash();
            }),
            live,
            "each live dirty node, once"
        );
        assert!(trie.store.allocated() > 3 * live, "the eager trie hashed every node written");
        let again = hashes_in(|| {
            trie.root_hash();
            trie.prove(&key(7)).unwrap();
            trie.checkpoint(1, 2);
            trie.prove_at(1, &key(7)).unwrap();
            trie.verify_integrity().unwrap();
        });
        assert_eq!(again, 0, "a settled trie hashes nothing on read");
    }

    #[test]
    fn sealing_hashes_only_the_dirty_nodes_it_reclaims() {
        // Fixed-width keys end in max-depth leaves; the second block of
        // 16 is written after the last read, so it and its spine are dirty.
        let mut trie = Trie::new();
        (0..16u64).for_each(|seq| trie.insert(&seq.to_be_bytes(), b"receipt").unwrap());
        let root = trie.root_hash();
        let since = trie.store.allocated();
        (16..32u64).for_each(|seq| trie.insert(&seq.to_be_bytes(), b"receipt").unwrap());
        let dirty = written_since(&trie, since);

        let reclaimed = trie.stats().sealed_reclaimed;
        assert_eq!(hashes_in(|| trie.seal(&16u64.to_be_bytes()).unwrap()), 1, "its leaf alone");
        let sealed =
            hashes_in(|| (17..32u64).for_each(|seq| trie.seal(&seq.to_be_bytes()).unwrap()));
        assert_eq!(1 + sealed, (trie.stats().sealed_reclaimed - reclaimed) as u64);
        assert_eq!(1 + sealed, 17, "16 leaves and the full branch over them");
        // The spine above the reclaimed block waits for the next read.
        assert_eq!(
            hashes_in(|| {
                trie.root_hash();
            }),
            dirty - 17
        );
        (0..16u64).for_each(|seq| trie.seal(&seq.to_be_bytes()).unwrap());
        assert_ne!(trie.root_hash(), root, "the second block is in it");
        trie.verify_integrity().unwrap();
    }

    #[test]
    fn key_encoding_is_prefix_free() {
        let keys: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"ab".to_vec(),
            vec![0; 127],
            vec![0; 128],
            vec![0; 129],
            vec![0x80; 5],
        ];
        for a in &keys {
            for b in &keys {
                if a == b {
                    continue;
                }
                let ea = encode_key(a);
                let eb = encode_key(b);
                assert!(!eb.starts_with(&ea), "{a:?} encoding is a prefix of {b:?} encoding");
            }
        }
    }
}
