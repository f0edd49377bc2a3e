//! Location-addressed node storage.

use std::collections::HashMap;

use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::history::TrieHistory;
use crate::node::{ChildRef, Node};

/// Location of a node within a [`NodeStore`].
pub type Ptr = u64;

/// Storage statistics used by the paper's storage-cost experiment (§V-D).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Nodes currently resident.
    pub node_count: usize,
    /// Bytes currently resident (sum of [`Node::storage_size`]).
    pub byte_count: usize,
    /// Running count of nodes reclaimed by sealing.
    pub sealed_reclaimed: usize,
    /// High-water mark of `byte_count`.
    pub peak_bytes: usize,
}

/// A location-addressed store of trie nodes.
///
/// Nodes are addressed by [`Ptr`], not by content hash, mirroring the
/// paper's Solana implementation (an account holding an array of nodes).
/// A pointer whose node is missing is, by definition, *sealed*.
/// Implementations must report how much storage live nodes occupy so
/// experiments can account for host-chain rent.
pub trait NodeStore {
    /// Fetches a node, or `None` if absent (sealed or never stored).
    fn get(&self, ptr: Ptr) -> Option<&Node>;
    /// Stores `node` at a fresh location and returns it.
    fn put(&mut self, node: Node) -> Ptr;
    /// Removes the node at `ptr` (used for both rewrites and sealing;
    /// sealing passes `reclaim = true` so stats can distinguish).
    fn remove(&mut self, ptr: Ptr, reclaim: bool);
    /// Replaces the node at `ptr` in place, keeping the same location.
    ///
    /// Used when sealing turns a live leaf into a skeleton (same commitment
    /// hash, smaller footprint) without disturbing the parent's reference.
    fn replace(&mut self, ptr: Ptr, node: Node);
    /// Current statistics.
    fn stats(&self) -> StoreStats;
}

/// The default in-memory node store.
///
/// `clone` is a deep copy of the state *and* of the checkpoint history
/// (a clone proves at the same heights); the serialised form is the
/// state alone.
///
/// # Examples
///
/// ```
/// use sealable_trie::{MemStore, NodeStore};
/// use sealable_trie::node::{Node, Value};
/// use sealable_trie::Nibbles;
///
/// let mut store = MemStore::new();
/// let node = Node::Leaf { path: Nibbles::from_key(b"k"), value: Value::new(b"v".into()) };
/// let ptr = store.put(node.clone());
/// assert_eq!(store.get(ptr), Some(&node));
/// ```
#[derive(Clone, Debug, Default)]
pub struct MemStore {
    live: Live,
    /// Full-node history, fed by [`NodeStore::remove`] and
    /// [`NodeStore::replace`]; no part of the serialised form.
    history: TrieHistory,
}

/// The on-chain state of a [`MemStore`], and all of its serialised form.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct Live {
    nodes: HashMap<Ptr, Node>,
    next: Ptr,
    stats: StoreStats,
}

impl Serialize for MemStore {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.live.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for MemStore {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(Self { live: Live::deserialize(deserializer)?, history: TrieHistory::default() })
    }
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterates over resident nodes (ptr, node).
    pub fn iter(&self) -> impl Iterator<Item = (Ptr, &Node)> {
        self.live.nodes.iter().map(|(p, n)| (*p, n))
    }

    /// Records the state under `root` as committed at `height`, keeping
    /// the `keep` most recent checkpoints. O(1): nothing is copied.
    pub(crate) fn checkpoint(&mut self, height: u64, root: Option<ChildRef>, keep: usize) {
        self.history.checkpoint(height, root, self.live.next, keep);
    }

    /// The checkpoint taken at `height`, as an index for [`Self::get_at`],
    /// and the root it committed; `None` when evicted or never taken.
    pub(crate) fn find_checkpoint(&self, height: u64) -> Option<(usize, Option<&ChildRef>)> {
        self.history.find(height)
    }

    /// Reads `ptr` as of checkpoint `index`: the node retired since, else
    /// the live one.
    pub(crate) fn get_at(&self, index: usize, ptr: Ptr) -> Option<&Node> {
        self.history.retired_since(index, ptr).or_else(|| self.live.nodes.get(&ptr))
    }

    /// Nodes held for history rather than as state.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> usize {
        self.history.retained()
    }

    /// Nodes ever written.
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> Ptr {
        self.live.next
    }
}

impl NodeStore for MemStore {
    fn get(&self, ptr: Ptr) -> Option<&Node> {
        self.live.nodes.get(&ptr)
    }

    fn put(&mut self, node: Node) -> Ptr {
        let Live { nodes, next, stats } = &mut self.live;
        let ptr = *next;
        *next += 1;
        stats.node_count += 1;
        stats.byte_count += node.storage_size();
        stats.peak_bytes = stats.peak_bytes.max(stats.byte_count);
        nodes.insert(ptr, node);
        ptr
    }

    fn remove(&mut self, ptr: Ptr, reclaim: bool) {
        if let Some(node) = self.live.nodes.remove(&ptr) {
            let stats = &mut self.live.stats;
            stats.node_count -= 1;
            stats.byte_count -= node.storage_size();
            if reclaim {
                stats.sealed_reclaimed += 1;
            }
            self.history.retire(ptr, node);
        }
    }

    fn replace(&mut self, ptr: Ptr, node: Node) {
        let Live { nodes, stats, .. } = &mut self.live;
        if let Some(slot) = nodes.get_mut(&ptr) {
            stats.byte_count -= slot.storage_size();
            stats.byte_count += node.storage_size();
            stats.peak_bytes = stats.peak_bytes.max(stats.byte_count);
            self.history.retire(ptr, std::mem::replace(slot, node));
        }
    }

    fn stats(&self) -> StoreStats {
        self.live.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Value;
    use crate::Nibbles;

    fn leaf(key: &[u8], value: &[u8]) -> Node {
        Node::Leaf { path: Nibbles::from_key(key), value: Value::new(value.to_vec()) }
    }

    #[test]
    fn put_get_remove() {
        let mut store = MemStore::new();
        let node = leaf(b"a", b"1");
        let ptr = store.put(node.clone());
        assert_eq!(store.get(ptr), Some(&node));
        assert_eq!(store.stats().node_count, 1);
        store.remove(ptr, false);
        assert_eq!(store.get(ptr), None);
        assert_eq!(store.stats().node_count, 0);
        assert_eq!(store.stats().byte_count, 0);
    }

    #[test]
    fn identical_nodes_get_distinct_ptrs() {
        let mut store = MemStore::new();
        let p1 = store.put(leaf(b"a", b"1"));
        let p2 = store.put(leaf(b"a", b"1"));
        assert_ne!(p1, p2);
        assert_eq!(store.stats().node_count, 2);
        store.remove(p1, true);
        assert!(store.get(p1).is_none());
        assert!(store.get(p2).is_some(), "no aliasing between identical nodes");
    }

    #[test]
    fn reclaim_counts_sealed() {
        let mut store = MemStore::new();
        let ptr = store.put(leaf(b"a", b"1"));
        store.remove(ptr, true);
        assert_eq!(store.stats().sealed_reclaimed, 1);
    }

    #[test]
    fn remove_of_missing_ptr_is_noop() {
        let mut store = MemStore::new();
        store.remove(42, true);
        assert_eq!(store.stats(), StoreStats::default());
    }

    #[test]
    fn peak_bytes_tracks_high_water() {
        let mut store = MemStore::new();
        let p1 = store.put(leaf(b"a", &[0; 100]));
        let peak = store.stats().peak_bytes;
        store.remove(p1, false);
        assert_eq!(store.stats().byte_count, 0);
        assert_eq!(store.stats().peak_bytes, peak);
    }
}
