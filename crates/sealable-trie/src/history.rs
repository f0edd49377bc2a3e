//! Bounded per-height trie snapshots: the proof-at-height service a full
//! node offers relayers.

use std::collections::VecDeque;

use crate::{Proof, Trie};

/// The last `depth` committed states of a trie, by block height.
///
/// A proof generated from live state stops verifying against a block's
/// root as soon as later writes touch the proof path — under sustained
/// traffic, always. A chain therefore snapshots the state each block
/// commits to, and relayers prove against the snapshot of the height
/// their light client trusts. Every snapshot is a full [`Trie`] clone
/// today; this type is the one seam to make that cheaper.
#[derive(Clone, Debug)]
pub struct TrieHistory {
    depth: usize,
    snapshots: VecDeque<(u64, Trie)>,
}

impl TrieHistory {
    /// An empty history keeping the `depth` most recent snapshots.
    pub fn new(depth: usize) -> Self {
        Self { depth, snapshots: VecDeque::new() }
    }

    /// Records `trie` as the state committed at `height`, evicting the
    /// oldest snapshot once more than `depth` are held.
    pub fn snapshot(&mut self, height: u64, trie: &Trie) {
        self.snapshots.push_back((height, trie.clone()));
        while self.snapshots.len() > self.depth {
            self.snapshots.pop_front();
        }
    }

    /// Merkle proof of `key` as of block `height`. `None` when the
    /// height's snapshot has been evicted (or was never taken) or the key
    /// cannot be proven there.
    pub fn prove_at(&self, height: u64, key: &[u8]) -> Option<Proof> {
        let (_, trie) = self.snapshots.iter().rev().find(|(h, _)| *h == height)?;
        trie.prove(key).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proves_at_kept_heights_and_evicts_beyond_the_depth() {
        let (mut live, mut history) = (Trie::new(), TrieHistory::new(2));
        let mut roots = vec![live.root_hash()];
        for height in 1..=3u8 {
            live.insert(b"k", &[height]).unwrap();
            history.snapshot(height.into(), &live);
            roots.push(live.root_hash());
        }
        assert!(history.prove_at(1, b"k").is_none(), "evicted");
        assert!(history.prove_at(4, b"k").is_none(), "never taken");
        for height in 2..=3u8 {
            let proof = history.prove_at(height.into(), b"k").unwrap();
            assert!(proof.verify_member(&roots[usize::from(height)], b"k", &[height]));
        }
    }
}
