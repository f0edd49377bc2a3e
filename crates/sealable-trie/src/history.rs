//! Bounded per-height trie history: the proof-at-height service a full
//! node offers relayers.

use std::collections::{HashMap, VecDeque};

use crate::node::{ChildRef, Node};
use crate::store::Ptr;

/// The last `keep` committed states of a trie, by block height.
///
/// A proof generated from live state stops verifying against a block's
/// root as soon as later writes touch the proof path — under sustained
/// traffic, always. A chain therefore checkpoints the state each block
/// commits to, and relayers prove against the checkpoint of the height
/// their light client trusts.
///
/// No state is copied. The trie rewrites by path copy and a [`Ptr`] is
/// never reused, so the state a checkpoint committed to is exactly the
/// live nodes plus the nodes removed or replaced since. A checkpoint is
/// `(height, root, next free Ptr)`; from then on the store hands every
/// outgoing node that predates it (`ptr < next`) to the newest
/// checkpoint's retired set instead of dropping it. Reading `ptr` as of a
/// checkpoint tries the retired sets from that checkpoint forward — the
/// first hit is the node as the checkpoint saw it — and then the live
/// store. Retired nodes are full-node history, not on-chain state: they
/// appear in neither [`crate::StoreStats`] nor the serialised trie.
#[derive(Clone, Debug, Default)]
pub(crate) struct TrieHistory {
    checkpoints: VecDeque<Checkpoint>,
}

#[derive(Clone, Debug)]
struct Checkpoint {
    height: u64,
    root: Option<ChildRef>,
    /// The store's next free `Ptr` when the checkpoint was taken.
    next: Ptr,
    /// Nodes of this checkpoint's state that left the live store before
    /// the following checkpoint, as they were when this one was taken.
    retired: HashMap<Ptr, Node>,
}

impl TrieHistory {
    /// Records the state under `root` as committed at `height`, evicting
    /// the oldest checkpoint (and the nodes only it needed) once more
    /// than `keep` are held.
    pub(crate) fn checkpoint(
        &mut self,
        height: u64,
        root: Option<ChildRef>,
        next: Ptr,
        keep: usize,
    ) {
        self.checkpoints.push_back(Checkpoint { height, root, next, retired: HashMap::new() });
        while self.checkpoints.len() > keep {
            self.checkpoints.pop_front();
        }
    }

    /// Takes a node that just left the live store at `ptr`. Kept only if
    /// the newest checkpoint's state contains it; the first retirement of
    /// a `ptr` in an epoch wins, because that is the node the checkpoint
    /// saw.
    pub(crate) fn retire(&mut self, ptr: Ptr, node: Node) {
        if let Some(newest) = self.checkpoints.back_mut().filter(|c| ptr < c.next) {
            newest.retired.entry(ptr).or_insert(node);
        }
    }

    /// The position of the checkpoint taken at `height` and the root it
    /// committed, or `None` when it was evicted or never taken.
    pub(crate) fn find(&self, height: u64) -> Option<(usize, Option<&ChildRef>)> {
        let index = self.checkpoints.iter().rposition(|c| c.height == height)?;
        Some((index, self.checkpoints[index].root.as_ref()))
    }

    /// The node at `ptr` as checkpoint `index` saw it, if it has left the
    /// live store since.
    pub(crate) fn retired_since(&self, index: usize, ptr: Ptr) -> Option<&Node> {
        self.checkpoints.range(index..).find_map(|c| c.retired.get(&ptr))
    }

    /// Nodes held for history, over all checkpoints.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> usize {
        self.checkpoints.iter().map(|c| c.retired.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::Trie;

    #[test]
    fn proves_at_kept_heights_and_evicts_beyond_the_depth() {
        let mut live = Trie::new();
        let mut roots = vec![live.root_hash()];
        for height in 1..=3u8 {
            live.insert(b"k", &[height]).unwrap();
            live.checkpoint(height.into(), 2);
            roots.push(live.root_hash());
        }
        assert!(live.prove_at(1, b"k").is_none(), "evicted");
        assert!(live.prove_at(4, b"k").is_none(), "never taken");
        for height in 2..=3u8 {
            let proof = live.prove_at(height.into(), b"k").unwrap();
            assert!(proof.verify_member(&roots[usize::from(height)], b"k", &[height]));
        }
    }

    #[test]
    fn a_key_sealed_after_a_height_is_still_provable_at_it() {
        // Dense keys: the seals below reclaim max-depth leaves and the
        // full branch over them, and leave the live trie unable to prove.
        let mut trie = Trie::new();
        for seq in 0..16u64 {
            trie.insert(&seq.to_be_bytes(), b"receipt").unwrap();
        }
        trie.insert(b"long-path", b"skeleton").unwrap();
        trie.checkpoint(1, 8);
        for seq in 0..16u64 {
            trie.seal(&seq.to_be_bytes()).unwrap();
        }
        trie.seal(b"long-path").unwrap();
        assert!(trie.prove(&3u64.to_be_bytes()).is_err());
        let root = trie.root_hash();
        let proof = trie.prove_at(1, &3u64.to_be_bytes()).unwrap();
        assert!(proof.verify_member(&root, &3u64.to_be_bytes(), b"receipt"));
        let proof = trie.prove_at(1, b"long-path").unwrap();
        assert!(proof.verify_member(&root, b"long-path", b"skeleton"));
    }

    #[test]
    fn a_clone_carries_the_history_and_then_diverges() {
        let mut trie = Trie::new();
        trie.insert(b"k", b"1").unwrap();
        trie.checkpoint(1, 2);
        trie.insert(b"k", b"2").unwrap();
        let mut copy = trie.clone();
        copy.checkpoint(2, 2);
        assert_eq!(copy.prove_at(1, b"k"), trie.prove_at(1, b"k"));
        assert!(copy.prove_at(1, b"k").is_some());
        assert!(trie.prove_at(2, b"k").is_none(), "the original never took it");
    }

    /// Rounds of the guest's churn — overwrite a counter, insert
    /// a receipt, seal the previous one — each closed by `checkpoint`.
    /// Returns how many nodes each round wrote.
    fn churn(
        trie: &mut Trie,
        rounds: std::ops::Range<u64>,
        mut checkpoint: impl FnMut(&mut Trie, u64),
    ) -> Vec<u64> {
        let mut written = Vec::new();
        for round in rounds {
            let before = trie.store().allocated();
            trie.insert(b"counter", &round.to_be_bytes()).unwrap();
            trie.insert(&round.to_be_bytes(), b"receipt").unwrap();
            if let Some(previous) = round.checked_sub(1) {
                trie.seal(&previous.to_be_bytes()).unwrap();
            }
            written.push(trie.store().allocated() - before);
            checkpoint(trie, round);
        }
        written
    }

    #[test]
    fn retains_nothing_until_checkpointed_and_one_state_at_most_after_one() {
        let mut trie = Trie::new();
        churn(&mut trie, 0..200, |_, _| {});
        assert_eq!(trie.store().retained(), 0, "never checkpointed");

        let at_checkpoint = trie.stats().node_count;
        trie.checkpoint(1, 8);
        churn(&mut trie, 200..400, |_, _| {});
        assert!(trie.store().retained() > 0);
        assert!(trie.store().retained() <= at_checkpoint, "checkpointed once, never again");
    }

    #[test]
    fn retention_is_bounded_by_the_last_keep_epochs_and_invisible_to_stats() {
        const KEEP: usize = 4;
        let (mut trie, mut twin) = (Trie::new(), Trie::new());
        let written = churn(&mut trie, 0..300, |trie, round| trie.checkpoint(round, KEEP));
        churn(&mut twin, 0..300, |_, _| {});

        // Held: what was retired since the last KEEP checkpoints, however
        // many came before. A round of this churn retires no more than it
        // writes (a rewrite replaces its path node for node, an insert
        // adds a leaf, a seal reclaims one), so those epochs' writes
        // bound it.
        let recent: u64 = written.iter().rev().take(KEEP).sum();
        assert!(trie.store().retained() > 0);
        assert!(
            trie.store().retained() as u64 <= recent,
            "retained {} nodes, last {KEEP} epochs wrote {recent}",
            trie.store().retained()
        );
        assert_eq!(trie.stats(), twin.stats(), "history is not on-chain state");
        assert_eq!(trie.root_hash(), twin.root_hash());
    }
}
