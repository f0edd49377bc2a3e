//! Property-based tests: the sealable trie against a `BTreeMap` model,
//! and against the trie that hashed on write (`eager`).

mod eager;

use std::collections::BTreeMap;

use proptest::prelude::*;
use sealable_trie::proof::ProofNode;
use sealable_trie::{Nibbles, Proof, Trie, TrieError, VerifyOutcome};
use sim_crypto::Hash;

use eager::EagerTrie;

/// Operations the model understands.
#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Remove(Vec<u8>),
    Seal(Vec<u8>),
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Small alphabet and length force collisions, shared prefixes and
    // leaf/extension splits.
    proptest::collection::vec(0u8..4, 1..6)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (key_strategy(), proptest::collection::vec(any::<u8>(), 1..20))
            .prop_map(|(k, v)| Op::Insert(k, v)),
        1 => key_strategy().prop_map(Op::Remove),
        1 => key_strategy().prop_map(Op::Seal),
    ]
}

fn hash_strategy() -> impl Strategy<Value = Hash> {
    any::<[u8; 32]>().prop_map(Hash::from_bytes)
}

fn proof_node() -> impl Strategy<Value = ProofNode> {
    let path = || proptest::collection::vec(0u8..16, 0..9).prop_map(Nibbles::from_nibbles);
    prop_oneof![
        (path(), hash_strategy())
            .prop_map(|(path, value_hash)| ProofNode::Leaf { path, value_hash }),
        (path(), hash_strategy()).prop_map(|(path, child)| ProofNode::Extension { path, child }),
        proptest::collection::vec(prop_oneof![Just(None), hash_strategy().prop_map(Some)], 16)
            .prop_map(|slots| ProofNode::Branch { children: core::array::from_fn(|i| slots[i]) }),
    ]
}

/// Applies `op`, ignoring the refusals `matches_model` already pins down.
fn apply(trie: &mut Trie, op: &Op) {
    let _ = match op {
        Op::Insert(key, value) => trie.insert(key, value),
        Op::Remove(key) => trie.remove(key).map(drop),
        Op::Seal(key) => trie.seal(key),
    };
}

/// Checks `prove_at` at every height the oracle holds, over `keys`: the
/// proof must be the very `Proof` the full copy of that height's state
/// gives, and verify against the root recorded there.
fn assert_history_matches(
    trie: &Trie,
    oracle: &[(u64, Trie)],
    keep: usize,
    keys: &[Vec<u8>],
) -> Result<(), TestCaseError> {
    let retained = oracle.len().saturating_sub(keep);
    for (height, _) in &oracle[..retained] {
        prop_assert_eq!(trie.prove_at(*height, &keys[0]), None, "height {} evicted", height);
    }
    for (height, then) in &oracle[retained..] {
        let root = then.root_hash();
        for key in keys {
            let proof = trie.prove_at(*height, key);
            prop_assert_eq!(&proof, &then.prove(key).ok(), "height {} key {:?}", height, key);
            match (proof, then.get(key)) {
                (Some(proof), Ok(Some(value))) => {
                    prop_assert!(proof.verify_member(&root, key, &value));
                }
                (Some(proof), Ok(None)) => prop_assert!(proof.verify_non_member(&root, key)),
                // Sealed at that height: no value to check against.
                (_, Err(_)) => {}
                (None, Ok(_)) => prop_assert!(false, "readable at {} but unprovable", height),
            }
        }
    }
    Ok(())
}

/// One step of a run against the eager oracle: a write, or a read.
#[derive(Clone, Debug)]
enum Step {
    Write(Op),
    /// Inserts (or seals) the 16 one-byte keys `16·high ..= 16·high + 15`:
    /// max-depth leaves under one branch, so sealing the last of them
    /// reclaims the full branch too.
    Block {
        high: u8,
        seal: bool,
    },
    Checkpoint,
    RootHash,
    Prove(Vec<u8>),
    /// A height index (taken modulo the heights so far, plus one never
    /// taken) and a key.
    ProveAt(u64, Vec<u8>),
    /// Goes on with a clone; the original is read once and dropped.
    Clone,
    /// Goes on with the trie serialised and read back (its history is not
    /// state and does not survive).
    SerdeRoundTrip,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Short keys over a small alphabet split leaves and extensions; dense
    // one-byte keys end in max-depth leaves.
    let key = || prop_oneof![key_strategy(), (0u8..32).prop_map(|byte| vec![byte])];
    let value = || proptest::collection::vec(any::<u8>(), 1..20);
    prop_oneof![
        6 => (key(), value()).prop_map(|(k, v)| Step::Write(Op::Insert(k, v))),
        2 => key().prop_map(|k| Step::Write(Op::Remove(k))),
        3 => key().prop_map(|k| Step::Write(Op::Seal(k))),
        1 => (0u8..2, any::<bool>()).prop_map(|(high, seal)| Step::Block { high, seal }),
        1 => Just(Step::Checkpoint),
        1 => Just(Step::RootHash),
        1 => key().prop_map(Step::Prove),
        1 => (any::<u64>(), key()).prop_map(|(at, k)| Step::ProveAt(at, k)),
        1 => Just(Step::Clone),
        1 => Just(Step::SerdeRoundTrip),
    ]
}

/// Everything a read can see agrees with the oracle, and the trie audits.
fn assert_agrees(trie: &Trie, oracle: &EagerTrie) -> Result<(), TestCaseError> {
    prop_assert_eq!(trie.root_hash(), oracle.root_hash());
    prop_assert_eq!(trie.len(), oracle.len());
    prop_assert_eq!(trie.sealed_len(), oracle.sealed_len());
    prop_assert_eq!(trie.stats(), oracle.stats());
    prop_assert!(trie.verify_integrity().is_ok());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hashing on read changes no hash: under arbitrary interleavings of
    /// writes and reads, every read of the trie equals that of the trie
    /// that hashed each node as it wrote it — roots, proofs as bytes,
    /// proofs at checkpointed heights, lengths and storage statistics —
    /// and the trie passes its integrity audit.
    #[test]
    fn hashing_on_read_matches_the_eager_trie(
        steps in proptest::collection::vec(step_strategy(), 1..120),
        keep in 1usize..4,
    ) {
        let mut trie = Trie::new();
        let mut oracle = EagerTrie::default();
        let mut heights = 0u64;
        for step in steps {
            let read = !matches!(step, Step::Write(_) | Step::Block { .. });
            match step {
                Step::Write(op) => {
                    let (got, expected) = match &op {
                        Op::Insert(key, value) => {
                            (trie.insert(key, value).map(|()| None), oracle.insert(key, value).map(|()| None))
                        }
                        Op::Remove(key) => (trie.remove(key), oracle.remove(key)),
                        Op::Seal(key) => (trie.seal(key).map(|()| None), oracle.seal(key).map(|()| None)),
                    };
                    prop_assert_eq!(got, expected, "{:?}", op);
                }
                Step::Block { high, seal } => {
                    for key in (16 * high..16 * high + 16).map(|byte| [byte]) {
                        if seal {
                            prop_assert_eq!(trie.seal(&key), oracle.seal(&key));
                        } else {
                            prop_assert_eq!(trie.insert(&key, b"receipt"), oracle.insert(&key, b"receipt"));
                        }
                    }
                }
                Step::Checkpoint => {
                    heights += 1;
                    trie.checkpoint(heights, keep);
                    oracle.checkpoint(heights, keep);
                }
                Step::RootHash => {}
                Step::Prove(key) => {
                    let bytes = |proof: Result<Proof, TrieError>| proof.map(|p| p.to_bytes());
                    prop_assert_eq!(bytes(trie.prove(&key)), bytes(oracle.prove(&key)));
                }
                Step::ProveAt(at, key) => {
                    let height = at % (heights + 2);
                    let bytes = |proof: Option<Proof>| proof.map(|p| p.to_bytes());
                    prop_assert_eq!(bytes(trie.prove_at(height, &key)), bytes(oracle.prove_at(height, &key)));
                }
                Step::Clone => {
                    let copy = trie.clone();
                    assert_agrees(&trie, &oracle)?;
                    trie = copy;
                }
                Step::SerdeRoundTrip => {
                    trie = serde_json::from_slice(&serde_json::to_vec(&trie).unwrap()).unwrap();
                    oracle.forget_history();
                }
            }
            if read {
                assert_agrees(&trie, &oracle)?;
            }
        }
        assert_agrees(&trie, &oracle)?;
    }

    /// `Trie::prove_at` against the implementation it replaced, kept here
    /// as the oracle: a full `Trie::clone()` per checkpoint. `None` in the
    /// op list is a checkpoint. The key sample is every key the run
    /// touched plus one more, so at each retained height it holds keys
    /// that are live, overwritten since, removed since, sealed since,
    /// sealed before and never present.
    #[test]
    fn prove_at_matches_a_full_clone_per_checkpoint(
        ops in proptest::collection::vec(
            prop_oneof![5 => op_strategy().prop_map(Some), 1 => Just(None)], 1..90),
        keep in 1usize..4,
        probe in key_strategy(),
    ) {
        let mut keys = vec![probe];
        keys.extend(ops.iter().flatten().map(|op| match op {
            Op::Insert(key, _) | Op::Remove(key) | Op::Seal(key) => key.clone(),
        }));
        keys.sort();
        keys.dedup();

        let mut trie = Trie::new();
        let mut oracle: Vec<(u64, Trie)> = Vec::new();
        // Heights start at 1 and skip, so 0 and the gaps are never taken.
        let mut height = 0;
        for op in &ops {
            match op {
                Some(op) => apply(&mut trie, op),
                None => {
                    assert_history_matches(&trie, &oracle, keep, &keys)?;
                    height += 1 + oracle.len() as u64 % 2;
                    oracle.push((height, trie.clone()));
                    trie.checkpoint(height, keep);
                }
            }
        }
        assert_history_matches(&trie, &oracle, keep, &keys)?;
        for never_taken in [0, height + 1] {
            prop_assert_eq!(trie.prove_at(never_taken, &keys[0]), None);
        }
        // History is not state: an un-checkpointed twin ends up identical.
        let mut twin = Trie::new();
        ops.iter().flatten().for_each(|op| apply(&mut twin, op));
        prop_assert_eq!(trie.stats(), twin.stats());
        prop_assert_eq!(trie.root_hash(), twin.root_hash());
    }

    /// The trie agrees with a BTreeMap model under arbitrary interleavings
    /// of insert/remove/seal, with sealed keys tracked separately.
    #[test]
    fn matches_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut trie = Trie::new();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut sealed: Vec<Vec<u8>> = Vec::new();

        for op in ops {
            match op {
                Op::Insert(key, value) => {
                    match trie.insert(&key, &value) {
                        Ok(()) => {
                            prop_assert!(!sealed.contains(&key));
                            model.insert(key, value);
                        }
                        Err(TrieError::Sealed) => {
                            // Either the key itself or a reclaimed region —
                            // the key must not be live in the model.
                            prop_assert!(!model.contains_key(&key));
                        }
                        Err(other) => prop_assert!(false, "unexpected {other:?}"),
                    }
                }
                Op::Remove(key) => {
                    match trie.remove(&key) {
                        Ok(removed) => {
                            prop_assert_eq!(removed, model.remove(&key));
                        }
                        Err(TrieError::Sealed) => {
                            prop_assert!(!model.contains_key(&key));
                        }
                        Err(other) => prop_assert!(false, "unexpected {other:?}"),
                    }
                }
                Op::Seal(key) => {
                    match trie.seal(&key) {
                        Ok(()) => {
                            prop_assert!(model.remove(&key).is_some());
                            sealed.push(key);
                        }
                        Err(TrieError::NotFound) => {
                            prop_assert!(!model.contains_key(&key));
                        }
                        Err(TrieError::Sealed) => {
                            prop_assert!(!model.contains_key(&key));
                        }
                        Err(other) => prop_assert!(false, "unexpected {other:?}"),
                    }
                }
            }
        }

        // Every live model entry must be readable with the right value.
        for (key, value) in &model {
            let got = trie.get(key).unwrap();
            prop_assert_eq!(got.as_deref(), Some(value.as_slice()));
        }
        prop_assert_eq!(trie.len(), model.len());
        // Every sealed key must stay firmly sealed.
        for key in &sealed {
            prop_assert_eq!(trie.get(key), Err(TrieError::Sealed));
        }
    }

    /// Root hash is independent of insertion order (no seals/removes).
    #[test]
    fn root_is_order_independent(
        mut entries in proptest::collection::btree_map(key_strategy(),
            proptest::collection::vec(any::<u8>(), 1..8), 1..30),
        seed in any::<u64>(),
    ) {
        let items: Vec<_> = entries.clone().into_iter().collect();
        let mut forward = Trie::new();
        for (k, v) in &items {
            forward.insert(k, v).unwrap();
        }
        // Deterministic shuffle driven by the seed.
        let mut shuffled = items.clone();
        let mut state = seed;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let mut other = Trie::new();
        for (k, v) in &shuffled {
            other.insert(k, v).unwrap();
        }
        prop_assert_eq!(forward.root_hash(), other.root_hash());
        // And removing an entry returns to the root of the set without it.
        if let Some((k, _)) = items.first() {
            entries.remove(k);
            let mut without = Trie::new();
            for (k2, v2) in &entries {
                without.insert(k2, v2).unwrap();
            }
            forward.remove(k).unwrap();
            prop_assert_eq!(forward.root_hash(), without.root_hash());
        }
    }

    /// Proofs verify for both present and absent keys, and value forgery is
    /// rejected.
    #[test]
    fn proofs_verify(
        entries in proptest::collection::btree_map(key_strategy(),
            proptest::collection::vec(any::<u8>(), 1..8), 1..25),
        probe in key_strategy(),
    ) {
        let mut trie = Trie::new();
        for (k, v) in &entries {
            trie.insert(k, v).unwrap();
        }
        let root = trie.root_hash();
        for (k, v) in &entries {
            let proof = trie.prove(k).unwrap();
            prop_assert!(proof.verify_member(&root, k, v));
            prop_assert!(!proof.verify_member(&root, k, b"forged-value"));
            // Handed off as bytes it is the same proof under the same root.
            let handed = Proof::from_bytes(&proof.to_bytes());
            prop_assert_eq!(handed.as_ref(), Some(&proof));
            prop_assert!(handed.unwrap().verify_member(&root, k, v));
        }
        let proof = trie.prove(&probe).unwrap();
        let handed = Proof::from_bytes(&proof.to_bytes()).unwrap();
        prop_assert_eq!(&handed, &proof);
        match trie.get(&probe).unwrap() {
            Some(v) => prop_assert!(handed.verify_member(&root, &probe, &v)),
            None => prop_assert!(handed.verify_non_member(&root, &probe)),
        }
    }

    /// `Proof::to_bytes` / `from_bytes` are inverse on every spine, real or
    /// not: empty and odd paths, branches of any occupancy, any node order.
    #[test]
    fn proof_bytes_round_trip(nodes in proptest::collection::vec(proof_node(), 0..8)) {
        let proof = Proof::new(nodes);
        let bytes = proof.to_bytes();
        prop_assert_eq!(Proof::from_bytes(&bytes), Some(proof));
        // A last node cut short is refused, not read as a shorter proof.
        if let Some((_, cut)) = bytes.split_last() {
            prop_assert_eq!(Proof::from_bytes(cut), None);
        }
    }

    /// Sealing any subset never changes the root and never affects live
    /// siblings.
    #[test]
    fn sealing_preserves_root_and_siblings(
        entries in proptest::collection::btree_map(key_strategy(),
            proptest::collection::vec(any::<u8>(), 1..8), 2..25),
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 1..10),
    ) {
        let mut trie = Trie::new();
        for (k, v) in &entries {
            trie.insert(k, v).unwrap();
        }
        let root = trie.root_hash();
        let keys: Vec<_> = entries.keys().cloned().collect();
        let mut sealed = Vec::new();
        for pick in picks {
            let key = pick.get(&keys).clone();
            if !sealed.contains(&key) {
                trie.seal(&key).unwrap();
                sealed.push(key);
            }
        }
        prop_assert_eq!(trie.root_hash(), root);
        for (k, v) in &entries {
            if sealed.contains(k) {
                prop_assert_eq!(trie.get(k), Err(TrieError::Sealed));
            } else {
                let got = trie.get(k).unwrap();
                prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
                // Live keys can still be proven against the unchanged root.
                let proof = trie.prove(k).unwrap();
                prop_assert!(proof.verify_member(&root, k, v));
            }
        }
    }

    /// A proof produced for one trie never verifies as Member against the
    /// root of a trie with different contents.
    #[test]
    fn proofs_do_not_transfer(
        entries in proptest::collection::btree_map(key_strategy(),
            proptest::collection::vec(any::<u8>(), 1..8), 1..15),
    ) {
        let mut a = Trie::new();
        for (k, v) in &entries {
            a.insert(k, v).unwrap();
        }
        let mut b = a.clone();
        let (first_key, _) = entries.iter().next().unwrap();
        b.insert(b"extra-key-not-in-a", b"x").unwrap();
        let proof_a = a.prove(first_key).unwrap();
        // Against b's root, a's proof must be Invalid (roots differ).
        prop_assert_eq!(proof_a.verify(&b.root_hash(), first_key), VerifyOutcome::Invalid);
    }
}
