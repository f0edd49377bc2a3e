//! The chain records who voted and signs a header the first time it is
//! read; this file keeps the block production it replaced — every commit
//! signed in full as it is produced — as the oracle, and checks that a
//! header's bytes are the same whenever, however often and in whatever
//! order it is read.
//!
//! The oracle is the old `CounterpartyChain::new` / `produce_block` minus
//! the IBC store (the state root is handed in), telemetry and profiler.

use counterparty_sim::{CounterpartyChain, CounterpartyConfig, CpHeader, CpLightClient};
use ibc_core::{LightClient, ProvableStore};
use profiler::Profiler;
use proptest::prelude::*;
use sim_crypto::rng::SplitMix64;
use sim_crypto::schnorr::{Keypair, PublicKey};
use sim_crypto::{sha256, Hash};

/// Block production as it was: the active set held as keypairs, every
/// participant's signature computed inside `produce_block`.
struct EagerChain {
    validators: Vec<Keypair>,
    candidate_pool: Vec<Keypair>,
    next_set: Option<Vec<Keypair>>,
    height: u64,
    time_ms: u64,
    config: CounterpartyConfig,
    rng: SplitMix64,
    headers: Vec<CpHeader>,
}

impl EagerChain {
    fn new(config: CounterpartyConfig, seed: u64) -> Self {
        let candidate_pool: Vec<Keypair> = (0..config.num_validators as u64 * 2)
            .map(|i| {
                Keypair::from_seed(
                    0xC0DE_0000u64.wrapping_add(seed.wrapping_mul(10_000)).wrapping_add(i),
                )
            })
            .collect();
        let validators = candidate_pool[..config.num_validators].to_vec();
        Self {
            candidate_pool,
            next_set: None,
            validators,
            height: 0,
            time_ms: 0,
            config,
            rng: sim_crypto::rng::seed_stream(seed, "counterparty.blocks"),
            headers: Vec::new(),
        }
    }

    fn produce_block(&mut self, now_ms: u64, app_hash: Hash) -> &CpHeader {
        self.height += 1;
        self.time_ms = now_ms.max(self.time_ms + 1);

        let rotation = self.config.rotation_interval_blocks;
        let next_validators: Option<Vec<(PublicKey, u64)>> =
            if rotation > 0 && self.height.is_multiple_of(rotation) {
                let mut next = Vec::with_capacity(self.config.num_validators);
                let pool = self.candidate_pool.len();
                let start = self.rng.next_below(pool as u64) as usize;
                for i in 0..self.config.num_validators {
                    next.push(self.candidate_pool[(start + i) % pool].clone());
                }
                let set = next.iter().map(|kp| (kp.public(), 10)).collect();
                self.next_set = Some(next);
                Some(set)
            } else {
                None
            };
        let signing = CpHeader::signing_bytes(
            self.height,
            &app_hash,
            self.time_ms,
            next_validators.as_deref(),
        );

        let block_participation =
            (self.config.participation + (self.rng.next_f64() - 0.5) * 0.50).clamp(0.0, 1.0);
        let mut participating: Vec<usize> = (0..self.validators.len())
            .filter(|_| self.rng.next_f64() < block_participation)
            .collect();
        let quorum = self.validators.len() * 2 / 3 + 1;
        let mut idx = 0;
        while participating.len() < quorum {
            if !participating.contains(&idx) {
                participating.push(idx);
            }
            idx += 1;
        }
        participating.sort_unstable();

        let signatures = participating
            .into_iter()
            .map(|i| (self.validators[i].public(), self.validators[i].sign(&signing)))
            .collect();
        let header = CpHeader {
            height: self.height,
            app_hash,
            timestamp_ms: self.time_ms,
            next_validators,
            signatures,
        };
        self.headers.push(header);
        if let Some(next) = self.next_set.take() {
            self.validators = next;
        }
        self.headers.last().expect("just pushed")
    }
}

/// How often `cp.sign` was entered, wherever it nests.
fn sign_calls(profiler: &Profiler) -> u64 {
    profiler.report().entries.iter().filter(|e| e.name == "cp.sign").map(|e| e.calls).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reads interleaved with production — late, repeated, out of order,
    /// rotations after the set that signed has left — return the oracle's
    /// bytes, and each height is signed at most once.
    #[test]
    fn headers_read_in_any_order_are_the_eagerly_signed_bytes(
        seed in any::<u64>(),
        num_validators in 4usize..=124,
        participation in 0.5f64..=1.0,
        rotation_interval_blocks in prop_oneof![Just(0u64), Just(3), Just(7)],
        blocks in 1u64..=60,
        // (after how many blocks, which height), both folded into range.
        reads in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..40),
    ) {
        let config = CounterpartyConfig {
            num_validators,
            participation,
            block_interval_ms: 6_000,
            rotation_interval_blocks,
        };
        let mut chain = CounterpartyChain::new(config, seed);
        let profiler = Profiler::enabled();
        chain.set_profiler(profiler.clone());
        let mut oracle = EagerChain::new(config, seed);
        let genesis_set = chain.validator_set();

        let mut read = std::collections::BTreeSet::new();
        for produced in 1..=blocks {
            // The state moves under some blocks and not under others.
            if produced % 3 != 0 {
                chain.ibc_mut().store_mut().set(&produced.to_le_bytes(), b"v").unwrap();
            }
            let now = produced * 6_000;
            let app_hash = chain.ibc().root();
            let expected = oracle.produce_block(now, app_hash).clone();
            let commit = chain.produce_block(now);
            prop_assert_eq!(commit.height, expected.height);
            prop_assert_eq!(commit.app_hash, expected.app_hash);
            prop_assert_eq!(commit.timestamp_ms, expected.timestamp_ms);
            prop_assert_eq!(&commit.next_validators, &expected.next_validators);
            for (_, which) in reads.iter().filter(|(when, _)| when % blocks + 1 == produced) {
                let height = which % produced + 1;
                read.insert(height);
                prop_assert_eq!(
                    chain.header_at(height).unwrap().encode(),
                    oracle.headers[height as usize - 1].encode(),
                    "height {} read after block {}", height, produced
                );
            }
        }
        prop_assert_eq!(sign_calls(&profiler), read.len() as u64, "one signing per height read");

        // Every height, the never-read ones now two rotations stale, and
        // the whole chain of rotations verifies from the genesis set.
        let mut client = CpLightClient::new(genesis_set);
        for height in 1..=blocks {
            let header = chain.header_at(height).unwrap();
            prop_assert_eq!(&header, &oracle.headers[height as usize - 1]);
            prop_assert_eq!(header.encode(), oracle.headers[height as usize - 1].encode());
            prop_assert_eq!(client.update(&header.encode()).unwrap(), height);
        }
        prop_assert_eq!(chain.latest_header().unwrap(), oracle.headers.last().unwrap().clone());
        prop_assert_eq!(sign_calls(&profiler), blocks);
    }
}

/// Length and SHA-256 of `header_at(h).encode()` as printed by the parent
/// commit (`b1c7a97`, which signed in `produce_block`): the first block, a
/// rotation header and the first block of the rotated-in set. Read newest
/// first, after the set that signed 1 and 200 has left.
#[test]
fn known_answers_from_the_eager_chain() {
    let config =
        CounterpartyConfig { rotation_interval_blocks: 200, ..CounterpartyConfig::default() };
    let mut chain = CounterpartyChain::new(config, 7);
    for i in 1..=201u64 {
        chain.produce_block(i * 6_000);
    }
    for (height, len, digest) in [
        (201, 10_027, "843f1cd2965b11e5fcbf2c349d0a4452956cdd8841d4c9df5b39cf889a730fb0"),
        (200, 14_294, "caa8518f347531b40d926251116f267a87001eb21b0cbd53b041941b8c409cc5"),
        (1, 6_989, "2f7a981db92cdf0fc48b44f9fea85c4c138fad1fc7af63799ba086fcb66f6688"),
    ] {
        let bytes = chain.header_at(height).unwrap().encode();
        assert_eq!(
            (bytes.len(), sha256(&bytes).to_hex().as_str()),
            (len, digest),
            "height {height}"
        );
    }
    assert!(chain.commit_at(200).unwrap().next_validators.is_some());
}

/// The saving cannot silently erode: production signs nothing, metadata
/// reads sign nothing, and a header is signed once however often it is
/// read.
#[test]
fn a_thousand_blocks_and_three_reads_sign_three_headers() {
    let mut chain = CounterpartyChain::new(CounterpartyConfig::default(), 11);
    let profiler = Profiler::enabled();
    chain.set_profiler(profiler.clone());
    for i in 1..=1_000u64 {
        let committed = chain.produce_block(i * 6_000).height;
        assert_eq!(chain.latest_commit().unwrap().height, committed);
        assert!(chain.commit_at(i).unwrap().next_validators.is_none());
    }
    assert_eq!(sign_calls(&profiler), 0);
    let first = chain.header_at(500).unwrap();
    chain.latest_header().unwrap();
    chain.header_at(1).unwrap();
    assert_eq!(sign_calls(&profiler), 3);
    assert_eq!(chain.header_at(500).unwrap(), first);
    chain.header_at(1_000).unwrap();
    assert_eq!(sign_calls(&profiler), 3, "repeated reads are served from the memo");
}
