//! The counterparty chain itself.

use ibc_core::client::quorum;
use ibc_core::handler::{HandlerConfig, HostTime, IbcHandler};
use ibc_core::handshake::ChainEnd;
use ibc_core::{ClientId, IbcError, IbcEvent, LightClient};
use profiler::Profiler;
use sealable_trie::Trie;
use sim_crypto::rng::SplitMix64;
use sim_crypto::schnorr::{Keypair, PublicKey};
use telemetry::Telemetry;

use crate::commit::{CpCommit, VoteMask};
use crate::header::CpHeader;
use crate::light_client::CpLightClient;

/// Counterparty chain parameters.
#[derive(Clone, Copy, Debug)]
pub struct CounterpartyConfig {
    /// Number of validators in the (fixed) set.
    pub num_validators: usize,
    /// Probability that a validator participates in a given commit —
    /// commits vary in size, which produces the light-client-update cost
    /// variance of Fig. 5.
    pub participation: f64,
    /// Block interval in milliseconds (Cosmos chains: ~6 s).
    pub block_interval_ms: u64,
    /// Rotate (reshuffle) the validator set every this many blocks
    /// (0 = never). Rotation headers are larger and must be relayed to the
    /// guest so its light client can follow the set.
    pub rotation_interval_blocks: u64,
}

impl Default for CounterpartyConfig {
    fn default() -> Self {
        Self {
            num_validators: 124,
            participation: 0.85,
            block_interval_ms: 6_000,
            rotation_interval_blocks: 0,
        }
    }
}

/// A simulated Cosmos-style chain with native IBC.
///
/// Unlike the host chain, this side has no relevant resource constraints
/// (§V evaluates only the guest's side of the costs), so relayers call the
/// IBC handler directly instead of submitting size-limited transactions.
pub struct CounterpartyChain {
    ibc: IbcHandler<Trie>,
    /// The pool rotations draw from (a superset of the active set).
    candidate_pool: Vec<Keypair>,
    /// The active set is the `config.num_validators` pool entries from
    /// here on, wrapping.
    set_start: usize,
    height: u64,
    time_ms: u64,
    config: CounterpartyConfig,
    rng: SplitMix64,
    /// One record per block; `commits[h - 1]` is height `h`.
    commits: Vec<CpCommit>,
    /// When [`Self::tick`] next checks whether a block is due.
    next_tick_ms: u64,
    /// Events a produced block committed, not yet drained, each with
    /// that block's height: the first that can prove it.
    committed_events: Vec<(IbcEvent, u64)>,
    telemetry: Telemetry,
    /// Wall-clock self-profiler (disabled by default; wall time never
    /// feeds back into simulation state).
    profiler: Profiler,
}

/// How many headers' committed states [`CounterpartyChain::prove_at`]
/// keeps. Covers the gap between a guest-side client
/// update landing and the relayer proving packets at that height, even
/// when several counterparty blocks commit in between.
const PROOF_SNAPSHOT_HISTORY: usize = 32;

/// [`CounterpartyChain::tick`] commits a block at least this often, so
/// peers can prove timeouts against a fresh consensus timestamp.
const KEEPALIVE_MS: u64 = 60_000;

impl CounterpartyChain {
    /// Spins up a chain with `config.num_validators` deterministic
    /// validators.
    pub fn new(config: CounterpartyConfig, seed: u64) -> Self {
        // Wrapping: full 64-bit stream seeds are valid; for the small
        // seeds older callers passed this is the same arithmetic.
        let candidate_pool: Vec<Keypair> = (0..config.num_validators as u64 * 2)
            .map(|i| {
                Keypair::from_seed(
                    0xC0DE_0000u64.wrapping_add(seed.wrapping_mul(10_000)).wrapping_add(i),
                )
            })
            .collect();
        Self {
            candidate_pool,
            set_start: 0,
            // Receipts stay live here: an ordinary chain does not seal.
            ibc: IbcHandler::with_config(
                Trie::new(),
                HandlerConfig { seal_receipts: false, consensus_history: 64 },
            ),
            height: 0,
            time_ms: 0,
            config,
            rng: sim_crypto::rng::seed_stream(seed, "counterparty.blocks"),
            commits: Vec::new(),
            next_tick_ms: 0,
            committed_events: Vec::new(),
            telemetry: Telemetry::disabled(),
            profiler: Profiler::disabled(),
        }
    }

    /// Merkle proof of `key` as of block `height` — the proof-at-height
    /// query a full node answers for relayers. `None` when the height's
    /// checkpoint has been evicted or the key cannot be proven there.
    pub fn prove_at(&self, height: u64, key: &[u8]) -> Option<sealable_trie::Proof> {
        let _prove = self.profiler.scope("cp.prove");
        self.ibc.store().prove_at(height, key)
    }

    /// Installs an observability sink. Counterparty-side packet lifecycle
    /// events join the same traces the guest side writes to, keyed by
    /// `(source_channel, sequence)`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Installs a wall-clock self-profiler. Scopes only measure wall
    /// time — the block clock, RNG streams and headers are untouched, so
    /// a profiled run stays byte-identical to a bare one.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// The validator public keys and their (equal) voting powers, for
    /// initializing a [`crate::CpLightClient`] on the guest side.
    pub fn validator_set(&self) -> Vec<(PublicKey, u64)> {
        self.set_from(self.set_start)
    }

    /// The set of `config.num_validators` starting at `pool[start]`.
    fn set_from(&self, start: usize) -> Vec<(PublicKey, u64)> {
        let pool = &self.candidate_pool;
        (0..self.config.num_validators)
            .map(|i| (pool[(start + i) % pool.len()].public(), 10))
            .collect()
    }

    /// The chain's IBC handler (the "node RPC" of the simulation).
    pub fn ibc(&self) -> &IbcHandler<Trie> {
        &self.ibc
    }

    /// Mutable IBC access for relayers and applications.
    pub fn ibc_mut(&mut self) -> &mut IbcHandler<Trie> {
        &mut self.ibc
    }

    /// Current height.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Current chain time.
    pub fn now_ms(&self) -> u64 {
        self.time_ms
    }

    /// The chain's view of "now" for packet-timeout checks.
    pub fn host_time(&self) -> HostTime {
        HostTime { height: self.height, timestamp_ms: self.time_ms }
    }

    /// What was committed at `height`, if produced: height, root,
    /// timestamp and any announced rotation. Costs no signatures — use it
    /// for everything except relaying the header.
    pub fn commit_at(&self, height: u64) -> Option<&CpCommit> {
        self.commits.get(height.checked_sub(1)? as usize)
    }

    /// The most recent commit.
    pub fn latest_commit(&self) -> Option<&CpCommit> {
        self.commits.last()
    }

    /// The signed header committed at `height`, if produced. The first
    /// read of a height signs it (`cp.sign` in the profiler); later reads
    /// copy the memoised commit.
    pub fn header_at(&self, height: u64) -> Option<CpHeader> {
        Some(self.commit_at(height)?.header(&self.candidate_pool, &self.profiler))
    }

    /// The most recent signed header.
    pub fn latest_header(&self) -> Option<CpHeader> {
        self.header_at(self.height)
    }

    /// The chain's block cadence: once `now_ms` reaches the next check (one
    /// `block_interval_ms` after the previous one), commits a block if the
    /// IBC root moved since the latest commit, the `KEEPALIVE_MS` is due
    /// or nothing is committed yet. A halted chain is simply not ticked.
    pub fn tick(&mut self, now_ms: u64) {
        if now_ms < self.next_tick_ms {
            return;
        }
        self.defer_tick(now_ms);
        let due = self.latest_commit().is_none_or(|commit| {
            commit.app_hash != self.ibc.root() || now_ms >= commit.timestamp_ms + KEEPALIVE_MS
        });
        if due {
            self.produce_block(now_ms);
        }
    }

    /// Holds the next [`Self::tick`] check until one block interval after
    /// `now_ms`.
    pub fn defer_tick(&mut self, now_ms: u64) {
        self.next_tick_ms = now_ms + self.config.block_interval_ms;
    }

    /// Produces the next block at simulation time `now_ms`: commits the
    /// current IBC root with votes from a random ≥⅔ subset of validators,
    /// and sets aside the events emitted so far as provable from it.
    pub fn produce_block(&mut self, now_ms: u64) -> &CpCommit {
        self.height += 1;
        self.time_ms = now_ms.max(self.time_ms + 1);
        self.committed_events.extend(self.ibc.drain_events().into_iter().map(|e| (e, self.height)));
        let app_hash = self.ibc.root();
        {
            // Checkpoint the state this header commits to for prove_at.
            let _snapshot = self.profiler.scope("cp.snapshot");
            self.ibc.store_mut().checkpoint(self.height, PROOF_SNAPSHOT_HISTORY);
        }

        // Epoch boundary: announce a reshuffled validator set, signed by
        // the *current* set (Tendermint-style).
        let rotation = self.config.rotation_interval_blocks;
        let next_start = (rotation > 0 && self.height.is_multiple_of(rotation))
            .then(|| self.rng.next_below(self.candidate_pool.len() as u64) as usize);

        // Sample participants. Per-block participation fluctuates around
        // the configured mean (±0.15), which varies commit sizes — the
        // source of the paper's Fig. 4 σ = 5.8 transactions and the Fig. 5
        // cost spread. Top up to a guaranteed quorum if the draw came up
        // short (Tendermint cannot commit without one).
        let block_participation =
            (self.config.participation + (self.rng.next_f64() - 0.5) * 0.50).clamp(0.0, 1.0);
        let validators = self.config.num_validators;
        let mut votes = VoteMask::new(validators);
        let mut voted = 0;
        for i in 0..validators {
            if self.rng.next_f64() < block_participation {
                voted += usize::from(votes.insert(i));
            }
        }
        let needed = quorum(validators as u64) as usize;
        let mut idx = 0;
        while voted < needed {
            voted += usize::from(votes.insert(idx));
            idx += 1;
        }

        self.commits.push(CpCommit::new(
            self.height,
            app_hash,
            self.time_ms,
            next_start.map(|start| self.set_from(start)),
            self.set_start,
            votes,
        ));
        // The announced set takes over from the next block.
        if let Some(start) = next_start {
            self.set_start = start;
        }
        if self.telemetry.is_recording() {
            // Per-block aggregates only — a multi-week run produces tens
            // of thousands of counterparty blocks.
            self.telemetry.counter_add("cp.blocks", 1);
            self.telemetry.gauge_set("cp.height", self.height as f64);
        }
        self.commits.last().expect("just pushed")
    }

    /// Drains pending IBC events (relayer polling), each with the first
    /// height whose root commits it: the events a produced block set aside
    /// carry its height, those emitted since carry the next.
    pub fn drain_events(&mut self) -> Vec<(IbcEvent, u64)> {
        if self.committed_events.is_empty() && !self.ibc.has_events() {
            return Vec::new();
        }
        let mut events = std::mem::take(&mut self.committed_events);
        let next = self.height + 1;
        events.extend(self.ibc.drain_events().into_iter().map(|event| (event, next)));
        if self.telemetry.is_recording() {
            for (event, _) in &events {
                let Some(step) = event.packet_step() else { continue };
                if let Some(counter) = step.counter {
                    self.telemetry.counter_add(&format!("cp.{counter}"), 1);
                }
                // The trace key needs the packet's *origin* chain.
                let (packet, origin) = (step.packet, if step.sent_here { "cp" } else { "guest" });
                let trace = self.telemetry.trace_for_packet(
                    origin,
                    packet.source_channel.as_str(),
                    packet.sequence,
                );
                let traces: Vec<_> = trace.into_iter().collect();
                let mut fields = step.fields("cp");
                fields.push(("height", self.height.into()));
                self.telemetry.event(self.time_ms, step.name, &traces, &fields);
            }
        }
        events
    }
}

/// A native chain opens links as itself, under whatever error type its
/// peer reports in.
impl<E: From<IbcError>> ChainEnd<E> for CounterpartyChain {
    fn handler(&mut self) -> &mut IbcHandler<Trie> {
        &mut self.ibc
    }

    fn light_client(&self) -> Box<dyn LightClient> {
        Box::new(CpLightClient::new(self.validator_set()))
    }

    fn commit(&mut self, now_ms: u64) -> Result<(u64, Vec<u8>), E> {
        let height = self.produce_block(now_ms).height;
        Ok((height, self.latest_header().expect("just committed").encode()))
    }

    fn accept(&mut self, client: &ClientId, header: &[u8], _now_ms: u64) -> Result<(), E> {
        self.ibc.update_client(client, header)?;
        Ok(())
    }
}

impl core::fmt::Debug for CounterpartyChain {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CounterpartyChain")
            .field("height", &self.height)
            .field("validators", &self.config.num_validators)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produced_headers_verify_in_light_client() {
        let mut chain = CounterpartyChain::new(CounterpartyConfig::default(), 7);
        let mut client = CpLightClient::new(chain.validator_set());
        for i in 1..=5 {
            chain.produce_block(i * 6_000);
            let header = chain.latest_header().unwrap();
            assert_eq!(client.update(&header.encode()).unwrap(), i);
        }
        assert_eq!(client.latest_height(), 5);
    }

    #[test]
    fn commit_sizes_vary_but_always_reach_quorum() {
        let config = CounterpartyConfig {
            num_validators: 124,
            participation: 0.85,
            block_interval_ms: 6_000,
            rotation_interval_blocks: 0,
        };
        let mut chain = CounterpartyChain::new(config, 3);
        let mut sizes = Vec::new();
        for i in 1..=50 {
            chain.produce_block(i * 6_000);
            let header = chain.latest_header().unwrap();
            assert!(header.signatures.len() * 3 > 124 * 2, "quorum every block");
            sizes.push(header.signatures.len());
        }
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max > min, "participation varies commit sizes");
    }

    #[test]
    fn app_hash_tracks_ibc_state() {
        let mut chain = CounterpartyChain::new(CounterpartyConfig::default(), 1);
        let h1 = chain.produce_block(6_000).app_hash;
        ibc_core::ProvableStore::set(chain.ibc_mut().store_mut(), b"k", b"v").unwrap();
        let h2 = chain.produce_block(12_000).app_hash;
        assert_ne!(h1, h2);
    }

    #[test]
    fn rotation_headers_follow_in_the_light_client() {
        let config = CounterpartyConfig {
            num_validators: 12,
            participation: 1.0,
            block_interval_ms: 6_000,
            rotation_interval_blocks: 3,
        };
        let mut chain = CounterpartyChain::new(config, 5);
        let mut client = CpLightClient::new(chain.validator_set());
        // Cross several rotations; every header (including the epoch
        // boundaries) must verify in order.
        for i in 1..=10 {
            let rotates = chain.produce_block(i * 6_000).next_validators.is_some();
            assert_eq!(rotates, i % 3 == 0, "the commit record announces the rotation");
            let header = chain.latest_header().unwrap();
            if i % 3 == 0 {
                assert!(header.next_validators.is_some(), "block {i} rotates");
            }
            client.update(&header.encode()).unwrap();
        }
        assert_eq!(client.latest_height(), 10);
    }

    #[test]
    fn header_lookup_by_height() {
        let mut chain = CounterpartyChain::new(CounterpartyConfig::default(), 1);
        chain.produce_block(6_000);
        chain.produce_block(12_000);
        assert_eq!(chain.header_at(1).unwrap().height, 1);
        assert_eq!(chain.header_at(2).unwrap().height, 2);
        assert!(chain.header_at(0).is_none());
        assert!(chain.header_at(3).is_none());
        assert_eq!(chain.latest_header().unwrap().height, 2);
        assert_eq!(chain.commit_at(1).unwrap().height, 1);
        assert!(chain.commit_at(0).is_none());
        assert!(chain.commit_at(3).is_none());
        assert_eq!(chain.latest_commit().unwrap().height, 2);
        assert!(CounterpartyChain::new(CounterpartyConfig::default(), 1).latest_header().is_none());
    }

    /// Creates a light client on `chain` and stores a key under its id:
    /// one `ClientCreated` event and a moved root.
    fn emit(chain: &mut CounterpartyChain) -> ClientId {
        let client = Box::new(CpLightClient::new(chain.validator_set()));
        let id = chain.ibc_mut().create_client(client);
        let store = chain.ibc_mut().store_mut();
        ibc_core::ProvableStore::set(store, id.as_str().as_bytes(), b"v").unwrap();
        id
    }

    /// The drained `ClientCreated` events with their stamps.
    fn stamps(chain: &mut CounterpartyChain) -> Vec<(ClientId, u64)> {
        chain
            .drain_events()
            .into_iter()
            .map(|(event, stamp)| match event {
                IbcEvent::ClientCreated { client_id } => (client_id, stamp),
                other => panic!("unexpected event {other:?}"),
            })
            .collect()
    }

    #[test]
    fn an_event_is_provable_from_the_block_that_commits_it() {
        let mut chain = CounterpartyChain::new(CounterpartyConfig::default(), 1);
        let before = emit(&mut chain);
        let height = chain.produce_block(6_000).height;
        let after = emit(&mut chain);
        assert_eq!(stamps(&mut chain), [(before, height), (after, height + 1)]);
        assert!(chain.drain_events().is_empty());
    }

    #[test]
    fn two_blocks_between_drains_stamp_each_event_with_its_own_block() {
        let mut chain = CounterpartyChain::new(CounterpartyConfig::default(), 1);
        let first = emit(&mut chain);
        chain.produce_block(6_000);
        let second = emit(&mut chain);
        chain.produce_block(12_000);
        assert_eq!(stamps(&mut chain), [(first, 1), (second, 2)]);
    }

    #[test]
    fn the_first_tick_commits() {
        let mut chain = CounterpartyChain::new(CounterpartyConfig::default(), 1);
        chain.tick(0);
        assert_eq!(chain.height(), 1);
    }

    #[test]
    fn tick_skips_an_unchanged_root_until_the_keepalive() {
        let mut chain = CounterpartyChain::new(CounterpartyConfig::default(), 1);
        let interval = chain.config.block_interval_ms;
        chain.tick(interval);
        for now in (2 * interval..interval + KEEPALIVE_MS).step_by(interval as usize) {
            chain.tick(now);
            assert_eq!(chain.height(), 1, "no keep-alive at {now} ms");
        }
        chain.tick(interval + KEEPALIVE_MS);
        assert_eq!(chain.height(), 2);
        assert_eq!(chain.latest_commit().unwrap().timestamp_ms, interval + KEEPALIVE_MS);
    }

    #[test]
    fn tick_commits_a_changed_root_only_at_the_cadence() {
        let mut chain = CounterpartyChain::new(CounterpartyConfig::default(), 1);
        let interval = chain.config.block_interval_ms;
        chain.tick(interval);
        let client = emit(&mut chain);
        chain.tick(2 * interval - 1);
        assert_eq!(chain.height(), 1, "the root moved, but the next check is not due");
        chain.tick(2 * interval);
        assert_eq!(chain.height(), 2);
        assert_eq!(stamps(&mut chain), [(client, 2)]);
    }
}
