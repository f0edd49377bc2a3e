//! The host chain: slot clock, fee market and block production.

use profiler::Profiler;
use serde::{Deserialize, Serialize};
use sim_crypto::rng::SplitMix64;
use telemetry::{CounterHandle, GaugeHandle, HistogramHandle, Telemetry};

use crate::bank::{Bank, TxOutcome};
use crate::event::Event;
use crate::mempool::Mempool;
use crate::transaction::Transaction;
use crate::types::{HostProfile, Slot, TimeMs};

/// Per-slot compute capacity (Solana's ~48M CU block limit).
pub const SLOT_CU_CAPACITY: u64 = 48_000_000;

/// Parameters of the background-traffic congestion model.
///
/// Congestion consumes slot capacity and raises the market floor for
/// priority fees; it is what stretches the latency tail in Fig. 2/Fig. 4.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CongestionModel {
    /// Mean load in the calm regime.
    pub mean_load: f64,
    /// Half-width of the uniform load fluctuation in the calm regime.
    pub volatility: f64,
    /// Per-slot probability of entering a busy burst.
    pub busy_enter_probability: f64,
    /// Per-slot probability of leaving a busy burst (1/mean burst length).
    pub busy_exit_probability: f64,
    /// Load range during a burst — high enough to exclude base-fee
    /// transactions and raise the priority floor. Bursts are what stretch
    /// the latency tails of Fig. 2 and Fig. 4.
    pub busy_load: (f64, f64),
}

impl Default for CongestionModel {
    fn default() -> Self {
        // Calibrated so that priority-fee transactions usually land within
        // 1–3 slots while base-fee transactions ride out multi-second busy
        // bursts (mean burst ≈ 20 slots ≈ 9 s, ~12 % of slots busy).
        Self {
            mean_load: 0.50,
            volatility: 0.18,
            busy_enter_probability: 0.005,
            busy_exit_probability: 0.05,
            busy_load: (0.75, 0.96),
        }
    }
}

impl CongestionModel {
    /// An always-idle network (every transaction lands next slot).
    pub fn idle() -> Self {
        Self {
            mean_load: 0.0,
            volatility: 0.0,
            busy_enter_probability: 0.0,
            busy_exit_probability: 1.0,
            busy_load: (0.0, 0.0),
        }
    }

    fn sample(&self, rng: &mut SplitMix64, busy: &mut bool) -> f64 {
        if *busy {
            if rng.next_f64() < self.busy_exit_probability {
                *busy = false;
            }
        } else if rng.next_f64() < self.busy_enter_probability {
            *busy = true;
        }
        let load = if *busy {
            self.busy_load.0 + rng.next_f64() * (self.busy_load.1 - self.busy_load.0)
        } else {
            self.mean_load + (rng.next_f64() * 2.0 - 1.0) * self.volatility
        };
        load.clamp(0.0, 0.98)
    }
}

/// An externally injected disturbance of block production, used by fault
/// drills (the `chaos` crate) to model congestion storms and
/// inclusion-failure bursts.
///
/// The default value is inert: block production with a default disturbance
/// is bit-for-bit identical to one without.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct Disturbance {
    /// Overrides the sampled background load while set (a congestion
    /// storm). The congestion model is still sampled — so the main RNG
    /// stream stays aligned with an undisturbed run — and its result is
    /// then replaced.
    pub forced_load: Option<f64>,
    /// Per-transaction probability that a selected transaction fails to
    /// make it into the block and is silently returned to the mempool (an
    /// inclusion-failure burst). Sampled from a dedicated RNG so that a
    /// zero probability leaves the run untouched.
    pub inclusion_failure_probability: f64,
}

/// A produced block.
#[derive(Debug)]
pub struct Block {
    /// Slot number.
    pub slot: Slot,
    /// Wall-clock time at production (ms since genesis).
    pub time_ms: TimeMs,
    /// Sampled background load for this slot.
    pub load: f64,
    /// Executed transactions: (mempool id, outcome).
    pub transactions: Vec<(u64, TxOutcome)>,
}

impl Block {
    /// All events emitted in this block, in execution order.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.transactions.iter().flat_map(|(_, outcome)| &outcome.events)
    }

    /// The outcome of transaction `id`, if it was included in this block.
    pub fn outcome_of(&self, id: u64) -> Option<&TxOutcome> {
        self.transactions.iter().find(|(tid, _)| *tid == id).map(|(_, o)| o)
    }
}

/// The per-slot aggregates [`HostChain::advance_slot`] writes, as handles
/// on the installed sink (rebuilt by [`HostChain::set_telemetry`]).
struct SlotMetrics {
    txs_included: CounterHandle,
    txs_failed: CounterHandle,
    inclusion_failures: CounterHandle,
    fees: CounterHandle,
    compute_units: CounterHandle,
    mempool_depth: GaugeHandle,
    /// The depth `mempool_depth` last wrote, so an unchanged depth is not
    /// written again.
    mempool_depth_written: Option<usize>,
    mempool_depth_histogram: HistogramHandle,
    slot_load: HistogramHandle,
}

impl SlotMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        Self {
            txs_included: telemetry.counter_handle("host.txs.included"),
            txs_failed: telemetry.counter_handle("host.txs.failed"),
            inclusion_failures: telemetry.counter_handle("host.inclusion_failures"),
            fees: telemetry.counter_handle("host.fees.lamports"),
            compute_units: telemetry.counter_handle("host.compute_units"),
            mempool_depth: telemetry.gauge_handle("host.mempool.depth"),
            mempool_depth_written: None,
            mempool_depth_histogram: telemetry.histogram_handle("host.mempool.depth"),
            slot_load: telemetry.histogram_handle("host.slot.load"),
        }
    }
}

/// The simulated host blockchain (Solana-like).
///
/// Off-chain actors submit transactions; the simulation driver calls
/// [`HostChain::advance_slot`] to produce blocks.
///
/// # Examples
///
/// ```
/// use host_sim::{HostChain, CongestionModel};
///
/// let mut chain = HostChain::new(CongestionModel::idle(), 42);
/// assert_eq!(chain.slot(), 0);
/// let block = chain.advance_slot();
/// assert_eq!(block.slot, 1);
/// assert!(chain.now_ms() >= 380);
/// ```
pub struct HostChain {
    bank: Bank,
    mempool: Mempool,
    profile: HostProfile,
    slot: Slot,
    time_ms: TimeMs,
    rng: SplitMix64,
    congestion: CongestionModel,
    busy: bool,
    disturbance: Disturbance,
    /// Dedicated RNG for disturbance sampling, so fault injection never
    /// perturbs the main simulation stream.
    chaos_rng: SplitMix64,
    /// Recent blocks (kept for event polling by off-chain actors).
    blocks: Vec<Block>,
    /// Observability sink (disabled by default; never consumes RNG).
    telemetry: Telemetry,
    /// Handles on `telemetry` for the per-slot aggregates.
    slot_metrics: SlotMetrics,
    /// Wall-clock self-profiler (disabled by default; wall time never
    /// feeds back into simulation state).
    profiler: Profiler,
}

impl HostChain {
    /// Creates a Solana-profile chain at genesis.
    pub fn new(congestion: CongestionModel, seed: u64) -> Self {
        Self::with_profile(HostProfile::SOLANA, congestion, seed)
    }

    /// Creates a chain with an explicit host profile (§VI-D).
    pub fn with_profile(profile: HostProfile, congestion: CongestionModel, seed: u64) -> Self {
        Self {
            bank: Bank::new(),
            mempool: Mempool::new(),
            profile,
            slot: 0,
            time_ms: 0,
            rng: SplitMix64::new(seed),
            busy: false,
            congestion,
            disturbance: Disturbance::default(),
            chaos_rng: sim_crypto::rng::seed_stream(seed, "host.disturbance"),
            blocks: Vec::new(),
            telemetry: Telemetry::disabled(),
            slot_metrics: SlotMetrics::new(&Telemetry::disabled()),
            profiler: Profiler::disabled(),
        }
    }

    /// Installs an observability sink. Per-slot aggregates (mempool depth,
    /// load, fees, compute) flow into its metrics registry; telemetry
    /// never touches the RNG streams, so a recording run stays
    /// byte-identical to a disabled one.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        telemetry
            .register_histogram(
                "host.slot.load",
                &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98],
            )
            .expect("slot-load bounds are strictly ascending");
        self.slot_metrics = SlotMetrics::new(&telemetry);
        self.telemetry = telemetry;
    }

    /// The installed observability sink (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Installs a wall-clock self-profiler. Scopes only measure wall
    /// time — the slot clock, RNG streams and block contents are
    /// untouched, so a profiled run stays byte-identical to a bare one.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Installs (or, with the default value, clears) a production
    /// disturbance. Takes effect from the next slot.
    pub fn set_disturbance(&mut self, disturbance: Disturbance) {
        self.disturbance = disturbance;
    }

    /// The chain's runtime profile.
    pub fn profile(&self) -> &HostProfile {
        &self.profile
    }

    /// The account/program state.
    pub fn bank(&self) -> &Bank {
        &self.bank
    }

    /// Mutable account/program state (bootstrap, airdrops).
    pub fn bank_mut(&mut self) -> &mut Bank {
        &mut self.bank
    }

    /// Current slot (blocks produced so far).
    pub fn slot(&self) -> Slot {
        self.slot
    }

    /// Milliseconds since genesis.
    pub fn now_ms(&self) -> TimeMs {
        self.time_ms
    }

    /// Pending transactions not yet included.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// Queues a transaction; returns its id for tracking inclusion.
    pub fn submit(&mut self, tx: Transaction) -> u64 {
        self.mempool.submit(tx, self.time_ms)
    }

    /// Queues an atomic bundle (Jito-style); returns the member ids.
    pub fn submit_bundle(&mut self, txs: Vec<Transaction>) -> Vec<u64> {
        self.mempool.submit_bundle(txs, self.time_ms)
    }

    /// Produces the next block: advances the clock with jitter, samples
    /// congestion, selects transactions by fee priority and executes them.
    pub fn advance_slot(&mut self) -> &Block {
        self.slot += 1;
        // Slot time with jitter (Solana: ~400–550 ms).
        let jitter = (self.profile.slot_millis * 3 / 8).max(1);
        self.time_ms += self.profile.slot_millis + self.rng.next_below(jitter);
        let mut busy = self.busy;
        let load = self.congestion.sample(&mut self.rng, &mut busy);
        self.busy = busy;
        // A forced load replaces the sample *after* drawing it, keeping the
        // main RNG stream aligned with an undisturbed run.
        let load = match self.disturbance.forced_load {
            Some(forced) => forced.clamp(0.0, 0.98),
            None => load,
        };
        let capacity = ((1.0 - load) * self.profile.slot_compute_capacity as f64) as u64;
        // Priority-fee market floor rises sharply once the network is busy
        // (capped below the ~5 lamport/CU price that §V-A clients pay, so a
        // well-funded priority transaction always lands within a few slots).
        let floor = if load < 0.60 {
            0
        } else {
            let pressure = (load - 0.60) / 0.38;
            (pressure * pressure * 4_000_000.0) as u64
        };
        let include_base = load < 0.70;

        let selected = {
            let _drain = self.profiler.scope("mempool.drain");
            self.mempool.drain_for_slot(capacity, floor, include_base)
        };
        let exec_scope = self.profiler.scope("tx.execute");
        let mut transactions = Vec::with_capacity(selected.len());
        let mut inclusion_failures = 0u64;
        let mut fee_lamports = 0u64;
        let mut compute_units = 0u64;
        let mut failed_txs = 0u64;
        for pending in selected {
            if self.disturbance.inclusion_failure_probability > 0.0
                && self.chaos_rng.next_f64() < self.disturbance.inclusion_failure_probability
            {
                // The transaction misses the block (leader drop, expired
                // blockhash) and waits for a later slot.
                self.mempool.requeue(pending);
                inclusion_failures += 1;
                continue;
            }
            let outcome = self.bank.execute_transaction(&pending.tx, self.slot, self.time_ms);
            fee_lamports += outcome.fee_lamports;
            compute_units += outcome.compute_units;
            if !outcome.is_ok() {
                failed_txs += 1;
            }
            transactions.push((pending.id, outcome));
        }
        drop(exec_scope);
        if self.telemetry.is_recording() {
            let _record = self.profiler.scope("telemetry.record");
            // Per-slot aggregates go to the metrics registry only — a
            // multi-week run produces millions of slots, far too many for
            // the journal.
            let metrics = &mut self.slot_metrics;
            metrics.txs_included.add(transactions.len() as u64);
            metrics.txs_failed.add(failed_txs);
            metrics.inclusion_failures.add(inclusion_failures);
            metrics.fees.add(fee_lamports);
            metrics.compute_units.add(compute_units);
            let depth = self.mempool.len();
            if metrics.mempool_depth_written != Some(depth) {
                metrics.mempool_depth.set(depth as f64);
                metrics.mempool_depth_written = Some(depth);
            }
            metrics.mempool_depth_histogram.observe(depth as f64);
            metrics.slot_load.observe(load);
        }
        self.blocks.push(Block { slot: self.slot, time_ms: self.time_ms, load, transactions });
        self.blocks.last().expect("just pushed")
    }

    /// Blocks produced since `from_slot` (exclusive), for event polling.
    /// Searched from the tip: pollers hold a cursor at or just behind it.
    pub fn blocks_since(&self, from_slot: Slot) -> &[Block] {
        let start = self.blocks.iter().rposition(|b| b.slot <= from_slot).map_or(0, |i| i + 1);
        &self.blocks[start..]
    }

    /// The most recent block, if any.
    pub fn latest_block(&self) -> Option<&Block> {
        self.blocks.last()
    }

    /// Drops old blocks to bound simulation memory, keeping at least the
    /// most recent `keep_last`.
    ///
    /// Pruning is amortised: nothing happens until the buffer holds twice
    /// `keep_last` blocks, then it is trimmed back in one drain. Calling
    /// this every slot is therefore O(1) amortised instead of a
    /// one-element memmove per slot.
    pub fn prune_blocks(&mut self, keep_last: usize) {
        if self.blocks.len() >= keep_last.saturating_mul(2).max(1) {
            self.blocks.drain(..self.blocks.len() - keep_last);
        }
    }
}

impl core::fmt::Debug for HostChain {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HostChain")
            .field("slot", &self.slot)
            .field("time_ms", &self.time_ms)
            .field("mempool", &self.mempool.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{InvokeContext, Program, ProgramError};
    use crate::transaction::{FeePolicy, Instruction};
    use crate::types::Pubkey;

    struct Noop;

    impl Program for Noop {
        fn process_instruction(
            &mut self,
            _ctx: &mut InvokeContext<'_>,
            _data: &[u8],
        ) -> Result<(), ProgramError> {
            Ok(())
        }
    }

    fn chain_with_noop() -> (HostChain, Pubkey, Pubkey) {
        let mut chain = HostChain::new(CongestionModel::idle(), 7);
        let program_id = Pubkey::from_label("noop");
        let payer = Pubkey::from_label("payer");
        chain.bank_mut().register_program(program_id, Box::new(Noop));
        chain.bank_mut().airdrop(payer, 10_000_000_000);
        (chain, program_id, payer)
    }

    fn noop_tx(program_id: Pubkey, payer: Pubkey, policy: FeePolicy) -> Transaction {
        let mut tx = Transaction::build(
            payer,
            1,
            vec![Instruction::new(program_id, vec![], vec![])],
            policy,
        )
        .unwrap();
        tx.compute_budget = 200_000;
        tx
    }

    #[test]
    fn idle_chain_includes_next_slot() {
        let (mut chain, program_id, payer) = chain_with_noop();
        let id = chain.submit(noop_tx(program_id, payer, FeePolicy::BaseOnly));
        let block = chain.advance_slot();
        assert!(block.outcome_of(id).unwrap().is_ok());
    }

    /// The pipelined relayer rests on this: one payer's `BaseOnly`
    /// transactions at one compute budget, submitted in one tick, run in
    /// submission order — as many as a slot admits, the rest in the next —
    /// whatever other classes are submitted between them.
    #[test]
    fn same_class_transactions_run_in_submission_order() {
        for interleaved in [false, true] {
            let (mut chain, program_id, payer) = chain_with_noop();
            let max_cu = chain.profile().max_compute_units;
            let per_slot = (chain.profile().slot_compute_capacity / max_cu) as usize;
            assert_eq!(per_slot, 34, "one Solana block of relayer transactions");
            let at_max_cu = |policy| {
                let mut tx = noop_tx(program_id, payer, policy);
                tx.compute_budget = max_cu;
                tx
            };
            let mut base = Vec::new();
            for i in 0..40 {
                if interleaved && i == 10 {
                    chain.submit(at_max_cu(FeePolicy::Priority { micro_lamports_per_cu: 10 }));
                }
                if interleaved && i == 20 {
                    chain.submit_bundle(vec![at_max_cu(FeePolicy::Bundle { tip_lamports: 5 })]);
                }
                base.push(chain.submit(at_max_cu(FeePolicy::BaseOnly)));
            }
            let mut ran = Vec::new();
            for _ in 0..2 {
                let block = chain.advance_slot();
                let ids = block.transactions.iter().map(|(id, _)| *id);
                ran.push(ids.filter(|id| base.contains(id)).collect::<Vec<_>>());
            }
            let others = if interleaved { 2 } else { 0 };
            assert_eq!(ran[0].len(), per_slot - others, "interleaved {interleaved}");
            assert_eq!(ran.concat(), base, "interleaved {interleaved}: submission order");
            assert_eq!(chain.mempool_len(), 0);
        }
    }

    #[test]
    fn clock_advances_with_jitter_in_range() {
        let mut chain = HostChain::new(CongestionModel::idle(), 1);
        let mut last = 0;
        for _ in 0..100 {
            chain.advance_slot();
            let delta = chain.now_ms() - last;
            assert!((400..=550).contains(&delta), "slot time {delta}");
            last = chain.now_ms();
        }
    }

    #[test]
    fn congested_chain_delays_base_fee_txs() {
        let congestion = CongestionModel {
            mean_load: 0.9,
            volatility: 0.05,
            busy_enter_probability: 0.0,
            busy_exit_probability: 1.0,
            busy_load: (0.9, 0.96),
        };
        let mut chain = HostChain::new(congestion, 3);
        let program_id = Pubkey::from_label("noop");
        let payer = Pubkey::from_label("payer");
        chain.bank_mut().register_program(program_id, Box::new(Noop));
        chain.bank_mut().airdrop(payer, 10_000_000_000);

        let base_id = chain.submit(noop_tx(program_id, payer, FeePolicy::BaseOnly));
        let bundle_ids = chain.submit_bundle(vec![noop_tx(
            program_id,
            payer,
            FeePolicy::Bundle { tip_lamports: 1_000_000 },
        )]);
        let block = chain.advance_slot();
        assert!(block.outcome_of(bundle_ids[0]).is_some(), "bundle lands immediately");
        assert!(block.outcome_of(base_id).is_none(), "base-fee tx waits out congestion");
        assert_eq!(chain.mempool_len(), 1);
    }

    #[test]
    fn blocks_since_returns_new_blocks_only() {
        let (mut chain, _, _) = chain_with_noop();
        chain.advance_slot();
        chain.advance_slot();
        let seen = chain.slot();
        chain.advance_slot();
        let fresh = chain.blocks_since(seen);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].slot, seen + 1);
        assert!(chain.blocks_since(seen + 1).is_empty(), "cursor at the tip");
        assert!(chain.blocks_since(seen + 100).is_empty(), "cursor newer than the tip");
        // A cursor older than the oldest retained block gets all of them.
        for _ in 0..7 {
            chain.advance_slot();
        }
        chain.prune_blocks(3);
        let oldest = chain.blocks_since(0)[0].slot;
        assert!(oldest > seen, "the cursor's block was pruned");
        assert_eq!(chain.blocks_since(seen).len(), chain.blocks_since(0).len());
        assert_eq!(chain.blocks_since(oldest)[0].slot, oldest + 1);
    }

    #[test]
    fn prune_keeps_recent_blocks() {
        let (mut chain, _, _) = chain_with_noop();
        for _ in 0..10 {
            chain.advance_slot();
        }
        chain.prune_blocks(3);
        assert_eq!(chain.blocks_since(0).len(), 3);
        assert_eq!(chain.latest_block().unwrap().slot, 10);
    }

    #[test]
    fn telemetry_does_not_perturb_timeline() {
        let run = |record: bool| {
            let mut chain = HostChain::new(CongestionModel::default(), 11);
            if record {
                chain.set_telemetry(Telemetry::recording());
            }
            (0..200).map(|_| chain.advance_slot().load).collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true), "recording telemetry must not consume RNG");
    }

    #[test]
    fn telemetry_counts_slot_aggregates() {
        let (mut chain, program_id, payer) = chain_with_noop();
        let telemetry = Telemetry::recording();
        chain.set_telemetry(telemetry.clone());
        chain.submit(noop_tx(program_id, payer, FeePolicy::BaseOnly));
        chain.advance_slot();
        assert_eq!(telemetry.counter("host.txs.included"), 1);
        assert!(telemetry.counter("host.fees.lamports") > 0);
        assert_eq!(telemetry.journal_len(), 0, "per-slot aggregates stay out of the journal");
    }

    #[test]
    fn determinism_same_seed_same_timeline() {
        let run = |seed| {
            let mut chain = HostChain::new(CongestionModel::default(), seed);
            (0..50).map(|_| chain.advance_slot().load).collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
