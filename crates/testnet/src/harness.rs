//! The testnet harness.
//!
//! Wires together a host chain, the guest contract (as a host program),
//! the counterparty chain, a relayer, 24 validator actors and a packet
//! workload, then advances host slots one by one on one clock,
//! [`Testnet::run_for`]. Validator signatures and traffic arrivals are
//! timed events, but each fires at the first slot at or after its
//! instant; no stretch of slots is skipped. All the paper's measurements
//! fall out of one run.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use chaos::{ChaosController, CheckContext, Fault, InvariantSuite, InvariantViolation};
use counterparty_sim::CounterpartyChain;
use guest_chain::{
    GuestBlock, GuestContract, GuestEvent, GuestInstruction, GuestOp, GuestProgram, SignedVote,
};
use host_sim::{rent, FeePolicy, HostChain, Instruction, Pubkey, Transaction};
use ibc_core::channel::Timeout;
use monitor::{AlertRecord, Monitor};
use profiler::{ProfileReport, Profiler};
use relayer::{connect_chains, Endpoints, Relayer};
use sim_crypto::rng::{seed_stream, SplitMix64};
use sim_crypto::schnorr::Keypair;
use telemetry::{DeliveryAccounting, GaugeHandle, RunReport, Telemetry};
use workload::{Arrival, Direction, EventQueue, TrafficGenerator};

use crate::config::{TelemetryMode, TestnetConfig};
use crate::metrics::{SendRecord, SignRecord};

/// Account names used by the harness.
const GUEST_PROGRAM: &str = "guest-program";
const GUEST_VAULT: &str = "guest-vault";
const DEPLOYER: &str = "deployer";
const CLIENT_PAYER: &str = "client-payer";
const RELAYER_PAYER: &str = "relayer-payer";

/// The ledger account sending outbound transfers from the guest side.
pub const GUEST_USER: &str = "9xQeWvG816bUx9EPjHmaT23yvVM2ZWbrrpZb9PusVFin";
/// The ledger account sending inbound transfers from the counterparty.
pub const CP_USER: &str =
    "pica1w508d6qejxtdg4y5r3zarvary0c5xw7kw508d6qejxtdg4y5r3zarvary0c5xw7k3k4mq2";
/// The native denomination escrowed on the guest side.
pub const GUEST_DENOM: &str = "wsol";
/// The native denomination escrowed on the counterparty side.
pub const CP_DENOM: &str = "pica";
/// How long every workload transfer stays valid after it is sent.
const TRANSFER_TIMEOUT_MS: u64 = 24 * 60 * 60 * 1_000;
/// Log-normal shape of every validator's signing latency around its
/// [`ValidatorProfile::latency_median_ms`](crate::ValidatorProfile).
const SIGN_LATENCY_SIGMA: f64 = 0.45;

#[derive(Debug)]
enum Action {
    /// A validator's signature lands at this time.
    Sign { validator: usize, height: u64, block_ms: u64 },
    /// If the block is still unfinalised, every active validator signs.
    SafetyNet { height: u64, block_ms: u64 },
}

/// A submitted host transaction whose outcome the harness records.
enum Tracked {
    /// A validator's signature over the guest block cut at `block_ms`.
    Sign { validator: usize, height: u64, block_ms: u64 },
    /// A client transfer; the submit instant feeds the retroactive
    /// `packet.submitted` milestone and the mempool-wait stage of the
    /// causal trace graph.
    Send { used_bundle: bool, submitted_ms: u64 },
    /// A fisherman's misbehaviour report.
    Report,
}

/// A running guest-blockchain deployment.
pub struct Testnet {
    /// The simulated host chain (Solana-like).
    pub host: HostChain,
    /// The counterparty chain (Picasso-like).
    pub cp: CounterpartyChain,
    /// Shared handle to the guest contract.
    pub contract: Rc<RefCell<GuestContract>>,
    /// The relayer.
    pub relayer: Relayer,
    /// Extra relayers added with [`Testnet::add_relayer`], ticked right
    /// after the primary inside [`Testnet::step`]. Empty by default, so a
    /// single-relayer run is bit-identical to the seed harness.
    pub extra_relayers: Vec<Relayer>,
    /// End-to-end send measurements (Fig. 2 / Fig. 3).
    pub send_records: Vec<SendRecord>,
    /// Validator signature measurements (Table I).
    pub sign_records: Vec<SignRecord>,
    config: TestnetConfig,
    keypairs: Vec<Keypair>,
    endpoints: Endpoints,
    rng: SplitMix64,
    /// Timed actions (validator signatures, safety nets), popped in
    /// `(time, scheduling order)` — the discrete-event core.
    schedule: EventQueue<Action>,
    /// Heavy-traffic generator (`None`: the legacy two-stream Poisson
    /// workload below drives arrivals).
    traffic: Option<TrafficGenerator>,
    /// Generated arrivals rejected before submission (zero-amount draws
    /// from broke users) — one of the per-reason delivery-accounting
    /// buckets, so `generated - delivered` always decomposes.
    rejected_broke: u64,
    next_outbound_ms: u64,
    next_inbound_ms: u64,
    program_id: Pubkey,
    client_payer: Pubkey,
    validator_payers: Vec<Pubkey>,
    /// By transaction id, until the transaction executes.
    tracked_txs: HashMap<u64, Tracked>,
    submitted_signs: HashMap<u64, HashSet<usize>>,
    outbound_counter: u64,
    fisherman_payer: Pubkey,
    /// Off-chain vote gossip the fisherman watches (§III-C).
    gossip: Vec<SignedVote>,
    /// Misbehaviour reports the fisherman submitted.
    pub fisherman_reports: usize,
    /// Scheduled fault injection (inert when the plan is empty).
    chaos: ChaosController,
    /// What the step last read from `chaos`, kept until the plan's next
    /// window edge.
    chaos_reads: ChaosReads,
    /// Cross-chain safety audit, run at every finalised guest block.
    invariants: InvariantSuite,
    /// Next periodic audit (so a stalled chain still flags orphans).
    next_audit_ms: u64,
    /// The run's shared observability sink (every component holds a clone).
    telemetry: Telemetry,
    /// Wall-clock self-profiler (strict no-op unless `config.profile`;
    /// wall time never feeds back into simulation state).
    profiler: Profiler,
    /// Per-shape traffic counter names, formatted once at build time so
    /// the per-arrival hot path never allocates a metric name.
    traffic_counters: Option<TrafficCounterNames>,
    /// Handles on `telemetry` for the gauges every step flushes.
    step_gauges: StepGauges,
    /// Online health monitor (`None` when disabled in the config).
    monitor: Option<Monitor>,
}

/// The harness-level gauges [`Testnet::step`] flushes for the monitor.
/// A source behind a change stamp is re-read only when its stamp moved,
/// and a gauge is written only when its value changed.
struct StepGauges {
    relayer_backlog: StepGauge,
    guest_head: StepGauge,
    cp_head: StepGauge,
    guest_client_on_cp: StepGauge,
    cp_client_on_guest: StepGauge,
    payer_balance: StepGauge,
    /// The host bank's stamp at the last read of the guest head, the
    /// guest's client of the counterparty and the payer balance. After
    /// bootstrap the guest contract changes only inside the bank's
    /// transactions, so the stamp guards it too.
    bank_read: Option<u64>,
    /// The counterparty handler's stamp at the last read of its client of
    /// the guest.
    cp_ibc_read: Option<u64>,
}

impl StepGauges {
    fn new(telemetry: &Telemetry) -> Self {
        Self {
            relayer_backlog: StepGauge::new(telemetry, "relayer.backlog"),
            guest_head: StepGauge::new(telemetry, "guest.head"),
            cp_head: StepGauge::new(telemetry, "cp.head"),
            guest_client_on_cp: StepGauge::new(telemetry, "client.guest_on_cp"),
            cp_client_on_guest: StepGauge::new(telemetry, "client.cp_on_guest"),
            payer_balance: StepGauge::new(telemetry, "relayer.payer.balance"),
            bank_read: None,
            cp_ibc_read: None,
        }
    }
}

/// A gauge handle that remembers the value it last wrote and skips
/// rewriting it, which the registry would take as a no-op anyway.
struct StepGauge {
    handle: GaugeHandle,
    written: Option<u64>,
}

impl StepGauge {
    fn new(telemetry: &Telemetry, name: &str) -> Self {
        Self { handle: telemetry.gauge_handle(name), written: None }
    }

    /// Whether `value` differs from the last write, noting it as written.
    fn changes_to(&mut self, value: f64) -> bool {
        self.written.replace(value.to_bits()) != Some(value.to_bits())
    }

    fn set(&mut self, value: f64) {
        if self.changes_to(value) {
            self.handle.set(value);
        }
    }

    fn set_at(&mut self, at_ms: u64, value: f64) {
        if self.changes_to(value) {
            self.handle.set_at(at_ms, value);
        }
    }
}

/// What the step last read from the chaos plan. Nothing the plan decides
/// changes between two of its window edges, so each half is re-read only
/// once the clock reaches the next edge after its last read.
#[derive(Default)]
struct ChaosReads {
    /// Until when the host disturbance and the fired one-shots, read at
    /// the start of a step, hold.
    host_until: u64,
    /// Until when the halts and the relayer's chunk faults, read after the
    /// host block, hold.
    link_until: u64,
    relayer_halted: bool,
    cp_halted: bool,
}

/// Pre-formatted per-shape traffic metric names
/// (`traffic.<shape>.outbound` etc.), cached at build time.
struct TrafficCounterNames {
    outbound: String,
    inbound: String,
    volume: String,
}

impl Testnet {
    /// Boots a full deployment: host accounts, guest program with the
    /// paper's 10 MiB state account, counterparty chain, IBC handshake and
    /// prefunded users.
    pub fn build(config: TestnetConfig) -> Self {
        // One shared sink; every component records into the same ordered
        // journal, which is what lets a packet's trace cross chains.
        let telemetry = match config.telemetry {
            TelemetryMode::Full => Telemetry::recording(),
            TelemetryMode::Disabled => Telemetry::disabled(),
        };
        // One shared profiler: component-internal scopes nest under the
        // harness's per-phase scopes, giving the hierarchical attribution.
        let profiler = if config.profile { Profiler::enabled() } else { Profiler::disabled() };
        // Send-to-finality latency (Fig. 2's x-axis, the deployment's
        // headline health signal). Roughly geometric bounds from seconds
        // (the small profile's backstopped finality) to hours (the paper
        // profile's on-demand block gaps), so the latency-regression
        // detector sees multi-bucket movement on a real stall.
        telemetry
            .register_histogram(
                "send.finality_ms",
                &[
                    2_500.0,
                    5_000.0,
                    10_000.0,
                    15_000.0,
                    30_000.0,
                    60_000.0,
                    120_000.0,
                    300_000.0,
                    600_000.0,
                    1_800_000.0,
                    3_600_000.0,
                    7_200_000.0,
                ],
            )
            .expect("sorted bounds");
        let mut host = HostChain::with_profile(config.host_profile, config.congestion, config.seed);
        host.set_telemetry(telemetry.clone());
        host.set_profiler(profiler.clone());
        let program_id = Pubkey::from_label(GUEST_PROGRAM);
        let vault = Pubkey::from_label(GUEST_VAULT);
        let deployer = Pubkey::from_label(DEPLOYER);
        let client_payer = Pubkey::from_label(CLIENT_PAYER);
        let relayer_payer = Pubkey::from_label(RELAYER_PAYER);
        // Generous balances; fees are measured, not constrained.
        host.bank_mut().airdrop(deployer, 500 * host_sim::LAMPORTS_PER_SOL);
        host.bank_mut().airdrop(client_payer, 500 * host_sim::LAMPORTS_PER_SOL);
        host.bank_mut().airdrop(relayer_payer, 500 * host_sim::LAMPORTS_PER_SOL);
        host.bank_mut().airdrop(vault, 1);

        // Validator keys and their (funded) fee payers.
        let keypairs: Vec<Keypair> =
            (0..config.validators.len() as u64).map(|i| Keypair::from_seed(0xA11CE + i)).collect();
        let validator_payers: Vec<Pubkey> = (0..config.validators.len())
            .map(|i| {
                let payer = Pubkey::from_label(&format!("validator-payer-{i}"));
                host.bank_mut().airdrop(payer, 100 * host_sim::LAMPORTS_PER_SOL);
                payer
            })
            .collect();

        // Deploy the guest contract with the configured validator set.
        let genesis_validators = keypairs
            .iter()
            .zip(&config.validators)
            .map(|(kp, profile)| (kp.public(), profile.stake))
            .collect();
        let contract =
            Rc::new(RefCell::new(GuestContract::new(config.guest, genesis_validators, 0, 0)));
        let mut program = GuestProgram::new(program_id, vault, contract.clone());
        program.set_telemetry(telemetry.clone());
        host.bank_mut().register_program(program_id, Box::new(program));
        // The paper's 10 MiB state account (§V-D): rent-exempt deposit paid
        // by the deployer.
        host.bank_mut()
            .allocate_account(
                &deployer,
                Pubkey::from_label("guest-state"),
                program_id,
                host_sim::MAX_ACCOUNT_SIZE,
            )
            .expect("deployer can fund the state account");
        debug_assert!(rent::deposit_usd(host_sim::MAX_ACCOUNT_SIZE) > 14_000.0);

        // Counterparty chain + the one-time IBC handshake.
        let cp_seed = seed_stream(config.seed, "testnet.counterparty").next_u64();
        let mut cp = CounterpartyChain::new(config.counterparty, cp_seed);
        cp.set_telemetry(telemetry.clone());
        cp.set_profiler(profiler.clone());
        let mut clock = 0u64;
        let mut height = 0u64;
        let endpoints = connect_chains(&contract, &mut cp, &keypairs, &mut clock, &mut height)
            .expect("bootstrap handshake");

        // Prefund transfer users on both ledgers.
        {
            let mut guard = contract.borrow_mut();
            let module =
                guard.ibc_mut().module_mut(&endpoints.port).expect("transfer module bound");
            module.ics20_mut().expect("ICS-20 ledger").mint(GUEST_USER, GUEST_DENOM, u128::MAX / 4);
        }
        {
            let module = cp.ibc_mut().module_mut(&endpoints.port).expect("transfer module bound");
            module.ics20_mut().expect("ICS-20 ledger").mint(CP_USER, CP_DENOM, u128::MAX / 4);
        }

        let fisherman_payer = Pubkey::from_label("fisherman-payer");
        host.bank_mut().airdrop(fisherman_payer, 100 * host_sim::LAMPORTS_PER_SOL);
        let mut relayer =
            Relayer::new(config.relayer, relayer_payer, program_id, endpoints.clone());
        relayer.set_telemetry(telemetry.clone());
        relayer.set_profiler(profiler.clone());
        let chaos = ChaosController::new(config.chaos.clone());
        let invariant_config = config.invariants;
        let mut invariants = InvariantSuite::new(invariant_config);
        invariants.set_telemetry(telemetry.clone());
        let mut rng = seed_stream(config.seed, "testnet.workload");
        let first_out = Self::sample_exp(&mut rng, config.workload.outbound_mean_gap_ms);
        let first_in = Self::sample_exp(&mut rng, config.workload.inbound_mean_gap_ms);
        let monitor =
            config.monitor.enabled.then(|| Monitor::standard(&telemetry, config.monitor.clone()));

        // Heavy-traffic mode: a seeded user population replaces the two
        // Poisson streams. Every user gets a funded ledger account on both
        // sides (the population mirrors the balances for amount clamping),
        // and the fee payer is topped up for populations that send tens of
        // thousands of paid transfers.
        let traffic = config.traffic.as_ref().map(|traffic_config| {
            let generator = TrafficGenerator::new(traffic_config.clone(), config.seed);
            host.bank_mut().airdrop(client_payer, 1_000_000 * host_sim::LAMPORTS_PER_SOL);
            let mut guard = contract.borrow_mut();
            for (ibc, denom) in [(guard.ibc_mut(), GUEST_DENOM), (cp.ibc_mut(), CP_DENOM)] {
                let module = ibc.module_mut(&endpoints.port).expect("transfer module bound");
                let ledger = module.ics20_mut().expect("ICS-20 ledger");
                for user in 0..generator.config().users {
                    let name = generator.population().name(user);
                    ledger.mint(&name, denom, generator.config().initial_balance);
                }
            }
            generator
        });
        let traffic_counters = config.traffic.as_ref().map(|t| {
            let shape = t.shape_label();
            TrafficCounterNames {
                outbound: format!("traffic.{shape}.outbound"),
                inbound: format!("traffic.{shape}.inbound"),
                volume: format!("traffic.{shape}.volume"),
            }
        });
        Self {
            host,
            cp,
            contract,
            relayer,
            extra_relayers: Vec::new(),
            send_records: Vec::new(),
            sign_records: Vec::new(),
            config,
            keypairs,
            endpoints,
            rng,
            schedule: EventQueue::new(),
            traffic,
            rejected_broke: 0,
            next_outbound_ms: first_out,
            next_inbound_ms: first_in,
            program_id,
            client_payer,
            validator_payers,
            tracked_txs: HashMap::new(),
            submitted_signs: HashMap::new(),
            outbound_counter: 0,
            fisherman_payer,
            gossip: Vec::new(),
            fisherman_reports: 0,
            chaos,
            chaos_reads: ChaosReads::default(),
            invariants,
            next_audit_ms: 60_000,
            step_gauges: StepGauges::new(&telemetry),
            telemetry,
            profiler,
            traffic_counters,
            monitor,
        }
    }

    /// The configuration the deployment was built from.
    pub fn config(&self) -> &TestnetConfig {
        &self.config
    }

    /// The run's shared telemetry sink.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The hierarchical wall-clock profile collected so far (empty when
    /// profiling is disabled).
    pub fn profile_report(&self) -> ProfileReport {
        self.profiler.report()
    }

    /// Every alert the monitor fired so far (empty when monitoring is
    /// disabled).
    pub fn alert_records(&self) -> &[AlertRecord] {
        self.monitor.as_ref().map(|m| m.alert_records()).unwrap_or(&[])
    }

    /// Aggregates the telemetry collected so far into a structured run
    /// report (packet lifecycles, metrics snapshot, linked violations),
    /// with the delivery ledger attached in heavy-traffic mode.
    pub fn run_report(&self, scenario: &str) -> RunReport {
        let mut report = self.telemetry.run_report(scenario, self.config.seed, self.host.now_ms());
        report.delivery = self.delivery_accounting();
        report
    }

    /// Per-reason ledger for the heavy-traffic workload, so that
    /// `generated - delivered` always decomposes into named buckets:
    /// rejected at the generator (broke users), still queued short of an
    /// IBC send (buffered draw, host mempool, staging), timed out,
    /// error-acked, or stranded mid-flight (sent but neither acked nor
    /// timed out yet). `None` in legacy-workload mode, where no generator
    /// ledger exists.
    pub fn delivery_accounting(&self) -> Option<DeliveryAccounting> {
        let generated = self.traffic.as_ref()?.generated();
        let rejected = self.rejected_broke;
        let sent = self.telemetry.counter("guest.packets.sent")
            + self.telemetry.counter("cp.packets.sent");
        let acked = self.telemetry.counter("guest.packets.acked")
            + self.telemetry.counter("cp.packets.acked");
        let timed_out = self.telemetry.counter("guest.packets.timed_out")
            + self.telemetry.counter("cp.packets.timed_out");
        let error_acked =
            self.telemetry.counter("guest.acks.error") + self.telemetry.counter("cp.acks.error");
        Some(DeliveryAccounting {
            generated,
            delivered: acked.saturating_sub(error_acked),
            still_queued: generated.saturating_sub(rejected + sent),
            timed_out,
            error_acked,
            stranded: sent.saturating_sub(acked + timed_out),
            rejected,
        })
    }

    /// The established link's identifiers.
    pub fn endpoints(&self) -> &Endpoints {
        &self.endpoints
    }

    /// Adds an extra relayer to the deployment and returns its index in
    /// [`Testnet::extra_relayers`].
    ///
    /// The relayer gets its own funded fee payer and the same
    /// configuration, endpoints and telemetry sink as the primary; it is
    /// ticked inside [`Testnet::step`] right after the primary (and obeys
    /// the same chaos relayer-halt windows). Duplicate deliveries between
    /// competing relayers are absorbed by the IBC handlers' replay
    /// protection, exactly as on a real link.
    pub fn add_relayer(&mut self) -> usize {
        let index = self.extra_relayers.len();
        let payer = Pubkey::from_label(&format!("extra-relayer-payer-{index}"));
        self.host.bank_mut().airdrop(payer, 500 * host_sim::LAMPORTS_PER_SOL);
        let mut relayer =
            Relayer::new(self.config.relayer, payer, self.program_id, self.endpoints.clone());
        relayer.set_telemetry(self.telemetry.clone());
        relayer.set_profiler(self.profiler.clone());
        self.extra_relayers.push(relayer);
        index
    }

    /// Runs the simulation for `duration_ms` of simulated time, one host
    /// slot per [`Testnet::step`]: the testnet's only clock. Every slot
    /// draws its host jitter and congestion samples, and every deadline
    /// (the counterparty's 3-s check, the guest's Δ, the 60-s audit) is
    /// met at the first slot at or past it. An idle slot is cheap, so a
    /// quiet stretch is polled, not jumped.
    pub fn run_for(&mut self, duration_ms: u64) {
        let deadline = self.host.now_ms() + duration_ms;
        while self.host.now_ms() < deadline {
            self.step();
        }
    }

    /// [`Testnet::run_for`] under its old name, kept only because the
    /// frozen `benchmark/` crate still calls it; the next change to
    /// `benchmark/` deletes it.
    #[doc(hidden)]
    pub fn run_heavy_for(&mut self, duration_ms: u64) {
        self.run_for(duration_ms)
    }

    /// The heavy-traffic generator, when the config enables one.
    pub fn traffic(&self) -> Option<&TrafficGenerator> {
        self.traffic.as_ref()
    }

    /// Current host mempool depth (benchmarks sample this to report
    /// queue-depth percentiles under load).
    pub fn host_mempool_len(&self) -> usize {
        self.host.mempool_len()
    }

    /// Violations detected by the invariant suite so far.
    pub fn invariant_violations(&self) -> &[InvariantViolation] {
        self.invariants.violations()
    }

    /// Advances exactly one host slot.
    pub fn step(&mut self) {
        let _step = self.profiler.scope("step");
        // 0. Point-in-time fault injection for this slot, re-read only at
        // the plan's window edges. Skipped entirely for an empty plan,
        // keeping the baseline untouched.
        let at = self.host.now_ms();
        if !self.chaos.is_empty() && at >= self.chaos_reads.host_until {
            let _chaos = self.profiler.scope("chaos");
            self.host.set_disturbance(self.chaos.host_disturbance(at));
            for fault in self.chaos.take_due_one_shots(at) {
                self.apply_one_shot(fault);
            }
            self.chaos_reads.host_until = self.chaos.next_boundary_after(at);
        }

        // 1. Produce the next host block and observe it.
        let (now, sign_results, send_results, guest_events, fisherman_fees) = {
            let _host_block = self.profiler.scope("host.block");
            let block = self.host.advance_slot();
            let now = block.time_ms;
            let mut sign_results = Vec::new();
            let mut send_results = Vec::new();
            let mut fisherman_fees = 0u64;
            // `block.events` is the transactions' events in order; walking
            // them per transaction decodes each guest event once, for the
            // reactions below and for the sequence a tracked send was given.
            let mut guest_events = Vec::new();
            for (tx_id, outcome) in &block.transactions {
                let emitted_from = guest_events.len();
                guest_events.extend(
                    outcome
                        .events
                        .iter()
                        .filter(|event| event.program_id == self.program_id)
                        .filter_map(|event| event.payload_as::<GuestEvent>()),
                );
                match self.tracked_txs.remove(tx_id) {
                    Some(Tracked::Sign { validator, height, block_ms }) => {
                        let fee = outcome.fee_lamports;
                        sign_results.push((validator, height, block_ms, outcome.is_ok(), fee));
                    }
                    Some(Tracked::Report) => fisherman_fees += outcome.fee_lamports,
                    Some(Tracked::Send { used_bundle, submitted_ms }) => {
                        let sequence =
                            guest_events[emitted_from..].iter().find_map(|event| match event {
                                GuestEvent::Ibc(ibc_core::IbcEvent::SendPacket { packet }) => {
                                    Some(packet.sequence)
                                }
                                _ => None,
                            });
                        let fee = outcome.fee_lamports;
                        send_results.push((*tx_id, used_bundle, submitted_ms, sequence, fee));
                    }
                    None => {}
                }
            }
            (now, sign_results, send_results, guest_events, fisherman_fees)
        };

        // 2. Resolve tracked transactions.
        let resolve_scope = self.profiler.scope("resolve.tx");
        if fisherman_fees > 0 {
            self.telemetry.counter_add("fees.fisherman", fisherman_fees);
        }
        for (validator, height, block_ms, ok, fee) in sign_results {
            self.telemetry.counter_add("fees.validator", fee);
            if ok {
                self.sign_records.push(SignRecord {
                    validator,
                    height,
                    block_ms,
                    signed_ms: now,
                    fee_lamports: fee,
                });
            }
        }
        for (tx_id, used_bundle, submitted_ms, sequence, fee) in send_results {
            self.telemetry.counter_add("fees.client", fee);
            if let Some(sequence) = sequence {
                // The sequence is only knowable once the tx commits, so the
                // submit milestone is emitted retroactively, stamped with
                // the submit instant: the causal graph's mempool-wait stage
                // spans [packet.submitted, packet.send].
                if let Some(trace) = self.telemetry.trace_for_packet(
                    "guest",
                    self.endpoints.guest_channel.as_str(),
                    sequence,
                ) {
                    self.telemetry.event(
                        submitted_ms,
                        telemetry::names::PACKET_SUBMITTED,
                        &[trace],
                        &[("tx_id", tx_id.into()), ("bundle", used_bundle.into())],
                    );
                    self.telemetry
                        .observe("stage.mempool_wait_ms", now.saturating_sub(submitted_ms) as f64);
                }
                self.send_records.push(SendRecord {
                    sequence,
                    sent_ms: now,
                    finalised_ms: None,
                    fee_lamports: fee,
                    used_bundle,
                });
            }
        }

        drop(resolve_scope);

        // 3. React to guest events; the invariant suite watches the same
        // stream and audits after every finalised block.
        let guest_scope = self.profiler.scope("guest.events");
        let mut finalised_seen = false;
        // The fault labels only annotate guest events; most steps have none.
        let faults =
            if guest_events.is_empty() { Vec::new() } else { self.chaos.active_labels(now) };
        for event in &guest_events {
            self.invariants.observe_guest_event(now, &faults, event, &self.endpoints.guest_channel);
            finalised_seen |= matches!(event, GuestEvent::FinalisedBlock { .. });
        }
        for event in guest_events {
            match event {
                GuestEvent::NewBlock { block } => {
                    self.on_new_guest_block(block.height, block.timestamp_ms, now);
                }
                GuestEvent::FinalisedBlock { block, .. } => {
                    for record in &mut self.send_records {
                        if record.finalised_ms.is_none() && record.sent_ms <= block.timestamp_ms {
                            record.finalised_ms = Some(now);
                            self.telemetry
                                .observe("send.finality_ms", (now - record.sent_ms) as f64);
                            // Per-packet finality milestone: bounds the
                            // finality-wait stage of the causal graph
                            // (GUEST_FINALISED is per-block, trace-free).
                            if let Some(trace) = self.telemetry.trace_for_packet(
                                "guest",
                                self.endpoints.guest_channel.as_str(),
                                record.sequence,
                            ) {
                                self.telemetry.event(
                                    now,
                                    telemetry::names::PACKET_FINALISED,
                                    &[trace],
                                    &[("height", block.height.into())],
                                );
                            }
                        }
                    }
                    self.submitted_signs.remove(&block.height);
                }
                _ => {}
            }
        }

        drop(guest_scope);

        // 4. Fire due scheduled actions, in (time, scheduling) order.
        // Nothing fired here schedules new work due at `now`, so one due
        // sweep is exhaustive.
        {
            let _schedule = self.profiler.scope("schedule.fire");
            while let Some((_, action)) = self.schedule.pop_due(now) {
                self.fire(action, now);
            }
        }

        // 5. Workload arrivals.
        let arrivals_scope = self.profiler.scope("workload.arrivals");
        if self.traffic.is_some() {
            while let Some(arrival) = self.traffic.as_mut().and_then(|t| t.pop_due(now)) {
                // Broke users generate zero-amount draws; nothing to send,
                // but the draw still counts against `generated`, so tally
                // it as a rejection to keep the delivery ledger balanced.
                if arrival.amount > 0 {
                    match arrival.direction {
                        Direction::Outbound => self.submit_traffic_outbound(&arrival, now),
                        Direction::Inbound => self.submit_traffic_inbound(&arrival, now),
                    }
                } else {
                    self.rejected_broke += 1;
                }
            }
        } else {
            if now >= self.next_outbound_ms {
                self.submit_outbound_transfer(now);
                let gap =
                    Self::sample_exp(&mut self.rng, self.config.workload.outbound_mean_gap_ms);
                self.next_outbound_ms = now + gap;
            }
            if now >= self.next_inbound_ms {
                self.submit_inbound_transfer(now);
                let gap = Self::sample_exp(&mut self.rng, self.config.workload.inbound_mean_gap_ms);
                self.next_inbound_ms = now + gap;
            }
        }

        drop(arrivals_scope);

        // 6. Counterparty block production, on the chain's own cadence
        // (`CounterpartyChain::tick`: state changed, or the keep-alive).
        self.read_chaos_link(now);
        let cp_scope = self.profiler.scope("cp.block");
        if !self.chaos_reads.cp_halted {
            self.cp.tick(now);
        }
        drop(cp_scope);

        // 7. The fisherman scans the gossip for votes that conflict with
        // the canonical chain and reports them on-chain (§III-C).
        {
            let _fisherman = self.profiler.scope("fisherman");
            self.run_fisherman(now);
        }

        // 8. Let the relayer catch up (unless a halt fault holds it down).
        let relayer_scope = self.profiler.scope("relayer.tick");
        if !self.chaos_reads.relayer_halted {
            self.relayer.tick(&mut self.host, &mut self.cp, &self.contract);
            for relayer in &mut self.extra_relayers {
                relayer.tick(&mut self.host, &mut self.cp, &self.contract);
            }
        }
        drop(relayer_scope);

        // 9. Audit the safety invariants at every finalised guest block,
        // plus once a minute so a fully stalled chain still flags orphaned
        // packets (the audit is read-only; cadence does not affect state).
        // The audit also publishes the `supply.drift` gauge.
        if finalised_seen || now >= self.next_audit_ms {
            let _audit = self.profiler.scope("invariants.audit");
            self.next_audit_ms = now + 60_000;
            self.check_invariants(now);
        }

        // 10. Flush harness-level gauges (metrics only — no journal
        // records at slot cadence) and let the health monitor evaluate.
        if self.telemetry.is_recording() {
            let _record = self.profiler.scope("telemetry.record");
            self.flush_step_gauges(now);
        }
        if let Some(monitor) = self.monitor.as_mut() {
            let _monitor = self.profiler.scope("monitor.tick");
            monitor.tick(now);
        }
        // Keep memory bounded on long runs, but never drop a block some
        // relayer has yet to scan: a halted relayer would lose the events
        // in it for good. Every cursor is at the tip unless one is halted.
        let cursor = self
            .extra_relayers
            .iter()
            .map(Relayer::host_cursor)
            .fold(self.relayer.host_cursor(), u64::min);
        let unscanned = self.host.blocks_since(cursor).len();
        self.host.prune_blocks(unscanned.max(512));
    }

    /// Re-reads the halts and the relayer's chunk faults once `now` reaches
    /// the plan's next window edge after the last read.
    fn read_chaos_link(&mut self, now: u64) {
        if now < self.chaos_reads.link_until {
            return;
        }
        self.chaos_reads.cp_halted = self.chaos.cp_halted(now);
        self.chaos_reads.relayer_halted = self.chaos.relayer_halted(now);
        if !self.chaos.is_empty() {
            self.relayer.set_chunk_faults(self.chaos.chunk_faults(now));
        }
        self.chaos_reads.link_until = self.chaos.next_boundary_after(now);
    }

    /// Writes the six step gauges, reading a source behind a change stamp
    /// only when the stamp moved since the last read.
    fn flush_step_gauges(&mut self, now: u64) {
        let gauges = &mut self.step_gauges;
        let bank_stamp = self.host.bank().stamp();
        let guest = (gauges.bank_read.replace(bank_stamp) != Some(bank_stamp))
            .then(|| self.contract.borrow());
        let cp_stamp = self.cp.ibc().stamp();
        let cp_moved = gauges.cp_ibc_read.replace(cp_stamp) != Some(cp_stamp);
        // Written in the order the gauges were first written in, which is
        // the order their registry entries are made in.
        gauges.relayer_backlog.set(self.relayer.backlog() as f64);
        if let Some(guest) = &guest {
            gauges.guest_head.set_at(now, guest.head_height() as f64);
        }
        gauges.cp_head.set_at(now, self.cp.height() as f64);
        if cp_moved {
            if let Ok(client) = self.cp.ibc().client(&self.endpoints.guest_client_on_cp) {
                gauges.guest_client_on_cp.set_at(now, client.latest_height() as f64);
            }
        }
        if let Some(guest) = guest {
            if let Ok(client) = guest.ibc().client(&self.endpoints.cp_client_on_guest) {
                gauges.cp_client_on_guest.set_at(now, client.latest_height() as f64);
            }
            let balance = self.host.bank().balance(&self.relayer.payer());
            gauges.payer_balance.set_at(now, balance as f64);
        }
    }

    /// Applies a one-shot fault (currently: counterfeit voucher mints on
    /// the counterparty, which the conservation audit must flag).
    fn apply_one_shot(&mut self, fault: Fault) {
        if let Fault::CounterfeitMint { account, denom, amount } = fault {
            if let Some(module) = self.cp.ibc_mut().module_mut(&self.endpoints.port) {
                if let Some(bank) = module.ics20_mut() {
                    bank.mint(&account, &denom, amount);
                }
            }
        }
    }

    fn check_invariants(&mut self, now: u64) {
        let faults = self.chaos.active_labels(now);
        let contract = self.contract.borrow();
        self.invariants.check(&CheckContext {
            now_ms: now,
            faults: &faults,
            contract: &contract,
            cp: &self.cp,
            port: &self.endpoints.port,
            guest_channel: &self.endpoints.guest_channel,
            cp_channel: &self.endpoints.cp_channel,
            guest_client_on_cp: &self.endpoints.guest_client_on_cp,
            cp_client_on_guest: &self.endpoints.cp_client_on_guest,
        });
    }

    fn schedule(&mut self, at_ms: u64, action: Action) {
        self.schedule.schedule(at_ms, action);
    }

    /// On a fresh guest block: schedule each active validator's signature
    /// per its latency profile (deferring through outages), plus the
    /// safety-net check.
    fn on_new_guest_block(&mut self, height: u64, block_ms: u64, now: u64) {
        let epoch = self.contract.borrow().current_epoch().clone();
        for index in 0..self.config.validators.len() {
            // Profiles are Copy: indexing beats cloning the whole set on
            // every block, the harness's hottest allocation.
            let profile = self.config.validators[index];
            if !profile.active || !epoch.contains(&self.keypairs[index].public()) {
                continue;
            }
            // Diligence models intermittent validator availability: the
            // per-block probability of running the signer at all. Quorum
            // normally rests on validator #1's dominant stake; the safety
            // net below catches the rare shortfall.
            if self.rng.next_f64() >= profile.diligence {
                continue;
            }
            let mut latency = self.sample_lognormal(profile.latency_median_ms, SIGN_LATENCY_SIGMA);
            let factor = self.chaos.latency_factor(index, now);
            if factor != 1.0 {
                latency = (latency as f64 * factor) as u64;
            }
            let mut fire_at = now + latency;
            let skew = self.chaos.clock_skew_ms(index, now);
            if skew != 0 {
                // A drifting clock shifts when the signature lands, but it
                // cannot land before the block it signs exists.
                fire_at = fire_at.saturating_add_signed(skew).max(now);
            }
            if let Some((_, end)) = self.chaos.crash_window_at(index, fire_at) {
                // The operator fixes the node and the backlog is signed.
                fire_at = end + latency;
            }
            self.schedule(fire_at, Action::Sign { validator: index, height, block_ms });
        }
        self.schedule(now + self.config.safety_net_ms, Action::SafetyNet { height, block_ms });

        // A rogue validator gossips a conflicting vote for this height.
        if let Some(rogue) = self.config.rogue {
            if self.rng.next_f64() < rogue.equivocate_probability {
                let keypair = &self.keypairs[rogue.validator];
                let fork = sim_crypto::sha256([height as u8, 0xBA, 0xD0]);
                self.gossip.push(SignedVote {
                    height,
                    block_hash: fork,
                    pubkey: keypair.public(),
                    signature: keypair.sign(&GuestBlock::signing_bytes_for(height, &fork)),
                });
            }
        }
    }

    /// The fisherman: verifies each gossiped vote against the canonical
    /// chain and submits valid conflict evidence on-chain.
    fn run_fisherman(&mut self, _now: u64) {
        if self.gossip.is_empty() {
            return;
        }
        for vote in std::mem::take(&mut self.gossip) {
            let conflicting = vote.verify()
                && self.contract.borrow().block_hash_at(vote.height) != Some(vote.block_hash);
            if !conflicting {
                continue;
            }
            let tx = Transaction::build_for(
                &self.config.host_profile,
                self.fisherman_payer,
                1,
                vec![Instruction::new(
                    self.program_id,
                    vec![Pubkey::from_label("guest-state")],
                    GuestInstruction::Inline { op: GuestOp::ReportMisbehaviour { vote } }.encode(),
                )],
                FeePolicy::BaseOnly,
            )
            .expect("report fits a transaction");
            let id = self.host.submit(tx);
            self.tracked_txs.insert(id, Tracked::Report);
            self.telemetry.counter_add("fisherman.reports", 1);
            self.fisherman_reports += 1;
        }
    }

    fn fire(&mut self, action: Action, now: u64) {
        match action {
            Action::Sign { validator, height, block_ms } => {
                self.submit_sign_tx(validator, height, block_ms, now);
            }
            Action::SafetyNet { height, block_ms } => {
                if self.contract.borrow().is_finalised(height) {
                    return;
                }
                // Liveness backstop: every available validator signs now.
                for index in 0..self.config.validators.len() {
                    let profile = self.config.validators[index];
                    if !profile.active {
                        continue;
                    }
                    if self.chaos.crash_window_at(index, now).is_some() {
                        continue;
                    }
                    self.submit_sign_tx(index, height, block_ms, now);
                }
                // Re-arm in case even the backstop could not finalise
                // (e.g. during the dominant validator's outage).
                self.schedule(
                    now + self.config.safety_net_ms * 4,
                    Action::SafetyNet { height, block_ms },
                );
            }
        }
    }

    fn submit_sign_tx(&mut self, validator: usize, height: u64, block_ms: u64, _now: u64) {
        let submitted = self.submitted_signs.entry(height).or_default();
        if !submitted.insert(validator) {
            return;
        }
        let Some(block_hash) = self.contract.borrow().block_hash_at(height) else { return };
        let keypair = &self.keypairs[validator];
        let op = GuestOp::SignBlock {
            height,
            pubkey: keypair.public(),
            signature: keypair.sign(&GuestBlock::signing_bytes_for(height, &block_hash)),
        };
        let mut tx = Transaction::build_for(
            &self.config.host_profile,
            self.validator_payers[validator],
            2, // fee payer + the native-verification signature
            vec![Instruction::new(
                self.program_id,
                vec![Pubkey::from_label("guest-state")],
                GuestInstruction::Inline { op }.encode(),
            )],
            self.config.validators[validator].fee_policy,
        )
        .expect("sign op fits a transaction");
        tx.compute_budget = 200_000;
        let id = self.host.submit(tx);
        self.tracked_txs.insert(id, Tracked::Sign { validator, height, block_ms });
    }

    /// Submits one guest→counterparty ICS-20 transfer as a host
    /// transaction paying `policy`, tracked until its block lands.
    fn submit_guest_transfer(
        &mut self,
        sender: String,
        amount: u128,
        memo: String,
        timeout: Timeout,
        policy: FeePolicy,
    ) {
        let op = GuestOp::SendTransfer {
            port: self.endpoints.port.clone(),
            channel: self.endpoints.guest_channel.clone(),
            denom: GUEST_DENOM.to_string(),
            amount,
            sender,
            receiver: CP_USER.to_string(),
            memo,
            timeout,
        };
        let tx = Transaction::build_for(
            &self.config.host_profile,
            self.client_payer,
            1,
            vec![Instruction::new(
                self.program_id,
                vec![Pubkey::from_label("guest-state")],
                GuestInstruction::Inline { op }.encode(),
            )],
            policy,
        )
        .expect("transfer op fits a transaction");
        let bundled = matches!(policy, FeePolicy::Bundle { .. });
        let id = if bundled { self.host.submit_bundle(vec![tx])[0] } else { self.host.submit(tx) };
        let send = Tracked::Send { used_bundle: bundled, submitted_ms: self.host.now_ms() };
        self.tracked_txs.insert(id, send);
    }

    /// Fraction of client sends paying through Jito bundles (§V-A: 83 %).
    const CLIENT_BUNDLE_SHARE: f64 = 0.83;
    /// The bundle tip (≈ 3.02 USD total, Fig. 3's upper cluster).
    const CLIENT_BUNDLE: FeePolicy = FeePolicy::Bundle { tip_lamports: 15_095_000 };
    /// The priority-fee alternative (≈ 1.40 USD total, Fig. 3's lower cluster).
    const CLIENT_PRIORITY: FeePolicy = FeePolicy::Priority { micro_lamports_per_cu: 5_000_000 };

    /// Draws how a client pays for its send: the bundle / priority-fee mix
    /// of Fig. 3.
    fn draw_client_policy(&mut self) -> FeePolicy {
        if self.rng.next_f64() < Self::CLIENT_BUNDLE_SHARE {
            Self::CLIENT_BUNDLE
        } else {
            Self::CLIENT_PRIORITY
        }
    }

    /// A guest-side user sends tokens to the counterparty (Fig. 2 / Fig. 3
    /// client perspective).
    fn submit_outbound_transfer(&mut self, now: u64) {
        self.outbound_counter += 1;
        let policy = self.draw_client_policy();
        self.submit_guest_transfer(
            GUEST_USER.to_string(),
            100 + (self.outbound_counter as u128 % 900),
            format!("order/{:08}/routed-via=bmg-relay-1", self.outbound_counter),
            Timeout::at_time(now + TRANSFER_TIMEOUT_MS),
            policy,
        );
    }

    /// Submits one generated guest→counterparty transfer: the population
    /// user escrows its own tokens, with the generator's amount and memo.
    fn submit_traffic_outbound(&mut self, arrival: &Arrival, now: u64) {
        self.outbound_counter += 1;
        self.record_traffic_arrival(arrival, Direction::Outbound);
        let policy = self.draw_client_policy();
        let sender = self.traffic.as_ref().expect("traffic mode").population().name(arrival.user);
        let timeout = Timeout::at_time(now + TRANSFER_TIMEOUT_MS);
        self.submit_guest_transfer(sender, arrival.amount, arrival.memo.clone(), timeout, policy);
    }

    /// Pre-aggregated per-shape workload metrics: one counter bump per
    /// arrival under names cached at build time.
    fn record_traffic_arrival(&self, arrival: &Arrival, direction: Direction) {
        if !self.telemetry.is_recording() {
            return;
        }
        let Some(names) = &self.traffic_counters else { return };
        let name = match direction {
            Direction::Outbound => &names.outbound,
            Direction::Inbound => &names.inbound,
        };
        self.telemetry.counter_add(name, 1);
        self.telemetry.counter_add(&names.volume, arrival.amount.min(u64::MAX as u128) as u64);
    }

    /// Submits one generated counterparty→guest transfer.
    fn submit_traffic_inbound(&mut self, arrival: &Arrival, now: u64) {
        self.record_traffic_arrival(arrival, Direction::Inbound);
        let sender = self.traffic.as_ref().expect("traffic mode").population().name(arrival.user);
        let _ = ibc_core::ics20::send_transfer(
            self.cp.ibc_mut(),
            &self.endpoints.port,
            &self.endpoints.cp_channel,
            CP_DENOM,
            arrival.amount,
            &sender,
            GUEST_USER,
            &arrival.memo,
            Timeout::at_time(now + TRANSFER_TIMEOUT_MS),
        );
    }

    /// Submits one outbound transfer with an explicit timeout — a test hook
    /// for exercising the relayer's timeout path.
    pub fn inject_outbound_transfer(&mut self, amount: u128, timeout_at_ms: u64) {
        let timeout = Timeout::at_time(timeout_at_ms);
        let sender = GUEST_USER.to_string();
        self.submit_guest_transfer(sender, amount, String::new(), timeout, FeePolicy::BaseOnly);
    }

    /// A counterparty-side user sends tokens to the guest (drives the
    /// Fig. 4 / Fig. 5 light-client updates and §V-A packet deliveries).
    fn submit_inbound_transfer(&mut self, now: u64) {
        let amount = 50 + (self.rng.next_below(500) as u128);
        // A realistic memo (router metadata) sizes the packet like main-net
        // traffic; packet size is what splits deliveries into 4–5 host
        // transactions (§V-A). A small fraction of transfers carry longer
        // multi-hop routes, tipping them into a fifth transaction — the
        // paper's 1.8 % of 0.5 ¢ deliveries.
        let mut memo =
            format!("{{\"forward\":{{\"receiver\":\"{GUEST_USER}\",\"channel\":\"channel-17\"}}}}");
        if self.rng.next_f64() < 0.03 {
            let hops = 4 + self.rng.next_below(4);
            for hop in 0..hops {
                memo.push_str(&format!(
                    ",next[{hop}]=transfer/channel-{}/{}",
                    40 + hop,
                    "cosmos1qypqxpq9qcrsszg2pvxq6rs0zqg3yyc5lzv7xu"
                ));
            }
        }
        let _ = ibc_core::ics20::send_transfer(
            self.cp.ibc_mut(),
            &self.endpoints.port,
            &self.endpoints.cp_channel,
            CP_DENOM,
            amount,
            CP_USER,
            GUEST_USER,
            &memo,
            Timeout::at_time(now + TRANSFER_TIMEOUT_MS),
        );
    }

    fn sample_exp(rng: &mut SplitMix64, mean_ms: u64) -> u64 {
        let u = rng.next_f64().max(1e-12);
        (-(mean_ms as f64) * u.ln()) as u64 + 1
    }

    fn sample_lognormal(&mut self, median_ms: u64, sigma: f64) -> u64 {
        // Box–Muller.
        let u1 = self.rng.next_f64().max(1e-12);
        let u2 = self.rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (median_ms as f64 * (sigma * z).exp()) as u64
    }
}

impl core::fmt::Debug for Testnet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Testnet")
            .field("host_slot", &self.host.slot())
            .field("guest_head", &self.contract.borrow().head_height())
            .field("cp_height", &self.cp.height())
            .field("sends", &self.send_records.len())
            .finish()
    }
}
