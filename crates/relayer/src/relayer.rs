//! The relayer event loop (Alg. 2, relayer half).
//!
//! The relayer polls both chains for events and forwards packets, proofs
//! and light-client updates. Toward the counterparty it makes direct calls
//! (that side has no relevant resource limits); toward the guest it must
//! push everything through 1232-byte host transactions — the behaviour
//! whose latency and cost the paper measures in Figs. 4–5 and §V-A/§V-B.
//!
//! Each guest-bound step is a *job*: a staging buffer filled and executed
//! by a sequence of transactions, submitted in plan order. One scheduler
//! keeps a window of unconfirmed transactions, over every job in flight,
//! each job on its own buffer. The deployed relayer's window is one
//! transaction — one job, each transaction submitted only after the
//! previous one confirmed — which is what Figs. 4–5 measure;
//! [`RelayerConfig::pipelined`] widens it to as many transactions as one
//! host block admits, so a job submits its whole plan in one tick. There a
//! counterparty step waits for the one client update that makes it
//! provable and nothing more: a packet job proven under the header an
//! update in flight is installing is submitted right behind that update
//! and lands after it in the same host block, and updates are paced by
//! what is left of the guest's §VI-C hourly budget
//! ([`GuestContract::client_update_paced_at`]).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use counterparty_sim::CounterpartyChain;
use guest_chain::{GuestContract, GuestEvent, GuestHeader, GuestInstruction, GuestOp};
use host_sim::{FeePolicy, HostChain, HostProfile, Instruction, Pubkey, Transaction};
use ibc_core::client::ConsensusState;
use ibc_core::IbcEvent;
use profiler::Profiler;
use sim_crypto::rng::SplitMix64;
use telemetry::{names, SpanId, Telemetry, TraceId};

use crate::bootstrap::Endpoints;
use crate::chunking::{plan_op_for, sig_checks_per_tx_for};
use crate::fees::FeeStrategy;
use crate::msg::{RelayMsg, Submitted, Unproven};
use crate::records::{JobKind, JobRecord};

/// Relayer configuration. Transactions are built and chunks planned
/// against the runtime limits of the host the relayer is handed
/// ([`HostChain::profile`], §VI-D), so the two cannot disagree.
#[derive(Clone, Copy, Debug)]
pub struct RelayerConfig {
    /// How relay transactions pay for inclusion. The paper's relayer used
    /// the default fee model (§V-B), i.e. [`FeeStrategy::Base`].
    pub fee_strategy: FeeStrategy,
    /// Whether guest-bound transactions are pipelined. `false`, the
    /// deployed relayer of Figs. 4–5 and §V-A, keeps one transaction
    /// unconfirmed: one job, one confirmation at a time. `true` keeps as
    /// many as one host block admits relayer transactions
    /// ([`HostProfile::slot_compute_capacity`] over
    /// [`HostProfile::max_compute_units`]; 34 on Solana), over as many jobs
    /// as fit, each on its own staging buffer and each submitting its plan
    /// in one tick without awaiting confirmations: the host runs them in
    /// submission order ([`host_sim::mempool::Mempool::drain_for_slot`]). Every
    /// client update then also keeps the guest's §VI-C cap's pace, and
    /// packet jobs may ride behind the update that proves them.
    pub pipelined: bool,
}

impl Default for RelayerConfig {
    fn default() -> Self {
        Self { fee_strategy: FeeStrategy::Base, pipelined: false }
    }
}

impl RelayerConfig {
    /// How many guest-bound transactions may be unconfirmed at once on
    /// `profile`.
    fn window(&self, profile: &HostProfile) -> usize {
        if self.pipelined {
            (profile.slot_compute_capacity / profile.max_compute_units).max(1) as usize
        } else {
            1
        }
    }
}

/// Deterministic chunk-submission fault injection (fault drills; the
/// `chaos` crate drives this).
///
/// Each probability is sampled — from a dedicated RNG, so an inert value
/// leaves the run untouched — when the relayer submits a transaction of a
/// chunked job:
///
/// * **drop**: the submission is lost in transit (never reaches the
///   mempool); the relayer re-submits after [`RESUBMIT_AFTER_SLOTS`].
/// * **duplicate**: the transaction is submitted twice (an at-least-once
///   RPC retry); the guest contract must tolerate the replay.
/// * **reorder**: the next two planned instructions swap submission order.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChunkFaults {
    /// Per-submission probability of losing the transaction.
    pub drop_probability: f64,
    /// Per-submission probability of submitting it twice.
    pub duplicate_probability: f64,
    /// Per-submission probability of swapping the next two instructions.
    pub reorder_probability: f64,
    /// Seed of the dedicated fault RNG (used once, on first installation).
    pub seed: u64,
}

impl ChunkFaults {
    fn is_inert(&self) -> bool {
        self.drop_probability <= 0.0
            && self.duplicate_probability <= 0.0
            && self.reorder_probability <= 0.0
    }
}

/// How long the relayer waits for an unconfirmed job transaction before
/// assuming the submission was lost and re-submitting it. Armed from the
/// first installation of chunk faults for the rest of the run, since the
/// fault RNG is never cleared; a relayer that never had faults installed
/// never arms it, because the simulated mempool never loses transactions.
pub const RESUBMIT_AFTER_SLOTS: u64 = 64;

/// Work the relayer has noticed on the counterparty but not yet pushed to
/// the guest.
#[derive(Debug)]
struct Intent {
    msg: RelayMsg,
    /// The first counterparty height whose header may prove the step.
    provable_from: u64,
}

/// A multi-transaction job in flight on the host chain.
#[derive(Debug)]
struct ActiveJob {
    kind: JobKind,
    /// The intent a packet job serves, handed back to the queue if the
    /// job is abandoned (client updates serve none).
    relays: Option<Intent>,
    /// The counterparty height a packet job is proven at (0 for a client
    /// update). Above the guest client's latest height, the job rides
    /// behind the update installing that height.
    proof_height: u64,
    buffer: u64,
    /// The job's instructions, one transaction each, in plan order.
    plan: Vec<GuestInstruction>,
    /// Plan indices not yet submitted.
    queue: VecDeque<usize>,
    /// Submitted, unconfirmed transactions in submission order:
    /// `(tx id, plan index)`.
    in_flight: Vec<(u64, usize)>,
    /// Plan indices that failed on-chain (`true`) or were presumed lost
    /// (`false`), held back until none of the job's transactions is in
    /// flight.
    failed: Vec<(usize, bool)>,
    /// Host slot of the latest submission (lost-submission detection).
    submitted_slot: u64,
    scheduled_ms: u64,
    first_tx_ms: Option<u64>,
    last_tx_ms: u64,
    tx_count: usize,
    fee_lamports: u64,
    sig_checks: usize,
    retries: usize,
    span: Option<SpanId>,
    traces: Vec<TraceId>,
}

impl ActiveJob {
    /// The transactions this job still holds in the window: queued, in
    /// flight or failed. A job with none left counts one until
    /// [`Relayer::pump_jobs`] retires it, as the deployed relayer recorded
    /// a job before it started the next.
    fn unconfirmed(&self) -> usize {
        (self.queue.len() + self.in_flight.len() + self.failed.len()).max(1)
    }
}

/// Transient on-chain failures are retried this many times before the job
/// is abandoned (and its staging buffer dropped).
const MAX_JOB_RETRIES: usize = 2;

/// The relayer.
pub struct Relayer {
    config: RelayerConfig,
    payer: Pubkey,
    guest_program: Pubkey,
    guest_state_account: Pubkey,
    endpoints: Endpoints,
    next_buffer: u64,
    last_host_slot: u64,
    recent_load: f64,
    /// Guest-side steps waiting for a finalised guest header to prove
    /// under, packets ahead of acks (the order they are submitted in).
    pending_to_cp: Vec<RelayMsg>,
    intents: VecDeque<Intent>,
    /// Guest-bound jobs in flight, oldest first, started while they hold
    /// fewer than [`RelayerConfig::window`] transactions between them.
    jobs: Vec<ActiveJob>,
    /// The height and consensus state of the header the client update in
    /// flight is installing, which packet jobs may be proven under already.
    installing: Option<(u64, ConsensusState)>,
    peak_jobs: usize,
    generate_in_flight: Option<u64>,
    /// [`GuestContract::block_due_from`] as read at a host bank stamp.
    /// The guest contract changes only inside the host's transactions, so
    /// it holds until the bank's stamp moves.
    block_due_read: Option<(u64, Option<u64>)>,
    pending_cleanup: Vec<u64>,
    records: Vec<JobRecord>,
    failed_jobs: usize,
    chunk_faults: Option<ChunkFaults>,
    chunk_rng: Option<SplitMix64>,
    next_lost_id: u64,
    lost_submissions: usize,
    resubmissions: usize,
    telemetry: Telemetry,
    /// Wall-clock self-profiler (disabled by default; wall time never
    /// feeds back into scheduling decisions).
    profiler: Profiler,
    /// Open while guest-side packets/acks wait for a finalised guest
    /// header to reach the counterparty's light client — a finality stall
    /// shows up as this span stretching across the outage on every
    /// waiting packet's trace.
    cp_update_span: Option<SpanId>,
}

impl Relayer {
    /// Creates a relayer for an established link.
    pub fn new(
        config: RelayerConfig,
        payer: Pubkey,
        guest_program: Pubkey,
        endpoints: Endpoints,
    ) -> Self {
        Self {
            config,
            payer,
            guest_program,
            guest_state_account: Pubkey::from_label("guest-state"),
            endpoints,
            next_buffer: 1,
            last_host_slot: 0,
            recent_load: 0.0,
            pending_to_cp: Vec::new(),
            intents: VecDeque::new(),
            jobs: Vec::new(),
            installing: None,
            peak_jobs: 0,
            generate_in_flight: None,
            block_due_read: None,
            pending_cleanup: Vec::new(),
            records: Vec::new(),
            failed_jobs: 0,
            chunk_faults: None,
            chunk_rng: None,
            next_lost_id: u64::MAX,
            lost_submissions: 0,
            resubmissions: 0,
            telemetry: Telemetry::disabled(),
            profiler: Profiler::disabled(),
            cp_update_span: None,
        }
    }

    /// Installs an observability sink. Each multi-transaction job becomes a
    /// span linked to the packet traces it serves (a `ClientUpdate` span
    /// links *every* queued intent's packet — which is what makes a relay
    /// stall visible as a long light-client-update span on those traces).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        const JOB_LATENCY_BOUNDS: [f64; 10] = [
            1_000.0,
            5_000.0,
            10_000.0,
            20_000.0,
            30_000.0,
            60_000.0,
            120_000.0,
            300_000.0,
            900_000.0,
            3_600_000.0,
        ];
        telemetry
            .register_histogram("relayer.job.latency_ms", &JOB_LATENCY_BOUNDS)
            .expect("job-latency bounds are strictly ascending");
        // Per-kind twins of the aggregate histogram: latency attribution
        // reads these to tell a slow client update from a slow delivery.
        for kind in JobKind::ALL {
            telemetry
                .register_histogram(
                    &format!("relayer.job.{}.latency_ms", kind.name()),
                    &JOB_LATENCY_BOUNDS,
                )
                .expect("job-latency bounds are strictly ascending");
        }
        self.telemetry = telemetry;
    }

    /// Installs a wall-clock self-profiler. Scopes only measure wall
    /// time — queues, RNG streams and submissions are untouched, so a
    /// profiled run stays byte-identical to a bare one.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Installs (or removes, with `None` or an all-zero value) chunk-level
    /// fault injection. The dedicated fault RNG is seeded on the first
    /// installation and survives later probability changes, so a fault
    /// window driven slot-by-slot samples one coherent stream.
    pub fn set_chunk_faults(&mut self, faults: Option<ChunkFaults>) {
        match faults {
            Some(faults) if !faults.is_inert() => {
                if self.chunk_rng.is_none() {
                    self.chunk_rng =
                        Some(sim_crypto::rng::seed_stream(faults.seed, "relayer.chunk_faults"));
                }
                self.chunk_faults = Some(faults);
            }
            _ => self.chunk_faults = None,
        }
    }

    /// Job submissions lost to injected drop faults.
    pub fn lost_submissions(&self) -> usize {
        self.lost_submissions
    }

    /// Job transactions re-submitted after a presumed-lost submission.
    pub fn resubmissions(&self) -> usize {
        self.resubmissions
    }

    /// Completed job measurements (Figs. 4–5, §V-A).
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Jobs dropped after an unrecoverable on-chain failure.
    pub fn failed_jobs(&self) -> usize {
        self.failed_jobs
    }

    /// Packets sent by the guest still awaiting relay to the counterparty.
    pub fn backlog(&self) -> usize {
        self.pending_packets() + self.intents.len()
    }

    /// Guest-sent packets waiting for a finalised header to prove under.
    pub fn pending_packets(&self) -> usize {
        self.pending_to_cp.partition_point(|msg| msg.kind() == JobKind::RecvPacket)
    }

    /// Whether any guest-bound job is mid-flight (activated off the intent
    /// queue, so [`Relayer::backlog`] no longer counts it).
    pub fn job_in_flight(&self) -> bool {
        !self.jobs.is_empty()
    }

    /// The most guest-bound jobs this relayer has had in flight at once.
    pub fn peak_jobs_in_flight(&self) -> usize {
        self.peak_jobs
    }

    /// The host slot this relayer has scanned blocks up to. The host must
    /// keep every later block until the relayer has looked at it.
    pub fn host_cursor(&self) -> u64 {
        self.last_host_slot
    }

    /// The host account this relayer pays fees from.
    pub fn payer(&self) -> Pubkey {
        self.payer
    }

    /// The endpoints this relayer serves.
    pub fn endpoints(&self) -> &Endpoints {
        &self.endpoints
    }

    /// One scheduling round. Call once per host slot (or less often — the
    /// relayer catches up on everything that happened since its last look).
    pub fn tick(
        &mut self,
        host: &mut HostChain,
        cp: &mut CounterpartyChain,
        contract: &Rc<RefCell<GuestContract>>,
    ) {
        let guest_events = {
            let _scan = self.profiler.scope("scan.host");
            self.scan_host_blocks(host, contract)
        };
        // Only armed once chunk faults have ever been installed, so an
        // unfaulted run is bit-identical with or without the machinery.
        if self.chunk_rng.is_some() {
            self.resubmit_lost_submissions(host, contract);
        }
        // Free staging buffers of abandoned jobs.
        for buffer in std::mem::take(&mut self.pending_cleanup) {
            self.submit_instruction(host, &GuestInstruction::DropBuffer { buffer });
        }
        let now_ms = host.now_ms();
        {
            let _guest = self.profiler.scope("guest.events");
            self.process_guest_events(guest_events, cp, contract, now_ms);
        }
        self.process_cp_events(cp);
        self.maybe_generate_block(host, contract);
        {
            let _activate = self.profiler.scope("job.activate");
            self.activate_intents(host, cp, contract);
        }
        let _pump = self.profiler.scope("job.pump");
        self.pump_jobs(host);
    }

    /// Scans blocks since the last tick: confirms in-flight transactions,
    /// each to the job that submitted it, and collects guest events.
    fn scan_host_blocks(
        &mut self,
        host: &HostChain,
        contract: &Rc<RefCell<GuestContract>>,
    ) -> Vec<GuestEvent> {
        let mut events = Vec::new();
        let blocks = host.blocks_since(self.last_host_slot);
        for block in blocks {
            self.recent_load = 0.8 * self.recent_load + 0.2 * block.load;
            for (tx_id, outcome) in &block.transactions {
                if self.generate_in_flight == Some(*tx_id) {
                    self.generate_in_flight = None;
                }
                let Some((index, at)) = self.jobs.iter().enumerate().find_map(|(index, job)| {
                    job.in_flight.iter().position(|(id, ..)| id == tx_id).map(|at| (index, at))
                }) else {
                    continue;
                };
                let job = &mut self.jobs[index];
                let (_, plan_index) = job.in_flight.remove(at);
                job.tx_count += 1;
                job.fee_lamports += outcome.fee_lamports;
                job.first_tx_ms.get_or_insert(block.time_ms);
                job.last_tx_ms = block.time_ms;
                if !outcome.is_ok() {
                    job.failed.push((plan_index, true));
                }
                if job.in_flight.is_empty() && !job.failed.is_empty() {
                    self.settle_failures(index, block.time_ms, contract);
                }
            }
            for event in block.events() {
                if event.program_id != self.guest_program {
                    continue;
                }
                events.extend(event.payload_as::<GuestEvent>());
            }
        }
        self.last_host_slot = host.slot();
        events
    }

    /// Settles job `index`'s failed and lost instructions once none of its
    /// transactions is in flight. Only an on-chain failure that is the
    /// earliest in plan order costs one of [`MAX_JOB_RETRIES`] (a transient
    /// failure, e.g. a compute-starved slot or a chunk run out of order):
    /// the writes rejected as non-sequential behind it cost nothing, and
    /// neither does a loss. A job out of retries is abandoned instead. A job
    /// riding behind a client update that has not landed (proven above the
    /// guest client's latest height) pays nothing either: its `ExecStaged`
    /// found no consensus state to verify against, and the guest kept its
    /// buffer. It holds its failures until [`Relayer::pump_jobs`] sees the
    /// update re-submitted or done, and is re-submitted behind it. Returns
    /// whether the job is still in flight.
    fn settle_failures(
        &mut self,
        index: usize,
        now_ms: u64,
        contract: &Rc<RefCell<GuestContract>>,
    ) -> bool {
        if self.jobs[index].proof_height > self.client_height(contract) {
            return true;
        }
        let job = &mut self.jobs[index];
        if job.failed.iter().min().is_some_and(|&(_, on_chain)| on_chain) {
            if job.retries == MAX_JOB_RETRIES {
                let job = self.jobs.remove(index);
                self.abandon(job, now_ms, contract);
                return false;
            }
            job.retries += 1;
            if self.telemetry.is_recording() {
                self.telemetry.counter_add("relayer.tx.retries", 1);
                self.telemetry.event(
                    now_ms,
                    names::CHUNK_RETRY,
                    &job.traces,
                    &[("kind", job.kind.name().into())],
                );
            }
        }
        requeue_failed(job);
        true
    }

    /// The latest height the guest's client of the counterparty trusts.
    fn client_height(&self, contract: &Rc<RefCell<GuestContract>>) -> u64 {
        let guest = contract.borrow();
        guest.ibc().client(&self.endpoints.cp_client_on_guest).map_or(0, |c| c.latest_height())
    }

    /// Gives up on a job whose transaction failed past its retries (a
    /// duplicate delivery raced by another relayer, a chunk written out of
    /// order): frees its staging buffer and hands the intent it served back
    /// to the front of the queue, to be proven again. Not if the guest
    /// already shows the step taken, which is what stops a real duplicate
    /// from looping; and a receive that expired on the guest meanwhile
    /// becomes the timeout that refunds its sender, toward the counterparty.
    /// An abandoned client update takes the jobs riding behind it out of
    /// flight too: their intents go back to the front of the queue, in
    /// order, and they are not counted as failed.
    fn abandon(&mut self, job: ActiveJob, now_ms: u64, contract: &Rc<RefCell<GuestContract>>) {
        self.failed_jobs += 1;
        self.telemetry.counter_add("relayer.jobs.abandoned", 1);
        if job.kind == JobKind::ClientUpdate {
            self.installing = None;
            let latest = self.client_height(contract);
            for index in (0..self.jobs.len()).rev() {
                if self.jobs[index].proof_height > latest {
                    let rider = self.jobs.remove(index);
                    self.telemetry.counter_add("relayer.jobs.returned", 1);
                    if let Some(intent) = self.drop_job(rider, now_ms) {
                        self.intents.push_front(intent);
                    }
                }
            }
        }
        let Some(Intent { msg, provable_from }) = self.drop_job(job, now_ms) else { return };
        let guest = contract.borrow();
        if settled_on_guest(&msg, &guest) {
            return;
        }
        let (msg, expired) = msg.expire(guest.head_height(), now_ms);
        drop(guest);
        if expired {
            self.queue_for_cp(now_ms, msg);
        } else {
            self.intents.push_front(Intent { msg, provable_from });
        }
    }

    /// Takes `job` out of flight unrecorded: frees its staging buffer and
    /// closes its span. Returns the intent it served.
    fn drop_job(&mut self, job: ActiveJob, now_ms: u64) -> Option<Intent> {
        self.pending_cleanup.push(job.buffer);
        if let Some(span) = job.span {
            self.telemetry.span_end(now_ms, span);
        }
        job.relays
    }

    /// Handles guest-side events: queue outbound packets/acks, and on each
    /// finalised block push a header plus everything provable to the
    /// counterparty (Alg. 2, lines 4–10).
    fn process_guest_events(
        &mut self,
        events: Vec<GuestEvent>,
        cp: &mut CounterpartyChain,
        contract: &Rc<RefCell<GuestContract>>,
        now_ms: u64,
    ) {
        for event in events {
            match event {
                GuestEvent::Ibc(IbcEvent::SendPacket { packet }) => {
                    self.queue_for_cp(now_ms, RelayMsg::Recv { packet });
                }
                GuestEvent::Ibc(IbcEvent::WriteAcknowledgement { packet, ack }) => {
                    self.queue_for_cp(now_ms, RelayMsg::Ack { packet, ack });
                }
                GuestEvent::FinalisedBlock { block, signatures } => {
                    if self.pending_to_cp.is_empty() && !block.is_last_in_epoch() {
                        continue; // Alg. 2 line 5: nothing worth relaying.
                    }
                    let header = GuestHeader { block: block.clone(), signatures };
                    if cp
                        .ibc_mut()
                        .update_client(&self.endpoints.guest_client_on_cp, &header.encode())
                        .is_err()
                    {
                        continue; // e.g. stale relay; retry on the next block.
                    }
                    self.deliver_provables_to_cp(&block, cp, contract);
                    self.close_cp_update_wait(now_ms);
                }
                _ => {}
            }
        }
    }

    /// The telemetry trace of the packet `msg` is about, given which chain
    /// proves the message and which receives it.
    fn trace_of(&self, msg: &RelayMsg, prover: &str, receiver: &str) -> Option<TraceId> {
        let packet = msg.packet();
        self.telemetry.trace_for_packet(
            msg.origin(prover, receiver),
            packet.source_channel.as_str(),
            packet.sequence,
        )
    }

    /// The distinct traces of a queue of messages, in queue order.
    fn traces_of<'m>(
        &self,
        msgs: impl Iterator<Item = &'m RelayMsg>,
        prover: &str,
        receiver: &str,
    ) -> Vec<TraceId> {
        // Set-backed dedup: a heavy-traffic backlog makes a linear
        // `contains` scan quadratic.
        let mut seen = std::collections::HashSet::new();
        msgs.filter_map(|msg| self.trace_of(msg, prover, receiver))
            .filter(|trace| seen.insert(*trace))
            .collect()
    }

    /// Queues a guest-side step for the counterparty and links its trace
    /// to the open guest→cp client-update wait span, opening one if
    /// necessary. The span measures how long guest-side work waits for the
    /// next finalised guest header to reach the counterparty.
    fn queue_for_cp(&mut self, now_ms: u64, msg: RelayMsg) {
        if let Some(trace) = self.trace_of(&msg, "guest", "cp") {
            match self.cp_update_span {
                Some(span) => self.telemetry.span_link(span, trace),
                None => {
                    self.cp_update_span =
                        self.telemetry.span_start(now_ms, names::CP_CLIENT_UPDATE, &[trace]);
                }
            }
        }
        // Packets stay ahead of acks, so `pending_packets` counts a prefix.
        let at = match msg {
            RelayMsg::Recv { .. } => self.pending_packets(),
            _ => self.pending_to_cp.len(),
        };
        self.pending_to_cp.insert(at, msg);
    }

    /// Closes the guest→cp client-update wait span after a header landed,
    /// reopening it for whatever could not be proven under that header.
    fn close_cp_update_wait(&mut self, now_ms: u64) {
        let Some(span) = self.cp_update_span.take() else { return };
        self.telemetry.span_end(now_ms, span);
        let leftover = self.traces_of(self.pending_to_cp.iter(), "guest", "cp");
        if !leftover.is_empty() {
            self.cp_update_span =
                self.telemetry.span_start(now_ms, names::CP_CLIENT_UPDATE, &leftover);
        }
    }

    /// Forwards every pending packet/ack whose commitment is covered by the
    /// just-verified guest block.
    fn deliver_provables_to_cp(
        &mut self,
        block: &guest_chain::GuestBlock,
        cp: &mut CounterpartyChain,
        contract: &Rc<RefCell<GuestContract>>,
    ) {
        let guest = contract.borrow();
        let consensus = ConsensusState { root: block.state_root, timestamp_ms: block.timestamp_ms };

        let mut remaining = Vec::new();
        for msg in self.pending_to_cp.drain(..) {
            // Only deliverable if the commitment is inside this block's
            // state root (it may have been sent after block creation).
            // Proven from the node's state at that height: under sustained
            // traffic the live trie has already moved past this block.
            let proof =
                msg.prove(block.height, &consensus, |key| guest.prove_at(block.height, key));
            let Ok(proof) = proof else {
                remaining.push(msg);
                continue;
            };
            // For a delivered packet the counterparty writes the ack; we
            // pick it up from its events and queue it toward the guest.
            let now = cp.host_time();
            match msg.submit(cp.ibc_mut(), block.height, &proof, now) {
                Submitted::Accepted | Submitted::Duplicate => {}
                // Expired before delivery: refund the sender via a
                // guest-side TimeoutPacket once non-receipt is provable.
                Submitted::Expired(timeout) => {
                    self.intents.push_back(Intent { msg: timeout, provable_from: now.height + 1 });
                }
                Submitted::Rejected(_) => self.failed_jobs += 1,
            }
        }
        self.pending_to_cp = remaining;
    }

    /// Queues counterparty events as work toward the guest.
    fn process_cp_events(&mut self, cp: &mut CounterpartyChain) {
        // The chain stamps each event with the first height that commits
        // it, but the relayer waits for the block after the one current at
        // drain time: EXPERIMENTS' "one-block gap" Known deviation (ROADMAP
        // item 16). Reading the stamp is the fix, held back by Fig. 6.
        let provable_from = cp.height() + 1;
        for (event, _stamp) in cp.drain_events() {
            let msg = match event {
                IbcEvent::SendPacket { packet } => RelayMsg::Recv { packet },
                IbcEvent::WriteAcknowledgement { packet, ack }
                    // Only acks for packets the *guest* sent travel this way.
                    if packet.source_channel == self.endpoints.guest_channel =>
                {
                    RelayMsg::Ack { packet, ack }
                }
                _ => continue,
            };
            self.intents.push_back(Intent { msg, provable_from });
        }
    }

    /// Fires a `GenerateBlock` transaction when Alg. 1's conditions hold
    /// and the guest's account has room for the block.
    fn maybe_generate_block(
        &mut self,
        host: &mut HostChain,
        contract: &Rc<RefCell<GuestContract>>,
    ) {
        if self.generate_in_flight.is_some() {
            return;
        }
        let stamp = host.bank().stamp();
        let due_from = match self.block_due_read {
            Some((read_at, due_from)) if read_at == stamp => due_from,
            _ => {
                let due_from = contract.borrow().block_due_from();
                self.block_due_read = Some((stamp, due_from));
                due_from
            }
        };
        if due_from.is_none_or(|from| host.now_ms() < from)
            || contract.borrow().check_room().is_err()
        {
            return;
        }
        let id =
            self.submit_instruction(host, &GuestInstruction::Inline { op: GuestOp::GenerateBlock });
        self.generate_in_flight = Some(id);
    }

    /// Starts queued intents while the jobs in flight hold fewer than
    /// [`RelayerConfig::window`] transactions: in queue order, every one
    /// provable under the trusted consensus or the header a client update
    /// in flight is installing, up to the first that is not — and for that
    /// one a client update, unless one is already in flight or the guest's
    /// §VI-C cap stands in the way. Once an update starts, the queue is
    /// served again under its header: a packet job proven there rides
    /// behind the update, submitted after it in the same tick, so the host
    /// runs it after the update in the same block. An intent dropped as
    /// never provable takes one transaction of the window for the tick, so
    /// a window of one makes the deployed relayer's one decision per tick;
    /// the update then fills that window and nothing rides.
    ///
    /// Proofs are generated against the guest client's **latest verified**
    /// consensus state (or the one update in flight), not the
    /// counterparty's newest header — chasing the head would livelock on
    /// chains that produce blocks faster than a chunked update completes.
    fn activate_intents(
        &mut self,
        host: &HostChain,
        cp: &CounterpartyChain,
        contract: &Rc<RefCell<GuestContract>>,
    ) {
        let Some(front) = self.intents.front() else { return };
        let window = self.config.window(host.profile());
        let mut unconfirmed: usize = self.jobs.iter().map(ActiveJob::unconfirmed).sum();
        // Every intent needs a counterparty header covering the event, and
        // a full guest account would refuse the job: it waits, rather than
        // fail through its retries and be queued again, slot after slot.
        if unconfirmed >= window
            || cp.height() < front.provable_from
            || contract.borrow().check_room().is_err()
        {
            return;
        }

        // What does the guest's client already trust?
        let verified = {
            let guard = contract.borrow();
            let Ok(client) = guard.ibc().client(&self.endpoints.cp_client_on_guest) else {
                return;
            };
            let latest = client.latest_height();
            client.consensus_state(latest).map(|cs| (latest, cs))
        };
        if !self.start_provable(host, cp, verified, window, &mut unconfirmed) {
            return;
        }

        // The client lags (or the trusted root no longer matches): update
        // it. Validator-set rotations must be relayed *in order* — a client
        // that skips a rotation header can never verify anything signed by
        // the new set — so one update at a time, targeting the earliest
        // pending rotation, if any. The scan reads commit records; only the
        // header that is relayed gets signed.
        if self.installing.is_some() {
            return;
        }
        let client_height = verified.map(|(h, _)| h).unwrap_or(0);
        let target_height = (client_height + 1..cp.height())
            .find(|&height| cp.commit_at(height).is_some_and(|c| c.next_validators.is_some()))
            .unwrap_or(cp.height());
        if target_height <= client_height {
            return; // Nothing newer to relay yet.
        }
        // Never past the guest's §VI-C cap. A pipelined update lands in a
        // slot or two, so updates could follow each other back to back and
        // spend an hour's cap in minutes, then stall for the rest of the
        // hour; a window wider than one therefore also keeps the cap's pace,
        // spreading what is left of the hour's budget.
        let client = &self.endpoints.cp_client_on_guest;
        let now = host.now_ms();
        let admitted = {
            let guest = contract.borrow();
            (window == 1 || now >= guest.client_update_paced_at(client, now))
                && guest.admits_client_update(client, now)
        };
        if !admitted {
            return;
        }
        let target = cp.header_at(target_height).expect("at or below cp.height()");
        let op = GuestOp::UpdateClient {
            client: client.clone(),
            header: String::from_utf8(target.encode()).expect("JSON is UTF-8"),
            num_signatures: target.signatures.len(),
        };
        // The update serves every packet whose delivery waits on it.
        let traces = self.traces_of(self.intents.iter().map(|intent| &intent.msg), "cp", "guest");
        let sig_checks = target.signatures.len();
        unconfirmed += self.start_job(host, JobKind::ClientUpdate, &op, sig_checks, traces, None);
        let consensus = ConsensusState { root: target.app_hash, timestamp_ms: target.timestamp_ms };
        self.installing = Some((target_height, consensus));
        self.start_provable(host, cp, verified, window, &mut unconfirmed);
    }

    /// Starts queued intents in order while `unconfirmed` stays under
    /// `window`, each proven under the `verified` consensus or else under
    /// the header being installed. Returns whether it stopped at an intent
    /// neither proves, which needs a fresher header.
    fn start_provable(
        &mut self,
        host: &HostChain,
        cp: &CounterpartyChain,
        verified: Option<(u64, ConsensusState)>,
        window: usize,
        unconfirmed: &mut usize,
    ) -> bool {
        loop {
            let Some(intent) = self.intents.front() else { return false };
            if *unconfirmed >= window || cp.height() < intent.provable_from {
                return false; // Window full, or the counterparty has yet to commit.
            }
            let provable_from = intent.provable_from;
            let planned = [verified, self.installing]
                .into_iter()
                .flatten()
                .filter(|(proof_height, _)| *proof_height >= provable_from)
                .find_map(|(proof_height, consensus)| {
                    self.try_start_packet_job(host, cp, proof_height, &consensus)
                });
            match planned {
                Some(planned) => *unconfirmed += planned,
                None => return true,
            }
        }
    }

    /// Attempts to build the front intent's packet job against the given
    /// consensus. Returns the transactions the started job plans, or one
    /// when the intent was consumed as unrecoverable; `None` when it needs
    /// a fresher header.
    fn try_start_packet_job(
        &mut self,
        host: &HostChain,
        cp: &CounterpartyChain,
        proof_height: u64,
        consensus: &ConsensusState,
    ) -> Option<usize> {
        let intent = self.intents.pop_front().expect("caller checked non-empty");
        // Prove at the trusted height; live state has usually moved past
        // it under sustained traffic. The live-store fallback is reached
        // only when that height's checkpoint was evicted: the guest's
        // client trusts a header more than the 32 heights
        // `CounterpartyChain::prove_at` keeps behind the head, as when a
        // one-job relayer falls behind under load or an update is
        // abandoned after a lost chunk. A live proof verifies against the
        // old root only if nothing was written since; otherwise it sends
        // the intent back to wait for a fresher header (`NotYet`), where
        // no proof at all would drop it as unprovable (`Never`).
        let proof = intent.msg.prove(proof_height, consensus, |key| {
            cp.prove_at(proof_height, key).or_else(|| cp.ibc().store().prove(key).ok())
        });
        match proof {
            Ok(proof) => {
                // Packets delivered *to* the guest originated on the
                // counterparty; acks and timeouts coming home concern
                // guest-origin packets.
                let traces = self.trace_of(&intent.msg, "cp", "guest").into_iter().collect();
                let kind = intent.msg.kind();
                let op = intent.msg.clone().into_guest_op(proof_height, proof);
                Some(self.start_job(host, kind, &op, 0, traces, Some(intent)))
            }
            // The trusted root predates (or postdates) the commitment, or
            // the expiry: a fresher header is needed.
            Err(Unproven::NotYet) => {
                self.intents.push_front(intent);
                None
            }
            Err(Unproven::Never) => {
                self.failed_jobs += 1;
                Some(1)
            }
        }
    }

    /// Plans `op` onto a fresh staging buffer and puts the job in flight.
    /// Returns how many transactions it plans.
    fn start_job(
        &mut self,
        host: &HostChain,
        kind: JobKind,
        op: &GuestOp,
        sig_checks: usize,
        traces: Vec<TraceId>,
        relays: Option<Intent>,
    ) -> usize {
        let buffer = self.next_buffer;
        self.next_buffer += 1;
        let plan = {
            let _plan = self.profiler.scope("chunk.plan");
            plan_op_for(host.profile(), op, buffer, sig_checks)
        };
        let planned = plan.len();
        debug_assert!(
            sig_checks == 0 || planned > sig_checks / sig_checks_per_tx_for(host.profile())
        );
        let proof_height = match op {
            GuestOp::RecvPacket { proof_height, .. }
            | GuestOp::AckPacket { proof_height, .. }
            | GuestOp::TimeoutPacket { proof_height, .. } => *proof_height,
            _ => 0,
        };
        let span = self.telemetry.span_start(
            host.now_ms(),
            &format!("{}.{}", names::RELAYER_JOB, kind.name()),
            &traces,
        );
        self.jobs.push(ActiveJob {
            kind,
            relays,
            proof_height,
            buffer,
            plan,
            queue: (0..planned).collect(),
            in_flight: Vec::new(),
            failed: Vec::new(),
            submitted_slot: host.slot(),
            scheduled_ms: host.now_ms(),
            first_tx_ms: None,
            last_tx_ms: host.now_ms(),
            tx_count: 0,
            fee_lamports: 0,
            sig_checks,
            retries: 0,
            span,
            traces,
        });
        self.peak_jobs = self.peak_jobs.max(self.jobs.len());
        planned
    }

    /// Moves every job on, oldest first: each submits its queued
    /// instructions while fewer than [`RelayerConfig::window`] of the
    /// relayer's transactions are in flight, and a job with nothing left
    /// queued, in flight or failed is finished. Jobs holding failures
    /// behind a client update (see [`Relayer::settle_failures`]) get them
    /// back once the update has nothing in flight, i.e. is re-submitted
    /// behind them in this pass — the update is older — or done.
    fn pump_jobs(&mut self, host: &mut HostChain) {
        if self.jobs.is_empty() {
            return;
        }
        let update_in_flight = self
            .jobs
            .iter()
            .any(|job| job.kind == JobKind::ClientUpdate && !job.in_flight.is_empty());
        if !update_in_flight {
            for job in &mut self.jobs {
                if job.in_flight.is_empty() && !job.failed.is_empty() {
                    requeue_failed(job);
                }
            }
        }
        let window = self.config.window(host.profile());
        let mut in_flight = self.jobs.iter().map(|job| job.in_flight.len()).sum();
        let mut index = 0;
        while index < self.jobs.len() {
            if self.pump_job(host, index, window, &mut in_flight) {
                index += 1;
            }
        }
    }

    /// Submits job `index`'s queued instructions in plan order while fewer
    /// than `window` transactions are `in_flight` — one at a time for the
    /// deployed relayer, which awaited each confirmation, and the whole
    /// plan in one tick for a pipelined one — or finishes the job. A job
    /// with a failure outstanding submits nothing until it is settled.
    /// Returns whether the job is still in flight.
    fn pump_job(
        &mut self,
        host: &mut HostChain,
        index: usize,
        window: usize,
        in_flight: &mut usize,
    ) -> bool {
        let job = &self.jobs[index];
        if job.queue.is_empty() && job.in_flight.is_empty() && job.failed.is_empty() {
            self.finish_job(index, host.now_ms());
            return false;
        }
        while *in_flight < window
            && self.jobs[index].failed.is_empty()
            && self.submit_next(host, index)
        {
            *in_flight += 1;
        }
        true
    }

    /// Submits the front of job `index`'s queue, drawing the chunk faults
    /// for this submission. Returns `false` when the queue is empty.
    fn submit_next(&mut self, host: &mut HostChain, index: usize) -> bool {
        let current_slot = host.slot();
        let job = &mut self.jobs[index];
        if let (Some(faults), Some(rng)) = (&self.chunk_faults, &mut self.chunk_rng) {
            if faults.reorder_probability > 0.0
                && job.queue.len() >= 2
                && rng.next_f64() < faults.reorder_probability
            {
                job.queue.swap(0, 1);
            }
        }
        let Some(plan_index) = job.queue.pop_front() else { return false };
        job.submitted_slot = current_slot;
        if let (Some(faults), Some(rng)) = (&self.chunk_faults, &mut self.chunk_rng) {
            if faults.drop_probability > 0.0 && rng.next_f64() < faults.drop_probability {
                // Lost in transit: park it under a sentinel id no real
                // transaction ever gets, so confirmation never arrives
                // and the timeout path re-submits it.
                let id = self.next_lost_id;
                self.next_lost_id -= 1;
                self.lost_submissions += 1;
                job.in_flight.push((id, plan_index));
                if self.telemetry.is_recording() {
                    self.telemetry.counter_add("relayer.chunks.dropped", 1);
                    self.telemetry.event(
                        host.now_ms(),
                        names::CHUNK_DROP,
                        &job.traces,
                        &[("kind", job.kind.name().into())],
                    );
                }
                return true;
            }
        }
        let duplicate = match (&self.chunk_faults, &mut self.chunk_rng) {
            (Some(faults), Some(rng)) => {
                faults.duplicate_probability > 0.0 && rng.next_f64() < faults.duplicate_probability
            }
            _ => false,
        };
        let instruction = &self.jobs[index].plan[plan_index];
        let id = self.submit_instruction(host, instruction);
        if duplicate {
            // An at-least-once RPC retry: the same transaction lands
            // twice; the relayer only tracks the first copy.
            self.submit_instruction(host, instruction);
            self.telemetry.counter_add("relayer.chunks.duplicated", 1);
        }
        self.jobs[index].in_flight.push((id, plan_index));
        true
    }

    /// Records the completed job `index` and takes it out of flight.
    fn finish_job(&mut self, index: usize, now_ms: u64) {
        let done = self.jobs.remove(index);
        if done.kind == JobKind::ClientUpdate {
            self.installing = None;
        }
        let record = JobRecord {
            kind: done.kind,
            scheduled_ms: done.scheduled_ms,
            first_tx_ms: done.first_tx_ms.unwrap_or(done.scheduled_ms),
            last_tx_ms: done.last_tx_ms,
            tx_count: done.tx_count,
            fee_lamports: done.fee_lamports,
            sig_checks: done.sig_checks,
        };
        if self.telemetry.is_recording() {
            self.telemetry.counter_add(&format!("relayer.jobs.{}", done.kind.name()), 1);
            self.telemetry.counter_add("fees.relayer", done.fee_lamports);
            self.telemetry.counter_add("relayer.txs", done.tx_count as u64);
            self.telemetry.observe("relayer.job.latency_ms", record.span_ms() as f64);
            self.telemetry.observe(
                &format!("relayer.job.{}.latency_ms", done.kind.name()),
                record.span_ms() as f64,
            );
            if let Some(span) = done.span {
                self.telemetry.span_end(now_ms, span);
            }
        }
        self.records.push(record);
    }

    /// Presumes every transaction a job has in flight lost once its latest
    /// submission is overdue, and settles the job's failures — a dropped
    /// submission never confirms, so this is how the relayer recovers from
    /// injected chunk loss (it also fires for a transaction stuck in a
    /// congested mempool, where the duplicate is harmless: the guest
    /// contract tolerates replays).
    fn resubmit_lost_submissions(
        &mut self,
        host: &HostChain,
        contract: &Rc<RefCell<GuestContract>>,
    ) {
        let now_slot = host.slot();
        let mut index = 0;
        while index < self.jobs.len() {
            let job = &mut self.jobs[index];
            if job.in_flight.is_empty()
                || now_slot.saturating_sub(job.submitted_slot) <= RESUBMIT_AFTER_SLOTS
            {
                index += 1;
                continue;
            }
            let lost = job.in_flight.len();
            job.failed.extend(job.in_flight.drain(..).map(|(_, plan_index)| (plan_index, false)));
            self.resubmissions += lost;
            if self.telemetry.is_recording() {
                self.telemetry.counter_add("relayer.chunks.resubmitted", lost as u64);
                self.telemetry.event(
                    host.now_ms(),
                    names::CHUNK_RESUBMIT,
                    &job.traces,
                    &[("kind", job.kind.name().into())],
                );
            }
            if self.settle_failures(index, host.now_ms(), contract) {
                index += 1;
            }
        }
    }

    fn build_tx(&self, host: &HostChain, instruction: &GuestInstruction) -> Transaction {
        let policy = self.config.fee_strategy.policy(self.recent_load);
        Transaction::build_for(
            host.profile(),
            self.payer,
            1,
            vec![Instruction::new(
                self.guest_program,
                vec![self.guest_state_account],
                instruction.encode(),
            )],
            policy,
        )
        .expect("planned instructions fit transactions")
    }

    fn submit_instruction(&self, host: &mut HostChain, instruction: &GuestInstruction) -> u64 {
        let tx = self.build_tx(host, instruction);
        match tx.fee_policy {
            FeePolicy::Bundle { .. } => host.submit_bundle(vec![tx])[0],
            _ => host.submit(tx),
        }
    }
}

/// Hands `job`'s failed and lost instructions back to the front of its
/// queue in plan order. An `ExecStaged` that failed behind a missing chunk
/// found the staged bytes incomplete, and the guest drops a buffer that
/// does not decode (`GuestProgram`'s `ExecStaged` arm, pinned by its test
/// `undecodable_staged_bytes_drop_the_buffer`), so then the whole plan goes
/// back instead.
fn requeue_failed(job: &mut ActiveJob) {
    job.failed.sort_unstable();
    let chunk_missing = matches!(job.plan[job.failed[0].0], GuestInstruction::WriteChunk { .. });
    let exec_failed = job.failed.last().is_some_and(|&(last, on_chain)| {
        on_chain && matches!(job.plan[last], GuestInstruction::ExecStaged { .. })
    });
    if chunk_missing && exec_failed {
        job.failed.clear();
        job.queue = (0..job.plan.len()).collect();
    } else {
        for (plan_index, _) in job.failed.drain(..).rev() {
            job.queue.push_front(plan_index);
        }
    }
}

/// Whether the guest's store already shows the step `msg` relays taken,
/// by this relayer or a competitor. A receive leaves the receipt that a
/// timeout of the packet would prove absent; an ack or a timeout removes
/// the commitment that a receive of it proves present. A sealed slot reads
/// as an error, which the handler too counts as taken.
fn settled_on_guest(msg: &RelayMsg, guest: &GuestContract) -> bool {
    let packet = msg.packet().clone();
    let (key, taken_when_present) = match msg {
        RelayMsg::Recv { .. } => (RelayMsg::Timeout { packet }.claim().0, true),
        RelayMsg::Ack { .. } | RelayMsg::Timeout { .. } => {
            (RelayMsg::Recv { packet }.claim().0, false)
        }
    };
    match guest.ibc().store().get(&key) {
        Ok(stored) => stored.is_some() == taken_when_present,
        Err(_) => true,
    }
}

impl core::fmt::Debug for Relayer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Relayer")
            .field("intents", &self.intents.len())
            .field("jobs", &self.jobs.len())
            .field("records", &self.records.len())
            .finish()
    }
}
