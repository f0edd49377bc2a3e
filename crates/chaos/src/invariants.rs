//! Cross-chain safety invariants, audited while faults are injected.
//!
//! The [`InvariantSuite`] watches the guest event stream and, at every
//! finalised guest block, audits global properties that must hold no
//! matter which faults are active. Violations are recorded as structured
//! [`InvariantViolation`]s naming the faults active at detection time, so
//! a chaos run's report reads "conservation broke *while* the counterfeit
//! mint was active" rather than a bare assertion failure.
//!
//! The three conservation audits — ICS-20 voucher backing
//! ([`ics20_backing`]), NFT voucher backing ([`nft_unbacked`]) and ICS-29
//! fee conservation ([`fee_imbalance`]) — are plain functions over IBC
//! handlers, so the suite and the multi-chain mesh compute each property
//! the same way, in one place.

use std::collections::{BTreeMap, BTreeSet};

use apps::{FeeTotals, ModuleStack, NftModule, NftTransferApp};
use counterparty_sim::CounterpartyChain;
use guest_chain::{GuestContract, GuestEvent};
use ibc_core::channel::Timeout;
use ibc_core::handler::IbcHandler;
use ibc_core::ics20::{escrow_account, split_voucher, voucher_backing, VoucherBacking};
use ibc_core::{ChannelId, ClientId, IbcEvent, PortId, ProvableStore};
use serde::{Deserialize, Serialize};
use sim_crypto::Hash;
use telemetry::Telemetry;

/// The audited properties.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum InvariantKind {
    /// Vouchers minted on one side never exceed the escrow backing them on
    /// the other (ICS-20 conservation; equality holds in quiescence).
    Ics20Conservation,
    /// A guest height is finalised at most once.
    NoDoubleFinalisation,
    /// Light-client verified heights never move backwards, on either side.
    LightClientMonotonic,
    /// Active stake + pending withdrawals + cumulative slashed amounts
    /// equal the initially bonded total.
    StakeConservation,
    /// No outbound packet commitment lingers unresolved long past its
    /// timeout (the relayer must deliver, acknowledge or time it out).
    NoOrphanedPacket,
    /// Every ICS-29 fee unit escrowed by a stacked fee middleware is
    /// accounted for: the escrow account holds exactly the registered
    /// pending fees, and escrowed = paid + refunded + pending.
    FeeConservation,
}

impl InvariantKind {
    /// A short display name.
    pub fn name(&self) -> &'static str {
        match self {
            InvariantKind::Ics20Conservation => "ics20-conservation",
            InvariantKind::NoDoubleFinalisation => "no-double-finalisation",
            InvariantKind::LightClientMonotonic => "light-client-monotonic",
            InvariantKind::StakeConservation => "stake-conservation",
            InvariantKind::NoOrphanedPacket => "no-orphaned-packet",
            InvariantKind::FeeConservation => "fee-conservation",
        }
    }
}

/// One detected violation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InvariantViolation {
    /// Simulated time of detection.
    pub at_ms: u64,
    /// The broken invariant.
    pub invariant: InvariantKind,
    /// Human-readable specifics (amounts, heights, sequences).
    pub details: String,
    /// Labels of the faults active at detection time ([`crate::Fault::label`]).
    pub faults: Vec<String>,
    /// Telemetry trace ids of the outbound packets in flight at detection
    /// time (empty when telemetry is disabled), linking the violation to
    /// the packet-lifecycle traces it may have corrupted.
    #[serde(default)]
    pub linked_traces: Vec<u64>,
}

/// Tuning knobs of the suite.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct InvariantConfig {
    /// Grace period after a packet's timeout expires before an unresolved
    /// commitment counts as orphaned. Covers the relayer's worst-case
    /// timeout-proof latency (a chunked job under congestion).
    pub orphan_slack_ms: u64,
}

impl Default for InvariantConfig {
    fn default() -> Self {
        Self { orphan_slack_ms: 2 * 60 * 60 * 1_000 }
    }
}

/// Everything a [`InvariantSuite::check`] needs to see, borrowed from the
/// harness for the duration of one audit.
pub struct CheckContext<'a> {
    /// Simulated time.
    pub now_ms: u64,
    /// Labels of currently active faults (violation attribution).
    pub faults: &'a [String],
    /// The guest contract.
    pub contract: &'a GuestContract,
    /// The counterparty chain.
    pub cp: &'a CounterpartyChain,
    /// The transfer port (both sides bind the same port id).
    pub port: PortId,
    /// The guest end of the transfer channel.
    pub guest_channel: ChannelId,
    /// The counterparty end of the transfer channel.
    pub cp_channel: ChannelId,
    /// The client tracking the guest, hosted on the counterparty.
    pub guest_client_on_cp: ClientId,
    /// The client tracking the counterparty, hosted on the guest.
    pub cp_client_on_guest: ClientId,
}

/// State of one tracked outbound packet commitment.
#[derive(Clone, Copy, Debug)]
struct TrackedPacket {
    timeout: Timeout,
    /// When the suite first saw the timeout expired with the commitment
    /// still unresolved.
    expired_since_ms: Option<u64>,
}

/// The invariant checker (see module docs).
#[derive(Debug, Default)]
pub struct InvariantSuite {
    config: InvariantConfig,
    /// Finalised height → block hash.
    finalised: BTreeMap<u64, Hash>,
    /// Highest verified height seen per client side.
    guest_client_height: u64,
    cp_client_height: u64,
    /// Outbound guest packets awaiting ack or timeout, by sequence.
    outbound: BTreeMap<u64, TrackedPacket>,
    /// Initially bonded stake (captured at the first audit).
    stake_baseline: Option<u64>,
    /// Cumulative slashed stake, from `ValidatorSlashed` events.
    slashed_total: u64,
    /// Dedup keys of already-reported violations, so a persistent breach
    /// is recorded once rather than at every finalised block.
    reported: BTreeSet<String>,
    violations: Vec<InvariantViolation>,
    /// The guest transfer channel, captured from the first observed event
    /// (the key under which packet traces are registered).
    guest_channel_label: Option<String>,
    telemetry: Telemetry,
}

impl InvariantSuite {
    /// A suite with the given configuration.
    pub fn new(config: InvariantConfig) -> Self {
        Self { config, ..Self::default() }
    }

    /// The violations detected so far.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Installs an observability sink. Every recorded violation is mirrored
    /// into the telemetry journal, linked to the traces of the packets in
    /// flight when the breach was detected.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Feeds one guest event into the suite's bookkeeping. Call for every
    /// event the harness drains, in order.
    pub fn observe_guest_event(
        &mut self,
        now_ms: u64,
        faults: &[String],
        event: &GuestEvent,
        guest_channel: &ChannelId,
    ) {
        if self.guest_channel_label.is_none() {
            self.guest_channel_label = Some(guest_channel.as_str().to_string());
        }
        match event {
            GuestEvent::FinalisedBlock { block, .. } => {
                let hash = block.hash();
                if let Some(previous) = self.finalised.get(&block.height) {
                    let conflicting = *previous != hash;
                    self.record(
                        now_ms,
                        faults,
                        InvariantKind::NoDoubleFinalisation,
                        format!("double-final:{}", block.height),
                        if conflicting {
                            format!(
                                "height {} finalised twice with conflicting hashes",
                                block.height
                            )
                        } else {
                            format!("height {} finalised twice", block.height)
                        },
                    );
                } else {
                    self.finalised.insert(block.height, hash);
                }
            }
            GuestEvent::ValidatorSlashed { amount, .. } => {
                self.slashed_total += *amount;
            }
            GuestEvent::Ibc(IbcEvent::SendPacket { packet })
                if packet.source_channel == *guest_channel =>
            {
                self.outbound.insert(
                    packet.sequence,
                    TrackedPacket { timeout: packet.timeout, expired_since_ms: None },
                );
            }
            GuestEvent::Ibc(IbcEvent::AcknowledgePacket { packet })
            | GuestEvent::Ibc(IbcEvent::TimeoutPacket { packet })
                if packet.source_channel == *guest_channel =>
            {
                self.outbound.remove(&packet.sequence);
            }
            _ => {}
        }
    }

    /// Runs the full audit. The harness calls this at every finalised
    /// guest block.
    pub fn check(&mut self, ctx: &CheckContext<'_>) {
        self.check_conservation(ctx);
        self.check_fee_conservation(ctx);
        self.check_client_monotonicity(ctx);
        self.check_stake_conservation(ctx);
        self.check_orphaned_packets(ctx);
    }

    fn record(
        &mut self,
        at_ms: u64,
        faults: &[String],
        invariant: InvariantKind,
        dedup_key: String,
        details: String,
    ) {
        if !self.reported.insert(dedup_key) {
            return;
        }
        let linked_traces = self.in_flight_traces();
        self.telemetry.violation(
            at_ms,
            invariant.name(),
            &details,
            faults,
            &linked_traces.iter().map(|id| telemetry::TraceId(*id)).collect::<Vec<_>>(),
        );
        self.violations.push(InvariantViolation {
            at_ms,
            invariant,
            details,
            faults: faults.to_vec(),
            linked_traces,
        });
    }

    /// Trace ids of the tracked outbound packets still awaiting resolution.
    fn in_flight_traces(&self) -> Vec<u64> {
        let Some(channel) = self.guest_channel_label.as_deref() else { return Vec::new() };
        self.outbound
            .keys()
            .filter_map(|sequence| self.telemetry.lookup_packet_trace("guest", channel, *sequence))
            .map(|trace| trace.0)
            .collect()
    }

    /// Vouchers in circulation on one side must be fully backed by escrow
    /// on the other. While transfers are in flight (escrowed but not yet
    /// minted, or burned but not yet released) the voucher total runs
    /// *below* the escrow, so the audit checks `vouchers ≤ escrow` — any
    /// excess means value was created out of thin air. The excess summed
    /// over both directions is the `supply.drift` gauge the monitor reads.
    fn check_conservation(&mut self, ctx: &CheckContext<'_>) {
        let Some(rows) = ics20_backing(
            &ctx.port,
            ctx.contract.ibc(),
            &ctx.guest_channel,
            ctx.cp.ibc(),
            &ctx.cp_channel,
        ) else {
            return;
        };
        let mut drift = 0u128;
        for row in rows.iter().filter(|row| row.unbacked() > 0) {
            drift += row.unbacked();
            let (holder, backer) =
                if row.held_on_a { ("guest", "counterparty") } else { ("counterparty", "guest") };
            self.record(
                ctx.now_ms,
                ctx.faults,
                InvariantKind::Ics20Conservation,
                format!("conservation:{}", row.inner),
                format!(
                    "{} {} vouchers on the {holder} exceed the {} {} escrowed on the {backer}",
                    row.minted, row.voucher, row.escrowed, row.inner
                ),
            );
        }
        self.telemetry.gauge_set_at(ctx.now_ms, "supply.drift", drift as f64);
    }

    /// Audits the ICS-29 fee middleware on both sides (see
    /// [`fee_imbalance`]).
    fn check_fee_conservation(&mut self, ctx: &CheckContext<'_>) {
        for (side, ibc) in [("guest", ctx.contract.ibc()), ("counterparty", ctx.cp.ibc())] {
            let Some((imbalance, totals)) = fee_imbalance(ibc, &ctx.port) else { continue };
            if imbalance > 0 {
                self.record(
                    ctx.now_ms,
                    ctx.faults,
                    InvariantKind::FeeConservation,
                    format!("fees:{side}"),
                    format!(
                        "{imbalance} escrowed fee units unaccounted for on the {side} \
                         (escrowed {} = paid {} + refunded {} + pending {} + leak)",
                        totals.escrowed, totals.paid, totals.refunded, totals.pending
                    ),
                );
            }
        }
    }

    fn check_client_monotonicity(&mut self, ctx: &CheckContext<'_>) {
        if let Ok(client) = ctx.cp.ibc().client(&ctx.guest_client_on_cp) {
            let height = client.latest_height();
            if height < self.guest_client_height {
                self.record(
                    ctx.now_ms,
                    ctx.faults,
                    InvariantKind::LightClientMonotonic,
                    format!("monotonic:guest-on-cp:{height}"),
                    format!(
                        "guest client on counterparty regressed from {} to {height}",
                        self.guest_client_height
                    ),
                );
            }
            self.guest_client_height = self.guest_client_height.max(height);
        }
        if let Ok(client) = ctx.contract.ibc().client(&ctx.cp_client_on_guest) {
            let height = client.latest_height();
            if height < self.cp_client_height {
                self.record(
                    ctx.now_ms,
                    ctx.faults,
                    InvariantKind::LightClientMonotonic,
                    format!("monotonic:cp-on-guest:{height}"),
                    format!(
                        "counterparty client on guest regressed from {} to {height}",
                        self.cp_client_height
                    ),
                );
            }
            self.cp_client_height = self.cp_client_height.max(height);
        }
    }

    /// Slashing burns stake, so the bonded total only moves to pending
    /// withdrawals or the slash counter — never appears or disappears.
    fn check_stake_conservation(&mut self, ctx: &CheckContext<'_>) {
        let staking = ctx.contract.staking();
        let accounted = staking.total_stake() + staking.pending_total() + self.slashed_total;
        let baseline = *self.stake_baseline.get_or_insert(accounted);
        if accounted != baseline {
            self.record(
                ctx.now_ms,
                ctx.faults,
                InvariantKind::StakeConservation,
                format!("stake:{accounted}"),
                format!("active + pending + slashed = {accounted}, initially bonded {baseline}"),
            );
        }
    }

    fn check_orphaned_packets(&mut self, ctx: &CheckContext<'_>) {
        let dest_height = ctx.cp.height();
        let dest_time = ctx.cp.now_ms();
        let slack = self.config.orphan_slack_ms;
        let mut orphaned: Vec<(u64, u64)> = Vec::new();
        for (sequence, tracked) in self.outbound.iter_mut() {
            if !tracked.timeout.has_expired(dest_height, dest_time) {
                continue;
            }
            let since = *tracked.expired_since_ms.get_or_insert(ctx.now_ms);
            if ctx.now_ms.saturating_sub(since) > slack {
                orphaned.push((*sequence, since));
            }
        }
        for (sequence, since) in orphaned {
            self.record(
                ctx.now_ms,
                ctx.faults,
                InvariantKind::NoOrphanedPacket,
                format!("orphan:{sequence}"),
                format!(
                    "outbound packet #{sequence} still committed {} ms after its timeout expired",
                    ctx.now_ms.saturating_sub(since)
                ),
            );
        }
    }
}

/// ICS-20 conservation of one link, both directions: the
/// [`voucher_backing`] rows of the transfer ledgers `a` and `b` bind on
/// `port`, matched over the link's channels `a_channel` and `b_channel`.
/// On an honest link every row's `unbacked()` is zero; its sum over the
/// rows is the voucher supply minted out of thin air. [`None`] when either
/// end binds no ICS-20 ledger on `port`, bare or inside a stack.
pub fn ics20_backing<'a, S: ProvableStore>(
    port: &PortId,
    a: &'a IbcHandler<S>,
    a_channel: &ChannelId,
    b: &'a IbcHandler<S>,
    b_channel: &ChannelId,
) -> Option<Vec<VoucherBacking<'a>>> {
    let a_bank = a.module(port)?.ics20()?;
    let b_bank = b.module(port)?.ics20()?;
    Some(voucher_backing(port, a_bank, a_channel, b_bank, b_channel))
}

/// NFT conservation of one link, both directions: the voucher tokens whose
/// original is missing from escrow. Each voucher class on a receiving end
/// unwinds one prefix layer of its own channel, and every token of it must
/// be owned on the sending end by that channel's escrow account (a token
/// re-escrowed further along a route is covered by the next link back). Zero
/// on a clean link, whether tokens are at rest or hop-escrowed mid-route; 0
/// when either end binds no NFT-transfer stack on `port`.
pub fn nft_unbacked<S: ProvableStore>(
    port: &PortId,
    a: &IbcHandler<S>,
    a_channel: &ChannelId,
    b: &IbcHandler<S>,
    b_channel: &ChannelId,
) -> u64 {
    let (Some(a_nft), Some(b_nft)) = (nft_ledger(a, port), nft_ledger(b, port)) else {
        return 0;
    };
    let mut unbacked = 0;
    for (sender, sender_channel, receiver, receiver_channel) in
        [(a_nft, a_channel, b_nft, b_channel), (b_nft, b_channel, a_nft, a_channel)]
    {
        let escrow = escrow_account(sender_channel);
        for class in receiver.classes() {
            let Some(rest) = split_voucher(&class, port, receiver_channel) else { continue };
            for token in receiver.tokens_in(&class) {
                if sender.owner_of(rest, &token) != Some(escrow.as_str()) {
                    unbacked += 1;
                }
            }
        }
    }
    unbacked
}

/// ICS-29 fee conservation of one chain: the imbalance of the fee
/// middleware stacked on `port` against the ICS-20 ledger it escrows in
/// ([`apps::FeeMiddleware::imbalance`]: the fee-escrow account must hold
/// exactly the registered pending fees, and escrowed = paid + refunded +
/// pending), with the fee totals for reporting. The fee layer is per chain,
/// not per channel, so a harness sums this over chains, not links. [`None`]
/// for bare (stack-less) modules and stacks without a fee layer, which are
/// vacuously conserving.
pub fn fee_imbalance<S: ProvableStore>(
    ibc: &IbcHandler<S>,
    port: &PortId,
) -> Option<(u128, FeeTotals)> {
    let module = ibc.module(port)?;
    let fees = module.as_any().downcast_ref::<ModuleStack>()?.fees()?;
    Some((fees.imbalance(module.ics20()?), fees.totals()))
}

/// The ledger of the NFT-transfer app at the bottom of the stack bound on
/// `port`.
fn nft_ledger<'a, S: ProvableStore>(
    ibc: &'a IbcHandler<S>,
    port: &PortId,
) -> Option<&'a NftModule> {
    let stack = ibc.module(port)?.as_any().downcast_ref::<ModuleStack>()?;
    stack.app_as::<NftTransferApp>().map(NftTransferApp::nft)
}
