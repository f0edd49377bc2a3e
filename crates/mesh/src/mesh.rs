//! The multi-chain harness: N chains, a fleet of per-link relayers, and
//! route-level bookkeeping, all on one shared simulated clock.
//!
//! [`Mesh::build`] turns a [`MeshConfig`] into live chains (each binding a
//! full [`ModuleStack`] — fee, memo-hook and forward middleware around the
//! ICS-20 transfer app — on the transfer port, plus NFT-transfer and
//! interchain-accounts stacks on their own ports) and opens every
//! configured link with a full handshake.
//! [`Mesh::send_along_route`] picks a path with the routing table, encodes
//! the remaining hops into the ICS-20 memo, and tracks the resulting
//! route end to end: one telemetry route trace linking every per-hop
//! packet trace, a delivered/refunded verdict, and settlement latency.
//!
//! Each [`Mesh::step`]:
//! 1. dispatches IBC events into per-link relay queues, route
//!    bookkeeping and telemetry (before outboxes drain, so a forward
//!    leg's route correlation is registered before the leg commits);
//!    each queued step carries the first source height that can prove
//!    it,
//! 2. drains every chain's forward-middleware outbox (committing next-hop
//!    and refund legs),
//! 3. produces due blocks (skipping chaos-halted chains), first setting
//!    aside the events each block commits, so that step 1 queues them as
//!    provable from that block's height,
//! 4. expires in-flight packets whose destination clock passed their
//!    timeout,
//! 5. wakes due link relayers (skipping chaos-downed links), which prove
//!    each queued step at its source's latest commit once that commit
//!    holds it (`CounterpartyChain::prove_at`, as a stock relayer reads
//!    a committed block), deliver the recv/ack/timeout messages and
//!    charge their link's fee schedule.

use std::collections::BTreeMap;

use apps::{
    FeeMiddleware, ForwardMiddleware, IcaApp, IcaOp, MemoHookMiddleware, ModuleStack,
    NftTransferApp, StackRequest,
};
use chaos::{invariants, ChaosController};
use counterparty_sim::{CounterpartyChain, CpHeader};
use ibc_core::channel::{Acknowledgement, Packet, Timeout};
use ibc_core::client::ConsensusState;
use ibc_core::forward::{AssetUnit, ForwardKind, ForwardMetadata};
use ibc_core::handshake::open_link;
use ibc_core::ics20::{self, TransferModule};
use ibc_core::types::{ChannelId, IbcError, PortId};
use ibc_core::{IbcEvent, Module, PacketStep};
use monitor::{
    AlertRecord, ConservationDetector, LatencyRegressionDetector, Monitor, MonitorConfig,
    StalenessDetector, StuckPacketDetector,
};
use relayer::msg::{Proof, RelayMsg, Submitted, Unproven};
use telemetry::{names, GaugeHandle, RunReport, Telemetry, TraceId};

use crate::link::{link_ports, Link};
use crate::routing::{PathPolicy, RouteHop, RoutingTable};
use crate::topology::{MeshConfig, RELAY_INTERVAL_MS, STEP_MS};

/// Units of the host chain's native denom airdropped to every newly
/// registered interchain account, so scripted ICA batches have
/// something to spend.
pub const ICA_AIRDROP: u128 = 1_000_000;

/// Errors surfaced by the mesh harness.
#[derive(Debug)]
pub enum MeshError {
    /// The topology failed validation.
    Config(String),
    /// A named chain does not exist.
    UnknownChain(String),
    /// No path between the endpoints under the requested policy.
    NoRoute {
        /// Requested origin.
        from: String,
        /// Requested destination.
        to: String,
    },
    /// An IBC operation failed.
    Ibc(IbcError),
}

impl core::fmt::Display for MeshError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Config(msg) => write!(f, "invalid mesh config: {msg}"),
            Self::UnknownChain(name) => write!(f, "unknown chain {name:?}"),
            Self::NoRoute { from, to } => write!(f, "no route from {from} to {to}"),
            Self::Ibc(err) => write!(f, "ibc: {err}"),
        }
    }
}

impl std::error::Error for MeshError {}

impl From<IbcError> for MeshError {
    fn from(err: IbcError) -> Self {
        Self::Ibc(err)
    }
}

/// One chain of the mesh.
pub struct Node {
    /// Chain name (chaos faults and telemetry use it).
    pub name: String,
    /// Native denomination.
    pub denom: String,
    /// The middleware's escrow account for in-transit hops.
    pub forward_account: String,
    chain: CounterpartyChain,
}

impl Node {
    /// Read access to the chain.
    pub fn chain(&self) -> &CounterpartyChain {
        &self.chain
    }

    /// The chain's ICS-20 ledger (at the bottom of the transfer stack).
    pub fn transfers(&self) -> &TransferModule {
        self.chain
            .ibc()
            .module(&PortId::transfer())
            .expect("mesh binds the transfer port")
            .ics20()
            .expect("mesh modules expose an ICS-20 ledger")
    }

    /// The full middleware stack on the transfer port.
    pub fn transfer_stack(&self) -> &ModuleStack {
        stack(&self.chain, &PortId::transfer())
    }

    /// The middleware stack on `port`.
    pub fn stack_on(&self, port: &PortId) -> &ModuleStack {
        stack(&self.chain, port)
    }

    /// The chain's NFT transfer app (bottom of the nft-port stack).
    pub fn nfts(&self) -> &NftTransferApp {
        stack(&self.chain, &nft_port())
            .app_as::<NftTransferApp>()
            .expect("mesh binds the NFT app on the nft port")
    }

    /// The chain's interchain-accounts app (bottom of the ica-port stack).
    pub fn ica(&self) -> &IcaApp {
        stack(&self.chain, &ica_port()).app_as::<IcaApp>().expect("mesh binds the ICA app")
    }
}

/// The port the mesh binds its NFT-transfer stacks on.
pub fn nft_port() -> PortId {
    PortId::named("nft")
}

/// The port the mesh binds its interchain-accounts stacks on.
pub fn ica_port() -> PortId {
    PortId::named("ica")
}

/// What one registered leg means for its route.
#[derive(Clone, Copy, Debug)]
struct LegInfo {
    route: usize,
    refund: bool,
    final_leg: bool,
}

/// End-to-end status of one routed transfer.
#[derive(Clone, Debug)]
pub struct RouteStatus {
    /// `route-{i}:{from}->{to}` — also the telemetry route-trace label.
    pub label: String,
    /// Origin node index.
    pub origin: usize,
    /// Destination node index.
    pub dest: usize,
    /// Final receiver account.
    pub receiver: String,
    /// Denomination sent (as named on the origin chain).
    pub denom: String,
    /// Amount sent.
    pub amount: u128,
    /// Telemetry route trace linking every hop.
    pub trace: Option<TraceId>,
    /// The final hop delivered to the receiver.
    pub delivered: bool,
    /// The transfer unwound back to the sender.
    pub refunded: bool,
    /// Simulation time the route started.
    pub sent_ms: u64,
    /// Simulation time it settled (delivered or refunded).
    pub settled_ms: Option<u64>,
}

impl RouteStatus {
    /// Whether the route reached a terminal state.
    pub fn settled(&self) -> bool {
        self.delivered || self.refunded
    }

    /// Start-to-settlement latency, when settled.
    pub fn latency_ms(&self) -> Option<u64> {
        self.settled_ms.map(|settled| settled.saturating_sub(self.sent_ms))
    }
}

/// Tally of one [`Mesh::run_with_traffic`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficOutcome {
    /// Arrivals that became routed transfers.
    pub sent: u64,
    /// Arrivals skipped because the user's balance was exhausted.
    pub skipped_broke: u64,
    /// Arrivals with no path to the drawn destination.
    pub unroutable: u64,
    /// Routes that reached their receiver.
    pub delivered: u64,
    /// Routes that unwound back to their sender.
    pub refunded: u64,
    /// Forwarded legs still pending when the drain window closed.
    pub in_flight: usize,
}

/// What the origin puts in a route's first packet, and what the route
/// bookkeeping needs to know about it.
struct FirstLeg {
    origin: usize,
    dest: usize,
    /// Number of hops on the chosen path.
    hops: usize,
    /// The origin's channel of the first hop's link.
    channel: ChannelId,
    /// The first hop's receiver: the final one on a direct route, else
    /// the next chain's forward account.
    receiver: String,
    memo: String,
    timeout: Timeout,
}

/// Which of a link's channels a route rides, seen from a node.
type ChannelPick = for<'l> fn(&'l Link, usize) -> &'l ChannelId;

/// One relay direction's proven work: the header of the source's latest
/// commit, which the proofs were taken at, and each message with its
/// proof.
type Proven = (CpHeader, Vec<(RelayMsg, Proof)>);

/// Mutably borrows two distinct slice elements.
fn pair<T>(slice: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j, "a link needs two distinct chains");
    if i < j {
        let (lo, hi) = slice.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = slice.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

fn stack_mut<'c>(chain: &'c mut CounterpartyChain, port: &PortId) -> &'c mut ModuleStack {
    chain
        .ibc_mut()
        .module_mut(port)
        .expect("mesh binds its app ports")
        .as_any_mut()
        .downcast_mut::<ModuleStack>()
        .expect("mesh binds a ModuleStack on every app port")
}

fn stack<'c>(chain: &'c CounterpartyChain, port: &PortId) -> &'c ModuleStack {
    chain
        .ibc()
        .module(port)
        .expect("mesh binds its app ports")
        .as_any()
        .downcast_ref::<ModuleStack>()
        .expect("mesh binds a ModuleStack on every app port")
}

/// The live mesh.
pub struct Mesh {
    config: MeshConfig,
    port: PortId,
    nodes: Vec<Node>,
    links: Vec<Link>,
    routing: RoutingTable,
    /// `(node, local channel)` → link index, for event dispatch.
    channel_links: BTreeMap<(usize, String), usize>,
    /// `(sender node, source channel, sequence)` → leg bookkeeping.
    legs: BTreeMap<(usize, String, u64), LegInfo>,
    /// `(sender node, source channel, sequence)` → commit instant, for
    /// the per-app latency histograms (`app.latency_ms.<port>`).
    app_sent_ms: BTreeMap<(usize, String, u64), u64>,
    /// Per node: incoming legs `(source channel, sequence)` whose next
    /// hop has been queued but not yet committed, with their route.
    pending_forward: Vec<Vec<((String, u64), usize)>>,
    routes: Vec<RouteStatus>,
    chaos: ChaosController,
    telemetry: Telemetry,
    now_ms: u64,
    stuck_refunds: u64,
    relay_errors: u64,
    /// Online health monitor (installed by [`Mesh::enable_monitor`]).
    monitor: Option<Monitor>,
    /// Handles on `telemetry` for the gauges the monitor reads each step.
    health_gauges: HealthGauges,
}

/// The gauges [`Mesh::step`] publishes for the mesh detector battery.
struct HealthGauges {
    /// `mesh.{chain}.head`, one per node.
    heads: Vec<GaugeHandle>,
    supply_drift: GaugeHandle,
    fee_imbalance: GaugeHandle,
}

impl Mesh {
    /// Boots every chain and opens every link of `config`.
    ///
    /// # Errors
    ///
    /// [`MeshError::Config`] for malformed topologies; [`MeshError::Ibc`]
    /// when a handshake fails.
    pub fn build(config: MeshConfig) -> Result<Self, MeshError> {
        config.validate().map_err(MeshError::Config)?;
        let telemetry = Telemetry::recording();
        // Per-app send→ack latency: one histogram per bound port, read by
        // the per-app regression detectors and the attribution bench.
        for app in ["transfer", "nft", "ica"] {
            telemetry
                .register_histogram(
                    &format!("app.latency_ms.{app}"),
                    &[
                        1_000.0,
                        5_000.0,
                        10_000.0,
                        30_000.0,
                        60_000.0,
                        120_000.0,
                        300_000.0,
                        900_000.0,
                        3_600_000.0,
                    ],
                )
                .expect("app-latency bounds are strictly ascending");
        }
        let port = PortId::transfer();

        let mut nodes: Vec<Node> = Vec::with_capacity(config.chains.len());
        for (i, spec) in config.chains.iter().enumerate() {
            let chain_config = spec.profile.chain_config();
            // Labelled stream per chain keeps the per-chain RNG timelines
            // apart without ad-hoc xor constants.
            let seed =
                sim_crypto::rng::seed_stream(config.seed, &format!("mesh.chain.{i}")).next_u64();
            let mut chain = CounterpartyChain::new(chain_config, seed);
            let forward_account = format!("{}:forward", spec.name);
            // The production transfer stack: fee outside hooks outside
            // forward outside the ICS-20 app (`.with` wraps, so the layer
            // added last is outermost).
            chain.ibc_mut().bind_port(
                port.clone(),
                Box::new(
                    ModuleStack::new(Box::new(TransferModule::new()))
                        .with(Box::new(ForwardMiddleware::new(forward_account.clone())))
                        .with(Box::new(MemoHookMiddleware::new()))
                        .with(Box::new(FeeMiddleware::new())),
                ),
            );
            // NFT transfers route multi-hop through the same forward
            // layer; ICA hosts execute batches against their own bank.
            chain.ibc_mut().bind_port(
                nft_port(),
                Box::new(
                    ModuleStack::new(Box::new(NftTransferApp::new()))
                        .with(Box::new(ForwardMiddleware::new(forward_account.clone()))),
                ),
            );
            chain.ibc_mut().bind_port(
                ica_port(),
                Box::new(ModuleStack::new(Box::new(
                    IcaApp::new().with_airdrop(spec.denom.clone(), ICA_AIRDROP),
                ))),
            );
            nodes.push(Node {
                name: spec.name.clone(),
                denom: spec.denom.clone(),
                forward_account,
                chain,
            });
        }

        let mut routing = RoutingTable::new(config.chains.iter().map(|c| c.name.clone()).collect());
        let mut links = Vec::with_capacity(config.links.len());
        let mut channel_links = BTreeMap::new();
        let mut clock_ms = 0;
        for spec in &config.links {
            let ia = config.chain_index(&spec.a).expect("validated");
            let ib = config.chain_index(&spec.b).expect("validated");
            let ends = {
                let (a, b) = pair(&mut nodes, ia, ib);
                open_link(&mut a.chain, &mut b.chain, &link_ports(), &mut clock_ms)
                    .map_err(MeshError::Ibc)?
            };
            routing.add_edge(ia, ib, spec.fee.message_cost());
            for (a_channel, b_channel) in &ends.channels {
                for (node, channel) in [(ia, a_channel), (ib, b_channel)] {
                    channel_links.insert((node, channel.as_str().to_string()), links.len());
                }
            }
            let [transfer, nft, ica]: [(ChannelId, ChannelId); 3] =
                ends.channels.try_into().expect("one channel pair per link port");
            links.push(Link {
                label: spec.label(),
                a: ia,
                b: ib,
                a_channel: transfer.0,
                b_channel: transfer.1,
                a_nft_channel: nft.0,
                b_nft_channel: nft.1,
                a_ica_channel: ica.0,
                b_ica_channel: ica.1,
                a_client: ends.a_client,
                b_client: ends.b_client,
                fee: spec.fee,
                next_relay_ms: 0,
                fees_charged: 0,
                deliveries: 0,
                client_updates: 0,
                from_a: Vec::new(),
                from_b: Vec::new(),
            });
        }

        // Handshake noise must not reach event dispatch, and the first
        // block check waits one interval.
        let now_ms = clock_ms;
        for node in &mut nodes {
            node.chain.drain_events();
            node.chain.defer_tick(now_ms);
        }

        let pending_forward = vec![Vec::new(); nodes.len()];
        let chaos = ChaosController::new(config.chaos.clone());
        let health_gauges = HealthGauges {
            heads: nodes
                .iter()
                .map(|node| telemetry.gauge_handle(format!("mesh.{}.head", node.name)))
                .collect(),
            supply_drift: telemetry.gauge_handle("mesh.supply.drift"),
            fee_imbalance: telemetry.gauge_handle("mesh.fees.imbalance"),
        };
        Ok(Self {
            config,
            port,
            nodes,
            links,
            routing,
            channel_links,
            legs: BTreeMap::new(),
            app_sent_ms: BTreeMap::new(),
            pending_forward,
            routes: Vec::new(),
            chaos,
            telemetry,
            now_ms,
            stuck_refunds: 0,
            relay_errors: 0,
            monitor: None,
            health_gauges,
        })
    }

    /// Installs an online health monitor over the mesh: a per-chain head
    /// staleness watchdog (`chain.staleness` over `mesh.{name}.head`
    /// gauges), the stuck-packet detector over per-leg lifecycle traces,
    /// the voucher supply-drift check (`mesh.supply.drift`), and the
    /// ICS-29 fee-conservation check (`mesh.fees.imbalance`). Idempotent
    /// in effect — installing again replaces the battery and its state.
    pub fn enable_monitor(&mut self, config: MonitorConfig) {
        let targets = self
            .nodes
            .iter()
            .map(|node| (format!("mesh.{}.head", node.name), config.head_staleness_slo_ms))
            .collect();
        let telemetry = &self.telemetry;
        let mut monitor = Monitor::new(telemetry, config.clone());
        monitor
            .push(StalenessDetector::new(telemetry, "chain.staleness", targets))
            .push(StuckPacketDetector::new(telemetry, config.stuck_packet_slo_ms))
            .push(ConservationDetector::supply_drift(telemetry, vec!["mesh.supply.drift".into()]))
            .push(ConservationDetector::fee_conservation(
                telemetry,
                vec!["mesh.fees.imbalance".into()],
            ));
        // Per-app send→ack latency lenses over the histograms registered
        // in `build`, reconciled together under one detector name so a
        // healthy app never resolves a regressing one.
        for app in ["transfer", "nft", "ica"] {
            monitor.push(LatencyRegressionDetector::new(
                telemetry,
                "app.latency.regression",
                format!("app.latency_ms.{app}"),
                &config,
            ));
        }
        self.monitor = Some(monitor);
    }

    /// The health monitor, when enabled.
    pub fn monitor(&self) -> Option<&Monitor> {
        self.monitor.as_ref()
    }

    /// Every alert the monitor fired so far (empty when monitoring is
    /// disabled).
    pub fn alert_records(&self) -> &[AlertRecord] {
        self.monitor.as_ref().map(|m| m.alert_records()).unwrap_or(&[])
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The configuration the mesh was built from.
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }

    /// All chains, in config order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links, in config order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Every routed transfer started so far.
    pub fn routes(&self) -> &[RouteStatus] {
        &self.routes
    }

    /// The routing table.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// The observability sink.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Current simulation time.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Refund legs that could not even be committed (funds parked in a
    /// forward account; zero in healthy runs).
    pub fn stuck_refunds(&self) -> u64 {
        self.stuck_refunds
    }

    /// Relay submissions that failed for reasons other than duplicates
    /// or expiry races.
    pub fn relay_errors(&self) -> u64 {
        self.relay_errors
    }

    /// Index of the named chain.
    pub fn node_index(&self, chain: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name == chain)
    }

    /// The named chain.
    pub fn node(&self, chain: &str) -> Option<&Node> {
        self.nodes.iter().find(|n| n.name == chain)
    }

    fn require(&self, chain: &str) -> Result<usize, MeshError> {
        self.node_index(chain).ok_or_else(|| MeshError::UnknownChain(chain.to_string()))
    }

    /// `account`'s balance of `denom` on `chain` (0 for unknown chains).
    pub fn balance(&self, chain: &str, account: &str, denom: &str) -> u128 {
        self.node(chain).map_or(0, |n| n.transfers().balance(account, denom))
    }

    /// Mints `amount` of `denom` to `account` on `chain` (faucet).
    ///
    /// # Errors
    ///
    /// [`MeshError::UnknownChain`].
    pub fn mint(
        &mut self,
        chain: &str,
        account: &str,
        denom: &str,
        amount: u128,
    ) -> Result<(), MeshError> {
        let index = self.require(chain)?;
        stack_mut(&mut self.nodes[index].chain, &self.port)
            .ics20_mut()
            .expect("the transfer stack wraps an ICS-20 ledger")
            .mint(account, denom, amount);
        Ok(())
    }

    /// Mints `token` of NFT `class` to `owner` on `chain` (faucet).
    ///
    /// # Errors
    ///
    /// [`MeshError::UnknownChain`]; [`MeshError::Ibc`] when the token
    /// already exists.
    pub fn mint_nft(
        &mut self,
        chain: &str,
        class: &str,
        token: &str,
        owner: &str,
    ) -> Result<(), MeshError> {
        let index = self.require(chain)?;
        stack_mut(&mut self.nodes[index].chain, &nft_port())
            .app_as_mut::<NftTransferApp>()
            .expect("mesh binds the NFT app on the nft port")
            .nft_mut()
            .mint(class, token, owner)?;
        Ok(())
    }

    /// Total supply of every voucher denomination (one or more stacked
    /// prefixes) on `chain` — zero once all routes have settled cleanly.
    pub fn voucher_outstanding(&self, chain: &str) -> u128 {
        let Some(node) = self.node(chain) else { return 0 };
        let transfers = node.transfers();
        transfers
            .denoms()
            .iter()
            .filter(|denom| ics20::base_denom(denom).1 > 0)
            .map(|denom| transfers.total_supply(denom))
            .sum()
    }

    /// Forwarded legs still awaiting ack or timeout, across all chains
    /// and app ports.
    pub fn total_in_flight(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                [self.port.clone(), nft_port()]
                    .iter()
                    .map(|port| stack(&n.chain, port).forward().map_or(0, |f| f.in_flight_len()))
                    .sum::<usize>()
            })
            .sum()
    }

    /// The telemetry run report for this mesh run.
    pub fn run_report(&self, scenario: &str) -> RunReport {
        self.telemetry.run_report(scenario, self.config.seed, self.now_ms)
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Starts a routed transfer and returns its route index (into
    /// [`Mesh::routes`]). The path is chosen by `policy`; hops beyond the
    /// first ride in the ICS-20 memo as nested forward metadata.
    ///
    /// # Errors
    ///
    /// [`MeshError::UnknownChain`], [`MeshError::NoRoute`] (also for
    /// `from == to`), or the origin chain rejecting the send.
    #[allow(clippy::too_many_arguments)]
    pub fn send_along_route(
        &mut self,
        from: &str,
        to: &str,
        sender: &str,
        receiver: &str,
        denom: &str,
        amount: u128,
        policy: &PathPolicy,
    ) -> Result<usize, MeshError> {
        let leg = self.plan_first_leg(from, to, receiver, policy, Link::channel_of)?;
        let packet = ics20::send_transfer(
            self.nodes[leg.origin].chain.ibc_mut(),
            &self.port,
            &leg.channel,
            denom,
            amount,
            sender,
            &leg.receiver,
            &leg.memo,
            leg.timeout,
        )?;
        let port = self.port.clone();
        self.escrow_packet_fee(leg.origin, &port, &leg.channel, packet.sequence, sender);
        Ok(self.track_route(from, to, leg, receiver, denom, amount, packet.sequence))
    }

    /// Starts a routed NFT transfer of `tokens` in `class` and returns
    /// its route index (into [`Mesh::routes`]). Hops beyond the first
    /// ride in the NFT packet memo as nested forward metadata, exactly
    /// like fungible routes — each intermediate chain's NFT forward
    /// layer re-sends the vouchers (stacking one class prefix per hop)
    /// and unwinds hop by hop on failure.
    ///
    /// # Errors
    ///
    /// [`MeshError::UnknownChain`], [`MeshError::NoRoute`] (also for
    /// `from == to`), or the origin chain rejecting the send (unknown
    /// token, wrong owner).
    #[allow(clippy::too_many_arguments)]
    pub fn send_nft_along_route(
        &mut self,
        from: &str,
        to: &str,
        sender: &str,
        receiver: &str,
        class: &str,
        tokens: &[String],
        policy: &PathPolicy,
    ) -> Result<usize, MeshError> {
        let leg = self.plan_first_leg(from, to, receiver, policy, Link::nft_channel_of)?;
        let packet = apps::send_nft(
            self.nodes[leg.origin].chain.ibc_mut(),
            &nft_port(),
            &leg.channel,
            class,
            tokens,
            sender,
            &leg.receiver,
            &leg.memo,
            leg.timeout,
        )?;
        let amount = tokens.len() as u128;
        Ok(self.track_route(from, to, leg, receiver, class, amount, packet.sequence))
    }

    /// The head every routed send shares: picks the path and works out
    /// what the origin must put in the first hop's packet, on the per-link
    /// channel `pick` selects.
    fn plan_first_leg(
        &self,
        from: &str,
        to: &str,
        receiver: &str,
        policy: &PathPolicy,
        pick: ChannelPick,
    ) -> Result<FirstLeg, MeshError> {
        let origin = self.require(from)?;
        let dest = self.require(to)?;
        let hops = self
            .routing
            .route(from, to, policy)
            .filter(|hops| !hops.is_empty())
            .ok_or_else(|| MeshError::NoRoute { from: from.to_string(), to: to.to_string() })?;
        Ok(FirstLeg {
            origin,
            dest,
            hops: hops.len(),
            channel: pick(&self.links[hops[0].edge], origin).clone(),
            receiver: if hops.len() == 1 {
                receiver.to_string()
            } else {
                self.nodes[hops[0].to].forward_account.clone()
            },
            memo: self.route_memo(&hops, receiver, pick),
            timeout: Timeout::at_time(self.now_ms + self.config.hop_timeout_ms),
        })
    }

    /// The tail every routed send shares, once the origin committed the
    /// first leg as `sequence`: opens the route trace, records the route
    /// and ties the leg to it. Returns the route index.
    #[allow(clippy::too_many_arguments)]
    fn track_route(
        &mut self,
        from: &str,
        to: &str,
        leg: FirstLeg,
        receiver: &str,
        denom: &str,
        amount: u128,
        sequence: u64,
    ) -> usize {
        let route = self.routes.len();
        let label = format!("route-{route}:{from}->{to}");
        let trace = self.telemetry.trace_for_route(&label);
        if let Some(trace) = trace {
            self.telemetry.event(
                self.now_ms,
                names::ROUTE_START,
                &[trace],
                &[
                    ("from", from.into()),
                    ("to", to.into()),
                    ("hops", leg.hops.into()),
                    ("denom", denom.into()),
                ],
            );
        }
        self.routes.push(RouteStatus {
            label,
            origin: leg.origin,
            dest: leg.dest,
            receiver: receiver.to_string(),
            denom: denom.to_string(),
            amount,
            trace,
            delivered: false,
            refunded: false,
            sent_ms: self.now_ms,
            settled_ms: None,
        });
        self.legs.insert(
            (leg.origin, leg.channel.as_str().to_string(), sequence),
            LegInfo { route, refund: false, final_leg: leg.hops == 1 },
        );
        route
    }

    /// Registers an interchain account for `owner` on `host`, controlled
    /// from `controller`, over their direct link's ica-port channel.
    /// The host airdrops [`ICA_AIRDROP`] of its native denom into the
    /// new account once the packet lands.
    ///
    /// # Errors
    ///
    /// [`MeshError::UnknownChain`]; [`MeshError::NoRoute`] when the two
    /// chains share no direct link (ICA channels do not forward); or the
    /// controller chain rejecting the send.
    pub fn ica_register_on(
        &mut self,
        controller: &str,
        host: &str,
        owner: &str,
    ) -> Result<(), MeshError> {
        let (ci, channel) = self.ica_endpoint(controller, host)?;
        let timeout = Timeout::at_time(self.now_ms + self.config.hop_timeout_ms);
        apps::ica_register(self.nodes[ci].chain.ibc_mut(), &ica_port(), &channel, owner, timeout)?;
        Ok(())
    }

    /// Sends an ICA execute batch for `owner` from `controller` to
    /// `host`. The host runs the batch atomically against its bank; the
    /// outcome lands controller-side as an [`apps::IcaOutcome`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mesh::ica_register_on`].
    pub fn ica_execute_on(
        &mut self,
        controller: &str,
        host: &str,
        owner: &str,
        ops: Vec<IcaOp>,
    ) -> Result<(), MeshError> {
        let (ci, channel) = self.ica_endpoint(controller, host)?;
        let timeout = Timeout::at_time(self.now_ms + self.config.hop_timeout_ms);
        apps::ica_execute(
            self.nodes[ci].chain.ibc_mut(),
            &ica_port(),
            &channel,
            owner,
            ops,
            timeout,
        )?;
        Ok(())
    }

    /// The controller-side ica channel of the direct link between two
    /// named chains.
    fn ica_endpoint(&self, controller: &str, host: &str) -> Result<(usize, ChannelId), MeshError> {
        let ci = self.require(controller)?;
        let hi = self.require(host)?;
        let link = self
            .links
            .iter()
            .find(|l| (l.a == ci && l.b == hi) || (l.a == hi && l.b == ci))
            .ok_or_else(|| MeshError::NoRoute {
                from: controller.to_string(),
                to: host.to_string(),
            })?;
        Ok((ci, link.ica_channel_of(ci).clone()))
    }

    /// Escrows the configured ICS-29 packet fee for a just-committed
    /// origin send. Best effort: a payer who cannot cover the fee sends
    /// fee-free and bumps `mesh.fees.unfunded`.
    fn escrow_packet_fee(
        &mut self,
        origin: usize,
        port: &PortId,
        channel: &ChannelId,
        sequence: u64,
        payer: &str,
    ) {
        let Some(fee) = self.config.packet_fee else { return };
        let denom = self.nodes[origin].denom.clone();
        let escrowed = stack_mut(&mut self.nodes[origin].chain, port)
            .escrow_fee(channel, sequence, fee, payer, &denom);
        if escrowed.is_err() {
            self.telemetry.counter_add("mesh.fees.unfunded", 1);
        }
    }

    /// Nested forward metadata for `hops[1..]`, rendered as a memo
    /// (empty for direct transfers), with the per-link channel chosen by
    /// `pick` (transfer channels for ICS-20 routes, NFT channels for NFT
    /// routes).
    fn route_memo(&self, hops: &[RouteHop], receiver: &str, pick: ChannelPick) -> String {
        let mut meta: Option<ForwardMetadata> = None;
        for (index, hop) in hops.iter().enumerate().skip(1).rev() {
            let channel = pick(&self.links[hop.edge], hop.from);
            let hop_receiver = if index + 1 == hops.len() {
                receiver.to_string()
            } else {
                self.nodes[hop.to].forward_account.clone()
            };
            let mut m = ForwardMetadata::new(hop_receiver, channel);
            if let Some(rest) = meta.take() {
                m = m.with_next(rest);
            }
            meta = Some(m);
        }
        meta.map(|m| m.to_memo()).unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Stepping
    // ------------------------------------------------------------------

    /// Advances the mesh one step.
    pub fn step(&mut self) {
        self.now_ms += STEP_MS;
        let now = self.now_ms;
        self.dispatch_events(now);
        self.drain_outboxes(now);
        self.produce_blocks(now);
        self.expire_pending(now);
        self.relay_links(now);
        if self.monitor.is_some() {
            self.publish_health_gauges(now);
        }
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.tick(now);
        }
    }

    /// Publishes the gauges the mesh detector battery watches: per-chain
    /// head heights, the voucher supply drift and the fee imbalance.
    fn publish_health_gauges(&self, now: u64) {
        if !self.telemetry.is_recording() {
            return;
        }
        let gauges = &self.health_gauges;
        for (node, head) in self.nodes.iter().zip(&gauges.heads) {
            head.set_at(now, node.chain.height() as f64);
        }
        gauges.supply_drift.set_at(now, self.supply_drift() as f64);
        gauges.fee_imbalance.set_at(now, self.fee_imbalance() as f64);
    }

    /// ICS-29 fee-conservation imbalance ([`invariants::fee_imbalance`])
    /// summed over every chain's transfer stack. Zero on every healthy mesh
    /// at every instant.
    pub fn fee_imbalance(&self) -> u128 {
        self.nodes
            .iter()
            .filter_map(|node| invariants::fee_imbalance(node.chain.ibc(), &self.port))
            .map(|(imbalance, _)| imbalance)
            .sum()
    }

    /// Fee-flow totals summed over every chain's transfer stack.
    pub fn fee_totals(&self) -> apps::FeeTotals {
        let mut totals = apps::FeeTotals::default();
        for node in &self.nodes {
            if let Some(fees) = node.transfer_stack().fees() {
                let t = fees.totals();
                totals.escrowed += t.escrowed;
                totals.paid += t.paid;
                totals.refunded += t.refunded;
                totals.pending += t.pending;
            }
        }
        totals
    }

    /// Voucher units in circulation beyond their escrow backing
    /// ([`invariants::ics20_backing`]), summed over every link and
    /// direction. Stacked multi-hop prefixes unwind one layer per link, so
    /// a clean mesh always nets to zero and only an unbacked mint (or a
    /// conservation bug) shows up.
    pub fn supply_drift(&self) -> u128 {
        let ibc = |node: usize| self.nodes[node].chain.ibc();
        self.links
            .iter()
            .filter_map(|l| {
                invariants::ics20_backing(
                    &self.port,
                    ibc(l.a),
                    &l.a_channel,
                    ibc(l.b),
                    &l.b_channel,
                )
            })
            .flatten()
            .map(|row| row.unbacked())
            .sum()
    }

    /// NFT analogue of [`Mesh::supply_drift`]: voucher tokens whose escrow
    /// backing is missing ([`invariants::nft_unbacked`]), summed over every
    /// link and direction. Zero on a clean mesh, whether tokens are at rest
    /// or hop-escrowed mid-route.
    pub fn nft_supply_drift(&self) -> u64 {
        let ibc = |node: usize| self.nodes[node].chain.ibc();
        let port = nft_port();
        self.links
            .iter()
            .map(|l| {
                invariants::nft_unbacked(
                    &port,
                    ibc(l.a),
                    &l.a_nft_channel,
                    ibc(l.b),
                    &l.b_nft_channel,
                )
            })
            .sum()
    }

    /// Runs for `duration_ms` of simulated time.
    pub fn run_for(&mut self, duration_ms: u64) {
        let until = self.now_ms + duration_ms;
        while self.now_ms < until {
            self.step();
        }
    }

    /// Runs until `route` settles (delivered or refunded) or `timeout_ms`
    /// of simulated time passes; returns whether it settled.
    pub fn run_until_settled(&mut self, route: usize, timeout_ms: u64) -> bool {
        let until = self.now_ms + timeout_ms;
        while self.now_ms < until && !self.routes[route].settled() {
            self.step();
        }
        self.routes[route].settled()
    }

    /// Drives the mesh with a [`workload`] traffic stream for
    /// `duration_ms` of simulated time, then keeps stepping for up to
    /// `drain_ms` so in-flight routes can settle.
    ///
    /// Each user lives on a fixed home chain (round-robin by user id) and
    /// is pre-funded with the workload's `initial_balance` of that chain's
    /// native denom. Every arrival moves the sampled amount from the
    /// user's home chain to a destination drawn from a dedicated
    /// `(seed, "mesh.traffic.routes")` stream, so the whole run is a pure
    /// function of `(topology, traffic, seed)`. Arrivals whose sampled
    /// amount came back zero (broke user) are skipped, mirroring the
    /// testnet harness.
    ///
    /// When the workload's [`workload::AppMix`] routes a share of
    /// arrivals through the NFT or interchain-account apps, the per-
    /// arrival app draw comes from its own `(seed, "mesh.traffic.apps")`
    /// stream — created only for mixed configs, so pure-transfer runs
    /// keep their exact pre-apps RNG timeline. NFT arrivals mint a fresh
    /// token on the user's home chain and route it like a transfer; ICA
    /// arrivals register (first contact) or run a one-op batch against
    /// the first direct neighbor toward the drawn destination.
    ///
    /// # Errors
    ///
    /// [`MeshError::Config`] when the topology has fewer than two chains;
    /// mint failures cannot occur for chains the mesh itself built.
    pub fn run_with_traffic(
        &mut self,
        traffic: &workload::TrafficConfig,
        seed: u64,
        duration_ms: u64,
        drain_ms: u64,
    ) -> Result<TrafficOutcome, MeshError> {
        if self.nodes.len() < 2 {
            return Err(MeshError::Config("traffic runs need at least two chains".to_string()));
        }
        let mut generator = workload::TrafficGenerator::new(traffic.clone(), seed);
        let mut route_rng = sim_crypto::rng::seed_stream(seed, "mesh.traffic.routes");
        let chains = self.nodes.len();
        for user in 0..traffic.users {
            let home = user as usize % chains;
            let (name, denom) = (self.nodes[home].name.clone(), self.nodes[home].denom.clone());
            self.mint(&name, &generator.population().name(user), &denom, traffic.initial_balance)?;
        }

        let start_route = self.routes.len();
        let mut outcome = TrafficOutcome::default();
        let until = self.now_ms + duration_ms;
        let offset = self.now_ms;
        let mut app_rng = traffic
            .apps
            .is_mixed()
            .then(|| sim_crypto::rng::seed_stream(seed, "mesh.traffic.apps"));
        let mut ica_registered: std::collections::BTreeSet<(u32, usize)> = Default::default();
        let mut nft_seq = 0u64;
        while self.now_ms < until {
            // Fire every arrival due by the *end* of this step, then step.
            let due = self.now_ms + STEP_MS - offset;
            while let Some(arrival) = generator.pop_due(due) {
                // Destination draw happens even for skipped arrivals so
                // the route stream stays aligned with the arrival stream.
                let home = arrival.user as usize % chains;
                let hop = 1 + route_rng.next_below(chains as u64 - 1) as usize;
                let dest = (home + hop) % chains;
                if arrival.amount == 0 {
                    outcome.skipped_broke += 1;
                    continue;
                }
                let (from, denom) = (self.nodes[home].name.clone(), self.nodes[home].denom.clone());
                let to = self.nodes[dest].name.clone();
                let user = generator.population().name(arrival.user);
                let app = match app_rng.as_mut() {
                    Some(rng) => traffic.apps.classify(rng.next_f64()),
                    None => workload::AppKind::Transfer,
                };
                let sent = match app {
                    workload::AppKind::Transfer => self
                        .send_along_route(
                            &from,
                            &to,
                            &user,
                            &user,
                            &denom,
                            arrival.amount,
                            &PathPolicy::FewestHops,
                        )
                        .map(|_| ()),
                    workload::AppKind::Nft => {
                        let class = format!("{from}-art");
                        let token = format!("nft-{nft_seq}");
                        nft_seq += 1;
                        self.mint_nft(&from, &class, &token, &user).and_then(|()| {
                            self.send_nft_along_route(
                                &from,
                                &to,
                                &user,
                                &user,
                                &class,
                                &[token],
                                &PathPolicy::FewestHops,
                            )
                            .map(|_| ())
                        })
                    }
                    workload::AppKind::Ica => {
                        // ICA channels do not forward, so the host is the
                        // first direct neighbor toward the drawn dest.
                        let host = self
                            .routing
                            .route(&from, &to, &PathPolicy::FewestHops)
                            .and_then(|hops| hops.first().map(|hop| hop.to));
                        match host {
                            Some(hi) => {
                                let host = self.nodes[hi].name.clone();
                                if ica_registered.insert((arrival.user, hi)) {
                                    self.ica_register_on(&from, &host, &user)
                                } else {
                                    let op = IcaOp::Send {
                                        denom: self.nodes[hi].denom.clone(),
                                        amount: 1 + arrival.amount % 100,
                                        to: user.clone(),
                                    };
                                    self.ica_execute_on(&from, &host, &user, vec![op])
                                }
                            }
                            None => Err(MeshError::NoRoute { from, to }),
                        }
                    }
                };
                match sent {
                    Ok(()) => outcome.sent += 1,
                    Err(_) => outcome.unroutable += 1,
                }
            }
            self.step();
        }
        // Settle what is still in flight (no new arrivals).
        let drain_until = self.now_ms + drain_ms;
        while self.now_ms < drain_until && self.routes[start_route..].iter().any(|r| !r.settled()) {
            self.step();
        }
        for route in &self.routes[start_route..] {
            if route.delivered {
                outcome.delivered += 1;
            } else if route.refunded {
                outcome.refunded += 1;
            }
        }
        outcome.in_flight = self.total_in_flight();
        Ok(outcome)
    }

    /// Phase 2: commit every queued next-hop / refund transfer, on every
    /// app port that stacks a forward layer.
    fn drain_outboxes(&mut self, now: u64) {
        for i in 0..self.nodes.len() {
            if self.chaos.chain_halted(&self.nodes[i].name, now) {
                continue;
            }
            for port in [self.port.clone(), nft_port()] {
                loop {
                    let requests = stack_mut(&mut self.nodes[i].chain, &port).take_requests();
                    if requests.is_empty() {
                        break;
                    }
                    for request in requests {
                        self.send_request(i, request, now);
                    }
                }
            }
        }
    }

    /// Commits one stack request on `node`, wiring the new leg into its
    /// route's bookkeeping. The asset kind picks the send path: ICS-20
    /// transfers and NFT sends commit through the stack on the request's
    /// own port.
    fn send_request(&mut self, node: usize, request: StackRequest, now: u64) {
        let route = match &request.kind {
            ForwardKind::Forward { incoming_channel, incoming_sequence } => {
                let key = (incoming_channel.as_str().to_string(), *incoming_sequence);
                let pending = &mut self.pending_forward[node];
                pending.iter().position(|(k, _)| *k == key).map(|pos| pending.remove(pos).1)
            }
            ForwardKind::Refund { failed_channel, failed_sequence } => self
                .legs
                .get(&(node, failed_channel.as_str().to_string(), *failed_sequence))
                .map(|leg| leg.route),
        };
        let is_refund = matches!(request.kind, ForwardKind::Refund { .. });
        let timeout = Timeout::at_time(now + self.config.hop_timeout_ms);
        let sender = self.nodes[node].forward_account.clone();
        let sent = match &request.asset {
            AssetUnit::Fungible { denom, amount } => ics20::send_transfer(
                self.nodes[node].chain.ibc_mut(),
                &request.port,
                &request.channel,
                denom,
                *amount,
                &sender,
                &request.receiver,
                &request.memo,
                timeout,
            ),
            AssetUnit::NonFungible { class, tokens } => apps::send_nft(
                self.nodes[node].chain.ibc_mut(),
                &request.port,
                &request.channel,
                class,
                tokens,
                &sender,
                &request.receiver,
                &request.memo,
                timeout,
            ),
        };
        match sent {
            Ok(packet) => {
                if let Some(hop) = request.in_flight {
                    stack_mut(&mut self.nodes[node].chain, &request.port)
                        .forward_mut()
                        .expect("forwarded legs originate in a forward layer")
                        .register_in_flight(&request.channel, packet.sequence, hop);
                }
                if let Some(route) = route {
                    self.legs.insert(
                        (node, request.channel.as_str().to_string(), packet.sequence),
                        LegInfo {
                            route,
                            refund: is_refund,
                            final_leg: !is_refund && request.memo.is_empty(),
                        },
                    );
                }
            }
            Err(_) => {
                // The commit rolled back, so the forward account still
                // holds the funds. Forward legs unwind toward the origin;
                // a refund leg that cannot move leaves them parked.
                self.telemetry.counter_add("mesh.send_errors", 1);
                match request.in_flight {
                    Some(hop) => {
                        let kind = request.kind.clone();
                        let refund = stack_mut(&mut self.nodes[node].chain, &request.port)
                            .forward_mut()
                            .expect("forwarded legs originate in a forward layer")
                            .fail_forward(hop, kind);
                        // Unwind immediately: the refund leg goes through
                        // the same commit path (its own failure parks the
                        // funds via the `None` arm below).
                        self.send_request(node, refund, now);
                    }
                    None => self.stuck_refunds += 1,
                }
            }
        }
    }

    /// Phase 3: every chain not halted ticks its block cadence
    /// (`CounterpartyChain::tick`).
    fn produce_blocks(&mut self, now: u64) {
        for node in &mut self.nodes {
            if !self.chaos.chain_halted(&node.name, now) {
                node.chain.tick(now);
            }
        }
    }

    /// Phase 1: route each chain's IBC events into link queues, route
    /// bookkeeping and telemetry, in emission order, each provable from
    /// the height the chain stamped it with.
    fn dispatch_events(&mut self, now: u64) {
        for i in 0..self.nodes.len() {
            for (event, provable_from) in self.nodes[i].chain.drain_events() {
                let Some(step) = event.packet_step() else { continue };
                // The link a peer's packet arrived over (`None`: sent here).
                let arrival = if step.sent_here {
                    None
                } else {
                    let channel = step.packet.destination_channel.as_str().to_string();
                    let Some(&li) = self.channel_links.get(&(i, channel)) else { continue };
                    Some(li)
                };
                let origin = arrival.map_or(i, |li| self.links[li].peer_of(i));
                self.emit_packet_event(&step, origin, now);
                match (event, arrival) {
                    (IbcEvent::SendPacket { packet }, _) => {
                        self.on_send(i, packet, provable_from, now);
                    }
                    (IbcEvent::RecvPacket { packet }, Some(li)) => {
                        self.on_recv(i, li, packet, now);
                    }
                    (IbcEvent::WriteAcknowledgement { packet, ack }, Some(li)) => {
                        self.on_ack_written(i, li, packet, ack, provable_from, now);
                    }
                    (IbcEvent::AcknowledgePacket { packet }, _) => {
                        self.emit_app_dispatch(i, i, &packet.source_port, &packet, now, "ack");
                    }
                    (IbcEvent::TimeoutPacket { packet }, _) => self.on_timeout(i, packet, now),
                    _ => {}
                }
            }
        }
    }

    /// Emits one packet-lifecycle event, linked to the packet trace (keyed
    /// by the *sending* chain `origin`) and, when the leg belongs to a
    /// route, the route trace.
    fn emit_packet_event(&self, step: &PacketStep<'_>, origin: usize, now: u64) {
        if !self.telemetry.is_recording() {
            return;
        }
        let (packet, chain) = (step.packet, self.nodes[origin].name.as_str());
        let mut traces = Vec::new();
        if let Some(trace) =
            self.telemetry.trace_for_packet(chain, packet.source_channel.as_str(), packet.sequence)
        {
            traces.push(trace);
        }
        if let Some(leg) =
            self.legs.get(&(origin, packet.source_channel.as_str().to_string(), packet.sequence))
        {
            if let Some(route_trace) = self.routes[leg.route].trace {
                traces.push(route_trace);
            }
        }
        self.telemetry.event(now, step.name, &traces, &step.fields(chain));
    }

    /// Emits the zero-width `app.dispatch` milestone: `chain`'s module
    /// stack on `port` handled a lifecycle phase of this packet. App
    /// dispatch costs no simulated time, so this is a point event; the
    /// causal graph counts these per packet and the `layers` field
    /// records how deep the middleware stack ran.
    fn emit_app_dispatch(
        &self,
        chain: usize,
        origin: usize,
        port: &PortId,
        packet: &Packet,
        now: u64,
        phase: &str,
    ) {
        if !self.telemetry.is_recording() {
            return;
        }
        let Some(trace) = self.telemetry.trace_for_packet(
            &self.nodes[origin].name,
            packet.source_channel.as_str(),
            packet.sequence,
        ) else {
            return;
        };
        let layers = self.nodes[chain]
            .chain
            .ibc()
            .module(port)
            .and_then(|m| m.as_any().downcast_ref::<ModuleStack>())
            .map(|s| s.layer_names().len() as u64)
            .unwrap_or(0);
        self.telemetry.event(
            now,
            names::APP_DISPATCH,
            &[trace],
            &[
                ("chain", self.nodes[chain].name.as_str().into()),
                ("app", port.as_str().into()),
                ("phase", phase.into()),
                ("layers", layers.into()),
            ],
        );
    }

    fn on_send(&mut self, i: usize, packet: Packet, provable_from: u64, now: u64) {
        self.telemetry.counter_add("mesh.packets.sent", 1);
        self.app_sent_ms
            .insert((i, packet.source_channel.as_str().to_string(), packet.sequence), now);
        if let Some(&li) = self.channel_links.get(&(i, packet.source_channel.as_str().to_string()))
        {
            self.links[li].queue_of(i).push((RelayMsg::Recv { packet }, provable_from));
        }
    }

    fn on_recv(&mut self, i: usize, li: usize, packet: Packet, now: u64) {
        self.telemetry.counter_add("mesh.packets.delivered", 1);
        let peer = self.links[li].peer_of(i);
        self.emit_app_dispatch(i, peer, &packet.destination_port.clone(), &packet, now, "recv");

        let key = (peer, packet.source_channel.as_str().to_string(), packet.sequence);
        let Some(leg) = self.legs.get(&key).copied() else { return };
        let chain_field: telemetry::FieldValue = self.nodes[i].name.as_str().into();
        let route = &mut self.routes[leg.route];
        let route_traces: Vec<TraceId> = route.trace.into_iter().collect();
        if leg.refund {
            if i == route.origin {
                if !route.refunded {
                    route.refunded = true;
                    route.settled_ms = Some(now);
                    self.telemetry.counter_add("mesh.routes.refunded", 1);
                    self.telemetry.event(
                        now,
                        names::ROUTE_REFUNDED,
                        &route_traces,
                        &[("chain", chain_field)],
                    );
                }
            } else {
                // An intermediate hop taking custody of the refund; the
                // middleware queues the next leg backwards.
                self.telemetry.event(
                    now,
                    names::PACKET_FORWARD,
                    &route_traces,
                    &[("chain", chain_field), ("direction", "backward".into())],
                );
            }
        } else if !leg.final_leg {
            // Intermediate forward hop: the middleware queued the next
            // leg; remember the route so the committed leg inherits it.
            self.telemetry.event(
                now,
                names::PACKET_FORWARD,
                &route_traces,
                &[("chain", chain_field), ("direction", "forward".into())],
            );
            self.pending_forward[i]
                .push(((packet.source_channel.as_str().to_string(), packet.sequence), leg.route));
        }
    }

    /// An origin leg timing out refunds the sender in place (the ICS-20
    /// module reverses the debit; there is no separate refund packet), so
    /// the route settles here. Intermediate legs instead unwind through
    /// the middleware's refund transfers.
    fn on_timeout(&mut self, i: usize, packet: Packet, now: u64) {
        self.telemetry.counter_add("mesh.packets.timed_out", 1);
        self.emit_app_dispatch(i, i, &packet.source_port.clone(), &packet, now, "timeout");
        let key = (i, packet.source_channel.as_str().to_string(), packet.sequence);
        self.app_sent_ms.remove(&key);
        let Some(leg) = self.legs.get(&key).copied() else { return };
        let route = &mut self.routes[leg.route];
        if !leg.refund && i == route.origin && !route.settled() {
            route.refunded = true;
            route.settled_ms = Some(now);
            let route_traces: Vec<TraceId> = route.trace.into_iter().collect();
            self.telemetry.counter_add("mesh.routes.refunded", 1);
            self.telemetry.event(
                now,
                names::ROUTE_REFUNDED,
                &route_traces,
                &[("chain", self.nodes[i].name.as_str().into())],
            );
        }
    }

    /// A written acknowledgement is the receiving app's verdict, so a
    /// route's final leg counts as delivered here — on a *success* ack —
    /// not on packet receipt: an error ack (receiver rejected the
    /// credit) settles through the refund path instead.
    fn on_ack_written(
        &mut self,
        i: usize,
        li: usize,
        packet: Packet,
        ack: Acknowledgement,
        provable_from: u64,
        now: u64,
    ) {
        let peer = self.links[li].peer_of(i);
        if !ack.is_success() {
            self.telemetry.counter_add("mesh.acks.error", 1);
        }
        // The written ack closes the app-level exchange: observe the
        // send→ack-written latency under the packet's port (its app).
        let sent_key = (peer, packet.source_channel.as_str().to_string(), packet.sequence);
        if let Some(sent_ms) = self.app_sent_ms.remove(&sent_key) {
            if ack.is_success() {
                self.telemetry.observe(
                    &format!("app.latency_ms.{}", packet.source_port.as_str()),
                    now.saturating_sub(sent_ms) as f64,
                );
            }
        }
        if ack.is_success() {
            let key = (peer, packet.source_channel.as_str().to_string(), packet.sequence);
            if let Some(leg) = self.legs.get(&key).copied() {
                let route = &mut self.routes[leg.route];
                if !leg.refund && leg.final_leg && !route.delivered {
                    route.delivered = true;
                    route.settled_ms = Some(now);
                    self.telemetry.counter_add("mesh.routes.delivered", 1);
                    let route_traces: Vec<TraceId> = route.trace.into_iter().collect();
                    self.telemetry.event(
                        now,
                        names::ROUTE_DELIVERED,
                        &route_traces,
                        &[("chain", self.nodes[i].name.as_str().into())],
                    );
                }
            }
        }
        self.links[li].queue_of(i).push((RelayMsg::Ack { packet, ack }, provable_from));
    }

    /// Phase 4: receives whose packet expired on the destination's clock
    /// become timeout messages in the reverse direction (the proof of
    /// non-receipt comes from the destination).
    fn expire_pending(&mut self, _now: u64) {
        for link in &mut self.links {
            for from_a in [true, false] {
                let (dst, queue, reverse) = if from_a {
                    (link.b, &mut link.from_a, &mut link.from_b)
                } else {
                    (link.a, &mut link.from_b, &mut link.from_a)
                };
                let Some(commit) = self.nodes[dst].chain.latest_commit() else { continue };
                for (msg, provable_from) in std::mem::take(queue) {
                    match msg.expire(commit.height, commit.timestamp_ms) {
                        (timeout, true) => reverse.push((timeout, 0)),
                        (msg, false) => queue.push((msg, provable_from)),
                    }
                }
            }
        }
    }

    /// Phase 5: wake due link relayers. Per link, each direction is
    /// proven and then submitted, A's steps first. Proofs come from the
    /// source's committed checkpoint, so the client update and messages
    /// one direction submits — which mutate that direction's destination,
    /// the other's source — cannot unprove the other direction's steps.
    fn relay_links(&mut self, now: u64) {
        for li in 0..self.links.len() {
            if now < self.links[li].next_relay_ms {
                continue;
            }
            self.links[li].next_relay_ms = now + RELAY_INTERVAL_MS;
            if self.chaos.link_down(&self.links[li].label, now) {
                continue;
            }
            let (a, b) = (self.links[li].a, self.links[li].b);
            if self.chaos.chain_halted(&self.nodes[a].name, now)
                || self.chaos.chain_halted(&self.nodes[b].name, now)
            {
                continue;
            }
            if self.links[li].backlog() == 0 {
                continue;
            }
            for from_a in [true, false] {
                let proven = self.prove_direction(li, from_a);
                self.submit_direction(li, from_a, proven);
            }
        }
    }

    /// Step one for one direction: proves, at the source's latest commit
    /// and without touching either chain's state, every queued step that
    /// commit holds — receives, then acks, then timeouts. Steps it does
    /// not hold yet stay queued and are not tried: a proof is never built
    /// at a height whose block cannot hold the step. `None`: nothing to
    /// submit.
    fn prove_direction(&mut self, li: usize, from_a: bool) -> Option<Proven> {
        let link = &mut self.links[li];
        let (src_i, queue) =
            if from_a { (link.a, &mut link.from_a) } else { (link.b, &mut link.from_b) };
        let src = &self.nodes[src_i].chain;
        let commit = src.latest_commit()?;
        let height = commit.height;
        if queue.iter().all(|&(_, provable_from)| provable_from > height) {
            return None;
        }
        let consensus = ConsensusState { root: commit.app_hash, timestamp_ms: commit.timestamp_ms };

        let mut pending = std::mem::take(queue);
        pending.sort_by_key(|(msg, _)| msg.kind() as u8);
        let mut proven = Vec::new();
        let mut errors = 0;
        for (msg, provable_from) in pending {
            if provable_from > height {
                queue.push((msg, provable_from));
                continue;
            }
            match msg.prove(height, &consensus, |key| src.prove_at(height, key)) {
                Ok(proof) => proven.push((msg, proof)),
                // Only a timeout waits: the proven consensus state itself
                // must be past the expiry.
                Err(Unproven::NotYet) => queue.push((msg, height + 1)),
                Err(Unproven::Never) => errors += 1,
            }
        }
        // Only a batch that goes out needs the commit's signatures.
        let proven =
            (!proven.is_empty()).then(|| (src.latest_header().expect("committed above"), proven));
        self.count_relay_errors(errors);
        proven
    }

    /// Step two for one direction: a client update first when the
    /// destination's view is stale, then every proven message.
    fn submit_direction(&mut self, li: usize, from_a: bool, proven: Option<Proven>) {
        let Some((header, proven)) = proven else { return };
        let link = &mut self.links[li];
        let (dst_i, client, reverse) = if from_a {
            (link.b, &link.b_client, &mut link.from_b)
        } else {
            (link.a, &link.a_client, &mut link.from_a)
        };
        let fee = link.fee;
        let dst = &mut self.nodes[dst_i].chain;
        let (mut fees, mut errors) = (0u64, 0u64);

        let latest = dst.ibc().client(client).expect("link clients exist").latest_height();
        if header.height > latest {
            if dst.ibc_mut().update_client(client, &header.encode()).is_ok() {
                fees += fee.update_cost(header.signatures.len() as u64);
                link.client_updates += 1;
            } else {
                errors += 1;
            }
        }
        for (msg, proof) in proven {
            let is_recv = matches!(msg, RelayMsg::Recv { .. });
            let now = dst.host_time();
            match msg.submit(dst.ibc_mut(), header.height, &proof, now) {
                Submitted::Accepted => {
                    fees += fee.message_cost();
                    link.deliveries += u64::from(is_recv);
                }
                Submitted::Duplicate => {}
                // Expired in the gap since the last expiry scan: this
                // side proves the timeout, at any height past the expiry.
                Submitted::Expired(timeout) => reverse.push((timeout, 0)),
                Submitted::Rejected(_) => errors += 1,
            }
        }

        link.fees_charged += fees;
        if fees > 0 {
            self.telemetry.counter_add("mesh.fees", fees);
        }
        self.count_relay_errors(errors);
    }

    fn count_relay_errors(&mut self, errors: u64) {
        if errors > 0 {
            self.relay_errors += errors;
            self.telemetry.counter_add("mesh.relay.errors", errors);
        }
    }
}

impl core::fmt::Debug for Mesh {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Mesh")
            .field("chains", &self.nodes.len())
            .field("links", &self.links.len())
            .field("routes", &self.routes.len())
            .field("now_ms", &self.now_ms)
            .finish()
    }
}
