//! The application/middleware stack: [`IbcApplication`] at the bottom,
//! any number of [`Middleware`] layers around it, composed into a
//! [`ModuleStack`] that implements [`ibc_core::Module`] — so a whole
//! stack binds to a port exactly where a bare module used to.
//!
//! Dispatch is onion-shaped. For an inbound packet the layers run
//! outermost-first: each middleware's `before_recv` may pass the packet
//! on ([`RecvDecision::Continue`]) or short-circuit the rest of the
//! stack with its own acknowledgement ([`RecvDecision::Stop`] — the
//! packet-forward middleware does this for routed legs). The
//! application's `on_recv_packet` runs at the centre, then `after_recv`
//! hooks unwind innermost-first, each free to rewrite the
//! acknowledgement (the memo-hook middleware uses this). Ack and
//! timeout callbacks mirror the shape with `before_*`/`after_*` pairs
//! around the application, as does the channel-open callback.
//!
//! Middleware sees the rest of the stack through [`InnerStack`]: the
//! layers inside it plus the application, with typed access to the
//! ICS-20 ledger ([`InnerStack::ics20_mut`]) and the app's
//! [`ForwardHooks`], plus [`InnerStack::queue`] for outgoing sends.
//! Module callbacks cannot commit packets (no store access), so queued
//! [`StackRequest`]s sit in the stack outbox until the harness drains
//! them via [`ModuleStack::take_requests`] — the same discipline the
//! original single-purpose forward middleware used.

use std::any::Any;

use ibc_core::channel::{Acknowledgement, Packet};
use ibc_core::forward::ForwardKind;
use ibc_core::ics20::TransferModule;
use ibc_core::router::{EchoModule, Module};
use ibc_core::types::{ChannelId, IbcError, PortId};

use crate::fee::{FeeMiddleware, PacketFee, FEE_ESCROW_ACCOUNT};

/// One transferable asset, as application/middleware layers see it: the
/// fungible (ICS-20) and non-fungible (ICS-721-style) cases the routing
/// middleware treats uniformly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AssetUnit {
    /// An ICS-20 amount of one denomination.
    Fungible {
        /// Denomination, possibly voucher-prefixed.
        denom: String,
        /// Amount transferred.
        amount: u128,
    },
    /// A set of tokens of one NFT class.
    NonFungible {
        /// Class id, possibly voucher-prefixed.
        class: String,
        /// Token ids moved together.
        tokens: Vec<String>,
    },
}

impl AssetUnit {
    /// The denomination or class id.
    pub fn id(&self) -> &str {
        match self {
            Self::Fungible { denom, .. } => denom,
            Self::NonFungible { class, .. } => class,
        }
    }
}

/// A packet decoded into the vocabulary routing middleware understands:
/// who sent what to whom, and the memo carrying routing metadata.
#[derive(Clone, Debug)]
pub struct ForwardUnit {
    /// What moved.
    pub asset: AssetUnit,
    /// Sender on the source chain.
    pub sender: String,
    /// Nominal receiver on this chain.
    pub receiver: String,
    /// The packet memo.
    pub memo: String,
}

/// Book-keeping for one forwarded (outgoing) leg, kept by the forward
/// middleware until its ack or timeout arrives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InFlightUnit {
    /// Port to send the backward refund over.
    pub return_port: PortId,
    /// Channel (toward the previous hop) for the refund.
    pub return_channel: ChannelId,
    /// The incoming leg's source channel on the previous chain.
    pub origin_channel: ChannelId,
    /// The incoming leg's sequence.
    pub origin_sequence: u64,
    /// Receiver of the backward refund.
    pub refund_receiver: String,
    /// The asset as named locally (credited to the forward account).
    pub asset: AssetUnit,
}

/// An outgoing send queued by a stack layer, drained by the harness via
/// [`ModuleStack::take_requests`] and committed with
/// [`ibc_core::ics20::send_transfer`] or [`crate::nft::send_nft`].
#[derive(Clone, Debug)]
pub struct StackRequest {
    /// Port to send over.
    pub port: PortId,
    /// Channel to send over.
    pub channel: ChannelId,
    /// What to send.
    pub asset: AssetUnit,
    /// Receiver on the next chain.
    pub receiver: String,
    /// Memo for the outgoing packet.
    pub memo: String,
    /// In-flight record to register once the packet commits
    /// ([`crate::ForwardMiddleware::register_in_flight`]); [`None`] for
    /// refund legs.
    pub in_flight: Option<InFlightUnit>,
    /// What triggered this request.
    pub kind: ForwardKind,
}

/// How the app's packets look to value-routing middleware. Implemented
/// by applications whose packets move custodiable assets (the ICS-20
/// transfer app and the NFT transfer app); lets one forward middleware
/// route both.
pub trait ForwardHooks {
    /// Decodes a packet into a routable unit, or [`None`] when the
    /// payload is not this application's.
    fn decode_unit(&self, packet: &Packet) -> Option<ForwardUnit>;

    /// Delivers `packet`'s asset crediting `account` (a forward
    /// account), applying the normal escrow-release/voucher-mint rules;
    /// returns the asset as named locally.
    ///
    /// # Errors
    ///
    /// [`IbcError::AppError`] when escrow cannot cover the asset.
    fn credit_custody(
        &mut self,
        packet: &Packet,
        asset: &AssetUnit,
        account: &str,
    ) -> Result<AssetUnit, IbcError>;
}

/// The bottom of a stack: an IBC application proper (ICS-20 transfer,
/// NFT transfer, interchain accounts, …). Mirrors the packet-lifecycle
/// callbacks of [`Module`] and adds the typed accessors middleware and
/// harnesses reach it through.
pub trait IbcApplication {
    /// Short stable name, used for per-app telemetry labels.
    fn name(&self) -> &'static str;

    /// Called when a channel on this stack's port completes its
    /// handshake.
    ///
    /// # Errors
    ///
    /// Returning an error aborts the channel handshake step.
    fn on_chan_open(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        version: &str,
    ) -> Result<(), IbcError> {
        let _ = (port_id, channel_id, version);
        Ok(())
    }

    /// Handles an inbound packet; failures are reported in-band as
    /// [`Acknowledgement::Error`], never by aborting delivery.
    fn on_recv_packet(&mut self, packet: &Packet) -> Acknowledgement;

    /// Handles the acknowledgement for a packet this chain sent.
    ///
    /// # Errors
    ///
    /// An error aborts acknowledgement processing.
    fn on_acknowledge(&mut self, packet: &Packet, ack: &Acknowledgement) -> Result<(), IbcError>;

    /// Handles a timeout for a packet this chain sent.
    ///
    /// # Errors
    ///
    /// An error aborts timeout processing.
    fn on_timeout(&mut self, packet: &Packet) -> Result<(), IbcError>;

    /// The ICS-20 ledger this application fronts, if any.
    fn ics20(&self) -> Option<&TransferModule> {
        None
    }

    /// Mutable access to the ICS-20 ledger, if any.
    fn ics20_mut(&mut self) -> Option<&mut TransferModule> {
        None
    }

    /// The routing hooks of this application, when its packets are
    /// forwardable.
    fn forward_hooks(&self) -> Option<&dyn ForwardHooks> {
        None
    }

    /// Mutable routing hooks.
    fn forward_hooks_mut(&mut self) -> Option<&mut dyn ForwardHooks> {
        None
    }

    /// Downcast support.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// What a `before_recv` hook decided.
#[derive(Debug)]
pub enum RecvDecision {
    /// Pass the packet to the next layer in.
    Continue,
    /// Short-circuit: inner layers never see the packet; this is the
    /// acknowledgement (outer layers' `after_recv` hooks still run).
    Stop(Acknowledgement),
}

/// The rest of the stack, as one middleware layer sees it: every layer
/// inside it plus the application, and the shared outbox.
pub struct InnerStack<'a> {
    layers: &'a mut [Box<dyn Middleware>],
    app: &'a mut dyn IbcApplication,
    outbox: &'a mut Vec<StackRequest>,
}

impl<'a> InnerStack<'a> {
    /// The application at the bottom of the stack.
    pub fn app(&self) -> &dyn IbcApplication {
        self.app
    }

    /// Mutable application access.
    pub fn app_mut(&mut self) -> &mut dyn IbcApplication {
        self.app
    }

    /// The ICS-20 ledger reachable through the inner stack, if any.
    pub fn ics20(&self) -> Option<&TransferModule> {
        self.app.ics20()
    }

    /// Mutable ICS-20 ledger access.
    pub fn ics20_mut(&mut self) -> Option<&mut TransferModule> {
        self.app.ics20_mut()
    }

    /// The app's routing hooks, when its packets are forwardable.
    pub fn forward_hooks_mut(&mut self) -> Option<&mut dyn ForwardHooks> {
        self.app.forward_hooks_mut()
    }

    /// Queues an outgoing send in the stack outbox.
    pub fn queue(&mut self, request: StackRequest) {
        self.outbox.push(request);
    }

    /// A typed view of an inner middleware layer.
    pub fn middleware_as<T: Middleware + 'static>(&self) -> Option<&T> {
        self.layers.iter().find_map(|m| m.as_any().downcast_ref::<T>())
    }
}

/// One wrapping layer of a stack, with before/after hooks on every
/// packet-lifecycle callback. All hooks default to pass-through, so a
/// middleware implements only the phases it cares about.
pub trait Middleware {
    /// Short stable name, used for telemetry labels and stack listings.
    fn name(&self) -> &'static str;

    /// Runs before the inner stack sees a channel open.
    ///
    /// # Errors
    ///
    /// Aborts the handshake step.
    fn before_chan_open(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        version: &str,
    ) -> Result<(), IbcError> {
        let _ = (port_id, channel_id, version);
        Ok(())
    }

    /// Runs after the inner stack accepted a channel open.
    fn after_chan_open(&mut self, port_id: &PortId, channel_id: &ChannelId, version: &str) {
        let _ = (port_id, channel_id, version);
    }

    /// Runs before the inner stack receives `packet`; may short-circuit.
    fn before_recv(&mut self, inner: &mut InnerStack<'_>, packet: &Packet) -> RecvDecision {
        let _ = (inner, packet);
        RecvDecision::Continue
    }

    /// Runs after the inner stack produced `ack`; may rewrite it.
    fn after_recv(
        &mut self,
        inner: &mut InnerStack<'_>,
        packet: &Packet,
        ack: Acknowledgement,
    ) -> Acknowledgement {
        let _ = (inner, packet);
        ack
    }

    /// Runs before the inner stack processes an acknowledgement.
    ///
    /// # Errors
    ///
    /// Aborts acknowledgement processing.
    fn before_ack(
        &mut self,
        inner: &mut InnerStack<'_>,
        packet: &Packet,
        ack: &Acknowledgement,
    ) -> Result<(), IbcError> {
        let _ = (inner, packet, ack);
        Ok(())
    }

    /// Runs after the inner stack processed an acknowledgement.
    ///
    /// # Errors
    ///
    /// Aborts acknowledgement processing.
    fn after_ack(
        &mut self,
        inner: &mut InnerStack<'_>,
        packet: &Packet,
        ack: &Acknowledgement,
    ) -> Result<(), IbcError> {
        let _ = (inner, packet, ack);
        Ok(())
    }

    /// Runs before the inner stack processes a timeout.
    ///
    /// # Errors
    ///
    /// Aborts timeout processing.
    fn before_timeout(
        &mut self,
        inner: &mut InnerStack<'_>,
        packet: &Packet,
    ) -> Result<(), IbcError> {
        let _ = (inner, packet);
        Ok(())
    }

    /// Runs after the inner stack processed a timeout.
    ///
    /// # Errors
    ///
    /// Aborts timeout processing.
    fn after_timeout(
        &mut self,
        inner: &mut InnerStack<'_>,
        packet: &Packet,
    ) -> Result<(), IbcError> {
        let _ = (inner, packet);
        Ok(())
    }

    /// Downcast support ([`ModuleStack::middleware_as`]).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Lifetime counters a stack keeps per port, published by harnesses as
/// per-app telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StackCounters {
    /// Packets received (delivered to this stack).
    pub received: u64,
    /// Received packets answered with an error acknowledgement.
    pub recv_errors: u64,
    /// Acknowledgements processed for packets this chain sent.
    pub acked: u64,
    /// Timeouts processed for packets this chain sent.
    pub timed_out: u64,
}

/// A full stack bound to one port: middleware layers (outermost first)
/// around one application, with a shared outbox for queued sends.
pub struct ModuleStack {
    middlewares: Vec<Box<dyn Middleware>>,
    app: Box<dyn IbcApplication>,
    outbox: Vec<StackRequest>,
    counters: StackCounters,
    /// Lifecycle dispatches that reached each layer (outermost first,
    /// application last) — a middleware that answers with
    /// [`RecvDecision::Stop`] leaves the deeper slots untouched, so the
    /// falloff shows where packets short-circuit.
    layer_dispatches: Vec<u64>,
}

impl std::fmt::Debug for ModuleStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModuleStack")
            .field("layers", &self.layer_names())
            .field("app", &self.app.name())
            .field("outbox", &self.outbox.len())
            .finish()
    }
}

impl ModuleStack {
    /// A stack of just `app`, no middleware.
    pub fn new(app: Box<dyn IbcApplication>) -> Self {
        Self {
            middlewares: Vec::new(),
            app,
            outbox: Vec::new(),
            counters: StackCounters::default(),
            layer_dispatches: Vec::new(),
        }
    }

    /// Wraps the current stack in one more layer: the middleware added
    /// last is outermost (sees packets first).
    #[must_use]
    pub fn with(mut self, middleware: Box<dyn Middleware>) -> Self {
        self.middlewares.insert(0, middleware);
        self
    }

    /// Layer names, outermost first, ending with the application.
    pub fn layer_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.middlewares.iter().map(|m| m.name()).collect();
        names.push(self.app.name());
        names
    }

    /// The application at the bottom of the stack.
    pub fn app(&self) -> &dyn IbcApplication {
        self.app.as_ref()
    }

    /// Mutable application access.
    pub fn app_mut(&mut self) -> &mut dyn IbcApplication {
        self.app.as_mut()
    }

    /// The application, downcast to its concrete type.
    pub fn app_as<T: IbcApplication + 'static>(&self) -> Option<&T> {
        self.app.as_any().downcast_ref::<T>()
    }

    /// Mutable typed application access.
    pub fn app_as_mut<T: IbcApplication + 'static>(&mut self) -> Option<&mut T> {
        self.app.as_any_mut().downcast_mut::<T>()
    }

    /// The first middleware layer of concrete type `T`, outermost first.
    pub fn middleware_as<T: Middleware + 'static>(&self) -> Option<&T> {
        self.middlewares.iter().find_map(|m| m.as_any().downcast_ref::<T>())
    }

    /// Mutable typed middleware access.
    pub fn middleware_as_mut<T: Middleware + 'static>(&mut self) -> Option<&mut T> {
        self.middlewares.iter_mut().find_map(|m| m.as_any_mut().downcast_mut::<T>())
    }

    /// The packet-forward middleware, when stacked.
    pub fn forward(&self) -> Option<&crate::ForwardMiddleware> {
        self.middleware_as()
    }

    /// Mutable forward-middleware access.
    pub fn forward_mut(&mut self) -> Option<&mut crate::ForwardMiddleware> {
        self.middleware_as_mut()
    }

    /// The fee middleware, when stacked.
    pub fn fees(&self) -> Option<&FeeMiddleware> {
        self.middleware_as()
    }

    /// Mutable fee-middleware access.
    pub fn fees_mut(&mut self) -> Option<&mut FeeMiddleware> {
        self.middleware_as_mut()
    }

    /// Escrows `fee` for an already-committed outgoing packet: moves the
    /// total from `payer` to the ledger's fee-escrow account and
    /// registers the packet with the stacked [`FeeMiddleware`], which
    /// settles it on ack (pay the relayer) or timeout (refund).
    ///
    /// # Errors
    ///
    /// [`IbcError::AppError`] when the stack has no fee middleware, no
    /// ICS-20 ledger, or the payer cannot cover the fee.
    pub fn escrow_fee(
        &mut self,
        channel_id: &ChannelId,
        sequence: u64,
        fee: PacketFee,
        payer: &str,
        denom: &str,
    ) -> Result<(), IbcError> {
        if self.fees().is_none() {
            return Err(IbcError::AppError("stack has no fee middleware".into()));
        }
        let ledger = self
            .app
            .ics20_mut()
            .ok_or_else(|| IbcError::AppError("fee escrow needs an ICS-20 ledger".into()))?;
        ledger.transfer_internal(payer, FEE_ESCROW_ACCOUNT, denom, fee.total())?;
        self.fees_mut().expect("checked above").register(channel_id, sequence, fee, payer, denom);
        Ok(())
    }

    /// Drains the queued outgoing sends.
    pub fn take_requests(&mut self) -> Vec<StackRequest> {
        std::mem::take(&mut self.outbox)
    }

    /// Whether any outgoing sends are waiting.
    pub fn has_requests(&self) -> bool {
        !self.outbox.is_empty()
    }

    /// Lifetime packet counters for this stack.
    pub fn counters(&self) -> StackCounters {
        self.counters
    }

    /// Per-layer dispatch counts in [`Self::layer_names`] order: how many
    /// lifecycle callbacks (recv, ack, timeout) reached each layer. A
    /// short-circuiting middleware (e.g. a memo hook answering with
    /// `Stop`) shows up as a falloff between adjacent layers. Slots are
    /// added at the first dispatch; a missing slot counts zero.
    pub fn dispatch_counts(&self) -> &[u64] {
        &self.layer_dispatches
    }

    /// Ensures the per-layer tally covers every current layer (`with`
    /// can add layers after construction).
    fn ensure_dispatch_slots(&mut self) {
        let slots = self.middlewares.len() + 1;
        if self.layer_dispatches.len() < slots {
            self.layer_dispatches.resize(slots, 0);
        }
    }
}

fn dispatch_recv(
    layers: &mut [Box<dyn Middleware>],
    app: &mut dyn IbcApplication,
    outbox: &mut Vec<StackRequest>,
    packet: &Packet,
    dispatched: &mut [u64],
) -> Acknowledgement {
    let Some((head, rest)) = layers.split_first_mut() else {
        dispatched[0] += 1;
        return app.on_recv_packet(packet);
    };
    dispatched[0] += 1;
    let decision = {
        let mut inner = InnerStack { layers: rest, app, outbox };
        head.before_recv(&mut inner, packet)
    };
    match decision {
        RecvDecision::Stop(ack) => ack,
        RecvDecision::Continue => {
            let ack = dispatch_recv(rest, app, outbox, packet, &mut dispatched[1..]);
            let mut inner = InnerStack { layers: rest, app, outbox };
            head.after_recv(&mut inner, packet, ack)
        }
    }
}

fn dispatch_ack(
    layers: &mut [Box<dyn Middleware>],
    app: &mut dyn IbcApplication,
    outbox: &mut Vec<StackRequest>,
    packet: &Packet,
    ack: &Acknowledgement,
    dispatched: &mut [u64],
) -> Result<(), IbcError> {
    let Some((head, rest)) = layers.split_first_mut() else {
        dispatched[0] += 1;
        return app.on_acknowledge(packet, ack);
    };
    dispatched[0] += 1;
    {
        let mut inner = InnerStack { layers: rest, app, outbox };
        head.before_ack(&mut inner, packet, ack)?;
    }
    dispatch_ack(rest, app, outbox, packet, ack, &mut dispatched[1..])?;
    let mut inner = InnerStack { layers: rest, app, outbox };
    head.after_ack(&mut inner, packet, ack)
}

fn dispatch_timeout(
    layers: &mut [Box<dyn Middleware>],
    app: &mut dyn IbcApplication,
    outbox: &mut Vec<StackRequest>,
    packet: &Packet,
    dispatched: &mut [u64],
) -> Result<(), IbcError> {
    let Some((head, rest)) = layers.split_first_mut() else {
        dispatched[0] += 1;
        return app.on_timeout(packet);
    };
    dispatched[0] += 1;
    {
        let mut inner = InnerStack { layers: rest, app, outbox };
        head.before_timeout(&mut inner, packet)?;
    }
    dispatch_timeout(rest, app, outbox, packet, &mut dispatched[1..])?;
    let mut inner = InnerStack { layers: rest, app, outbox };
    head.after_timeout(&mut inner, packet)
}

impl Module for ModuleStack {
    fn on_chan_open(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        version: &str,
    ) -> Result<(), IbcError> {
        for mw in &mut self.middlewares {
            mw.before_chan_open(port_id, channel_id, version)?;
        }
        self.app.on_chan_open(port_id, channel_id, version)?;
        for mw in self.middlewares.iter_mut().rev() {
            mw.after_chan_open(port_id, channel_id, version);
        }
        Ok(())
    }

    fn on_recv_packet(&mut self, packet: &Packet) -> Acknowledgement {
        self.counters.received += 1;
        self.ensure_dispatch_slots();
        let ack = dispatch_recv(
            &mut self.middlewares,
            self.app.as_mut(),
            &mut self.outbox,
            packet,
            &mut self.layer_dispatches,
        );
        if !ack.is_success() {
            self.counters.recv_errors += 1;
        }
        ack
    }

    fn on_acknowledge(&mut self, packet: &Packet, ack: &Acknowledgement) -> Result<(), IbcError> {
        self.counters.acked += 1;
        self.ensure_dispatch_slots();
        dispatch_ack(
            &mut self.middlewares,
            self.app.as_mut(),
            &mut self.outbox,
            packet,
            ack,
            &mut self.layer_dispatches,
        )
    }

    fn on_timeout(&mut self, packet: &Packet) -> Result<(), IbcError> {
        self.counters.timed_out += 1;
        self.ensure_dispatch_slots();
        dispatch_timeout(
            &mut self.middlewares,
            self.app.as_mut(),
            &mut self.outbox,
            packet,
            &mut self.layer_dispatches,
        )
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn ics20(&self) -> Option<&TransferModule> {
        self.app.ics20()
    }

    fn ics20_mut(&mut self) -> Option<&mut TransferModule> {
        self.app.ics20_mut()
    }
}

/// [`EchoModule`] adapted to the stack: control channels and benchmarks
/// route through an (empty) [`ModuleStack`] too, so hook ordering is
/// exercised on every port, not just the transfer port.
#[derive(Debug, Default)]
pub struct EchoApp {
    inner: EchoModule,
}

impl EchoApp {
    /// A fresh echo application.
    pub fn new() -> Self {
        Self::default()
    }

    /// The wrapped echo module (received/acknowledged/timed-out logs).
    pub fn inner(&self) -> &EchoModule {
        &self.inner
    }
}

impl IbcApplication for EchoApp {
    fn name(&self) -> &'static str {
        "echo"
    }

    fn on_recv_packet(&mut self, packet: &Packet) -> Acknowledgement {
        self.inner.on_recv_packet(packet)
    }

    fn on_acknowledge(&mut self, packet: &Packet, ack: &Acknowledgement) -> Result<(), IbcError> {
        self.inner.on_acknowledge(packet, ack)
    }

    fn on_timeout(&mut self, packet: &Packet) -> Result<(), IbcError> {
        self.inner.on_timeout(packet)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
