//! The application/middleware stack: one [`Module`] at the bottom, any
//! number of [`Middleware`] layers around it, composed into a
//! [`ModuleStack`] that is itself a [`Module`] — so a whole stack binds
//! to a port exactly where the bare module would.
//!
//! Dispatch is onion-shaped. For an inbound packet the layers run
//! outermost-first: each middleware's `before_recv` may pass the packet
//! on ([`RecvDecision::Continue`]) or short-circuit the rest of the
//! stack with its own acknowledgement ([`RecvDecision::Stop`] — the
//! packet-forward middleware does this for routed legs). The
//! application's `on_recv_packet` runs at the centre, then `after_recv`
//! hooks unwind innermost-first, each free to rewrite the
//! acknowledgement (the memo-hook middleware uses this). Acks mirror
//! the shape with a `before_ack`/`after_ack` pair around the
//! application; a timeout reaches the application first, then
//! `after_timeout` hooks unwind innermost-first. A channel open goes
//! straight to the application.
//!
//! Middleware reaches the application through [`InnerStack`]: its ICS-20
//! ledger ([`InnerStack::ics20_mut`]) and its
//! [`ForwardHooks`](ibc_core::forward::ForwardHooks), plus
//! [`InnerStack::queue`] for outgoing sends.
//! Module callbacks cannot commit packets (no store access), so queued
//! [`StackRequest`]s sit in the stack outbox until the harness drains
//! them via [`ModuleStack::take_requests`] — the same discipline the
//! original single-purpose forward middleware used.

use std::any::Any;

use ibc_core::channel::{Acknowledgement, Packet};
use ibc_core::forward::{AssetUnit, ForwardHooks, ForwardKind};
use ibc_core::ics20::TransferModule;
use ibc_core::router::Module;
use ibc_core::types::{ChannelId, IbcError, PortId};

use crate::fee::{FeeMiddleware, PacketFee, FEE_ESCROW_ACCOUNT};

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

/// What a `before_recv` hook decided.
#[derive(Debug)]
pub enum RecvDecision {
    /// Pass the packet to the next layer in.
    Continue,
    /// Short-circuit: inner layers never see the packet; this is the
    /// acknowledgement (outer layers' `after_recv` hooks still run).
    Stop(Acknowledgement),
}

/// The rest of the stack, as one middleware layer sees it: the
/// application at the bottom and the shared outbox.
pub struct InnerStack<'a> {
    app: &'a mut dyn Module,
    outbox: &'a mut Vec<StackRequest>,
}

impl InnerStack<'_> {
    /// The application's ICS-20 ledger, if it has one.
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
}

/// One wrapping layer of a stack, with hooks around the recv, ack and
/// timeout callbacks. All hooks default to pass-through, so a middleware
/// implements only the phases it cares about.
pub trait Middleware {
    /// Short stable name, used for telemetry labels and stack listings.
    fn name(&self) -> &'static str;

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
    app: Box<dyn Module>,
    outbox: Vec<StackRequest>,
    counters: StackCounters,
    /// Lifecycle dispatches that reached each layer (outermost first,
    /// application last) — a middleware that answers with
    /// [`RecvDecision::Stop`] leaves the deeper slots untouched, so the
    /// falloff shows where packets short-circuit. One slot per layer
    /// from construction on.
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
    pub fn new(app: Box<dyn Module>) -> Self {
        Self {
            middlewares: Vec::new(),
            app,
            outbox: Vec::new(),
            counters: StackCounters::default(),
            layer_dispatches: vec![0],
        }
    }

    /// Wraps the current stack in one more layer: the middleware added
    /// last is outermost (sees packets first), and its dispatch count
    /// starts at zero.
    #[must_use]
    pub fn with(mut self, middleware: Box<dyn Middleware>) -> Self {
        self.middlewares.insert(0, middleware);
        self.layer_dispatches.insert(0, 0);
        self
    }

    /// Layer names, outermost first, ending with the application.
    pub fn layer_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.middlewares.iter().map(|m| m.name()).collect();
        names.push(self.app.name());
        names
    }

    /// The application, downcast to its concrete type.
    pub fn app_as<T: Module + 'static>(&self) -> Option<&T> {
        self.app.as_any().downcast_ref::<T>()
    }

    /// Mutable typed application access.
    pub fn app_as_mut<T: Module + 'static>(&mut self) -> Option<&mut T> {
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
    /// short-circuiting middleware (the forward middleware answering a
    /// routed leg with `Stop`) shows up as a falloff between adjacent
    /// layers. A layer added with [`Self::with`] after traffic starts at
    /// zero.
    pub fn dispatch_counts(&self) -> &[u64] {
        &self.layer_dispatches
    }
}

fn dispatch_recv(
    layers: &mut [Box<dyn Middleware>],
    app: &mut dyn Module,
    outbox: &mut Vec<StackRequest>,
    packet: &Packet,
    dispatched: &mut [u64],
) -> Acknowledgement {
    dispatched[0] += 1;
    let Some((head, rest)) = layers.split_first_mut() else {
        return app.on_recv_packet(packet);
    };
    let decision = {
        let mut inner = InnerStack { app, outbox };
        head.before_recv(&mut inner, packet)
    };
    match decision {
        RecvDecision::Stop(ack) => ack,
        RecvDecision::Continue => {
            let ack = dispatch_recv(rest, app, outbox, packet, &mut dispatched[1..]);
            let mut inner = InnerStack { app, outbox };
            head.after_recv(&mut inner, packet, ack)
        }
    }
}

fn dispatch_ack(
    layers: &mut [Box<dyn Middleware>],
    app: &mut dyn Module,
    outbox: &mut Vec<StackRequest>,
    packet: &Packet,
    ack: &Acknowledgement,
    dispatched: &mut [u64],
) -> Result<(), IbcError> {
    dispatched[0] += 1;
    let Some((head, rest)) = layers.split_first_mut() else {
        return app.on_acknowledge(packet, ack);
    };
    {
        let mut inner = InnerStack { app, outbox };
        head.before_ack(&mut inner, packet, ack)?;
    }
    dispatch_ack(rest, app, outbox, packet, ack, &mut dispatched[1..])?;
    let mut inner = InnerStack { app, outbox };
    head.after_ack(&mut inner, packet, ack)
}

fn dispatch_timeout(
    layers: &mut [Box<dyn Middleware>],
    app: &mut dyn Module,
    outbox: &mut Vec<StackRequest>,
    packet: &Packet,
    dispatched: &mut [u64],
) -> Result<(), IbcError> {
    dispatched[0] += 1;
    let Some((head, rest)) = layers.split_first_mut() else {
        return app.on_timeout(packet);
    };
    dispatch_timeout(rest, app, outbox, packet, &mut dispatched[1..])?;
    let mut inner = InnerStack { app, outbox };
    head.after_timeout(&mut inner, packet)
}

impl Module for ModuleStack {
    fn name(&self) -> &'static str {
        self.app.name()
    }

    fn on_chan_open(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        version: &str,
    ) -> Result<(), IbcError> {
        self.app.on_chan_open(port_id, channel_id, version)
    }

    fn on_recv_packet(&mut self, packet: &Packet) -> Acknowledgement {
        self.counters.received += 1;
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
