//! Port router and application-module interface (ICS-05/ICS-26).

use crate::channel::{Acknowledgement, Packet};
use crate::forward::ForwardHooks;
use crate::types::ChannelId;
use crate::types::{IbcError, PortId};

/// An IBC application module bound to a port (e.g. ICS-20 transfer).
pub trait Module {
    /// Short stable name (`"transfer"`, `"echo"`, …), used for per-app
    /// telemetry labels and stack listings.
    fn name(&self) -> &'static str;

    /// Called when a channel on this port completes its handshake.
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

    /// Handles an inbound packet and produces the acknowledgement.
    ///
    /// Application failures are reported in-band as
    /// [`Acknowledgement::Error`], never by aborting delivery — the
    /// receipt must still be written to prevent redelivery.
    fn on_recv_packet(&mut self, packet: &Packet) -> Acknowledgement;

    /// Handles the acknowledgement for a packet this chain sent.
    ///
    /// # Errors
    ///
    /// An error aborts acknowledgement processing (the relayer may retry).
    fn on_acknowledge(&mut self, packet: &Packet, ack: &Acknowledgement) -> Result<(), IbcError>;

    /// Handles a timeout for a packet this chain sent (refunds etc.).
    ///
    /// # Errors
    ///
    /// An error aborts timeout processing (the relayer may retry).
    fn on_timeout(&mut self, packet: &Packet) -> Result<(), IbcError>;

    /// Downcast support so chains can reach their concrete application
    /// state (e.g. the ICS-20 ledger) through the handler.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Read-only downcast support (invariant checkers, reporting).
    fn as_any(&self) -> &dyn std::any::Any;

    /// The ICS-20 ledger this module fronts, if any.
    ///
    /// A module that wraps a [`crate::ics20::TransferModule`] (the `apps`
    /// crate's `ModuleStack`) forwards this to the wrapped ledger, so
    /// [`crate::ics20::send_transfer`] and invariant checkers work through
    /// any stack of wrappers, not just a bare transfer module.
    fn ics20(&self) -> Option<&crate::ics20::TransferModule> {
        None
    }

    /// Mutable access to the ICS-20 ledger this module fronts, if any.
    fn ics20_mut(&mut self) -> Option<&mut crate::ics20::TransferModule> {
        None
    }

    /// The routing hooks of this module, when its packets move assets a
    /// forwarding layer can take custody of.
    fn forward_hooks_mut(&mut self) -> Option<&mut dyn ForwardHooks> {
        None
    }
}

/// A no-op module for control channels and tests: acknowledges every packet
/// with `Success(payload)` and records nothing.
#[derive(Debug, Default)]
pub struct EchoModule {
    /// Packets received, for inspection in tests.
    pub received: Vec<Packet>,
    /// Packets acknowledged back to us.
    pub acknowledged: Vec<(Packet, Acknowledgement)>,
    /// Packets timed out.
    pub timed_out: Vec<Packet>,
}

impl EchoModule {
    /// A fresh echo module. Pinned for the echo stacks of
    /// `benchmark/src/probes.rs` (through an alias in `apps`); ROADMAP
    /// item 1's `[benchmark]` PR moves the probe to
    /// `EchoModule::default()` and drops this.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Module for EchoModule {
    fn name(&self) -> &'static str {
        "echo"
    }

    fn on_recv_packet(&mut self, packet: &Packet) -> Acknowledgement {
        self.received.push(packet.clone());
        Acknowledgement::Success(packet.payload.clone())
    }

    fn on_acknowledge(&mut self, packet: &Packet, ack: &Acknowledgement) -> Result<(), IbcError> {
        self.acknowledged.push((packet.clone(), ack.clone()));
        Ok(())
    }

    fn on_timeout(&mut self, packet: &Packet) -> Result<(), IbcError> {
        self.timed_out.push(packet.clone());
        Ok(())
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
