//! Multi-hop packet forwarding as a stack [`Middleware`] — the original
//! transfer-port-only `ibc_core::forward::ForwardMiddleware`, refactored
//! into one instance of the general before/after-hook mechanism and
//! generalised over asset kinds via
//! [`ForwardHooks`](ibc_core::forward::ForwardHooks): the same layer
//! routes ICS-20 amounts and NFT classes, because all custody moves go
//! through the wrapped module's hooks.
//!
//! Semantics are unchanged from the original middleware (see the memo
//! vocabulary in [`ibc_core::forward`]): a `{"forward": …}` memo credits
//! a chain-local forward account and queues the next leg in the stack
//! outbox; failed legs unwind hop-by-hop backwards via `{"refund": …}`
//! transfers, re-using the normal escrow/mint rules so stacked voucher
//! prefixes net to zero supply change on every chain.

use std::any::Any;
use std::collections::BTreeMap;

use ibc_core::channel::{Acknowledgement, Packet};
use ibc_core::forward::{ForwardKind, ForwardMetadata, MemoEnvelope, RefundMetadata};
use ibc_core::types::{ChannelId, IbcError, PortId};

use crate::stack::{InFlightUnit, InnerStack, Middleware, RecvDecision, StackRequest};

/// The packet-forward middleware: multi-hop routing and backward
/// refunds over any module with
/// [`ForwardHooks`](ibc_core::forward::ForwardHooks).
#[derive(Debug)]
pub struct ForwardMiddleware {
    forward_account: String,
    in_flight: BTreeMap<(String, u64), InFlightUnit>,
    /// Legs this layer forwarded onward.
    pub forwarded: u64,
    /// Backward refund legs this layer queued.
    pub refunds_queued: u64,
}

impl ForwardMiddleware {
    /// A forward layer escrowing in-transit assets under
    /// `forward_account`.
    pub fn new(forward_account: impl Into<String>) -> Self {
        Self {
            forward_account: forward_account.into(),
            in_flight: BTreeMap::new(),
            forwarded: 0,
            refunds_queued: 0,
        }
    }

    /// Number of forwarded legs awaiting ack or timeout.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Records a forwarded leg — call after committing a
    /// [`StackRequest`] carrying `unit`, with the sequence the packet
    /// was assigned.
    pub fn register_in_flight(&mut self, channel: &ChannelId, sequence: u64, unit: InFlightUnit) {
        self.in_flight.insert((channel.to_string(), sequence), unit);
    }

    /// Unwinds a leg whose send failed synchronously (the commit rolled
    /// back, so the forward account still holds the assets): returns the
    /// backward-refund request to queue. `kind` carries the caller's
    /// correlation for the failed request.
    pub fn fail_forward(&mut self, unit: InFlightUnit, kind: ForwardKind) -> StackRequest {
        self.refund_request(unit, kind)
    }

    fn refund_request(&mut self, unit: InFlightUnit, kind: ForwardKind) -> StackRequest {
        self.refunds_queued += 1;
        let memo = RefundMetadata {
            channel: unit.origin_channel.to_string(),
            sequence: unit.origin_sequence,
        }
        .to_memo();
        StackRequest {
            port: unit.return_port.clone(),
            channel: unit.return_channel.clone(),
            asset: unit.asset.clone(),
            receiver: unit.refund_receiver.clone(),
            memo,
            in_flight: None,
            kind,
        }
    }

    /// Handles the failure (error ack or timeout) of an outgoing packet:
    /// if it was a forwarded leg, push the refund one hop further back.
    /// The application has already refunded the forward account.
    fn unwind_failed_leg(&mut self, inner: &mut InnerStack<'_>, packet: &Packet) {
        let key = (packet.source_channel.to_string(), packet.sequence);
        if let Some(unit) = self.in_flight.remove(&key) {
            let request = self.refund_request(
                unit,
                ForwardKind::Refund {
                    failed_channel: packet.source_channel.clone(),
                    failed_sequence: packet.sequence,
                },
            );
            inner.queue(request);
        }
    }
}

impl Middleware for ForwardMiddleware {
    fn name(&self) -> &'static str {
        "forward"
    }

    fn before_recv(&mut self, inner: &mut InnerStack<'_>, packet: &Packet) -> RecvDecision {
        let Some(unit) = inner.forward_hooks_mut().and_then(|h| h.decode_unit(packet)) else {
            // Not a routable payload: let the application ack it (and
            // report malformed payloads in-band itself).
            return RecvDecision::Continue;
        };
        let memo = MemoEnvelope::parse(&unit.memo);
        if let Some(forward) = memo.forward {
            // Intermediate hop: credit the forward account and queue the
            // next leg instead of delivering to the nominal receiver.
            let account = self.forward_account.clone();
            let hooks = inner.forward_hooks_mut().expect("decoded above");
            return match hooks.credit_custody(packet, &unit.asset, &account) {
                Ok(local) => {
                    self.forwarded += 1;
                    let next_memo =
                        forward.next.as_deref().map(ForwardMetadata::to_memo).unwrap_or_default();
                    let port = forward
                        .port
                        .as_deref()
                        .map(PortId::named)
                        .unwrap_or_else(|| packet.destination_port.clone());
                    inner.queue(StackRequest {
                        port,
                        channel: ChannelId::named(&forward.channel),
                        asset: local.clone(),
                        receiver: forward.receiver.clone(),
                        memo: next_memo,
                        in_flight: Some(InFlightUnit {
                            return_port: packet.destination_port.clone(),
                            return_channel: packet.destination_channel.clone(),
                            origin_channel: packet.source_channel.clone(),
                            origin_sequence: packet.sequence,
                            refund_receiver: unit.sender.clone(),
                            asset: local,
                        }),
                        kind: ForwardKind::Forward {
                            incoming_channel: packet.source_channel.clone(),
                            incoming_sequence: packet.sequence,
                        },
                    });
                    RecvDecision::Stop(Acknowledgement::Success(b"AQ==".to_vec()))
                }
                Err(err) => RecvDecision::Stop(Acknowledgement::Error(err.to_string())),
            };
        }
        if let Some(refund) = memo.refund {
            // A backward refund arriving. On an intermediate hop the
            // named leg is in our in-flight table: take custody and relay
            // the refund further back. On the origin chain it is not —
            // plain delivery below returns the assets to the original
            // sender (named as this transfer's receiver).
            if let Some(unit_back) =
                self.in_flight.remove(&(refund.channel.clone(), refund.sequence))
            {
                let account = self.forward_account.clone();
                let hooks = inner.forward_hooks_mut().expect("decoded above");
                return match hooks.credit_custody(packet, &unit.asset, &account) {
                    Ok(_) => {
                        let request = self.refund_request(
                            unit_back,
                            ForwardKind::Refund {
                                failed_channel: ChannelId::named(&refund.channel),
                                failed_sequence: refund.sequence,
                            },
                        );
                        inner.queue(request);
                        RecvDecision::Stop(Acknowledgement::Success(b"AQ==".to_vec()))
                    }
                    Err(err) => RecvDecision::Stop(Acknowledgement::Error(err.to_string())),
                };
            }
        }
        RecvDecision::Continue
    }

    fn after_ack(
        &mut self,
        inner: &mut InnerStack<'_>,
        packet: &Packet,
        ack: &Acknowledgement,
    ) -> Result<(), IbcError> {
        let key = (packet.source_channel.to_string(), packet.sequence);
        if ack.is_success() {
            // Leg landed; its book-keeping is done.
            self.in_flight.remove(&key);
        } else {
            self.unwind_failed_leg(inner, packet);
        }
        Ok(())
    }

    fn after_timeout(
        &mut self,
        inner: &mut InnerStack<'_>,
        packet: &Packet,
    ) -> Result<(), IbcError> {
        self.unwind_failed_leg(inner, packet);
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
