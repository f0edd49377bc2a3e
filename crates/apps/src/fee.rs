//! ICS-29-style relayer fee middleware.
//!
//! A source-chain layer: the harness escrows a [`PacketFee`] for an
//! outgoing packet via [`crate::ModuleStack::escrow_fee`] (fees move
//! from the payer to the ledger's [`FEE_ESCROW_ACCOUNT`]). When the
//! packet's acknowledgement arrives — success *or* in-band error, the
//! relayer did the delivery work either way — the middleware pays the
//! recv and ack fees to the delivering relayer's per-channel account
//! (`relayer_account`) and refunds the timeout fee to the payer. When
//! the packet instead times out, the timeout fee pays the relayer that
//! proved the timeout and the recv/ack fees go back to the payer.
//!
//! Every unit escrowed is therefore paid out or refunded exactly once:
//! `escrowed_total == paid_total + refunded_total + pending`, and the
//! ledger's fee-escrow balance must equal the pending sum — the fee
//! conservation invariant chaos runs check ([`FeeMiddleware::imbalance`]).

use std::any::Any;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use ibc_core::channel::{Acknowledgement, Packet};
use ibc_core::ics20::TransferModule;
use ibc_core::types::{ChannelId, IbcError};

use crate::stack::{InnerStack, Middleware};

/// The ledger account fees sit in while their packet is in flight.
pub const FEE_ESCROW_ACCOUNT: &str = "fee:escrow";

/// The per-channel relayer payout account.
fn relayer_account(channel_id: &ChannelId) -> String {
    format!("relayer:{channel_id}")
}

/// The three-part packet fee of ICS-29.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketFee {
    /// Paid to the relayer that delivers the packet (on ack).
    pub recv_fee: u128,
    /// Paid to the relayer that returns the acknowledgement.
    pub ack_fee: u128,
    /// Paid to the relayer that proves a timeout; refunded on ack.
    pub timeout_fee: u128,
}

impl PacketFee {
    /// A flat fee schedule.
    pub fn flat(recv_fee: u128, ack_fee: u128, timeout_fee: u128) -> Self {
        Self { recv_fee, ack_fee, timeout_fee }
    }

    /// Total escrowed per packet.
    pub fn total(&self) -> u128 {
        self.recv_fee + self.ack_fee + self.timeout_fee
    }
}

/// One escrowed packet fee awaiting settlement.
#[derive(Clone, Debug)]
struct FeeEscrow {
    payer: String,
    denom: String,
    fee: PacketFee,
}

/// Running fee-flow totals, for reports and conservation checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FeeTotals {
    /// Units ever escrowed.
    pub escrowed: u128,
    /// Units paid to relayer accounts.
    pub paid: u128,
    /// Units refunded to payers.
    pub refunded: u128,
    /// Units still escrowed (packets in flight).
    pub pending: u128,
}

/// The fee middleware layer.
#[derive(Debug, Default)]
pub struct FeeMiddleware {
    escrows: BTreeMap<(String, u64), FeeEscrow>,
    escrowed_total: u128,
    paid_total: u128,
    refunded_total: u128,
    /// Packets settled on acknowledgement.
    pub settled_on_ack: u64,
    /// Packets settled on timeout.
    pub settled_on_timeout: u64,
}

impl FeeMiddleware {
    /// A fresh fee layer with no escrows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an escrowed fee for the packet sent as
    /// `(channel, sequence)`. The ledger move happens in
    /// [`crate::ModuleStack::escrow_fee`]; this records the settlement
    /// obligation.
    pub fn register(
        &mut self,
        channel_id: &ChannelId,
        sequence: u64,
        fee: PacketFee,
        payer: &str,
        denom: &str,
    ) {
        self.escrowed_total += fee.total();
        self.escrows.insert(
            (channel_id.to_string(), sequence),
            FeeEscrow { payer: payer.to_string(), denom: denom.to_string(), fee },
        );
    }

    /// Fee-flow totals so far.
    pub fn totals(&self) -> FeeTotals {
        FeeTotals {
            escrowed: self.escrowed_total,
            paid: self.paid_total,
            refunded: self.refunded_total,
            pending: self.pending_total(),
        }
    }

    /// Units still escrowed.
    pub fn pending_total(&self) -> u128 {
        self.escrows.values().map(|e| e.fee.total()).sum()
    }

    /// Conservation imbalance against `ledger`: the gap between what the
    /// totals say is pending and what the fee-escrow account actually
    /// holds, plus any leak in `escrowed == paid + refunded + pending`.
    /// Zero on every healthy chain at every instant.
    pub fn imbalance(&self, ledger: &TransferModule) -> u128 {
        let mut pending_by_denom: BTreeMap<&str, u128> = BTreeMap::new();
        for escrow in self.escrows.values() {
            *pending_by_denom.entry(escrow.denom.as_str()).or_default() += escrow.fee.total();
        }
        let mut imbalance = 0u128;
        for (denom, pending) in &pending_by_denom {
            let held = ledger.balance(FEE_ESCROW_ACCOUNT, denom);
            imbalance += held.abs_diff(*pending);
        }
        // Escrowed funds in denoms no longer pending must be zero too.
        for denom in ledger.denoms() {
            if !pending_by_denom.contains_key(denom.as_str()) {
                imbalance += ledger.balance(FEE_ESCROW_ACCOUNT, &denom);
            }
        }
        let settled = self.paid_total + self.refunded_total + self.pending_total();
        imbalance + self.escrowed_total.abs_diff(settled)
    }

    fn settle(
        &mut self,
        inner: &mut InnerStack<'_>,
        packet: &Packet,
        timed_out: bool,
    ) -> Result<(), IbcError> {
        let key = (packet.source_channel.to_string(), packet.sequence);
        let Some(escrow) = self.escrows.remove(&key) else {
            return Ok(());
        };
        let ledger = inner
            .ics20_mut()
            .ok_or_else(|| IbcError::AppError("fee settlement needs an ICS-20 ledger".into()))?;
        let relayer = relayer_account(&packet.source_channel);
        let (to_relayer, to_payer) = if timed_out {
            (escrow.fee.timeout_fee, escrow.fee.recv_fee + escrow.fee.ack_fee)
        } else {
            (escrow.fee.recv_fee + escrow.fee.ack_fee, escrow.fee.timeout_fee)
        };
        if to_relayer > 0 {
            ledger.transfer_internal(FEE_ESCROW_ACCOUNT, &relayer, &escrow.denom, to_relayer)?;
        }
        if to_payer > 0 {
            ledger.transfer_internal(FEE_ESCROW_ACCOUNT, &escrow.payer, &escrow.denom, to_payer)?;
        }
        self.paid_total += to_relayer;
        self.refunded_total += to_payer;
        if timed_out {
            self.settled_on_timeout += 1;
        } else {
            self.settled_on_ack += 1;
        }
        Ok(())
    }
}

impl Middleware for FeeMiddleware {
    fn name(&self) -> &'static str {
        "fee"
    }

    fn after_ack(
        &mut self,
        inner: &mut InnerStack<'_>,
        packet: &Packet,
        _ack: &Acknowledgement,
    ) -> Result<(), IbcError> {
        // Relayers are paid for delivery work whether the application
        // accepted the packet or error-acked it.
        self.settle(inner, packet, false)
    }

    fn after_timeout(
        &mut self,
        inner: &mut InnerStack<'_>,
        packet: &Packet,
    ) -> Result<(), IbcError> {
        self.settle(inner, packet, true)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
