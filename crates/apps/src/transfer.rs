//! The ICS-20 transfer application, adapted to the stack: wraps the
//! core [`TransferModule`] ledger and exposes the [`ForwardHooks`] the
//! packet-forward middleware routes through.

use std::any::Any;

use ibc_core::channel::{Acknowledgement, Packet};
use ibc_core::ics20::{FungibleTokenPacketData, TransferModule};
use ibc_core::router::Module;
use ibc_core::types::IbcError;

use crate::stack::{AssetUnit, ForwardHooks, ForwardUnit, IbcApplication};

/// The ICS-20 application at the bottom of a transfer-port stack.
#[derive(Debug, Default)]
pub struct TransferApp {
    ledger: TransferModule,
}

impl TransferApp {
    /// A fresh app with an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }
}

impl IbcApplication for TransferApp {
    fn name(&self) -> &'static str {
        "transfer"
    }

    fn on_recv_packet(&mut self, packet: &Packet) -> Acknowledgement {
        Module::on_recv_packet(&mut self.ledger, packet)
    }

    fn on_acknowledge(&mut self, packet: &Packet, ack: &Acknowledgement) -> Result<(), IbcError> {
        Module::on_acknowledge(&mut self.ledger, packet, ack)
    }

    fn on_timeout(&mut self, packet: &Packet) -> Result<(), IbcError> {
        Module::on_timeout(&mut self.ledger, packet)
    }

    fn ics20(&self) -> Option<&TransferModule> {
        Some(&self.ledger)
    }

    fn ics20_mut(&mut self) -> Option<&mut TransferModule> {
        Some(&mut self.ledger)
    }

    fn forward_hooks(&self) -> Option<&dyn ForwardHooks> {
        Some(self)
    }

    fn forward_hooks_mut(&mut self) -> Option<&mut dyn ForwardHooks> {
        Some(self)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl ForwardHooks for TransferApp {
    fn decode_unit(&self, packet: &Packet) -> Option<ForwardUnit> {
        let data = FungibleTokenPacketData::decode(&packet.payload)?;
        Some(ForwardUnit {
            asset: AssetUnit::Fungible { denom: data.denom, amount: data.amount },
            sender: data.sender,
            receiver: data.receiver,
            memo: data.memo,
        })
    }

    fn credit_custody(
        &mut self,
        packet: &Packet,
        asset: &AssetUnit,
        account: &str,
    ) -> Result<AssetUnit, IbcError> {
        let AssetUnit::Fungible { denom, amount } = asset else {
            return Err(IbcError::AppError("ICS-20 cannot take custody of NFTs".into()));
        };
        let local = self.ledger.credit_receiver(packet, denom, *amount, account)?;
        Ok(AssetUnit::Fungible { denom: local, amount: *amount })
    }
}
