//! ICS-27-style interchain accounts.
//!
//! A controller chain registers an account on a host chain and then
//! drives it by sending batches of operations over an ica-port channel.
//! The host executes each batch against the app's own private bank (a
//! [`TransferModule`] ledger reached through [`IcaApp::bank`], not the
//! transfer port's; `ics20()` on the ica port is `None`), with
//! clone-and-rollback atomicity: a batch either fully applies or leaves
//! the bank untouched, and either way the outcome travels back in-band
//! — success acks carry the executed-op count, failures come back as
//! error acks that the controller records without any channel closing.

use std::any::Any;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use ibc_core::channel::{Acknowledgement, Packet, Timeout};
use ibc_core::handler::IbcHandler;
use ibc_core::ics20::TransferModule;
use ibc_core::router::Module;
use ibc_core::store::ProvableStore;
use ibc_core::types::{ChannelId, IbcError, PortId};

/// The ledger account a host chain opens for `owner`.
pub fn ica_account(owner: &str) -> String {
    format!("ica:{owner}")
}

/// One operation the host executes on behalf of the interchain account.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum IcaOp {
    /// Move `amount` of `denom` from the interchain account to `to`.
    Send {
        /// Denomination on the host chain.
        denom: String,
        /// Units to move.
        amount: u128,
        /// Host-chain account credited.
        to: String,
    },
    /// Always fails with `reason` — exercises the in-band error path.
    Fail {
        /// The error text returned in the ack.
        reason: String,
    },
    /// Does nothing (keep-alive / liveness probes).
    Noop,
}

/// The ICA packet payload.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum IcaPacketData {
    /// Open (or confirm) the host account for `owner`.
    Register {
        /// Controller-chain owner of the interchain account.
        owner: String,
    },
    /// Execute `ops` atomically as `owner`'s interchain account.
    Execute {
        /// Controller-chain owner of the interchain account.
        owner: String,
        /// The batch to execute.
        ops: Vec<IcaOp>,
    },
}

impl IcaPacketData {
    /// Wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("packet data serializes")
    }

    /// Parses the wire encoding.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        serde_json::from_slice(bytes).ok()
    }

    /// The owner the packet acts for.
    pub fn owner(&self) -> &str {
        match self {
            Self::Register { owner } | Self::Execute { owner, .. } => owner,
        }
    }
}

/// What the controller learned about one of its sent packets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IcaOutcome {
    /// Success ack: the host executed this many ops.
    Executed(u64),
    /// Error ack: the host rejected the batch with this reason.
    Rejected(String),
    /// The packet timed out before the host saw it.
    TimedOut,
}

/// The interchain-accounts application. One instance serves both roles:
/// received packets make it a host, recorded outcomes make it a
/// controller.
#[derive(Debug, Default)]
pub struct IcaApp {
    bank: TransferModule,
    /// Host side: registered owners and their account names.
    accounts: BTreeMap<String, String>,
    /// Controller side: outcome per `(source_channel, sequence)`.
    outcomes: BTreeMap<(String, u64), IcaOutcome>,
    /// Host side: ops executed in successful batches.
    pub ops_executed: u64,
    /// Host side: batches rejected with an in-band error ack.
    pub batches_rejected: u64,
    /// Units airdropped to each newly registered account, per denom.
    airdrop: Option<(String, u128)>,
}

impl IcaApp {
    /// A fresh app with an empty bank and no registrations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants every newly registered account `amount` of `denom` from
    /// thin air — gives scripted workloads something to spend.
    pub fn with_airdrop(mut self, denom: impl Into<String>, amount: u128) -> Self {
        self.airdrop = Some((denom.into(), amount));
        self
    }

    /// The host bank ledger.
    pub fn bank(&self) -> &TransferModule {
        &self.bank
    }

    /// Mutable host bank access (genesis funding).
    pub fn bank_mut(&mut self) -> &mut TransferModule {
        &mut self.bank
    }

    /// Host side: the account name registered for `owner`, if any.
    pub fn account_of(&self, owner: &str) -> Option<&str> {
        self.accounts.get(owner).map(String::as_str)
    }

    /// Host side: number of registered interchain accounts.
    pub fn registered(&self) -> usize {
        self.accounts.len()
    }

    /// Controller side: the recorded outcome for a sent packet.
    pub fn outcome(&self, channel_id: &ChannelId, sequence: u64) -> Option<&IcaOutcome> {
        self.outcomes.get(&(channel_id.to_string(), sequence))
    }

    /// Controller side: all recorded outcomes, in key order.
    pub fn outcomes(&self) -> impl Iterator<Item = (&(String, u64), &IcaOutcome)> {
        self.outcomes.iter()
    }

    fn register_account(&mut self, owner: &str) -> Result<u64, IbcError> {
        let account = ica_account(owner);
        if self.accounts.insert(owner.to_string(), account.clone()).is_none() {
            if let Some((denom, amount)) = self.airdrop.clone() {
                self.bank.mint(&account, &denom, amount);
            }
        }
        Ok(0)
    }

    fn execute_batch(&mut self, owner: &str, ops: &[IcaOp]) -> Result<u64, IbcError> {
        let account = self
            .accounts
            .get(owner)
            .cloned()
            .ok_or_else(|| IbcError::AppError(format!("no interchain account for {owner}")))?;
        // Clone-and-rollback atomicity: apply against a scratch copy and
        // commit only a fully successful batch.
        let mut scratch = self.bank.clone();
        let mut executed = 0u64;
        for op in ops {
            match op {
                IcaOp::Send { denom, amount, to } => {
                    scratch.transfer_internal(&account, to, denom, *amount)?;
                }
                IcaOp::Fail { reason } => {
                    return Err(IbcError::AppError(reason.clone()));
                }
                IcaOp::Noop => {}
            }
            executed += 1;
        }
        self.bank = scratch;
        self.ops_executed += executed;
        Ok(executed)
    }
}

impl Module for IcaApp {
    fn name(&self) -> &'static str {
        "ica"
    }

    fn on_recv_packet(&mut self, packet: &Packet) -> Acknowledgement {
        let Some(data) = IcaPacketData::decode(&packet.payload) else {
            return Acknowledgement::Error("malformed ICA packet".into());
        };
        let result = match &data {
            IcaPacketData::Register { owner } => self.register_account(owner),
            IcaPacketData::Execute { owner, ops } => self.execute_batch(owner, ops),
        };
        match result {
            Ok(executed) => Acknowledgement::Success(format!("ops:{executed}").into_bytes()),
            Err(err) => {
                self.batches_rejected += 1;
                Acknowledgement::Error(err.to_string())
            }
        }
    }

    fn on_acknowledge(&mut self, packet: &Packet, ack: &Acknowledgement) -> Result<(), IbcError> {
        let outcome = match ack {
            Acknowledgement::Success(bytes) => {
                let executed = std::str::from_utf8(bytes)
                    .ok()
                    .and_then(|s| s.strip_prefix("ops:"))
                    .and_then(|n| n.parse().ok())
                    .unwrap_or(0);
                IcaOutcome::Executed(executed)
            }
            Acknowledgement::Error(reason) => IcaOutcome::Rejected(reason.clone()),
        };
        self.outcomes.insert((packet.source_channel.to_string(), packet.sequence), outcome);
        Ok(())
    }

    fn on_timeout(&mut self, packet: &Packet) -> Result<(), IbcError> {
        self.outcomes
            .insert((packet.source_channel.to_string(), packet.sequence), IcaOutcome::TimedOut);
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Sends a registration packet for `owner` over the ica-port channel.
///
/// # Errors
///
/// Channel errors from the packet commit.
pub fn ica_register<S: ProvableStore>(
    handler: &mut IbcHandler<S>,
    port_id: &PortId,
    channel_id: &ChannelId,
    owner: &str,
    timeout: Timeout,
) -> Result<Packet, IbcError> {
    let data = IcaPacketData::Register { owner: owner.to_string() };
    handler.send_packet(port_id, channel_id, data.encode(), timeout)
}

/// Sends an execute batch for `owner` over the ica-port channel.
///
/// # Errors
///
/// Channel errors from the packet commit.
pub fn ica_execute<S: ProvableStore>(
    handler: &mut IbcHandler<S>,
    port_id: &PortId,
    channel_id: &ChannelId,
    owner: &str,
    ops: Vec<IcaOp>,
    timeout: Timeout,
) -> Result<Packet, IbcError> {
    let data = IcaPacketData::Execute { owner: owner.to_string(), ops };
    handler.send_packet(port_id, channel_id, data.encode(), timeout)
}
