//! ICS-721-style non-fungible token transfer.
//!
//! Mirrors the ICS-20 voucher discipline token-for-token: sending a
//! native class escrows its tokens under the channel's escrow account;
//! sending a returning voucher class burns them. Receiving a returning
//! class releases escrow; receiving a foreign class mints voucher
//! tokens under a stacked `port/channel/` class prefix — the same
//! segment-wise prefix rules as [`ibc_core::ics20`], reused directly.
//! Refunds (error ack, timeout, or a backward refund leg relayed by the
//! forward middleware) reverse the debit exactly, so multi-hop routes
//! net to zero supply change on every chain.

use std::any::Any;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use ibc_core::channel::{Acknowledgement, Packet, Timeout};
use ibc_core::forward::{AssetUnit, ForwardHooks, ForwardUnit};
use ibc_core::handler::IbcHandler;
use ibc_core::ics20::{escrow_account, split_voucher, voucher_prefix};
use ibc_core::router::Module;
use ibc_core::store::ProvableStore;
use ibc_core::types::{ChannelId, IbcError, PortId};

use crate::stack::ModuleStack;

/// The NFT packet payload.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NftPacketData {
    /// Class id, possibly voucher-prefixed (`port/channel/base`).
    pub class: String,
    /// Token ids moved together.
    pub tokens: Vec<String>,
    /// Sender account on the source chain.
    pub sender: String,
    /// Receiver account on the destination chain.
    pub receiver: String,
    /// Free-form memo (routing metadata rides here).
    #[serde(default)]
    pub memo: String,
}

impl NftPacketData {
    /// Wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("packet data serializes")
    }

    /// Parses the wire encoding. NFT payloads always carry a `tokens`
    /// array, which ICS-20 payloads never do, so the two applications'
    /// wire formats cannot be confused.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        serde_json::from_slice(bytes).ok()
    }
}

/// A minimal multi-class NFT ledger: each `(class, token)` has exactly
/// one owner.
#[derive(Debug, Default)]
pub struct NftModule {
    owners: BTreeMap<(String, String), String>,
}

impl NftModule {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates `token` of `class` owned by `owner`.
    ///
    /// # Errors
    ///
    /// [`IbcError::AppError`] when the token already exists.
    pub fn mint(&mut self, class: &str, token: &str, owner: &str) -> Result<(), IbcError> {
        let key = (class.to_string(), token.to_string());
        if self.owners.contains_key(&key) {
            return Err(IbcError::AppError(format!("token {class}#{token} already exists")));
        }
        self.owners.insert(key, owner.to_string());
        Ok(())
    }

    /// Destroys `token` of `class`, requiring `owner` to hold it.
    ///
    /// # Errors
    ///
    /// [`IbcError::AppError`] when the token is missing or held by
    /// someone else.
    pub fn burn(&mut self, class: &str, token: &str, owner: &str) -> Result<(), IbcError> {
        let key = (class.to_string(), token.to_string());
        match self.owners.get(&key).map(String::as_str) {
            Some(held) if held == owner => {
                self.owners.remove(&key);
                Ok(())
            }
            Some(held) => Err(IbcError::AppError(format!(
                "token {class}#{token} owned by {held}, not {owner}"
            ))),
            None => Err(IbcError::AppError(format!("token {class}#{token} does not exist"))),
        }
    }

    /// Moves `token` of `class` from `from` to `to`.
    ///
    /// # Errors
    ///
    /// [`IbcError::AppError`] when `from` does not hold the token.
    pub fn transfer(
        &mut self,
        class: &str,
        token: &str,
        from: &str,
        to: &str,
    ) -> Result<(), IbcError> {
        let key = (class.to_string(), token.to_string());
        match self.owners.get_mut(&key) {
            Some(held) if held == from => {
                *held = to.to_string();
                Ok(())
            }
            Some(held) => Err(IbcError::AppError(format!(
                "token {class}#{token} owned by {held}, not {from}"
            ))),
            None => Err(IbcError::AppError(format!("token {class}#{token} does not exist"))),
        }
    }

    /// The owner of `token` in `class`, if it exists.
    pub fn owner_of(&self, class: &str, token: &str) -> Option<&str> {
        self.owners.get(&(class.to_string(), token.to_string())).map(String::as_str)
    }

    /// Number of existing tokens of `class`.
    pub fn supply(&self, class: &str) -> u64 {
        self.owners.keys().filter(|(c, _)| c == class).count() as u64
    }

    /// Every class with at least one token, sorted.
    pub fn classes(&self) -> Vec<String> {
        let mut classes: Vec<String> = self.owners.keys().map(|(c, _)| c.clone()).collect();
        classes.sort();
        classes.dedup();
        classes
    }

    /// Every token of `class`, sorted, whoever holds it.
    pub fn tokens_in(&self, class: &str) -> Vec<String> {
        self.owners.keys().filter(|(c, _)| c == class).map(|(_, t)| t.clone()).collect()
    }

    /// Total tokens across all classes.
    pub fn total_tokens(&self) -> u64 {
        self.owners.len() as u64
    }
}

/// The NFT transfer application at the bottom of an nft-port stack.
#[derive(Debug, Default)]
pub struct NftTransferApp {
    ledger: NftModule,
}

impl NftTransferApp {
    /// A fresh app with an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The NFT ledger.
    pub fn nft(&self) -> &NftModule {
        &self.ledger
    }

    /// Mutable NFT ledger access (faucet/genesis mints).
    pub fn nft_mut(&mut self) -> &mut NftModule {
        &mut self.ledger
    }

    /// The book-keeping run when this chain *sends* `data` over
    /// `(port, channel)`: burn returning voucher tokens, escrow native
    /// ones. All-or-nothing: ownership of every token is validated
    /// before anything moves.
    ///
    /// # Errors
    ///
    /// [`IbcError::AppError`] when the sender does not hold every token.
    pub fn debit_sender(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        data: &NftPacketData,
    ) -> Result<(), IbcError> {
        for token in &data.tokens {
            match self.ledger.owner_of(&data.class, token) {
                Some(owner) if owner == data.sender => {}
                Some(owner) => {
                    return Err(IbcError::AppError(format!(
                        "token {}#{token} owned by {owner}, not {}",
                        data.class, data.sender
                    )))
                }
                None => {
                    return Err(IbcError::AppError(format!(
                        "token {}#{token} does not exist",
                        data.class
                    )))
                }
            }
        }
        let returning = split_voucher(&data.class, port_id, channel_id).is_some();
        for token in &data.tokens {
            if returning {
                self.ledger.burn(&data.class, token, &data.sender)?;
            } else {
                self.ledger.transfer(
                    &data.class,
                    token,
                    &data.sender,
                    &escrow_account(channel_id),
                )?;
            }
        }
        Ok(())
    }

    /// Reverses [`Self::debit_sender`] after an error ack or a timeout.
    ///
    /// # Errors
    ///
    /// [`IbcError::AppError`] when the escrow does not hold a token.
    pub fn refund_sender(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        data: &NftPacketData,
    ) -> Result<(), IbcError> {
        let returning = split_voucher(&data.class, port_id, channel_id).is_some();
        for token in &data.tokens {
            if returning {
                self.ledger.mint(&data.class, token, &data.sender)?;
            } else {
                self.ledger.transfer(
                    &data.class,
                    token,
                    &escrow_account(channel_id),
                    &data.sender,
                )?;
            }
        }
        Ok(())
    }

    /// The book-keeping run when this chain *receives* tokens over
    /// `packet`'s destination end, crediting `account`: release escrow
    /// when the class is returning home, mint locally-prefixed voucher
    /// tokens otherwise. Returns the local class credited.
    ///
    /// # Errors
    ///
    /// [`IbcError::AppError`] when a returning token is not in escrow.
    pub fn credit_receiver(
        &mut self,
        packet: &Packet,
        class: &str,
        tokens: &[String],
        account: &str,
    ) -> Result<String, IbcError> {
        match split_voucher(class, &packet.source_port, &packet.source_channel) {
            Some(base) => {
                let base = base.to_string();
                let escrow = escrow_account(&packet.destination_channel);
                for token in tokens {
                    match self.ledger.owner_of(&base, token) {
                        Some(owner) if owner == escrow => {}
                        _ => {
                            return Err(IbcError::AppError(format!(
                                "token {base}#{token} is not escrowed on this channel"
                            )))
                        }
                    }
                }
                for token in tokens {
                    self.ledger.transfer(&base, token, &escrow, account)?;
                }
                Ok(base)
            }
            None => {
                let voucher = format!(
                    "{}{}",
                    voucher_prefix(&packet.destination_port, &packet.destination_channel),
                    class
                );
                for token in tokens {
                    if self.ledger.owner_of(&voucher, token).is_some() {
                        return Err(IbcError::AppError(format!(
                            "voucher token {voucher}#{token} already exists"
                        )));
                    }
                }
                for token in tokens {
                    self.ledger.mint(&voucher, token, account)?;
                }
                Ok(voucher)
            }
        }
    }
}

impl Module for NftTransferApp {
    fn name(&self) -> &'static str {
        "nft"
    }

    fn on_recv_packet(&mut self, packet: &Packet) -> Acknowledgement {
        let Some(data) = NftPacketData::decode(&packet.payload) else {
            return Acknowledgement::Error("malformed NFT packet".into());
        };
        match self.credit_receiver(packet, &data.class, &data.tokens, &data.receiver) {
            Ok(_) => Acknowledgement::Success(b"AQ==".to_vec()),
            Err(err) => Acknowledgement::Error(err.to_string()),
        }
    }

    fn on_acknowledge(&mut self, packet: &Packet, ack: &Acknowledgement) -> Result<(), IbcError> {
        if ack.is_success() {
            return Ok(());
        }
        let data = NftPacketData::decode(&packet.payload)
            .ok_or_else(|| IbcError::AppError("malformed NFT packet".into()))?;
        self.refund_sender(&packet.source_port, &packet.source_channel, &data)
    }

    fn on_timeout(&mut self, packet: &Packet) -> Result<(), IbcError> {
        let data = NftPacketData::decode(&packet.payload)
            .ok_or_else(|| IbcError::AppError("malformed NFT packet".into()))?;
        self.refund_sender(&packet.source_port, &packet.source_channel, &data)
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

impl ForwardHooks for NftTransferApp {
    fn decode_unit(&self, packet: &Packet) -> Option<ForwardUnit> {
        let data = NftPacketData::decode(&packet.payload)?;
        Some(ForwardUnit {
            asset: AssetUnit::NonFungible { class: data.class, tokens: data.tokens },
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
        let AssetUnit::NonFungible { class, tokens } = asset else {
            return Err(IbcError::AppError("NFT app cannot take custody of fungibles".into()));
        };
        let local = self.credit_receiver(packet, class, tokens, account)?;
        Ok(AssetUnit::NonFungible { class: local, tokens: tokens.clone() })
    }
}

/// Initiates an NFT transfer on `handler`: debits the sender in the NFT
/// ledger of the [`ModuleStack`] bound to `port_id`, then commits the
/// packet, rolling the debit back if the commit fails.
///
/// # Errors
///
/// [`IbcError::UnboundPort`] when the port has no stacked NFT app;
/// ledger or channel errors otherwise.
#[allow(clippy::too_many_arguments)]
pub fn send_nft<S: ProvableStore>(
    handler: &mut IbcHandler<S>,
    port_id: &PortId,
    channel_id: &ChannelId,
    class: &str,
    tokens: &[String],
    sender: &str,
    receiver: &str,
    memo: &str,
    timeout: Timeout,
) -> Result<Packet, IbcError> {
    let data = NftPacketData {
        class: class.to_string(),
        tokens: tokens.to_vec(),
        sender: sender.to_string(),
        receiver: receiver.to_string(),
        memo: memo.to_string(),
    };
    {
        let app = nft_app_mut(handler, port_id)?;
        app.debit_sender(port_id, channel_id, &data)?;
    }
    match handler.send_packet(port_id, channel_id, data.encode(), timeout) {
        Ok(packet) => Ok(packet),
        Err(err) => {
            let app = nft_app_mut(handler, port_id).expect("app bound above");
            app.refund_sender(port_id, channel_id, &data)
                .expect("refund of a just-made debit cannot fail");
            Err(err)
        }
    }
}

/// The NFT app inside the stack bound to `port_id`.
///
/// # Errors
///
/// [`IbcError::UnboundPort`] when no stacked NFT app is reachable.
pub fn nft_app_mut<'h, S: ProvableStore>(
    handler: &'h mut IbcHandler<S>,
    port_id: &PortId,
) -> Result<&'h mut NftTransferApp, IbcError> {
    handler
        .module_mut(port_id)
        .and_then(|m| m.as_any_mut().downcast_mut::<ModuleStack>())
        .and_then(|s| s.app_as_mut::<NftTransferApp>())
        .ok_or_else(|| IbcError::UnboundPort(port_id.clone()))
}
