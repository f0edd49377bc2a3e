//! ICS-20: fungible token transfer.
//!
//! The canonical IBC application, used by the paper's deployment to move
//! assets between Solana and Picasso. Implements escrow/mint voucher
//! semantics with denomination tracing and refunds on failure or timeout.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use crate::channel::{Acknowledgement, Packet, Timeout};
use crate::forward::{AssetUnit, ForwardHooks, ForwardUnit};
use crate::handler::IbcHandler;
use crate::router::Module;
use crate::store::ProvableStore;
use crate::types::{ChannelId, IbcError, PortId};

/// The ICS-20 packet payload.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FungibleTokenPacketData {
    /// Denomination, possibly voucher-prefixed (`port/channel/base`).
    pub denom: String,
    /// Amount transferred.
    pub amount: u128,
    /// Sender account on the source chain.
    pub sender: String,
    /// Receiver account on the destination chain.
    pub receiver: String,
    /// Free-form memo (routing hints, invoice ids — ICS-20 v2).
    #[serde(default)]
    pub memo: String,
}

impl FungibleTokenPacketData {
    /// Wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("packet data serializes")
    }

    /// Parses the wire encoding.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        serde_json::from_slice(bytes).ok()
    }
}

/// The escrow account name for a channel.
pub fn escrow_account(channel_id: &ChannelId) -> String {
    format!("escrow:{channel_id}")
}

/// The voucher prefix for tokens that travelled over `port/channel`.
pub fn voucher_prefix(port_id: &PortId, channel_id: &ChannelId) -> String {
    format!("{port_id}/{channel_id}/")
}

/// Segment-wise voucher-prefix match: returns the base denomination when
/// `denom` is a voucher minted over exactly `(port_id, channel_id)`.
///
/// Unlike a plain `starts_with` test this requires the port and channel to
/// be whole `/`-separated segments *and* the remaining base denomination to
/// be non-empty — a native denom whose name textually embeds
/// `port/channel/` as a prefix with nothing after it (e.g. the literal
/// string `"transfer/channel-0/"`) is classified as native, not as a
/// voucher for the empty denom.
pub fn split_voucher<'a>(
    denom: &'a str,
    port_id: &PortId,
    channel_id: &ChannelId,
) -> Option<&'a str> {
    let mut segments = denom.splitn(3, '/');
    let port = segments.next()?;
    let channel = segments.next()?;
    let base = segments.next()?;
    (port == port_id.as_str() && channel == channel_id.as_str() && !base.is_empty()).then_some(base)
}

/// One voucher denomination on one end of a link, with what backs it on
/// the other end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VoucherBacking<'a> {
    /// Whether the voucher circulates on the link's `a` end (and is
    /// backed on `b`) or the other way round.
    pub held_on_a: bool,
    /// The voucher denomination as named where it circulates.
    pub voucher: &'a str,
    /// The denomination it wraps, as named on the backing end.
    pub inner: &'a str,
    /// The voucher's total supply.
    pub minted: u128,
    /// The backing end's escrow of `inner` for this link's channel.
    pub escrowed: u128,
}

impl VoucherBacking<'_> {
    /// Units in circulation beyond their backing: zero unless value was
    /// created out of thin air.
    pub fn unbacked(&self) -> u128 {
        self.minted.saturating_sub(self.escrowed)
    }
}

/// The voucher-backing audit of one link, both directions: every
/// denomination either end holds that was minted over its own channel of
/// the link, matched segment-wise ([`split_voucher`]) against the other
/// end's `escrow:{channel}` balance of the inner denomination. Stacked
/// multi-hop prefixes unwind one layer per link, so on a clean link
/// `minted ≤ escrowed` in every row (strictly below while transfers are
/// in flight). Rows held on `b` come first, each end's sorted by name.
pub fn voucher_backing<'a>(
    port: &PortId,
    a: &'a TransferModule,
    a_channel: &ChannelId,
    b: &'a TransferModule,
    b_channel: &ChannelId,
) -> Vec<VoucherBacking<'a>> {
    let mut rows = Vec::new();
    for (held_on_a, holder, channel, backer, backer_channel) in
        [(false, b, b_channel, a, a_channel), (true, a, a_channel, b, b_channel)]
    {
        let escrow = escrow_account(backer_channel);
        rows.extend(holder.denoms.iter().filter_map(|(voucher, ledger)| {
            let inner = split_voucher(voucher, port, channel)?;
            let escrowed = backer.balance(&escrow, inner);
            Some(VoucherBacking { held_on_a, voucher, inner, minted: ledger.total, escrowed })
        }));
    }
    rows
}

/// Splits one voucher-prefix layer off `denom` regardless of which
/// port/channel minted it: `(port, channel, rest)`.
///
/// Used to walk stacked multi-hop prefixes
/// (`transfer/channel-1/transfer/channel-0/base`) when rendering denom
/// traces or auditing voucher supply; returns [`None`] for denoms that do
/// not carry at least `port/channel/base` with a non-empty base.
pub fn pop_voucher_prefix(denom: &str) -> Option<(&str, &str, &str)> {
    let mut segments = denom.splitn(3, '/');
    let port = segments.next()?;
    let channel = segments.next()?;
    let rest = segments.next()?;
    (!port.is_empty() && !channel.is_empty() && !rest.is_empty()).then_some((port, channel, rest))
}

/// Strips every stacked voucher prefix off `denom`, yielding the base
/// denomination and the number of hops it has travelled.
pub fn base_denom(denom: &str) -> (&str, usize) {
    let mut rest = denom;
    let mut hops = 0;
    while let Some((_, _, inner)) = pop_voucher_prefix(rest) {
        rest = inner;
        hops += 1;
    }
    (rest, hops)
}

/// The ICS-20 transfer application: a minimal multi-denom ledger plus the
/// escrow/mint rules.
///
/// # Examples
///
/// ```
/// use ibc_core::ics20::TransferModule;
///
/// let mut bank = TransferModule::new();
/// bank.mint("alice", "sol", 100);
/// assert_eq!(bank.balance("alice", "sol"), 100);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TransferModule {
    denoms: BTreeMap<String, DenomLedger>,
}

/// One denomination's books. `total == Σ accounts` always: [`TransferModule::mint`]
/// and [`TransferModule::burn`] are the only functions that move either.
#[derive(Clone, Debug, Default)]
struct DenomLedger {
    total: u128,
    accounts: HashMap<String, u128>,
}

impl TransferModule {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Credits `amount` of `denom` to `account` (genesis/faucet/mint).
    pub fn mint(&mut self, account: &str, denom: &str, amount: u128) {
        if !self.denoms.contains_key(denom) {
            self.denoms.insert(denom.to_string(), DenomLedger::default());
        }
        let ledger = self.denoms.get_mut(denom).expect("registered above");
        ledger.total += amount;
        if let Some(balance) = ledger.accounts.get_mut(account) {
            *balance += amount;
        } else {
            ledger.accounts.insert(account.to_string(), amount);
        }
    }

    /// Burns `amount` of `denom` from `account`.
    ///
    /// # Errors
    ///
    /// [`IbcError::AppError`] when the balance is insufficient; the ledger
    /// is then exactly as it was (an unknown denom is not registered).
    pub fn burn(&mut self, account: &str, denom: &str, amount: u128) -> Result<(), IbcError> {
        let held = self
            .denoms
            .get_mut(denom)
            .and_then(|ledger| Some((ledger.accounts.get_mut(account)?, &mut ledger.total)));
        let balance = held.as_ref().map_or(0, |(balance, _)| **balance);
        if balance < amount {
            return Err(IbcError::AppError(format!(
                "insufficient {denom} balance: {balance} < {amount}"
            )));
        }
        if let Some((balance, total)) = held {
            *balance -= amount;
            *total -= amount;
        }
        Ok(())
    }

    /// Moves `amount` of `denom` between ledger accounts.
    ///
    /// # Errors
    ///
    /// [`IbcError::AppError`] when the balance is insufficient.
    pub fn transfer_internal(
        &mut self,
        from: &str,
        to: &str,
        denom: &str,
        amount: u128,
    ) -> Result<(), IbcError> {
        self.burn(from, denom, amount)?;
        self.mint(to, denom, amount);
        Ok(())
    }

    /// Balance of `account` in `denom`.
    pub fn balance(&self, account: &str, denom: &str) -> u128 {
        self.denoms.get(denom).and_then(|ledger| ledger.accounts.get(account)).copied().unwrap_or(0)
    }

    /// Total amount of `denom` across every ledger account (escrows
    /// included) — the supply an invariant checker audits against the
    /// remote escrow backing it.
    pub fn total_supply(&self, denom: &str) -> u128 {
        self.denoms.get(denom).map_or(0, |ledger| ledger.total)
    }

    /// The book-keeping run when this chain *sends* `data` over
    /// `(port, channel)`: burn returning vouchers, escrow native tokens.
    ///
    /// Public so application/middleware crates (e.g. the packet-forward
    /// middleware in `apps`) can drive the same escrow discipline.
    ///
    /// # Errors
    ///
    /// [`IbcError::AppError`] when the sender's balance is insufficient.
    pub fn debit_sender(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        data: &FungibleTokenPacketData,
    ) -> Result<(), IbcError> {
        if split_voucher(&data.denom, port_id, channel_id).is_some() {
            // Token is returning to its origin: burn the voucher.
            self.burn(&data.sender, &data.denom, data.amount)
        } else {
            // Token is native here: escrow it.
            self.transfer_internal(
                &data.sender,
                &escrow_account(channel_id),
                &data.denom,
                data.amount,
            )
        }
    }

    /// Reverses [`Self::debit_sender`] after an error ack or a timeout.
    ///
    /// # Errors
    ///
    /// [`IbcError::AppError`] when the escrow balance is insufficient.
    pub fn refund_sender(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        data: &FungibleTokenPacketData,
    ) -> Result<(), IbcError> {
        if split_voucher(&data.denom, port_id, channel_id).is_some() {
            self.mint(&data.sender, &data.denom, data.amount);
            Ok(())
        } else {
            self.transfer_internal(
                &escrow_account(channel_id),
                &data.sender,
                &data.denom,
                data.amount,
            )
        }
    }

    /// The book-keeping run when this chain *receives* `denom` over
    /// `packet`'s destination end, crediting `account`: release escrowed
    /// tokens when the denom is returning home, mint a locally-prefixed
    /// voucher otherwise. Returns the local denomination credited.
    ///
    /// # Errors
    ///
    /// [`IbcError::AppError`] when a returning token's escrow cannot
    /// cover the amount.
    pub fn credit_receiver(
        &mut self,
        packet: &Packet,
        denom: &str,
        amount: u128,
        account: &str,
    ) -> Result<String, IbcError> {
        match split_voucher(denom, &packet.source_port, &packet.source_channel) {
            Some(base) => {
                // Token returning home: release from escrow.
                self.transfer_internal(
                    &escrow_account(&packet.destination_channel),
                    account,
                    base,
                    amount,
                )?;
                Ok(base.to_string())
            }
            None => {
                // Foreign token arriving: mint a voucher with our prefix.
                let voucher = format!(
                    "{}{}",
                    voucher_prefix(&packet.destination_port, &packet.destination_channel),
                    denom
                );
                self.mint(account, &voucher, amount);
                Ok(voucher)
            }
        }
    }

    /// Every denomination ever minted here (a mint of zero counts), sorted.
    /// A denom stays listed after its supply returns to zero; a burn never
    /// adds one, so a denom only a rejected burn has named is not listed.
    pub fn denoms(&self) -> Vec<String> {
        self.denoms.keys().cloned().collect()
    }

    /// Every account that has been credited `denom`, with its balance, in
    /// no particular order — what a recount of [`Self::total_supply`] walks.
    pub fn holders<'a>(&'a self, denom: &str) -> impl Iterator<Item = (&'a str, u128)> {
        let accounts = self.denoms.get(denom).map(|ledger| &ledger.accounts);
        accounts.into_iter().flatten().map(|(account, amount)| (account.as_str(), *amount))
    }
}

impl Module for TransferModule {
    fn name(&self) -> &'static str {
        "transfer"
    }

    fn on_recv_packet(&mut self, packet: &Packet) -> Acknowledgement {
        let Some(data) = FungibleTokenPacketData::decode(&packet.payload) else {
            return Acknowledgement::Error("malformed ICS-20 packet".into());
        };
        match self.credit_receiver(packet, &data.denom, data.amount, &data.receiver) {
            Ok(_) => Acknowledgement::Success(b"AQ==".to_vec()),
            Err(err) => Acknowledgement::Error(err.to_string()),
        }
    }

    fn on_acknowledge(&mut self, packet: &Packet, ack: &Acknowledgement) -> Result<(), IbcError> {
        if ack.is_success() {
            return Ok(());
        }
        let data = FungibleTokenPacketData::decode(&packet.payload)
            .ok_or_else(|| IbcError::AppError("malformed ICS-20 packet".into()))?;
        self.refund_sender(&packet.source_port, &packet.source_channel, &data)
    }

    fn on_timeout(&mut self, packet: &Packet) -> Result<(), IbcError> {
        let data = FungibleTokenPacketData::decode(&packet.payload)
            .ok_or_else(|| IbcError::AppError("malformed ICS-20 packet".into()))?;
        self.refund_sender(&packet.source_port, &packet.source_channel, &data)
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn ics20(&self) -> Option<&TransferModule> {
        Some(self)
    }

    fn ics20_mut(&mut self) -> Option<&mut TransferModule> {
        Some(self)
    }

    fn forward_hooks_mut(&mut self) -> Option<&mut dyn ForwardHooks> {
        Some(self)
    }
}

impl ForwardHooks for TransferModule {
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
        let local = self.credit_receiver(packet, denom, *amount, account)?;
        Ok(AssetUnit::Fungible { denom: local, amount: *amount })
    }
}

/// Initiates an ICS-20 transfer on `handler`: debits the sender in the
/// transfer module's ledger, then commits the packet.
///
/// The port may be bound to a bare [`TransferModule`] or to any module
/// exposing one through [`Module::ics20_mut`] (e.g. the `apps` crate's
/// `ModuleStack`).
///
/// # Errors
///
/// [`IbcError::UnboundPort`] when no ICS-20 ledger is reachable behind
/// `port_id`; ledger or channel errors otherwise.
#[allow(clippy::too_many_arguments)]
pub fn send_transfer<S: ProvableStore>(
    handler: &mut IbcHandler<S>,
    port_id: &PortId,
    channel_id: &ChannelId,
    denom: &str,
    amount: u128,
    sender: &str,
    receiver: &str,
    memo: &str,
    timeout: Timeout,
) -> Result<Packet, IbcError> {
    let data = FungibleTokenPacketData {
        denom: denom.to_string(),
        amount,
        sender: sender.to_string(),
        receiver: receiver.to_string(),
        memo: memo.to_string(),
    };
    {
        let module =
            handler.module_mut(port_id).ok_or_else(|| IbcError::UnboundPort(port_id.clone()))?;
        let transfer = module.ics20_mut().ok_or_else(|| IbcError::UnboundPort(port_id.clone()))?;
        transfer.debit_sender(port_id, channel_id, &data)?;
    }
    match handler.send_packet(port_id, channel_id, data.encode(), timeout) {
        Ok(packet) => Ok(packet),
        Err(err) => {
            // Undo the debit if the packet could not be committed.
            let module = handler.module_mut(port_id).expect("module bound above");
            let transfer = module.ics20_mut().expect("checked above");
            transfer
                .refund_sender(port_id, channel_id, &data)
                .expect("refund of a just-made debit cannot fail");
            Err(err)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ChannelId;

    fn packet(payload: Vec<u8>) -> Packet {
        Packet {
            sequence: 1,
            source_port: PortId::transfer(),
            source_channel: ChannelId::new(0),
            destination_port: PortId::transfer(),
            destination_channel: ChannelId::new(7),
            payload,
            timeout: Timeout::NEVER,
        }
    }

    #[test]
    fn foreign_token_mints_prefixed_voucher() {
        let mut module = TransferModule::new();
        let data = FungibleTokenPacketData {
            denom: "sol".into(),
            amount: 50,
            sender: "alice".into(),
            receiver: "bob".into(),
            memo: String::new(),
        };
        let ack = module.on_recv_packet(&packet(data.encode()));
        assert!(ack.is_success());
        assert_eq!(module.balance("bob", "transfer/channel-7/sol"), 50);
    }

    #[test]
    fn returning_token_unescrows() {
        let mut module = TransferModule::new();
        // Channel-7's escrow holds 30 "pica" from an earlier inbound leg.
        module.mint(&escrow_account(&ChannelId::new(7)), "pica", 30);
        let data = FungibleTokenPacketData {
            // Sender's chain sees it as their voucher over (transfer, channel-0).
            denom: "transfer/channel-0/pica".into(),
            amount: 30,
            sender: "bob".into(),
            receiver: "alice".into(),
            memo: String::new(),
        };
        let ack = module.on_recv_packet(&packet(data.encode()));
        assert!(ack.is_success(), "{ack:?}");
        assert_eq!(module.balance("alice", "pica"), 30);
        assert_eq!(module.balance(&escrow_account(&ChannelId::new(7)), "pica"), 0);
    }

    #[test]
    fn insufficient_escrow_yields_error_ack() {
        let mut module = TransferModule::new();
        let data = FungibleTokenPacketData {
            denom: "transfer/channel-0/pica".into(),
            amount: 30,
            sender: "bob".into(),
            receiver: "alice".into(),
            memo: String::new(),
        };
        let ack = module.on_recv_packet(&packet(data.encode()));
        assert!(!ack.is_success());
        assert_eq!(module.balance("alice", "pica"), 0);
    }

    #[test]
    fn malformed_payload_yields_error_ack_not_panic() {
        let mut module = TransferModule::new();
        let ack = module.on_recv_packet(&packet(b"not json".to_vec()));
        assert!(!ack.is_success());
    }

    #[test]
    fn error_ack_refunds_escrowed_tokens() {
        let mut module = TransferModule::new();
        module.mint("alice", "sol", 100);
        let data = FungibleTokenPacketData {
            denom: "sol".into(),
            amount: 40,
            sender: "alice".into(),
            receiver: "bob".into(),
            memo: String::new(),
        };
        let mut outbound = packet(data.encode());
        outbound.source_channel = ChannelId::new(0);
        module.debit_sender(&PortId::transfer(), &ChannelId::new(0), &data).unwrap();
        assert_eq!(module.balance("alice", "sol"), 60);

        module.on_acknowledge(&outbound, &Acknowledgement::Error("nope".into())).unwrap();
        assert_eq!(module.balance("alice", "sol"), 100);

        // A success ack does not refund.
        module.debit_sender(&PortId::transfer(), &ChannelId::new(0), &data).unwrap();
        module.on_acknowledge(&outbound, &Acknowledgement::Success(b"AQ==".to_vec())).unwrap();
        assert_eq!(module.balance("alice", "sol"), 60);
    }

    #[test]
    fn timeout_refunds_vouchers_by_reminting() {
        let mut module = TransferModule::new();
        let voucher = "transfer/channel-0/pica";
        module.mint("alice", voucher, 25);
        let data = FungibleTokenPacketData {
            denom: voucher.into(),
            amount: 25,
            sender: "alice".into(),
            receiver: "bob".into(),
            memo: String::new(),
        };
        let mut outbound = packet(data.encode());
        outbound.source_channel = ChannelId::new(0);
        module.debit_sender(&PortId::transfer(), &ChannelId::new(0), &data).unwrap();
        assert_eq!(module.balance("alice", voucher), 0, "voucher burned on send");
        module.on_timeout(&outbound).unwrap();
        assert_eq!(module.balance("alice", voucher), 25, "voucher re-minted");
    }

    #[test]
    fn burn_rejects_overdraw() {
        let mut module = TransferModule::new();
        module.mint("a", "x", 5);
        assert!(module.burn("a", "x", 6).is_err());
        assert_eq!(module.balance("a", "x"), 5);
        assert_eq!(module.total_supply("x"), 5);
    }

    #[test]
    fn rejected_burn_leaves_the_ledger_untouched() {
        // Regression: the funds check used to run after a zero entry had
        // been inserted, so a relayed packet naming an unknown denom grew
        // the ledger and registered the denom.
        let mut module = TransferModule::new();
        module.mint("a", "x", 5);
        assert!(module.burn("a", "unknown", 1).is_err());
        assert!(module.burn("stranger", "x", 1).is_err());
        assert_eq!(module.denoms(), ["x"]);
        assert_eq!(module.holders("x").collect::<Vec<_>>(), [("a", 5)]);
        assert_eq!(module.holders("unknown").count(), 0);
    }

    #[test]
    fn split_voucher_requires_whole_segments_and_nonempty_base() {
        let port = PortId::transfer();
        let chan = ChannelId::new(0);
        assert_eq!(split_voucher("transfer/channel-0/pica", &port, &chan), Some("pica"));
        // Stacked prefixes peel one layer at a time.
        assert_eq!(
            split_voucher("transfer/channel-0/transfer/channel-9/sol", &port, &chan),
            Some("transfer/channel-9/sol")
        );
        // A textual prefix with an empty base is NOT a voucher.
        assert_eq!(split_voucher("transfer/channel-0/", &port, &chan), None);
        // Wrong channel segment, missing segments, plain denoms.
        assert_eq!(split_voucher("transfer/channel-1/pica", &port, &chan), None);
        assert_eq!(split_voucher("transfer/channel-0", &port, &chan), None);
        assert_eq!(split_voucher("pica", &port, &chan), None);
    }

    #[test]
    fn voucher_backing_matches_each_voucher_to_its_one_hop_escrow() {
        let port = PortId::transfer();
        let (a_chan, b_chan) = (ChannelId::new(7), ChannelId::new(0));
        let mut a = TransferModule::new();
        a.mint("escrow:channel-7", "sol", 100);
        a.mint("escrow:channel-7", "transfer/channel-9/pica", 5);
        a.mint("dave", "transfer/channel-7/atom", 2); // b escrows nothing for it
        let mut b = TransferModule::new();
        b.mint("bob", "transfer/channel-0/sol", 60);
        b.mint("carol", "transfer/channel-0/sol", 40);
        b.mint("bob", "transfer/channel-0/transfer/channel-9/pica", 8); // 3 unbacked
        b.mint("bob", "transfer/channel-1/sol", 1_000); // another link's voucher
        b.mint("bob", "native", 1_000);

        let rows = voucher_backing(&port, &a, &a_chan, &b, &b_chan);
        let summary: Vec<_> = rows
            .iter()
            .map(|r| (r.held_on_a, r.inner, r.minted, r.escrowed, r.unbacked()))
            .collect();
        assert_eq!(
            summary,
            [
                (false, "sol", 100, 100, 0),
                (false, "transfer/channel-9/pica", 8, 5, 3),
                (true, "atom", 2, 0, 2),
            ]
        );
        assert_eq!(rows[1].voucher, "transfer/channel-0/transfer/channel-9/pica");
    }

    #[test]
    fn native_denom_textually_embedding_prefix_is_escrowed_not_burned() {
        // Regression: a *native* denom whose name textually starts with
        // `port/channel/` but carries no base used to satisfy the old
        // `starts_with` voucher test and be burned (losing the tokens
        // instead of escrowing them).
        let mut module = TransferModule::new();
        let weird_native = "transfer/channel-0/";
        module.mint("alice", weird_native, 10);
        let data = FungibleTokenPacketData {
            denom: weird_native.into(),
            amount: 10,
            sender: "alice".into(),
            receiver: "bob".into(),
            memo: String::new(),
        };
        module.debit_sender(&PortId::transfer(), &ChannelId::new(0), &data).unwrap();
        assert_eq!(
            module.balance(&escrow_account(&ChannelId::new(0)), weird_native),
            10,
            "native denom must be escrowed, not burned as a voucher"
        );
        module.refund_sender(&PortId::transfer(), &ChannelId::new(0), &data).unwrap();
        assert_eq!(module.balance("alice", weird_native), 10);
    }

    #[test]
    fn recv_of_prefix_only_denom_mints_voucher_not_empty_base() {
        // Inbound packets get the same segment-wise treatment: a denom
        // equal to the incoming prefix with an empty base is treated as a
        // foreign token (stack our prefix) rather than unescrowing `""`.
        let mut module = TransferModule::new();
        let data = FungibleTokenPacketData {
            denom: "transfer/channel-0/".into(),
            amount: 5,
            sender: "alice".into(),
            receiver: "bob".into(),
            memo: String::new(),
        };
        let ack = module.on_recv_packet(&packet(data.encode()));
        assert!(ack.is_success(), "{ack:?}");
        assert_eq!(module.balance("bob", "transfer/channel-7/transfer/channel-0/"), 5);
        assert_eq!(module.balance("bob", ""), 0);
    }

    #[test]
    fn base_denom_walks_stacked_prefixes() {
        assert_eq!(base_denom("transfer/channel-2/transfer/channel-0/wsol"), ("wsol", 2));
        assert_eq!(base_denom("transfer/channel-0/pica"), ("pica", 1));
        assert_eq!(base_denom("wsol"), ("wsol", 0));
        assert_eq!(base_denom("transfer/channel-0/"), ("transfer/channel-0/", 0));
    }
}
