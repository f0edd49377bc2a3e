//! The ICS-20 bank keeps a running total per denomination; this file keeps
//! the ledger it replaced — one flat `(account, denom) → amount` map whose
//! every supply question is a scan over all accounts — as the oracle, and
//! checks the two against each other over random operation sequences on
//! two linked chains.
//!
//! The one deliberate difference: the old `burn` inserted a zero entry
//! before it checked funds, so a burn that moved nothing (rejected, or of
//! zero) registered a denom nobody ever minted. The new ledger lists
//! exactly the denoms that were minted; the oracle records which those are
//! (`minted`, its only line not taken from the old code).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ibc_core::channel::{Packet, Timeout};
use ibc_core::ics20::{
    escrow_account, split_voucher, voucher_backing, voucher_prefix, FungibleTokenPacketData,
    TransferModule,
};
use ibc_core::types::{ChannelId, IbcError, PortId};
use proptest::prelude::*;

/// The ledger as it was before the per-denom totals, scans and all.
#[derive(Default)]
struct ScanLedger {
    balances: HashMap<(String, String), u128>,
    minted: BTreeSet<String>,
}

impl ScanLedger {
    fn mint(&mut self, account: &str, denom: &str, amount: u128) {
        self.minted.insert(denom.to_string());
        *self.balances.entry((account.to_string(), denom.to_string())).or_default() += amount;
    }

    fn burn(&mut self, account: &str, denom: &str, amount: u128) -> Result<(), IbcError> {
        let balance = self.balances.entry((account.to_string(), denom.to_string())).or_default();
        if *balance < amount {
            return Err(IbcError::AppError(format!(
                "insufficient {denom} balance: {balance} < {amount}"
            )));
        }
        *balance -= amount;
        Ok(())
    }

    fn transfer_internal(
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

    fn balance(&self, account: &str, denom: &str) -> u128 {
        self.balances.get(&(account.to_string(), denom.to_string())).copied().unwrap_or(0)
    }

    fn total_supply(&self, denom: &str) -> u128 {
        self.balances.iter().filter(|((_, d), _)| d == denom).map(|(_, amount)| *amount).sum()
    }

    fn denoms(&self) -> Vec<String> {
        let mut denoms: Vec<String> = self.balances.keys().map(|(_, d)| d.clone()).collect();
        denoms.sort();
        denoms.dedup();
        denoms
    }

    fn debit_sender(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        data: &FungibleTokenPacketData,
    ) -> Result<(), IbcError> {
        if split_voucher(&data.denom, port_id, channel_id).is_some() {
            self.burn(&data.sender, &data.denom, data.amount)
        } else {
            self.transfer_internal(
                &data.sender,
                &escrow_account(channel_id),
                &data.denom,
                data.amount,
            )
        }
    }

    fn refund_sender(
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

    fn credit_receiver(
        &mut self,
        packet: &Packet,
        denom: &str,
        amount: u128,
        account: &str,
    ) -> Result<String, IbcError> {
        match split_voucher(denom, &packet.source_port, &packet.source_channel) {
            Some(base) => {
                self.transfer_internal(
                    &escrow_account(&packet.destination_channel),
                    account,
                    base,
                    amount,
                )?;
                Ok(base.to_string())
            }
            None => {
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
}

/// One row of either audit, owned so the two can be compared.
type Row = (bool, String, String, u128, u128);

/// The old `voucher_backing`: sum every voucher balance on the holding
/// end, account by account.
fn scan_voucher_backing(
    port: &PortId,
    a: &ScanLedger,
    a_channel: &ChannelId,
    b: &ScanLedger,
    b_channel: &ChannelId,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (held_on_a, holder, channel, backer, backer_channel) in
        [(false, b, b_channel, a, a_channel), (true, a, a_channel, b, b_channel)]
    {
        let mut minted: BTreeMap<&str, (&str, u128)> = BTreeMap::new();
        for ((_, denom), amount) in &holder.balances {
            if let Some(inner) = split_voucher(denom, port, channel) {
                minted.entry(denom).or_insert((inner, 0)).1 += amount;
            }
        }
        let escrow = escrow_account(backer_channel);
        rows.extend(minted.into_iter().map(|(voucher, (inner, minted))| {
            let escrowed = backer.balance(&escrow, inner);
            (held_on_a, voucher.to_string(), inner.to_string(), minted, escrowed)
        }));
    }
    rows
}

const ACCOUNTS: [&str; 6] =
    ["alice", "bob", "carol", "mallory", "escrow:channel-7", "escrow:channel-0"];

/// Natives, each end's one-hop voucher, a stacked voucher, a prefix with
/// an empty base (native by [`split_voucher`]'s rule) and a denom that is
/// often burned before anyone mints it.
const DENOMS: [&str; 7] = [
    "sol",
    "pica",
    "transfer/channel-7/pica",
    "transfer/channel-0/sol",
    "transfer/channel-0/transfer/channel-9/atom",
    "transfer/channel-7/",
    "ghost",
];

#[derive(Clone, Copy, Debug)]
enum Kind {
    Mint,
    Burn,
    Transfer,
    Debit,
    Refund,
    Credit,
}

#[derive(Clone, Debug)]
struct Op {
    kind: Kind,
    on_a: bool,
    account: &'static str,
    other: &'static str,
    denom: &'static str,
    amount: u128,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let kind = prop_oneof![
        3 => Just(Kind::Mint),
        2 => Just(Kind::Burn),
        2 => Just(Kind::Transfer),
        2 => Just(Kind::Debit),
        2 => Just(Kind::Refund),
        2 => Just(Kind::Credit),
    ];
    // Small amounts collide with small balances, so overdrafts are common;
    // the large one stays far from `u128::MAX` however often it is minted.
    let amount = prop_oneof![
        1 => Just(0u128),
        6 => 1u128..50,
        2 => 50u128..5_000,
        1 => Just(1u128 << 100),
    ];
    (kind, any::<bool>(), 0..ACCOUNTS.len(), 0..ACCOUNTS.len(), 0..DENOMS.len(), amount).prop_map(
        |(kind, on_a, account, other, denom, amount)| Op {
            kind,
            on_a,
            account: ACCOUNTS[account],
            other: ACCOUNTS[other],
            denom: DENOMS[denom],
            amount,
        },
    )
}

/// Runs `$op` on `$bank`, which is either ledger: the two share method
/// names and signatures, not a trait. `$channel` is the bank's own end of
/// the link, `$remote` the other.
macro_rules! apply {
    ($bank:expr, $op:expr, $channel:expr, $remote:expr) => {{
        let (op, port) = ($op, PortId::transfer());
        let data = FungibleTokenPacketData {
            denom: op.denom.into(),
            amount: op.amount,
            sender: op.account.into(),
            receiver: op.other.into(),
            memo: String::new(),
        };
        match op.kind {
            Kind::Mint => {
                $bank.mint(op.account, op.denom, op.amount);
                Ok(String::new())
            }
            Kind::Burn => $bank.burn(op.account, op.denom, op.amount).map(|()| String::new()),
            Kind::Transfer => $bank
                .transfer_internal(op.account, op.other, op.denom, op.amount)
                .map(|()| String::new()),
            Kind::Debit => $bank.debit_sender(&port, $channel, &data).map(|()| String::new()),
            Kind::Refund => $bank.refund_sender(&port, $channel, &data).map(|()| String::new()),
            Kind::Credit => {
                let packet = Packet {
                    sequence: 1,
                    source_port: port.clone(),
                    source_channel: $remote.clone(),
                    destination_port: port.clone(),
                    destination_channel: $channel.clone(),
                    payload: Vec::new(),
                    timeout: Timeout::NEVER,
                };
                $bank.credit_receiver(&packet, op.denom, op.amount, op.other)
            }
        }
    }};
}

/// Every answer the new ledger keeps must equal what the oracle recounts.
fn assert_same_books(real: &TransferModule, oracle: &ScanLedger) -> Result<(), TestCaseError> {
    for ((account, denom), amount) in &oracle.balances {
        prop_assert_eq!(real.balance(account, denom), *amount, "{} of {}", account, denom);
    }
    for denom in oracle.denoms() {
        let total = real.total_supply(&denom);
        prop_assert_eq!(total, oracle.total_supply(&denom), "supply of {}", denom);
        let recount: u128 = real.holders(&denom).map(|(_, amount)| amount).sum();
        prop_assert_eq!(recount, total, "Σ accounts of {}", denom);
    }
    let minted: Vec<String> =
        oracle.denoms().into_iter().filter(|denom| oracle.minted.contains(denom)).collect();
    prop_assert_eq!(real.denoms(), minted);
    Ok(())
}

proptest! {
    #[test]
    fn running_totals_equal_the_recount(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let port = PortId::transfer();
        let (a_channel, b_channel) = (ChannelId::new(7), ChannelId::new(0));
        let (mut a, mut b) = (TransferModule::new(), TransferModule::new());
        let (mut scan_a, mut scan_b) = (ScanLedger::default(), ScanLedger::default());

        for op in &ops {
            let (got, expected) = if op.on_a {
                (apply!(a, op, &a_channel, &b_channel), apply!(scan_a, op, &a_channel, &b_channel))
            } else {
                (apply!(b, op, &b_channel, &a_channel), apply!(scan_b, op, &b_channel, &a_channel))
            };
            prop_assert_eq!(got, expected, "{:?}", op);

            assert_same_books(&a, &scan_a)?;
            assert_same_books(&b, &scan_b)?;

            let rows: Vec<Row> = voucher_backing(&port, &a, &a_channel, &b, &b_channel)
                .iter()
                .map(|r| (r.held_on_a, r.voucher.into(), r.inner.into(), r.minted, r.escrowed))
                .collect();
            let mut scanned = scan_voucher_backing(&port, &scan_a, &a_channel, &scan_b, &b_channel);
            scanned.retain(|(held_on_a, voucher, ..)| {
                if *held_on_a { &scan_a } else { &scan_b }.minted.contains(voucher)
            });
            prop_assert_eq!(rows, scanned);
        }
    }
}

/// The deliberate difference, spelled out: a packet naming a voucher this
/// chain never minted is refused either way, but only the old ledger kept
/// a record of the refusal.
#[test]
fn a_rejected_burn_registers_a_denom_only_in_the_oracle() {
    let (port, channel) = (PortId::transfer(), ChannelId::new(0));
    let data = FungibleTokenPacketData {
        denom: "transfer/channel-0/ghost".into(),
        amount: 1,
        sender: "mallory".into(),
        receiver: "bob".into(),
        memo: String::new(),
    };
    let (mut real, mut oracle) = (TransferModule::new(), ScanLedger::default());
    assert_eq!(
        real.debit_sender(&port, &channel, &data),
        oracle.debit_sender(&port, &channel, &data)
    );
    assert_eq!(oracle.denoms(), ["transfer/channel-0/ghost"]);
    assert!(real.denoms().is_empty());
}
