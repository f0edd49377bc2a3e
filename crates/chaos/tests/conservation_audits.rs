//! The shared conservation audits of `chaos::invariants` over one real
//! link: two counterparty chains joined by the ICS-03/04 handshake, each
//! binding a fee-stacked ICS-20 app and an NFT-transfer app. The ledgers
//! are written directly, so each case states exactly what the audit must
//! read: zero on a backed link, the counterfeit amount on a forged one.

use apps::{FeeMiddleware, ModuleStack, NftTransferApp, PacketFee, FEE_ESCROW_ACCOUNT};
use chaos::invariants::{fee_imbalance, ics20_backing, nft_unbacked};
use counterparty_sim::{CounterpartyChain, CounterpartyConfig};
use ibc_core::handshake::open_link;
use ibc_core::ics20::{escrow_account, TransferModule};
use ibc_core::{ChannelId, IbcError, Module, PortId};

/// Two chains joined by one link, with the link's channel on each end per
/// port.
struct Link {
    a: CounterpartyChain,
    b: CounterpartyChain,
    a_transfer: ChannelId,
    b_transfer: ChannelId,
    a_nft: ChannelId,
    b_nft: ChannelId,
}

fn nft_port() -> PortId {
    PortId::named("nft")
}

fn chain(seed: u64) -> CounterpartyChain {
    let mut chain = CounterpartyChain::new(CounterpartyConfig::default(), seed);
    chain.ibc_mut().bind_port(
        PortId::transfer(),
        Box::new(
            ModuleStack::new(Box::new(TransferModule::new())).with(Box::new(FeeMiddleware::new())),
        ),
    );
    chain
        .ibc_mut()
        .bind_port(nft_port(), Box::new(ModuleStack::new(Box::new(NftTransferApp::new()))));
    chain
}

fn link() -> Link {
    let (mut a, mut b) = (chain(1), chain(2));
    let ports = [(PortId::transfer(), "ics20-1"), (nft_port(), "ics721-1")];
    let ends = open_link::<IbcError>(&mut a, &mut b, &ports, &mut 0).unwrap();
    let [(a_transfer, b_transfer), (a_nft, b_nft)]: [(ChannelId, ChannelId); 2] =
        ends.channels.try_into().unwrap();
    Link { a, b, a_transfer, b_transfer, a_nft, b_nft }
}

fn stack_mut<'c>(chain: &'c mut CounterpartyChain, port: &PortId) -> &'c mut ModuleStack {
    chain.ibc_mut().module_mut(port).unwrap().as_any_mut().downcast_mut::<ModuleStack>().unwrap()
}

fn bank_mut(chain: &mut CounterpartyChain) -> &mut TransferModule {
    stack_mut(chain, &PortId::transfer()).ics20_mut().unwrap()
}

fn mint_nft(chain: &mut CounterpartyChain, class: &str, token: &str, owner: &str) {
    let app = stack_mut(chain, &nft_port()).app_as_mut::<NftTransferApp>().unwrap();
    app.nft_mut().mint(class, token, owner).unwrap();
}

impl Link {
    /// Voucher units beyond their backing, summed over the link.
    fn ics20_unbacked(&self) -> u128 {
        let rows = ics20_backing(
            &PortId::transfer(),
            self.a.ibc(),
            &self.a_transfer,
            self.b.ibc(),
            &self.b_transfer,
        )
        .expect("both ends bind an ICS-20 ledger");
        rows.iter().map(|row| row.unbacked()).sum()
    }

    fn nft_unbacked(&self) -> u64 {
        nft_unbacked(&nft_port(), self.a.ibc(), &self.a_nft, self.b.ibc(), &self.b_nft)
    }

    /// The fee imbalance of `a` and of `b`.
    fn fee_imbalances(&self) -> [u128; 2] {
        [&self.a, &self.b].map(|chain| {
            fee_imbalance(chain.ibc(), &PortId::transfer()).expect("a fee layer is stacked").0
        })
    }

    /// Escrow-backed vouchers both ways, an escrowed NFT original with its
    /// voucher, and a pending packet fee on each end: a link in the middle
    /// of honest traffic.
    fn backed(mut self) -> Self {
        let a_escrow = escrow_account(&self.a_transfer);
        let b_escrow = escrow_account(&self.b_transfer);
        bank_mut(&mut self.a).mint(&a_escrow, "tok-a", 100);
        bank_mut(&mut self.b).mint("bob", &format!("transfer/{}/tok-a", self.b_transfer), 100);
        bank_mut(&mut self.b).mint(&b_escrow, "tok-b", 60);
        bank_mut(&mut self.a).mint("alice", &format!("transfer/{}/tok-b", self.a_transfer), 25);

        mint_nft(&mut self.a, "punks", "1", &escrow_account(&self.a_nft));
        mint_nft(&mut self.b, &format!("nft/{}/punks", self.b_nft), "1", "bob");

        for (chain, channel) in [(&mut self.a, &self.a_transfer), (&mut self.b, &self.b_transfer)] {
            bank_mut(chain).mint("payer", "fee-tok", 30);
            stack_mut(chain, &PortId::transfer())
                .escrow_fee(channel, 1, PacketFee::flat(5, 3, 2), "payer", "fee-tok")
                .unwrap();
        }
        self
    }
}

#[test]
fn a_backed_link_reads_zero_on_all_three_audits() {
    let link = link().backed();
    assert_eq!(link.ics20_unbacked(), 0);
    assert_eq!(link.nft_unbacked(), 0);
    assert_eq!(link.fee_imbalances(), [0, 0]);
    // The audit saw the vouchers it passed: one row per direction.
    let rows = ics20_backing(
        &PortId::transfer(),
        link.a.ibc(),
        &link.a_transfer,
        link.b.ibc(),
        &link.b_transfer,
    )
    .unwrap();
    let minted: Vec<(bool, u128, u128)> =
        rows.iter().map(|row| (row.held_on_a, row.minted, row.escrowed)).collect();
    assert_eq!(minted, [(false, 100, 100), (true, 25, 60)]);
}

#[test]
fn a_counterfeit_voucher_reads_exactly_the_minted_amount_either_way() {
    let mut link = link().backed();
    let voucher = format!("transfer/{}/tok-a", link.b_transfer);
    bank_mut(&mut link.b).mint("mallory", &voucher, 40);
    assert_eq!(link.ics20_unbacked(), 40);

    // A voucher of a denomination never escrowed at all, on the other end.
    let voucher = format!("transfer/{}/tok-z", link.a_transfer);
    bank_mut(&mut link.a).mint("mallory", &voucher, 7);
    assert_eq!(link.ics20_unbacked(), 47);
    // The other audits are not fooled into reading the forgery.
    assert_eq!(link.nft_unbacked(), 0);
    assert_eq!(link.fee_imbalances(), [0, 0]);
}

#[test]
fn an_nft_voucher_without_its_escrowed_original_reads_one_per_token() {
    let mut link = link().backed();
    mint_nft(&mut link.b, &format!("nft/{}/punks", link.b_nft), "2", "mallory");
    assert_eq!(link.nft_unbacked(), 1);

    // The original exists but sits with a user, not in escrow: the other
    // direction of the link.
    mint_nft(&mut link.b, "apes", "9", "bob");
    mint_nft(&mut link.a, &format!("nft/{}/apes", link.a_nft), "9", "mallory");
    assert_eq!(link.nft_unbacked(), 2);
    assert_eq!(link.ics20_unbacked(), 0);
}

#[test]
fn fee_escrow_drained_behind_the_middleware_reads_the_drained_amount() {
    let mut link = link().backed();
    bank_mut(&mut link.b).burn(FEE_ESCROW_ACCOUNT, "fee-tok", 4).unwrap();
    assert_eq!(link.fee_imbalances(), [0, 4]);
    let (_, totals) = fee_imbalance(link.b.ibc(), &PortId::transfer()).unwrap();
    assert_eq!((totals.escrowed, totals.pending), (10, 10), "the middleware never saw it");
    assert_eq!(link.ics20_unbacked(), 0, "fee-tok is no voucher");
}

#[test]
fn ends_without_the_apps_are_vacuously_conserving() {
    let (a, b) = (CounterpartyChain::new(CounterpartyConfig::default(), 3), chain(4));
    let channel = ChannelId::new(0);
    assert!(ics20_backing(&PortId::transfer(), a.ibc(), &channel, b.ibc(), &channel).is_none());
    assert_eq!(nft_unbacked(&nft_port(), a.ibc(), &channel, b.ibc(), &channel), 0);
    assert!(fee_imbalance(a.ibc(), &PortId::transfer()).is_none());
}
