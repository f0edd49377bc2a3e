//! Stack composition, dispatch ordering, and per-layer behaviour.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use apps::{
    ica_account, parse_hook, FeeMiddleware, ForwardMiddleware, HookMetadata, IcaApp, IcaOp,
    IcaOutcome, IcaPacketData, InnerStack, MemoHookMiddleware, Middleware, ModuleStack,
    NftPacketData, NftTransferApp, PacketFee, RecvDecision, FEE_ESCROW_ACCOUNT,
};
use ibc_core::channel::{Acknowledgement, Packet, Timeout};
use ibc_core::forward::{AssetUnit, ForwardMetadata, MemoEnvelope, RefundMetadata};
use ibc_core::ics20::{escrow_account, FungibleTokenPacketData, TransferModule};
use ibc_core::router::{EchoModule, Module};
use ibc_core::types::{ChannelId, IbcError, PortId};
use proptest::prelude::*;

const FWD: &str = "hub:forward";

fn packet(seq: u64, src_chan: u64, dst_chan: u64, payload: Vec<u8>) -> Packet {
    Packet {
        sequence: seq,
        source_port: PortId::transfer(),
        source_channel: ChannelId::new(src_chan),
        destination_port: PortId::transfer(),
        destination_channel: ChannelId::new(dst_chan),
        payload,
        timeout: Timeout::NEVER,
    }
}

fn ics20_data(denom: &str, amount: u128, memo: String) -> FungibleTokenPacketData {
    FungibleTokenPacketData {
        denom: denom.into(),
        amount,
        sender: "alice".into(),
        receiver: "bob".into(),
        memo,
    }
}

fn transfer_stack() -> ModuleStack {
    ModuleStack::new(Box::new(TransferModule::new())).with(Box::new(ForwardMiddleware::new(FWD)))
}

// ---------------------------------------------------------------- ordering

/// Records every hook invocation into a shared log.
struct Recorder {
    name: &'static str,
    log: Rc<RefCell<Vec<String>>>,
    stop_recv: bool,
}

impl Recorder {
    fn new(name: &'static str, log: &Rc<RefCell<Vec<String>>>) -> Box<Self> {
        Box::new(Self { name, log: Rc::clone(log), stop_recv: false })
    }

    fn stopping(name: &'static str, log: &Rc<RefCell<Vec<String>>>) -> Box<Self> {
        Box::new(Self { name, log: Rc::clone(log), stop_recv: true })
    }

    fn record(&self, hook: &str) {
        self.log.borrow_mut().push(format!("{}.{hook}", self.name));
    }
}

impl Middleware for Recorder {
    fn name(&self) -> &'static str {
        self.name
    }

    fn before_recv(&mut self, _inner: &mut InnerStack<'_>, _packet: &Packet) -> RecvDecision {
        self.record("before_recv");
        if self.stop_recv {
            RecvDecision::Stop(Acknowledgement::Error("stopped".into()))
        } else {
            RecvDecision::Continue
        }
    }

    fn after_recv(
        &mut self,
        _inner: &mut InnerStack<'_>,
        _packet: &Packet,
        ack: Acknowledgement,
    ) -> Acknowledgement {
        self.record("after_recv");
        ack
    }

    fn before_ack(
        &mut self,
        _inner: &mut InnerStack<'_>,
        _packet: &Packet,
        _ack: &Acknowledgement,
    ) -> Result<(), IbcError> {
        self.record("before_ack");
        Ok(())
    }

    fn after_ack(
        &mut self,
        _inner: &mut InnerStack<'_>,
        _packet: &Packet,
        _ack: &Acknowledgement,
    ) -> Result<(), IbcError> {
        self.record("after_ack");
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn recv_hooks_run_onion_ordered_around_the_app() {
    let log = Rc::new(RefCell::new(Vec::new()));
    // `.with` wraps: inner is added first, outer last.
    let mut stack = ModuleStack::new(Box::new(EchoModule::default()))
        .with(Recorder::new("inner", &log))
        .with(Recorder::new("outer", &log));
    assert_eq!(stack.layer_names(), ["outer", "inner", "echo"]);
    assert_eq!(stack.dispatch_counts().len(), stack.layer_names().len());

    let pkt = packet(1, 0, 1, b"ping".to_vec());
    let ack = stack.on_recv_packet(&pkt);
    assert!(ack.is_success());
    assert_eq!(
        log.borrow().as_slice(),
        ["outer.before_recv", "inner.before_recv", "inner.after_recv", "outer.after_recv"]
    );
    assert_eq!(stack.app_as::<EchoModule>().unwrap().received, vec![pkt.clone()]);

    log.borrow_mut().clear();
    stack.on_acknowledge(&pkt, &ack).unwrap();
    assert_eq!(
        log.borrow().as_slice(),
        ["outer.before_ack", "inner.before_ack", "inner.after_ack", "outer.after_ack"]
    );
    assert_eq!(stack.counters().received, 1);
    assert_eq!(stack.counters().acked, 1);
    assert_eq!(stack.dispatch_counts(), [2, 2, 2]);

    // A layer added after traffic goes outermost with a fresh count; the
    // old layers' counts shift inward with them.
    let stack = stack.with(Recorder::new("late", &log));
    assert_eq!(stack.layer_names(), ["late", "outer", "inner", "echo"]);
    assert_eq!(stack.dispatch_counts(), [0, 2, 2, 2]);
}

#[test]
fn stop_short_circuits_inner_layers_but_outer_after_hooks_still_run() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut stack = ModuleStack::new(Box::new(EchoModule::default()))
        .with(Recorder::new("inner", &log))
        .with(Recorder::stopping("mid", &log))
        .with(Recorder::new("outer", &log));

    let pkt = packet(1, 0, 1, b"ping".to_vec());
    let ack = stack.on_recv_packet(&pkt);
    assert!(!ack.is_success(), "the stopping layer's ack wins");
    // `mid` stopped: `inner` never ran, `mid`'s own after_recv is skipped,
    // `outer`'s after_recv still observes the ack on the way out.
    assert_eq!(
        log.borrow().as_slice(),
        ["outer.before_recv", "mid.before_recv", "outer.after_recv"]
    );
    assert!(stack.app_as::<EchoModule>().unwrap().received.is_empty());
    assert_eq!(stack.counters().recv_errors, 1);
}

// ------------------------------------------------ empty stack ≡ bare module

/// What a received packet carries.
#[derive(Clone, Copy, Debug)]
enum Body {
    WellFormed,
    Malformed,
    /// Well-formed, but the other application's payload.
    WrongApp,
}

/// The denomination (or NFT class) a step names, seen from this chain's
/// `channel-1`, which faces the counterparty's `channel-0`.
#[derive(Clone, Copy, Debug)]
enum Denom {
    /// Plain `sol`.
    Native,
    /// A voucher going back over the channel it came in on.
    Returning,
    /// A voucher minted over some other channel.
    Foreign,
}

impl Denom {
    /// The name as written in a packet arriving over `channel-1`
    /// (`inbound`) or leaving over it.
    fn name(self, port: &PortId, inbound: bool) -> String {
        let channel = if inbound { 0 } else { 1 };
        match self {
            Self::Native => "sol".into(),
            Self::Returning => format!("{port}/channel-{channel}/sol"),
            Self::Foreign => format!("{port}/channel-9/atom"),
        }
    }
}

#[derive(Clone, Debug)]
enum Step {
    Recv(Body, Denom, u128),
    /// Debit a sender for an outgoing packet, as a send does.
    Send(Denom, u128),
    /// Acknowledge (success or error) one debited packet still in flight.
    Ack(prop::sample::Index, bool),
    /// Time out one debited packet still in flight.
    Timeout(prop::sample::Index),
}

fn denom() -> impl Strategy<Value = Denom> {
    prop_oneof![Just(Denom::Native), Just(Denom::Returning), Just(Denom::Foreign)]
}

fn amount() -> impl Strategy<Value = u128> {
    prop_oneof![Just(0u128), 1u128..100, Just(1u128 << 100)]
}

fn step() -> impl Strategy<Value = Step> {
    let body = prop_oneof![Just(Body::WellFormed), Just(Body::Malformed), Just(Body::WrongApp)];
    prop_oneof![
        3 => (body, denom(), amount()).prop_map(|(body, denom, amount)| Step::Recv(body, denom, amount)),
        2 => (denom(), amount()).prop_map(|(denom, amount)| Step::Send(denom, amount)),
        2 => (any::<prop::sample::Index>(), any::<bool>()).prop_map(|(i, ok)| Step::Ack(i, ok)),
        1 => any::<prop::sample::Index>().prop_map(Step::Timeout),
    ]
}

/// An NFT payload moving token `amount` of class `denom` (`nft`), or an
/// ICS-20 payload moving `amount` of `denom`.
fn app_payload(nft: bool, denom: String, amount: u128, sender: &str, receiver: &str) -> Vec<u8> {
    let (sender, receiver, memo) = (sender.into(), receiver.into(), String::new());
    if nft {
        let tokens = vec![amount.to_string()];
        NftPacketData { class: denom, tokens, sender, receiver, memo }.encode()
    } else {
        FungibleTokenPacketData { denom, amount, sender, receiver, memo }.encode()
    }
}

/// A module type the oracle drives both bare and inside an empty stack.
trait Subject: Module + 'static {
    /// Whether this application's own payloads are NFT ones.
    const NFT: bool;
    /// A funded module: `alice` holds `sol`, and so does `channel-1`'s
    /// escrow.
    fn genesis() -> Self;
    /// Debits the sender of outgoing `packet`.
    fn debit(&mut self, packet: &Packet) -> Result<(), IbcError>;
    /// Everything the module holds, rendered for comparison.
    fn ledger(&self) -> String;
}

impl Subject for EchoModule {
    const NFT: bool = false;

    fn genesis() -> Self {
        Self::default()
    }

    fn debit(&mut self, _packet: &Packet) -> Result<(), IbcError> {
        Ok(())
    }

    fn ledger(&self) -> String {
        format!("{:?}\n{:?}\n{:?}", self.received, self.acknowledged, self.timed_out)
    }
}

impl Subject for TransferModule {
    const NFT: bool = false;

    fn genesis() -> Self {
        let mut bank = Self::new();
        bank.mint("alice", "sol", 1 << 101);
        bank.mint(&escrow_account(&ChannelId::new(1)), "sol", 500);
        bank
    }

    fn debit(&mut self, packet: &Packet) -> Result<(), IbcError> {
        let data = FungibleTokenPacketData::decode(&packet.payload).expect("sends are well-formed");
        self.debit_sender(&packet.source_port, &packet.source_channel, &data)
    }

    fn ledger(&self) -> String {
        let mut ledger = format!("{:?}\n", self.denoms());
        for denom in self.denoms() {
            let mut holders: Vec<_> = self.holders(&denom).collect();
            holders.sort_unstable();
            ledger += &format!("{denom}: {} {holders:?}\n", self.total_supply(&denom));
        }
        ledger
    }
}

impl Subject for NftTransferApp {
    const NFT: bool = true;

    fn genesis() -> Self {
        let mut app = Self::new();
        let escrow = escrow_account(&ChannelId::new(1));
        for token in (0..100).chain([1u128 << 100]) {
            let owner = if token % 2 == 0 { "alice" } else { &escrow };
            app.nft_mut().mint("sol", &token.to_string(), owner).unwrap();
        }
        app
    }

    fn debit(&mut self, packet: &Packet) -> Result<(), IbcError> {
        let data = NftPacketData::decode(&packet.payload).expect("sends are well-formed");
        self.debit_sender(&packet.source_port, &packet.source_channel, &data)
    }

    fn ledger(&self) -> String {
        let nft = self.nft();
        let mut ledger = String::new();
        for class in nft.classes() {
            for token in nft.tokens_in(&class) {
                ledger += &format!("{class}#{token}: {:?}\n", nft.owner_of(&class, &token));
            }
        }
        ledger
    }
}

/// Drives `script` through a bare `M` and through an empty stack around
/// another, comparing every verdict on the way and both ledgers at the
/// end.
fn empty_stack_matches_bare<M: Subject>(script: &[Step]) -> Result<(), TestCaseError> {
    let mut bare = M::genesis();
    let mut stack = ModuleStack::new(Box::new(M::genesis()));
    let port = PortId::named(bare.name());
    prop_assert_eq!(stack.layer_names(), [bare.name()]);
    prop_assert_eq!(
        stack.on_chan_open(&port, &ChannelId::new(1), "v1"),
        bare.on_chan_open(&port, &ChannelId::new(1), "v1")
    );
    let app_packet = |sequence, inbound: bool, payload| {
        let (src, dst) = if inbound { (0, 1) } else { (1, 0) };
        Packet {
            source_port: port.clone(),
            destination_port: port.clone(),
            ..packet(sequence, src, dst, payload)
        }
    };
    let mut in_flight = Vec::new();
    for (sequence, step) in (1..).zip(script) {
        match *step {
            Step::Recv(body, denom, amount) => {
                let denom = denom.name(&port, true);
                let payload = match body {
                    Body::WellFormed => app_payload(M::NFT, denom, amount, "alice", "bob"),
                    Body::WrongApp => app_payload(!M::NFT, denom, amount, "alice", "bob"),
                    Body::Malformed => format!("{{\"{denom}\": {amount}").into_bytes(),
                };
                let packet = app_packet(sequence, true, payload);
                prop_assert_eq!(stack.on_recv_packet(&packet), bare.on_recv_packet(&packet));
            }
            Step::Send(denom, amount) => {
                let sender = if matches!(denom, Denom::Native) { "alice" } else { "bob" };
                let payload = app_payload(M::NFT, denom.name(&port, false), amount, sender, "dave");
                let packet = app_packet(sequence, false, payload);
                let debited = bare.debit(&packet);
                prop_assert_eq!(stack.app_as_mut::<M>().unwrap().debit(&packet), debited.clone());
                if debited.is_ok() {
                    in_flight.push(packet);
                }
            }
            Step::Ack(which, success) if !in_flight.is_empty() => {
                let packet = in_flight.swap_remove(which.index(in_flight.len()));
                let ack = if success {
                    Acknowledgement::Success(b"AQ==".to_vec())
                } else {
                    Acknowledgement::Error("rejected".into())
                };
                prop_assert_eq!(
                    stack.on_acknowledge(&packet, &ack),
                    bare.on_acknowledge(&packet, &ack)
                );
            }
            Step::Timeout(which) if !in_flight.is_empty() => {
                let packet = in_flight.swap_remove(which.index(in_flight.len()));
                prop_assert_eq!(stack.on_timeout(&packet), bare.on_timeout(&packet));
            }
            Step::Ack(..) | Step::Timeout(..) => {}
        }
    }
    prop_assert_eq!(stack.app_as::<M>().unwrap().ledger(), bare.ledger());
    Ok(())
}

proptest! {
    /// ROADMAP item 6(b)'s oracle: a middleware-less stack is the module
    /// it wraps — same acks, same `Result`s, same ledger — for every
    /// application a stack is built around here.
    #[test]
    fn empty_stack_is_transparent_for_every_app(script in prop::collection::vec(step(), 1..48)) {
        empty_stack_matches_bare::<EchoModule>(&script)?;
        empty_stack_matches_bare::<TransferModule>(&script)?;
        empty_stack_matches_bare::<NftTransferApp>(&script)?;
    }
}

// ---------------------------------------------------------------- forward

#[test]
fn forward_memo_stacks_voucher_and_queues_next_leg() {
    let mut stack = transfer_stack();
    let memo = ForwardMetadata::new("carol", &ChannelId::new(5)).to_memo();
    let incoming = packet(4, 0, 1, ics20_data("wsol", 70, memo).encode());
    let ack = stack.on_recv_packet(&incoming);
    assert!(ack.is_success(), "{ack:?}");
    // Funds sit in the forward account under the stacked denom, not with
    // the nominal receiver.
    let local = "transfer/channel-1/wsol";
    assert_eq!(stack.ics20().unwrap().balance(FWD, local), 70);
    assert_eq!(stack.ics20().unwrap().balance("bob", local), 0);

    let requests = stack.take_requests();
    assert_eq!(requests.len(), 1);
    let req = &requests[0];
    assert_eq!(req.channel, ChannelId::new(5));
    assert_eq!(req.asset, AssetUnit::Fungible { denom: local.into(), amount: 70 });
    assert_eq!(req.receiver, "carol");
    assert!(req.memo.is_empty(), "last hop carries no further metadata");
    let unit = req.in_flight.clone().expect("forwarded legs are tracked");
    assert_eq!(unit.return_channel, ChannelId::new(1));
    assert_eq!((unit.origin_channel.clone(), unit.origin_sequence), (ChannelId::new(0), 4));
    assert_eq!(unit.refund_receiver, "alice");
}

#[test]
fn failed_leg_unwinds_backwards_and_origin_delivers_refund() {
    let mut stack = transfer_stack();
    let memo = ForwardMetadata::new("carol", &ChannelId::new(5)).to_memo();
    assert!(stack
        .on_recv_packet(&packet(4, 0, 1, ics20_data("wsol", 70, memo).encode()))
        .is_success());
    let req = stack.take_requests().remove(0);
    // Harness "sends" the next leg: debit the forward account, then
    // register the in-flight record under the assigned sequence.
    let AssetUnit::Fungible { denom: local, amount } = req.asset.clone() else {
        panic!("fungible leg");
    };
    let out_data = FungibleTokenPacketData {
        denom: local.clone(),
        amount,
        sender: FWD.into(),
        receiver: req.receiver.clone(),
        memo: req.memo.clone(),
    };
    let outgoing = packet(1, 5, 2, out_data.encode());
    stack
        .ics20_mut()
        .unwrap()
        .transfer_internal(FWD, &escrow_account(&ChannelId::new(5)), &local, 70)
        .unwrap();
    stack.forward_mut().unwrap().register_in_flight(&ChannelId::new(5), 1, req.in_flight.unwrap());
    assert_eq!(stack.forward().unwrap().in_flight_len(), 1);

    // The leg times out: the app's refund re-credits the forward account,
    // then the forward layer queues a backward refund over channel-1.
    stack.on_timeout(&outgoing).unwrap();
    assert_eq!(stack.forward().unwrap().in_flight_len(), 0);
    assert_eq!(stack.ics20().unwrap().balance(FWD, &local), 70);
    let refund = stack.take_requests().remove(0);
    assert_eq!(refund.channel, ChannelId::new(1));
    assert_eq!(refund.asset, AssetUnit::Fungible { denom: local.clone(), amount: 70 });
    assert_eq!(refund.receiver, "alice");
    assert!(refund.in_flight.is_none());
    let env = MemoEnvelope::parse(&refund.memo);
    assert_eq!(env.refund, Some(RefundMetadata { channel: "channel-0".into(), sequence: 4 }));

    // On the origin chain (no in-flight entry for channel-0 #4) the
    // refund transfer is a plain delivery back to the sender.
    let mut origin = ModuleStack::new(Box::new(TransferModule::new()))
        .with(Box::new(ForwardMiddleware::new("origin:forward")));
    origin.ics20_mut().unwrap().mint(&escrow_account(&ChannelId::new(0)), "wsol", 70);
    let refund_data = FungibleTokenPacketData {
        denom: "transfer/channel-1/wsol".into(),
        amount: 70,
        sender: FWD.into(),
        receiver: "alice".into(),
        memo: refund.memo.clone(),
    };
    let refund_packet = packet(9, 1, 0, refund_data.encode());
    assert!(origin.on_recv_packet(&refund_packet).is_success());
    assert_eq!(origin.ics20().unwrap().balance("alice", "wsol"), 70);
    assert_eq!(origin.ics20().unwrap().balance(&escrow_account(&ChannelId::new(0)), "wsol"), 0);
}

#[test]
fn success_ack_clears_in_flight_without_refund() {
    let mut stack = transfer_stack();
    let memo = ForwardMetadata::new("carol", &ChannelId::new(5)).to_memo();
    assert!(stack
        .on_recv_packet(&packet(4, 0, 1, ics20_data("wsol", 70, memo).encode()))
        .is_success());
    let req = stack.take_requests().remove(0);
    let AssetUnit::Fungible { denom, amount } = req.asset.clone() else { panic!("fungible leg") };
    let out_data = FungibleTokenPacketData {
        denom: denom.clone(),
        amount,
        sender: FWD.into(),
        receiver: req.receiver,
        memo: req.memo,
    };
    let outgoing = packet(1, 5, 2, out_data.encode());
    stack
        .ics20_mut()
        .unwrap()
        .transfer_internal(FWD, &escrow_account(&ChannelId::new(5)), &denom, 70)
        .unwrap();
    stack.forward_mut().unwrap().register_in_flight(&ChannelId::new(5), 1, req.in_flight.unwrap());
    stack.on_acknowledge(&outgoing, &Acknowledgement::Success(b"AQ==".to_vec())).unwrap();
    assert_eq!(stack.forward().unwrap().in_flight_len(), 0);
    assert!(!stack.has_requests());
}

#[test]
fn plain_transfers_pass_through_to_the_app() {
    let mut stack = transfer_stack();
    let incoming = packet(1, 0, 1, ics20_data("wsol", 30, String::new()).encode());
    assert!(stack.on_recv_packet(&incoming).is_success());
    assert_eq!(stack.ics20().unwrap().balance("bob", "transfer/channel-1/wsol"), 30);
}

// ---------------------------------------------------------------- fees

fn fee_stack() -> ModuleStack {
    ModuleStack::new(Box::new(TransferModule::new())).with(Box::new(FeeMiddleware::new()))
}

#[test]
fn ack_pays_relayer_and_refunds_timeout_fee() {
    let mut stack = fee_stack();
    stack.ics20_mut().unwrap().mint("alice", "sol", 100);
    let fee = PacketFee::flat(5, 3, 2);
    stack.escrow_fee(&ChannelId::new(0), 1, fee, "alice", "sol").unwrap();
    assert_eq!(stack.ics20().unwrap().balance("alice", "sol"), 90);
    assert_eq!(stack.ics20().unwrap().balance(FEE_ESCROW_ACCOUNT, "sol"), 10);
    assert_eq!(stack.fees().unwrap().imbalance(stack.ics20().unwrap()), 0);

    // The sent packet itself (payload irrelevant to the fee layer).
    let data = ics20_data("sol", 40, String::new());
    let pkt = packet(1, 0, 1, data.encode());
    stack
        .ics20_mut()
        .unwrap()
        .debit_sender(&PortId::transfer(), &ChannelId::new(0), &data)
        .unwrap();
    stack.on_acknowledge(&pkt, &Acknowledgement::Success(b"AQ==".to_vec())).unwrap();

    assert_eq!(stack.ics20().unwrap().balance("relayer:channel-0", "sol"), 8);
    assert_eq!(stack.ics20().unwrap().balance("alice", "sol"), 90 - 40 + 2);
    assert_eq!(stack.ics20().unwrap().balance(FEE_ESCROW_ACCOUNT, "sol"), 0);
    let totals = stack.fees().unwrap().totals();
    assert_eq!((totals.escrowed, totals.paid, totals.refunded, totals.pending), (10, 8, 2, 0));
    assert_eq!(stack.fees().unwrap().imbalance(stack.ics20().unwrap()), 0);
}

#[test]
fn error_ack_still_pays_the_relayer() {
    let mut stack = fee_stack();
    stack.ics20_mut().unwrap().mint("alice", "sol", 100);
    let data = ics20_data("sol", 40, String::new());
    let pkt = packet(1, 0, 1, data.encode());
    stack
        .ics20_mut()
        .unwrap()
        .debit_sender(&PortId::transfer(), &ChannelId::new(0), &data)
        .unwrap();
    stack.escrow_fee(&ChannelId::new(0), 1, PacketFee::flat(5, 3, 2), "alice", "sol").unwrap();

    stack.on_acknowledge(&pkt, &Acknowledgement::Error("rejected".into())).unwrap();
    // The app refunded the transfer; the relayer still earned recv+ack.
    assert_eq!(stack.ics20().unwrap().balance("relayer:channel-0", "sol"), 8);
    assert_eq!(stack.ics20().unwrap().balance("alice", "sol"), 92);
    assert_eq!(stack.fees().unwrap().settled_on_ack, 1);
    assert_eq!(stack.fees().unwrap().imbalance(stack.ics20().unwrap()), 0);
}

#[test]
fn timeout_pays_timeout_fee_and_refunds_the_rest() {
    let mut stack = fee_stack();
    stack.ics20_mut().unwrap().mint("alice", "sol", 100);
    let data = ics20_data("sol", 40, String::new());
    let pkt = packet(1, 0, 1, data.encode());
    stack
        .ics20_mut()
        .unwrap()
        .debit_sender(&PortId::transfer(), &ChannelId::new(0), &data)
        .unwrap();
    stack.escrow_fee(&ChannelId::new(0), 1, PacketFee::flat(5, 3, 2), "alice", "sol").unwrap();

    stack.on_timeout(&pkt).unwrap();
    assert_eq!(stack.ics20().unwrap().balance("relayer:channel-0", "sol"), 2);
    assert_eq!(stack.ics20().unwrap().balance("alice", "sol"), 98);
    assert_eq!(stack.fees().unwrap().settled_on_timeout, 1);
    assert_eq!(stack.fees().unwrap().imbalance(stack.ics20().unwrap()), 0);
}

#[test]
fn escrow_fee_requires_a_fee_layer_and_funds() {
    let mut bare = ModuleStack::new(Box::new(TransferModule::new()));
    bare.ics20_mut().unwrap().mint("alice", "sol", 100);
    assert!(bare
        .escrow_fee(&ChannelId::new(0), 1, PacketFee::flat(1, 1, 1), "alice", "sol")
        .is_err());

    let mut stack = fee_stack();
    assert!(
        stack.escrow_fee(&ChannelId::new(0), 1, PacketFee::flat(1, 1, 1), "poor", "sol").is_err(),
        "unfunded payer cannot escrow"
    );
    assert_eq!(stack.fees().unwrap().pending_len(), 0, "failed escrow leaves no obligation");
}

// ---------------------------------------------------------------- hooks

#[test]
fn transfer_hook_sweeps_delivered_funds() {
    let mut stack =
        ModuleStack::new(Box::new(TransferModule::new())).with(Box::new(MemoHookMiddleware::new()));
    let memo = HookMetadata::transfer_to("vault").to_memo();
    let incoming = packet(1, 0, 1, ics20_data("wsol", 30, memo).encode());
    assert!(stack.on_recv_packet(&incoming).is_success());
    let local = "transfer/channel-1/wsol";
    assert_eq!(stack.ics20().unwrap().balance("vault", local), 30);
    assert_eq!(stack.ics20().unwrap().balance("bob", local), 0);
    assert_eq!(stack.middleware_as::<MemoHookMiddleware>().unwrap().executed, 1);
}

#[test]
fn note_hook_records_and_failures_leave_the_ack_alone() {
    let mut stack =
        ModuleStack::new(Box::new(TransferModule::new())).with(Box::new(MemoHookMiddleware::new()));
    let memo = HookMetadata::note("hello").to_memo();
    assert!(stack
        .on_recv_packet(&packet(1, 0, 1, ics20_data("wsol", 5, memo).encode()))
        .is_success());
    assert_eq!(stack.middleware_as::<MemoHookMiddleware>().unwrap().notes(), ["hello"]);

    // Unknown actions fail closed but never poison the delivery.
    let memo = r#"{"hook":{"action":"explode"}}"#.to_string();
    assert!(stack
        .on_recv_packet(&packet(2, 0, 1, ics20_data("wsol", 5, memo).encode()))
        .is_success());
    let hooks = stack.middleware_as::<MemoHookMiddleware>().unwrap();
    assert_eq!((hooks.executed, hooks.failed), (1, 1));
    assert!(parse_hook("not json").is_none());
}

#[test]
fn hooks_skip_in_transit_forward_legs() {
    let mut stack = ModuleStack::new(Box::new(TransferModule::new()))
        .with(Box::new(ForwardMiddleware::new(FWD)))
        .with(Box::new(MemoHookMiddleware::new()));
    let memo = ForwardMetadata::new("carol", &ChannelId::new(5)).to_memo();
    assert!(stack
        .on_recv_packet(&packet(1, 0, 1, ics20_data("wsol", 70, memo).encode()))
        .is_success());
    let hooks = stack.middleware_as::<MemoHookMiddleware>().unwrap();
    assert_eq!((hooks.executed, hooks.failed), (0, 0));
    assert_eq!(stack.take_requests().len(), 1, "forward layer still routed the leg");
}

// ---------------------------------------------------------------- nft

#[test]
fn nft_round_trip_mints_prefixed_voucher_and_burns_it_home() {
    // Chain A (origin) sends kitty #7 to chain B; B sends it back.
    let mut a = ModuleStack::new(Box::new(NftTransferApp::new()));
    let mut b = ModuleStack::new(Box::new(NftTransferApp::new()));
    let a_app = a.app_as_mut::<NftTransferApp>().unwrap();
    a_app.nft_mut().mint("kitty", "7", "alice").unwrap();

    let data = NftPacketData {
        class: "kitty".into(),
        tokens: vec!["7".into()],
        sender: "alice".into(),
        receiver: "bob".into(),
        memo: String::new(),
    };
    a_app.debit_sender(&PortId::named("nft"), &ChannelId::new(0), &data).unwrap();
    assert_eq!(
        a_app.nft().owner_of("kitty", "7"),
        Some(escrow_account(&ChannelId::new(0)).as_str())
    );

    let mut outbound = packet(1, 0, 1, data.encode());
    outbound.source_port = PortId::named("nft");
    outbound.destination_port = PortId::named("nft");
    assert!(b.on_recv_packet(&outbound).is_success());
    let b_app = b.app_as::<NftTransferApp>().unwrap();
    let voucher = "nft/channel-1/kitty";
    assert_eq!(b_app.nft().owner_of(voucher, "7"), Some("bob"));
    assert_eq!(b_app.nft().supply(voucher), 1);

    // Return leg: B burns the voucher, A releases escrow.
    let back = NftPacketData {
        class: voucher.into(),
        tokens: vec!["7".into()],
        sender: "bob".into(),
        receiver: "alice".into(),
        memo: String::new(),
    };
    let b_app = b.app_as_mut::<NftTransferApp>().unwrap();
    b_app.debit_sender(&PortId::named("nft"), &ChannelId::new(1), &back).unwrap();
    assert_eq!(b_app.nft().total_tokens(), 0, "returning voucher burns");

    let mut inbound = packet(1, 1, 0, back.encode());
    inbound.source_port = PortId::named("nft");
    inbound.destination_port = PortId::named("nft");
    assert!(a.on_recv_packet(&inbound).is_success());
    let a_app = a.app_as::<NftTransferApp>().unwrap();
    assert_eq!(a_app.nft().owner_of("kitty", "7"), Some("alice"));
    assert_eq!(a_app.nft().total_tokens(), 1, "zero net supply change");
}

#[test]
fn nft_error_ack_and_timeout_refund_the_sender() {
    let mut stack = ModuleStack::new(Box::new(NftTransferApp::new()));
    let app = stack.app_as_mut::<NftTransferApp>().unwrap();
    app.nft_mut().mint("kitty", "7", "alice").unwrap();
    let data = NftPacketData {
        class: "kitty".into(),
        tokens: vec!["7".into()],
        sender: "alice".into(),
        receiver: "bob".into(),
        memo: String::new(),
    };
    app.debit_sender(&PortId::transfer(), &ChannelId::new(0), &data).unwrap();
    let pkt = packet(1, 0, 1, data.encode());
    stack.on_acknowledge(&pkt, &Acknowledgement::Error("no".into())).unwrap();
    let app = stack.app_as::<NftTransferApp>().unwrap();
    assert_eq!(app.nft().owner_of("kitty", "7"), Some("alice"));

    // Same shape for a timeout.
    let app = stack.app_as_mut::<NftTransferApp>().unwrap();
    app.debit_sender(&PortId::transfer(), &ChannelId::new(0), &data).unwrap();
    stack.on_timeout(&pkt).unwrap();
    assert_eq!(
        stack.app_as::<NftTransferApp>().unwrap().nft().owner_of("kitty", "7"),
        Some("alice")
    );
}

#[test]
fn nft_double_spend_and_foreign_custody_are_rejected() {
    let mut app = NftTransferApp::new();
    app.nft_mut().mint("kitty", "7", "alice").unwrap();
    let data = NftPacketData {
        class: "kitty".into(),
        tokens: vec!["7".into()],
        sender: "mallory".into(),
        receiver: "bob".into(),
        memo: String::new(),
    };
    assert!(app.debit_sender(&PortId::transfer(), &ChannelId::new(0), &data).is_err());
    // A receive for a token that was never escrowed on this channel fails.
    let bogus = NftPacketData {
        class: "transfer/channel-9/kitty".into(),
        tokens: vec!["7".into()],
        sender: "x".into(),
        receiver: "y".into(),
        memo: String::new(),
    };
    let mut pkt = packet(1, 9, 3, bogus.encode());
    pkt.source_channel = ChannelId::new(9);
    let mut stack = ModuleStack::new(Box::new(app));
    let ack = stack.on_recv_packet(&pkt);
    assert!(!ack.is_success());
}

// ---------------------------------------------------------------- ica

#[test]
fn ica_register_execute_and_outcomes() {
    let mut host = ModuleStack::new(Box::new(IcaApp::new().with_airdrop("tok", 100)));
    let reg = IcaPacketData::Register { owner: "alice".into() };
    let ack = host.on_recv_packet(&packet(1, 0, 1, reg.encode()));
    assert!(ack.is_success());
    let app = host.app_as::<IcaApp>().unwrap();
    assert_eq!(app.account_of("alice"), Some(ica_account("alice").as_str()));
    assert_eq!(app.bank().balance(&ica_account("alice"), "tok"), 100);

    // A successful batch moves funds and reports the op count in-band.
    let exec = IcaPacketData::Execute {
        owner: "alice".into(),
        ops: vec![
            IcaOp::Send { denom: "tok".into(), amount: 30, to: "merchant".into() },
            IcaOp::Noop,
        ],
    };
    let ack = host.on_recv_packet(&packet(2, 0, 1, exec.encode()));
    assert_eq!(ack, Acknowledgement::Success(b"ops:2".to_vec()));
    let app = host.app_as::<IcaApp>().unwrap();
    assert_eq!(app.bank().balance("merchant", "tok"), 30);
    assert_eq!(app.ops_executed, 2);

    // A failing batch rolls back atomically: the eligible first op must
    // not commit.
    let bad = IcaPacketData::Execute {
        owner: "alice".into(),
        ops: vec![
            IcaOp::Send { denom: "tok".into(), amount: 10, to: "merchant".into() },
            IcaOp::Fail { reason: "boom".into() },
        ],
    };
    let ack = host.on_recv_packet(&packet(3, 0, 1, bad.encode()));
    assert!(!ack.is_success());
    let app = host.app_as::<IcaApp>().unwrap();
    assert_eq!(app.bank().balance("merchant", "tok"), 30, "rolled back");
    assert_eq!(app.batches_rejected, 1);

    // Controller side: outcomes recorded from acks and timeouts.
    let mut controller = ModuleStack::new(Box::new(IcaApp::new()));
    let sent = packet(7, 2, 0, exec.encode());
    controller.on_acknowledge(&sent, &Acknowledgement::Success(b"ops:2".to_vec())).unwrap();
    controller.on_acknowledge(&packet(8, 2, 0, bad.encode()), &ack).unwrap();
    controller.on_timeout(&packet(9, 2, 0, reg.encode())).unwrap();
    let app = controller.app_as::<IcaApp>().unwrap();
    assert_eq!(app.outcome(&ChannelId::new(2), 7), Some(&IcaOutcome::Executed(2)));
    assert!(matches!(app.outcome(&ChannelId::new(2), 8), Some(IcaOutcome::Rejected(_))));
    assert_eq!(app.outcome(&ChannelId::new(2), 9), Some(&IcaOutcome::TimedOut));

    // Executing for an unregistered owner error-acks in-band.
    let mut fresh = ModuleStack::new(Box::new(IcaApp::new()));
    let ack = fresh.on_recv_packet(&packet(1, 0, 1, exec.encode()));
    assert!(!ack.is_success());
}

// ---------------------------------------------------------------- composed

#[test]
fn full_transfer_stack_layers_compose() {
    // Fee outside hooks outside forward outside the app — the mesh's
    // production stack shape.
    let mut stack = ModuleStack::new(Box::new(TransferModule::new()))
        .with(Box::new(ForwardMiddleware::new(FWD)))
        .with(Box::new(MemoHookMiddleware::new()))
        .with(Box::new(FeeMiddleware::new()));
    assert_eq!(stack.layer_names(), ["fee", "memo-hook", "forward", "transfer"]);

    // A plain delivery passes every layer down to the ledger.
    assert!(stack
        .on_recv_packet(&packet(1, 0, 1, ics20_data("wsol", 30, String::new()).encode()))
        .is_success());
    assert_eq!(stack.ics20().unwrap().balance("bob", "transfer/channel-1/wsol"), 30);

    // A hooked delivery is swept after credit.
    let memo = HookMetadata::transfer_to("vault").to_memo();
    assert!(stack
        .on_recv_packet(&packet(2, 0, 1, ics20_data("wsol", 5, memo).encode()))
        .is_success());
    assert_eq!(stack.ics20().unwrap().balance("vault", "transfer/channel-1/wsol"), 5);

    // A routed leg stops at the forward layer; fee and hook layers wrap it
    // without interfering.
    let memo = ForwardMetadata::new("carol", &ChannelId::new(5)).to_memo();
    assert!(stack
        .on_recv_packet(&packet(3, 0, 1, ics20_data("wsol", 70, memo).encode()))
        .is_success());
    assert_eq!(stack.take_requests().len(), 1);
    assert_eq!(stack.counters().received, 3);
}
