//! End-to-end IBC between two in-process chains.
//!
//! Plays the role of a relayer by hand: syncs each chain's root into the
//! other's (mock) light client, runs the connection and channel handshakes,
//! then exercises the packet life cycle — delivery, acknowledgement,
//! duplicate rejection, and timeout — plus an ICS-20 token round trip.

use ibc_core::channel::{Ordering, Timeout};
use ibc_core::client::MockChain;
use ibc_core::handler::{HostTime, ProofData};
use ibc_core::handshake::{open_channel, open_connection, prove, publish, ChainEnd};
use ibc_core::ics20::{self, TransferModule};
use ibc_core::router::EchoModule;
use ibc_core::types::{ChannelId, ClientId, IbcError, PortId};
use ibc_core::{IbcEvent, Module};

/// A pair of mock chains with clients of each other. Headers carry the
/// shared clock, which every sync moves on by one second.
struct Net {
    a: MockChain,
    b: MockChain,
    /// A's client of B.
    on_a: ClientId,
    /// B's client of A.
    on_b: ClientId,
    clock: u64,
}

impl Net {
    /// Two chains that know of each other and nothing more: where the
    /// by-hand handshake cases start.
    fn new() -> Self {
        let (mut a, mut b) = (MockChain::new(), MockChain::new());
        let on_a = a.ibc.create_client(b.light_client());
        let on_b = b.ibc.create_client(a.light_client());
        Self { a, b, on_a, on_b, clock: 0 }
    }

    /// Two chains with the given modules bound on `port` and one channel
    /// of `ordering` open between them; returns its ids on A and on B.
    fn open(
        port: &PortId,
        on_a: Box<dyn Module>,
        on_b: Box<dyn Module>,
        ordering: Ordering,
    ) -> (Self, ChannelId, ChannelId) {
        let (mut a, mut b, mut clock) = (MockChain::new(), MockChain::new(), 0);
        a.ibc.bind_port(port.clone(), on_a);
        b.ibc.bind_port(port.clone(), on_b);
        let link = open_connection(&mut a, &mut b, &mut clock).unwrap();
        let (chan_a, chan_b) =
            open_channel(&mut a, &mut b, &link, port, ordering, "ics20-1", &mut clock).unwrap();
        (Self { a, b, on_a: link.a_client, on_b: link.b_client, clock }, chan_a, chan_b)
    }

    /// Commits a block on A and updates B's client of A.
    fn sync_a_to_b(&mut self) -> u64 {
        publish(&mut self.a, &mut self.b, &self.on_b, &mut self.clock).unwrap()
    }

    /// Commits a block on B and updates A's client of B.
    fn sync_b_to_a(&mut self) -> u64 {
        publish(&mut self.b, &mut self.a, &self.on_a, &mut self.clock).unwrap()
    }

    fn proof_a(&self, height: u64, key: &[u8]) -> ProofData {
        prove(&self.a.ibc, height, key).unwrap()
    }

    fn proof_b(&self, height: u64, key: &[u8]) -> ProofData {
        prove(&self.b.ibc, height, key).unwrap()
    }
}

fn echo_net() -> (Net, PortId, ChannelId, ChannelId) {
    let port = PortId::named("echo");
    let echo = || Box::new(EchoModule::default());
    let (net, chan_a, chan_b) = Net::open(&port, echo(), echo(), Ordering::Unordered);
    (net, port, chan_a, chan_b)
}

#[test]
fn connection_and_channel_handshake_complete() {
    let (net, port, chan_a, chan_b) = echo_net();
    assert!(net.a.ibc.channel(&port, &chan_a).unwrap().is_open());
    assert!(net.b.ibc.channel(&port, &chan_b).unwrap().is_open());
}

#[test]
fn handshake_with_forged_proof_fails() {
    let mut net = Net::new();
    let conn_a = net.a.ibc.conn_open_init(net.on_a.clone(), net.on_b.clone()).unwrap();
    let h = net.sync_a_to_b();
    // Claiming a connection id that A never created: the (valid) proof for
    // the real path cannot vouch for the forged one.
    let real_proof = net.proof_a(h, &ibc_core::path::connection(&conn_a));
    let err = net
        .b
        .ibc
        .conn_open_try(
            net.on_b.clone(),
            net.on_a.clone(),
            ibc_core::ConnectionId::new(99),
            real_proof,
            None,
        )
        .unwrap_err();
    assert!(matches!(err, IbcError::InvalidProof(_)), "{err:?}");

    // Tampered proof bytes are rejected outright.
    let mut bad = net.proof_a(h, &ibc_core::path::connection(&conn_a));
    bad.bytes[10] ^= 0xff;
    let err =
        net.b.ibc.conn_open_try(net.on_b.clone(), net.on_a.clone(), conn_a, bad, None).unwrap_err();
    assert!(matches!(err, IbcError::InvalidProof(_)), "{err:?}");
}

#[test]
fn packet_roundtrip_with_ack() {
    let (mut net, port, chan_a, _chan_b) = echo_net();

    let packet =
        net.a.ibc.send_packet(&port, &chan_a, b"hello ibc".to_vec(), Timeout::NEVER).unwrap();
    assert_eq!(packet.sequence, 1);

    // Relay A → B.
    let h = net.sync_a_to_b();
    let commitment_key = ibc_core::path::packet_commitment(&port, &chan_a, packet.sequence);
    let proof = net.proof_a(h, &commitment_key);
    let ack =
        net.b.ibc.recv_packet(&packet, proof, HostTime { height: 1, timestamp_ms: 1_000 }).unwrap();
    assert!(ack.is_success());

    // Relay the ack B → A.
    let h = net.sync_b_to_a();
    let ack_key = ibc_core::path::packet_ack(
        &packet.destination_port,
        &packet.destination_channel,
        packet.sequence,
    );
    let ack_proof = net.proof_b(h, &ack_key);
    net.a.ibc.acknowledge_packet(&packet, &ack, ack_proof).unwrap();

    // The commitment is cleared: double-acking fails.
    let h2 = net.sync_b_to_a();
    let ack_proof2 = net.proof_b(h2, &ack_key);
    assert_eq!(
        net.a.ibc.acknowledge_packet(&packet, &ack, ack_proof2),
        Err(IbcError::DuplicatePacket)
    );

    // Events were emitted on both sides.
    let events_a = net.a.ibc.drain_events();
    assert!(events_a.iter().any(|e| matches!(e, IbcEvent::SendPacket { .. })));
    assert!(events_a.iter().any(|e| matches!(e, IbcEvent::AcknowledgePacket { .. })));
    let events_b = net.b.ibc.drain_events();
    assert!(events_b.iter().any(|e| matches!(e, IbcEvent::RecvPacket { .. })));
    assert!(events_b.iter().any(|e| matches!(e, IbcEvent::WriteAcknowledgement { .. })));
}

#[test]
fn duplicate_delivery_rejected_via_sealed_receipt() {
    let (mut net, port, chan_a, _) = echo_net();
    let packet =
        net.a.ibc.send_packet(&port, &chan_a, b"once only".to_vec(), Timeout::NEVER).unwrap();
    let h = net.sync_a_to_b();
    let key = ibc_core::path::packet_commitment(&port, &chan_a, packet.sequence);
    let now = HostTime { height: 1, timestamp_ms: 1_000 };

    net.b.ibc.recv_packet(&packet, net.proof_a(h, &key), now).unwrap();
    // Second delivery with a perfectly valid proof still fails.
    assert_eq!(
        net.b.ibc.recv_packet(&packet, net.proof_a(h, &key), now),
        Err(IbcError::DuplicatePacket)
    );
}

#[test]
fn forged_packet_rejected() {
    let (mut net, port, chan_a, _) = echo_net();
    let packet = net.a.ibc.send_packet(&port, &chan_a, b"real".to_vec(), Timeout::NEVER).unwrap();
    let h = net.sync_a_to_b();
    let key = ibc_core::path::packet_commitment(&port, &chan_a, packet.sequence);
    let proof = net.proof_a(h, &key);
    let mut forged = packet.clone();
    forged.payload = b"forged".to_vec();
    let err = net
        .b
        .ibc
        .recv_packet(&forged, proof, HostTime { height: 1, timestamp_ms: 1_000 })
        .unwrap_err();
    assert!(matches!(err, IbcError::InvalidProof(_)));
}

#[test]
fn expired_packet_rejected_on_recv_and_timed_out_at_source() {
    let (mut net, port, chan_a, _) = echo_net();
    let expiry = net.clock + 5_000;
    let packet =
        net.a.ibc.send_packet(&port, &chan_a, b"slow".to_vec(), Timeout::at_time(expiry)).unwrap();
    let h = net.sync_a_to_b();
    let key = ibc_core::path::packet_commitment(&port, &chan_a, packet.sequence);

    // Destination clock has passed the timeout: delivery is refused.
    let err = net
        .b
        .ibc
        .recv_packet(&packet, net.proof_a(h, &key), HostTime { height: 10, timestamp_ms: expiry })
        .unwrap_err();
    assert!(matches!(err, IbcError::Timeout(_)));

    // The source can prove non-receipt and reclaim the packet under a
    // header of B's past the expiry; mock headers carry the shared clock.
    let mut hb = net.sync_b_to_a();
    while net.clock < expiry {
        hb = net.sync_b_to_a();
    }
    let receipt_key = ibc_core::path::packet_receipt(
        &packet.destination_port,
        &packet.destination_channel,
        packet.sequence,
    );
    let proof_unreceived = net.proof_b(hb, &receipt_key);
    net.a.ibc.timeout_packet(&packet, proof_unreceived).unwrap();

    // Premature/double timeout fails.
    let proof_again = net.proof_b(hb, &receipt_key);
    assert_eq!(
        net.a.ibc.timeout_packet(&packet, proof_again),
        Err(IbcError::DuplicatePacket),
        "commitment already cleared"
    );
}

#[test]
fn premature_timeout_rejected() {
    let (mut net, port, chan_a, _) = echo_net();
    let packet = net
        .a
        .ibc
        .send_packet(&port, &chan_a, b"patience".to_vec(), Timeout::at_time(1_000_000))
        .unwrap();
    let h = net.sync_b_to_a();
    let receipt_key = ibc_core::path::packet_receipt(
        &packet.destination_port,
        &packet.destination_channel,
        packet.sequence,
    );
    let proof = net.proof_b(h, &receipt_key);
    let err = net.a.ibc.timeout_packet(&packet, proof).unwrap_err();
    assert!(matches!(err, IbcError::Timeout(_)));
}

#[test]
fn ordered_channel_enforces_sequence() {
    let port = PortId::named("echo");
    let echo = || Box::new(EchoModule::default());
    let (mut net, chan_a, _chan_b) = Net::open(&port, echo(), echo(), Ordering::Ordered);

    let p1 = net.a.ibc.send_packet(&port, &chan_a, b"first".to_vec(), Timeout::NEVER).unwrap();
    let p2 = net.a.ibc.send_packet(&port, &chan_a, b"second".to_vec(), Timeout::NEVER).unwrap();
    let h = net.sync_a_to_b();
    let now = HostTime { height: 1, timestamp_ms: 1_000 };

    // Delivering #2 before #1 fails on an ordered channel.
    let key2 = ibc_core::path::packet_commitment(&port, &chan_a, p2.sequence);
    let err = net.b.ibc.recv_packet(&p2, net.proof_a(h, &key2), now).unwrap_err();
    assert!(matches!(err, IbcError::InvalidState(_)));

    let key1 = ibc_core::path::packet_commitment(&port, &chan_a, p1.sequence);
    net.b.ibc.recv_packet(&p1, net.proof_a(h, &key1), now).unwrap();
    net.b.ibc.recv_packet(&p2, net.proof_a(h, &key2), now).unwrap();
}

#[test]
fn ics20_token_round_trip() {
    let port = PortId::transfer();
    let mut bank_a = TransferModule::new();
    bank_a.mint("alice", "sol", 1_000);
    let bank_b = Box::new(TransferModule::new());
    let (mut net, chan_a, chan_b) = Net::open(&port, Box::new(bank_a), bank_b, Ordering::Unordered);

    // A → B: alice sends 250 sol to bob.
    let packet = ics20::send_transfer(
        &mut net.a.ibc,
        &port,
        &chan_a,
        "sol",
        250,
        "alice",
        "bob",
        "",
        Timeout::NEVER,
    )
    .unwrap();
    let h = net.sync_a_to_b();
    let key = ibc_core::path::packet_commitment(&port, &chan_a, packet.sequence);
    let ack = net
        .b
        .ibc
        .recv_packet(&packet, net.proof_a(h, &key), HostTime { height: 1, timestamp_ms: 1 })
        .unwrap();
    assert!(ack.is_success(), "{ack:?}");

    let voucher = format!("transfer/{chan_b}/sol");
    {
        let bank_b = net
            .b
            .ibc
            .module_mut(&port)
            .unwrap()
            .as_any_mut()
            .downcast_mut::<TransferModule>()
            .unwrap();
        assert_eq!(bank_b.balance("bob", &voucher), 250);
    }

    // B → A: bob returns 100 back to alice.
    let back = ics20::send_transfer(
        &mut net.b.ibc,
        &port,
        &chan_b,
        &voucher,
        100,
        "bob",
        "alice",
        "",
        Timeout::NEVER,
    )
    .unwrap();
    let h = net.sync_b_to_a();
    let key = ibc_core::path::packet_commitment(&port, &chan_b, back.sequence);
    let ack = net
        .a
        .ibc
        .recv_packet(&back, net.proof_b(h, &key), HostTime { height: 1, timestamp_ms: 1 })
        .unwrap();
    assert!(ack.is_success(), "{ack:?}");

    let bank_a =
        net.a.ibc.module_mut(&port).unwrap().as_any_mut().downcast_mut::<TransferModule>().unwrap();
    // 1000 − 250 sent + 100 returned.
    assert_eq!(bank_a.balance("alice", "sol"), 850);
    assert_eq!(bank_a.balance(&format!("escrow:{chan_a}"), "sol"), 150);
}

#[test]
fn ics20_timeout_refunds_sender() {
    let port = PortId::transfer();
    let mut bank_a = TransferModule::new();
    bank_a.mint("alice", "sol", 500);
    let bank_b = Box::new(TransferModule::new());
    let (mut net, chan_a, _chan_b) =
        Net::open(&port, Box::new(bank_a), bank_b, Ordering::Unordered);

    let packet = ics20::send_transfer(
        &mut net.a.ibc,
        &port,
        &chan_a,
        "sol",
        200,
        "alice",
        "bob",
        "",
        Timeout::at_time(net.clock + 2_000),
    )
    .unwrap();
    // Funds are escrowed while in flight.
    {
        let bank = net
            .a
            .ibc
            .module_mut(&port)
            .unwrap()
            .as_any_mut()
            .downcast_mut::<TransferModule>()
            .unwrap();
        assert_eq!(bank.balance("alice", "sol"), 300);
    }

    // Never delivered; B's headers (which carry the shared clock) pass
    // the timeout two blocks on.
    net.sync_b_to_a();
    let hb = net.sync_b_to_a();
    let receipt_key = ibc_core::path::packet_receipt(
        &packet.destination_port,
        &packet.destination_channel,
        packet.sequence,
    );
    let proof = net.proof_b(hb, &receipt_key);
    net.a.ibc.timeout_packet(&packet, proof).unwrap();

    let bank =
        net.a.ibc.module_mut(&port).unwrap().as_any_mut().downcast_mut::<TransferModule>().unwrap();
    assert_eq!(bank.balance("alice", "sol"), 500, "escrow refunded");
}

mod self_validation {
    use super::*;
    use ibc_core::client::ConsensusState;
    use ibc_core::handler::{SelfConsensusProof, SelfHistory};
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::rc::Rc;

    /// A's record of its own past consensus (what the guest contract's
    /// block history provides).
    #[derive(Clone, Default)]
    struct History {
        states: Rc<RefCell<HashMap<u64, ConsensusState>>>,
    }

    impl SelfHistory for History {
        fn self_consensus_at(&self, height: u64) -> Option<ConsensusState> {
            self.states.borrow().get(&height).copied()
        }
    }

    /// Runs Init on A and Try on B, then has A verify — with a real proof —
    /// that B's client of A holds a consensus state matching A's own
    /// history (the `validate_self_client` step NEAR leaves blank, §I).
    #[test]
    fn handshake_self_client_validation() {
        let mut net = Net::new();
        let history = History::default();
        net.a.ibc.set_self_history(Box::new(history.clone()));

        let conn_a = net.a.ibc.conn_open_init(net.on_a.clone(), net.on_b.clone()).unwrap();
        let h = net.sync_a_to_b();
        // Record what A's consensus actually was at that height.
        history
            .states
            .borrow_mut()
            .insert(h, ConsensusState { root: net.a.ibc.root(), timestamp_ms: net.clock });
        let proof_init = net.proof_a(h, &ibc_core::path::connection(&conn_a));
        let conn_b = net
            .b
            .ibc
            .conn_open_try(net.on_b.clone(), net.on_a.clone(), conn_a.clone(), proof_init, None)
            .unwrap();

        // B's update_client recorded A's consensus state in B's provable
        // store; prove it back to A.
        let hb = net.sync_b_to_a();
        let consensus_key = ibc_core::path::consensus_state(&net.on_b, h);
        let consensus = history.states.borrow()[&h];
        let honest = SelfConsensusProof {
            self_height: h,
            consensus,
            proof: net.proof_b(hb, &consensus_key),
        };
        let proof_try = net.proof_b(hb, &ibc_core::path::connection(&conn_b));
        net.a.ibc.conn_open_ack(&conn_a, conn_b.clone(), proof_try, Some(honest)).unwrap();
        assert!(net.a.ibc.connection(&conn_a).unwrap().is_open());

        // A fork claim — a consensus state that differs from A's history —
        // is rejected even with a valid membership proof of *something*.
        let mut net2 = Net::new();
        let history2 = History::default();
        net2.a.ibc.set_self_history(Box::new(history2.clone()));
        let conn_a2 = net2.a.ibc.conn_open_init(net2.on_a.clone(), net2.on_b.clone()).unwrap();
        let h2 = net2.sync_a_to_b();
        history2
            .states
            .borrow_mut()
            .insert(h2, ConsensusState { root: net2.a.ibc.root(), timestamp_ms: net2.clock });
        let proof_init2 = net2.proof_a(h2, &ibc_core::path::connection(&conn_a2));
        let conn_b2 = net2
            .b
            .ibc
            .conn_open_try(net2.on_b.clone(), net2.on_a.clone(), conn_a2.clone(), proof_init2, None)
            .unwrap();
        let hb2 = net2.sync_b_to_a();
        // Claim the consensus B stored but at a height A never had.
        let stored = net2.b.ibc.client(&net2.on_b).unwrap().consensus_state(h2).unwrap();
        let forged = SelfConsensusProof {
            self_height: h2 + 77, // A has no record of this height
            consensus: stored,
            proof: net2.proof_b(hb2, &ibc_core::path::consensus_state(&net2.on_b, h2)),
        };
        let proof_try2 = net2.proof_b(hb2, &ibc_core::path::connection(&conn_b2));
        let err =
            net2.a.ibc.conn_open_ack(&conn_a2, conn_b2, proof_try2, Some(forged)).unwrap_err();
        assert!(
            matches!(err, IbcError::InvalidProof(_) | IbcError::ClientVerification(_)),
            "{err:?}"
        );
    }
}

#[test]
fn channel_close_handshake_and_post_close_rejections() {
    let (mut net, port, chan_a, chan_b) = echo_net();

    // A packet committed before the close can still be received…
    let packet =
        net.a.ibc.send_packet(&port, &chan_a, b"in flight".to_vec(), Timeout::NEVER).unwrap();

    // A closes its end.
    net.a.ibc.chan_close_init(&port, &chan_a).unwrap();
    assert_eq!(net.a.ibc.channel(&port, &chan_a).unwrap().state, ibc_core::ChannelState::Closed);
    // Sends on a closed channel fail.
    let err =
        net.a.ibc.send_packet(&port, &chan_a, b"too late".to_vec(), Timeout::NEVER).unwrap_err();
    assert!(matches!(err, IbcError::InvalidState(_)));
    // Closing twice fails.
    assert!(net.a.ibc.chan_close_init(&port, &chan_a).is_err());

    // B cannot confirm without a proof of A's closed end…
    let h = net.sync_a_to_b();
    let wrong = net.proof_a(h, b"not/the/channel");
    assert!(net.b.ibc.chan_close_confirm(&port, &chan_b, wrong).is_err());
    // …and succeeds with one.
    let proof = net.proof_a(h, &ibc_core::path::channel(&port, &chan_a));
    net.b.ibc.chan_close_confirm(&port, &chan_b, proof).unwrap();
    assert_eq!(net.b.ibc.channel(&port, &chan_b).unwrap().state, ibc_core::ChannelState::Closed);

    // The in-flight packet is refused after the close (B's end is closed).
    let key = ibc_core::path::packet_commitment(&port, &chan_a, packet.sequence);
    let proof = net.proof_a(h, &key);
    let err =
        net.b.ibc.recv_packet(&packet, proof, HostTime { height: 1, timestamp_ms: 1 }).unwrap_err();
    assert!(matches!(err, IbcError::InvalidState(_)));
}

mod state_machine_errors {
    use super::*;

    /// Every handshake message is rejected outside its expected state.
    #[test]
    fn handshake_messages_rejected_in_wrong_states() {
        let (mut net, port, chan_a, chan_b) = echo_net();

        // Connection already Open: Ack and Confirm are stale.
        let conn_a = net.a.ibc.channel(&port, &chan_a).unwrap().connection_id.clone();
        let conn_b = net.b.ibc.channel(&port, &chan_b).unwrap().connection_id.clone();
        let h = net.sync_b_to_a();
        let proof = net.proof_b(h, &ibc_core::path::connection(&conn_b));
        let err = net.a.ibc.conn_open_ack(&conn_a, conn_b.clone(), proof, None).unwrap_err();
        assert!(matches!(err, IbcError::InvalidState(_)), "{err:?}");
        let h = net.sync_a_to_b();
        let proof = net.proof_a(h, &ibc_core::path::connection(&conn_a));
        let err = net.b.ibc.conn_open_confirm(&conn_b, proof).unwrap_err();
        assert!(matches!(err, IbcError::InvalidState(_)), "{err:?}");

        // Channel already Open: Ack and Confirm are stale too.
        let h = net.sync_b_to_a();
        let proof = net.proof_b(h, &ibc_core::path::channel(&port, &chan_b));
        let err = net.a.ibc.chan_open_ack(&port, &chan_a, chan_b.clone(), proof).unwrap_err();
        assert!(matches!(err, IbcError::InvalidState(_)), "{err:?}");
        let h = net.sync_a_to_b();
        let proof = net.proof_a(h, &ibc_core::path::channel(&port, &chan_a));
        let err = net.b.ibc.chan_open_confirm(&port, &chan_b, proof).unwrap_err();
        assert!(matches!(err, IbcError::InvalidState(_)), "{err:?}");
    }

    /// Unknown identifiers give precise errors, not panics.
    #[test]
    fn unknown_identifiers_error_cleanly() {
        let net = Net::new();
        assert!(matches!(
            net.a.ibc.connection(&ibc_core::ConnectionId::new(9)),
            Err(IbcError::UnknownConnection(_))
        ));
        assert!(matches!(
            net.a.ibc.channel(&PortId::transfer(), &ChannelId::new(9)),
            Err(IbcError::UnknownChannel(..))
        ));
        assert!(matches!(
            net.a.ibc.client(&ibc_core::ClientId::new(9)),
            Err(IbcError::UnknownClient(_))
        ));
    }

    /// A channel cannot open over a connection that is not Open, and a
    /// port without a module cannot host channels.
    #[test]
    fn channel_prerequisites_enforced() {
        let mut net = Net::new();
        let port = PortId::named("echo");
        net.a.ibc.bind_port(port.clone(), Box::new(EchoModule::default()));
        // Connection exists but is only Init.
        let conn_a = net.a.ibc.conn_open_init(net.on_a.clone(), net.on_b.clone()).unwrap();
        let err = net
            .a
            .ibc
            .chan_open_init(port.clone(), conn_a.clone(), port.clone(), Ordering::Unordered, "v1")
            .unwrap_err();
        assert!(matches!(err, IbcError::InvalidState(_)), "{err:?}");

        // Unbound port.
        let err = net
            .a
            .ibc
            .chan_open_init(PortId::named("nobody-home"), conn_a, port, Ordering::Unordered, "v1")
            .unwrap_err();
        assert!(matches!(err, IbcError::UnboundPort(_)), "{err:?}");
    }

    /// Receiving on a port with no module is impossible even with valid
    /// proofs (channels require a bound module at open time).
    #[test]
    fn acks_with_wrong_commitment_rejected() {
        let (mut net, port, chan_a, _) = echo_net();
        let packet =
            net.a.ibc.send_packet(&port, &chan_a, b"payload".to_vec(), Timeout::NEVER).unwrap();
        let h = net.sync_a_to_b();
        let key = ibc_core::path::packet_commitment(&port, &chan_a, packet.sequence);
        let now = HostTime { height: 1, timestamp_ms: 1 };
        let ack = net.b.ibc.recv_packet(&packet, net.proof_a(h, &key), now).unwrap();

        // Tamper with the packet before acknowledging: the stored
        // commitment no longer matches.
        let mut tampered = packet.clone();
        tampered.payload = b"tampered".to_vec();
        let h = net.sync_b_to_a();
        let ack_key = ibc_core::path::packet_ack(
            &packet.destination_port,
            &packet.destination_channel,
            packet.sequence,
        );
        let err =
            net.a.ibc.acknowledge_packet(&tampered, &ack, net.proof_b(h, &ack_key)).unwrap_err();
        assert!(matches!(err, IbcError::InvalidProof(_)), "{err:?}");
    }
}
