//! The handler's change stamp: every public `&mut self` method moves it,
//! on success and on failure alike, and no read does. Observers that
//! re-read the handler only when its stamp moved rely on both halves.

use ibc_core::channel::{Acknowledgement, Ordering, Packet, Timeout};
use ibc_core::client::{ConsensusState, MockChain, MockClient};
use ibc_core::handler::{HostTime, IbcHandler, ProofData, SelfHistory};
use ibc_core::handshake::{open_channel, open_connection, prove, publish};
use ibc_core::router::EchoModule;
use ibc_core::types::{ChannelId, ClientId, ConnectionId, Height, PortId};
use sealable_trie::Trie;

/// Runs `call` and asserts that it moved the stamp.
fn moves<T>(
    ibc: &mut IbcHandler<Trie>,
    name: &str,
    call: impl FnOnce(&mut IbcHandler<Trie>) -> T,
) -> T {
    let before = ibc.stamp();
    let out = call(ibc);
    assert!(ibc.stamp() > before, "{name} left the stamp at {before}");
    out
}

struct NoHistory;

impl SelfHistory for NoHistory {
    fn self_consensus_at(&self, _height: Height) -> Option<ConsensusState> {
        None
    }
}

fn proof() -> ProofData {
    ProofData { height: 1, bytes: Vec::new() }
}

#[test]
fn every_mutating_method_moves_the_stamp_even_when_it_fails() {
    let mut chain = MockChain::new();
    let ibc = &mut chain.ibc;
    let (port, none) = (PortId::named("echo"), PortId::named("none"));
    let (client, connection, channel) = (ClientId::new(9), ConnectionId::new(9), ChannelId::new(9));
    let packet = Packet {
        sequence: 1,
        source_port: port.clone(),
        source_channel: channel.clone(),
        destination_port: port.clone(),
        destination_channel: channel.clone(),
        payload: b"unknown".to_vec(),
        timeout: Timeout::NEVER,
    };
    let ack = Acknowledgement::Success(Vec::new());
    let now = HostTime { height: 1, timestamp_ms: 1_000 };

    moves(ibc, "set_self_history", |ibc| ibc.set_self_history(Box::new(NoHistory)));
    moves(ibc, "store_mut", |ibc| {
        ibc.store_mut();
    });
    moves(ibc, "drain_events (empty)", |ibc| ibc.drain_events());
    moves(ibc, "create_client", |ibc| ibc.create_client(Box::new(MockClient::new())));
    moves(ibc, "update_client", |ibc| ibc.update_client(&client, b"").unwrap_err());
    moves(ibc, "submit_misbehaviour", |ibc| ibc.submit_misbehaviour(&client, b"").unwrap_err());
    moves(ibc, "conn_open_init", |ibc| {
        ibc.conn_open_init(client.clone(), client.clone()).unwrap_err()
    });
    moves(ibc, "conn_open_try", |ibc| {
        ibc.conn_open_try(client.clone(), client.clone(), connection.clone(), proof(), None)
            .unwrap_err()
    });
    moves(ibc, "conn_open_ack", |ibc| {
        ibc.conn_open_ack(&connection, connection.clone(), proof(), None).unwrap_err()
    });
    moves(ibc, "conn_open_confirm", |ibc| ibc.conn_open_confirm(&connection, proof()).unwrap_err());
    moves(ibc, "bind_port", |ibc| ibc.bind_port(port.clone(), Box::new(EchoModule::default())));
    moves(ibc, "module_mut (unbound)", |ibc| ibc.module_mut(&none).is_none());
    moves(ibc, "module_mut", |ibc| ibc.module_mut(&port).is_some());
    moves(ibc, "chan_open_init", |ibc| {
        let ordering = Ordering::Unordered;
        ibc.chan_open_init(port.clone(), connection.clone(), port.clone(), ordering, "v")
            .unwrap_err()
    });
    moves(ibc, "chan_open_try", |ibc| {
        ibc.chan_open_try(
            port.clone(),
            connection.clone(),
            port.clone(),
            channel.clone(),
            Ordering::Unordered,
            "v",
            proof(),
        )
        .unwrap_err()
    });
    moves(ibc, "chan_open_ack", |ibc| {
        ibc.chan_open_ack(&port, &channel, channel.clone(), proof()).unwrap_err()
    });
    moves(ibc, "chan_open_confirm", |ibc| {
        ibc.chan_open_confirm(&port, &channel, proof()).unwrap_err()
    });
    moves(ibc, "chan_close_init", |ibc| ibc.chan_close_init(&port, &channel).unwrap_err());
    moves(ibc, "chan_close_confirm", |ibc| {
        ibc.chan_close_confirm(&port, &channel, proof()).unwrap_err()
    });
    moves(ibc, "send_packet", |ibc| {
        ibc.send_packet(&port, &channel, Vec::new(), Timeout::NEVER).unwrap_err()
    });
    moves(ibc, "recv_packet", |ibc| ibc.recv_packet(&packet, proof(), now).unwrap_err());
    moves(ibc, "acknowledge_packet", |ibc| {
        ibc.acknowledge_packet(&packet, &ack, proof()).unwrap_err()
    });
    moves(ibc, "timeout_packet", |ibc| ibc.timeout_packet(&packet, proof()).unwrap_err());
}

#[test]
fn a_packet_round_trip_moves_the_stamp_and_reads_do_not() {
    let port = PortId::named("echo");
    let (mut a, mut b, mut clock) = (MockChain::new(), MockChain::new(), 0);
    a.ibc.bind_port(port.clone(), Box::new(EchoModule::default()));
    b.ibc.bind_port(port.clone(), Box::new(EchoModule::default()));
    let before = (a.ibc.stamp(), b.ibc.stamp());
    let link = open_connection(&mut a, &mut b, &mut clock).unwrap();
    let (chan_a, chan_b) =
        open_channel(&mut a, &mut b, &link, &port, Ordering::Unordered, "v", &mut clock).unwrap();
    assert!(a.ibc.stamp() > before.0 && b.ibc.stamp() > before.1, "the handshakes");

    let packet = moves(&mut a.ibc, "send_packet", |ibc| {
        ibc.send_packet(&port, &chan_a, b"hello".to_vec(), Timeout::NEVER).unwrap()
    });
    let b_before = b.ibc.stamp();
    let height = publish(&mut a, &mut b, &link.b_client, &mut clock).unwrap();
    assert!(b.ibc.stamp() > b_before, "update_client through publish");

    // Reads leave the stamp where it is.
    let stamp = b.ibc.stamp();
    let key = ibc_core::path::packet_commitment(&port, &chan_a, packet.sequence);
    let proof = prove(&a.ibc, height, &key).unwrap();
    let _ = (b.ibc.root(), b.ibc.client(&link.b_client).unwrap().latest_height());
    let _ =
        (b.ibc.channel(&port, &chan_b).unwrap(), b.ibc.has_events(), b.ibc.module(&port).is_some());
    assert_eq!(b.ibc.stamp(), stamp, "reads");

    let now = HostTime { height: 1, timestamp_ms: clock };
    let ack = moves(&mut b.ibc, "recv_packet", |ibc| ibc.recv_packet(&packet, proof, now).unwrap());
    let height = publish(&mut b, &mut a, &link.a_client, &mut clock).unwrap();
    let key = ibc_core::path::packet_ack(&port, &chan_b, packet.sequence);
    let proof = prove(&b.ibc, height, &key).unwrap();
    moves(&mut a.ibc, "acknowledge_packet", |ibc| {
        ibc.acknowledge_packet(&packet, &ack, proof).unwrap()
    });
    assert!(a.ibc.has_events());
    moves(&mut a.ibc, "drain_events", |ibc| assert!(!ibc.drain_events().is_empty()));
    assert!(!a.ibc.has_events());
}
