//! Criterion microbenchmarks of the IBC core: commitments, handshakes and
//! the packet path (proof generation + verification included).

use apps::ModuleStack;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ibc_core::channel::{Packet, Timeout};
use ibc_core::client::MockChain;
use ibc_core::handler::HostTime;
use ibc_core::handshake::{open_link, prove, publish};
use ibc_core::router::EchoModule;
use ibc_core::types::PortId;

fn bench_commitment(c: &mut Criterion) {
    let packet = Packet {
        sequence: 42,
        source_port: PortId::transfer(),
        source_channel: ibc_core::ChannelId::new(0),
        destination_port: PortId::transfer(),
        destination_channel: ibc_core::ChannelId::new(1),
        payload: vec![0u8; 256],
        timeout: Timeout::at_height(1_000),
    };
    c.bench_function("ibc/packet_commitment", |b| b.iter(|| packet.commitment()));
}

/// Builds two connected chains with the shared handshake; returns them
/// with A's channel and B's client of A.
fn connected() -> (MockChain, MockChain, ibc_core::ChannelId, ibc_core::ClientId) {
    let (mut a, mut b) = (MockChain::new(), MockChain::new());
    let port = PortId::named("echo");
    // The echo app rides in an empty (middleware-less) ModuleStack, so
    // the packet path measured here includes the stack dispatch overhead
    // every production app pays.
    a.ibc.bind_port(port.clone(), Box::new(ModuleStack::new(Box::new(EchoModule::default()))));
    b.ibc.bind_port(port.clone(), Box::new(ModuleStack::new(Box::new(EchoModule::default()))));
    let link = open_link(&mut a, &mut b, &[(port, "echo-1")], &mut 0).unwrap();
    (a, b, link.channels[0].0.clone(), link.b_client)
}

fn bench_handshake(c: &mut Criterion) {
    let mut group = c.benchmark_group("ibc/handshake");
    group.sample_size(20);
    group.bench_function("connection_plus_channel", |b| b.iter(connected));
    group.finish();
}

fn bench_packet_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("ibc/packet");
    group.sample_size(30);
    group.bench_function("send_recv_roundtrip", |b| {
        b.iter_batched(
            connected,
            |(mut a, mut b2, chan_a, a_on_b)| {
                let port = PortId::named("echo");
                let packet =
                    a.ibc.send_packet(&port, &chan_a, vec![0u8; 200], Timeout::NEVER).unwrap();
                let height = publish(&mut a, &mut b2, &a_on_b, &mut 100_000).unwrap();
                let key = ibc_core::path::packet_commitment(&port, &chan_a, packet.sequence);
                let proof = prove(&a.ibc, height, &key).unwrap();
                let ack = b2
                    .ibc
                    .recv_packet(&packet, proof, HostTime { height: 1, timestamp_ms: 1 })
                    .unwrap();
                assert!(ack.is_success());
                (a, b2) // return so the drops are not measured
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_commitment, bench_handshake, bench_packet_path);
criterion_main!(benches);
