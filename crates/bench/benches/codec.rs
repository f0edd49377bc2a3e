//! Criterion microbenchmarks of the wire codec (the vendored `serde_json`)
//! on the three messages that dominate a loaded run: the staged receive a
//! relayer plans and the guest decodes, the finalised-block event every
//! relayer and the harness decode, and the counterparty header behind each
//! client update. Reported per call and in MB/s of JSON text. Beside them,
//! what the relay path pays where it does not go through JSON: a proof
//! handed from whoever holds it to the light client as bytes, and an
//! observer taking a guest event off a host block.

use counterparty_sim::CpHeader;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use guest_chain::{Epoch, GuestBlock, GuestEvent, GuestOp, Validator};
use host_sim::{Event, Pubkey};
use ibc_core::store::{decode_proof, encode_proof};
use ibc_core::{ChannelId, Packet, PortId, Timeout};
use sealable_trie::{Proof, Trie};
use serde::{de::DeserializeOwned, Serialize};
use sim_crypto::schnorr::{Keypair, PublicKey, Signature};
use sim_crypto::sha256;

/// A four-node membership proof from a real trie.
fn proof() -> Proof {
    let mut trie = Trie::new();
    for i in 0u32.. {
        trie.insert(&i.to_be_bytes(), sha256(i.to_le_bytes()).as_bytes()).expect("insert");
        let proof = trie.prove(&0u32.to_be_bytes()).expect("prove");
        if proof.nodes().len() == 4 {
            return proof;
        }
    }
    unreachable!("the spine to key 0 grows as keys are added")
}

/// A ten-node membership proof from a real trie: the spine to the all-zero
/// key with a sibling hanging off each of its first nibbles.
fn spine_proof() -> Proof {
    let key = [0u8; 8];
    let mut trie = Trie::new();
    trie.insert(&key, b"value").expect("insert");
    for nibble in 0.. {
        let proof = trie.prove(&key).expect("prove");
        if proof.nodes().len() == 10 {
            return proof;
        }
        let mut sibling = key;
        sibling[nibble / 2] = if nibble % 2 == 0 { 0x10 } else { 0x01 };
        trie.insert(&sibling, b"sibling").expect("insert");
    }
    unreachable!("each sibling adds a branch to the spine")
}

fn recv_packet() -> GuestOp {
    GuestOp::RecvPacket {
        packet: Packet {
            sequence: 41,
            source_port: PortId::transfer(),
            source_channel: ChannelId::new(0),
            destination_port: PortId::transfer(),
            destination_channel: ChannelId::new(3),
            payload: (0..400u32).map(|i| (i * 7 + 3) as u8).collect(),
            timeout: Timeout { height: 0, timestamp_ms: 1_700_000_123_456 },
        },
        proof_height: 77,
        proof: proof(),
    }
}

fn signatures(message: &[u8]) -> Vec<(PublicKey, Signature)> {
    (0..24).map(Keypair::from_seed).map(|kp| (kp.public(), kp.sign(message))).collect()
}

fn finalised_block() -> GuestEvent {
    let epoch = Epoch::new(
        (0..24).map(|i| Validator { pubkey: Keypair::from_seed(i).public(), stake: 100 }).collect(),
    );
    let block = GuestBlock {
        height: 1_234,
        prev_hash: sha256(b"prev"),
        state_root: sha256(b"root"),
        timestamp_ms: 1_700_000_000_000,
        host_height: 250_000_000,
        epoch_id: epoch.id(),
        next_epoch: None,
    };
    let signatures = signatures(&block.signing_bytes());
    GuestEvent::FinalisedBlock { block, signatures }
}

fn cp_header() -> CpHeader {
    let app_hash = sha256(b"app");
    let signing = CpHeader::signing_bytes(77, &app_hash, 1_700_000_050_000, None);
    CpHeader {
        height: 77,
        app_hash,
        timestamp_ms: 1_700_000_050_000,
        next_validators: None,
        signatures: signatures(&signing),
    }
}

fn bench_message<T: Serialize + DeserializeOwned + PartialEq>(
    c: &mut Criterion,
    name: &str,
    message: &T,
) {
    let text = serde_json::to_vec(message).expect("encodes");
    assert!(serde_json::from_slice::<T>(&text).expect("decodes") == *message);
    let mut group = c.benchmark_group(format!("codec/{name}"));
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("encode", |b| b.iter(|| serde_json::to_vec(message).expect("encodes")));
    group.bench_function("decode", |b| {
        b.iter(|| serde_json::from_slice::<T>(&text).expect("decodes"));
    });
    group.finish();
}

/// The in-process hand-offs: per call, no JSON text to rate them by.
fn bench_hand_offs(c: &mut Criterion) {
    let proof = spine_proof();
    let bytes = encode_proof(&proof);
    assert_eq!(decode_proof(&bytes).expect("decodes"), proof);
    let mut group = c.benchmark_group("codec/proof_hand_off");
    group.bench_function("encode", |b| b.iter(|| encode_proof(&proof)));
    group.bench_function("decode", |b| b.iter(|| decode_proof(&bytes).expect("decodes")));
    group.finish();

    let event = Event::encode(Pubkey::from_label("guest"), "FinalisedBlock", finalised_block());
    c.bench_function("codec/finalised_block_event/observe", |b| {
        b.iter(|| event.payload_as::<GuestEvent>().expect("a guest event"));
    });
}

fn bench_codec(c: &mut Criterion) {
    bench_message(c, "recv_packet_op", &recv_packet());
    bench_message(c, "finalised_block_event", &finalised_block());
    bench_message(c, "cp_header", &cp_header());
    bench_message(c, "bytes_1k", &(0..1024u32).map(|i| (i * 7 + 3) as u8).collect::<Vec<u8>>());
    bench_hand_offs(c);
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
