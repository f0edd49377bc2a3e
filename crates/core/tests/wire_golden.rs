//! Pins the wire text of the §IV messages.
//!
//! The JSON length of a staged `GuestOp` sets the `WriteChunk` count, and
//! with it the paper's 36.5-transaction client update and 4–5-transaction
//! receive (Fig. 4/5, §V-A). The codec may get faster; these bytes may not
//! move. The table was generated once, on the commit before the streaming
//! codec, and is not to be regenerated alongside a codec change.

use counterparty_sim::CpHeader;
use guest_chain::{
    Epoch, GuestBlock, GuestEvent, GuestHeader, GuestInstruction, GuestOp, Validator,
};
use ibc_core::{Acknowledgement, ChannelId, ClientId, IbcEvent, Packet, PortId, Timeout};
use sealable_trie::{Proof, Trie};
use sim_crypto::schnorr::{Keypair, PublicKey, Signature};
use sim_crypto::sha256;

/// A 400-byte payload touching every byte value, as packet payloads do.
fn payload() -> Vec<u8> {
    (0..400u32).map(|i| (i * 7 + 3) as u8).collect()
}

fn packet() -> Packet {
    Packet {
        sequence: 41,
        source_port: PortId::transfer(),
        source_channel: ChannelId::new(0),
        destination_port: PortId::transfer(),
        destination_channel: ChannelId::new(3),
        payload: payload(),
        timeout: Timeout { height: 0, timestamp_ms: 1_700_000_123_456 },
    }
}

/// A membership proof several nodes deep, from a real trie.
fn proof() -> Proof {
    let mut trie = Trie::new();
    for i in 0..64u32 {
        trie.insert(
            format!("commitments/ports/transfer/channels/channel-0/sequences/{i}").as_bytes(),
            sha256(i.to_le_bytes()).as_bytes(),
        )
        .expect("insert");
    }
    let proof =
        trie.prove(b"commitments/ports/transfer/channels/channel-0/sequences/41").expect("prove");
    assert!(proof.nodes().len() >= 4, "fixture proof has {} nodes", proof.nodes().len());
    proof
}

fn signatures(count: u64, message: &[u8]) -> Vec<(PublicKey, Signature)> {
    (0..count).map(Keypair::from_seed).map(|kp| (kp.public(), kp.sign(message))).collect()
}

fn block() -> GuestBlock {
    let epoch = Epoch::new(
        (0..4)
            .map(|i| Validator { pubkey: Keypair::from_seed(i).public(), stake: 100 + i })
            .collect(),
    );
    GuestBlock {
        height: 1_234,
        prev_hash: sha256(b"prev"),
        state_root: sha256(b"root"),
        timestamp_ms: 1_700_000_000_000,
        host_height: 250_000_000,
        epoch_id: epoch.id(),
        next_epoch: Some(epoch),
    }
}

fn cp_header() -> CpHeader {
    let next: Vec<(PublicKey, u64)> =
        (0..3).map(|i| (Keypair::from_seed(100 + i).public(), 10 * (i + 1))).collect();
    let app_hash = sha256(b"app");
    let signing = CpHeader::signing_bytes(77, &app_hash, 1_700_000_050_000, Some(&next));
    CpHeader {
        height: 77,
        app_hash,
        timestamp_ms: 1_700_000_050_000,
        next_validators: Some(next),
        signatures: signatures(24, &signing),
    }
}

fn recv_packet() -> GuestOp {
    GuestOp::RecvPacket { packet: packet(), proof_height: 77, proof: proof() }
}

fn update_client() -> GuestOp {
    let header = String::from_utf8(serde_json::to_vec(&cp_header()).expect("encodes"))
        .expect("JSON is UTF-8");
    GuestOp::UpdateClient { client: ClientId::new(0), header, num_signatures: 24 }
}

/// `(name, wire bytes)` of every pinned message.
fn fixtures() -> Vec<(&'static str, Vec<u8>)> {
    let block = block();
    let quorum = signatures(24, &block.signing_bytes());
    let to_vec = |event: &GuestEvent| serde_json::to_vec(event).expect("event serializes");
    vec![
        (
            "GuestInstruction::Inline",
            GuestInstruction::Inline {
                op: GuestOp::SendTransfer {
                    port: PortId::transfer(),
                    channel: ChannelId::new(0),
                    denom: "transfer/channel-3/uatom".into(),
                    amount: u128::from(u64::MAX) * 1_000,
                    sender: "alice".into(),
                    receiver: "cosmos1\"bob\"\n".into(),
                    memo: "{\"forward\":{\"receiver\":\"carol\"}}".into(),
                    timeout: Timeout::NEVER,
                },
            }
            .encode(),
        ),
        (
            "GuestInstruction::WriteChunk",
            GuestInstruction::WriteChunk { buffer: 9, offset: 1_024, data: payload() }.encode(),
        ),
        (
            "GuestInstruction::VerifySigs",
            GuestInstruction::VerifySigs { buffer: 9, count: 4 }.encode(),
        ),
        ("GuestInstruction::ExecStaged", GuestInstruction::ExecStaged { buffer: 9 }.encode()),
        ("GuestOp::RecvPacket", recv_packet().encode()),
        (
            "GuestOp::AckPacket",
            GuestOp::AckPacket {
                packet: packet(),
                ack: Acknowledgement::Success(vec![1]),
                proof_height: 78,
                proof: proof(),
            }
            .encode(),
        ),
        ("GuestOp::UpdateClient", update_client().encode()),
        (
            "GuestEvent::FinalisedBlock",
            to_vec(&GuestEvent::FinalisedBlock {
                block: block.clone(),
                signatures: quorum.clone(),
            }),
        ),
        (
            "GuestEvent::Ibc(SendPacket)",
            to_vec(&GuestEvent::Ibc(IbcEvent::SendPacket { packet: packet() })),
        ),
        ("GuestHeader", GuestHeader { block, signatures: quorum }.encode()),
        ("CpHeader", serde_json::to_vec(&cp_header()).expect("header serializes")),
    ]
}

/// `(name, length, SHA-256)` — generated on the parent of the streaming
/// codec; see the module doc before touching it.
const GOLDEN: &[(&str, usize, &str)] = &[
    (
        "GuestInstruction::Inline",
        318,
        "f0b79fdf2dc9020a13b9c94dcccf5889707af926045bfa13938707ebef638385",
    ),
    (
        "GuestInstruction::WriteChunk",
        413,
        "31fcd51ac2f59873e51d43278e0d99dfebe5803e1cc97600fd33d6867b301ee6",
    ),
    (
        "GuestInstruction::VerifySigs",
        38,
        "4f37cc396e27cee7772801d3265ab81f912ab76a9b90ef77d98dd95682578a1f",
    ),
    (
        "GuestInstruction::ExecStaged",
        28,
        "7369e6d9fb692d20d051fc46273742d73c5d14159ffa1a97c8d3b0cbb22210ed",
    ),
    (
        "GuestOp::RecvPacket",
        3776,
        "49c25ecc3d629e772b654dd40a07fcb52a589ed7529acab79d38f4bc798e47d1",
    ),
    (
        "GuestOp::AckPacket",
        3797,
        "a7c69ebc919c3bdecd862b5e38179dfaf2d6c049b8748b985a26782a51664aa4",
    ),
    (
        "GuestOp::UpdateClient",
        2397,
        "af2b29b641ca906e2212f388f5e8a8c50cc979cdb0edace11827242d24674d91",
    ),
    (
        "GuestEvent::FinalisedBlock",
        2498,
        "2ab7f23f68e6c3f64ccd3542ccb245c49f6ab227356a7ce25a1a4829c8384d4d",
    ),
    (
        "GuestEvent::Ibc(SendPacket)",
        1660,
        "3ac94a9641699c4ea019a081b7ea8c7d9f3685e68a79eb8ac8c20e8a7a11f324",
    ),
    ("GuestHeader", 2479, "315d099aa587733bfef336457eee7b0d9f907090825010d7972ab5a3f0167546"),
    ("CpHeader", 2165, "45a5315b4eb3c0aad067a5889ca028269db0d6f81f7dd591628838d8ba49816a"),
];

#[test]
fn wire_encodings_are_pinned() {
    let actual: Vec<(&str, usize, String)> = fixtures()
        .into_iter()
        .map(|(name, bytes)| (name, bytes.len(), sha256(&bytes).to_hex()))
        .collect();
    let rendered: String = actual
        .iter()
        .map(|(name, len, hash)| format!("    ({name:?}, {len}, {hash:?}),\n"))
        .collect();
    let matches = actual.len() == GOLDEN.len()
        && actual.iter().zip(GOLDEN).all(|(a, g)| (a.0, a.1, a.2.as_str()) == *g);
    assert!(matches, "wire encodings moved; the codec now produces:\n{rendered}");
}

#[test]
fn pinned_messages_decode_back() {
    assert_eq!(GuestOp::decode(&recv_packet().encode()), Some(recv_packet()));
    assert_eq!(GuestOp::decode(&update_client().encode()), Some(update_client()));
    let header = cp_header();
    let bytes = serde_json::to_vec(&header).expect("header serializes");
    assert_eq!(serde_json::from_slice::<CpHeader>(&bytes).ok(), Some(header));
    for (name, bytes) in
        fixtures().into_iter().filter(|(name, _)| name.starts_with("GuestInstruction"))
    {
        let decoded = GuestInstruction::decode(&bytes).unwrap_or_else(|| panic!("{name} decodes"));
        assert_eq!(decoded.encode(), bytes, "{name}");
    }
}
