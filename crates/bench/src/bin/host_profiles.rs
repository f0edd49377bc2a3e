//! §VI-D — expansion to additional blockchains: the guest design is
//! host-agnostic, but the host's runtime limits decide how many
//! transactions each guest operation costs.
//!
//! Compares Solana (the deployment target), a NEAR-like host (huge
//! transactions, big gas budget — its actual gap is block introspection)
//! and a TRON-like host (large transactions, tight energy budget — its gap
//! is state proofs) on the two expensive guest operations: light-client
//! updates and packet deliveries.
//!
//! Usage: `cargo run --release -p bench --bin host_profiles -- [--quiet] [--json <path>]`

use guest_chain::GuestOp;
use host_sim::{lamports_to_cents, HostProfile};
use ibc_core::channel::{Packet, Timeout};
use ibc_core::types::{ChannelId, ClientId, PortId};
use relayer::chunking::{plan_op_for, sig_checks_per_tx_for, transaction_count_for};
use sealable_trie::Trie;
use telemetry::{Artifact, Flags};

fn typical_update_op(signatures: usize) -> (GuestOp, usize) {
    // A counterparty commit: ~88 bytes of header + ~88 bytes per signature
    // in its JSON wire form (see counterparty-sim).
    let header = "h".repeat(60 + signatures * 88);
    (
        GuestOp::UpdateClient { client: ClientId::new(0), header, num_signatures: signatures },
        signatures,
    )
}

fn typical_recv_op() -> GuestOp {
    // A packet with an ICS-20 payload plus a proof from a populated store.
    let mut trie = Trie::new();
    for i in 0..512u64 {
        trie.insert(
            format!("commitments/ports/transfer/channels/channel-0/sequences/{i:020}").as_bytes(),
            &[7u8; 32],
        )
        .unwrap();
    }
    let key = b"commitments/ports/transfer/channels/channel-0/sequences/00000000000000000100";
    GuestOp::RecvPacket {
        packet: Packet {
            sequence: 100,
            source_port: PortId::transfer(),
            source_channel: ChannelId::new(0),
            destination_port: PortId::transfer(),
            destination_channel: ChannelId::new(0),
            payload: vec![0x55; 280],
            timeout: Timeout::NEVER,
        },
        proof_height: 10,
        proof: trie.prove(key).unwrap(),
    }
}

fn main() {
    let output = Flags::from_env().output();
    let profiles = [HostProfile::SOLANA, HostProfile::NEAR_LIKE, HostProfile::TRON_LIKE];

    let mut artifact =
        Artifact::new("§VI-D — the same guest operations on different hosts", "host_profiles");
    let limits = artifact.section("host runtime limits");
    limits.line(format!(
        "{:<10} {:>10} {:>12} {:>12} {:>12}",
        "host", "tx size", "CU budget", "sig/tx", "block time"
    ));
    for p in &profiles {
        limits.line(format!(
            "{:<10} {:>8} B {:>12} {:>12} {:>10} ms",
            p.name,
            p.max_transaction_size,
            p.max_compute_units,
            sig_checks_per_tx_for(p),
            p.slot_millis
        ));
    }

    let (update, sigs) = typical_update_op(105);
    let recv = typical_recv_op();
    let costs = artifact.section("light-client update (105-signature commit) and packet delivery");
    costs.line(format!(
        "{:<10} {:>12} {:>14} {:>12} {:>14}",
        "host", "update txs", "update cost", "recv txs", "recv cost"
    ));
    for p in &profiles {
        let update_txs = transaction_count_for(p, &update, sigs);
        let recv_txs = transaction_count_for(p, &recv, 0);
        // One signature per transaction (the relayer pays base fees).
        let update_cost = lamports_to_cents(update_txs as u64 * p.lamports_per_signature);
        let recv_cost = lamports_to_cents(recv_txs as u64 * p.lamports_per_signature);
        costs
            .line(format!(
                "{:<10} {:>12} {:>12.2} ¢ {:>12} {:>12.2} ¢",
                p.name, update_txs, update_cost, recv_txs, recv_cost
            ))
            .value(&format!("{}_update_txs", p.name), update_txs as f64)
            .value(&format!("{}_recv_txs", p.name), recv_txs as f64)
            .value(&format!("{}_update_cost_cents", p.name), update_cost)
            .value(&format!("{}_recv_cost_cents", p.name), recv_cost);
    }

    // Show the actual plan shape per host.
    let shapes = artifact.section("plan shapes for the update");
    for p in &profiles {
        let plan = plan_op_for(p, &update, 1, sigs);
        let chunks = plan
            .iter()
            .filter(|i| matches!(i, guest_chain::GuestInstruction::WriteChunk { .. }))
            .count();
        let verifies = plan
            .iter()
            .filter(|i| matches!(i, guest_chain::GuestInstruction::VerifySigs { .. }))
            .count();
        shapes.line(format!(
            "{:<10} {chunks} chunk txs + {verifies} verify txs + 1 exec = {} transactions",
            p.name,
            plan.len()
        ));
    }
    shapes
        .line("")
        .line("takeaway: the ~36-transaction updates of Fig. 4 are a property of")
        .line("Solana's 1232-byte / 1.4M-CU limits, not of the guest design — on a")
        .line("NEAR-like host the same update is a couple of transactions.");

    artifact.emit(output.quiet, output.json.as_deref());
}
