//! Splitting large guest operations across 1232-byte host transactions.
//!
//! This module is the relayer-side answer to Solana's runtime limits (§IV):
//! an operation too large for one transaction is staged chunk by chunk, its
//! in-contract signature checks are burned in batches of
//! [`SIG_CHECKS_PER_TX`], and a final transaction executes the whole staged
//! operation. The transaction counts this produces are the quantities the
//! paper reports: ~36.5 transactions per light-client update (Fig. 4) and
//! 4–5 per packet delivery (§V-A).

use guest_chain::{GuestInstruction, GuestOp};
use host_sim::compute::costs;
use host_sim::transaction::max_chunk_payload_for;
use host_sim::HostProfile;

/// In-contract signature checks that fit one maxed-out Solana transaction
/// (4 × 320 000 CU < 1.4 M < 5 × 320 000).
pub const SIG_CHECKS_PER_TX: usize = 4;

/// In-contract signature checks per transaction on a given host (§VI-D).
pub fn sig_checks_per_tx_for(profile: &HostProfile) -> usize {
    ((profile.max_compute_units / costs::SIGNATURE_VERIFY) as usize).max(1)
}

/// Bytes of operation payload per staging transaction.
pub fn chunk_capacity() -> usize {
    chunk_capacity_for(&HostProfile::SOLANA)
}

/// [`chunk_capacity`] under an arbitrary host profile.
pub fn chunk_capacity_for(profile: &HostProfile) -> usize {
    max_chunk_payload_for(profile, 1) - GuestInstruction::CHUNK_FRAME_OVERHEAD
}

/// Plans the host-instruction sequence for `op` on Solana.
///
/// Small operations with no signature checks ride a single
/// [`GuestInstruction::Inline`]; everything else becomes
/// `WriteChunk* VerifySigs* ExecStaged`. Each returned instruction fits in
/// one host transaction.
pub fn plan_op(op: &GuestOp, buffer: u64, num_sig_checks: usize) -> Vec<GuestInstruction> {
    plan_op_for(&HostProfile::SOLANA, op, buffer, num_sig_checks)
}

/// [`plan_op`] under an arbitrary host profile (§VI-D: the same guest
/// operation costs a very different number of transactions per host).
pub fn plan_op_for(
    profile: &HostProfile,
    op: &GuestOp,
    buffer: u64,
    num_sig_checks: usize,
) -> Vec<GuestInstruction> {
    let encoded = op.encode();
    let checks_per_tx = sig_checks_per_tx_for(profile);
    // Only an op with no signature checks can ride inline: the staged path
    // is how verification work is carried across transactions.
    if num_sig_checks == 0 && inline_len(encoded.len()) <= max_chunk_payload_for(profile, 1) {
        let inline = GuestInstruction::Inline { op: op.clone() };
        debug_assert_eq!(inline.encode().len(), inline_len(encoded.len()));
        return vec![inline];
    }

    let capacity = chunk_capacity_for(profile);
    let mut instructions = Vec::new();
    for (index, chunk) in encoded.chunks(capacity).enumerate() {
        instructions.push(GuestInstruction::WriteChunk {
            buffer,
            offset: index * capacity,
            data: chunk.to_vec(),
        });
    }
    let mut remaining = num_sig_checks;
    while remaining > 0 {
        let count = remaining.min(checks_per_tx);
        instructions.push(GuestInstruction::VerifySigs { buffer, count });
        remaining -= count;
    }
    instructions.push(GuestInstruction::ExecStaged { buffer });
    instructions
}

/// `GuestInstruction::Inline { op }.encode().len()` for an op whose own
/// encoding is `op_len` bytes: the JSON tag byte, the op's text spliced into
/// `{"Inline":{"op":…}}`.
fn inline_len(op_len: usize) -> usize {
    1 + r#"{"Inline":{"op":"#.len() + op_len + "}}".len()
}

/// The number of transactions [`plan_op`] will produce, without building
/// them (for planning and tests).
pub fn transaction_count(op: &GuestOp, num_sig_checks: usize) -> usize {
    plan_op(op, 0, num_sig_checks).len()
}

/// [`transaction_count`] under an arbitrary host profile.
pub fn transaction_count_for(profile: &HostProfile, op: &GuestOp, num_sig_checks: usize) -> usize {
    plan_op_for(profile, op, 0, num_sig_checks).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_chain::GuestOp;
    use ibc_core::types::ClientId;

    fn update_op(header_len: usize, sigs: usize) -> GuestOp {
        GuestOp::UpdateClient {
            client: ClientId::new(0),
            header: "x".repeat(header_len),
            num_signatures: sigs,
        }
    }

    #[test]
    fn small_op_is_inline() {
        let plan = plan_op(&GuestOp::GenerateBlock, 0, 0);
        assert_eq!(plan.len(), 1);
        assert!(matches!(plan[0], GuestInstruction::Inline { .. }));
    }

    #[test]
    fn large_update_is_chunked_verified_and_executed() {
        // A ~9 KiB header with 93 signatures — a typical counterparty
        // commit — should need roughly the paper's 36.5 transactions.
        let plan = plan_op(&update_op(9_000, 93), 7, 93);
        let chunks =
            plan.iter().filter(|i| matches!(i, GuestInstruction::WriteChunk { .. })).count();
        let verifies =
            plan.iter().filter(|i| matches!(i, GuestInstruction::VerifySigs { .. })).count();
        assert_eq!(verifies, 24, "93 checks in batches of 4");
        assert!(chunks >= 8, "9 KiB at ~1 KiB per chunk");
        assert!(matches!(plan.last(), Some(GuestInstruction::ExecStaged { .. })));
        let total = plan.len();
        assert!((30..=42).contains(&total), "expected ≈36.5 transactions, planned {total}");
    }

    #[test]
    fn every_planned_instruction_fits_a_transaction() {
        use host_sim::transaction::{FeePolicy, Instruction, Transaction};
        use host_sim::Pubkey;
        let plan = plan_op(&update_op(20_000, 120), 1, 120);
        for instruction in plan {
            let tx = Transaction::build(
                Pubkey::from_label("payer"),
                1,
                vec![Instruction::new(
                    Pubkey::from_label("program"),
                    vec![Pubkey::from_label("state")],
                    instruction.encode(),
                )],
                FeePolicy::BaseOnly,
            );
            assert!(tx.is_ok(), "instruction overflows a transaction");
        }
    }

    #[test]
    fn chunks_are_sequential_and_complete() {
        let op = update_op(5_000, 0);
        let plan = plan_op(&op, 3, 1);
        let mut reassembled = Vec::new();
        for instruction in &plan {
            if let GuestInstruction::WriteChunk { offset, data, .. } = instruction {
                assert_eq!(*offset, reassembled.len());
                reassembled.extend_from_slice(data);
            }
        }
        assert_eq!(reassembled, op.encode());
    }

    #[test]
    fn inline_length_is_computed_not_encoded() {
        // One byte of header moves the op's length by one: walk the inline
        // instruction across the transaction limit.
        let limit = max_chunk_payload_for(&HostProfile::SOLANA, 1);
        let at_limit = limit - inline_len(update_op(0, 0).encode().len());
        for header_len in at_limit - 1..=at_limit + 1 {
            let op = update_op(header_len, 0);
            let inline = GuestInstruction::Inline { op: op.clone() }.encode().len();
            assert_eq!(inline_len(op.encode().len()), inline);
            assert_eq!(inline, limit + header_len - at_limit);
            let plan = plan_op(&op, 0, 0);
            if inline <= limit {
                assert_eq!(plan, vec![GuestInstruction::Inline { op }]);
            } else {
                assert!(matches!(plan[..], [GuestInstruction::WriteChunk { .. }, ..]), "{plan:?}");
            }
        }
        // Shapes other than a struct variant splice the same way.
        for op in [GuestOp::GenerateBlock, GuestOp::SelfDestruct] {
            let inline = GuestInstruction::Inline { op: op.clone() }.encode().len();
            assert_eq!(inline_len(op.encode().len()), inline);
        }
    }

    #[test]
    fn sig_checks_force_staging_even_for_small_ops() {
        let plan = plan_op(&update_op(10, 2), 0, 2);
        assert!(plan.len() >= 3, "chunk + verify + exec");
        assert!(matches!(plan.last(), Some(GuestInstruction::ExecStaged { .. })));
    }
}
