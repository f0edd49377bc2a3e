//! Transactions, instructions and the fee model.

use serde::{Deserialize, Serialize};

use crate::types::{lamports_to_usd, HostProfile, Pubkey, MAX_TRANSACTION_SIZE};

/// How a transaction buys priority (§V-A, §VI-B).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FeePolicy {
    /// Pay only the base per-signature fee; lowest inclusion priority.
    BaseOnly,
    /// Solana priority fees: a price per compute unit in micro-lamports.
    Priority {
        /// Micro-lamports offered per compute unit.
        micro_lamports_per_cu: u64,
    },
    /// Jito-style block bundle with a direct tip to the block producer:
    /// near-guaranteed next-slot inclusion at a fixed cost.
    Bundle {
        /// Tip in lamports.
        tip_lamports: u64,
    },
}

impl FeePolicy {
    /// The lamports this policy adds on top of base signature fees, given
    /// the transaction's requested compute units.
    pub fn extra_lamports(&self, compute_units: u64) -> u64 {
        match self {
            Self::BaseOnly => 0,
            Self::Priority { micro_lamports_per_cu } => {
                micro_lamports_per_cu * compute_units / 1_000_000
            }
            Self::Bundle { tip_lamports } => *tip_lamports,
        }
    }
}

/// One program invocation within a transaction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instruction {
    /// The program to invoke.
    pub program_id: Pubkey,
    /// Accounts the instruction reads or writes.
    pub accounts: Vec<Pubkey>,
    /// Opaque instruction data, decoded by the program.
    pub data: Vec<u8>,
}

impl Instruction {
    /// Creates an instruction.
    pub fn new(program_id: Pubkey, accounts: Vec<Pubkey>, data: Vec<u8>) -> Self {
        Self { program_id, accounts, data }
    }
}

/// A host-chain transaction.
///
/// Use [`Transaction::build`] to construct one; it enforces the 1232-byte
/// size limit that shapes the entire guest-blockchain design.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Transaction {
    /// Fee payer (also the first signer).
    pub payer: Pubkey,
    /// Number of signatures carried (≥ 1).
    pub num_signatures: usize,
    /// Instructions executed atomically, in order.
    pub instructions: Vec<Instruction>,
    /// Priority policy.
    pub fee_policy: FeePolicy,
    /// Compute units requested (defaults to the chain maximum).
    pub compute_budget: u64,
    /// Base fee per signature (from the host profile).
    pub fee_per_signature: u64,
    /// Per-transaction heap limit (from the host profile).
    pub heap_limit: usize,
}

impl Transaction {
    /// Builds a transaction, validating the serialized-size limit.
    ///
    /// # Errors
    ///
    /// Returns [`TransactionError::TooLarge`] if the serialized form would
    /// exceed [`MAX_TRANSACTION_SIZE`], and
    /// [`TransactionError::NoInstructions`] on an empty instruction list.
    pub fn build(
        payer: Pubkey,
        num_signatures: usize,
        instructions: Vec<Instruction>,
        fee_policy: FeePolicy,
    ) -> Result<Self, TransactionError> {
        Self::build_for(&HostProfile::SOLANA, payer, num_signatures, instructions, fee_policy)
    }

    /// Like [`Self::build`] but validated against an explicit host profile
    /// (§VI-D: other hosts have different limits).
    ///
    /// # Errors
    ///
    /// As for [`Self::build`], with the profile's size limit.
    pub fn build_for(
        profile: &HostProfile,
        payer: Pubkey,
        num_signatures: usize,
        instructions: Vec<Instruction>,
        fee_policy: FeePolicy,
    ) -> Result<Self, TransactionError> {
        if instructions.is_empty() {
            return Err(TransactionError::NoInstructions);
        }
        let tx = Self {
            payer,
            num_signatures: num_signatures.max(1),
            instructions,
            fee_policy,
            compute_budget: profile.max_compute_units,
            fee_per_signature: profile.lamports_per_signature,
            heap_limit: profile.max_heap_bytes,
        };
        let size = tx.serialized_size();
        if size > profile.max_transaction_size {
            return Err(TransactionError::TooLarge { size });
        }
        Ok(tx)
    }

    /// The wire-format size model (bytes), mirroring Solana's layout:
    /// signature array + message header + account table + recent blockhash +
    /// compiled instructions.
    pub fn serialized_size(&self) -> usize {
        let mut unique_accounts: Vec<&Pubkey> = vec![&self.payer];
        for instruction in &self.instructions {
            if !unique_accounts.contains(&&instruction.program_id) {
                unique_accounts.push(&instruction.program_id);
            }
            for account in &instruction.accounts {
                if !unique_accounts.contains(&account) {
                    unique_accounts.push(account);
                }
            }
        }
        let signatures = 1 + self.num_signatures * 64;
        let header = 3;
        let accounts = 1 + unique_accounts.len() * 32;
        let blockhash = 32;
        let instructions: usize = 1 + self
            .instructions
            .iter()
            .map(|ix| 1 + 1 + ix.accounts.len() + 2 + ix.data.len())
            .sum::<usize>();
        signatures + header + accounts + blockhash + instructions
    }

    /// The total fee in lamports: base per-signature fees plus the policy's
    /// extra (priority fee or bundle tip).
    pub fn fee_lamports(&self) -> u64 {
        self.num_signatures as u64 * self.fee_per_signature
            + self.fee_policy.extra_lamports(self.compute_budget)
    }

    /// The total fee in USD at the paper's 200 $/SOL.
    pub fn fee_usd(&self) -> f64 {
        lamports_to_usd(self.fee_lamports())
    }
}

/// Transaction construction/validation errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransactionError {
    /// The serialized transaction exceeds 1232 bytes.
    TooLarge {
        /// The computed size.
        size: usize,
    },
    /// No instructions were provided.
    NoInstructions,
}

impl core::fmt::Display for TransactionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::TooLarge { size } => {
                write!(f, "transaction size {size} exceeds {MAX_TRANSACTION_SIZE} bytes")
            }
            Self::NoInstructions => f.write_str("transaction has no instructions"),
        }
    }
}

impl std::error::Error for TransactionError {}

/// The maximum instruction-data payload a single-signature, single-
/// instruction transaction touching `num_accounts` accounts can carry.
///
/// This is the constant that forces multi-transaction light-client updates:
/// with a handful of accounts, roughly 1.0–1.1 KiB of payload fits.
pub fn max_chunk_payload(num_accounts: usize) -> usize {
    max_chunk_payload_for(&HostProfile::SOLANA, num_accounts)
}

/// [`max_chunk_payload`] under an arbitrary host profile.
pub fn max_chunk_payload_for(profile: &HostProfile, num_accounts: usize) -> usize {
    // signatures(1+64) + header(3) + accounts table + blockhash(32)
    // + instruction list(1) + instruction overhead(1 + 1 + accounts + 2).
    let fixed = 65 + 3 + (1 + (num_accounts + 2) * 32) + 32 + 1 + (1 + 1 + num_accounts + 2);
    profile.max_transaction_size.saturating_sub(fixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::LAMPORTS_PER_SIGNATURE;

    fn ix(data_len: usize) -> Instruction {
        Instruction::new(
            Pubkey::from_label("program"),
            vec![Pubkey::from_label("state")],
            vec![0u8; data_len],
        )
    }

    #[test]
    fn small_transaction_fits() {
        let tx =
            Transaction::build(Pubkey::from_label("payer"), 1, vec![ix(100)], FeePolicy::BaseOnly)
                .unwrap();
        assert!(tx.serialized_size() <= MAX_TRANSACTION_SIZE);
    }

    #[test]
    fn oversized_transaction_rejected() {
        let err = Transaction::build(
            Pubkey::from_label("payer"),
            1,
            vec![ix(2_000)],
            FeePolicy::BaseOnly,
        )
        .unwrap_err();
        assert!(matches!(err, TransactionError::TooLarge { size } if size > 1_232));
    }

    #[test]
    fn max_chunk_payload_is_accepted_and_tight() {
        let payload = max_chunk_payload(1);
        let tx = Transaction::build(
            Pubkey::from_label("payer"),
            1,
            vec![ix(payload)],
            FeePolicy::BaseOnly,
        )
        .unwrap();
        assert_eq!(tx.serialized_size(), MAX_TRANSACTION_SIZE);
        assert!(Transaction::build(
            Pubkey::from_label("payer"),
            1,
            vec![ix(payload + 1)],
            FeePolicy::BaseOnly,
        )
        .is_err());
    }

    #[test]
    fn empty_transaction_rejected() {
        assert_eq!(
            Transaction::build(Pubkey::from_label("p"), 1, vec![], FeePolicy::BaseOnly),
            Err(TransactionError::NoInstructions)
        );
    }

    #[test]
    fn base_fee_is_per_signature() {
        let one = Transaction::build(Pubkey::from_label("p"), 1, vec![ix(1)], FeePolicy::BaseOnly)
            .unwrap();
        let three =
            Transaction::build(Pubkey::from_label("p"), 3, vec![ix(1)], FeePolicy::BaseOnly)
                .unwrap();
        assert_eq!(one.fee_lamports(), LAMPORTS_PER_SIGNATURE);
        assert_eq!(three.fee_lamports(), 3 * LAMPORTS_PER_SIGNATURE);
    }

    #[test]
    fn priority_fee_scales_with_budget() {
        let mut tx = Transaction::build(
            Pubkey::from_label("p"),
            1,
            vec![ix(1)],
            FeePolicy::Priority { micro_lamports_per_cu: 5_000_000 },
        )
        .unwrap();
        tx.compute_budget = 1_400_000;
        // 5 lamports per CU × 1.4M CU = 7M lamports.
        assert_eq!(tx.fee_lamports(), LAMPORTS_PER_SIGNATURE + 7_000_000);
    }

    #[test]
    fn bundle_tip_reproduces_fig3_cluster() {
        // §V-A: bundles cost ≈ 3.02 USD per SendPacket.
        let mut tx = Transaction::build(
            Pubkey::from_label("p"),
            1,
            vec![ix(1)],
            FeePolicy::Bundle { tip_lamports: 15_000_000 },
        )
        .unwrap();
        tx.compute_budget = 200_000;
        let usd = tx.fee_usd();
        assert!((2.9..3.2).contains(&usd), "bundle cost {usd}");
    }

    #[test]
    fn build_for_respects_profile_limits() {
        use crate::types::HostProfile;
        // A 100 KiB payload: impossible on Solana, fine on a NEAR-like host.
        let big = ix(100 * 1024);
        assert!(Transaction::build(
            Pubkey::from_label("p"),
            1,
            vec![big.clone()],
            FeePolicy::BaseOnly
        )
        .is_err());
        let tx = Transaction::build_for(
            &HostProfile::NEAR_LIKE,
            Pubkey::from_label("p"),
            1,
            vec![big],
            FeePolicy::BaseOnly,
        )
        .unwrap();
        // Fees use the profile's per-signature price.
        assert_eq!(tx.fee_lamports(), HostProfile::NEAR_LIKE.lamports_per_signature);
        assert_eq!(tx.compute_budget, HostProfile::NEAR_LIKE.max_compute_units);
    }

    #[test]
    fn duplicate_accounts_counted_once() {
        let program = Pubkey::from_label("program");
        let state = Pubkey::from_label("state");
        let one = Transaction::build(
            Pubkey::from_label("p"),
            1,
            vec![Instruction::new(program, vec![state], vec![0; 8])],
            FeePolicy::BaseOnly,
        )
        .unwrap();
        let dup = Transaction::build(
            Pubkey::from_label("p"),
            1,
            vec![Instruction::new(program, vec![state, state], vec![0; 8])],
            FeePolicy::BaseOnly,
        )
        .unwrap();
        // The duplicate reference costs one index byte, not 32.
        assert_eq!(dup.serialized_size(), one.serialized_size() + 1);
    }
}
