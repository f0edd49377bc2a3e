//! The rent model and account errors.

use crate::types::{Pubkey, MAX_ACCOUNT_SIZE};

/// Rent parameters (Solana main-net values).
///
/// An account is *rent exempt* when it holds at least
/// `(STORAGE_OVERHEAD + data_len) · LAMPORTS_PER_BYTE_YEAR · EXEMPTION_YEARS`
/// lamports. For the paper's 10 MiB guest state account this comes to
/// ≈ 73 SOL ≈ 14.6 k USD (§V-D), recoverable when the account is shrunk or
/// deleted.
pub mod rent {
    use crate::types::lamports_to_usd;

    /// Fixed per-account byte overhead counted by rent.
    const STORAGE_OVERHEAD: u64 = 128;
    /// Lamports charged per byte-year.
    const LAMPORTS_PER_BYTE_YEAR: u64 = 3_480;
    /// Years of rent required for exemption.
    const EXEMPTION_YEARS: u64 = 2;

    /// The minimum balance for an account of `data_len` bytes to be rent
    /// exempt.
    pub fn minimum_balance(data_len: usize) -> u64 {
        (STORAGE_OVERHEAD + data_len as u64) * LAMPORTS_PER_BYTE_YEAR * EXEMPTION_YEARS
    }

    /// The deposit in USD for an account of `data_len` bytes.
    pub fn deposit_usd(data_len: usize) -> f64 {
        lamports_to_usd(minimum_balance(data_len))
    }
}

/// Errors from account management.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccountError {
    /// Requested allocation exceeds [`MAX_ACCOUNT_SIZE`].
    TooLarge(usize),
    /// Payer has insufficient balance.
    InsufficientFunds,
    /// The account does not exist.
    Unknown(Pubkey),
}

impl core::fmt::Display for AccountError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::TooLarge(size) => {
                write!(f, "account size {size} exceeds maximum {MAX_ACCOUNT_SIZE}")
            }
            Self::InsufficientFunds => f.write_str("insufficient funds"),
            Self::Unknown(key) => write!(f, "unknown account {key}"),
        }
    }
}

impl std::error::Error for AccountError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_mib_deposit_matches_paper() {
        // §V-D: "Initialising such a large account required a deposit of
        // 14.6 thousand dollars" for 10 MiB.
        let usd = rent::deposit_usd(MAX_ACCOUNT_SIZE);
        assert!((14_000.0..15_200.0).contains(&usd), "got {usd}");
    }

    #[test]
    fn rent_grows_with_size() {
        assert!(rent::minimum_balance(100) < rent::minimum_balance(1_000));
        assert!(rent::minimum_balance(0) > 0, "overhead is always charged");
    }
}
