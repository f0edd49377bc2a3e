//! Fundamental host-chain types and protocol constants.
//!
//! Constants mirror Solana main-net values as of the paper's evaluation
//! window (September 2024); each is cross-referenced against the number the
//! paper reports (§IV, §V).

use core::fmt;

use serde::{Deserialize, Serialize};
use sim_crypto::{sha256, Hash};

/// Lamports per SOL.
pub const LAMPORTS_PER_SOL: u64 = 1_000_000_000;

/// The paper prices SOL at 200 USD (§V) — "roughly the highest value over
/// the last 12 months".
pub const USD_PER_SOL: f64 = 200.0;

/// Base fee per transaction signature: 5 000 lamports = 0.1 ¢ at 200 $/SOL,
/// matching §V-B ("0.1 cents per transaction and additional 0.1 cents per
/// signature" — i.e. 5 000 lamports for each signature including the first).
pub const LAMPORTS_PER_SIGNATURE: u64 = 5_000;

/// Maximum serialized transaction size in bytes (§IV: "transaction size
/// limit of 1232 bytes").
pub const MAX_TRANSACTION_SIZE: usize = 1_232;

/// Per-transaction compute budget (§IV: "compute time limit of 1.4 million
/// compute units").
pub const MAX_COMPUTE_UNITS: u64 = 1_400_000;

/// Per-transaction heap limit (§IV: "default memory allocator not supporting
/// heap sizes over 32 KiB").
pub const MAX_HEAP_BYTES: usize = 32 * 1024;

/// Largest possible account size: 10 MiB (§V-D).
pub const MAX_ACCOUNT_SIZE: usize = 10 * 1024 * 1024;

/// Target slot duration in milliseconds (Solana's ~400–550 ms; we use the
/// scheduling midpoint and add jitter in the chain clock).
const SLOT_MILLIS: u64 = 400;

/// Converts lamports to US dollars at the paper's 200 $/SOL.
pub fn lamports_to_usd(lamports: u64) -> f64 {
    lamports as f64 / LAMPORTS_PER_SOL as f64 * USD_PER_SOL
}

/// Converts lamports to US cents at the paper's 200 $/SOL.
pub fn lamports_to_cents(lamports: u64) -> f64 {
    lamports_to_usd(lamports) * 100.0
}

/// Runtime limits of a host chain (§VI-D: the guest design ports to any
/// host with smart contracts and on-chain storage, but its *cost profile*
/// is shaped by the host's limits).
///
/// [`HostProfile::SOLANA`] matches the constants above; the NEAR-like and
/// TRON-like profiles are order-of-magnitude models from their public
/// protocol parameters, used by the `host_profiles` experiment to show how
/// transaction counts change with the host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostProfile {
    /// Human-readable name.
    pub name: &'static str,
    /// Maximum serialized transaction size in bytes.
    pub max_transaction_size: usize,
    /// Per-transaction compute budget (normalized to Solana-style CU).
    pub max_compute_units: u64,
    /// Per-transaction heap limit in bytes.
    pub max_heap_bytes: usize,
    /// Base fee per signature, in lamport-equivalents.
    pub lamports_per_signature: u64,
    /// Target block interval in milliseconds.
    pub slot_millis: u64,
    /// Total compute capacity of one block.
    pub slot_compute_capacity: u64,
}

impl HostProfile {
    /// Solana main-net limits (§IV) — the paper's deployment target.
    pub const SOLANA: HostProfile = HostProfile {
        name: "solana",
        max_transaction_size: MAX_TRANSACTION_SIZE,
        max_compute_units: MAX_COMPUTE_UNITS,
        max_heap_bytes: MAX_HEAP_BYTES,
        lamports_per_signature: LAMPORTS_PER_SIGNATURE,
        slot_millis: SLOT_MILLIS,
        slot_compute_capacity: 48_000_000,
    };

    /// A NEAR-like host: 4 MiB transactions, a large gas budget (~300 Tgas
    /// normalized), 1.1 s blocks. NEAR's actual gap is introspection, not
    /// resources — a light-client update fits one transaction here.
    pub const NEAR_LIKE: HostProfile = HostProfile {
        name: "near-like",
        max_transaction_size: 4 * 1024 * 1024,
        max_compute_units: 120_000_000,
        max_heap_bytes: 256 * 1024 * 1024,
        lamports_per_signature: 50_000,
        slot_millis: 1_100,
        slot_compute_capacity: 1_200_000_000,
    };

    /// A TRON-like host: megabyte-scale transactions but a tight energy
    /// budget, 3 s blocks. TRON's gap is state proofs (§VI-D).
    pub const TRON_LIKE: HostProfile = HostProfile {
        name: "tron-like",
        max_transaction_size: 1024 * 1024,
        max_compute_units: 6_000_000,
        max_heap_bytes: 16 * 1024 * 1024,
        lamports_per_signature: 150_000,
        slot_millis: 3_000,
        slot_compute_capacity: 120_000_000,
    };
}

/// A slot number (one block-production opportunity).
pub type Slot = u64;

/// Simulation time in milliseconds since genesis.
pub type TimeMs = u64;

/// An account address (32 bytes, displayed in hex).
///
/// # Examples
///
/// ```
/// use host_sim::Pubkey;
///
/// let a = Pubkey::new_unique(1);
/// let b = Pubkey::new_unique(2);
/// assert_ne!(a, b);
/// assert_eq!(a, Pubkey::new_unique(1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Pubkey([u8; 32]);

impl Pubkey {
    /// Wraps raw bytes as an address.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Self(bytes)
    }

    /// Derives a unique address from a seed (deterministic).
    pub fn new_unique(seed: u64) -> Self {
        Self(sha256(seed.to_le_bytes()).into_bytes())
    }

    /// Derives an address from a human-readable label.
    pub fn from_label(label: &str) -> Self {
        Self(sha256(label.as_bytes()).into_bytes())
    }

    /// The raw bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Debug for Pubkey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pubkey({})", &Hash::from_bytes(self.0).to_hex()[..8])
    }
}

impl fmt::Display for Pubkey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&Hash::from_bytes(self.0).to_hex()[..16])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fee_constants_match_paper() {
        // 5 000 lamports = 0.1 cents at 200 $/SOL (§V-B).
        assert!((lamports_to_cents(LAMPORTS_PER_SIGNATURE) - 0.1).abs() < 1e-9);
        // 1 SOL = 200 USD.
        assert!((lamports_to_usd(LAMPORTS_PER_SOL) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn pubkey_derivation_is_stable_and_distinct() {
        assert_eq!(Pubkey::new_unique(7), Pubkey::new_unique(7));
        assert_ne!(Pubkey::new_unique(7), Pubkey::new_unique(8));
        assert_ne!(Pubkey::from_label("guest"), Pubkey::from_label("host"));
    }

    #[test]
    fn display_is_short_hex() {
        let p = Pubkey::from_label("display");
        assert_eq!(format!("{p}").len(), 16);
    }

    #[test]
    fn solana_profile_matches_the_paper_constants() {
        let p = HostProfile::SOLANA;
        assert_eq!(p.max_transaction_size, 1_232);
        assert_eq!(p.max_compute_units, 1_400_000);
        assert_eq!(p.max_heap_bytes, 32 * 1024);
        assert_eq!(p.lamports_per_signature, 5_000);
    }

    #[test]
    fn profiles_order_as_expected() {
        // NEAR-like and TRON-like hosts dwarf Solana's transaction size —
        // the point of the §VI-D comparison. (Read the values through a
        // slice so the comparison is not a compile-time constant.)
        let profiles = [HostProfile::SOLANA, HostProfile::NEAR_LIKE, HostProfile::TRON_LIKE];
        let sizes: Vec<usize> = profiles.iter().map(|p| p.max_transaction_size).collect();
        assert!(sizes[1] > 1000 * sizes[0]);
        assert!(sizes[2] > sizes[0]);
        let compute: Vec<u64> = profiles.iter().map(|p| p.max_compute_units).collect();
        assert!(compute[1] > compute[2]);
    }
}
