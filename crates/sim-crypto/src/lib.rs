//! Self-contained cryptographic primitives for the guest-blockchain
//! reproduction.
//!
//! The paper's deployment uses SHA-256 and Ed25519 on Solana. This crate
//! provides the same *shapes* without any external dependency:
//!
//! * [`sha256`] — a from-scratch SHA-256 implementation verified against the
//!   NIST/FIPS 180-4 test vectors,
//! * [`struct@Hash`] — a 32-byte digest newtype used as block ids, trie node hashes
//!   and commitment roots throughout the workspace,
//! * [`schnorr`] — Schnorr signatures over the prime-order subgroup modulo
//!   the 61-bit safe prime `p = 2^61 − 2373`. `p` and the group order
//!   `q = 2^60 − 1187` are pseudo-Mersenne, so products reduce by folding the
//!   high bits down (`(x & mask) + (x >> bits)·c`, twice, then one subtract),
//!   never by division, and powers of the generator come from a table of
//!   `g^(d·16^i)` built at compile time.
//!
//! # Security
//!
//! The Schnorr group parameters are **toy sized** (|p| = 61 bits) so that the
//! arithmetic stays in `u128` without a bignum library. The signing algebra,
//! API and failure modes are faithful; the parameters are not. Do **not** use
//! this crate outside simulations. See `DESIGN.md` ("Known deviations").
//!
//! # Examples
//!
//! ```
//! use sim_crypto::{sha256, schnorr::Keypair};
//!
//! let digest = sha256(b"hello world");
//! assert_eq!(
//!     digest.to_hex(),
//!     "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9",
//! );
//!
//! let keypair = Keypair::from_seed(7);
//! let signature = keypair.sign(digest.as_bytes());
//! assert!(keypair.public().verify(digest.as_bytes(), &signature));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hash;
pub mod rng;
pub mod schnorr;
mod sha2;

pub use hash::{Hash, ParseHashError, HASH_LEN};
pub use sha2::{sha256, Sha256};
