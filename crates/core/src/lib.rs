//! The **guest blockchain** — the core contribution of "Be My Guest:
//! Welcoming Interoperability into IBC-Incompatible Blockchains"
//! (DSN 2025).
//!
//! A guest blockchain is a virtual blockchain layered on top of a host
//! chain (Solana in the paper) that lacks IBC's prerequisites. The host
//! provides transaction atomicity and state persistence; the guest layer
//! adds the missing pieces:
//!
//! * **provable storage** — a sealable Merkle trie (the `sealable-trie`
//!   crate) whose root is committed in every guest block;
//! * **light-client support** — guest blocks are finalised by a
//!   Proof-of-Stake validator quorum ([`contract`], [`epoch`], [`staking`])
//!   and verified on the counterparty by [`GuestLightClient`];
//! * **block introspection** — the Guest Contract tracks past guest blocks
//!   ([`contract::BlockHistory`]), enabling handshake self-validation.
//!
//! The central type is [`GuestContract`] (Alg. 1); [`program`] wraps it in
//! a host-chain program that respects Solana's runtime limits (1232-byte
//! transactions, compute metering, 32 KiB heap), which forces the chunked
//! multi-transaction flows measured in the paper's evaluation (Figs. 4–5).
//!
//! # Examples
//!
//! ```
//! use guest_chain::{GuestConfig, GuestContract, GuestHeader, GuestLightClient};
//! use ibc_core::LightClient;
//! use sim_crypto::schnorr::Keypair;
//!
//! let validator = Keypair::from_seed(1);
//! let mut contract =
//!     GuestContract::new(GuestConfig::fast(), vec![(validator.public(), 100)], 0, 0);
//! let genesis = contract.block_at(0).unwrap();
//! let mut client = GuestLightClient::from_genesis(&genesis, contract.current_epoch().clone());
//!
//! // Δ elapsed ⇒ a (timestamp-refreshing) empty block may be generated.
//! let block = contract.generate_block(15_000, 10)?;
//! contract.sign(block.height, validator.public(), validator.sign(&block.signing_bytes()))?;
//! assert!(contract.is_finalised(block.height));
//!
//! // The counterparty's light client verifies the quorum.
//! let signatures = contract.signatures_at(block.height);
//! let header = GuestHeader { block: block.clone(), signatures };
//! assert_eq!(client.update(&header.encode()).unwrap(), block.height);
//! # Ok::<(), guest_chain::GuestError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod config;
pub mod contract;
pub mod epoch;
pub mod light_client;
pub mod program;
pub mod staking;

pub use block::{GuestBlock, SignedVote};
pub use config::{GuestConfig, MIN_STAKE, REWARD_SHARE_PERCENT, SEND_FEE_LAMPORTS};
pub use contract::{BlockHistory, GuestContract, GuestError, GuestEvent};
pub use epoch::{Epoch, Validator};
pub use light_client::{GuestHeader, GuestLightClient, GuestMisbehaviour};
pub use program::{GuestInstruction, GuestOp, GuestProgram};
pub use staking::{PendingWithdrawal, StakeError, StakingPool};
