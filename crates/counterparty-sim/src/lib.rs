//! A Picasso-like counterparty chain with native IBC support.
//!
//! The paper connects the guest blockchain (on Solana) to Picasso, a
//! Cosmos chain (§IV). This crate simulates that side: a chain with
//! instant finality, a Tendermint-style validator commit on every block,
//! and a full IBC stack over a plain Merkle store.
//!
//! What matters to the reproduction is the *size* of this chain's headers:
//! a commit carries one signature per participating validator, and the
//! whole header must be pushed through the guest's 1232-byte host
//! transactions — that is what makes light-client updates take ~36.5
//! transactions (Fig. 4) with the variance of Fig. 5.
//!
//! # Commits are signed when read
//!
//! Every block is committed by a fresh ≥ ⅔ draw of the validator set, but
//! the chain only records *who* voted ([`CpCommit`]). Two ways to look at
//! a block follow from that:
//!
//! - [`CounterpartyChain::latest_commit`] / [`CounterpartyChain::commit_at`]
//!   give the committed metadata — height, `app_hash`, timestamp, an
//!   announced rotation — and cost nothing. Block production, timeout
//!   checks and "has the root moved?" questions belong here.
//! - [`CounterpartyChain::latest_header`] / [`CounterpartyChain::header_at`]
//!   give the [`CpHeader`] a relayer ships: the same fields plus one
//!   signature per voter, computed on the first read of that height and
//!   memoised. Signatures are deterministic in key and message, so the
//!   bytes are the same whenever (and whether) a header is read; a quiet
//!   chain's keep-alive blocks, which nobody relays, are never signed.
//!
//! # Examples
//!
//! ```
//! use counterparty_sim::{CounterpartyChain, CounterpartyConfig, CpLightClient};
//! use ibc_core::LightClient;
//!
//! let mut chain = CounterpartyChain::new(CounterpartyConfig::default(), 7);
//! let mut client = CpLightClient::new(chain.validator_set());
//! chain.tick(6_000); // the first block check commits block 1
//! assert_eq!(chain.latest_commit().unwrap().height, 1);
//! // Relaying needs the commit's signatures: this read signs block 1.
//! let header = chain.latest_header().unwrap();
//! assert_eq!(client.update(&header.encode()).unwrap(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod commit;
mod header;
mod light_client;

pub use chain::{CounterpartyChain, CounterpartyConfig, KEEPALIVE_MS};
pub use commit::CpCommit;
pub use header::CpHeader;
pub use light_client::CpLightClient;
