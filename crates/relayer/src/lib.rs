//! The guest-blockchain relayer (paper Alg. 2, relayer role).
//!
//! Relayers poll events from and forward packets between the guest chain
//! and its counterparty. Since the guest blockchain exposes a standard IBC
//! interface, this is the same job a stock relayer does — except that the
//! guest direction rides a resource-limited host chain, so large messages
//! are chunked into many 1232-byte transactions ([`chunking`]) and paid for
//! under a configurable fee strategy ([`fees`], §VI-B; the mesh's flat
//! per-link schedules live there too).
//!
//! * [`bootstrap`] — one-time client/connection/channel establishment:
//!   the shared [`ibc_core::handshake`] with the guest as one end.
//! * [`msg`] — the ICS-04 relay rule ([`RelayMsg`]): proof key, expected
//!   value or absence, handler entry point, error classification. Shared
//!   with the mesh's link relayer; only the submission transport differs.
//! * [`Relayer`] — the per-tick event loop around it: scheduling, chunked
//!   host-bound submission, client updates.
//! * [`records`] — the measurements driving Figs. 4–5 and §V-A/§V-B.
//!
//! # Examples
//!
//! Planning the chunked transaction sequence of one light-client update:
//!
//! ```
//! use guest_chain::GuestOp;
//! use ibc_core::ClientId;
//! use relayer::chunking::{plan_op, transaction_count};
//!
//! let update = GuestOp::UpdateClient {
//!     client: ClientId::new(0),
//!     header: "h".repeat(9_000), // a ~105-signature commit
//!     num_signatures: 105,
//! };
//! // ≈ 10 chunk txs + 27 signature-verification txs + 1 execution.
//! assert!(transaction_count(&update, 105) > 30);
//! let plan = plan_op(&update, 1, 105);
//! assert_eq!(plan.len(), transaction_count(&update, 105));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod chunking;
pub mod fees;
pub mod msg;
pub mod records;
mod relayer;

pub use bootstrap::{connect_chains, finalise_guest_block, Endpoints, GuestEnd};
pub use fees::{FeeStrategy, LinkFee};
pub use msg::{RelayMsg, Submitted, Unproven};
pub use records::{JobKind, JobRecord};
pub use relayer::{ChunkFaults, Relayer, RelayerConfig, RESUBMIT_AFTER_SLOTS};
