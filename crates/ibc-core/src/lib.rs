//! A from-scratch implementation of the Inter-Blockchain Communication
//! (IBC) protocol core.
//!
//! IBC is a stateful, connection-oriented protocol for reliable and
//! authenticated communication between independent blockchains (§II of the
//! paper). This crate provides the chain-agnostic machinery; chains plug in
//! their provable store and light clients:
//!
//! * [`store::ProvableStore`] — key-value storage with (non-)membership
//!   proofs. The guest blockchain backs it with the sealable trie.
//! * [`client`] (ICS-02) — light clients validating counterparty headers.
//! * [`connection`] (ICS-03) — the four-step connection handshake, including
//!   the *self-client validation* step ([`handler::SelfHistory`]) whose
//!   absence keeps other ports incomplete.
//! * [`channel`] (ICS-04) — channels, packets, commitments,
//!   acknowledgements and timeouts.
//! * [`handshake`] — the ICS-03/04 opening dance over a [`handshake::ChainEnd`]
//!   seam, the one way any two ends here come to share a link.
//! * [`router`] / [`handler`] — module routing and the full packet life
//!   cycle (§II steps 1–6).
//! * [`ics20`] — the token-transfer application with escrow/voucher
//!   semantics.
//!
//! Two in-process chains complete a connection, open a channel and relay
//! packets end-to-end in the integration test `tests/two_chains.rs`.
//!
//! # Examples
//!
//! Committing and proving an outbound packet (what a source chain does):
//!
//! ```
//! use ibc_core::channel::{Packet, Timeout};
//! use ibc_core::types::{ChannelId, PortId};
//! use ibc_core::ProvableStore;
//! use sealable_trie::Trie;
//!
//! let packet = Packet {
//!     sequence: 1,
//!     source_port: PortId::transfer(),
//!     source_channel: ChannelId::new(0),
//!     destination_port: PortId::transfer(),
//!     destination_channel: ChannelId::new(5),
//!     payload: b"{\"amount\":10}".to_vec(),
//!     timeout: Timeout::at_height(1_000),
//! };
//! let mut store: Trie = Trie::new();
//! let key = ibc_core::path::packet_commitment(
//!     &packet.source_port, &packet.source_channel, packet.sequence,
//! );
//! store.set(&key, packet.commitment().as_bytes())?;
//! let proof = store.prove(&key)?;
//! assert!(proof.verify_member(&store.root_hash(), &key, packet.commitment().as_bytes()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod client;
pub mod connection;
pub mod events;
pub mod forward;
pub mod handler;
pub mod handshake;
pub mod ics20;
pub mod path;
pub mod router;
pub mod store;
pub mod types;

pub use channel::{Acknowledgement, ChannelEnd, ChannelState, Ordering, Packet, Timeout};
pub use client::{ConsensusState, LightClient};
pub use connection::{ConnectionEnd, ConnectionState};
pub use events::{IbcEvent, PacketStep};
pub use forward::{ForwardKind, ForwardMetadata, MemoEnvelope, RefundMetadata};
pub use handler::{
    HandlerConfig, HostTime, IbcHandler, ProofData, SelfConsensusProof, SelfHistory,
};
pub use router::Module;
pub use store::ProvableStore;
pub use types::{ChannelId, ClientId, ConnectionId, Height, IbcError, PortId, TimestampMs};
