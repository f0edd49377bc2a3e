//! The packet-forward memo vocabulary: routing and refund metadata for
//! multi-hop transfers.
//!
//! An incoming packet whose memo carries `{"forward": {...}}` is not
//! delivered to its nominal receiver: a forwarding layer credits the
//! assets to a chain-local *forward account* (stacking this chain's
//! voucher prefix or releasing escrow, exactly as a normal delivery
//! would) and queues an outgoing transfer for the next hop, carrying the
//! remaining hop list in its memo. Failure unwinds hop-by-hop,
//! *backwards*: dedicated refund transfers carry
//! `{"refund": {"channel", "sequence"}}` naming the leg they unwind on
//! the receiving chain.
//!
//! This module defines only that protocol vocabulary — the metadata
//! shapes, the [`ForwardKind`] correlation handles, and the asset view
//! ([`AssetUnit`], [`ForwardUnit`]) an application exposes through
//! [`ForwardHooks`]. The forwarding middleware itself lives in the `apps`
//! crate as one layer of the general stacked-middleware mechanism,
//! generalised over asset kinds (ICS-20 amounts and NFT classes route
//! identically).

use serde::{Deserialize, Serialize};

use crate::channel::Packet;
use crate::types::{ChannelId, IbcError};

/// One hop of routing metadata, carried in a transfer memo as
/// `{"forward": {...}}`; `next` nests the rest of the route.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForwardMetadata {
    /// Receiver on the next chain: the final receiver on the last hop, a
    /// forward account on intermediate ones.
    pub receiver: String,
    /// Port to forward over; defaults to the incoming packet's
    /// destination port when absent.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub port: Option<String>,
    /// Channel (on the forwarding chain) to send the next leg over.
    pub channel: String,
    /// Remaining hops after the next one.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub next: Option<Box<ForwardMetadata>>,
}

impl ForwardMetadata {
    /// A single-hop forward to `receiver` over `channel`.
    pub fn new(receiver: impl Into<String>, channel: &ChannelId) -> Self {
        Self { receiver: receiver.into(), port: None, channel: channel.to_string(), next: None }
    }

    /// Appends the rest of the route.
    #[must_use]
    pub fn with_next(mut self, next: ForwardMetadata) -> Self {
        self.next = Some(Box::new(next));
        self
    }

    /// Renders the metadata as a transfer memo string.
    pub fn to_memo(&self) -> String {
        serde_json::to_string(&MemoEnvelope { forward: Some(self.clone()), refund: None })
            .expect("memo serializes")
    }
}

/// Backward-refund correlation carried in a transfer memo as
/// `{"refund": {...}}`: names the failed outgoing leg — by its source
/// channel and sequence *on the receiving chain* — that this transfer
/// unwinds.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefundMetadata {
    /// Source channel of the leg being unwound, on the refund's receiver.
    pub channel: String,
    /// Sequence of the leg being unwound.
    pub sequence: u64,
}

impl RefundMetadata {
    /// Renders the metadata as a transfer memo string.
    pub fn to_memo(&self) -> String {
        serde_json::to_string(&MemoEnvelope { forward: None, refund: Some(self.clone()) })
            .expect("memo serializes")
    }
}

/// The recognised routing memo shapes. Memos that parse as neither (or
/// not as JSON at all) are opaque to forwarding layers and pass straight
/// through to the application.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct MemoEnvelope {
    /// Next-hop routing metadata, if present.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub forward: Option<ForwardMetadata>,
    /// Backward-refund correlation, if present.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub refund: Option<RefundMetadata>,
}

impl MemoEnvelope {
    /// Parses a memo leniently: anything unrecognised yields the empty
    /// envelope.
    pub fn parse(memo: &str) -> Self {
        serde_json::from_str(memo).unwrap_or_default()
    }
}

/// Why an outgoing transfer was queued — correlation handles for route
/// tracking by the harness. Channels are always identified on the chain
/// that *sent* the named leg.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForwardKind {
    /// Next hop of an incoming leg, identified by that leg's source
    /// channel (on the previous chain) and sequence.
    Forward {
        /// Source channel of the incoming leg, on the previous chain.
        incoming_channel: ChannelId,
        /// Sequence of the incoming leg.
        incoming_sequence: u64,
    },
    /// Backward refund unwinding a failed outgoing leg of *this* chain.
    Refund {
        /// Source channel of the failed leg, on this chain.
        failed_channel: ChannelId,
        /// Sequence of the failed leg.
        failed_sequence: u64,
    },
}

/// One transferable asset, as a forwarding layer sees it: the fungible
/// (ICS-20) and non-fungible (ICS-721-style) cases it treats uniformly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AssetUnit {
    /// An ICS-20 amount of one denomination.
    Fungible {
        /// Denomination, possibly voucher-prefixed.
        denom: String,
        /// Amount transferred.
        amount: u128,
    },
    /// A set of tokens of one NFT class.
    NonFungible {
        /// Class id, possibly voucher-prefixed.
        class: String,
        /// Token ids moved together.
        tokens: Vec<String>,
    },
}

impl AssetUnit {
    /// The denomination or class id.
    pub fn id(&self) -> &str {
        match self {
            Self::Fungible { denom, .. } => denom,
            Self::NonFungible { class, .. } => class,
        }
    }
}

/// A packet decoded into the vocabulary a forwarding layer understands:
/// who sent what to whom, and the memo carrying routing metadata.
#[derive(Clone, Debug)]
pub struct ForwardUnit {
    /// What moved.
    pub asset: AssetUnit,
    /// Sender on the source chain.
    pub sender: String,
    /// Nominal receiver on this chain.
    pub receiver: String,
    /// The packet memo.
    pub memo: String,
}

/// How a module's packets look to a value-routing layer. Implemented by
/// the modules whose packets move custodiable assets (the ICS-20 ledger
/// and the NFT transfer app) and reached through
/// [`crate::router::Module::forward_hooks_mut`], so one forward
/// middleware routes both.
pub trait ForwardHooks {
    /// Decodes a packet into a routable unit, or [`None`] when the
    /// payload is not this module's.
    fn decode_unit(&self, packet: &Packet) -> Option<ForwardUnit>;

    /// Delivers `packet`'s asset crediting `account` (a forward
    /// account), applying the normal escrow-release/voucher-mint rules;
    /// returns the asset as named locally.
    ///
    /// # Errors
    ///
    /// [`IbcError::AppError`] when escrow cannot cover the asset.
    fn credit_custody(
        &mut self,
        packet: &Packet,
        asset: &AssetUnit,
        account: &str,
    ) -> Result<AssetUnit, IbcError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_roundtrip() {
        let meta = ForwardMetadata::new("carol", &ChannelId::new(3))
            .with_next(ForwardMetadata::new("dave", &ChannelId::new(9)));
        let parsed = MemoEnvelope::parse(&meta.to_memo());
        assert_eq!(parsed.forward, Some(meta));
        let refund = RefundMetadata { channel: "channel-2".into(), sequence: 7 };
        let parsed = MemoEnvelope::parse(&refund.to_memo());
        assert_eq!(parsed.refund, Some(refund));
        // Opaque memos parse to the empty envelope.
        let opaque = MemoEnvelope::parse("invoice 42");
        assert!(opaque.forward.is_none() && opaque.refund.is_none());
    }
}
