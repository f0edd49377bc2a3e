//! One IBC link between two mesh chains: its handshake products, its
//! relayer's pending work, and its running tallies.
//!
//! A link is opened by the shared [`ibc_core::handshake`], the same one
//! the guest link uses. Packet relaying is the same [`relayer::RelayMsg`]
//! rule the guest link follows; both ends of a mesh link are
//! counterparty-style chains (native IBC, no resource constraints), so
//! both directions take its native transport.

use ibc_core::types::{ChannelId, ClientId, PortId};
use relayer::{LinkFee, RelayMsg};

/// A queued step and the first height of its source chain whose
/// committed state can prove it: the block that committed its event.
/// A timeout starts at 0 — it proves an absence, and `RelayMsg::prove`
/// itself says whether a header is past the expiry.
pub(crate) type Queued = (RelayMsg, u64);

/// A live link: handshake products, the embedded relayer's schedule and
/// queues, and fee/delivery tallies.
#[derive(Debug)]
pub struct Link {
    /// `"{a}<>{b}"` — the identity chaos plans and reports use.
    pub label: String,
    /// Node index of endpoint A.
    pub a: usize,
    /// Node index of endpoint B.
    pub b: usize,
    /// Transfer channel on A.
    pub a_channel: ChannelId,
    /// Transfer channel on B.
    pub b_channel: ChannelId,
    /// NFT channel on A.
    pub a_nft_channel: ChannelId,
    /// NFT channel on B.
    pub b_nft_channel: ChannelId,
    /// Interchain-accounts channel on A.
    pub a_ica_channel: ChannelId,
    /// Interchain-accounts channel on B.
    pub b_ica_channel: ChannelId,
    /// Client on A tracking B.
    pub a_client: ClientId,
    /// Client on B tracking A.
    pub b_client: ClientId,
    /// Relay fee schedule.
    pub fee: LinkFee,
    /// Next scheduled wake-up.
    pub(crate) next_relay_ms: u64,
    /// Fee units charged by this link's relayer so far.
    pub fees_charged: u64,
    /// Packets delivered (recv) over this link.
    pub deliveries: u64,
    /// Client updates submitted by this link's relayer.
    pub client_updates: u64,
    /// Steps seen on A: proven at A's latest commit once it holds them,
    /// delivered to B.
    pub(crate) from_a: Vec<Queued>,
    /// Steps seen on B: proven at B's latest commit once it holds them,
    /// delivered to A.
    pub(crate) from_b: Vec<Queued>,
}

impl Link {
    /// Messages queued in both directions.
    pub fn backlog(&self) -> usize {
        self.from_a.len() + self.from_b.len()
    }

    /// The queue of steps `node` proves.
    pub(crate) fn queue_of(&mut self, node: usize) -> &mut Vec<Queued> {
        if node == self.a {
            &mut self.from_a
        } else {
            &mut self.from_b
        }
    }

    /// The remote endpoint of `node` on this link.
    pub fn peer_of(&self, node: usize) -> usize {
        if node == self.a {
            self.b
        } else {
            self.a
        }
    }

    /// The local transfer channel of `node` on this link.
    pub fn channel_of(&self, node: usize) -> &ChannelId {
        if node == self.a {
            &self.a_channel
        } else {
            &self.b_channel
        }
    }

    /// The local NFT channel of `node` on this link.
    pub fn nft_channel_of(&self, node: usize) -> &ChannelId {
        if node == self.a {
            &self.a_nft_channel
        } else {
            &self.b_nft_channel
        }
    }

    /// The local interchain-accounts channel of `node` on this link.
    pub fn ica_channel_of(&self, node: usize) -> &ChannelId {
        if node == self.a {
            &self.a_ica_channel
        } else {
            &self.b_ica_channel
        }
    }
}

/// The application ports every mesh link carries, with their channel
/// versions: ICS-20 transfer, ICS-721-style NFT transfer, and
/// ICS-27-style interchain accounts.
pub(crate) fn link_ports() -> [(PortId, &'static str); 3] {
    [
        (PortId::transfer(), "ics20-1"),
        (PortId::named("nft"), "ics721-1"),
        (PortId::named("ica"), "ica-1"),
    ]
}
