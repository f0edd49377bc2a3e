//! Events emitted by the IBC handler for off-chain observation.

use serde::{Deserialize, Serialize};

use crate::channel::{Acknowledgement, Packet};
use crate::types::{ChannelId, ClientId, ConnectionId, Height, PortId};

/// An IBC-level event. Relayers drive the protocol by watching these.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum IbcEvent {
    /// A light client was created.
    ClientCreated {
        /// The new client's id.
        client_id: ClientId,
    },
    /// A light client advanced to a new verified height.
    ClientUpdated {
        /// The updated client.
        client_id: ClientId,
        /// The newly verified height.
        height: Height,
    },
    /// A client was frozen after proven misbehaviour.
    ClientFrozen {
        /// The frozen client.
        client_id: ClientId,
    },
    /// Connection handshake progressed.
    ConnectionStateChanged {
        /// The connection.
        connection_id: ConnectionId,
        /// New state name (`Init`/`TryOpen`/`Open`).
        state: String,
    },
    /// Channel handshake progressed.
    ChannelStateChanged {
        /// The port.
        port_id: PortId,
        /// The channel.
        channel_id: ChannelId,
        /// New state name.
        state: String,
    },
    /// A packet was committed for sending (§II step 1).
    SendPacket {
        /// The packet.
        packet: Packet,
    },
    /// A packet was received and processed (§II step 4).
    RecvPacket {
        /// The packet.
        packet: Packet,
    },
    /// The destination wrote an acknowledgement (§II step 5).
    WriteAcknowledgement {
        /// The packet.
        packet: Packet,
        /// The acknowledgement.
        ack: Acknowledgement,
    },
    /// The source processed the acknowledgement (§II step 6).
    AcknowledgePacket {
        /// The packet.
        packet: Packet,
    },
    /// The source timed a packet out.
    TimeoutPacket {
        /// The packet.
        packet: Packet,
    },
}

/// One step of a packet's life as chain observers journal it: the single
/// `IbcEvent → lifecycle` table the guest program, the counterparty chain
/// and the mesh all record through (each adds its own chain label,
/// counter prefix and trailing fields).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketStep<'a> {
    /// Journal event name (`packet.send`, `packet.recv`, …).
    pub name: &'static str,
    /// The packet.
    pub packet: &'a Packet,
    /// Whether the chain that emitted the event is the one that sent the
    /// packet (send, ack, timeout) or its peer is (recv, ack written).
    /// The *sender's* label keys the packet's trace.
    pub sent_here: bool,
    /// The per-chain counter the step bumps, as a suffix to the chain's
    /// prefix (`packets.sent`, …); `None` for steps nobody tallies.
    pub counter: Option<&'static str>,
}

impl<'a> PacketStep<'a> {
    /// The identity fields every observer's journal entry for the step
    /// leads with, `chain` being the observer's own label. Generic over
    /// the journal's value type, which this crate does not know.
    pub fn fields<V: From<&'a str> + From<u64>>(&self, chain: &'a str) -> Vec<(&'static str, V)> {
        let packet = self.packet;
        let mut fields = Vec::with_capacity(6); // room for one trailing field
        fields.extend([
            ("chain", chain.into()),
            ("src_port", packet.source_port.as_str().into()),
            ("src_channel", packet.source_channel.as_str().into()),
            ("dst_channel", packet.destination_channel.as_str().into()),
            ("sequence", packet.sequence.into()),
        ]);
        fields
    }
}

impl IbcEvent {
    /// The packet-lifecycle step this event marks, if it is a packet event.
    pub fn packet_step(&self) -> Option<PacketStep<'_>> {
        let (name, packet, sent_here, counter) = match self {
            Self::SendPacket { packet } => ("packet.send", packet, true, Some("packets.sent")),
            Self::RecvPacket { packet } => ("packet.recv", packet, false, None),
            // An app-level rejection is a distinct delivery outcome —
            // tallied so `generated - delivered` gaps stay explained.
            Self::WriteAcknowledgement { packet, ack } => {
                ("packet.ack_written", packet, false, (!ack.is_success()).then_some("acks.error"))
            }
            Self::AcknowledgePacket { packet } => {
                ("packet.ack", packet, true, Some("packets.acked"))
            }
            Self::TimeoutPacket { packet } => {
                ("packet.timeout", packet, true, Some("packets.timed_out"))
            }
            _ => return None,
        };
        Some(PacketStep { name, packet, sent_here, counter })
    }
}
