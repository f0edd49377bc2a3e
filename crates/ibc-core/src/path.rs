//! ICS-24 host storage paths.
//!
//! Every IBC datum lives at a well-known path in the chain's provable
//! store, so a counterparty can verify it with a membership proof against
//! the chain's commitment root. Sequence numbers are encoded **fixed-width**
//! so packet keys are dense and monotone — the property the sealable trie
//! exploits to reclaim whole 16-blocks of delivered packets (§III-A).

use crate::types::{ChannelId, ClientId, ConnectionId, PortId};

/// Path of a client's consensus state at `height` (fixed-width).
pub fn consensus_state(client_id: &ClientId, height: u64) -> Vec<u8> {
    format!("clients/{client_id}/consensusStates/{height:020}").into_bytes()
}

/// Path of a connection end.
pub fn connection(connection_id: &ConnectionId) -> Vec<u8> {
    format!("connections/{connection_id}").into_bytes()
}

/// Path of a channel end.
pub fn channel(port_id: &PortId, channel_id: &ChannelId) -> Vec<u8> {
    format!("channelEnds/ports/{port_id}/channels/{channel_id}").into_bytes()
}

/// Path of the next send sequence for a channel.
pub fn next_sequence_send(port_id: &PortId, channel_id: &ChannelId) -> Vec<u8> {
    format!("nextSequenceSend/ports/{port_id}/channels/{channel_id}").into_bytes()
}

/// Path of the next receive sequence for an ordered channel.
pub fn next_sequence_recv(port_id: &PortId, channel_id: &ChannelId) -> Vec<u8> {
    format!("nextSequenceRecv/ports/{port_id}/channels/{channel_id}").into_bytes()
}

/// Path of an outgoing packet commitment.
pub fn packet_commitment(port_id: &PortId, channel_id: &ChannelId, sequence: u64) -> Vec<u8> {
    format!("commitments/ports/{port_id}/channels/{channel_id}/sequences/{sequence:020}")
        .into_bytes()
}

/// Path of a packet receipt (proves delivery; sealed after writing).
pub fn packet_receipt(port_id: &PortId, channel_id: &ChannelId, sequence: u64) -> Vec<u8> {
    format!("receipts/ports/{port_id}/channels/{channel_id}/sequences/{sequence:020}").into_bytes()
}

/// Path of a packet acknowledgement commitment.
pub fn packet_ack(port_id: &PortId, channel_id: &ChannelId, sequence: u64) -> Vec<u8> {
    format!("acks/ports/{port_id}/channels/{channel_id}/sequences/{sequence:020}").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_fixed_width() {
        let p1 = packet_commitment(&PortId::transfer(), &ChannelId::new(0), 15);
        let p2 = packet_commitment(&PortId::transfer(), &ChannelId::new(0), 150);
        assert_eq!(p1.len(), p2.len(), "dense monotone keys for sealing");
        assert!(String::from_utf8(p1).unwrap().ends_with("00000000000000000015"));
    }

    #[test]
    fn paths_are_distinct_across_kinds() {
        let port = PortId::transfer();
        let chan = ChannelId::new(1);
        let all = [
            packet_commitment(&port, &chan, 1),
            packet_receipt(&port, &chan, 1),
            packet_ack(&port, &chan, 1),
            channel(&port, &chan),
            next_sequence_send(&port, &chan),
            next_sequence_recv(&port, &chan),
        ];
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b);
                }
            }
        }
    }

    #[test]
    fn consensus_state_height_fixed_width() {
        let a = consensus_state(&ClientId::new(0), 9);
        let b = consensus_state(&ClientId::new(0), 999_999);
        assert_eq!(a.len(), b.len());
    }
}
