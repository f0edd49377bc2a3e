//! One IBC link between two mesh chains: its handshake, its relayer's
//! pending work, and its running tallies.
//!
//! Both ends of a mesh link are counterparty-style chains (native IBC, no
//! resource constraints), so the handshake uses direct handler calls with
//! real proofs on both sides. Packet relaying is the same
//! [`relayer::RelayMsg`] rule the guest link follows; here both
//! directions take its native transport.

use counterparty_sim::{CounterpartyChain, CpLightClient};
use ibc_core::handler::ProofData;
use ibc_core::types::{ChannelId, ClientId, IbcError, PortId};
use ibc_core::{path, Ordering, ProvableStore};
use relayer::{LinkFee, RelayMsg};

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
    /// The link relayer's wake-up interval.
    pub relay_interval_ms: u64,
    /// Next scheduled wake-up.
    pub(crate) next_relay_ms: u64,
    /// Fee units charged by this link's relayer so far.
    pub fees_charged: u64,
    /// Packets delivered (recv) over this link.
    pub deliveries: u64,
    /// Client updates submitted by this link's relayer.
    pub client_updates: u64,
    /// Steps seen on A: proven against A's store, delivered to B.
    pub(crate) from_a: Vec<RelayMsg>,
    /// Steps seen on B: proven against B's store, delivered to A.
    pub(crate) from_b: Vec<RelayMsg>,
}

impl Link {
    /// Messages queued in both directions.
    pub fn backlog(&self) -> usize {
        self.from_a.len() + self.from_b.len()
    }

    /// The queue of steps `node` proves.
    pub(crate) fn queue_of(&mut self, node: usize) -> &mut Vec<RelayMsg> {
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

/// What [`open_link`] established: one connection pair carrying a
/// channel per application port.
pub(crate) struct LinkEnds {
    pub a_channel: ChannelId,
    pub b_channel: ChannelId,
    pub a_nft_channel: ChannelId,
    pub b_nft_channel: ChannelId,
    pub a_ica_channel: ChannelId,
    pub b_ica_channel: ChannelId,
    pub a_client: ClientId,
    pub b_client: ClientId,
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

/// A proof of `key` from `chain`'s current store, attributed to its
/// latest committed height. Valid only while the store root still equals
/// that header's app hash — callers commit a block immediately before.
fn prove(chain: &CounterpartyChain, key: &[u8]) -> Result<ProofData, IbcError> {
    let bytes = ProvableStore::prove(chain.ibc().store(), key)?;
    Ok(ProofData { height: chain.height(), bytes })
}

/// Commits a block on `src` and feeds the header to `dst`'s `client` of
/// it, so `src`'s current store root becomes provable on `dst`.
fn publish(
    src: &mut CounterpartyChain,
    dst: &mut CounterpartyChain,
    client: &ClientId,
    clock_ms: &mut u64,
) -> Result<(), IbcError> {
    *clock_ms += 1_000;
    let header = src.produce_block(*clock_ms).clone();
    dst.ibc_mut().update_client(client, &header.encode())?;
    Ok(())
}

/// Runs the full client/connection/channel handshake between `a` and `b`,
/// advancing the shared clock as blocks are produced: one connection
/// pair, then one channel per [`link_ports`] entry over it. All app
/// ports must already be bound on both chains.
///
/// # Errors
///
/// Any handshake step failing aborts the link.
pub(crate) fn open_link(
    a: &mut CounterpartyChain,
    b: &mut CounterpartyChain,
    clock_ms: &mut u64,
) -> Result<LinkEnds, IbcError> {
    // Clients each way, trusting the peer's current validator set.
    let a_client = a.ibc_mut().create_client(Box::new(CpLightClient::new(b.validator_set())));
    let b_client = b.ibc_mut().create_client(Box::new(CpLightClient::new(a.validator_set())));

    // Connection: Init on A …
    let a_conn = a.ibc_mut().conn_open_init(a_client.clone(), b_client.clone())?;
    publish(a, b, &b_client, clock_ms)?;
    let proof_init = prove(a, &path::connection(&a_conn))?;
    // … Try on B (no self-consensus proof: these chains keep no
    // self-history, and the handler accepts that) …
    let b_conn = b.ibc_mut().conn_open_try(
        b_client.clone(),
        a_client.clone(),
        a_conn.clone(),
        proof_init,
        None,
    )?;
    publish(b, a, &a_client, clock_ms)?;
    let proof_try = prove(b, &path::connection(&b_conn))?;
    // … Ack on A, Confirm on B.
    a.ibc_mut().conn_open_ack(&a_conn, b_conn.clone(), proof_try, None)?;
    publish(a, b, &b_client, clock_ms)?;
    let proof_ack = prove(a, &path::connection(&a_conn))?;
    b.ibc_mut().conn_open_confirm(&b_conn, proof_ack)?;

    // Channel handshake per app port, same dance over the one connection.
    let mut channels = Vec::new();
    for (port, version) in link_ports() {
        let a_channel = a.ibc_mut().chan_open_init(
            port.clone(),
            a_conn.clone(),
            port.clone(),
            Ordering::Unordered,
            version,
        )?;
        publish(a, b, &b_client, clock_ms)?;
        let proof_init = prove(a, &path::channel(&port, &a_channel))?;
        let b_channel = b.ibc_mut().chan_open_try(
            port.clone(),
            b_conn.clone(),
            port.clone(),
            a_channel.clone(),
            Ordering::Unordered,
            version,
            proof_init,
        )?;
        publish(b, a, &a_client, clock_ms)?;
        let proof_try = prove(b, &path::channel(&port, &b_channel))?;
        a.ibc_mut().chan_open_ack(&port, &a_channel, b_channel.clone(), proof_try)?;
        publish(a, b, &b_client, clock_ms)?;
        let proof_ack = prove(a, &path::channel(&port, &a_channel))?;
        b.ibc_mut().chan_open_confirm(&port, &b_channel, proof_ack)?;
        channels.push((a_channel, b_channel));
    }
    let [(a_channel, b_channel), (a_nft_channel, b_nft_channel), (a_ica_channel, b_ica_channel)]: [(
        ChannelId,
        ChannelId,
    );
        3] = channels.try_into().expect("one channel pair per link port");

    Ok(LinkEnds {
        a_channel,
        b_channel,
        a_nft_channel,
        b_nft_channel,
        a_ica_channel,
        b_ica_channel,
        a_client,
        b_client,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::{ForwardMiddleware, IcaApp, ModuleStack, NftTransferApp, TransferApp};
    use counterparty_sim::CounterpartyConfig;

    fn chain(seed: u64) -> CounterpartyChain {
        let config = CounterpartyConfig {
            num_validators: 4,
            participation: 1.0,
            block_interval_ms: 1_000,
            rotation_interval_blocks: 0,
        };
        let mut chain = CounterpartyChain::new(config, seed);
        chain.ibc_mut().bind_port(
            PortId::transfer(),
            Box::new(
                ModuleStack::new(Box::new(TransferApp::new()))
                    .with(Box::new(ForwardMiddleware::new("fwd"))),
            ),
        );
        chain.ibc_mut().bind_port(
            PortId::named("nft"),
            Box::new(ModuleStack::new(Box::new(NftTransferApp::new()))),
        );
        chain
            .ibc_mut()
            .bind_port(PortId::named("ica"), Box::new(ModuleStack::new(Box::new(IcaApp::new()))));
        chain
    }

    #[test]
    fn handshake_opens_channels_on_both_ends() {
        let mut a = chain(1);
        let mut b = chain(2);
        let mut clock = 0;
        let ends = open_link(&mut a, &mut b, &mut clock).unwrap();
        let port = PortId::transfer();
        let chan_a = a.ibc_mut().channel(&port, &ends.a_channel).unwrap();
        let chan_b = b.ibc_mut().channel(&port, &ends.b_channel).unwrap();
        assert!(chan_a.is_open());
        assert!(chan_b.is_open());
        assert_eq!(chan_a.counterparty_channel_id.as_ref(), Some(&ends.b_channel));
        assert_eq!(chan_b.counterparty_channel_id.as_ref(), Some(&ends.a_channel));
        assert!(clock > 0, "handshake advances the shared clock");
    }

    #[test]
    fn second_link_on_a_chain_gets_fresh_ids() {
        let mut a = chain(1);
        let mut b = chain(2);
        let mut c = chain(3);
        let mut clock = 0;
        let ab = open_link(&mut a, &mut b, &mut clock).unwrap();
        let ac = open_link(&mut a, &mut c, &mut clock).unwrap();
        assert_ne!(ab.a_channel, ac.a_channel, "one channel per link on A");
        assert_ne!(ab.a_client, ac.a_client, "one client per peer on A");
    }
}
