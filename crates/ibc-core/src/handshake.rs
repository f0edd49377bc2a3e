//! The ICS-03/04 opening handshake, written once.
//!
//! Opening a link is the same dance between any two IBC chains: a light
//! client each way, then Init → Try → Ack → Confirm for the connection and
//! again for every channel, each step proven under a header the other
//! side has just accepted. What differs per chain is how it commits a
//! block and how it takes in a peer's header — [`ChainEnd`] is exactly
//! that difference, and everything else ([`publish`], [`prove`],
//! [`open_connection`], [`open_channel`], [`open_link`]) is shared by the
//! guest link, mesh links, tests and benches.
//!
//! Every step advances the shared clock by [`STEP_MS`], and every proof
//! carries the height the proving end's [`ChainEnd::commit`] returned.

use sealable_trie::Trie;

use crate::channel::Ordering;
use crate::client::LightClient;
use crate::handler::{IbcHandler, ProofData};
use crate::types::{ChannelId, ClientId, ConnectionId, Height, IbcError, PortId, TimestampMs};
use crate::{path, ProvableStore};

/// Simulated time one handshake step (commit + header relay) takes.
pub const STEP_MS: TimestampMs = 1_000;

/// One end of a link, as far as opening it is concerned. `E` is the error
/// type the link reports in; both ends of one handshake agree on it.
pub trait ChainEnd<E: From<IbcError>> {
    /// The end's IBC handler.
    fn handler(&mut self) -> &mut IbcHandler<Trie>;

    /// A light client for a peer to follow this chain with, trusting its
    /// current state.
    fn light_client(&self) -> Box<dyn LightClient>;

    /// Commits the current store root in a block at `now_ms`. Returns the
    /// block's height and its encoded header.
    ///
    /// # Errors
    ///
    /// Whatever keeps the chain from producing a block.
    fn commit(&mut self, now_ms: TimestampMs) -> Result<(Height, Vec<u8>), E>;

    /// Feeds a peer's encoded `header` to this end's `client` of it.
    ///
    /// # Errors
    ///
    /// The client's verification error, or the end's own admission rules.
    fn accept(&mut self, client: &ClientId, header: &[u8], now_ms: TimestampMs) -> Result<(), E>;
}

/// What a handshake established: the client and connection on each end,
/// and the channel pairs opened over them so far (`(on A, on B)`, in
/// opening order).
#[derive(Clone, Debug)]
pub struct LinkEnds {
    /// Client on A tracking B.
    pub a_client: ClientId,
    /// Client on B tracking A.
    pub b_client: ClientId,
    /// Connection end on A.
    pub a_connection: ConnectionId,
    /// Connection end on B.
    pub b_connection: ConnectionId,
    /// One `(A, B)` channel pair per opened port.
    pub channels: Vec<(ChannelId, ChannelId)>,
}

/// One step: commits a block on `src` one [`STEP_MS`] later and feeds its
/// header to `dst`'s `client` of `src`, so `src`'s current store root is
/// provable on `dst` at the returned height.
///
/// # Errors
///
/// Either end refusing its half of the step.
pub fn publish<E: From<IbcError>>(
    src: &mut impl ChainEnd<E>,
    dst: &mut impl ChainEnd<E>,
    client: &ClientId,
    clock_ms: &mut TimestampMs,
) -> Result<Height, E> {
    *clock_ms += STEP_MS;
    let (height, header) = src.commit(*clock_ms)?;
    dst.accept(client, &header, *clock_ms)?;
    Ok(height)
}

/// A proof of `key` from `handler`'s store, attributed to `height` —
/// which must be the height its chain last committed at, with the store
/// untouched since.
///
/// # Errors
///
/// The store cannot prove the key.
pub fn prove(
    handler: &IbcHandler<Trie>,
    height: Height,
    key: &[u8],
) -> Result<ProofData, IbcError> {
    let bytes = ProvableStore::prove(handler.store(), key)?;
    Ok(ProofData { height, bytes })
}

/// [`publish`], then [`prove`] `key` at the height just committed.
fn publish_proof<E: From<IbcError>>(
    src: &mut impl ChainEnd<E>,
    dst: &mut impl ChainEnd<E>,
    client: &ClientId,
    clock_ms: &mut TimestampMs,
    key: &[u8],
) -> Result<ProofData, E> {
    let height = publish(src, dst, client, clock_ms)?;
    Ok(prove(src.handler(), height, key)?)
}

/// Creates a client each way and runs the ICS-03 connection handshake,
/// Init on `a`. No self-consensus proofs are exchanged: the handler
/// accepts their absence, and no end here keeps a provable self-history.
///
/// # Errors
///
/// Any step failing aborts the handshake where it stands.
pub fn open_connection<E: From<IbcError>>(
    a: &mut impl ChainEnd<E>,
    b: &mut impl ChainEnd<E>,
    clock_ms: &mut TimestampMs,
) -> Result<LinkEnds, E> {
    let (of_a, of_b) = (a.light_client(), b.light_client());
    let a_client = a.handler().create_client(of_b);
    let b_client = b.handler().create_client(of_a);

    let a_connection = a.handler().conn_open_init(a_client.clone(), b_client.clone())?;
    let init = publish_proof(a, b, &b_client, clock_ms, &path::connection(&a_connection))?;
    let b_connection = b.handler().conn_open_try(
        b_client.clone(),
        a_client.clone(),
        a_connection.clone(),
        init,
        None,
    )?;
    let tried = publish_proof(b, a, &a_client, clock_ms, &path::connection(&b_connection))?;
    a.handler().conn_open_ack(&a_connection, b_connection.clone(), tried, None)?;
    let acked = publish_proof(a, b, &b_client, clock_ms, &path::connection(&a_connection))?;
    b.handler().conn_open_confirm(&b_connection, acked)?;

    Ok(LinkEnds { a_client, b_client, a_connection, b_connection, channels: Vec::new() })
}

/// Runs the ICS-04 channel handshake over `link`'s open connection, Init
/// on `a`, with `port` bound on both ends. Returns the `(A, B)` channel
/// pair.
///
/// # Errors
///
/// Any step failing aborts the handshake where it stands — an unbound
/// port on `b` leaves `a`'s end in Init.
pub fn open_channel<E: From<IbcError>>(
    a: &mut impl ChainEnd<E>,
    b: &mut impl ChainEnd<E>,
    link: &LinkEnds,
    port: &PortId,
    ordering: Ordering,
    version: &str,
    clock_ms: &mut TimestampMs,
) -> Result<(ChannelId, ChannelId), E> {
    let a_channel = a.handler().chan_open_init(
        port.clone(),
        link.a_connection.clone(),
        port.clone(),
        ordering,
        version,
    )?;
    let init = publish_proof(a, b, &link.b_client, clock_ms, &path::channel(port, &a_channel))?;
    let b_channel = b.handler().chan_open_try(
        port.clone(),
        link.b_connection.clone(),
        port.clone(),
        a_channel.clone(),
        ordering,
        version,
        init,
    )?;
    let tried = publish_proof(b, a, &link.a_client, clock_ms, &path::channel(port, &b_channel))?;
    a.handler().chan_open_ack(port, &a_channel, b_channel.clone(), tried)?;
    let acked = publish_proof(a, b, &link.b_client, clock_ms, &path::channel(port, &a_channel))?;
    b.handler().chan_open_confirm(port, &b_channel, acked)?;
    Ok((a_channel, b_channel))
}

/// The whole dance: [`open_connection`], then one unordered channel per
/// `(port, version)` over it, in order. Every port must already be bound
/// on both ends.
///
/// # Errors
///
/// Any handshake step failing aborts the link.
pub fn open_link<E: From<IbcError>>(
    a: &mut impl ChainEnd<E>,
    b: &mut impl ChainEnd<E>,
    ports: &[(PortId, &str)],
    clock_ms: &mut TimestampMs,
) -> Result<LinkEnds, E> {
    let mut link = open_connection(a, b, clock_ms)?;
    for (port, version) in ports {
        let pair = open_channel(a, b, &link, port, Ordering::Unordered, version, clock_ms)?;
        link.channels.push(pair);
    }
    Ok(link)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::MockChain;
    use crate::router::EchoModule;
    use crate::ChannelState;

    fn chain(ports: &[&PortId]) -> MockChain {
        let mut chain = MockChain::new();
        for port in ports {
            chain.ibc.bind_port((*port).clone(), Box::new(EchoModule::default()));
        }
        chain
    }

    #[test]
    fn link_opens_a_channel_per_port_on_both_ends() {
        let (echo, other) = (PortId::named("echo"), PortId::named("other"));
        let (mut a, mut b) = (chain(&[&echo, &other]), chain(&[&echo, &other]));
        let mut clock = 0;
        let ports = [(echo.clone(), "v1"), (other.clone(), "v2")];
        let link = open_link(&mut a, &mut b, &ports, &mut clock).unwrap();

        assert!(a.ibc.connection(&link.a_connection).unwrap().is_open());
        assert!(b.ibc.connection(&link.b_connection).unwrap().is_open());
        assert_eq!(link.channels.len(), 2);
        for ((port, version), (on_a, on_b)) in ports.iter().zip(&link.channels) {
            let (end_a, end_b) =
                (a.ibc.channel(port, on_a).unwrap(), b.ibc.channel(port, on_b).unwrap());
            assert!(end_a.is_open() && end_b.is_open());
            assert_eq!(end_a.counterparty_channel_id.as_ref(), Some(on_b));
            assert_eq!(end_b.counterparty_channel_id.as_ref(), Some(on_a));
            assert_eq!(end_b.version, *version);
        }
        // Three steps for the connection, three per channel.
        assert_eq!(clock, 9 * STEP_MS);
    }

    #[test]
    fn a_second_link_on_a_chain_gets_fresh_ids() {
        let port = PortId::named("echo");
        let (mut a, mut b, mut c) = (chain(&[&port]), chain(&[&port]), chain(&[&port]));
        let mut clock = 0;
        let ports = [(port, "v1")];
        let ab = open_link(&mut a, &mut b, &ports, &mut clock).unwrap();
        let ac = open_link(&mut a, &mut c, &ports, &mut clock).unwrap();
        assert_ne!(ab.a_client, ac.a_client, "one client per peer on A");
        assert_ne!(ab.a_connection, ac.a_connection);
        assert_ne!(ab.channels[0].0, ac.channels[0].0, "one channel per link on A");
    }

    #[test]
    fn an_unbound_port_on_b_is_an_error_that_leaves_a_in_init() {
        let port = PortId::named("echo");
        let (mut a, mut b) = (chain(&[&port]), chain(&[]));
        let mut clock = 0;
        let link = open_connection(&mut a, &mut b, &mut clock).unwrap();
        let err = open_channel(&mut a, &mut b, &link, &port, Ordering::Unordered, "v1", &mut clock)
            .unwrap_err();
        assert_eq!(err, IbcError::UnboundPort(port.clone()));
        let stranded = a.ibc.channel(&port, &ChannelId::new(0)).unwrap();
        assert_eq!(stranded.state, ChannelState::Init);
        assert!(matches!(
            b.ibc.channel(&port, &ChannelId::new(0)),
            Err(IbcError::UnknownChannel(..))
        ));
    }
}
