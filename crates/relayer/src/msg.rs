//! The ICS-04 relay rule, in one place.
//!
//! Relaying one step of a packet's life means: read a value (or its
//! absence) at a well-known path on the chain the step happened on, prove
//! it under a header the other chain's light client trusts, and hand
//! packet and proof to the matching handler entry point there. All of
//! that — and what each rejection means — is the same for every pair of
//! IBC chains; only how the message *travels* differs: a direct handler
//! call toward a native chain, a chunked [`GuestOp`] toward the guest
//! (Alg. 2). [`RelayMsg`] is that rule, in two steps a caller may
//! interleave with its own client updates: [`RelayMsg::prove`] (the
//! caller supplies the proof source — `prove_at(height)` on the guest
//! link and in the mesh), then [`RelayMsg::submit`] or
//! [`RelayMsg::into_guest_op`].

use guest_chain::GuestOp;
use ibc_core::channel::{Acknowledgement, Packet};
use ibc_core::client::ConsensusState;
use ibc_core::handler::{HostTime, IbcHandler, ProofData};
use ibc_core::{path, IbcError, ProvableStore};
pub use sealable_trie::Proof; // so a transport need not depend on the trie crate
use sim_crypto::Hash;

use crate::records::JobKind;

/// One packet step observed on the *proving* chain, to be relayed to the
/// *receiving* chain.
#[derive(Clone, Debug)]
pub enum RelayMsg {
    /// The prover committed `packet`: deliver it to the receiver.
    Recv {
        /// The committed packet.
        packet: Packet,
    },
    /// The prover received `packet` and wrote `ack`: return it to the
    /// packet's sender.
    Ack {
        /// The acknowledged packet.
        packet: Packet,
        /// What the prover's application answered.
        ack: Acknowledgement,
    },
    /// `packet` expired unreceived on the prover: refund its sender.
    Timeout {
        /// The expired packet.
        packet: Packet,
    },
}

/// Why [`RelayMsg::prove`] produced no proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unproven {
    /// Not under this consensus state — the commitment is newer than the
    /// root, or the packet has not expired at it. A later header may do.
    NotYet,
    /// Under no consensus state: the source cannot prove the key, or a
    /// receipt exists where its absence was to be shown (delivered after
    /// all, e.g. by a competing relayer).
    Never,
}

/// What the receiving chain made of a submitted message — the one
/// classification of handler errors both relayers share.
#[derive(Debug)]
pub enum Submitted {
    /// The handler processed the message.
    Accepted,
    /// Already relayed (an earlier round, a competing relayer): benign.
    Duplicate,
    /// A receive arrived past the packet's expiry. The sender is owed a
    /// refund, provable from the chain that just refused the packet: the
    /// carried [`RelayMsg::Timeout`] belongs in the *reverse* direction.
    Expired(RelayMsg),
    /// Anything else; relayers count these.
    Rejected(IbcError),
}

impl RelayMsg {
    /// The packet the message is about.
    pub fn packet(&self) -> &Packet {
        match self {
            Self::Recv { packet } | Self::Ack { packet, .. } | Self::Timeout { packet } => packet,
        }
    }

    /// The job a guest-bound submission of this message is recorded as.
    /// Its declaration order — receives, acks, timeouts — is also the
    /// order both relayers submit one round's messages in.
    pub fn kind(&self) -> JobKind {
        match self {
            Self::Recv { .. } => JobKind::RecvPacket,
            Self::Ack { .. } => JobKind::AckPacket,
            Self::Timeout { .. } => JobKind::TimeoutPacket,
        }
    }

    /// The label of the chain the packet was sent from, which keys its
    /// telemetry trace: a receive proves the sender's own commitment,
    /// acks and timeouts travel back *to* the sender.
    pub fn origin<'a>(&self, prover: &'a str, receiver: &'a str) -> &'a str {
        match self {
            Self::Recv { .. } => prover,
            Self::Ack { .. } | Self::Timeout { .. } => receiver,
        }
    }

    /// What the message claims about the prover's store: the path, and
    /// the commitment it holds — `None` when it must be empty.
    pub fn claim(&self) -> (Vec<u8>, Option<Hash>) {
        let p = self.packet();
        match self {
            Self::Recv { .. } => (
                path::packet_commitment(&p.source_port, &p.source_channel, p.sequence),
                Some(p.commitment()),
            ),
            Self::Ack { ack, .. } => (
                path::packet_ack(&p.destination_port, &p.destination_channel, p.sequence),
                Some(ack.commitment()),
            ),
            Self::Timeout { .. } => (
                path::packet_receipt(&p.destination_port, &p.destination_channel, p.sequence),
                None,
            ),
        }
    }

    /// Checks a queued message against the *receiver's* clock. A receive
    /// whose packet has expired there would only be refused, so it turns
    /// into the timeout message that refunds the sender. Returns the
    /// message and whether it turned: if so it belongs in the *reverse*
    /// direction, since the receiver proves non-receipt.
    pub fn expire(self, height: u64, timestamp_ms: u64) -> (Self, bool) {
        match self {
            Self::Recv { packet } if packet.timeout.has_expired(height, timestamp_ms) => {
                (Self::Timeout { packet }, true)
            }
            live => (live, false),
        }
    }

    /// Step one: a proof of the message under the prover's consensus
    /// state at `height`. `source` answers "prove this key at `height`";
    /// its answer is verified against `consensus.root` before it is
    /// trusted, so a source that fell back to newer state is caught here
    /// rather than by the receiving chain.
    ///
    /// # Errors
    ///
    /// [`Unproven::NotYet`] when a later header may cover the message,
    /// [`Unproven::Never`] when none will.
    pub fn prove(
        &self,
        height: u64,
        consensus: &ConsensusState,
        source: impl FnOnce(&[u8]) -> Option<Proof>,
    ) -> Result<Proof, Unproven> {
        // The receiver checks a timeout's expiry against the consensus
        // state the absence is proven under, not against its own clock.
        if let Self::Timeout { packet } = self {
            if !packet.timeout.has_expired(height, consensus.timestamp_ms) {
                return Err(Unproven::NotYet);
            }
        }
        let (key, expected) = self.claim();
        let proof = source(&key).ok_or(Unproven::Never)?;
        match expected {
            Some(held) if proof.verify_member(&consensus.root, &key, held.as_bytes()) => Ok(proof),
            Some(_) => Err(Unproven::NotYet),
            None if proof.verify_non_member(&consensus.root, &key) => Ok(proof),
            None => Err(Unproven::Never),
        }
    }

    /// Step two, native transport: calls the receiver's handler entry
    /// point for this message and classifies the answer. `now` is the
    /// receiver's clock (only a receive consults it).
    pub fn submit<S: ProvableStore>(
        self,
        receiver: &mut IbcHandler<S>,
        proof_height: u64,
        proof: &Proof,
        now: HostTime,
    ) -> Submitted {
        let proof = ProofData { height: proof_height, bytes: ibc_core::store::encode_proof(proof) };
        let result = match &self {
            Self::Recv { packet } => receiver.recv_packet(packet, proof, now).map(|_| ()),
            Self::Ack { packet, ack } => receiver.acknowledge_packet(packet, ack, proof),
            Self::Timeout { packet } => receiver.timeout_packet(packet, proof),
        };
        match (result, self) {
            (Ok(()), _) => Submitted::Accepted,
            (Err(IbcError::DuplicatePacket), _) => Submitted::Duplicate,
            (Err(IbcError::Timeout(_)), Self::Recv { packet }) => {
                Submitted::Expired(Self::Timeout { packet })
            }
            (Err(err), _) => Submitted::Rejected(err),
        }
    }

    /// Step two, host-bound transport: the operation the guest contract
    /// executes for this message, to be chunked into host transactions
    /// ([`crate::chunking::plan_op`]).
    pub fn into_guest_op(self, proof_height: u64, proof: Proof) -> GuestOp {
        match self {
            Self::Recv { packet } => GuestOp::RecvPacket { packet, proof_height, proof },
            Self::Ack { packet, ack } => GuestOp::AckPacket { packet, ack, proof_height, proof },
            Self::Timeout { packet } => GuestOp::TimeoutPacket { packet, proof_height, proof },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibc_core::channel::Timeout;
    use ibc_core::client::MockChain;
    use ibc_core::handshake::{open_link, publish, LinkEnds};
    use ibc_core::router::EchoModule;
    use ibc_core::PortId;

    const A: usize = 0;
    const B: usize = 1;

    /// Two mock chains with one open echo channel. Every block moves the
    /// shared clock on 1 s.
    struct Pair {
        chains: [MockChain; 2],
        link: LinkEnds,
        clock: u64,
        port: PortId,
    }

    impl Pair {
        /// What `src` commits to now.
        fn consensus(&self, src: usize) -> ConsensusState {
            ConsensusState { root: self.chains[src].ibc.root(), timestamp_ms: self.clock }
        }

        /// Commits a block on `src` and relays its header to the other
        /// chain — one way only, since storing a header moves the storing
        /// chain's own root.
        fn sync(&mut self, src: usize) -> u64 {
            let [a, b] = &mut self.chains;
            let (from, to, client) =
                if src == A { (a, b, &self.link.b_client) } else { (b, a, &self.link.a_client) };
            publish(from, to, client, &mut self.clock).unwrap()
        }

        fn open() -> Self {
            let port = PortId::named("echo");
            let mut chains = [MockChain::new(), MockChain::new()];
            for chain in &mut chains {
                chain.ibc.bind_port(port.clone(), Box::new(EchoModule::default()));
            }
            let [a, b] = &mut chains;
            let mut clock = 0;
            let link = open_link(a, b, &[(port.clone(), "v")], &mut clock).unwrap();
            Self { chains, link, clock, port }
        }

        /// `A` sends a packet that expires `blocks` from now.
        fn send(&mut self, blocks: u64) -> Packet {
            let timeout = Timeout::at_time(self.clock + blocks * 1_000);
            let channel = &self.link.channels[0].0;
            self.chains[A].ibc.send_packet(&self.port, channel, b"ping".to_vec(), timeout).unwrap()
        }

        /// Step one against `src`'s live store at the current height.
        fn prove(&self, src: usize, msg: &RelayMsg) -> Result<Proof, Unproven> {
            let live = |key: &[u8]| self.chains[src].ibc.store().prove(key).ok();
            msg.prove(self.chains[src].height(), &self.consensus(src), live)
        }

        /// Relays `msg` from `src` to the other chain under a fresh header.
        fn relay(&mut self, src: usize, msg: RelayMsg) -> Submitted {
            let height = self.sync(src);
            let proof = self.prove(src, &msg).unwrap();
            let now = HostTime { height, timestamp_ms: self.clock };
            msg.submit(&mut self.chains[1 - src].ibc, height, &proof, now)
        }

        /// Whether `src`'s store holds exactly what `msg` claims.
        fn holds_claim(&self, src: usize, msg: &RelayMsg) -> bool {
            let (key, expected) = msg.claim();
            let stored = self.chains[src].ibc.store().get(&key).unwrap();
            stored == expected.map(|hash| hash.as_bytes().to_vec())
        }
    }

    #[test]
    fn each_kind_is_proven_where_the_handlers_wrote_it() {
        let mut p = Pair::open();
        let (packet, doomed) = (p.send(6), p.send(4));

        let recv = RelayMsg::Recv { packet: packet.clone() };
        assert!(p.holds_claim(A, &recv), "the commitment, on the sender");
        assert_eq!((recv.kind(), recv.origin("a", "b")), (JobKind::RecvPacket, "a"));
        assert!(matches!(p.relay(A, recv), Submitted::Accepted));

        // The echo module acknowledges with the payload.
        let ack = Acknowledgement::Success(packet.payload.clone());
        let ack = RelayMsg::Ack { packet: packet.clone(), ack };
        assert!(p.holds_claim(B, &ack), "the ack commitment, on the receiver");
        assert_eq!((ack.kind(), ack.origin("b", "a")), (JobKind::AckPacket, "a"));
        assert!(matches!(p.relay(B, ack), Submitted::Accepted));

        // Absence of the receipt, on the receiver — once it is past expiry.
        let timeout = RelayMsg::Timeout { packet: doomed };
        assert!(p.holds_claim(B, &timeout) && timeout.claim().1.is_none());
        assert_eq!((timeout.kind(), timeout.origin("b", "a")), (JobKind::TimeoutPacket, "a"));
        p.sync(B);
        assert_eq!(p.prove(B, &timeout).unwrap_err(), Unproven::NotYet, "not expired there yet");
        p.sync(B);
        assert!(matches!(p.relay(B, timeout), Submitted::Accepted));
        // … and never for a packet that *was* received, expired or not.
        p.sync(B);
        assert_eq!(p.prove(B, &RelayMsg::Timeout { packet }).unwrap_err(), Unproven::Never);
    }

    #[test]
    fn stale_roots_wait_and_silent_sources_fail() {
        let mut p = Pair::open();
        p.sync(A);
        let stale = p.consensus(A);
        let recv = RelayMsg::Recv { packet: p.send(9) };
        // The trusted root predates the commitment: a later header will do.
        let (height, live) =
            (p.chains[A].height(), |key: &[u8]| p.chains[A].ibc.store().prove(key).ok());
        assert_eq!(recv.prove(height, &stale, live).unwrap_err(), Unproven::NotYet);
        assert_eq!(recv.prove(height, &stale, |_| None).unwrap_err(), Unproven::Never);
        assert!(p.prove(A, &recv).is_ok(), "under the root that covers it");
    }

    #[test]
    fn rejections_are_classified_once() {
        let mut p = Pair::open();
        let (packet, doomed) = (p.send(99), p.send(2));
        let recv = || RelayMsg::Recv { packet: packet.clone() };

        // A proof of the wrong thing is an error …
        let height = p.sync(A);
        let wrong = p.chains[A].ibc.store().prove(b"some/other/key").unwrap();
        let now = HostTime { height, timestamp_ms: 0 };
        let bad = recv().submit(&mut p.chains[B].ibc, height, &wrong, now);
        assert!(matches!(bad, Submitted::Rejected(IbcError::InvalidProof(_))), "{bad:?}");

        // … every kind of duplicate is benign …
        assert!(matches!(p.relay(A, recv()), Submitted::Accepted));
        assert!(matches!(p.relay(A, recv()), Submitted::Duplicate));
        let ack = Acknowledgement::Success(packet.payload.clone());
        let acked = || RelayMsg::Ack { packet: packet.clone(), ack: ack.clone() };
        assert!(matches!(p.relay(B, acked()), Submitted::Accepted));
        assert!(matches!(p.relay(B, acked()), Submitted::Duplicate));

        // … and a receive past expiry turns into the refund it now owes,
        // exactly as an expiry scan on the receiver's clock would have.
        let expired = p.relay(A, RelayMsg::Recv { packet: doomed.clone() });
        let Submitted::Expired(timeout) = expired else { panic!("{expired:?}") };
        assert!(matches!(&timeout, RelayMsg::Timeout { packet } if *packet == doomed));
        assert!(matches!(p.relay(B, timeout), Submitted::Accepted));
        let (again, turned) = RelayMsg::Recv { packet: doomed }.expire(0, p.clock);
        assert!(turned && matches!(p.relay(B, again), Submitted::Duplicate));
        assert!(!recv().expire(0, p.clock).1, "live receives pass through");
    }
}
