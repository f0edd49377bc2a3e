//! Proof at a committed height against the live-store proof it replaced
//! in the mesh relayer. While a counterparty's live root still equals its
//! latest commit, `CounterpartyChain::prove_at(height, key)` and the live
//! `ibc().store().prove(key)` are one proof, byte for byte; once the
//! store moves on, the commit answers for what it committed and nothing
//! newer.

use counterparty_sim::{CounterpartyChain, CounterpartyConfig};
use ibc_core::channel::{Packet, Timeout};
use ibc_core::client::ConsensusState;
use ibc_core::handshake::open_link;
use ibc_core::router::EchoModule;
use ibc_core::types::ChannelId;
use ibc_core::{IbcError, PortId};
use relayer::{RelayMsg, Unproven};

/// A counterparty chain with one echo channel open to a peer, and the
/// shared clock after the handshake.
fn linked() -> (CounterpartyChain, PortId, ChannelId, u64) {
    let port = PortId::named("echo");
    let mut a = CounterpartyChain::new(CounterpartyConfig::default(), 1);
    let mut b = CounterpartyChain::new(CounterpartyConfig::default(), 2);
    for chain in [&mut a, &mut b] {
        chain.ibc_mut().bind_port(port.clone(), Box::new(EchoModule::default()));
    }
    let mut clock = 0;
    let link = open_link::<IbcError>(&mut a, &mut b, &[(port.clone(), "v")], &mut clock).unwrap();
    let channel = link.channels[0].0.clone();
    (a, port, channel, clock)
}

fn send(chain: &mut CounterpartyChain, port: &PortId, channel: &ChannelId) -> Packet {
    let timeout = Timeout::at_time(u64::MAX);
    chain.ibc_mut().send_packet(port, channel, b"ping".to_vec(), timeout).unwrap()
}

/// Produces a block at `now_ms`: its height and the consensus state a
/// peer's light client stores for it.
fn commit(chain: &mut CounterpartyChain, now_ms: u64) -> (u64, ConsensusState) {
    let commit = chain.produce_block(now_ms);
    (commit.height, ConsensusState { root: commit.app_hash, timestamp_ms: commit.timestamp_ms })
}

#[test]
fn prove_at_the_latest_commit_is_the_live_proof_while_the_root_is_unmoved() {
    let (mut a, port, channel, clock) = linked();
    let sent: Vec<Packet> = (0..3).map(|_| send(&mut a, &port, &channel)).collect();
    let (height, consensus) = commit(&mut a, clock + 1_000);
    assert_eq!(a.ibc().root(), consensus.root, "nothing written since the commit");

    for packet in sent {
        let recv = RelayMsg::Recv { packet };
        let (key, _) = recv.claim();
        let live = a.ibc().store().prove(&key).unwrap();
        assert_eq!(a.prove_at(height, &key).unwrap().to_bytes(), live.to_bytes());
        let committed = recv.prove(height, &consensus, |key| a.prove_at(height, key)).unwrap();
        assert_eq!(committed.to_bytes(), live.to_bytes(), "through RelayMsg::prove as well");
    }
    // An absence proves the same way.
    let live = a.ibc().store().prove(b"no/such/key").unwrap();
    assert_eq!(a.prove_at(height, b"no/such/key").unwrap().to_bytes(), live.to_bytes());
}

#[test]
fn a_send_after_the_commit_is_not_yet_provable_at_it() {
    let (mut a, port, channel, clock) = linked();
    let (height, consensus) = commit(&mut a, clock + 1_000);
    let late = RelayMsg::Recv { packet: send(&mut a, &port, &channel) };
    assert_ne!(a.ibc().root(), consensus.root, "the live store moved past the commit");

    let at_commit = late.prove(height, &consensus, |key| a.prove_at(height, key));
    assert_eq!(at_commit.unwrap_err(), Unproven::NotYet);

    // The block that commits the send proves it.
    let (height, consensus) = commit(&mut a, clock + 2_000);
    assert!(late.prove(height, &consensus, |key| a.prove_at(height, key)).is_ok());
}
