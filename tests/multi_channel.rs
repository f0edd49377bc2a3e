//! IBC multiplexes independent packet streams over one connection (§III-A:
//! "Each stream, called a channel, is identified by a ⟨name, port⟩ pair").
//! Two transfer channels between the same two chains must keep independent
//! sequence numbers, escrows and voucher denominations.

use std::cell::RefCell;
use std::rc::Rc;

use be_my_guest::counterparty_sim::{CounterpartyChain, CounterpartyConfig};
use be_my_guest::guest_chain::{GuestConfig, GuestContract, SEND_FEE_LAMPORTS};
use be_my_guest::ibc_core::channel::Timeout;
use be_my_guest::ibc_core::handshake::{open_channel, prove, publish, ChainEnd, LinkEnds};
use be_my_guest::ibc_core::types::ChannelId;
use be_my_guest::ibc_core::Ordering;
use be_my_guest::relayer::{connect_chains, GuestEnd};
use be_my_guest::sim_crypto::schnorr::Keypair;

#[test]
fn two_channels_multiplex_independently() {
    let keypairs: Vec<Keypair> = (0..4).map(Keypair::from_seed).collect();
    let validators = keypairs.iter().map(|kp| (kp.public(), 100)).collect();
    let contract = Rc::new(RefCell::new(GuestContract::new(GuestConfig::fast(), validators, 0, 0)));
    let mut cp = CounterpartyChain::new(CounterpartyConfig::default(), 61);
    let mut clock = 0u64;
    let mut height = 0u64;
    let endpoints = connect_chains(&contract, &mut cp, &keypairs, &mut clock, &mut height).unwrap();

    // Open a SECOND channel over the live connection.
    let link = LinkEnds {
        a_client: endpoints.cp_client_on_guest.clone(),
        b_client: endpoints.guest_client_on_cp.clone(),
        a_connection: endpoints.guest_connection.clone(),
        b_connection: endpoints.cp_connection.clone(),
        channels: vec![(endpoints.guest_channel.clone(), endpoints.cp_channel.clone())],
    };
    let (guest_chan2, cp_chan2) = open_channel(
        &mut GuestEnd::new(&contract, &keypairs, &mut height),
        &mut cp,
        &link,
        &endpoints.port,
        Ordering::Unordered,
        "ics20-1",
        &mut clock,
    )
    .unwrap();
    assert_ne!(guest_chan2, endpoints.guest_channel);
    assert_eq!(guest_chan2, ChannelId::new(1));

    // Fund and send over BOTH channels.
    {
        let mut guard = contract.borrow_mut();
        let module = guard.ibc_mut().module_mut(&endpoints.port).unwrap();
        module.ics20_mut().unwrap().mint("alice", "wsol", 1_000);
    }
    let fee = SEND_FEE_LAMPORTS;
    let p1 = contract
        .borrow_mut()
        .send_transfer(
            &endpoints.port,
            &endpoints.guest_channel,
            "wsol",
            100,
            "alice",
            "bob",
            "",
            Timeout::NEVER,
            fee,
        )
        .unwrap();
    let p2 = contract
        .borrow_mut()
        .send_transfer(
            &endpoints.port,
            &guest_chan2,
            "wsol",
            200,
            "alice",
            "bob",
            "",
            Timeout::NEVER,
            fee,
        )
        .unwrap();

    // Sequences are tracked per channel: both start at 1.
    assert_eq!(p1.sequence, 1);
    assert_eq!(p2.sequence, 1);
    assert_eq!(p1.source_channel, endpoints.guest_channel);
    assert_eq!(p2.source_channel, guest_chan2);

    // Escrows are per channel.
    {
        let mut guard = contract.borrow_mut();
        let module = guard.ibc_mut().module_mut(&endpoints.port).unwrap().ics20_mut().unwrap();
        assert_eq!(module.balance(&format!("escrow:{}", endpoints.guest_channel), "wsol"), 100);
        assert_eq!(module.balance(&format!("escrow:{guest_chan2}"), "wsol"), 200);
    }

    // Deliver both; the vouchers carry per-channel denominations.
    let mut guest = GuestEnd::new(&contract, &keypairs, &mut height);
    let proven_at = publish(&mut guest, &mut cp, &link.b_client, &mut clock).unwrap();
    for packet in [&p1, &p2] {
        let key = be_my_guest::ibc_core::path::packet_commitment(
            &packet.source_port,
            &packet.source_channel,
            packet.sequence,
        );
        let proof = prove(guest.handler(), proven_at, &key).unwrap();
        let now = cp.host_time();
        cp.ibc_mut().recv_packet(packet, proof, now).unwrap();
    }
    let module = cp.ibc_mut().module_mut(&endpoints.port).unwrap().ics20_mut().unwrap();
    assert_eq!(module.balance("bob", &format!("transfer/{}/wsol", endpoints.cp_channel)), 100);
    assert_eq!(module.balance("bob", &format!("transfer/{cp_chan2}/wsol")), 200);
}
