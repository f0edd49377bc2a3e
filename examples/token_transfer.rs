//! A hand-driven ICS-20 token round trip through the library API — no
//! simulation harness, every protocol step explicit.
//!
//! Shows exactly what happens between Alg. 1's procedures: the guest
//! contract commits a packet, validators finalise the block, the
//! counterparty verifies the state proof, and the acknowledgement travels
//! back.
//!
//! ```text
//! cargo run --release --example token_transfer
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use be_my_guest::counterparty_sim::{CounterpartyChain, CounterpartyConfig};
use be_my_guest::guest_chain::{GuestConfig, GuestContract, SEND_FEE_LAMPORTS};
use be_my_guest::ibc_core::channel::Timeout;
use be_my_guest::ibc_core::handler::ProofData;
use be_my_guest::ibc_core::ProvableStore;
use be_my_guest::relayer::{connect_chains, finalise_guest_block};
use be_my_guest::sim_crypto::schnorr::Keypair;

fn balance(
    chain_module: &mut dyn be_my_guest::ibc_core::Module,
    account: &str,
    denom: &str,
) -> u128 {
    chain_module.ics20_mut().expect("ICS-20 ledger behind the stack").balance(account, denom)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Deployment -----------------------------------------------------
    let keypairs: Vec<Keypair> = (0..4).map(Keypair::from_seed).collect();
    let validators = keypairs.iter().map(|kp| (kp.public(), 100)).collect();
    let contract = Rc::new(RefCell::new(GuestContract::new(GuestConfig::fast(), validators, 0, 0)));
    let mut cp = CounterpartyChain::new(CounterpartyConfig::default(), 7);

    // Clients, connection and transfer channel (the one-time handshake).
    let mut clock = 0u64;
    let mut host_height = 0u64;
    let endpoints = connect_chains(&contract, &mut cp, &keypairs, &mut clock, &mut host_height)?;
    println!("handshake complete: {} ↔ {}", endpoints.guest_channel, endpoints.cp_channel);

    // Give alice 1000 wSOL on the guest ledger.
    {
        let mut guard = contract.borrow_mut();
        let module = guard.ibc_mut().module_mut(&endpoints.port).unwrap();
        module.ics20_mut().unwrap().mint("alice", "wsol", 1_000);
    }

    // --- Alice sends 400 wSOL to bob on the counterparty ----------------
    clock += 1_000;
    host_height += 2;
    let fee = SEND_FEE_LAMPORTS;
    let packet = contract.borrow_mut().send_transfer(
        &endpoints.port,
        &endpoints.guest_channel,
        "wsol",
        400,
        "alice",
        "bob",
        "invoice-0042",
        Timeout::at_time(clock + 3_600_000),
        fee,
    )?;
    println!("\nSendPacket committed: sequence {}", packet.sequence);
    {
        let mut guard = contract.borrow_mut();
        let module = guard.ibc_mut().module_mut(&endpoints.port).unwrap();
        println!("  alice on guest: {} wsol (400 escrowed)", balance(module, "alice", "wsol"));
    }

    // A guest block must carry the commitment, and a validator quorum must
    // finalise it before the counterparty will believe anything.
    clock += 1_000;
    host_height += 2;
    let block = finalise_guest_block(
        &contract,
        &mut cp,
        &endpoints.guest_client_on_cp,
        &keypairs,
        clock,
        host_height,
    )?;
    println!("guest block {} finalised (root {})", block.height, block.state_root.short());

    // Relay: prove the commitment under that block's root and deliver.
    let commitment_key = be_my_guest::ibc_core::path::packet_commitment(
        &endpoints.port,
        &endpoints.guest_channel,
        packet.sequence,
    );
    let proof = ProvableStore::prove(contract.borrow().ibc().store(), &commitment_key)?;
    let now = cp.host_time();
    let ack =
        cp.ibc_mut().recv_packet(&packet, ProofData { height: block.height, bytes: proof }, now)?;
    println!("counterparty accepted the packet: {ack:?}");
    {
        let module = cp.ibc_mut().module_mut(&endpoints.port).unwrap();
        let voucher = format!("transfer/{}/wsol", endpoints.cp_channel);
        println!("  bob on counterparty: {} {voucher}", balance(module, "bob", &voucher));
    }

    // Redelivery of the same packet is impossible — the receipt exists.
    let replay_proof = ProvableStore::prove(contract.borrow().ibc().store(), &commitment_key)?;
    let now = cp.host_time();
    let replay = cp.ibc_mut().recv_packet(
        &packet,
        ProofData { height: block.height, bytes: replay_proof },
        now,
    );
    println!("replaying the packet: {replay:?} (duplicate rejected)");

    // --- The acknowledgement travels back --------------------------------
    clock += 1_000;
    cp.produce_block(clock);
    let header = cp.latest_header().expect("just committed");
    contract.borrow_mut().update_counterparty_client(
        &endpoints.cp_client_on_guest,
        &header.encode(),
        clock,
    )?;
    let ack_key = be_my_guest::ibc_core::path::packet_ack(
        &packet.destination_port,
        &packet.destination_channel,
        packet.sequence,
    );
    let ack_proof = ProvableStore::prove(cp.ibc().store(), &ack_key)?;
    contract.borrow_mut().acknowledge_packet(
        &packet,
        &ack,
        ProofData { height: header.height, bytes: ack_proof },
    )?;
    println!("acknowledgement processed on the guest — transfer complete");

    // The commitment has been cleared; the escrow stays (tokens live on
    // the counterparty now).
    let cleared = ProvableStore::get(contract.borrow().ibc().store(), &commitment_key)?;
    assert!(cleared.is_none(), "commitment cleared after ack");
    println!("\nfinal state:");
    {
        let mut guard = contract.borrow_mut();
        let module = guard.ibc_mut().module_mut(&endpoints.port).unwrap();
        println!("  alice: {} wsol", balance(module, "alice", "wsol"));
        let escrow = format!("escrow:{}", endpoints.guest_channel);
        println!("  guest escrow: {} wsol", balance(module, &escrow, "wsol"));
    }
    Ok(())
}
