//! Adversarial scenarios across the full stack: forged headers, replayed
//! packets, equivocation, frozen clients.

use std::cell::RefCell;
use std::rc::Rc;

use be_my_guest::counterparty_sim::{CounterpartyChain, CounterpartyConfig};
use be_my_guest::guest_chain::{
    GuestConfig, GuestContract, GuestHeader, GuestMisbehaviour, SEND_FEE_LAMPORTS,
};
use be_my_guest::ibc_core::channel::Timeout;
use be_my_guest::ibc_core::handler::ProofData;
use be_my_guest::ibc_core::types::IbcError;
use be_my_guest::ibc_core::ProvableStore;
use be_my_guest::relayer::{connect_chains, finalise_guest_block, Endpoints};
use be_my_guest::sim_crypto::schnorr::Keypair;
use be_my_guest::sim_crypto::sha256;

struct World {
    contract: Rc<RefCell<GuestContract>>,
    cp: CounterpartyChain,
    keypairs: Vec<Keypair>,
    endpoints: Endpoints,
    clock: u64,
    host_height: u64,
}

fn world() -> World {
    let keypairs: Vec<Keypair> = (0..4).map(Keypair::from_seed).collect();
    let validators = keypairs.iter().map(|kp| (kp.public(), 100)).collect();
    let contract = Rc::new(RefCell::new(GuestContract::new(GuestConfig::fast(), validators, 0, 0)));
    let mut cp = CounterpartyChain::new(CounterpartyConfig::default(), 99);
    let mut clock = 0;
    let mut host_height = 0;
    let endpoints =
        connect_chains(&contract, &mut cp, &keypairs, &mut clock, &mut host_height).unwrap();
    {
        let mut guard = contract.borrow_mut();
        let module = guard.ibc_mut().module_mut(&endpoints.port).unwrap();
        module.ics20_mut().unwrap().mint("alice", "wsol", 10_000);
    }
    World { contract, cp, keypairs, endpoints, clock, host_height }
}

impl World {
    fn send(&mut self) -> be_my_guest::ibc_core::Packet {
        self.clock += 1_000;
        let fee = SEND_FEE_LAMPORTS;
        self.contract
            .borrow_mut()
            .send_transfer(
                &self.endpoints.port,
                &self.endpoints.guest_channel,
                "wsol",
                10,
                "alice",
                "bob",
                "",
                Timeout::at_time(self.clock + 3_600_000),
                fee,
            )
            .unwrap()
    }

    fn finalise(&mut self) -> be_my_guest::guest_chain::GuestBlock {
        self.clock += 1_000;
        self.host_height += 2;
        finalise_guest_block(
            &self.contract,
            &mut self.cp,
            &self.endpoints.guest_client_on_cp,
            &self.keypairs,
            self.clock,
            self.host_height,
        )
        .unwrap()
    }

    fn commitment_proof(&self, height: u64, sequence: u64) -> ProofData {
        let key = be_my_guest::ibc_core::path::packet_commitment(
            &self.endpoints.port,
            &self.endpoints.guest_channel,
            sequence,
        );
        ProofData {
            height,
            bytes: ProvableStore::prove(self.contract.borrow().ibc().store(), &key).unwrap(),
        }
    }
}

/// An attacker cannot push a guest header the validators never signed —
/// even with only one signature missing from quorum.
#[test]
fn forged_guest_header_rejected_by_counterparty() {
    let mut world = world();
    let _ = world.send();
    let block = world.finalise();

    // Forge: tamper with the state root, re-sign with ONE validator only.
    let mut forged_block = block.clone();
    forged_block.height += 1;
    forged_block.state_root = sha256(b"attacker root");
    let signing = forged_block.signing_bytes();
    let forged = GuestHeader {
        block: forged_block,
        signatures: vec![(world.keypairs[0].public(), world.keypairs[0].sign(&signing))],
    };
    let err = world
        .cp
        .ibc_mut()
        .update_client(&world.endpoints.guest_client_on_cp, &forged.encode())
        .unwrap_err();
    assert!(matches!(err, IbcError::ClientVerification(_)), "{err:?}");
}

/// A validator's signature over block A cannot be replayed onto block B.
#[test]
fn signature_replay_across_blocks_fails() {
    let mut world = world();
    let _ = world.send();
    let block = world.finalise();
    let stolen = world.contract.borrow().signatures_at(block.height)[0];

    let _ = world.send();
    world.clock += 1_000;
    world.host_height += 2;
    let next = world.contract.borrow_mut().generate_block(world.clock, world.host_height).unwrap();
    let err = world.contract.borrow_mut().sign(next.height, stolen.0, stolen.1).unwrap_err();
    assert_eq!(err, be_my_guest::guest_chain::GuestError::BadSignature);
}

/// The same packet cannot be delivered twice even with a fresh, valid
/// proof (Alg. 1 line 37 via the sealed receipt).
#[test]
fn packet_replay_rejected_end_to_end() {
    let mut world = world();
    let packet = world.send();
    let block = world.finalise();

    let now = world.cp.host_time();
    let proof = world.commitment_proof(block.height, packet.sequence);
    world.cp.ibc_mut().recv_packet(&packet, proof, now).unwrap();

    let proof = world.commitment_proof(block.height, packet.sequence);
    let err = world.cp.ibc_mut().recv_packet(&packet, proof, now).unwrap_err();
    assert_eq!(err, IbcError::DuplicatePacket);
}

/// A quorum that signs two different blocks at one height is provable
/// misbehaviour; the counterparty freezes its guest client and refuses
/// everything afterwards.
#[test]
fn equivocation_freezes_the_light_client() {
    let mut world = world();
    let _ = world.send();
    let block = world.finalise();

    // Build two conflicting quorum-signed headers at the next height.
    let make = |root: &[u8], world: &World| {
        let forged = be_my_guest::guest_chain::GuestBlock {
            height: block.height + 1,
            prev_hash: block.hash(),
            state_root: sha256(root),
            timestamp_ms: world.clock + 5_000,
            host_height: world.host_height + 1,
            epoch_id: world.contract.borrow().current_epoch().id(),
            next_epoch: None,
        };
        let signing = forged.signing_bytes();
        GuestHeader {
            block: forged,
            signatures: world.keypairs.iter().map(|kp| (kp.public(), kp.sign(&signing))).collect(),
        }
    };
    let evidence =
        GuestMisbehaviour { header_a: make(b"fork-a", &world), header_b: make(b"fork-b", &world) };
    let frozen = world
        .cp
        .ibc_mut()
        .submit_misbehaviour(&world.endpoints.guest_client_on_cp, &evidence.encode())
        .unwrap();
    assert!(frozen, "valid fork evidence freezes the client");

    // All further guest traffic is refused.
    let packet = world.send();
    world.clock += 1_000;
    world.host_height += 2;
    let block = world.contract.borrow_mut().generate_block(world.clock, world.host_height).unwrap();
    for kp in &world.keypairs {
        let _ = world.contract.borrow_mut().sign(
            block.height,
            kp.public(),
            kp.sign(&block.signing_bytes()),
        );
    }
    let header = GuestHeader {
        block: block.clone(),
        signatures: world.contract.borrow().signatures_at(block.height),
    };
    let err = world
        .cp
        .ibc_mut()
        .update_client(&world.endpoints.guest_client_on_cp, &header.encode())
        .unwrap_err();
    assert!(matches!(err, IbcError::FrozenClient(_)));

    let now = world.cp.host_time();
    let proof = world.commitment_proof(block.height, packet.sequence);
    let err = world.cp.ibc_mut().recv_packet(&packet, proof, now).unwrap_err();
    assert!(matches!(err, IbcError::FrozenClient(_)), "{err:?}");
}

/// Benign "evidence" (the same finalised header twice) does not freeze.
#[test]
fn benign_evidence_does_not_freeze() {
    let mut world = world();
    let _ = world.send();
    let block = world.finalise();
    let header = GuestHeader {
        block: block.clone(),
        signatures: world.contract.borrow().signatures_at(block.height),
    };
    let evidence = GuestMisbehaviour { header_a: header.clone(), header_b: header };
    let frozen = world
        .cp
        .ibc_mut()
        .submit_misbehaviour(&world.endpoints.guest_client_on_cp, &evidence.encode())
        .unwrap();
    assert!(!frozen);
}

/// A packet whose proof was taken against a different (newer) state than
/// the verified block is rejected — proofs must match the exact root.
#[test]
fn stale_proof_rejected() {
    let mut world = world();
    let first = world.send();
    let block_one = world.finalise();

    // More sends mutate the trie after block 1.
    let _ = world.send();
    let _ = world.send();

    // Proof taken NOW (three packets in the trie) against block 1's root.
    let now = world.cp.host_time();
    let stale = world.commitment_proof(block_one.height, first.sequence);
    let err = world.cp.ibc_mut().recv_packet(&first, stale, now).unwrap_err();
    assert!(matches!(err, IbcError::InvalidProof(_)), "{err:?}");
}
