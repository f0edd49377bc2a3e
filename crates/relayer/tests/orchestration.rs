//! Relayer orchestration against a hand-built deployment (no testnet
//! harness): host chain + guest program + counterparty, with validators
//! signing through transactions — exactly what the relayer sees in
//! production.

use std::cell::RefCell;
use std::rc::Rc;

use counterparty_sim::{CounterpartyChain, CounterpartyConfig};
use guest_chain::{
    GuestConfig, GuestContract, GuestEvent, GuestInstruction, GuestOp, GuestProgram,
};
use host_sim::{CongestionModel, FeePolicy, HostChain, Instruction, Pubkey, Transaction};
use ibc_core::channel::Timeout;
use relayer::{connect_chains, JobKind, Relayer, RelayerConfig};
use sim_crypto::schnorr::Keypair;

struct World {
    host: HostChain,
    cp: CounterpartyChain,
    contract: Rc<RefCell<GuestContract>>,
    relayer: Relayer,
    keypairs: Vec<Keypair>,
    payer: Pubkey,
    program_id: Pubkey,
    last_seen_slot: u64,
}

impl World {
    fn new(seed: u64) -> Self {
        let mut host = HostChain::new(CongestionModel::idle(), seed);
        let program_id = Pubkey::from_label("guest-program");
        let payer = Pubkey::from_label("payer");
        host.bank_mut().airdrop(payer, 1_000_000_000_000);
        host.bank_mut().airdrop(Pubkey::from_label("guest-vault"), 1);
        host.bank_mut().airdrop(Pubkey::from_label("relayer-payer"), 1_000_000_000_000);

        let keypairs: Vec<Keypair> = (0..3).map(Keypair::from_seed).collect();
        let validators = keypairs.iter().map(|kp| (kp.public(), 100)).collect();
        let contract =
            Rc::new(RefCell::new(GuestContract::new(GuestConfig::fast(), validators, 0, 0)));
        let program =
            GuestProgram::new(program_id, Pubkey::from_label("guest-vault"), contract.clone());
        host.bank_mut().register_program(program_id, Box::new(program));

        let mut cp = CounterpartyChain::new(
            CounterpartyConfig {
                num_validators: 10,
                participation: 1.0,
                block_interval_ms: 2_000,
                rotation_interval_blocks: 0,
            },
            seed,
        );
        let mut clock = 0;
        let mut height = 0;
        let endpoints =
            connect_chains(&contract, &mut cp, &keypairs, &mut clock, &mut height).unwrap();
        {
            let mut guard = contract.borrow_mut();
            let module = guard.ibc_mut().module_mut(&endpoints.port).unwrap();
            module.ics20_mut().unwrap().mint("alice", "wsol", 1_000_000);
        }
        let relayer = Relayer::new(
            RelayerConfig::default(),
            Pubkey::from_label("relayer-payer"),
            program_id,
            endpoints,
        );
        Self { host, cp, contract, relayer, keypairs, payer, program_id, last_seen_slot: 0 }
    }

    fn submit_op(&mut self, op: GuestOp) -> u64 {
        let tx = Transaction::build(
            self.payer,
            1,
            vec![Instruction::new(
                self.program_id,
                vec![Pubkey::from_label("guest-state")],
                GuestInstruction::Inline { op }.encode(),
            )],
            FeePolicy::BaseOnly,
        )
        .unwrap();
        self.host.submit(tx)
    }

    /// One slot: advance the host, have every validator sign any NewBlock
    /// it observes (zero latency), produce a cp block if due, tick the
    /// relayer.
    fn step(&mut self) {
        self.host.advance_slot();
        let mut signs = Vec::new();
        for block in self.host.blocks_since(self.last_seen_slot) {
            for event in block.events() {
                if let Ok(GuestEvent::NewBlock { block }) =
                    serde_json::from_slice::<GuestEvent>(event.payload())
                {
                    for kp in &self.keypairs {
                        signs.push(GuestOp::SignBlock {
                            height: block.height,
                            pubkey: kp.public(),
                            signature: kp.sign(&block.signing_bytes()),
                        });
                    }
                }
            }
        }
        self.last_seen_slot = self.host.slot();
        for op in signs {
            self.submit_op(op);
        }
        if self.host.now_ms() % 2_000 < 600 {
            let now = self.host.now_ms();
            self.cp.produce_block(now);
        }
        self.relayer.tick(&mut self.host, &mut self.cp, &self.contract);
    }

    fn run_slots(&mut self, slots: usize) {
        for _ in 0..slots {
            self.step();
        }
    }
}

#[test]
fn relayer_moves_an_outbound_transfer_and_its_ack() {
    let mut world = World::new(1);
    world.submit_op(GuestOp::SendTransfer {
        port: world.relayer.endpoints().port.clone(),
        channel: world.relayer.endpoints().guest_channel.clone(),
        denom: "wsol".into(),
        amount: 123,
        sender: "alice".into(),
        receiver: "bob".into(),
        memo: String::new(),
        timeout: Timeout::NEVER,
    });
    world.run_slots(400);

    // The counterparty received the packet (the relayer pushed the header
    // and the proof), and the ack travelled back through staged host txs.
    let acks = world.relayer.records().iter().filter(|r| r.kind == JobKind::AckPacket).count();
    assert_eq!(acks, 1, "exactly one ack job completed");
    assert_eq!(world.relayer.failed_jobs(), 0);
    assert_eq!(world.relayer.backlog(), 0, "no stranded work");

    // The source commitment is gone (acknowledged).
    let key = ibc_core::path::packet_commitment(
        &world.relayer.endpoints().port,
        &world.relayer.endpoints().guest_channel,
        1,
    );
    let contract = world.contract.borrow();
    assert!(matches!(ibc_core::ProvableStore::get(contract.ibc().store(), &key), Ok(None)));
}

#[test]
fn relayer_generates_empty_blocks_at_delta() {
    let mut world = World::new(2);
    // No traffic at all; Δ = 10 s in the fast config. ~90 s of slots.
    world.run_slots(200);
    let head = world.contract.borrow().head_height();
    assert!(head >= 5, "Δ-driven empty blocks, head at {head}");
    // Every block finalised by the transaction-submitted signatures.
    assert!(world.contract.borrow().is_finalised(head));
}

#[test]
fn relayer_survives_a_cold_start_with_pending_events() {
    // Events that happened before the relayer's first tick (it scans from
    // slot 0) must still be picked up.
    let mut world = World::new(3);
    world.submit_op(GuestOp::SendTransfer {
        port: world.relayer.endpoints().port.clone(),
        channel: world.relayer.endpoints().guest_channel.clone(),
        denom: "wsol".into(),
        amount: 5,
        sender: "alice".into(),
        receiver: "bob".into(),
        memo: String::new(),
        timeout: Timeout::NEVER,
    });
    // Advance several slots without ticking the relayer.
    for _ in 0..10 {
        world.host.advance_slot();
    }
    world.last_seen_slot = 0; // validators also catch up below
    world.run_slots(300);
    assert_eq!(world.relayer.backlog(), 0);
}

#[test]
fn a_second_relayers_duplicate_on_the_counterparty_is_not_a_failure() {
    // Two relayers see the same finalised guest block and both submit its
    // packet to the counterparty. The loser's `DuplicatePacket` is the
    // replay protection working, not a failed job. (Counterparty events
    // are drained by whoever ticks first, so the second relayer never has
    // host-bound jobs to lose here; `tests/multi_relayer.rs` covers those.)
    let mut world = World::new(4);
    let second_payer = Pubkey::from_label("second-relayer-payer");
    world.host.bank_mut().airdrop(second_payer, 1_000_000_000_000);
    let mut second = Relayer::new(
        RelayerConfig::default(),
        second_payer,
        world.program_id,
        world.relayer.endpoints().clone(),
    );
    world.submit_op(GuestOp::SendTransfer {
        port: world.relayer.endpoints().port.clone(),
        channel: world.relayer.endpoints().guest_channel.clone(),
        denom: "wsol".into(),
        amount: 9,
        sender: "alice".into(),
        receiver: "bob".into(),
        memo: String::new(),
        timeout: Timeout::NEVER,
    });
    for _ in 0..400 {
        world.step();
        second.tick(&mut world.host, &mut world.cp, &world.contract);
    }
    let acks = world.relayer.records().iter().filter(|r| r.kind == JobKind::AckPacket).count();
    assert_eq!(acks, 1, "the packet went through once");
    assert_eq!(second.pending_packets(), 0, "the second relayer submitted it too");
    assert_eq!((world.relayer.failed_jobs(), second.failed_jobs()), (0, 0));
}

#[test]
fn an_ack_the_counterparty_rejects_is_counted() {
    // A counterparty-origin packet the guest's transfer app cannot parse:
    // the guest answers with an error ack, and the counterparty's app in
    // turn fails to refund a payload it cannot parse either. That is not
    // a duplicate, so the relayer must not swallow it.
    let mut world = World::new(5);
    let (port, channel) = {
        let endpoints = world.relayer.endpoints();
        (endpoints.port.clone(), endpoints.cp_channel.clone())
    };
    world
        .cp
        .ibc_mut()
        .send_packet(&port, &channel, b"not ics-20".to_vec(), Timeout::NEVER)
        .unwrap();
    world.run_slots(400);

    let recvs = world.relayer.records().iter().filter(|r| r.kind == JobKind::RecvPacket).count();
    assert_eq!(recvs, 1, "the packet reached the guest");
    assert_eq!(world.relayer.backlog(), 0);
    assert_eq!(world.relayer.failed_jobs(), 1, "the rejected ack is visible");
}
