//! Chunk-boundary behaviour (§V-A): packet proofs sit right around the
//! 4-/5-chunk mark, so the planner's boundary arithmetic and the relayer's
//! recovery from a dropped chunk are exercised at exactly those sizes.

use std::cell::RefCell;
use std::rc::Rc;

use counterparty_sim::{CounterpartyChain, CounterpartyConfig};
use guest_chain::{
    GuestConfig, GuestContract, GuestEvent, GuestInstruction, GuestOp, GuestProgram,
};
use host_sim::{CongestionModel, FeePolicy, HostChain, Instruction, Pubkey, Transaction};
use ibc_core::channel::Timeout;
use ibc_core::types::ClientId;
use relayer::chunking::{chunk_capacity, plan_op};
use relayer::{connect_chains, ChunkFaults, JobKind, Relayer, RelayerConfig};
use sim_crypto::schnorr::Keypair;

/// An update-client op whose serialised form is exactly `target` bytes.
///
/// The header is a plain string, so the encoded length grows by one byte
/// per character; calibrating once against an empty header pins the size.
fn op_with_encoded_len(target: usize) -> GuestOp {
    let probe = GuestOp::UpdateClient {
        client: ClientId::new(0),
        header: String::new(),
        num_signatures: 1,
    };
    let base = probe.encode().len();
    assert!(target > base, "target smaller than the op envelope");
    let op = GuestOp::UpdateClient {
        client: ClientId::new(0),
        header: "x".repeat(target - base),
        num_signatures: 1,
    };
    assert_eq!(op.encode().len(), target, "calibration drifted");
    op
}

fn write_chunks(plan: &[GuestInstruction]) -> Vec<(usize, Vec<u8>)> {
    plan.iter()
        .filter_map(|i| match i {
            GuestInstruction::WriteChunk { offset, data, .. } => Some((*offset, data.clone())),
            _ => None,
        })
        .collect()
}

fn reassemble(chunks: &[(usize, Vec<u8>)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (offset, data) in chunks {
        assert_eq!(*offset, bytes.len(), "chunks must be sequential and gapless");
        bytes.extend_from_slice(data);
    }
    bytes
}

/// An op of exactly 4 × capacity bytes plans four chunks; one byte more
/// tips it into a fifth, one-byte chunk — the §V-A 4-/5-transaction split.
#[test]
fn proof_size_straddles_the_four_to_five_chunk_boundary() {
    let capacity = chunk_capacity();

    let at_boundary = op_with_encoded_len(4 * capacity);
    let plan = plan_op(&at_boundary, 9, 1);
    let chunks = write_chunks(&plan);
    assert_eq!(chunks.len(), 4, "exactly at capacity: four chunks");
    assert!(chunks.iter().all(|(_, data)| data.len() == capacity));
    assert_eq!(reassemble(&chunks), at_boundary.encode());

    let past_boundary = op_with_encoded_len(4 * capacity + 1);
    let plan = plan_op(&past_boundary, 9, 1);
    let chunks = write_chunks(&plan);
    assert_eq!(chunks.len(), 5, "one byte over: a fifth chunk");
    assert_eq!(chunks.last().unwrap().1.len(), 1, "the straggler carries one byte");
    assert_eq!(reassemble(&chunks), past_boundary.encode());

    // One byte under the boundary stays at four chunks, with a short tail.
    let under_boundary = op_with_encoded_len(4 * capacity - 1);
    let chunks = write_chunks(&plan_op(&under_boundary, 9, 1));
    assert_eq!(chunks.len(), 4);
    assert_eq!(chunks.last().unwrap().1.len(), capacity - 1);
    assert_eq!(reassemble(&chunks), under_boundary.encode());
}

/// Every plan around the boundary stays one-transaction sized and ends in
/// the staged execution, regardless of which side of the split it lands on.
#[test]
fn boundary_plans_keep_the_staging_shape() {
    let capacity = chunk_capacity();
    for delta in [-2i64, -1, 0, 1, 2] {
        let target = (4 * capacity as i64 + delta) as usize;
        let plan = plan_op(&op_with_encoded_len(target), 3, 1);
        assert!(
            matches!(plan.last(), Some(GuestInstruction::ExecStaged { .. })),
            "staged execution closes the plan"
        );
        assert_eq!(
            plan.iter().filter(|i| matches!(i, GuestInstruction::VerifySigs { .. })).count(),
            1,
            "a single verification batch for one signature"
        );
        for instruction in &plan {
            let tx = Transaction::build(
                Pubkey::from_label("payer"),
                1,
                vec![Instruction::new(
                    Pubkey::from_label("program"),
                    vec![Pubkey::from_label("state")],
                    instruction.encode(),
                )],
                FeePolicy::BaseOnly,
            );
            assert!(tx.is_ok(), "boundary chunk overflows a transaction");
        }
    }
}

/// Hand-built deployment (mirrors `tests/orchestration.rs`): host chain,
/// guest program, counterparty, and a relayer the test can poke directly.
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
}

/// A chunk lost in transit never confirms; after [`relayer::RESUBMIT_AFTER_SLOTS`]
/// the relayer re-queues it and the job still completes end to end.
#[test]
fn dropped_chunk_is_resubmitted_and_the_job_completes() {
    let mut world = World::new(11);
    world.submit_op(GuestOp::SendTransfer {
        port: world.relayer.endpoints().port.clone(),
        channel: world.relayer.endpoints().guest_channel.clone(),
        denom: "wsol".into(),
        amount: 77,
        sender: "alice".into(),
        receiver: "bob".into(),
        memo: String::new(),
        timeout: Timeout::NEVER,
    });

    // Every submission is lost for the first 150 slots, then the network
    // heals. The armed fault RNG stays live so timed-out submissions keep
    // being re-queued after the window closes.
    world.relayer.set_chunk_faults(Some(ChunkFaults {
        drop_probability: 1.0,
        seed: 11,
        ..ChunkFaults::default()
    }));
    for _ in 0..150 {
        world.step();
    }
    assert!(world.relayer.lost_submissions() > 0, "the fault window dropped chunks");
    world.relayer.set_chunk_faults(None);
    for _ in 0..800 {
        world.step();
    }

    assert!(world.relayer.resubmissions() > 0, "lost chunks were re-queued");
    assert_eq!(world.relayer.failed_jobs(), 0);
    assert_eq!(world.relayer.backlog(), 0, "no stranded work after recovery");
    let acks = world.relayer.records().iter().filter(|r| r.kind == JobKind::AckPacket).count();
    assert_eq!(acks, 1, "the transfer completed despite the drops");
    // The chain kept finalising throughout.
    let contract = world.contract.borrow();
    assert!(contract.is_finalised(contract.head_height()));
}
