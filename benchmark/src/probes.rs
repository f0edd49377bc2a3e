//! Layer probes: the benchmark calls a layer's public functions directly
//! on fixed seeded inputs and times them, so a change in an end-to-end
//! figure can be traced to the layer that caused it.
//!
//! Every probe warms up for one batch and reports the median of
//! `BATCHES` timed batches. The set-ups follow
//! `crates/bench/benches/{trie,crypto,guest,ibc}.rs`, copied rather than
//! depended on so the Criterion groups can change without moving these.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use apps::{
    EchoApp, FeeMiddleware, ForwardMiddleware, IcaApp, IcaOp, IcaPacketData, MemoHookMiddleware,
    ModuleStack, NftPacketData, NftTransferApp, TransferApp,
};
use counterparty_sim::{CounterpartyChain, CounterpartyConfig};
use guest_chain::{
    GuestConfig, GuestContract, GuestHeader, GuestInstruction, GuestLightClient, GuestOp,
    GuestProgram,
};
use host_sim::mempool::Mempool;
use host_sim::{
    CongestionModel, FeePolicy, HostChain, Instruction, Pubkey, Transaction, SLOT_CU_CAPACITY,
};
use ibc_core::client::{MockClient, MockHeader};
use ibc_core::handler::{HostTime, IbcHandler, ProofData};
use ibc_core::ics20::FungibleTokenPacketData;
use ibc_core::{
    path, ChannelId, ClientId, LightClient, Module, Ordering, Packet, PortId, ProvableStore,
    Timeout,
};
use mesh::{Mesh, MeshConfig};
use sealable_trie::Trie;
use sim_crypto::schnorr::Keypair;
use workload::{TrafficConfig, TrafficGenerator};

use crate::layers::Values;
use crate::stats::median;

/// Timed batches per probe, after one warm-up batch.
const BATCHES: usize = 5;
/// Longest a batch is sized for; shorter when `--seconds` is nearly used up.
const BATCH: Duration = Duration::from_millis(30);
/// How many probes share the time that is left.
const PROBES: u32 = 38;
/// Seed of every probe input, independent of the workload seed.
const SEED: u64 = 7;

struct Prober {
    batch: Duration,
    /// Entries in the pre-filled tries, stores and pools: 10 k, or a token
    /// few in smoke mode, whose numbers mean nothing.
    keys: u64,
}

impl Prober {
    /// Nanoseconds per call of `op`, which gets a fresh index each call and
    /// may make at most `limit` calls in all. What `op` returns is dropped
    /// outside the timed region.
    fn ns_per_call<R>(&self, limit: u64, mut op: impl FnMut(u64) -> R) -> f64 {
        let mut index = 0u64;
        let per_batch = limit / (BATCHES as u64 + 2);
        // Size the batches from a short calibration run.
        let started = Instant::now();
        let mut calibrated = 0u64;
        while calibrated < per_batch.max(1) && started.elapsed() < self.batch / 8 {
            black_box(op(black_box(index)));
            index += 1;
            calibrated += 1;
        }
        let once = started.elapsed().as_secs_f64() / calibrated as f64;
        let calls = ((self.batch.as_secs_f64() / once) as u64).clamp(1, per_batch.max(1));

        let mut kept = Vec::with_capacity(calls as usize);
        let mut samples = Vec::with_capacity(BATCHES);
        for batch in 0..=BATCHES {
            let started = Instant::now();
            for _ in 0..calls {
                kept.push(black_box(op(black_box(index))));
                index += 1;
            }
            let ns = started.elapsed().as_secs_f64() * 1e9 / calls as f64;
            kept.clear();
            if batch > 0 {
                samples.push(ns);
            }
        }
        median(&samples)
    }

    fn ns(&self, op: impl FnMut(u64)) -> f64 {
        self.ns_per_call(u64::MAX, op)
    }

    fn us(&self, op: impl FnMut(u64)) -> f64 {
        self.ns(op) / 1_000.0
    }
}

fn ibc_keys(count: u64) -> Vec<Vec<u8>> {
    let (port, channel) = (PortId::transfer(), ChannelId::new(0));
    (0..count).map(|sequence| path::packet_commitment(&port, &channel, sequence)).collect()
}

fn trie_of(keys: &[Vec<u8>]) -> Trie {
    let mut trie = Trie::new();
    for key in keys {
        trie.insert(key, &[0xAB; 32]).expect("fresh keys insert");
    }
    trie
}

fn crypto(p: &Prober, values: &mut Values) {
    let data = vec![0xA5u8; 64 * 1024];
    let ns = p.ns(|_| {
        black_box(sim_crypto::sha256(black_box(&data)));
    });
    values.insert(
        "sim-crypto.sha256_mib_per_s",
        (data.len() as f64 / (1024.0 * 1024.0)) / (ns / 1e9),
    );
    let keypair = Keypair::from_seed(SEED);
    let message = b"guest block 42";
    values.insert(
        "sim-crypto.sign_ns",
        p.ns(|_| {
            black_box(keypair.sign(black_box(message)));
        }),
    );
    let signature = keypair.sign(message);
    let public = keypair.public();
    values.insert(
        "sim-crypto.verify_ns",
        p.ns(|_| assert!(public.verify(black_box(message), &signature))),
    );
}

fn trie(p: &Prober, values: &mut Values) {
    let keys = ibc_keys(p.keys);
    let base = trie_of(&keys);
    let stats = base.stats();
    values.insert("sealable-trie.bytes_per_entry", stats.byte_count as f64 / base.len() as f64);

    let (port, channel) = (PortId::transfer(), ChannelId::new(0));
    let mut growing = base.clone();
    values.insert(
        "sealable-trie.insert_ns",
        p.ns(|i| {
            let key = path::packet_commitment(&port, &channel, p.keys + i);
            growing.insert(&key, &[1; 32]).expect("fresh key inserts");
        }),
    );
    drop(growing);
    let key_at = |i: u64| &keys[(i % p.keys) as usize];
    values.insert(
        "sealable-trie.get_ns",
        p.ns(|i| {
            black_box(base.get(key_at(i)).expect("live key reads"));
        }),
    );
    values.insert(
        "sealable-trie.prove_ns",
        p.ns(|i| {
            black_box(base.prove(key_at(i)).expect("live key proves"));
        }),
    );
    let root = base.root_hash();
    let proofs: Vec<_> = (0..64).map(|i| base.prove(key_at(i)).expect("live key proves")).collect();
    values.insert(
        "sealable-trie.verify_ns",
        p.ns(|i| {
            assert!(proofs[(i % 64) as usize].verify_member(&root, key_at(i % 64), &[0xAB; 32]))
        }),
    );
    // A key seals once, so the calls are capped by the keys there are.
    let mut sealing = base.clone();
    values.insert(
        "sealable-trie.seal_ns",
        p.ns_per_call(p.keys, |i| sealing.seal(&keys[i as usize]).expect("live key seals")),
    );
    drop(sealing);

    // The clone behind every counterparty block (`cp.snapshot`) and guest
    // block; the clones are dropped outside the timed region, so the calls
    // are capped to bound the memory they hold.
    values.insert("sealable-trie.clone_us_10k", p.ns_per_call(16 * 7, |_| base.clone()) / 1_000.0);
    let big = trie_of(&ibc_keys(10 * p.keys));
    values.insert("sealable-trie.clone_us_100k", p.ns_per_call(4 * 7, |_| big.clone()) / 1_000.0);
}

/// A host chain with the guest program deployed, as `Testnet::build` does.
fn host_with_guest() -> (HostChain, Pubkey, Pubkey) {
    let mut host = HostChain::new(CongestionModel::idle(), SEED);
    let program_id = Pubkey::from_label("guest-program");
    let payer = Pubkey::from_label("probe-payer");
    host.bank_mut().airdrop(payer, u64::MAX / 2);
    let keypairs: Vec<Keypair> = (0..4).map(Keypair::from_seed).collect();
    let genesis = keypairs.iter().map(|kp| (kp.public(), 100)).collect();
    let contract = Rc::new(RefCell::new(GuestContract::new(GuestConfig::fast(), genesis, 0, 0)));
    let program = GuestProgram::new(program_id, Pubkey::from_label("guest-vault"), contract);
    host.bank_mut().register_program(program_id, Box::new(program));
    host.bank_mut()
        .allocate_account(
            &payer,
            Pubkey::from_label("guest-state"),
            program_id,
            host_sim::MAX_ACCOUNT_SIZE,
        )
        .expect("the payer can fund the state account");
    (host, program_id, payer)
}

fn guest_tx(program_id: Pubkey, payer: Pubkey, instruction: &GuestInstruction) -> Transaction {
    Transaction::build(
        payer,
        1,
        vec![Instruction::new(
            program_id,
            vec![Pubkey::from_label("guest-state")],
            instruction.encode(),
        )],
        FeePolicy::BaseOnly,
    )
    .expect("a planned instruction fits a transaction")
}

fn host(p: &Prober, values: &mut Values) {
    let mut idle = HostChain::new(CongestionModel::idle(), SEED);
    values.insert(
        "host-sim.advance_slot_empty_ns",
        p.ns(|_| {
            black_box(idle.advance_slot().slot);
            idle.prune_blocks(512);
        }),
    );

    // One block of the relayer's staple: seven max-size chunk writes into a
    // staging buffer and the transaction that drops it again.
    const CHUNKS: usize = 7;
    let (mut host, program_id, payer) = host_with_guest();
    let capacity = relayer::chunking::chunk_capacity();
    let per_block = p.us(|buffer| {
        for chunk in 0..CHUNKS {
            let write = GuestInstruction::WriteChunk {
                buffer,
                offset: chunk * capacity,
                data: vec![0xC4; capacity],
            };
            host.submit(guest_tx(program_id, payer, &write));
        }
        host.submit(guest_tx(program_id, payer, &GuestInstruction::DropBuffer { buffer }));
        let block = host.advance_slot();
        assert!(
            block.transactions.len() == CHUNKS + 1
                && block.transactions.iter().all(|(_, o)| o.is_ok())
        );
        host.prune_blocks(512);
    });
    values.insert("host-sim.tx_execute_us", per_block / (CHUNKS + 1) as f64);

    // A slot's worth drained from 10 k pending transactions, then put back.
    let mut pool = Mempool::new();
    let noop = GuestInstruction::DropBuffer { buffer: 0 };
    for i in 0..p.keys {
        let mut tx = guest_tx(program_id, payer, &noop);
        tx.fee_policy = FeePolicy::Priority { micro_lamports_per_cu: 1 + (i * 7919) % 5_000 };
        pool.submit(tx, i);
    }
    let mut drained_per_slot = 1;
    let per_drain = p.ns(|_| {
        let drained = pool.drain_for_slot(SLOT_CU_CAPACITY, 0, true);
        drained_per_slot = drained.len().max(1);
        for pending in drained {
            pool.requeue(pending);
        }
    });
    values.insert("host-sim.mempool_drain_ns_per_tx", per_drain / drained_per_slot as f64);
}

fn guest(p: &Prober, values: &mut Values) {
    const VALIDATORS: u64 = 24;
    let keypairs: Vec<Keypair> = (0..VALIDATORS).map(Keypair::from_seed).collect();
    let genesis: Vec<_> = keypairs.iter().map(|kp| (kp.public(), 100)).collect();
    let config = GuestConfig::fast();
    let mut contract = GuestContract::new(config, genesis.clone(), 0, 0);
    // Every call is one block past Δ, so an empty block is always due.
    values.insert(
        "core.generate_sign_finalise_us",
        p.us(|i| {
            let block = contract
                .generate_block((i + 1) * (config.delta_ms + 1), 10)
                .expect("the head is finalised and older than Δ");
            let signing = block.signing_bytes();
            for kp in &keypairs {
                if contract
                    .sign(block.height, kp.public(), kp.sign(&signing))
                    .expect("a validator signs")
                {
                    break;
                }
            }
            assert!(contract.is_finalised(block.height));
            contract.drain_events();
        }),
    );

    let mut contract = GuestContract::new(config, genesis, 0, 0);
    let epoch = contract.current_epoch().clone();
    let genesis_block = contract.block_at(0).expect("genesis exists");
    let block = contract.generate_block(20_000, 10).expect("an empty block is due");
    let signing = block.signing_bytes();
    let header = GuestHeader {
        block,
        signatures: keypairs.iter().map(|kp| (kp.public(), kp.sign(&signing))).collect(),
    }
    .encode();
    values.insert(
        "core.light_client_update_us",
        p.us(|_| {
            let mut client = GuestLightClient::from_genesis(&genesis_block, epoch.clone());
            client.update(black_box(&header)).expect("a fully signed header verifies");
        }),
    );
}

/// Two handlers joined by one open echo channel over mock clients.
struct Pair {
    a: IbcHandler<Trie>,
    b: IbcHandler<Trie>,
    port: PortId,
    channel_a: ChannelId,
    height: u64,
}

impl Pair {
    /// Commits A's root to B's client of it and proves `key` at that height.
    fn prove_on_a(&mut self, key: &[u8]) -> ProofData {
        self.height += 1;
        let header = mock_header(self.height, &self.a);
        self.b.update_client(&ClientId::new(0), &header).expect("heights only grow");
        ProofData {
            height: self.height,
            bytes: ProvableStore::prove(self.a.store(), key).expect("A holds the key"),
        }
    }

    /// The same from B to A.
    fn prove_on_b(&mut self, key: &[u8]) -> ProofData {
        self.height += 1;
        let header = mock_header(self.height, &self.b);
        self.a.update_client(&ClientId::new(0), &header).expect("heights only grow");
        ProofData {
            height: self.height,
            bytes: ProvableStore::prove(self.b.store(), key).expect("B holds the key"),
        }
    }

    fn connected() -> Self {
        let port = PortId::named("echo");
        let handler = || {
            let mut handler = IbcHandler::new(Trie::new());
            handler.bind_port(port.clone(), Box::new(ModuleStack::new(Box::new(EchoApp::new()))));
            handler.create_client(Box::new(MockClient::new()));
            handler
        };
        let (a, b) = (handler(), handler());
        let client = ClientId::new(0);
        let mut pair = Self { a, b, port: port.clone(), channel_a: ChannelId::new(0), height: 0 };

        let conn_a = pair.a.conn_open_init(client.clone(), client.clone()).expect("init");
        let proof = pair.prove_on_a(&path::connection(&conn_a));
        let conn_b = pair
            .b
            .conn_open_try(client.clone(), client.clone(), conn_a.clone(), proof, None)
            .expect("try");
        let proof = pair.prove_on_b(&path::connection(&conn_b));
        pair.a.conn_open_ack(&conn_a, conn_b.clone(), proof, None).expect("ack");
        let proof = pair.prove_on_a(&path::connection(&conn_a));
        pair.b.conn_open_confirm(&conn_b, proof).expect("confirm");

        let chan_a = pair
            .a
            .chan_open_init(port.clone(), conn_a, port.clone(), Ordering::Unordered, "echo-1")
            .expect("init");
        let proof = pair.prove_on_a(&path::channel(&port, &chan_a));
        let chan_b = pair
            .b
            .chan_open_try(
                port.clone(),
                conn_b,
                port.clone(),
                chan_a.clone(),
                Ordering::Unordered,
                "echo-1",
                proof,
            )
            .expect("try");
        let proof = pair.prove_on_b(&path::channel(&port, &chan_b));
        pair.a.chan_open_ack(&port, &chan_a, chan_b.clone(), proof).expect("ack");
        let proof = pair.prove_on_a(&path::channel(&port, &chan_a));
        pair.b.chan_open_confirm(&port, &chan_b, proof).expect("confirm");
        pair.channel_a = chan_a;
        pair
    }
}

fn mock_header(height: u64, of: &IbcHandler<Trie>) -> Vec<u8> {
    serde_json::to_vec(&MockHeader { height, root: of.root(), timestamp_ms: height * 1_000 })
        .expect("a mock header serializes")
}

fn ibc(p: &Prober, values: &mut Values) {
    let packet = Packet {
        sequence: 42,
        source_port: PortId::transfer(),
        source_channel: ChannelId::new(0),
        destination_port: PortId::transfer(),
        destination_channel: ChannelId::new(1),
        payload: vec![0u8; 256],
        timeout: Timeout::at_height(1_000),
    };
    values.insert(
        "ibc-core.packet_commitment_ns",
        p.ns(|_| {
            black_box(black_box(&packet).commitment());
        }),
    );

    // A packet's whole life across both handlers: send on A, prove and
    // receive on B, prove the acknowledgement and process it on A.
    let mut pair = Pair::connected();
    values.insert(
        "ibc-core.send_recv_ack_us",
        p.us(|_| {
            let (port, channel) = (pair.port.clone(), pair.channel_a.clone());
            let packet =
                pair.a.send_packet(&port, &channel, vec![0u8; 200], Timeout::NEVER).expect("send");
            let proof = pair.prove_on_a(&path::packet_commitment(&port, &channel, packet.sequence));
            let now = HostTime { height: 1, timestamp_ms: 1 };
            let ack = pair.b.recv_packet(&packet, proof, now).expect("recv");
            let ack_key = path::packet_ack(
                &packet.destination_port,
                &packet.destination_channel,
                packet.sequence,
            );
            let proof = pair.prove_on_b(&ack_key);
            pair.a.acknowledge_packet(&packet, &ack, proof).expect("ack");
            pair.a.drain_events();
            pair.b.drain_events();
        }),
    );

    let mut pair = Pair::connected();
    values.insert(
        "ibc-core.update_client_us",
        p.us(|_| {
            pair.height += 1;
            let header = mock_header(pair.height, &pair.a);
            pair.b.update_client(&ClientId::new(0), &header).expect("heights only grow");
        }),
    );
}

fn app_packet(port: PortId, sequence: u64, payload: Vec<u8>) -> Packet {
    Packet {
        sequence,
        source_port: port.clone(),
        source_channel: ChannelId::new(0),
        destination_port: port,
        destination_channel: ChannelId::new(0),
        payload,
        timeout: Timeout::NEVER,
    }
}

fn apps(p: &Prober, values: &mut Values) {
    let transfer = |sequence| {
        let data = FungibleTokenPacketData {
            denom: "tok-a".to_string(),
            amount: 1 + u128::from(sequence % 1_000),
            sender: "user-1".to_string(),
            receiver: "user-2".to_string(),
            memo: String::new(),
        };
        app_packet(PortId::transfer(), sequence, data.encode())
    };
    // The mesh's production transfer stack, and the same app with nothing
    // around it: the difference is what the three layers cost a receive.
    let mut stacked = ModuleStack::new(Box::new(TransferApp::new()))
        .with(Box::new(ForwardMiddleware::new("chain-b:forward")))
        .with(Box::new(MemoHookMiddleware::new()))
        .with(Box::new(FeeMiddleware::new()));
    let mut bare = ModuleStack::new(Box::new(TransferApp::new()));
    let stacked_ns = p.ns(|i| assert!(stacked.on_recv_packet(&transfer(i)).is_success()));
    let bare_ns = p.ns(|i| assert!(bare.on_recv_packet(&transfer(i)).is_success()));
    values.insert("apps.transfer_recv_us", stacked_ns / 1_000.0);
    values.insert("apps.stack_overhead_ns", stacked_ns - bare_ns);

    let mut nfts = ModuleStack::new(Box::new(NftTransferApp::new()))
        .with(Box::new(ForwardMiddleware::new("chain-b:forward")));
    values.insert(
        "apps.nft_recv_us",
        p.us(|i| {
            let data = NftPacketData {
                class: "chain-a-art".to_string(),
                tokens: vec![format!("nft-{i}")],
                sender: "user-1".to_string(),
                receiver: "user-2".to_string(),
                memo: String::new(),
            };
            assert!(nfts
                .on_recv_packet(&app_packet(mesh::nft_port(), i, data.encode()))
                .is_success());
        }),
    );

    let mut ica = ModuleStack::new(Box::new(IcaApp::new().with_airdrop("tok-b", u128::MAX / 2)));
    let owner = "user-1".to_string();
    let register = IcaPacketData::Register { owner: owner.clone() };
    assert!(ica.on_recv_packet(&app_packet(mesh::ica_port(), 0, register.encode())).is_success());
    values.insert(
        "apps.ica_batch_us",
        p.us(|i| {
            let send =
                IcaOp::Send { denom: "tok-b".to_string(), amount: 1, to: "user-2".to_string() };
            let batch = IcaPacketData::Execute { owner: owner.clone(), ops: vec![send; 4] };
            assert!(ica
                .on_recv_packet(&app_packet(mesh::ica_port(), 1 + i, batch.encode()))
                .is_success());
        }),
    );
}

fn counterparty(p: &Prober, values: &mut Values) {
    let config = CounterpartyConfig {
        num_validators: 12,
        participation: 0.9,
        block_interval_ms: 3_000,
        rotation_interval_blocks: 0,
    };
    let keys = ibc_keys(p.keys);
    let mut chain = CounterpartyChain::new(config, SEED);
    for key in &keys {
        chain.ibc_mut().store_mut().set(key, &[0xAB; 32]).expect("fresh keys insert");
    }
    values.insert(
        "counterparty-sim.produce_block_us_10k",
        p.us(|i| {
            black_box(chain.produce_block((i + 1) * config.block_interval_ms).height);
        }),
    );
    let height = chain.height();
    values.insert(
        "counterparty-sim.prove_at_us",
        p.us(|i| {
            black_box(
                chain.prove_at(height, &keys[(i % p.keys) as usize]).expect("the head is provable"),
            );
        }),
    );
}

fn harnesses(p: &Prober, values: &mut Values) {
    // A typical counterparty commit: ~9 KiB of header, 93 signatures.
    let update = GuestOp::UpdateClient {
        client: ClientId::new(0),
        header: "x".repeat(9_000),
        num_signatures: 93,
    };
    values.insert(
        "relayer.plan_op_us",
        p.us(|buffer| {
            black_box(relayer::chunking::plan_op(black_box(&update), buffer, 93));
        }),
    );

    for (name, traffic) in [
        ("workload.next_arrival_ns.steady", TrafficConfig::steady(1_000, 7_000)),
        ("workload.next_arrival_ns.diurnal", TrafficConfig::diurnal(1_000, 7_000)),
        ("workload.next_arrival_ns.flash_crowd", TrafficConfig::flash_crowd(1_000, 7_000)),
        ("workload.next_arrival_ns.airdrop_storm", TrafficConfig::airdrop_storm(1_000, 7_000)),
    ] {
        let mut generator = TrafficGenerator::new(traffic, SEED);
        values.insert(
            name,
            p.ns(|_| {
                black_box(generator.next_arrival());
            }),
        );
    }

    let mut idle = Mesh::build(MeshConfig::line(4, SEED)).expect("line topologies validate");
    values.insert("mesh.step_idle_us", p.us(|_| idle.step()));
}

/// Runs every probe inside `budget` (each at its shortest when there is
/// none left) and returns their values.
pub fn run(budget: Duration, smoke: bool) -> Values {
    let share = budget / (PROBES * (BATCHES as u32 + 2));
    let floor = Duration::from_micros(if smoke { 50 } else { 2_000 });
    let prober =
        Prober { batch: share.clamp(floor, BATCH), keys: if smoke { 200 } else { 10_000 } };
    let mut values = Values::new();
    crypto(&prober, &mut values);
    trie(&prober, &mut values);
    host(&prober, &mut values);
    guest(&prober, &mut values);
    ibc(&prober, &mut values);
    apps(&prober, &mut values);
    counterparty(&prober, &mut values);
    harnesses(&prober, &mut values);
    values
}
