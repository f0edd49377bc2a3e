//! The host-chain (Solana) program wrapping the Guest Contract.
//!
//! Solana's runtime restrictions (§IV) do not allow calling the Guest
//! Contract the way a normal library would:
//!
//! * instruction payloads above ~1.1 KiB cannot fit in one 1232-byte
//!   transaction → large operations (light-client updates, packets with
//!   proofs) are **staged**: [`GuestInstruction::WriteChunk`] calls append
//!   into a buffer account, then one call executes the staged operation;
//! * signature verification costs so much compute that only ~4 checks fit
//!   in a transaction → [`GuestInstruction::VerifySigs`] transactions burn
//!   the verification budget incrementally before the final apply.
//!
//! This is what produces the paper's 36.5-transaction light-client updates
//! (Fig. 4) and 4–5-transaction packet deliveries (§V-A).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use host_sim::compute::costs;
use host_sim::{Event, InvokeContext, Program, ProgramError, Pubkey};
use ibc_core::channel::{Acknowledgement, Packet, Timeout};
use ibc_core::handler::ProofData;
use ibc_core::types::{ChannelId, ClientId, PortId};
use serde::{Deserialize, Serialize};
use sim_crypto::schnorr::{PublicKey, Signature};
use telemetry::{names, Telemetry};

use crate::block::SignedVote;
use crate::config::SEND_FEE_LAMPORTS;
use crate::contract::{GuestContract, GuestEvent};

/// A logical Guest Contract operation (may be larger than one transaction;
/// staged through a buffer when it is).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum GuestOp {
    /// Alg. 1 `SendPacket` — called by client contracts on the host.
    SendPacket {
        /// Source port.
        port: PortId,
        /// Source channel.
        channel: ChannelId,
        /// Application payload.
        payload: Vec<u8>,
        /// Expiry.
        timeout: Timeout,
    },
    /// An ICS-20 transfer send (the common client operation; same fee
    /// collection as [`GuestOp::SendPacket`]).
    SendTransfer {
        /// Source port.
        port: PortId,
        /// Source channel.
        channel: ChannelId,
        /// Denomination (possibly a voucher).
        denom: String,
        /// Amount.
        amount: u128,
        /// Sender ledger account.
        sender: String,
        /// Receiver account on the counterparty.
        receiver: String,
        /// Free-form memo.
        memo: String,
        /// Expiry.
        timeout: Timeout,
    },
    /// Alg. 1 `GenerateBlock` — callable by anyone.
    GenerateBlock,
    /// Alg. 1 `Sign` — called by validators.
    SignBlock {
        /// Height being signed.
        height: u64,
        /// Validator key.
        pubkey: PublicKey,
        /// Signature over the block's signing bytes.
        signature: Signature,
    },
    /// Update the guest's light client of the counterparty.
    UpdateClient {
        /// Target client.
        client: ClientId,
        /// Encoded counterparty header (its own wire format, carried as a
        /// string to avoid double-encoding overhead in the instruction).
        header: String,
        /// Number of counterparty signatures in the header; this many
        /// checks must have been burned via [`GuestInstruction::VerifySigs`]
        /// before the update can be applied.
        num_signatures: usize,
    },
    /// Alg. 1 `ReceivePacket`.
    RecvPacket {
        /// The inbound packet.
        packet: Packet,
        /// Counterparty height of the proof.
        proof_height: u64,
        /// Commitment proof.
        proof: sealable_trie::Proof,
    },
    /// Acknowledge a packet the guest sent.
    AckPacket {
        /// The acknowledged packet.
        packet: Packet,
        /// The acknowledgement.
        ack: Acknowledgement,
        /// Counterparty height of the proof.
        proof_height: u64,
        /// Ack proof.
        proof: sealable_trie::Proof,
    },
    /// Time out a packet the guest sent.
    TimeoutPacket {
        /// The expired packet.
        packet: Packet,
        /// Counterparty height of the non-membership proof.
        proof_height: u64,
        /// Receipt-absence proof.
        proof: sealable_trie::Proof,
    },
    /// Bond stake (§III-B). Lamports move from the payer to the contract.
    Stake {
        /// Candidate key.
        pubkey: PublicKey,
        /// Lamports to bond.
        amount: u64,
    },
    /// Request a validator exit.
    RequestUnstake {
        /// Exiting validator.
        pubkey: PublicKey,
    },
    /// Claim a matured withdrawal (paid out to the payer).
    ClaimUnstaked {
        /// Exiting validator.
        pubkey: PublicKey,
    },
    /// Submit fisherman evidence (§III-C).
    ReportMisbehaviour {
        /// The conflicting vote.
        vote: SignedVote,
    },
    /// Withdraw accumulated validator rewards (paid to the payer).
    ClaimRewards {
        /// The validator claiming.
        pubkey: PublicKey,
    },
    /// §VI-A: release all stakes once the chain is abandoned.
    SelfDestruct,
}

impl GuestOp {
    /// The operation's label and the name of its compute-unit counter,
    /// both static: they are looked up once per instruction.
    fn names(&self) -> (&'static str, &'static str) {
        macro_rules! names {
            ($kind:literal) => {
                ($kind, concat!("guest.cu.op.", $kind))
            };
        }
        match self {
            GuestOp::SendPacket { .. } => names!("send_packet"),
            GuestOp::SendTransfer { .. } => names!("send_transfer"),
            GuestOp::GenerateBlock => names!("generate_block"),
            GuestOp::SignBlock { .. } => names!("sign_block"),
            GuestOp::UpdateClient { .. } => names!("update_client"),
            GuestOp::RecvPacket { .. } => names!("recv_packet"),
            GuestOp::AckPacket { .. } => names!("ack_packet"),
            GuestOp::TimeoutPacket { .. } => names!("timeout_packet"),
            GuestOp::Stake { .. } => names!("stake"),
            GuestOp::RequestUnstake { .. } => names!("request_unstake"),
            GuestOp::ClaimUnstaked { .. } => names!("claim_unstaked"),
            GuestOp::ReportMisbehaviour { .. } => names!("report_misbehaviour"),
            GuestOp::ClaimRewards { .. } => names!("claim_rewards"),
            GuestOp::SelfDestruct => names!("self_destruct"),
        }
    }

    /// Wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("op serializes")
    }

    /// Parses the wire encoding.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        serde_json::from_slice(bytes).ok()
    }
}

/// One instruction to the guest program (must fit in a host transaction).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum GuestInstruction {
    /// Execute a small operation directly.
    Inline {
        /// The operation.
        op: GuestOp,
    },
    /// Append bytes to a staging buffer (sequential offsets only).
    WriteChunk {
        /// Buffer id (relayer-chosen).
        buffer: u64,
        /// Must equal the buffer's current length.
        offset: usize,
        /// Chunk bytes.
        data: Vec<u8>,
    },
    /// Burn in-contract signature-verification compute for a staged
    /// operation (~4 checks fit per transaction).
    VerifySigs {
        /// Buffer holding the staged operation.
        buffer: u64,
        /// Number of signature checks to run now.
        count: usize,
    },
    /// Decode and execute the staged operation, then drop the buffer.
    ExecStaged {
        /// Buffer holding the staged operation.
        buffer: u64,
    },
    /// Abandon a staging buffer.
    DropBuffer {
        /// Buffer id.
        buffer: u64,
    },
}

impl GuestInstruction {
    /// Wire encoding (what goes into the host instruction's data field).
    ///
    /// `WriteChunk` uses a compact binary frame — its payload dominates the
    /// transaction budget and must not pay JSON overhead; everything else
    /// is small and rides JSON.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Self::WriteChunk { buffer, offset, data } => {
                let mut out = Vec::with_capacity(1 + 8 + 4 + data.len());
                out.push(0u8);
                out.extend_from_slice(&buffer.to_le_bytes());
                out.extend_from_slice(&(*offset as u32).to_le_bytes());
                out.extend_from_slice(data);
                out
            }
            other => {
                let mut out = vec![1u8];
                out.extend_from_slice(&serde_json::to_vec(other).expect("instruction serializes"));
                out
            }
        }
    }

    /// Parses the wire encoding.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        match bytes.first()? {
            0 => Self::chunk_frame(bytes).map(|(buffer, offset, data)| Self::WriteChunk {
                buffer,
                offset,
                data: data.to_vec(),
            }),
            1 => serde_json::from_slice(&bytes[1..]).ok(),
            _ => None,
        }
    }

    /// The `(buffer, offset, data)` of a binary `WriteChunk` frame, its data
    /// still borrowed from `bytes`; `None` for any other encoding.
    fn chunk_frame(bytes: &[u8]) -> Option<(u64, usize, &[u8])> {
        let (header, data) = bytes.split_at_checked(Self::CHUNK_FRAME_OVERHEAD)?;
        if header[0] != 0 {
            return None;
        }
        let buffer = u64::from_le_bytes(header[1..9].try_into().ok()?);
        let offset = u32::from_le_bytes(header[9..13].try_into().ok()?) as usize;
        Some((buffer, offset, data))
    }

    /// The per-transaction byte overhead of a `WriteChunk` frame.
    pub const CHUNK_FRAME_OVERHEAD: usize = 13;
}

#[derive(Debug, Default)]
struct StagingBuffer {
    data: Vec<u8>,
    verified_sigs: usize,
}

/// The Solana-side program object wrapping a [`GuestContract`].
///
/// The contract is shared behind `Rc<RefCell<…>>` so the simulation
/// harness (and tests) can inspect guest state without going through
/// transactions.
pub struct GuestProgram {
    program_id: Pubkey,
    /// Account receiving packet fees and stake deposits.
    vault: Pubkey,
    contract: Rc<RefCell<GuestContract>>,
    /// Staging buffers, namespaced by fee payer: concurrent relayers
    /// (which are permissionless, §III-C) cannot corrupt each other's
    /// chunk sequences.
    buffers: HashMap<(Pubkey, u64), StagingBuffer>,
    /// Observability sink (disabled by default).
    telemetry: Telemetry,
}

impl GuestProgram {
    /// Wraps `contract` as a host program.
    pub fn new(program_id: Pubkey, vault: Pubkey, contract: Rc<RefCell<GuestContract>>) -> Self {
        Self {
            program_id,
            vault,
            contract,
            buffers: HashMap::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs an observability sink: per-instruction compute-unit
    /// attribution plus guest lifecycle and packet events. Must be called
    /// before the program is boxed into the bank.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The shared contract handle.
    pub fn contract(&self) -> Rc<RefCell<GuestContract>> {
        self.contract.clone()
    }

    fn reject(msg: impl Into<String>) -> ProgramError {
        ProgramError::Rejected(msg.into())
    }

    /// Appends `data` to the payer's staging buffer (sequential offsets only).
    fn write_chunk(
        &mut self,
        ctx: &mut InvokeContext<'_>,
        buffer: u64,
        offset: usize,
        data: &[u8],
    ) -> Result<(), ProgramError> {
        ctx.consume(costs::DATA_PER_BYTE * data.len() as u64)?;
        ctx.alloc(data.len())?;
        let entry = self.buffers.entry((ctx.payer, buffer)).or_default();
        if entry.data.len() != offset {
            return Err(Self::reject(format!(
                "non-sequential chunk: buffer at {}, offset {offset}",
                entry.data.len()
            )));
        }
        entry.data.extend_from_slice(data);
        Ok(())
    }

    fn execute_op(
        &mut self,
        ctx: &mut InvokeContext<'_>,
        op: GuestOp,
        verified_sigs: usize,
    ) -> Result<(), ProgramError> {
        let (op_kind, cu_counter) = op.names();
        let cu_before = ctx.compute_used();
        let result = self.execute_op_inner(ctx, op, verified_sigs);
        if self.telemetry.is_recording() {
            let spent = ctx.compute_used().saturating_sub(cu_before);
            self.telemetry.counter_add(cu_counter, spent);
            if result.is_err() {
                self.telemetry.counter_add(&format!("guest.op.rejected.{op_kind}"), 1);
            }
        }
        result
    }

    fn execute_op_inner(
        &mut self,
        ctx: &mut InvokeContext<'_>,
        op: GuestOp,
        verified_sigs: usize,
    ) -> Result<(), ProgramError> {
        let mut contract = self.contract.borrow_mut();
        match op {
            GuestOp::SendPacket { port, channel, payload, timeout } => {
                ctx.consume(costs::TRIE_NODE_OP * 20)?;
                ctx.consume(host_sim::compute::sha256_cost(payload.len()))?;
                ctx.alloc(payload.len())?;
                let fee = SEND_FEE_LAMPORTS;
                ctx.transfer(&ctx.payer.clone(), &self.vault, fee)?;
                contract
                    .send_packet(&port, &channel, payload, timeout, fee)
                    .map_err(|e| Self::reject(e.to_string()))?;
            }
            GuestOp::SendTransfer {
                port,
                channel,
                denom,
                amount,
                sender,
                receiver,
                memo,
                timeout,
            } => {
                ctx.consume(costs::TRIE_NODE_OP * 20 + 5_000)?;
                let fee = SEND_FEE_LAMPORTS;
                ctx.transfer(&ctx.payer.clone(), &self.vault, fee)?;
                contract
                    .send_transfer(
                        &port, &channel, &denom, amount, &sender, &receiver, &memo, timeout, fee,
                    )
                    .map_err(|e| Self::reject(e.to_string()))?;
            }
            GuestOp::GenerateBlock => {
                ctx.consume(10_000)?;
                contract
                    .generate_block(ctx.now_ms, ctx.slot)
                    .map_err(|e| Self::reject(e.to_string()))?;
            }
            GuestOp::SignBlock { height, pubkey, signature } => {
                // Validator signatures ride the cheap native-verification
                // path (Solana's ed25519 precompile), unlike in-contract
                // checks for foreign headers.
                ctx.consume(5_000)?;
                contract
                    .sign(height, pubkey, signature)
                    .map_err(|e| Self::reject(e.to_string()))?;
            }
            GuestOp::UpdateClient { client, header, num_signatures } => {
                if verified_sigs < num_signatures {
                    return Err(Self::reject(format!(
                        "{verified_sigs}/{num_signatures} header signatures verified"
                    )));
                }
                ctx.consume(20_000)?;
                ctx.alloc(header.len())?;
                contract
                    .update_counterparty_client(&client, header.as_bytes(), ctx.now_ms)
                    .map_err(|e| Self::reject(e.to_string()))?;
            }
            GuestOp::RecvPacket { packet, proof_height, proof } => {
                ctx.consume(host_sim::compute::sha256_cost(proof.encoded_len()))?;
                ctx.consume(costs::TRIE_NODE_OP * 30)?;
                ctx.alloc(packet.payload.len() + proof.encoded_len())?;
                let bytes = ibc_core::store::encode_proof(&proof);
                contract
                    .receive_packet(&packet, ProofData { height: proof_height, bytes }, ctx.now_ms)
                    .map_err(|e| Self::reject(e.to_string()))?;
            }
            GuestOp::AckPacket { packet, ack, proof_height, proof } => {
                ctx.consume(host_sim::compute::sha256_cost(proof.encoded_len()))?;
                ctx.consume(costs::TRIE_NODE_OP * 20)?;
                let bytes = ibc_core::store::encode_proof(&proof);
                contract
                    .acknowledge_packet(&packet, &ack, ProofData { height: proof_height, bytes })
                    .map_err(|e| Self::reject(e.to_string()))?;
            }
            GuestOp::TimeoutPacket { packet, proof_height, proof } => {
                ctx.consume(host_sim::compute::sha256_cost(proof.encoded_len()))?;
                ctx.consume(costs::TRIE_NODE_OP * 20)?;
                let bytes = ibc_core::store::encode_proof(&proof);
                contract
                    .timeout_packet(&packet, ProofData { height: proof_height, bytes })
                    .map_err(|e| Self::reject(e.to_string()))?;
            }
            GuestOp::Stake { pubkey, amount } => {
                ctx.consume(5_000)?;
                ctx.transfer(&ctx.payer.clone(), &self.vault, amount)?;
                contract.stake(pubkey, amount).map_err(|e| Self::reject(e.to_string()))?;
            }
            GuestOp::RequestUnstake { pubkey } => {
                ctx.consume(5_000)?;
                contract
                    .request_unstake(&pubkey, ctx.now_ms)
                    .map_err(|e| Self::reject(e.to_string()))?;
            }
            GuestOp::ClaimUnstaked { pubkey } => {
                ctx.consume(5_000)?;
                let amount = contract
                    .claim_unstaked(&pubkey, ctx.now_ms)
                    .map_err(|e| Self::reject(e.to_string()))?;
                ctx.transfer(&self.vault, &ctx.payer.clone(), amount)?;
            }
            GuestOp::ReportMisbehaviour { vote } => {
                // One in-contract signature check to validate the evidence.
                ctx.consume(costs::SIGNATURE_VERIFY)?;
                contract.report_misbehaviour(&vote).map_err(|e| Self::reject(e.to_string()))?;
            }
            GuestOp::ClaimRewards { pubkey } => {
                ctx.consume(5_000)?;
                let amount =
                    contract.claim_rewards(&pubkey).map_err(|e| Self::reject(e.to_string()))?;
                ctx.transfer(&self.vault, &ctx.payer.clone(), amount)?;
            }
            GuestOp::SelfDestruct => {
                ctx.consume(10_000)?;
                let released =
                    contract.self_destruct(ctx.now_ms).map_err(|e| Self::reject(e.to_string()))?;
                let total: u64 = released.iter().map(|(_, amount)| amount).sum();
                // Funds leave the vault; per-validator payout accounts are
                // modelled as a single release to the payer (the caller
                // distributes off-chain in this simulation).
                ctx.transfer(&self.vault, &ctx.payer.clone(), total)?;
            }
        }

        // Surface guest events as host events so off-chain actors see them.
        for event in contract.drain_events() {
            let name = match &event {
                GuestEvent::NewBlock { .. } => "NewBlock",
                GuestEvent::FinalisedBlock { .. } => "FinalisedBlock",
                GuestEvent::EpochRotated { .. } => "EpochRotated",
                GuestEvent::ValidatorSlashed { .. } => "ValidatorSlashed",
                GuestEvent::Ibc(_) => "Ibc",
            };
            self.record_guest_event(ctx.now_ms, &event);
            ctx.emit(Event::encode(self.program_id, name, event));
        }
        Ok(())
    }

    /// Mirrors a guest event into the telemetry journal: lifecycle events
    /// for packets (keyed by `(source_channel, sequence)`, the identity
    /// that survives the hop across chains) plus finalisation and epoch
    /// milestones. `NewBlock` is deliberately omitted — only finalisation
    /// is a lifecycle edge.
    fn record_guest_event(&self, now_ms: host_sim::TimeMs, event: &GuestEvent) {
        if !self.telemetry.is_recording() {
            return;
        }
        match event {
            GuestEvent::NewBlock { .. } => {}
            GuestEvent::FinalisedBlock { block, signatures } => {
                self.telemetry.event(
                    now_ms,
                    names::GUEST_FINALISED,
                    &[],
                    &[("height", block.height.into()), ("signatures", signatures.len().into())],
                );
            }
            GuestEvent::EpochRotated { validators, .. } => {
                self.telemetry.event(
                    now_ms,
                    names::GUEST_EPOCH,
                    &[],
                    &[("validators", (*validators).into())],
                );
            }
            GuestEvent::ValidatorSlashed { amount, .. } => {
                self.telemetry.event(
                    now_ms,
                    "guest.validator.slashed",
                    &[],
                    &[("amount", (*amount).into())],
                );
            }
            GuestEvent::Ibc(ibc) => {
                let Some(step) = ibc.packet_step() else { return };
                if let Some(counter) = step.counter {
                    self.telemetry.counter_add(&format!("guest.{counter}"), 1);
                }
                // The trace key needs the packet's *origin* chain.
                let (packet, origin) = (step.packet, if step.sent_here { "guest" } else { "cp" });
                let trace = self.telemetry.trace_for_packet(
                    origin,
                    packet.source_channel.as_str(),
                    packet.sequence,
                );
                let traces: Vec<_> = trace.into_iter().collect();
                let mut fields = step.fields("guest");
                fields.push(("payload_bytes", packet.payload.len().into()));
                self.telemetry.event(now_ms, step.name, &traces, &fields);
            }
        }
    }
}

impl Program for GuestProgram {
    fn process_instruction(
        &mut self,
        ctx: &mut InvokeContext<'_>,
        data: &[u8],
    ) -> Result<(), ProgramError> {
        macro_rules! counters {
            ($kind:literal) => {
                (concat!("guest.instructions.", $kind), concat!("guest.cu.instruction.", $kind))
            };
        }
        let cu_before = ctx.compute_used();
        // Every `?` below leaves before the counters, a failed chunk included.
        let ((count_counter, cu_counter), result) = match GuestInstruction::chunk_frame(data) {
            // Chunks are most of the instructions: append one straight from
            // the transaction's bytes, not through an owned `WriteChunk`.
            Some((buffer, offset, chunk)) => {
                self.write_chunk(ctx, buffer, offset, chunk)?;
                (counters!("write_chunk"), Ok(()))
            }
            None => match GuestInstruction::decode(data)
                .ok_or_else(|| ProgramError::InvalidInstruction("undecodable".into()))?
            {
                GuestInstruction::Inline { op } => {
                    (counters!("inline"), self.execute_op(ctx, op, 0))
                }
                GuestInstruction::WriteChunk { buffer, offset, data } => {
                    self.write_chunk(ctx, buffer, offset, &data)?;
                    (counters!("write_chunk"), Ok(()))
                }
                GuestInstruction::VerifySigs { buffer, count } => {
                    ctx.consume(costs::SIGNATURE_VERIFY * count as u64)?;
                    let entry = self
                        .buffers
                        .get_mut(&(ctx.payer, buffer))
                        .ok_or_else(|| Self::reject("unknown staging buffer"))?;
                    entry.verified_sigs += count;
                    (counters!("verify_sigs"), Ok(()))
                }
                GuestInstruction::ExecStaged { buffer } => {
                    // Staged bytes that do not decode drop their buffer. The
                    // pipelined relayer's batch-failure rule reads this
                    // (`Relayer::settle_failures` replays the whole plan);
                    // `undecodable_staged_bytes_drop_the_buffer` pins it.
                    let key = (ctx.payer, buffer);
                    let staged = self
                        .buffers
                        .remove(&key)
                        .ok_or_else(|| Self::reject("unknown staging buffer"))?;
                    let op = GuestOp::decode(&staged.data)
                        .ok_or_else(|| Self::reject("staged bytes do not decode to an op"))?;
                    let result = self.execute_op(ctx, op, staged.verified_sigs);
                    if result.is_err() {
                        // Keep the buffer so the relayer can retry (e.g.
                        // more VerifySigs transactions needed).
                        self.buffers.insert(key, staged);
                    }
                    (counters!("exec_staged"), result)
                }
                GuestInstruction::DropBuffer { buffer } => {
                    self.buffers.remove(&(ctx.payer, buffer));
                    (counters!("drop_buffer"), Ok(()))
                }
            },
        };
        if self.telemetry.is_recording() {
            self.telemetry.counter_add(count_counter, 1);
            let spent = ctx.compute_used().saturating_sub(cu_before);
            self.telemetry.counter_add(cu_counter, spent);
        }
        result
    }

    fn state_size(&self) -> usize {
        let buffers: usize = self.buffers.values().map(|b| b.data.len() + 16).sum();
        self.contract.borrow().state_size() + buffers
    }
}

impl core::fmt::Debug for GuestProgram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("GuestProgram")
            .field("program_id", &self.program_id)
            .field("buffers", &self.buffers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GuestConfig;
    use host_sim::{CongestionModel, FeePolicy, HostChain, Instruction, Transaction};
    use ibc_core::client::{MockClient, MockHeader};
    use sim_crypto::schnorr::Keypair;

    struct Fixture {
        chain: HostChain,
        program_id: Pubkey,
        payer: Pubkey,
        contract: Rc<RefCell<GuestContract>>,
        keypairs: Vec<Keypair>,
    }

    fn setup() -> Fixture {
        let mut chain = HostChain::new(CongestionModel::idle(), 1);
        let program_id = Pubkey::from_label("guest-program");
        let vault = Pubkey::from_label("guest-vault");
        let payer = Pubkey::from_label("payer");
        chain.bank_mut().airdrop(payer, 1_000_000_000_000);
        chain.bank_mut().airdrop(vault, 1);

        let keypairs: Vec<Keypair> = (0..4).map(Keypair::from_seed).collect();
        let validators = keypairs.iter().map(|kp| (kp.public(), 100)).collect();
        let contract =
            Rc::new(RefCell::new(GuestContract::new(GuestConfig::fast(), validators, 0, 0)));
        let program = GuestProgram::new(program_id, vault, contract.clone());
        chain.bank_mut().register_program(program_id, Box::new(program));
        Fixture { chain, program_id, payer, contract, keypairs }
    }

    fn submit(fixture: &mut Fixture, instruction: &GuestInstruction) -> host_sim::TxOutcome {
        let tx = Transaction::build(
            fixture.payer,
            1,
            vec![Instruction::new(fixture.program_id, vec![], instruction.encode())],
            FeePolicy::BaseOnly,
        )
        .unwrap();
        let id = fixture.chain.submit(tx);
        let block = fixture.chain.advance_slot();
        let (_, outcome) = block
            .transactions
            .iter()
            .find(|(tid, _)| *tid == id)
            .expect("included next slot on idle chain");
        host_sim::TxOutcome {
            result: outcome.result.clone(),
            fee_lamports: outcome.fee_lamports,
            compute_units: outcome.compute_units,
            events: outcome.events.clone(),
        }
    }

    #[test]
    fn generate_and_sign_through_transactions() {
        let mut fixture = setup();
        // Advance host time past Δ (fast config: 10 s).
        for _ in 0..30 {
            fixture.chain.advance_slot();
        }
        let outcome =
            submit(&mut fixture, &GuestInstruction::Inline { op: GuestOp::GenerateBlock });
        assert!(outcome.is_ok(), "{:?}", outcome.result);
        assert!(outcome.events.iter().any(|e| e.name == "NewBlock"));

        let block = fixture.contract.borrow().head();
        assert_eq!(block.height, 1);
        let keypairs = fixture.keypairs.clone();
        for (i, kp) in keypairs.iter().take(3).enumerate() {
            let outcome = submit(
                &mut fixture,
                &GuestInstruction::Inline {
                    op: GuestOp::SignBlock {
                        height: 1,
                        pubkey: kp.public(),
                        signature: kp.sign(&block.signing_bytes()),
                    },
                },
            );
            assert!(outcome.is_ok(), "signer {i}: {:?}", outcome.result);
        }
        assert!(fixture.contract.borrow().is_finalised(1));
    }

    #[test]
    fn duplicate_sign_rejected_on_chain() {
        let mut fixture = setup();
        for _ in 0..30 {
            fixture.chain.advance_slot();
        }
        submit(&mut fixture, &GuestInstruction::Inline { op: GuestOp::GenerateBlock });
        let block = fixture.contract.borrow().head();
        let kp = &fixture.keypairs[0];
        let sign_op = GuestInstruction::Inline {
            op: GuestOp::SignBlock {
                height: 1,
                pubkey: kp.public(),
                signature: kp.sign(&block.signing_bytes()),
            },
        };
        assert!(submit(&mut fixture, &sign_op).is_ok());
        let outcome = submit(&mut fixture, &sign_op);
        assert!(matches!(outcome.result, Err(ProgramError::Rejected(_))));
    }

    #[test]
    fn stake_moves_lamports_to_vault() {
        let mut fixture = setup();
        let vault = Pubkey::from_label("guest-vault");
        let before = fixture.chain.bank().balance(&vault);
        let candidate = Keypair::from_seed(40);
        let outcome = submit(
            &mut fixture,
            &GuestInstruction::Inline {
                op: GuestOp::Stake { pubkey: candidate.public(), amount: 777 },
            },
        );
        assert!(outcome.is_ok(), "{:?}", outcome.result);
        assert_eq!(fixture.chain.bank().balance(&vault), before + 777);
        assert_eq!(fixture.contract.borrow().staking().stake_of(&candidate.public()), 777);
    }

    #[test]
    fn staged_update_requires_verified_signatures() {
        let mut fixture = setup();
        let client_id =
            fixture.contract.borrow_mut().ibc_mut().create_client(Box::new(MockClient::new()));
        let header = serde_json::to_string(&MockHeader {
            height: 5,
            root: sim_crypto::sha256(b"root"),
            timestamp_ms: 5_000,
        })
        .unwrap();
        let op = GuestOp::UpdateClient { client: client_id, header, num_signatures: 8 };
        let encoded = op.encode();

        // Stage in two chunks.
        let mid = encoded.len() / 2;
        for (offset, chunk) in [(0, &encoded[..mid]), (mid, &encoded[mid..])] {
            let outcome = submit(
                &mut fixture,
                &GuestInstruction::WriteChunk { buffer: 1, offset, data: chunk.to_vec() },
            );
            assert!(outcome.is_ok(), "{:?}", outcome.result);
        }

        // Executing before signatures are verified fails, buffer survives.
        let outcome = submit(&mut fixture, &GuestInstruction::ExecStaged { buffer: 1 });
        assert!(matches!(outcome.result, Err(ProgramError::Rejected(_))));

        // 8 signatures at 320k CU each cannot fit one transaction…
        let outcome = submit(&mut fixture, &GuestInstruction::VerifySigs { buffer: 1, count: 8 });
        assert!(matches!(outcome.result, Err(ProgramError::ComputeBudget(_))));

        // …so they are burned 4 at a time, then the update applies.
        for _ in 0..2 {
            let outcome =
                submit(&mut fixture, &GuestInstruction::VerifySigs { buffer: 1, count: 4 });
            assert!(outcome.is_ok(), "{:?}", outcome.result);
        }
        let outcome = submit(&mut fixture, &GuestInstruction::ExecStaged { buffer: 1 });
        assert!(outcome.is_ok(), "{:?}", outcome.result);
    }

    /// A pipelined relayer keeps several staging buffers in flight from one
    /// payer: their chunks interleave across blocks, each buffer keeps its
    /// own sequential offsets, and dropping one leaves the others intact.
    #[test]
    fn one_payer_stages_interleaved_buffers() {
        let mut fixture = setup();
        let client =
            fixture.contract.borrow_mut().ibc_mut().create_client(Box::new(MockClient::new()));
        let staged = |height: u64| {
            let header = serde_json::to_string(&MockHeader {
                height,
                root: sim_crypto::sha256(height.to_le_bytes()),
                timestamp_ms: height * 1_000,
            })
            .unwrap();
            GuestOp::UpdateClient { client: client.clone(), header, num_signatures: 0 }.encode()
        };
        let ops = [(1, staged(5)), (2, staged(6)), (3, staged(7))];
        let third = |bytes: &[u8], part: usize| {
            let len = bytes.len();
            (part * len / 3, bytes[part * len / 3..(part + 1) * len / 3].to_vec())
        };
        // Buffer 3 gets only its first chunk before it is dropped.
        for part in 0..3 {
            for (buffer, bytes) in &ops {
                if *buffer == 3 && part > 0 {
                    continue;
                }
                let (offset, data) = third(bytes, part);
                let write = GuestInstruction::WriteChunk { buffer: *buffer, offset, data };
                let outcome = submit(&mut fixture, &write);
                assert!(outcome.is_ok(), "buffer {buffer} part {part}: {:?}", outcome.result);
            }
        }
        assert!(submit(&mut fixture, &GuestInstruction::DropBuffer { buffer: 3 }).is_ok());
        for buffer in [1, 2] {
            let outcome = submit(&mut fixture, &GuestInstruction::ExecStaged { buffer });
            assert!(outcome.is_ok(), "buffer {buffer}: {:?}", outcome.result);
        }
        let client_height =
            fixture.contract.borrow().ibc().client(&client).unwrap().latest_height();
        assert_eq!(client_height, 6, "both staged updates applied, in order");
        let outcome = submit(&mut fixture, &GuestInstruction::ExecStaged { buffer: 3 });
        assert!(matches!(outcome.result, Err(ProgramError::Rejected(_))), "buffer 3 is gone");
    }

    /// An `ExecStaged` run on an incomplete buffer (a chunk lost in flight)
    /// finds bytes that do not decode and drops the buffer, while an op
    /// that decodes and fails keeps it. The relayer's `settle_failures`
    /// relies on this split: behind a missing chunk it rewrites the whole
    /// plan from offset 0.
    #[test]
    fn undecodable_staged_bytes_drop_the_buffer() {
        let mut fixture = setup();
        let client =
            fixture.contract.borrow_mut().ibc_mut().create_client(Box::new(MockClient::new()));
        let header = serde_json::to_string(&MockHeader {
            height: 5,
            root: sim_crypto::sha256(b"root"),
            timestamp_ms: 5_000,
        })
        .unwrap();
        let encoded = GuestOp::UpdateClient { client, header, num_signatures: 0 }.encode();
        let mid = encoded.len() / 2;
        let write = |offset: usize, data: &[u8]| GuestInstruction::WriteChunk {
            buffer: 1,
            offset,
            data: data.to_vec(),
        };

        assert!(submit(&mut fixture, &write(0, &encoded[..mid])).is_ok());
        let outcome = submit(&mut fixture, &GuestInstruction::ExecStaged { buffer: 1 });
        assert!(matches!(outcome.result, Err(ProgramError::Rejected(_))));
        // The first half is gone: the second cannot follow it, the plan
        // starts again from offset 0.
        let outcome = submit(&mut fixture, &write(mid, &encoded[mid..]));
        assert!(matches!(outcome.result, Err(ProgramError::Rejected(_))), "buffer dropped");
        for (offset, chunk) in [(0, &encoded[..mid]), (mid, &encoded[mid..])] {
            assert!(submit(&mut fixture, &write(offset, chunk)).is_ok());
        }
        let outcome = submit(&mut fixture, &GuestInstruction::ExecStaged { buffer: 1 });
        assert!(outcome.is_ok(), "{:?}", outcome.result);
    }

    #[test]
    fn non_sequential_chunk_rejected() {
        let mut fixture = setup();
        let outcome = submit(
            &mut fixture,
            &GuestInstruction::WriteChunk { buffer: 2, offset: 10, data: vec![1, 2, 3] },
        );
        assert!(matches!(outcome.result, Err(ProgramError::Rejected(_))));
    }

    #[test]
    fn oversized_inline_op_cannot_even_build_a_transaction() {
        // A 4 KiB header cannot ride a single transaction — the reason
        // staging exists.
        let op = GuestOp::UpdateClient {
            client: ClientId::new(0),
            header: "h".repeat(4096),
            num_signatures: 0,
        };
        let data = GuestInstruction::Inline { op }.encode();
        let result = Transaction::build(
            Pubkey::from_label("payer"),
            1,
            vec![Instruction::new(Pubkey::from_label("guest-program"), vec![], data)],
            FeePolicy::BaseOnly,
        );
        assert!(result.is_err());
    }

    #[test]
    fn malformed_instruction_rejected() {
        let mut fixture = setup();
        let tx = Transaction::build(
            fixture.payer,
            1,
            vec![Instruction::new(fixture.program_id, vec![], b"garbage".to_vec())],
            FeePolicy::BaseOnly,
        )
        .unwrap();
        let id = fixture.chain.submit(tx);
        let block = fixture.chain.advance_slot();
        assert!(matches!(
            block.outcome_of(id).unwrap().result,
            Err(ProgramError::InvalidInstruction(_))
        ));
    }
}
