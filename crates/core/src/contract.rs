//! The Guest Contract (Alg. 1): block production, finalisation, packets.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use host_sim::{Pubkey, MAX_ACCOUNT_SIZE};
use ibc_core::channel::{Acknowledgement, Packet, Timeout};
use ibc_core::client::{ConsensusState, TrustedSet, MEMBER_BYTES};
use ibc_core::handler::{HostTime, IbcHandler, ProofData, SelfHistory};
use ibc_core::types::{ChannelId, ClientId, IbcError, PortId};
use ibc_core::Module;
use sealable_trie::Trie;
use serde::{Deserialize, Serialize};
use sim_crypto::schnorr::{PublicKey, Signature};
use sim_crypto::time::HOUR_MS;
use sim_crypto::Hash;

use crate::block::{GuestBlock, SignedVote};
use crate::config::{GuestConfig, MIN_STAKE, REWARD_SHARE_PERCENT, SEND_FEE_LAMPORTS};
use crate::epoch::Epoch;
use crate::staking::{StakeError, StakingPool};

/// Errors from Guest Contract operations.
#[derive(Clone, Debug, PartialEq)]
pub enum GuestError {
    /// `GenerateBlock` while the head is not yet finalised (Alg. 1 l. 14).
    HeadNotFinalised,
    /// `GenerateBlock` with unchanged state before Δ elapsed (Alg. 1 l. 15).
    NothingToCommit,
    /// A height with no block (Alg. 1 l. 21).
    UnknownHeight(u64),
    /// The signer is not a validator of the block's epoch (Alg. 1 l. 22).
    NotAValidator,
    /// The validator already signed this block (Alg. 1 l. 23).
    AlreadySigned,
    /// The signature does not verify (Alg. 1 l. 24).
    BadSignature,
    /// The packet fee was not covered (Alg. 1 l. 7).
    InsufficientFee {
        /// Required fee in lamports.
        required: u64,
    },
    /// Misbehaviour evidence did not check out.
    InvalidEvidence(String),
    /// §VI-C: too many light-client updates within the window.
    RateLimited {
        /// The configured per-hour cap.
        limit: u32,
    },
    /// §VI-A: self-destruction requested while the chain is still alive.
    NotAbandoned {
        /// Time since the last guest block.
        idle_ms: u64,
        /// The configured abandonment timeout.
        required_ms: u64,
    },
    /// The account holds this many bytes, [`MAX_ACCOUNT_SIZE`] or more: an
    /// instruction that can add state is refused (DESIGN decision 21).
    AccountFull(usize),
    /// An embedded IBC operation failed.
    Ibc(IbcError),
    /// A staking operation failed.
    Stake(StakeError),
}

impl core::fmt::Display for GuestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::HeadNotFinalised => f.write_str("head block is not finalised yet"),
            Self::NothingToCommit => f.write_str("state unchanged and Δ not yet elapsed"),
            Self::UnknownHeight(h) => write!(f, "no block at height {h}"),
            Self::NotAValidator => f.write_str("signer is not a validator of this epoch"),
            Self::AlreadySigned => f.write_str("validator already signed this block"),
            Self::BadSignature => f.write_str("signature verification failed"),
            Self::InsufficientFee { required } => {
                write!(f, "insufficient fee: {required} lamports required")
            }
            Self::InvalidEvidence(msg) => write!(f, "invalid evidence: {msg}"),
            Self::RateLimited { limit } => {
                write!(f, "light-client update rate limit ({limit}/h) exceeded")
            }
            Self::NotAbandoned { idle_ms, required_ms } => {
                write!(f, "chain is not abandoned: idle {idle_ms} ms of required {required_ms} ms")
            }
            Self::AccountFull(held) => write!(f, "account full: {held} B of {MAX_ACCOUNT_SIZE}"),
            Self::Ibc(err) => write!(f, "ibc: {err}"),
            Self::Stake(err) => write!(f, "staking: {err}"),
        }
    }
}

impl std::error::Error for GuestError {}

impl From<IbcError> for GuestError {
    fn from(err: IbcError) -> Self {
        Self::Ibc(err)
    }
}

impl From<StakeError> for GuestError {
    fn from(err: StakeError) -> Self {
        Self::Stake(err)
    }
}

/// Events emitted by the Guest Contract, observed by Validators and
/// Relayers (Alg. 2).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum GuestEvent {
    /// A new block awaits signatures (Alg. 1 l. 18).
    NewBlock {
        /// The unsigned block.
        block: GuestBlock,
    },
    /// A block reached quorum (Alg. 1 l. 30). Carries the signatures so a
    /// relayer can assemble a light-client header for the counterparty.
    FinalisedBlock {
        /// The finalised block.
        block: GuestBlock,
        /// Quorum signatures, sorted by public key.
        signatures: Vec<(PublicKey, Signature)>,
    },
    /// The validator set rotated at an epoch boundary.
    EpochRotated {
        /// New epoch id.
        epoch_id: Hash,
        /// New validator count.
        validators: usize,
    },
    /// A validator was slashed after proven misbehaviour (§III-C).
    ValidatorSlashed {
        /// The misbehaving validator.
        pubkey: PublicKey,
        /// Stake burned (0 when slashing is disabled, as in the paper's
        /// deployment).
        amount: u64,
    },
    /// An embedded IBC event (packet life cycle, handshakes, clients).
    Ibc(ibc_core::IbcEvent),
}

/// One height of the block log: the block, its hash, its signatures and
/// whether it is final.
#[derive(Debug)]
struct BlockRecord {
    block: GuestBlock,
    /// `block.hash()`, taken once when the block is generated: every
    /// signature on the block, and the next block's `prev_hash`, needs it.
    hash: Hash,
    /// Sorted by key.
    signatures: Vec<(PublicKey, Signature)>,
    finalised: bool,
}

impl BlockRecord {
    fn new(block: GuestBlock) -> Self {
        Self { hash: block.hash(), block, signatures: Vec::new(), finalised: false }
    }
}

/// The guest's block log, shared; doubles as the chain's [`SelfHistory`]
/// for handshake self-validation (block introspection, §VI-D).
#[derive(Debug, Default)]
pub struct BlockHistory {
    log: Rc<RefCell<Vec<BlockRecord>>>,
}

impl SelfHistory for BlockHistory {
    fn self_consensus_at(&self, height: u64) -> Option<ConsensusState> {
        self.log.borrow().get(height as usize).map(|record| ConsensusState {
            root: record.block.state_root,
            timestamp_ms: record.block.timestamp_ms,
        })
    }
}

/// A staged operation (§IV): its bytes, written chunk by chunk, and the
/// header signatures verified for it so far.
#[derive(Debug, Default)]
pub(crate) struct StagingBuffer {
    pub(crate) data: Vec<u8>,
    pub(crate) verified_sigs: usize,
}

/// The staging buffers, namespaced by fee payer so that concurrent
/// relayers (which are permissionless, §III-C) cannot corrupt each other's
/// chunk sequences, and the bytes they hold, data included.
#[derive(Debug, Default)]
pub(crate) struct Staging {
    buffers: HashMap<(Pubkey, u64), StagingBuffer>,
    bytes: usize,
}

impl Staging {
    /// Appends `data` to buffer `key`; `Err` with the buffer's length when
    /// that is not `offset`.
    pub(crate) fn write(
        &mut self,
        key: (Pubkey, u64),
        offset: usize,
        data: &[u8],
    ) -> Result<(), usize> {
        let buffer = self.buffers.entry(key).or_insert_with(|| {
            self.bytes += layout::BUFFER;
            StagingBuffer::default()
        });
        if buffer.data.len() != offset {
            return Err(buffer.data.len());
        }
        buffer.data.extend_from_slice(data);
        self.bytes += data.len();
        Ok(())
    }

    /// Counts `count` more signatures verified for buffer `key`, if any.
    pub(crate) fn verify(&mut self, key: &(Pubkey, u64), count: usize) -> Option<()> {
        self.buffers.get_mut(key).map(|buffer| buffer.verified_sigs += count)
    }

    /// Removes buffer `key`, releasing its bytes.
    pub(crate) fn take(&mut self, key: &(Pubkey, u64)) -> Option<StagingBuffer> {
        let buffer = self.buffers.remove(key)?;
        self.bytes -= layout::BUFFER + buffer.data.len();
        Some(buffer)
    }

    /// Puts back a buffer [`Self::take`] removed.
    pub(crate) fn put(&mut self, key: (Pubkey, u64), buffer: StagingBuffer) {
        self.bytes += layout::BUFFER + buffer.data.len();
        self.buffers.insert(key, buffer);
    }
}

/// The binary layout of each record the guest holds in its account
/// (DESIGN decision 21): keys and hashes 32 B, signatures 64 B, u64
/// integers 8 B, flags 1 B. A validator, a stake and a reward balance are
/// a key and an amount, [`MEMBER_BYTES`].
mod layout {
    use super::{Hash, Pubkey, PublicKey, Signature};
    pub const INT: usize = 8;
    /// Fees collected and undistributed, treasury; destroyed flag.
    pub const HEADER: usize = 3 * INT + 1;
    /// Height, timestamp, host height; previous hash, state root, epoch
    /// id, own hash; final flag; the length of the set it announces.
    pub const BLOCK: usize = 3 * INT + 4 * Hash::LEN + 1 + INT;
    pub const SIGNATURE: usize = PublicKey::LEN + Signature::LEN;
    /// The current epoch's id and first host height.
    pub const EPOCH: usize = Hash::LEN + INT;
    /// Key, amount, release time.
    pub const WITHDRAWAL: usize = PublicKey::LEN + 2 * INT;
    /// Payer, buffer id, verified-signature count.
    pub const BUFFER: usize = size_of::<Pubkey>() + 2 * INT;
}

/// The bytes the guest holds in its host account, by collection
/// ([`GuestContract::account_bytes`]). App ledgers (ICS-20 and NFT
/// balances, fee escrow) are not among them: like token accounts on
/// Solana, they live in accounts of their own.
pub type AccountBytes = [(&'static str, usize); 10];

/// The Guest Contract: the on-host smart contract that *is* the guest
/// blockchain (paper §III-A, Alg. 1).
///
/// It owns the provable state (a sealable trie driven through the embedded
/// [`IbcHandler`]), produces guest blocks, collects validator signatures
/// and finalises blocks at quorum, and processes inbound/outbound IBC
/// packets.
///
/// # Examples
///
/// The Alg. 1 block life cycle — generate, sign to quorum, finalise:
///
/// ```
/// use guest_chain::{GuestConfig, GuestContract};
/// use sim_crypto::schnorr::Keypair;
///
/// let validators: Vec<Keypair> = (0..3).map(Keypair::from_seed).collect();
/// let genesis = validators.iter().map(|kp| (kp.public(), 100)).collect();
/// let mut contract = GuestContract::new(GuestConfig::fast(), genesis, 0, 0);
///
/// // Δ (10 s in the fast config) elapsed: an empty block is allowed.
/// let block = contract.generate_block(15_000, 10)?;
/// for keypair in &validators {
///     let finalised = contract.sign(
///         block.height,
///         keypair.public(),
///         keypair.sign(&block.signing_bytes()),
///     )?;
///     if finalised {
///         break;
///     }
/// }
/// assert!(contract.is_finalised(block.height));
/// # Ok::<(), guest_chain::GuestError>(())
/// ```
pub struct GuestContract {
    config: GuestConfig,
    ibc: IbcHandler<Trie>,
    /// One record per height, shared with [`BlockHistory`].
    log: Rc<RefCell<Vec<BlockRecord>>>,
    /// Bytes of the log's blocks and of its signatures, kept as written.
    block_bytes: usize,
    signature_bytes: usize,
    current_epoch: Epoch,
    /// `current_epoch.id()`, which hashes the whole validator set: taken
    /// once per epoch, not once per `generate_block` and `sign`.
    current_epoch_id: Hash,
    epoch_start_host_height: u64,
    staking: StakingPool,
    events: Vec<GuestEvent>,
    fees_collected: u64,
    client_update_times: HashMap<ClientId, Vec<u64>>,
    destroyed: bool,
    /// Fees accrued since the last finalised block, feeding the next
    /// block's reward pot.
    undistributed_fees: u64,
    reward_balances: HashMap<PublicKey, u64>,
    /// The protocol's share of fees (everything not paid out as rewards).
    treasury: u64,
    /// Written by `GuestProgram`'s chunked instructions.
    pub(crate) staging: Staging,
}

/// How many generated blocks' committed states
/// [`GuestContract::prove_at`] keeps. Without them, sustained traffic
/// mutates the live trie between block generation and relay, proofs
/// against the finalised root stop verifying, and the relayer's backlog
/// grows without bound. Relayers prove against the latest finalised
/// block, so a handful of heights of slack is plenty.
const PROOF_SNAPSHOT_HISTORY: usize = 8;

impl GuestContract {
    /// Deploys the contract with an initial validator set.
    ///
    /// The genesis block is created finalised (it needs no signatures: its
    /// contents are part of the deployment everyone verifies off-chain).
    pub fn new(
        config: GuestConfig,
        genesis_validators: Vec<(PublicKey, u64)>,
        now_ms: u64,
        host_height: u64,
    ) -> Self {
        let mut staking = StakingPool::new();
        for (pubkey, stake) in &genesis_validators {
            staking.stake(*pubkey, *stake, MIN_STAKE).expect("genesis stakes meet the minimum");
        }
        let epoch = staking.select_validators(config.max_validators, MIN_STAKE);
        let mut ibc = IbcHandler::new(Trie::new());
        let genesis = GuestBlock::genesis(&epoch, ibc.root(), now_ms, host_height);
        ibc.store_mut().checkpoint(genesis.height, PROOF_SNAPSHOT_HISTORY);
        let log = Rc::new(RefCell::new(vec![BlockRecord {
            finalised: true,
            ..BlockRecord::new(genesis)
        }]));
        ibc.set_self_history(Box::new(BlockHistory { log: log.clone() }));
        Self {
            config,
            ibc,
            log,
            block_bytes: layout::BLOCK,
            signature_bytes: 0,
            current_epoch_id: epoch.id(),
            current_epoch: epoch,
            epoch_start_host_height: host_height,
            staking,
            events: Vec::new(),
            fees_collected: 0,
            client_update_times: HashMap::new(),
            destroyed: false,
            undistributed_fees: 0,
            reward_balances: HashMap::new(),
            treasury: 0,
            staging: Staging::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GuestConfig {
        &self.config
    }

    /// The current head block.
    pub fn head(&self) -> GuestBlock {
        self.log.borrow().last().expect("genesis always exists").block.clone()
    }

    /// Height of the head block.
    pub fn head_height(&self) -> u64 {
        self.log.borrow().len() as u64 - 1
    }

    /// The block at `height`, if produced.
    pub fn block_at(&self, height: u64) -> Option<GuestBlock> {
        self.log.borrow().get(height as usize).map(|record| record.block.clone())
    }

    /// [`GuestBlock::hash`] of the block at `height`, if produced.
    pub fn block_hash_at(&self, height: u64) -> Option<Hash> {
        self.log.borrow().get(height as usize).map(|record| record.hash)
    }

    /// Whether the block at `height` is finalised.
    pub fn is_finalised(&self, height: u64) -> bool {
        self.log.borrow().get(height as usize).is_some_and(|record| record.finalised)
    }

    /// The epoch whose validators sign new blocks.
    pub fn current_epoch(&self) -> &Epoch {
        &self.current_epoch
    }

    /// The staking pool (candidates for the next epoch).
    pub fn staking(&self) -> &StakingPool {
        &self.staking
    }

    /// Total packet fees collected (Alg. 1 l. 7).
    pub fn fees_collected(&self) -> u64 {
        self.fees_collected
    }

    /// The guest chain's current provable-state root.
    pub fn state_root(&self) -> Hash {
        self.ibc.root()
    }

    /// Storage statistics of the sealable trie (for §V-D experiments).
    pub fn storage_stats(&self) -> sealable_trie::StoreStats {
        self.ibc.store().stats()
    }

    /// Merkle proof of `key` as of block `height` — the proof-at-height
    /// query a full node answers for relayers. `None` when the height's
    /// checkpoint has been evicted (older than the last
    /// [`PROOF_SNAPSHOT_HISTORY`] generated blocks) or the key cannot be
    /// proven at that height.
    pub fn prove_at(&self, height: u64, key: &[u8]) -> Option<sealable_trie::Proof> {
        self.ibc.store().prove_at(height, key)
    }

    /// Removes and returns all pending events.
    pub fn drain_events(&mut self) -> Vec<GuestEvent> {
        let mut events = std::mem::take(&mut self.events);
        // Surface IBC events too, in order.
        events.extend(self.ibc.drain_events().into_iter().map(GuestEvent::Ibc));
        events
    }

    // ------------------------------------------------------------------
    // Alg. 1 — block production and finalisation
    // ------------------------------------------------------------------

    /// Whether `GenerateBlock` would cut a block at `now_ms` (Alg. 1
    /// l. 14–15): the head is finalised, and either the state root changed
    /// or the head is at least Δ old. [`Self::generate_block`] asserts this,
    /// and a relayer asks it before paying for the transaction.
    ///
    /// # Errors
    ///
    /// [`GuestError::HeadNotFinalised`] / [`GuestError::NothingToCommit`]
    /// per the algorithm's assertions.
    fn block_due(&self, now_ms: u64) -> Result<(), GuestError> {
        match self.block_due_from() {
            None => Err(GuestError::HeadNotFinalised),
            Some(from) if now_ms < from => Err(GuestError::NothingToCommit),
            Some(_) => Ok(()),
        }
    }

    /// The first instant at which `Self::block_due` holds while the
    /// contract stays as it is: `None` while the head is unfinalised, 0
    /// once the state root moved past the head's, else the head's time
    /// plus Δ. Only the contract's state moves it, never the clock.
    pub fn block_due_from(&self) -> Option<u64> {
        let log = self.log.borrow();
        let head = log.last().expect("genesis always exists");
        if !head.finalised {
            return None;
        }
        if self.ibc.root() != head.block.state_root || self.config.delta_ms == 0 {
            return Some(0);
        }
        Some(head.block.timestamp_ms.saturating_add(self.config.delta_ms))
    }

    /// `GenerateBlock` (Alg. 1 l. 12–18): creates a new guest block when
    /// `Self::block_due` holds. Callable by anyone.
    ///
    /// # Errors
    ///
    /// Those of `Self::block_due`.
    pub fn generate_block(
        &mut self,
        now_ms: u64,
        host_height: u64,
    ) -> Result<GuestBlock, GuestError> {
        self.block_due(now_ms)?;
        let state_root = self.ibc.root();

        // Epoch rotation: the last block of an epoch announces the next
        // validator set (light clients adopt it when verifying the block).
        let next_epoch = if host_height - self.epoch_start_host_height
            >= self.config.min_epoch_length_host_blocks
        {
            let next = self.staking.select_validators(self.config.max_validators, MIN_STAKE);
            // Never rotate into an empty set: that would halt the chain.
            (!next.is_empty()).then_some(next)
        } else {
            None
        };

        let block = GuestBlock {
            height: self.head_height() + 1,
            prev_hash: self.log.borrow().last().expect("genesis always exists").hash,
            state_root,
            timestamp_ms: now_ms,
            host_height,
            epoch_id: self.current_epoch_id,
            next_epoch,
        };
        self.block_bytes +=
            layout::BLOCK + block.next_epoch.as_ref().map_or(0, |next| next.len() * MEMBER_BYTES);
        self.log.borrow_mut().push(BlockRecord::new(block.clone()));
        self.events.push(GuestEvent::NewBlock { block: block.clone() });
        // Checkpoint the state this block committed to, so proofs against
        // its root keep verifying after the live trie moves on.
        self.ibc.store_mut().checkpoint(block.height, PROOF_SNAPSHOT_HISTORY);
        Ok(block)
    }

    /// `Sign` (Alg. 1 l. 19–31): records a validator signature; finalises
    /// the block (and rotates the epoch if it closes one) at quorum.
    ///
    /// Returns `true` if this signature finalised the block.
    ///
    /// # Errors
    ///
    /// Mirrors the algorithm's assertions: [`GuestError::UnknownHeight`],
    /// [`GuestError::NotAValidator`], [`GuestError::AlreadySigned`],
    /// [`GuestError::BadSignature`].
    pub fn sign(
        &mut self,
        height: u64,
        pubkey: PublicKey,
        signature: Signature,
    ) -> Result<bool, GuestError> {
        let mut log = self.log.borrow_mut();
        let record = log.get_mut(height as usize).ok_or(GuestError::UnknownHeight(height))?;
        // The epoch that must sign this block is the one recorded in it;
        // only the *current* epoch's blocks are still signable (older ones
        // are final by construction).
        if record.block.epoch_id != self.current_epoch_id || !self.current_epoch.contains(&pubkey) {
            return Err(GuestError::NotAValidator);
        }
        let Err(slot) = record.signatures.binary_search_by_key(&pubkey, |(pk, _)| *pk) else {
            return Err(GuestError::AlreadySigned);
        };
        if !pubkey.verify(&GuestBlock::signing_bytes_for(height, &record.hash), &signature) {
            return Err(GuestError::BadSignature);
        }
        record.signatures.insert(slot, (pubkey, signature));
        self.signature_bytes += layout::SIGNATURE;

        if record.finalised {
            return Ok(false);
        }
        let votes: u64 =
            record.signatures.iter().filter_map(|(pk, _)| self.current_epoch.stake_of(pk)).sum();
        if votes < self.current_epoch.quorum_stake() {
            return Ok(false);
        }
        record.finalised = true;
        let (block, sorted) = (record.block.clone(), record.signatures.clone());
        drop(log);

        // Distribute the reward pot among this block's signers, pro rata
        // by stake — the incentive completing the §V-C design ("with a
        // full implementation of all the incentives, Validators will
        // engage in the system").
        if self.undistributed_fees > 0 {
            let pot = self.undistributed_fees * REWARD_SHARE_PERCENT / 100;
            let signer_stake: u64 =
                sorted.iter().filter_map(|(pk, _)| self.current_epoch.stake_of(pk)).sum();
            let mut paid = 0;
            for (pubkey, _) in &sorted {
                let Some(stake) = self.current_epoch.stake_of(pubkey) else { continue };
                // `checked_div` guards the (unreachable) zero-stake epoch.
                let share = (pot * stake).checked_div(signer_stake).unwrap_or(0);
                *self.reward_balances.entry(*pubkey).or_default() += share;
                paid += share;
            }
            if paid > 0 {
                // The remainder (the protocol share plus rounding dust) is
                // treasury revenue, not carried into the next pot.
                self.treasury += self.undistributed_fees - paid;
                self.undistributed_fees = 0;
            }
        }

        self.events.push(GuestEvent::FinalisedBlock { block: block.clone(), signatures: sorted });

        if let Some(next) = block.next_epoch {
            self.current_epoch_id = next.id();
            self.current_epoch = next;
            self.epoch_start_host_height = block.host_height;
            self.events.push(GuestEvent::EpochRotated {
                epoch_id: self.current_epoch_id,
                validators: self.current_epoch.len(),
            });
        }
        Ok(true)
    }

    /// Signatures recorded so far for `height`, sorted by key.
    pub fn signatures_at(&self, height: u64) -> Vec<(PublicKey, Signature)> {
        self.log
            .borrow()
            .get(height as usize)
            .map(|record| record.signatures.clone())
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Alg. 1 — packets
    // ------------------------------------------------------------------

    /// `SendPacket` (Alg. 1 l. 6–11): collects the fee, assigns the next
    /// sequence number and stores the packet commitment.
    ///
    /// # Errors
    ///
    /// [`GuestError::InsufficientFee`] or the embedded IBC error.
    pub fn send_packet(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        payload: Vec<u8>,
        timeout: Timeout,
        fee_paid: u64,
    ) -> Result<Packet, GuestError> {
        if fee_paid < SEND_FEE_LAMPORTS {
            return Err(GuestError::InsufficientFee { required: SEND_FEE_LAMPORTS });
        }
        self.fees_collected += fee_paid;
        self.undistributed_fees += fee_paid;
        Ok(self.ibc.send_packet(port_id, channel_id, payload, timeout)?)
    }

    /// An ICS-20 transfer entry point with the same fee gate as
    /// [`Self::send_packet`]: debits the sender in the transfer ledger and
    /// commits the packet.
    ///
    /// # Errors
    ///
    /// [`GuestError::InsufficientFee`] or the embedded IBC/app error.
    #[allow(clippy::too_many_arguments)]
    pub fn send_transfer(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        denom: &str,
        amount: u128,
        sender: &str,
        receiver: &str,
        memo: &str,
        timeout: Timeout,
        fee_paid: u64,
    ) -> Result<Packet, GuestError> {
        if fee_paid < SEND_FEE_LAMPORTS {
            return Err(GuestError::InsufficientFee { required: SEND_FEE_LAMPORTS });
        }
        self.fees_collected += fee_paid;
        self.undistributed_fees += fee_paid;
        Ok(ibc_core::ics20::send_transfer(
            &mut self.ibc,
            port_id,
            channel_id,
            denom,
            amount,
            sender,
            receiver,
            memo,
            timeout,
        )?)
    }

    /// `ReceivePacket` (Alg. 1 l. 32–39): verifies the counterparty proof,
    /// rejects duplicates via the sealed receipt and delivers the payload.
    ///
    /// # Errors
    ///
    /// The embedded IBC error ([`IbcError::DuplicatePacket`] on
    /// redelivery).
    pub fn receive_packet(
        &mut self,
        packet: &Packet,
        proof: ProofData,
        now_ms: u64,
    ) -> Result<Acknowledgement, GuestError> {
        let now = HostTime { height: self.head_height(), timestamp_ms: now_ms };
        Ok(self.ibc.recv_packet(packet, proof, now)?)
    }

    /// Processes an acknowledgement for a packet the guest sent.
    ///
    /// # Errors
    ///
    /// The embedded IBC error.
    pub fn acknowledge_packet(
        &mut self,
        packet: &Packet,
        ack: &Acknowledgement,
        proof: ProofData,
    ) -> Result<(), GuestError> {
        Ok(self.ibc.acknowledge_packet(packet, ack, proof)?)
    }

    /// Times out a packet the guest sent.
    ///
    /// # Errors
    ///
    /// The embedded IBC error.
    pub fn timeout_packet(
        &mut self,
        packet: &Packet,
        proof_unreceived: ProofData,
    ) -> Result<(), GuestError> {
        Ok(self.ibc.timeout_packet(packet, proof_unreceived)?)
    }

    // ------------------------------------------------------------------
    // IBC plumbing (clients, handshakes, apps)
    // ------------------------------------------------------------------

    /// Direct access to the embedded IBC handler (handshakes, queries).
    pub fn ibc(&self) -> &IbcHandler<Trie> {
        &self.ibc
    }

    /// Mutable access to the embedded IBC handler.
    pub fn ibc_mut(&mut self) -> &mut IbcHandler<Trie> {
        &mut self.ibc
    }

    /// Feeds a counterparty header to its light client, enforcing the
    /// §VI-C rate limit (a compromised counterparty can inject arbitrary
    /// packets; capping the update rate gives honest actors time to react).
    ///
    /// # Errors
    ///
    /// [`GuestError::RateLimited`] past the per-hour cap, or the client's
    /// verification error.
    pub fn update_counterparty_client(
        &mut self,
        client_id: &ClientId,
        header: &[u8],
        now_ms: u64,
    ) -> Result<u64, GuestError> {
        let limit = self.config.max_client_updates_per_hour;
        if !self.admits_client_update(client_id, now_ms) {
            return Err(GuestError::RateLimited { limit });
        }
        let height = self.ibc.update_client(client_id, header)?;
        if limit > 0 {
            let times = self.client_update_times.entry(client_id.clone()).or_default();
            times.retain(|t| now_ms.saturating_sub(*t) < HOUR_MS);
            times.push(now_ms);
        }
        Ok(height)
    }

    /// Whether the §VI-C cap admits an update of `client_id` at `now_ms`:
    /// fewer than `max_client_updates_per_hour` landed in the hour before
    /// (always, with the cap off). A relayer reads this before it pays for
    /// an update the contract would refuse.
    pub fn admits_client_update(&self, client_id: &ClientId, now_ms: u64) -> bool {
        let limit = self.config.max_client_updates_per_hour as usize;
        let recent = self.client_update_times.get(client_id).map_or(0, |times| {
            times.iter().filter(|t| now_ms.saturating_sub(**t) < HOUR_MS).count()
        });
        limit == 0 || recent < limit
    }

    /// When an update of `client_id`, asked for at `now_ms`, keeps the §VI-C
    /// cap's pace: what is left of the trailing hour's budget, spread evenly
    /// until the window next frees a slot. With `used` of the
    /// `max_client_updates_per_hour` landed in the hour before `now_ms`,
    /// `last` the newest and `oldest` the oldest of them, that is `last +
    /// (oldest + 1 h − last) / (limit − used)`, rounded up; `oldest + 1 h`
    /// once the budget is spent; and 0 with the cap off or no update in the
    /// hour. At a burst's onset this is an hour over the cap after the last
    /// update, and under sustained demand it settles there, so the cap is
    /// never met mid-hour; after a quieter hour, updates follow demand. An
    /// update started at `now_ms` no earlier than the paced instant is
    /// always admitted ([`GuestContract::admits_client_update`]).
    pub fn client_update_paced_at(&self, client_id: &ClientId, now_ms: u64) -> u64 {
        let limit = u64::from(self.config.max_client_updates_per_hour);
        let recent = self.client_update_times.get(client_id).map_or(&[][..], |times| {
            &times[times.partition_point(|t| now_ms.saturating_sub(*t) >= HOUR_MS)..]
        });
        let (Some(&oldest), Some(&last)) = (recent.first(), recent.last()) else { return 0 };
        let used = recent.len() as u64;
        if limit == 0 {
            0
        } else if used < limit {
            last + (oldest + HOUR_MS - last).div_ceil(limit - used)
        } else {
            oldest + HOUR_MS
        }
    }

    /// §VI-A: once the chain has been abandoned (no guest block for the
    /// configured timeout), anyone may trigger self-destruction, releasing
    /// every active stake and pending withdrawal so the last validators are
    /// not trapped. Returns the released `(validator, amount)` pairs.
    ///
    /// # Errors
    ///
    /// [`GuestError::NotAbandoned`] while the chain is alive (or the
    /// feature is disabled).
    pub fn self_destruct(&mut self, now_ms: u64) -> Result<Vec<(PublicKey, u64)>, GuestError> {
        let timeout = self.config.abandonment_timeout_ms;
        let idle_ms = now_ms.saturating_sub(self.head().timestamp_ms);
        if timeout == 0 || idle_ms < timeout {
            return Err(GuestError::NotAbandoned { idle_ms, required_ms: timeout });
        }
        self.destroyed = true;
        Ok(self.staking.release_all())
    }

    /// Whether [`Self::self_destruct`] has run.
    pub fn is_destroyed(&self) -> bool {
        self.destroyed
    }

    /// Binds an application module (e.g. ICS-20) to a port.
    pub fn bind_port(&mut self, port_id: PortId, module: Box<dyn Module>) {
        self.ibc.bind_port(port_id, module);
    }

    // ------------------------------------------------------------------
    // §III-C — fishermen and slashing
    // ------------------------------------------------------------------

    /// Processes fisherman evidence: a [`SignedVote`] that conflicts with
    /// the canonical chain. The three §III-C cases collapse into one check:
    ///
    /// 1. a vote for a height above the head,
    /// 2. a vote for a block that differs from the block at that height
    ///    (which also covers "two signatures for the same height": one of
    ///    them must differ from the canonical block).
    ///
    /// Returns the slashed amount (0 when slashing is disabled, matching
    /// the paper's deployment).
    ///
    /// # Errors
    ///
    /// [`GuestError::InvalidEvidence`] when the vote is consistent with the
    /// canonical chain or does not verify.
    pub fn report_misbehaviour(&mut self, vote: &SignedVote) -> Result<u64, GuestError> {
        if !vote.verify() {
            return Err(GuestError::InvalidEvidence("signature does not verify".into()));
        }
        let is_validator =
            self.current_epoch.contains(&vote.pubkey) || self.staking.stake_of(&vote.pubkey) > 0;
        if !is_validator {
            return Err(GuestError::InvalidEvidence("not a validator".into()));
        }
        let misbehaved = match self.block_hash_at(vote.height) {
            None => true,                          // Case 2: height beyond the chain's head.
            Some(hash) => hash != vote.block_hash, // Cases 1 & 3.
        };
        if !misbehaved {
            return Err(GuestError::InvalidEvidence("vote matches the canonical block".into()));
        }
        let amount =
            if self.config.slashing_enabled { self.staking.slash(&vote.pubkey) } else { 0 };
        self.events.push(GuestEvent::ValidatorSlashed { pubkey: vote.pubkey, amount });
        Ok(amount)
    }

    // ------------------------------------------------------------------
    // §III-B — staking entry points
    // ------------------------------------------------------------------

    /// Bonds stake for a validator candidate.
    ///
    /// # Errors
    ///
    /// [`GuestError::Stake`] on a below-minimum stake.
    pub fn stake(&mut self, pubkey: PublicKey, amount: u64) -> Result<u64, GuestError> {
        Ok(self.staking.stake(pubkey, amount, MIN_STAKE)?)
    }

    /// Requests a validator exit (stake held for the configured period).
    ///
    /// # Errors
    ///
    /// [`GuestError::Stake`] without an active stake.
    pub fn request_unstake(&mut self, pubkey: &PublicKey, now_ms: u64) -> Result<(), GuestError> {
        self.staking.request_unstake(pubkey, now_ms, self.config.stake_hold_ms)?;
        Ok(())
    }

    /// Claims a matured withdrawal; returns the amount to pay out.
    ///
    /// # Errors
    ///
    /// [`GuestError::Stake`] while held or without a pending withdrawal.
    pub fn claim_unstaked(&mut self, pubkey: &PublicKey, now_ms: u64) -> Result<u64, GuestError> {
        Ok(self.staking.claim(pubkey, now_ms)?)
    }

    /// The protocol's accumulated fee share (fees minus validator rewards).
    pub fn treasury(&self) -> u64 {
        self.treasury
    }

    /// Accumulated, unclaimed rewards of `pubkey`.
    pub fn reward_balance(&self, pubkey: &PublicKey) -> u64 {
        self.reward_balances.get(pubkey).copied().unwrap_or(0)
    }

    /// Withdraws `pubkey`'s accumulated rewards; the caller pays them out
    /// from the vault.
    ///
    /// # Errors
    ///
    /// [`GuestError::Stake`] ([`StakeError::NothingPending`]) when there is
    /// nothing to claim.
    pub fn claim_rewards(&mut self, pubkey: &PublicKey) -> Result<u64, GuestError> {
        match self.reward_balances.remove(pubkey) {
            Some(amount) if amount > 0 => Ok(amount),
            _ => Err(GuestError::Stake(StakeError::NothingPending)),
        }
    }

    // ------------------------------------------------------------------
    // §V-D — the guest's one host account (DESIGN decision 21)
    // ------------------------------------------------------------------

    /// The bytes the guest holds, by collection: the trie as it measures
    /// itself, then running totals and record counts times their [`layout`]
    /// (a read walks only the clients and their update windows).
    pub fn account_bytes(&self) -> AccountBytes {
        let staking = &self.staking;
        let staking =
            staking.stakes.len() * MEMBER_BYTES + staking.pending.len() * layout::WITHDRAWAL;
        // Per client: its id's text, the number of times, the times.
        let windows = self.client_update_times.iter();
        let windows =
            windows.map(|(id, times)| id.as_str().len() + (1 + times.len()) * layout::INT);
        [
            ("trie", self.ibc.store().stats().byte_count),
            ("header", layout::HEADER),
            ("blocks", self.block_bytes),
            ("signatures", self.signature_bytes),
            ("epoch", layout::EPOCH + self.current_epoch.len() * MEMBER_BYTES),
            ("staking", staking),
            ("rewards", self.reward_balances.len() * MEMBER_BYTES),
            ("client_updates", windows.sum()),
            ("clients", self.ibc.clients().map(|client| client.stored_bytes()).sum()),
            ("staging", self.staging.bytes),
        ]
    }

    /// The bytes the guest holds in its host account: the sum of
    /// [`Self::account_bytes`].
    pub fn state_size(&self) -> usize {
        self.account_bytes().iter().map(|(_, bytes)| bytes).sum()
    }

    /// Errs with [`GuestError::AccountFull`] once the state reaches
    /// [`MAX_ACCOUNT_SIZE`]. Asked before every instruction that can add
    /// state, so the state overshoots the limit by at most one
    /// instruction's growth; a relayer asks it before it pays for a
    /// transaction the guest would refuse.
    pub fn check_room(&self) -> Result<(), GuestError> {
        let held = self.state_size();
        (held < MAX_ACCOUNT_SIZE).then_some(()).ok_or(GuestError::AccountFull(held))
    }
}

impl core::fmt::Debug for GuestContract {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("GuestContract")
            .field("head_height", &self.head_height())
            .field("state_root", &self.state_root())
            .field("epoch_validators", &self.current_epoch.len())
            .field("fees_collected", &self.fees_collected)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_crypto::schnorr::Keypair;

    /// Four equal-stake validators; quorum needs three.
    fn contract() -> (GuestContract, Vec<Keypair>) {
        let keypairs: Vec<Keypair> = (0..4).map(Keypair::from_seed).collect();
        let validators = keypairs.iter().map(|kp| (kp.public(), 100)).collect();
        let contract = GuestContract::new(GuestConfig::fast(), validators, 0, 0);
        (contract, keypairs)
    }

    fn sign_block(contract: &mut GuestContract, block: &GuestBlock, kp: &Keypair) -> bool {
        contract.sign(block.height, kp.public(), kp.sign(&block.signing_bytes())).unwrap()
    }

    /// Drives a block to finality with the first three validators.
    fn finalise(contract: &mut GuestContract, block: &GuestBlock, keypairs: &[Keypair]) {
        for kp in &keypairs[..3] {
            sign_block(contract, block, kp);
        }
        assert!(contract.is_finalised(block.height));
    }

    #[test]
    fn genesis_is_finalised() {
        let (contract, _) = contract();
        assert_eq!(contract.head_height(), 0);
        assert!(contract.is_finalised(0));
    }

    #[test]
    fn generate_requires_change_or_delta() {
        let (mut contract, _) = contract();
        // Nothing changed, Δ not elapsed.
        assert_eq!(contract.generate_block(1_000, 10), Err(GuestError::NothingToCommit));
        // Δ elapsed: empty block allowed (keeps timestamps fresh, §III-A).
        let block = contract.generate_block(10_000, 20).unwrap();
        assert_eq!(block.height, 1);
        assert_eq!(block.state_root, contract.head().state_root);
    }

    #[test]
    fn generate_requires_finalised_head() {
        let (mut contract, keypairs) = contract();
        let b1 = contract.generate_block(10_000, 10).unwrap();
        assert_eq!(contract.generate_block(20_000, 20), Err(GuestError::HeadNotFinalised));
        finalise(&mut contract, &b1, &keypairs);
        assert!(contract.generate_block(20_000, 20).is_ok());
    }

    #[test]
    fn block_due_agrees_with_generate_block() {
        let delta = GuestConfig::fast().delta_ms;
        for finalised in [false, true] {
            for root_changed in [false, true] {
                for age in [delta - 1, delta, delta + 1] {
                    let (mut contract, keypairs) = contract();
                    let head = contract.generate_block(2 * delta, 10).unwrap();
                    if finalised {
                        finalise(&mut contract, &head, &keypairs);
                    }
                    if root_changed {
                        ibc_core::ProvableStore::set(contract.ibc_mut().store_mut(), b"k", b"v")
                            .unwrap();
                    }
                    let now = head.timestamp_ms + age;
                    let expected = match (finalised, root_changed || age >= delta) {
                        (false, _) => Err(GuestError::HeadNotFinalised),
                        (true, false) => Err(GuestError::NothingToCommit),
                        (true, true) => Ok(()),
                    };
                    let case =
                        format!("finalised {finalised}, root changed {root_changed}, age {age}");
                    assert_eq!(contract.block_due(now), expected, "{case}");
                    assert_eq!(contract.generate_block(now, 20).map(|_| ()), expected, "{case}");
                }
            }
        }
    }

    #[test]
    fn state_change_triggers_block_before_delta() {
        let (mut contract, _) = contract();
        // Mutate guest state through the store.
        ibc_core::ProvableStore::set(contract.ibc_mut().store_mut(), b"k", b"v").unwrap();
        let block = contract.generate_block(1_000, 10).unwrap();
        assert_eq!(block.height, 1);
        assert_ne!(block.state_root, contract.block_at(0).unwrap().state_root);
    }

    #[test]
    fn quorum_finalises_by_stake() {
        let (mut contract, keypairs) = contract();
        let block = contract.generate_block(10_000, 10).unwrap();
        assert!(!sign_block(&mut contract, &block, &keypairs[0]));
        assert!(!sign_block(&mut contract, &block, &keypairs[1]));
        assert!(!contract.is_finalised(1));
        // Third of four equal stakes crosses 2/3.
        assert!(sign_block(&mut contract, &block, &keypairs[2]));
        assert!(contract.is_finalised(1));
        // Late signature is accepted but does not re-finalise.
        assert!(!sign_block(&mut contract, &block, &keypairs[3]));
        assert_eq!(contract.signatures_at(1).len(), 4);
    }

    #[test]
    fn sign_rejections_match_alg1_assertions() {
        let (mut contract, keypairs) = contract();
        let block = contract.generate_block(10_000, 10).unwrap();
        let outsider = Keypair::from_seed(99);
        // Invalid height.
        assert_eq!(
            contract.sign(5, keypairs[0].public(), keypairs[0].sign(b"x")),
            Err(GuestError::UnknownHeight(5))
        );
        // Not a validator.
        assert_eq!(
            contract.sign(1, outsider.public(), outsider.sign(&block.signing_bytes())),
            Err(GuestError::NotAValidator)
        );
        // Bad signature (signed the wrong bytes).
        assert_eq!(
            contract.sign(1, keypairs[0].public(), keypairs[0].sign(b"wrong")),
            Err(GuestError::BadSignature)
        );
        // Double signing the same block.
        sign_block(&mut contract, &block, &keypairs[0]);
        assert_eq!(
            contract.sign(1, keypairs[0].public(), keypairs[0].sign(&block.signing_bytes())),
            Err(GuestError::AlreadySigned)
        );
    }

    #[test]
    fn finalised_block_event_carries_signatures() {
        let (mut contract, keypairs) = contract();
        let block = contract.generate_block(10_000, 10).unwrap();
        finalise(&mut contract, &block, &keypairs);
        let events = contract.drain_events();
        let finalised = events.iter().find_map(|e| match e {
            GuestEvent::FinalisedBlock { block, signatures } => Some((block, signatures)),
            _ => None,
        });
        let (event_block, signatures) = finalised.expect("FinalisedBlock emitted");
        assert_eq!(event_block.height, 1);
        assert_eq!(signatures.len(), 3);
        // Each carried signature verifies over the block.
        for (pk, sig) in signatures {
            assert!(pk.verify(&event_block.signing_bytes(), sig));
        }
    }

    #[test]
    fn epoch_rotates_after_min_length() {
        let (mut contract, keypairs) = contract();
        let old_epoch = contract.current_epoch().id();
        // A new candidate outstakes everyone.
        let whale = Keypair::from_seed(50);
        contract.stake(whale.public(), 1_000).unwrap();

        // Fast config rotates after 100 host blocks.
        let block = contract.generate_block(10_000, 150).unwrap();
        assert!(block.is_last_in_epoch());
        finalise(&mut contract, &block, &keypairs);
        assert_ne!(contract.current_epoch().id(), old_epoch);
        assert!(contract.current_epoch().contains(&whale.public()));

        // The next block is signed by the NEW epoch: the whale alone holds
        // > 2/3 of 1400.
        let b2 = contract.generate_block(25_000, 200).unwrap();
        assert_eq!(b2.epoch_id, contract.current_epoch().id());
        assert!(contract.sign(b2.height, whale.public(), whale.sign(&b2.signing_bytes())).unwrap());
    }

    /// The figures the contract keeps rather than recomputes — the epoch id
    /// and the running byte totals behind `state_size` — against the slow
    /// way, the re-encoding oracle, across a rotation (whose last block
    /// announces a set), a late fourth signature and a rejected one.
    #[test]
    fn cached_epoch_id_and_byte_totals_match_a_recount() {
        let (mut contract, keypairs) = contract();
        let whale = Keypair::from_seed(50);
        contract.stake(whale.public(), 1_000).unwrap();
        let check = |contract: &GuestContract| {
            assert_eq!(contract.current_epoch_id, contract.current_epoch.id());
            assert_eq!(contract.state_size(), oracle::size(contract));
        };
        check(&contract);
        for (i, host_height) in [10, 150, 160].into_iter().enumerate() {
            let block = contract.generate_block(20_000 * (i as u64 + 1), host_height).unwrap();
            assert_eq!(block.epoch_id, contract.current_epoch().id());
            check(&contract);
            if contract.current_epoch().contains(&whale.public()) {
                assert!(sign_block(&mut contract, &block, &whale));
            } else {
                finalise(&mut contract, &block, &keypairs);
                // A signature after quorum is still stored; a repeat is not.
                let late = keypairs[3].sign(&block.signing_bytes());
                if block.next_epoch.is_none() {
                    assert!(!contract.sign(block.height, keypairs[3].public(), late).unwrap());
                }
                assert!(contract.sign(block.height, keypairs[0].public(), late).is_err());
            }
            check(&contract);
        }
        assert!(contract.current_epoch().contains(&whale.public()), "the run crossed a rotation");
        let held: usize = (0..=3).map(|height| contract.signatures_at(height).len()).sum();
        assert_eq!(held, 4 + 3 + 1);
    }

    #[test]
    fn send_packet_collects_fee() {
        let (mut contract, _) = contract();
        // No channel yet: we exercise only the fee gate here.
        let err = contract
            .send_packet(&PortId::transfer(), &ChannelId::new(0), b"p".to_vec(), Timeout::NEVER, 10)
            .unwrap_err();
        assert_eq!(err, GuestError::InsufficientFee { required: 50_000 });
        assert_eq!(contract.fees_collected(), 0);
    }

    #[test]
    fn misbehaviour_future_height_slashes() {
        let (mut contract, keypairs) = contract();
        let rogue = &keypairs[0];
        // A vote for height 9 which does not exist.
        let fake_hash = sim_crypto::sha256(b"fork");
        let vote = SignedVote {
            height: 9,
            block_hash: fake_hash,
            pubkey: rogue.public(),
            signature: rogue.sign(&GuestBlock::signing_bytes_for(9, &fake_hash)),
        };
        let slashed = contract.report_misbehaviour(&vote).unwrap();
        assert_eq!(slashed, 100);
        assert_eq!(contract.staking().stake_of(&rogue.public()), 0);
    }

    #[test]
    fn misbehaviour_conflicting_block_slashes() {
        let (mut contract, keypairs) = contract();
        let block = contract.generate_block(10_000, 10).unwrap();
        finalise(&mut contract, &block, &keypairs);
        let rogue = &keypairs[1];
        // Sign a *different* block at the same height (equivocation).
        let fork_hash = sim_crypto::sha256(b"equivocation");
        let vote = SignedVote {
            height: 1,
            block_hash: fork_hash,
            pubkey: rogue.public(),
            signature: rogue.sign(&GuestBlock::signing_bytes_for(1, &fork_hash)),
        };
        assert_eq!(contract.report_misbehaviour(&vote).unwrap(), 100);
    }

    #[test]
    fn honest_vote_is_not_misbehaviour() {
        let (mut contract, keypairs) = contract();
        let block = contract.generate_block(10_000, 10).unwrap();
        let honest = &keypairs[0];
        let vote = SignedVote {
            height: 1,
            block_hash: block.hash(),
            pubkey: honest.public(),
            signature: honest.sign(&block.signing_bytes()),
        };
        assert!(matches!(contract.report_misbehaviour(&vote), Err(GuestError::InvalidEvidence(_))));
        assert_eq!(contract.staking().stake_of(&honest.public()), 100);
    }

    #[test]
    fn misbehaviour_with_slashing_disabled_burns_nothing() {
        let keypairs: Vec<Keypair> = (0..4).map(Keypair::from_seed).collect();
        let validators = keypairs.iter().map(|kp| (kp.public(), 100)).collect();
        let mut config = GuestConfig::fast();
        config.slashing_enabled = false;
        let mut contract = GuestContract::new(config, validators, 0, 0);
        let rogue = &keypairs[0];
        let fake = sim_crypto::sha256(b"x");
        let vote = SignedVote {
            height: 42,
            block_hash: fake,
            pubkey: rogue.public(),
            signature: rogue.sign(&GuestBlock::signing_bytes_for(42, &fake)),
        };
        // Evidence accepted, stake intact — the deployment's behaviour.
        assert_eq!(contract.report_misbehaviour(&vote).unwrap(), 0);
        assert_eq!(contract.staking().stake_of(&rogue.public()), 100);
    }

    #[test]
    fn unstake_lifecycle() {
        let (mut contract, keypairs) = contract();
        let exiting = &keypairs[3];
        contract.request_unstake(&exiting.public(), 1_000).unwrap();
        // Fast config holds stake for 60 s.
        assert!(matches!(
            contract.claim_unstaked(&exiting.public(), 30_000),
            Err(GuestError::Stake(StakeError::StillHeld { .. }))
        ));
        assert_eq!(contract.claim_unstaked(&exiting.public(), 61_000).unwrap(), 100);
    }

    #[test]
    fn client_update_rate_limit() {
        let keypairs: Vec<Keypair> = (0..4).map(Keypair::from_seed).collect();
        let validators = keypairs.iter().map(|kp| (kp.public(), 100)).collect();
        let mut config = GuestConfig::fast();
        config.max_client_updates_per_hour = 3;
        let mut contract = GuestContract::new(config, validators, 0, 0);
        let client =
            contract.ibc_mut().create_client(Box::new(ibc_core::client::MockClient::new()));
        let header = |height: u64| {
            serde_json::to_vec(&ibc_core::client::MockHeader {
                height,
                root: sim_crypto::sha256(height.to_le_bytes()),
                timestamp_ms: height,
            })
            .unwrap()
        };
        assert_eq!(contract.client_update_paced_at(&client, 0), 0, "no update yet");
        contract.update_counterparty_client(&client, &header(1), 1_000).unwrap();
        // The two left of the hour's three spread over it: half an hour.
        assert_eq!(contract.client_update_paced_at(&client, 1_000), 1_000 + HOUR_MS / 2);
        for height in 2..=3 {
            contract.update_counterparty_client(&client, &header(height), height * 1_000).unwrap();
        }
        // The budget is spent: paced to the first update's hour.
        assert_eq!(contract.client_update_paced_at(&client, 3_000), 1_000 + HOUR_MS);
        // Fourth update inside the hour is rejected, as the read-only
        // check predicts…
        assert!(!contract.admits_client_update(&client, 4_000));
        assert_eq!(
            contract.update_counterparty_client(&client, header(4).as_slice(), 4_000),
            Err(GuestError::RateLimited { limit: 3 })
        );
        // …but allowed once the window slides past the first update.
        assert!(contract.admits_client_update(&client, 3_601_001));
        contract.update_counterparty_client(&client, &header(4), 3_601_001).unwrap();
        assert!(!contract.admits_client_update(&client, 3_601_001));
        assert_eq!(contract.client_update_paced_at(&client, 3_601_001), 2_000 + HOUR_MS);
        // After a quiet hour the next update may go at once.
        assert_eq!(contract.client_update_paced_at(&client, 3_601_001 + HOUR_MS), 0);
    }

    proptest::proptest! {
        /// However demand arrives, an update started no earlier than its
        /// paced instant is admitted by the cap, and updates that keep the
        /// pace never number more than the cap in any hour.
        #[test]
        fn a_paced_update_is_always_admitted(
            limit in 1u32..=30,
            gaps in proptest::collection::vec(0u64..400_000, 1..120),
        ) {
            let keypairs: Vec<Keypair> = (0..4).map(Keypair::from_seed).collect();
            let validators = keypairs.iter().map(|kp| (kp.public(), 100)).collect();
            let mut config = GuestConfig::fast();
            config.max_client_updates_per_hour = limit;
            let mut contract = GuestContract::new(config, validators, 0, 0);
            let client =
                contract.ibc_mut().create_client(Box::new(ibc_core::client::MockClient::new()));
            let (mut now, mut height) = (0, 0);
            for gap in gaps {
                now += gap;
                if now < contract.client_update_paced_at(&client, now) {
                    continue;
                }
                proptest::prop_assert!(contract.admits_client_update(&client, now));
                height += 1;
                let header = serde_json::to_vec(&ibc_core::client::MockHeader {
                    height,
                    root: sim_crypto::sha256(height.to_le_bytes()),
                    timestamp_ms: now,
                })
                .unwrap();
                proptest::prop_assert!(
                    contract.update_counterparty_client(&client, &header, now).is_ok()
                );
            }
        }
    }

    #[test]
    fn self_destruct_only_after_abandonment() {
        let (mut contract, keypairs) = contract();
        // One validator has a pending withdrawal — it must be released too.
        contract.request_unstake(&keypairs[3].public(), 0).unwrap();
        // Fast config: 5-minute abandonment timeout; genesis at t=0.
        assert!(matches!(contract.self_destruct(100_000), Err(GuestError::NotAbandoned { .. })));
        let released = contract.self_destruct(301_000).unwrap();
        assert!(contract.is_destroyed());
        assert_eq!(released.len(), 4, "all four stakes released");
        assert_eq!(released.iter().map(|(_, a)| a).sum::<u64>(), 400);
        assert_eq!(contract.staking().total_stake(), 0);
    }

    #[test]
    fn self_destruct_disabled_when_zero() {
        let keypairs: Vec<Keypair> = (0..4).map(Keypair::from_seed).collect();
        let validators = keypairs.iter().map(|kp| (kp.public(), 100)).collect();
        let mut config = GuestConfig::fast();
        config.abandonment_timeout_ms = 0;
        let mut contract = GuestContract::new(config, validators, 0, 0);
        assert!(matches!(
            contract.self_destruct(u64::MAX / 2),
            Err(GuestError::NotAbandoned { .. })
        ));
    }

    #[test]
    fn rewards_distributed_to_signers_pro_rata() {
        // Unequal stakes: 400/100/100/100 (total 700, quorum 467) — the
        // whale plus any one other validator finalises.
        let keypairs: Vec<Keypair> = (0..4).map(Keypair::from_seed).collect();
        let stakes = [400u64, 100, 100, 100];
        let validators = keypairs.iter().zip(stakes).map(|(kp, s)| (kp.public(), s)).collect();
        let mut contract = GuestContract::new(GuestConfig::fast(), validators, 0, 0);

        // Two sends worth of fees accrue (the channel doesn't exist, but
        // fees are collected first per Alg. 1 ordering).
        for _ in 0..2 {
            let _ = contract.send_packet(
                &PortId::transfer(),
                &ChannelId::new(0),
                b"p".to_vec(),
                Timeout::NEVER,
                50_000,
            );
        }

        // Whale + validator 1 sign; the pot (80 % of 100 000) splits
        // 4:1 by stake among the two signers.
        let block = contract.generate_block(10_000, 10).unwrap();
        let whale = &keypairs[0];
        let helper = &keypairs[1];
        contract.sign(1, whale.public(), whale.sign(&block.signing_bytes())).unwrap();
        contract.sign(1, helper.public(), helper.sign(&block.signing_bytes())).unwrap();
        assert!(contract.is_finalised(1));

        assert_eq!(contract.reward_balance(&whale.public()), 64_000);
        assert_eq!(contract.reward_balance(&helper.public()), 16_000);
        assert_eq!(contract.reward_balance(&keypairs[2].public()), 0, "non-signers earn nothing");

        // Claiming empties the balance; double claims fail.
        assert_eq!(contract.claim_rewards(&whale.public()).unwrap(), 64_000);
        assert!(contract.claim_rewards(&whale.public()).is_err());

        // The next block without new fees distributes nothing more.
        ibc_core::ProvableStore::set(contract.ibc_mut().store_mut(), b"x", b"y").unwrap();
        let b2 = contract.generate_block(11_000, 12).unwrap();
        contract.sign(2, whale.public(), whale.sign(&b2.signing_bytes())).unwrap();
        contract.sign(2, helper.public(), helper.sign(&b2.signing_bytes())).unwrap();
        assert_eq!(contract.reward_balance(&helper.public()), 16_000, "unchanged");
        // The 20 % protocol share landed in the treasury.
        assert_eq!(contract.treasury(), 20_000);
    }

    #[test]
    fn self_history_reports_past_blocks() {
        let (mut contract, keypairs) = contract();
        let b1 = contract.generate_block(10_000, 10).unwrap();
        finalise(&mut contract, &b1, &keypairs);
        let history = BlockHistory { log: contract.log.clone() };
        let cs = history.self_consensus_at(1).unwrap();
        assert_eq!(cs.root, b1.state_root);
        assert_eq!(cs.timestamp_ms, 10_000);
        assert!(history.self_consensus_at(99).is_none());
    }

    /// The re-encoding oracle of [`GuestContract::state_size`].
    mod oracle {
        use super::*;

        fn int(out: &mut Vec<u8>, value: u64) {
            out.extend_from_slice(&value.to_le_bytes());
        }

        fn member(out: &mut Vec<u8>, key: &PublicKey, amount: u64) {
            out.extend_from_slice(&key.to_bytes());
            int(out, amount);
        }

        /// Every record the guest holds, written field by field: keys,
        /// signatures and hashes as their bytes, integers as u64
        /// little-endian, flags as one byte, client ids and staged data as
        /// their bytes. Clients are read through `LightClient`, which shows
        /// no trusted set: only mock clients are written.
        fn encode(c: &GuestContract) -> Vec<u8> {
            let mut out = Vec::new();
            for value in [c.fees_collected, c.undistributed_fees, c.treasury] {
                int(&mut out, value);
            }
            out.push(u8::from(c.destroyed));
            for record in c.log.borrow().iter() {
                let block = &record.block;
                for value in [block.height, block.timestamp_ms, block.host_height] {
                    int(&mut out, value);
                }
                for hash in [block.prev_hash, block.state_root, block.epoch_id, record.hash] {
                    out.extend_from_slice(hash.as_bytes());
                }
                out.push(u8::from(record.finalised));
                let announced = block.next_epoch.as_ref().map_or(&[][..], Epoch::validators);
                int(&mut out, announced.len() as u64);
                for validator in announced {
                    member(&mut out, &validator.pubkey, validator.stake);
                }
                for (key, signature) in &record.signatures {
                    out.extend_from_slice(&key.to_bytes());
                    out.extend_from_slice(&signature.to_bytes());
                }
            }
            out.extend_from_slice(c.current_epoch_id.as_bytes());
            int(&mut out, c.epoch_start_host_height);
            for validator in c.current_epoch.validators() {
                member(&mut out, &validator.pubkey, validator.stake);
            }
            for (key, stake) in &c.staking.stakes {
                member(&mut out, key, *stake);
            }
            for withdrawal in &c.staking.pending {
                member(&mut out, &withdrawal.pubkey, withdrawal.amount);
                int(&mut out, withdrawal.available_at_ms);
            }
            for (key, amount) in &c.reward_balances {
                member(&mut out, key, *amount);
            }
            for (id, times) in &c.client_update_times {
                out.extend_from_slice(id.as_str().as_bytes());
                int(&mut out, times.len() as u64);
                for time in times {
                    int(&mut out, *time);
                }
            }
            for client in c.ibc.clients() {
                assert_eq!(client.client_type(), "mock", "only a mock client is readable here");
                for height in 0..=client.latest_height() {
                    if let Some(state) = client.consensus_state(height) {
                        int(&mut out, height);
                        out.extend_from_slice(state.root.as_bytes());
                        int(&mut out, state.timestamp_ms);
                    }
                }
                out.push(u8::from(client.is_frozen()));
            }
            for ((payer, id), staged) in &c.staging.buffers {
                out.extend_from_slice(payer.as_bytes());
                int(&mut out, *id);
                int(&mut out, staged.verified_sigs as u64);
                out.extend_from_slice(&staged.data);
            }
            out
        }

        /// What `state_size` must read: the trie as it measures itself, plus
        /// the encoded records.
        pub(super) fn size(c: &GuestContract) -> usize {
            c.ibc.store().stats().byte_count + encode(c).len()
        }
    }

    /// A guest behind a host [`Bank`], linked to a [`MockChain`] over one
    /// echo channel: the bench of the account oracle and the fill test.
    mod world {
        use super::*;
        use crate::program::{GuestInstruction, GuestOp, GuestProgram};
        use host_sim::{Bank, FeePolicy, Instruction, ProgramError, Transaction};
        use ibc_core::client::{LightClient, MockChain, MockClient, MockHeader};
        use ibc_core::handler::HostTime;
        use ibc_core::handshake::{open_link, publish, ChainEnd, LinkEnds};
        use ibc_core::router::EchoModule;
        use ibc_core::IbcEvent;
        use relayer::{RelayMsg, Submitted};

        /// Bytes of a staging chunk: a frame that fits one transaction.
        pub(super) const CHUNK: usize = 900;

        /// The guest as one end of a handshake: its headers are
        /// [`MockHeader`]s over its root.
        struct GuestEnd<'a> {
            contract: &'a mut GuestContract,
            height: &'a mut u64,
        }

        impl ChainEnd<IbcError> for GuestEnd<'_> {
            fn handler(&mut self) -> &mut IbcHandler<Trie> {
                self.contract.ibc_mut()
            }

            fn light_client(&self) -> Box<dyn LightClient> {
                Box::new(MockClient::new())
            }

            fn commit(&mut self, now_ms: u64) -> Result<(u64, Vec<u8>), IbcError> {
                *self.height += 1;
                let header = MockHeader {
                    height: *self.height,
                    root: self.contract.state_root(),
                    timestamp_ms: now_ms,
                };
                Ok((*self.height, serde_json::to_vec(&header).unwrap()))
            }

            fn accept(&mut self, client: &ClientId, header: &[u8], _: u64) -> Result<(), IbcError> {
                self.contract.ibc_mut().update_client(client, header).map(drop)
            }
        }

        pub(super) struct World {
            bank: Bank,
            program_id: Pubkey,
            payer: Pubkey,
            pub(super) contract: Rc<RefCell<GuestContract>>,
            /// Four genesis validators, then two candidates.
            pub(super) keypairs: Vec<Keypair>,
            cp: MockChain,
            link: LinkEnds,
            guest_height: u64,
            now_ms: u64,
            slot: u64,
            sent: Vec<Packet>,
        }

        impl World {
            pub(super) fn new() -> Self {
                let keypairs: Vec<Keypair> = (0..6).map(Keypair::from_seed).collect();
                let validators = keypairs[..4].iter().map(|kp| (kp.public(), 100)).collect();
                let mut contract = GuestContract::new(GuestConfig::fast(), validators, 0, 0);
                let port = PortId::named("echo");
                contract.bind_port(port.clone(), Box::new(EchoModule::default()));
                let mut cp = MockChain::new();
                cp.ibc.bind_port(port.clone(), Box::new(EchoModule::default()));
                let (mut now_ms, mut guest_height) = (0, 0);
                let mut guest = GuestEnd { contract: &mut contract, height: &mut guest_height };
                let link = open_link(&mut guest, &mut cp, &[(port, "v1")], &mut now_ms).unwrap();
                let (program_id, vault) =
                    (Pubkey::from_label("guest"), Pubkey::from_label("vault"));
                let payer = Pubkey::from_label("payer");
                let mut bank = Bank::new();
                bank.airdrop(payer, 1 << 50);
                bank.airdrop(vault, 1);
                let contract = Rc::new(RefCell::new(contract));
                let program = GuestProgram::new(program_id, vault, contract.clone());
                bank.register_program(program_id, Box::new(program));
                let (slot, sent) = (0, Vec::new());
                Self {
                    bank,
                    program_id,
                    payer,
                    contract,
                    keypairs,
                    cp,
                    link,
                    guest_height,
                    now_ms,
                    slot,
                    sent,
                }
            }

            /// Moves the host clock `slots` slots of 400 ms on.
            pub(super) fn wait(&mut self, slots: u64) {
                self.slot += slots;
                self.now_ms += 400 * slots;
            }

            /// One instruction in one transaction, one slot on.
            pub(super) fn submit(
                &mut self,
                instruction: &GuestInstruction,
            ) -> Result<(), ProgramError> {
                self.wait(1);
                let ix = Instruction::new(self.program_id, vec![], instruction.encode());
                let tx = Transaction::build(self.payer, 1, vec![ix], FeePolicy::BaseOnly).unwrap();
                let outcome = self.bank.execute_transaction(&tx, self.slot, self.now_ms);
                for event in &outcome.events {
                    if let Some(GuestEvent::Ibc(IbcEvent::SendPacket { packet })) =
                        event.payload_as()
                    {
                        self.sent.push(packet);
                    }
                }
                outcome.result
            }

            pub(super) fn op(&mut self, op: GuestOp) -> Result<(), ProgramError> {
                self.submit(&GuestInstruction::Inline { op })
            }

            /// Signs the block `back` below the head with validator `signer`.
            pub(super) fn sign(&mut self, signer: usize, back: u64) -> Result<(), ProgramError> {
                let head = self.contract.borrow().head_height();
                let block = self.contract.borrow().block_at(head.saturating_sub(back)).unwrap();
                let keypair = &self.keypairs[signer];
                let (pubkey, signature) = (keypair.public(), keypair.sign(&block.signing_bytes()));
                self.op(GuestOp::SignBlock { height: block.height, pubkey, signature })
            }

            pub(super) fn send(&mut self, len: usize) -> Result<(), ProgramError> {
                let (port, channel) = (PortId::named("echo"), self.link.channels[0].0.clone());
                let payload = vec![7; len];
                self.op(GuestOp::SendPacket { port, channel, payload, timeout: Timeout::NEVER })
            }

            /// Writes `op` into `buffer` (dropped first) chunk by chunk, burns
            /// `verify` header-signature checks on it, then executes it.
            pub(super) fn staged(
                &mut self,
                buffer: u64,
                op: &GuestOp,
                verify: usize,
            ) -> Result<(), ProgramError> {
                self.submit(&GuestInstruction::DropBuffer { buffer })?;
                for (i, chunk) in op.encode().chunks(CHUNK).enumerate() {
                    let data = chunk.to_vec();
                    self.submit(&GuestInstruction::WriteChunk { buffer, offset: i * CHUNK, data })?;
                }
                if verify > 0 {
                    self.submit(&GuestInstruction::VerifySigs { buffer, count: verify })?;
                }
                self.submit(&GuestInstruction::ExecStaged { buffer })
            }

            /// A counterparty block, as an `UpdateClient` of the guest's
            /// client of it that needs `signatures` verified.
            pub(super) fn client_update(&mut self, signatures: usize) -> (u64, GuestOp) {
                let (height, header) = self.cp.commit(self.now_ms).unwrap();
                let (client, header) =
                    (self.link.a_client.clone(), String::from_utf8(header).unwrap());
                (height, GuestOp::UpdateClient { client, header, num_signatures: signatures })
            }

            /// The oldest packet the guest sent and nobody acked: received on
            /// the counterparty against a fresh guest header, then its ack
            /// proven back and staged, as a relayer delivers one (the relay
            /// rule is `relayer::RelayMsg`'s).
            pub(super) fn ack(&mut self) -> Result<(), ProgramError> {
                if self.sent.is_empty() {
                    return Ok(());
                }
                let packet = self.sent.remove(0);
                let height = {
                    let mut contract = self.contract.borrow_mut();
                    let mut guest =
                        GuestEnd { contract: &mut contract, height: &mut self.guest_height };
                    publish(&mut guest, &mut self.cp, &self.link.b_client, &mut self.now_ms)
                        .unwrap()
                };
                let client = self.cp.ibc.client(&self.link.b_client).unwrap();
                let consensus = client.consensus_state(height).unwrap();
                let recv = RelayMsg::Recv { packet: packet.clone() };
                let guest = self.contract.borrow();
                let proof = recv.prove(height, &consensus, |key| guest.ibc.store().prove(key).ok());
                drop(guest);
                let now = HostTime { height: self.cp.height(), timestamp_ms: self.now_ms };
                let submitted = recv.submit(&mut self.cp.ibc, height, &proof.unwrap(), now);
                assert!(matches!(submitted, Submitted::Accepted), "{submitted:?}");
                let ack = self.cp.ibc.drain_events().into_iter().find_map(|event| match event {
                    IbcEvent::WriteAcknowledgement { ack, .. } => Some(ack),
                    _ => None,
                });
                let ack = ack.unwrap();
                let (proof_height, update) = self.client_update(0);
                self.op(update)?;
                let guest = self.contract.borrow();
                let client = guest.ibc.client(&self.link.a_client).unwrap();
                let consensus = client.consensus_state(proof_height).unwrap();
                drop(guest);
                let msg = RelayMsg::Ack { packet: packet.clone(), ack: ack.clone() };
                let proof =
                    msg.prove(proof_height, &consensus, |key| self.cp.ibc.store().prove(key).ok());
                let op = GuestOp::AckPacket { packet, ack, proof_height, proof: proof.unwrap() };
                self.staged(99, &op, 0)
            }
        }
    }

    /// One step of a random sequence through the host.
    #[derive(Clone, Debug)]
    enum Step {
        Generate,
        Sign { signer: usize, back: u64 },
        Stake { who: usize, amount: u64 },
        Unstake { who: usize },
        Claim { who: usize },
        ClaimRewards { who: usize },
        ClientUpdate,
        StagedClientUpdate { verify: bool },
        Send { len: usize },
        Ack,
        WriteChunk { buffer: u64, len: usize, skew: bool },
        ExecStaged { buffer: u64 },
        DropBuffer { buffer: u64 },
        Wait { slots: u64 },
    }

    fn step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        let buffer = || (0..4usize).prop_map(|i| [0u64, 1, 50, 99][i]);
        prop_oneof![
            3 => Just(Step::Generate),
            6 => (0..6usize, 0..3u64).prop_map(|(signer, back)| Step::Sign { signer, back }),
            1 => (0..6usize, 1..2_000u64).prop_map(|(who, amount)| Step::Stake { who, amount }),
            1 => (0..6usize).prop_map(|who| Step::Unstake { who }),
            1 => (0..6usize).prop_map(|who| Step::Claim { who }),
            1 => (0..6usize).prop_map(|who| Step::ClaimRewards { who }),
            1 => Just(Step::ClientUpdate),
            1 => any::<bool>().prop_map(|verify| Step::StagedClientUpdate { verify }),
            2 => (0..200usize).prop_map(|len| Step::Send { len }),
            2 => Just(Step::Ack),
            1 => (buffer(), 0..2_000usize, any::<bool>())
                .prop_map(|(buffer, len, skew)| Step::WriteChunk { buffer, len, skew }),
            1 => buffer().prop_map(|buffer| Step::ExecStaged { buffer }),
            1 => buffer().prop_map(|buffer| Step::DropBuffer { buffer }),
            1 => (1..200u64).prop_map(|slots| Step::Wait { slots }),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// After every step of a random sequence driven through the host,
        /// `state_size` equals the length of every record re-encoded field
        /// by field: each collection is counted, at its layout, and every
        /// write keeps its running total.
        #[test]
        fn state_size_matches_the_re_encoding_oracle(
            steps in proptest::collection::vec(step(), 1..40),
        ) {
            use crate::program::{GuestInstruction, GuestOp};
            let mut world = world::World::new();
            proptest::prop_assert_eq!(world.contract.borrow().state_size(), oracle::size(&world.contract.borrow()));
            for step in steps {
                let key = |who: usize| world.keypairs[who].public();
                // Each step may be refused; the count must hold either way.
                let _ = match step.clone() {
                    Step::Generate => world.op(GuestOp::GenerateBlock),
                    Step::Sign { signer, back } => world.sign(signer, back),
                    Step::Stake { who, amount } => world.op(GuestOp::Stake { pubkey: key(who), amount }),
                    Step::Unstake { who } => world.op(GuestOp::RequestUnstake { pubkey: key(who) }),
                    Step::Claim { who } => world.op(GuestOp::ClaimUnstaked { pubkey: key(who) }),
                    Step::ClaimRewards { who } => world.op(GuestOp::ClaimRewards { pubkey: key(who) }),
                    Step::ClientUpdate => {
                        let (_, update) = world.client_update(0);
                        world.op(update)
                    }
                    Step::StagedClientUpdate { verify } => {
                        let (_, update) = world.client_update(2);
                        world.staged(50, &update, if verify { 2 } else { 0 })
                    }
                    Step::Send { len } => world.send(len),
                    Step::Ack => world.ack(),
                    Step::WriteChunk { buffer, len, skew } => {
                        let at = world.contract.borrow().staging.buffers.get(&(Pubkey::from_label("payer"), buffer))
                            .map_or(0, |staged| staged.data.len());
                        let offset = at + usize::from(skew);
                        let data = vec![3; len.min(world::CHUNK)];
                        world.submit(&GuestInstruction::WriteChunk { buffer, offset, data })
                    }
                    Step::ExecStaged { buffer } => world.submit(&GuestInstruction::ExecStaged { buffer }),
                    Step::DropBuffer { buffer } => world.submit(&GuestInstruction::DropBuffer { buffer }),
                    Step::Wait { slots } => {
                        world.wait(slots);
                        Ok(())
                    }
                };
                let contract = world.contract.borrow();
                proptest::prop_assert_eq!(contract.state_size(), oracle::size(&contract), "after {:?}", step);
            }
        }
    }

    /// Staging chunks fill the 10 MiB account until the guest refuses one
    /// with [`GuestError::AccountFull`]. Refused instructions change
    /// nothing; `DropBuffer` still runs and frees the bytes, after which
    /// writes succeed again. The state overshoots the limit by at most one
    /// instruction's growth.
    #[test]
    fn a_full_account_refuses_growth_until_a_buffer_is_dropped() {
        use crate::program::{GuestInstruction, GuestOp};
        use host_sim::ProgramError;
        let mut world = world::World::new();
        let payer = Pubkey::from_label("payer");
        let chunk = vec![5u8; world::CHUNK];
        let write = |buffer: u64, offset: usize| GuestInstruction::WriteChunk {
            buffer,
            offset,
            data: chunk.clone(),
        };
        // The account starts non-empty, so it fills in fewer writes.
        let (mut offset, mut refusal) = (0, None);
        for _ in 0..=MAX_ACCOUNT_SIZE / world::CHUNK {
            match world.submit(&write(1, offset)) {
                Ok(()) => offset += world::CHUNK,
                Err(refused) => {
                    refusal = Some(refused);
                    break;
                }
            }
        }
        let refusal = refusal.expect("the account filled without a refusal");
        let held = world.contract.borrow().state_size();
        assert!(held >= MAX_ACCOUNT_SIZE, "refused below the limit: {held}");
        assert!(held < MAX_ACCOUNT_SIZE + world::CHUNK, "overshot by more than one write");
        let full = GuestError::AccountFull(held);
        assert_eq!(world.contract.borrow().check_room(), Err(full.clone()));
        assert_eq!(refusal, ProgramError::Rejected(full.to_string()));

        let snapshot = |world: &world::World| {
            let contract = world.contract.borrow();
            let staged = contract.staging.buffers.get(&(payer, 1)).map(|staged| staged.data.len());
            (contract.state_root(), contract.state_size(), contract.staging.buffers.len(), staged)
        };
        let before = snapshot(&world);
        for refused in [
            write(1, offset),
            write(2, 0),
            GuestInstruction::Inline { op: GuestOp::GenerateBlock },
            GuestInstruction::ExecStaged { buffer: 1 },
        ] {
            assert_eq!(world.submit(&refused), Err(ProgramError::Rejected(full.to_string())));
            assert_eq!(snapshot(&world), before, "{refused:?} changed the account");
        }
        // An operation that only removes records is not refused for room:
        // here the staking rule refuses it instead.
        let pubkey = world.keypairs[0].public();
        let nothing = GuestError::Stake(StakeError::NothingPending).to_string();
        assert_eq!(
            world.op(GuestOp::ClaimRewards { pubkey }),
            Err(ProgramError::Rejected(nothing))
        );
        assert_eq!(snapshot(&world), before);

        assert_eq!(world.submit(&GuestInstruction::DropBuffer { buffer: 1 }), Ok(()));
        let freed = world.contract.borrow().state_size();
        assert_eq!(held - freed, layout::BUFFER + offset);
        assert_eq!(freed, oracle::size(&world.contract.borrow()));
        assert_eq!(world.submit(&write(1, 0)), Ok(()));
        assert_eq!(world.op(GuestOp::GenerateBlock), Ok(()), "growth is admitted again");
    }
}
