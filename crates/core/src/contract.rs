//! The Guest Contract (Alg. 1): block production, finalisation, packets.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use ibc_core::channel::{Acknowledgement, Packet, Timeout};
use ibc_core::client::{ConsensusState, TrustedSet};
use ibc_core::handler::{HostTime, IbcHandler, ProofData, SelfHistory};
use ibc_core::types::{ChannelId, ClientId, IbcError, PortId};
use ibc_core::Module;
use sealable_trie::Trie;
use serde::{Deserialize, Serialize};
use sim_crypto::schnorr::{PublicKey, Signature};
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

/// Shared guest-block history; doubles as the chain's [`SelfHistory`] for
/// handshake self-validation (block introspection, §VI-D).
#[derive(Clone, Debug, Default)]
pub struct BlockHistory {
    blocks: Rc<RefCell<Vec<GuestBlock>>>,
}

impl SelfHistory for BlockHistory {
    fn self_consensus_at(&self, height: u64) -> Option<ConsensusState> {
        self.blocks
            .borrow()
            .get(height as usize)
            .map(|b| ConsensusState { root: b.state_root, timestamp_ms: b.timestamp_ms })
    }
}

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
    blocks: Rc<RefCell<Vec<GuestBlock>>>,
    /// `blocks[h].hash()`, taken once when the block is generated: every
    /// signature on the block, and the next block's `prev_hash`, needs it.
    block_hashes: Vec<Hash>,
    signatures: Vec<HashMap<PublicKey, Signature>>,
    /// Signatures held over all heights, for [`Self::state_size`].
    signature_count: usize,
    finalised: Vec<bool>,
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
}

/// How many generated blocks' committed states
/// [`GuestContract::prove_at`] keeps. Without them, sustained traffic
/// mutates the live trie between block generation and relay, proofs
/// against the finalised root stop verifying, and the relayer's backlog
/// grows without bound. Relayers prove against the latest finalised
/// block, so a handful of heights of slack is plenty.
const PROOF_SNAPSHOT_HISTORY: usize = 8;

/// The window of the §VI-C client-update cap.
const HOUR_MS: u64 = 3_600_000;

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
        let blocks = Rc::new(RefCell::new(Vec::new()));
        ibc.set_self_history(Box::new(BlockHistory { blocks: blocks.clone() }));
        let genesis = GuestBlock::genesis(&epoch, ibc.root(), now_ms, host_height);
        ibc.store_mut().checkpoint(genesis.height, PROOF_SNAPSHOT_HISTORY);
        let block_hashes = vec![genesis.hash()];
        blocks.borrow_mut().push(genesis);
        Self {
            config,
            ibc,
            blocks,
            block_hashes,
            signatures: vec![HashMap::new()],
            signature_count: 0,
            finalised: vec![true],
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
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GuestConfig {
        &self.config
    }

    /// The current head block.
    pub fn head(&self) -> GuestBlock {
        self.blocks.borrow().last().expect("genesis always exists").clone()
    }

    /// Height of the head block.
    pub fn head_height(&self) -> u64 {
        self.blocks.borrow().len() as u64 - 1
    }

    /// The block at `height`, if produced.
    pub fn block_at(&self, height: u64) -> Option<GuestBlock> {
        self.blocks.borrow().get(height as usize).cloned()
    }

    /// [`GuestBlock::hash`] of the block at `height`, if produced.
    pub fn block_hash_at(&self, height: u64) -> Option<Hash> {
        self.block_hashes.get(height as usize).copied()
    }

    /// Whether the block at `height` is finalised.
    pub fn is_finalised(&self, height: u64) -> bool {
        self.finalised.get(height as usize).copied().unwrap_or(false)
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
        let blocks = self.blocks.borrow();
        let head = blocks.last().expect("genesis always exists");
        if !self.is_finalised(head.height) {
            return None;
        }
        if self.ibc.root() != head.state_root || self.config.delta_ms == 0 {
            return Some(0);
        }
        Some(head.timestamp_ms.saturating_add(self.config.delta_ms))
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
            prev_hash: *self.block_hashes.last().expect("genesis always exists"),
            state_root,
            timestamp_ms: now_ms,
            host_height,
            epoch_id: self.current_epoch_id,
            next_epoch,
        };
        self.block_hashes.push(block.hash());
        self.blocks.borrow_mut().push(block.clone());
        self.signatures.push(HashMap::new());
        self.finalised.push(false);
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
        let block_hash = self.block_hash_at(height).ok_or(GuestError::UnknownHeight(height))?;
        // The epoch that must sign this block is the one recorded in it;
        // only the *current* epoch's blocks are still signable (older ones
        // are final by construction).
        if self.blocks.borrow()[height as usize].epoch_id != self.current_epoch_id {
            return Err(GuestError::NotAValidator);
        }
        if !self.current_epoch.contains(&pubkey) {
            return Err(GuestError::NotAValidator);
        }
        let signatures = &mut self.signatures[height as usize];
        if signatures.contains_key(&pubkey) {
            return Err(GuestError::AlreadySigned);
        }
        if !pubkey.verify(&GuestBlock::signing_bytes_for(height, &block_hash), &signature) {
            return Err(GuestError::BadSignature);
        }
        signatures.insert(pubkey, signature);
        self.signature_count += 1;

        if self.finalised[height as usize] {
            return Ok(false);
        }
        let votes: u64 = signatures.keys().filter_map(|pk| self.current_epoch.stake_of(pk)).sum();
        if votes < self.current_epoch.quorum_stake() {
            return Ok(false);
        }
        self.finalised[height as usize] = true;
        let block = self.blocks.borrow()[height as usize].clone();
        let mut sorted: Vec<(PublicKey, Signature)> =
            self.signatures[height as usize].iter().map(|(pk, sig)| (*pk, *sig)).collect();
        sorted.sort_by_key(|(pk, _)| *pk);

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

    /// Signatures recorded so far for `height`.
    pub fn signatures_at(&self, height: u64) -> Vec<(PublicKey, Signature)> {
        self.signatures
            .get(height as usize)
            .map(|sigs| {
                let mut v: Vec<_> = sigs.iter().map(|(pk, s)| (*pk, *s)).collect();
                v.sort_by_key(|(pk, _)| *pk);
                v
            })
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

    /// Serialized-state size estimate, for host account-allocation
    /// accounting (rent, §V-D).
    pub fn state_size(&self) -> usize {
        let trie = self.ibc.store().stats().byte_count;
        let blocks = self.blocks.borrow().len() * 130;
        let sigs = self.signature_count * 96;
        let epoch = self.current_epoch.len() * 40;
        trie + blocks + sigs + epoch + 256
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

    /// The two figures the contract keeps rather than recomputes — the epoch
    /// id and the signature count behind `state_size` — against the slow
    /// way, across a rotation, a late fourth signature and a rejected one.
    #[test]
    fn cached_epoch_id_and_signature_count_match_a_recount() {
        let (mut contract, keypairs) = contract();
        let whale = Keypair::from_seed(50);
        contract.stake(whale.public(), 1_000).unwrap();
        let check = |contract: &GuestContract| {
            assert_eq!(contract.current_epoch_id, contract.current_epoch.id());
            let held: usize = contract.signatures.iter().map(HashMap::len).sum();
            assert_eq!(contract.signature_count, held);
            let expected = contract.ibc.store().stats().byte_count
                + contract.blocks.borrow().len() * 130
                + held * 96
                + contract.current_epoch.len() * 40
                + 256;
            assert_eq!(contract.state_size(), expected);
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
        assert_eq!(contract.signature_count, 4 + 3 + 1);
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
        let history = BlockHistory { blocks: contract.blocks.clone() };
        let cs = history.self_consensus_at(1).unwrap();
        assert_eq!(cs.root, b1.state_root);
        assert_eq!(cs.timestamp_ms, 10_000);
        assert!(history.self_consensus_at(99).is_none());
    }
}
