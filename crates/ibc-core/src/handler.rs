//! The IBC handler: client registry, handshakes, packet life cycle.
//!
//! One [`IbcHandler`] instance is the complete IBC state machine of one
//! chain. The guest contract embeds one over a sealable trie; the
//! counterparty chain embeds one over a plain trie. Relayers shuttle
//! messages (with proofs) between two handlers.

use std::collections::{BTreeMap, HashMap, VecDeque};

use sim_crypto::Hash;

use crate::channel::{Acknowledgement, ChannelEnd, ChannelState, Ordering, Packet, Timeout};
use crate::client::{ConsensusState, LightClient};
use crate::connection::{ConnectionEnd, ConnectionState};
use crate::events::IbcEvent;
use crate::path;
use crate::router::Module;
use crate::store::ProvableStore;
use crate::types::{ChannelId, ClientId, ConnectionId, Height, IbcError, PortId, TimestampMs};

/// A proof plus the counterparty height it was taken at.
#[derive(Clone, Debug)]
pub struct ProofData {
    /// Height of the counterparty consensus state to verify against.
    pub height: Height,
    /// Serialized proof bytes (client-specific format).
    pub bytes: Vec<u8>,
}

/// The local chain's view of "now", for timeout enforcement.
#[derive(Clone, Copy, Debug)]
pub struct HostTime {
    /// Local chain height.
    pub height: Height,
    /// Local chain timestamp.
    pub timestamp_ms: TimestampMs,
}

/// Access to this chain's own consensus history, used to validate the
/// counterparty's client of us during handshakes.
///
/// This is the capability whose absence keeps NEAR's IBC port incomplete
/// (§I footnote 2); the guest blockchain provides it by having the Guest
/// Contract track past guest blocks (§VI-D).
pub trait SelfHistory {
    /// Our own consensus state at `height`, if still tracked.
    fn self_consensus_at(&self, height: Height) -> Option<ConsensusState>;
}

/// Proof that the counterparty's client of us holds a given consensus
/// state, to be cross-checked against [`SelfHistory`].
#[derive(Clone, Debug)]
pub struct SelfConsensusProof {
    /// Our height the counterparty claims to have verified.
    pub self_height: Height,
    /// The consensus state the counterparty stored for that height.
    pub consensus: ConsensusState,
    /// Membership proof of that consensus state in the counterparty store.
    pub proof: ProofData,
}

/// Handler configuration.
#[derive(Clone, Copy, Debug)]
pub struct HandlerConfig {
    /// Seal packet receipts after writing them (guest-chain behaviour,
    /// §III-A). Chains with unbounded storage leave receipts live.
    pub seal_receipts: bool,
    /// Keep at most this many consensus states per client in the provable
    /// store, deleting the oldest (0 = unbounded). Part of keeping the
    /// guest's 10 MiB account sufficient "in the long term" (§V-D).
    pub consensus_history: usize,
}

impl Default for HandlerConfig {
    fn default() -> Self {
        Self { seal_receipts: true, consensus_history: 32 }
    }
}

/// The IBC state machine of one chain.
///
/// Every public `&mut self` method advances [`IbcHandler::stamp`], so an
/// observer that remembers the stamp it last read at can tell that no
/// client, connection, channel, module or stored key has changed since.
pub struct IbcHandler<S: ProvableStore> {
    store: S,
    config: HandlerConfig,
    stored_consensus_heights: BTreeMap<ClientId, VecDeque<Height>>,
    clients: BTreeMap<ClientId, Box<dyn LightClient>>,
    modules: HashMap<PortId, Box<dyn Module>>,
    self_history: Option<Box<dyn SelfHistory>>,
    next_client: u64,
    next_connection: u64,
    next_channel: u64,
    events: Vec<IbcEvent>,
    stamp: u64,
}

impl<S: ProvableStore> IbcHandler<S> {
    /// Creates a handler over `store` with default configuration.
    pub fn new(store: S) -> Self {
        Self::with_config(store, HandlerConfig::default())
    }

    /// Creates a handler with explicit configuration.
    pub fn with_config(store: S, config: HandlerConfig) -> Self {
        Self {
            store,
            config,
            stored_consensus_heights: BTreeMap::new(),
            clients: BTreeMap::new(),
            modules: HashMap::new(),
            self_history: None,
            next_client: 0,
            next_connection: 0,
            next_channel: 0,
            events: Vec::new(),
            stamp: 0,
        }
    }

    /// Installs the chain's own consensus history for handshake
    /// self-validation.
    pub fn set_self_history(&mut self, history: Box<dyn SelfHistory>) {
        self.stamp += 1;
        self.self_history = Some(history);
    }

    /// The provable store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable store access (chain-internal bookkeeping).
    pub fn store_mut(&mut self) -> &mut S {
        self.stamp += 1;
        &mut self.store
    }

    /// Current commitment root of the chain's IBC state.
    pub fn root(&self) -> Hash {
        self.store.root()
    }

    /// The change stamp: advanced by every public `&mut self` method,
    /// including a call that fails, and by nothing else. Equal stamps mean
    /// equal state.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Whether events are pending for [`Self::drain_events`].
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Removes and returns all pending events.
    pub fn drain_events(&mut self) -> Vec<IbcEvent> {
        self.stamp += 1;
        std::mem::take(&mut self.events)
    }

    // ------------------------------------------------------------------
    // ICS-02: clients
    // ------------------------------------------------------------------

    /// Registers a light client; returns its id.
    pub fn create_client(&mut self, client: Box<dyn LightClient>) -> ClientId {
        self.stamp += 1;
        let client_id = ClientId::new(self.next_client);
        self.next_client += 1;
        self.clients.insert(client_id.clone(), client);
        self.events.push(IbcEvent::ClientCreated { client_id: client_id.clone() });
        client_id
    }

    /// Looks a client up.
    ///
    /// # Errors
    ///
    /// [`IbcError::UnknownClient`].
    pub fn client(&self, client_id: &ClientId) -> Result<&dyn LightClient, IbcError> {
        self.clients
            .get(client_id)
            .map(|c| c.as_ref())
            .ok_or_else(|| IbcError::UnknownClient(client_id.clone()))
    }

    /// Every client, in id order.
    pub fn clients(&self) -> impl Iterator<Item = &dyn LightClient> {
        self.clients.values().map(|client| client.as_ref())
    }

    /// Feeds a header to a client (§II: light-client update).
    ///
    /// Also records the verified consensus state in our provable store so
    /// the counterparty can run handshake self-validation against it.
    ///
    /// # Errors
    ///
    /// [`IbcError::UnknownClient`], [`IbcError::FrozenClient`], or the
    /// client's verification error.
    pub fn update_client(
        &mut self,
        client_id: &ClientId,
        header: &[u8],
    ) -> Result<Height, IbcError> {
        self.stamp += 1;
        let client = self
            .clients
            .get_mut(client_id)
            .ok_or_else(|| IbcError::UnknownClient(client_id.clone()))?;
        if client.is_frozen() {
            return Err(IbcError::FrozenClient(client_id.clone()));
        }
        let height = client.update(header)?;
        let consensus =
            client.consensus_state(height).expect("update stores the consensus state it verified");
        self.store.set(
            &path::consensus_state(client_id, height),
            &serde_json::to_vec(&consensus).expect("consensus state serializes"),
        )?;
        // Bound provable-store growth: drop the oldest consensus states
        // beyond the configured history window.
        let heights = self.stored_consensus_heights.entry(client_id.clone()).or_default();
        heights.push_back(height);
        if self.config.consensus_history > 0 {
            while heights.len() > self.config.consensus_history {
                let old = heights.pop_front().expect("longer than the window");
                self.store.delete(&path::consensus_state(client_id, old))?;
            }
        }
        self.events.push(IbcEvent::ClientUpdated { client_id: client_id.clone(), height });
        Ok(height)
    }

    /// Submits misbehaviour evidence; freezes the client when valid.
    ///
    /// # Errors
    ///
    /// [`IbcError::UnknownClient`].
    pub fn submit_misbehaviour(
        &mut self,
        client_id: &ClientId,
        evidence: &[u8],
    ) -> Result<bool, IbcError> {
        self.stamp += 1;
        let client = self
            .clients
            .get_mut(client_id)
            .ok_or_else(|| IbcError::UnknownClient(client_id.clone()))?;
        if client.check_misbehaviour(evidence) {
            client.freeze();
            self.events.push(IbcEvent::ClientFrozen { client_id: client_id.clone() });
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn verify_membership(
        &self,
        client_id: &ClientId,
        proof: &ProofData,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), IbcError> {
        let client = self.client(client_id)?;
        if client.is_frozen() {
            return Err(IbcError::FrozenClient(client_id.clone()));
        }
        client.verify_membership(proof.height, key, value, &proof.bytes)
    }

    // ------------------------------------------------------------------
    // ICS-03: connection handshake
    // ------------------------------------------------------------------

    fn put_connection(
        &mut self,
        connection_id: &ConnectionId,
        end: &ConnectionEnd,
    ) -> Result<(), IbcError> {
        self.store.set(&path::connection(connection_id), &end.encode())?;
        self.events.push(IbcEvent::ConnectionStateChanged {
            connection_id: connection_id.clone(),
            state: format!("{:?}", end.state),
        });
        Ok(())
    }

    /// Reads a connection end.
    ///
    /// # Errors
    ///
    /// [`IbcError::UnknownConnection`].
    pub fn connection(&self, connection_id: &ConnectionId) -> Result<ConnectionEnd, IbcError> {
        let bytes = self
            .store
            .get(&path::connection(connection_id))?
            .ok_or_else(|| IbcError::UnknownConnection(connection_id.clone()))?;
        ConnectionEnd::decode(&bytes)
            .ok_or_else(|| IbcError::Store("corrupt connection end".into()))
    }

    /// Starts a handshake (side A).
    ///
    /// # Errors
    ///
    /// [`IbcError::UnknownClient`] if `client_id` is unregistered.
    pub fn conn_open_init(
        &mut self,
        client_id: ClientId,
        counterparty_client_id: ClientId,
    ) -> Result<ConnectionId, IbcError> {
        self.stamp += 1;
        self.client(&client_id)?;
        let connection_id = ConnectionId::new(self.next_connection);
        self.next_connection += 1;
        let end = ConnectionEnd::init(client_id, counterparty_client_id);
        self.put_connection(&connection_id, &end)?;
        Ok(connection_id)
    }

    /// Responds to a counterparty Init (side B), verifying its stored end.
    ///
    /// # Errors
    ///
    /// Proof/verification failures per [`IbcError`].
    pub fn conn_open_try(
        &mut self,
        client_id: ClientId,
        counterparty_client_id: ClientId,
        counterparty_connection_id: ConnectionId,
        proof_init: ProofData,
        self_consensus: Option<SelfConsensusProof>,
    ) -> Result<ConnectionId, IbcError> {
        self.stamp += 1;
        let expected = ConnectionEnd::init(counterparty_client_id.clone(), client_id.clone());
        self.verify_membership(
            &client_id,
            &proof_init,
            &path::connection(&counterparty_connection_id),
            &expected.encode(),
        )?;
        self.validate_self_consensus(&client_id, &counterparty_client_id, self_consensus)?;

        let connection_id = ConnectionId::new(self.next_connection);
        self.next_connection += 1;
        let end =
            ConnectionEnd::try_open(client_id, counterparty_client_id, counterparty_connection_id);
        self.put_connection(&connection_id, &end)?;
        Ok(connection_id)
    }

    /// Completes the handshake on side A after the counterparty's Try.
    ///
    /// # Errors
    ///
    /// [`IbcError::InvalidState`] unless the end is in Init; proof errors
    /// otherwise.
    pub fn conn_open_ack(
        &mut self,
        connection_id: &ConnectionId,
        counterparty_connection_id: ConnectionId,
        proof_try: ProofData,
        self_consensus: Option<SelfConsensusProof>,
    ) -> Result<(), IbcError> {
        self.stamp += 1;
        let mut end = self.connection(connection_id)?;
        if end.state != ConnectionState::Init {
            return Err(IbcError::InvalidState(format!(
                "conn_open_ack on {:?} connection",
                end.state
            )));
        }
        let expected = ConnectionEnd {
            state: ConnectionState::TryOpen,
            client_id: end.counterparty_client_id.clone(),
            counterparty_client_id: end.client_id.clone(),
            counterparty_connection_id: Some(connection_id.clone()),
            version: ConnectionEnd::DEFAULT_VERSION.to_string(),
        };
        self.verify_membership(
            &end.client_id,
            &proof_try,
            &path::connection(&counterparty_connection_id),
            &expected.encode(),
        )?;
        let client_id = end.client_id.clone();
        let counterparty_client_id = end.counterparty_client_id.clone();
        self.validate_self_consensus(&client_id, &counterparty_client_id, self_consensus)?;

        end.state = ConnectionState::Open;
        end.counterparty_connection_id = Some(counterparty_connection_id);
        self.put_connection(connection_id, &end)
    }

    /// Completes the handshake on side B after the counterparty's Ack.
    ///
    /// # Errors
    ///
    /// [`IbcError::InvalidState`] unless the end is in TryOpen; proof errors
    /// otherwise.
    pub fn conn_open_confirm(
        &mut self,
        connection_id: &ConnectionId,
        proof_ack: ProofData,
    ) -> Result<(), IbcError> {
        self.stamp += 1;
        let mut end = self.connection(connection_id)?;
        if end.state != ConnectionState::TryOpen {
            return Err(IbcError::InvalidState(format!(
                "conn_open_confirm on {:?} connection",
                end.state
            )));
        }
        let counterparty_connection_id =
            end.counterparty_connection_id.clone().expect("TryOpen implies counterparty id");
        let expected = ConnectionEnd {
            state: ConnectionState::Open,
            client_id: end.counterparty_client_id.clone(),
            counterparty_client_id: end.client_id.clone(),
            counterparty_connection_id: Some(connection_id.clone()),
            version: ConnectionEnd::DEFAULT_VERSION.to_string(),
        };
        self.verify_membership(
            &end.client_id,
            &proof_ack,
            &path::connection(&counterparty_connection_id),
            &expected.encode(),
        )?;
        end.state = ConnectionState::Open;
        self.put_connection(connection_id, &end)
    }

    /// Checks the counterparty's client of *us* against our own history
    /// (the `validate_self_client` step missing from NEAR's port, §I).
    fn validate_self_consensus(
        &self,
        client_id: &ClientId,
        counterparty_client_id: &ClientId,
        proof: Option<SelfConsensusProof>,
    ) -> Result<(), IbcError> {
        let (Some(history), Some(claim)) = (&self.self_history, proof) else {
            return Ok(());
        };
        // The consensus state must be committed in the counterparty store
        // under its client of us...
        self.verify_membership(
            client_id,
            &claim.proof,
            &path::consensus_state(counterparty_client_id, claim.self_height),
            &serde_json::to_vec(&claim.consensus).expect("consensus state serializes"),
        )?;
        // ...and must match what actually happened on this chain.
        let ours = history.self_consensus_at(claim.self_height).ok_or_else(|| {
            IbcError::ClientVerification(format!(
                "no self consensus recorded at height {}",
                claim.self_height
            ))
        })?;
        if ours != claim.consensus {
            return Err(IbcError::ClientVerification(
                "counterparty tracks a fork of this chain".into(),
            ));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // ICS-04: channel handshake
    // ------------------------------------------------------------------

    /// Binds an application module to a port.
    pub fn bind_port(&mut self, port_id: PortId, module: Box<dyn Module>) {
        self.stamp += 1;
        self.modules.insert(port_id, module);
    }

    /// Mutable access to the module bound to `port_id` (app-state queries).
    pub fn module_mut(&mut self, port_id: &PortId) -> Option<&mut (dyn Module + '_)> {
        self.stamp += 1;
        match self.modules.get_mut(port_id) {
            Some(module) => Some(module.as_mut()),
            None => None,
        }
    }

    /// Read-only access to the module bound to `port_id` (invariant
    /// checkers, reporting).
    pub fn module(&self, port_id: &PortId) -> Option<&(dyn Module + '_)> {
        match self.modules.get(port_id) {
            Some(module) => Some(module.as_ref()),
            None => None,
        }
    }

    fn put_channel(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        end: &ChannelEnd,
    ) -> Result<(), IbcError> {
        self.store.set(&path::channel(port_id, channel_id), &end.encode())?;
        self.events.push(IbcEvent::ChannelStateChanged {
            port_id: port_id.clone(),
            channel_id: channel_id.clone(),
            state: format!("{:?}", end.state),
        });
        Ok(())
    }

    /// Reads a channel end.
    ///
    /// # Errors
    ///
    /// [`IbcError::UnknownChannel`].
    pub fn channel(
        &self,
        port_id: &PortId,
        channel_id: &ChannelId,
    ) -> Result<ChannelEnd, IbcError> {
        let bytes = self
            .store
            .get(&path::channel(port_id, channel_id))?
            .ok_or_else(|| IbcError::UnknownChannel(port_id.clone(), channel_id.clone()))?;
        ChannelEnd::decode(&bytes).ok_or_else(|| IbcError::Store("corrupt channel end".into()))
    }

    fn open_connection(&self, connection_id: &ConnectionId) -> Result<ConnectionEnd, IbcError> {
        let connection = self.connection(connection_id)?;
        if !connection.is_open() {
            return Err(IbcError::InvalidState("connection not open".into()));
        }
        Ok(connection)
    }

    /// Starts a channel handshake (side A).
    ///
    /// # Errors
    ///
    /// [`IbcError::UnboundPort`] without a module; state errors otherwise.
    pub fn chan_open_init(
        &mut self,
        port_id: PortId,
        connection_id: ConnectionId,
        counterparty_port_id: PortId,
        ordering: Ordering,
        version: &str,
    ) -> Result<ChannelId, IbcError> {
        self.stamp += 1;
        if !self.modules.contains_key(&port_id) {
            return Err(IbcError::UnboundPort(port_id));
        }
        self.open_connection(&connection_id)?;
        let channel_id = ChannelId::new(self.next_channel);
        self.next_channel += 1;
        let end = ChannelEnd {
            state: ChannelState::Init,
            ordering,
            counterparty_port_id,
            counterparty_channel_id: None,
            connection_id,
            version: version.to_string(),
        };
        self.put_channel(&port_id, &channel_id, &end)?;
        self.init_sequences(&port_id, &channel_id)?;
        Ok(channel_id)
    }

    /// Responds to a counterparty channel Init (side B).
    ///
    /// # Errors
    ///
    /// Proof/state errors per [`IbcError`].
    #[allow(clippy::too_many_arguments)]
    pub fn chan_open_try(
        &mut self,
        port_id: PortId,
        connection_id: ConnectionId,
        counterparty_port_id: PortId,
        counterparty_channel_id: ChannelId,
        ordering: Ordering,
        version: &str,
        proof_init: ProofData,
    ) -> Result<ChannelId, IbcError> {
        self.stamp += 1;
        if !self.modules.contains_key(&port_id) {
            return Err(IbcError::UnboundPort(port_id));
        }
        let connection = self.open_connection(&connection_id)?;
        let expected = ChannelEnd {
            state: ChannelState::Init,
            ordering,
            counterparty_port_id: port_id.clone(),
            counterparty_channel_id: None,
            connection_id: connection
                .counterparty_connection_id
                .clone()
                .expect("open connection has counterparty id"),
            version: version.to_string(),
        };
        self.verify_membership(
            &connection.client_id,
            &proof_init,
            &path::channel(&counterparty_port_id, &counterparty_channel_id),
            &expected.encode(),
        )?;

        let channel_id = ChannelId::new(self.next_channel);
        self.next_channel += 1;
        let end = ChannelEnd {
            state: ChannelState::TryOpen,
            ordering,
            counterparty_port_id,
            counterparty_channel_id: Some(counterparty_channel_id),
            connection_id,
            version: version.to_string(),
        };
        self.put_channel(&port_id, &channel_id, &end)?;
        self.init_sequences(&port_id, &channel_id)?;
        Ok(channel_id)
    }

    /// Completes the channel handshake on side A.
    ///
    /// # Errors
    ///
    /// Proof/state errors per [`IbcError`].
    pub fn chan_open_ack(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        counterparty_channel_id: ChannelId,
        proof_try: ProofData,
    ) -> Result<(), IbcError> {
        self.stamp += 1;
        let mut end = self.channel(port_id, channel_id)?;
        if end.state != ChannelState::Init {
            return Err(IbcError::InvalidState(format!(
                "chan_open_ack on {:?} channel",
                end.state
            )));
        }
        let connection = self.open_connection(&end.connection_id)?;
        let expected = ChannelEnd {
            state: ChannelState::TryOpen,
            ordering: end.ordering,
            counterparty_port_id: port_id.clone(),
            counterparty_channel_id: Some(channel_id.clone()),
            connection_id: connection
                .counterparty_connection_id
                .clone()
                .expect("open connection has counterparty id"),
            version: end.version.clone(),
        };
        self.verify_membership(
            &connection.client_id,
            &proof_try,
            &path::channel(&end.counterparty_port_id, &counterparty_channel_id),
            &expected.encode(),
        )?;
        end.state = ChannelState::Open;
        end.counterparty_channel_id = Some(counterparty_channel_id);
        self.put_channel(port_id, channel_id, &end)?;
        let version = end.version.clone();
        self.module_callback_chan_open(port_id, channel_id, &version)
    }

    /// Completes the channel handshake on side B.
    ///
    /// # Errors
    ///
    /// Proof/state errors per [`IbcError`].
    pub fn chan_open_confirm(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        proof_ack: ProofData,
    ) -> Result<(), IbcError> {
        self.stamp += 1;
        let mut end = self.channel(port_id, channel_id)?;
        if end.state != ChannelState::TryOpen {
            return Err(IbcError::InvalidState(format!(
                "chan_open_confirm on {:?} channel",
                end.state
            )));
        }
        let connection = self.open_connection(&end.connection_id)?;
        let counterparty_channel_id =
            end.counterparty_channel_id.clone().expect("TryOpen implies counterparty id");
        let expected = ChannelEnd {
            state: ChannelState::Open,
            ordering: end.ordering,
            counterparty_port_id: port_id.clone(),
            counterparty_channel_id: Some(channel_id.clone()),
            connection_id: connection
                .counterparty_connection_id
                .clone()
                .expect("open connection has counterparty id"),
            version: end.version.clone(),
        };
        self.verify_membership(
            &connection.client_id,
            &proof_ack,
            &path::channel(&end.counterparty_port_id, &counterparty_channel_id),
            &expected.encode(),
        )?;
        end.state = ChannelState::Open;
        self.put_channel(port_id, channel_id, &end)?;
        let version = end.version.clone();
        self.module_callback_chan_open(port_id, channel_id, &version)
    }

    /// Closes a channel end from this side (`ChanCloseInit`). Packets can
    /// no longer be sent or received on it; in-flight packets can still be
    /// timed out.
    ///
    /// # Errors
    ///
    /// [`IbcError::InvalidState`] unless the channel is open.
    pub fn chan_close_init(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
    ) -> Result<(), IbcError> {
        self.stamp += 1;
        let mut end = self.channel(port_id, channel_id)?;
        if end.state != ChannelState::Open {
            return Err(IbcError::InvalidState(format!(
                "chan_close_init on {:?} channel",
                end.state
            )));
        }
        end.state = ChannelState::Closed;
        self.put_channel(port_id, channel_id, &end)
    }

    /// Closes this end after the counterparty proved it closed first
    /// (`ChanCloseConfirm`).
    ///
    /// # Errors
    ///
    /// [`IbcError::InvalidState`] unless open; proof errors otherwise.
    pub fn chan_close_confirm(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        proof_closed: ProofData,
    ) -> Result<(), IbcError> {
        self.stamp += 1;
        let mut end = self.channel(port_id, channel_id)?;
        if end.state != ChannelState::Open {
            return Err(IbcError::InvalidState(format!(
                "chan_close_confirm on {:?} channel",
                end.state
            )));
        }
        let connection = self.open_connection(&end.connection_id)?;
        let counterparty_channel_id =
            end.counterparty_channel_id.clone().expect("open channel has counterparty id");
        let expected = ChannelEnd {
            state: ChannelState::Closed,
            ordering: end.ordering,
            counterparty_port_id: port_id.clone(),
            counterparty_channel_id: Some(channel_id.clone()),
            connection_id: connection
                .counterparty_connection_id
                .clone()
                .expect("open connection has counterparty id"),
            version: end.version.clone(),
        };
        self.verify_membership(
            &connection.client_id,
            &proof_closed,
            &path::channel(&end.counterparty_port_id, &counterparty_channel_id),
            &expected.encode(),
        )?;
        end.state = ChannelState::Closed;
        self.put_channel(port_id, channel_id, &end)
    }

    fn module_callback_chan_open(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        version: &str,
    ) -> Result<(), IbcError> {
        let module =
            self.modules.get_mut(port_id).ok_or_else(|| IbcError::UnboundPort(port_id.clone()))?;
        module.on_chan_open(port_id, channel_id, version)
    }

    // ------------------------------------------------------------------
    // ICS-04: packets
    // ------------------------------------------------------------------

    fn init_sequences(&mut self, port_id: &PortId, channel_id: &ChannelId) -> Result<(), IbcError> {
        self.store.set(&path::next_sequence_send(port_id, channel_id), &1u64.to_be_bytes())?;
        self.store.set(&path::next_sequence_recv(port_id, channel_id), &1u64.to_be_bytes())?;
        Ok(())
    }

    fn read_sequence(&self, key: &[u8]) -> Result<u64, IbcError> {
        let bytes = self
            .store
            .get(key)?
            .ok_or_else(|| IbcError::Store("missing sequence counter".into()))?;
        let arr: [u8; 8] = bytes
            .as_slice()
            .try_into()
            .map_err(|_| IbcError::Store("corrupt sequence counter".into()))?;
        Ok(u64::from_be_bytes(arr))
    }

    /// Next sequence number that [`Self::send_packet`] will assign.
    ///
    /// # Errors
    ///
    /// [`IbcError::Store`] if the channel's counters are missing.
    fn next_sequence_send(
        &self,
        port_id: &PortId,
        channel_id: &ChannelId,
    ) -> Result<u64, IbcError> {
        self.read_sequence(&path::next_sequence_send(port_id, channel_id))
    }

    /// Sends a packet: assigns the next sequence, stores the commitment,
    /// emits [`IbcEvent::SendPacket`] (Alg. 1, `SendPacket`).
    ///
    /// # Errors
    ///
    /// State errors when the channel is not open.
    pub fn send_packet(
        &mut self,
        port_id: &PortId,
        channel_id: &ChannelId,
        payload: Vec<u8>,
        timeout: Timeout,
    ) -> Result<Packet, IbcError> {
        self.stamp += 1;
        let end = self.channel(port_id, channel_id)?;
        if !end.is_open() {
            return Err(IbcError::InvalidState("channel not open".into()));
        }
        let sequence = self.next_sequence_send(port_id, channel_id)?;
        self.store
            .set(&path::next_sequence_send(port_id, channel_id), &(sequence + 1).to_be_bytes())?;
        let packet = Packet {
            sequence,
            source_port: port_id.clone(),
            source_channel: channel_id.clone(),
            destination_port: end.counterparty_port_id.clone(),
            destination_channel: end
                .counterparty_channel_id
                .clone()
                .expect("open channel has counterparty id"),
            payload,
            timeout,
        };
        self.store.set(
            &path::packet_commitment(port_id, channel_id, sequence),
            packet.commitment().as_bytes(),
        )?;
        self.events.push(IbcEvent::SendPacket { packet: packet.clone() });
        Ok(packet)
    }

    /// Receives a packet (§II steps 3–4; Alg. 1, `ReceivePacket`):
    /// verifies the commitment proof, rejects duplicates via the (sealed)
    /// receipt, delivers to the application and commits the
    /// acknowledgement.
    ///
    /// # Errors
    ///
    /// [`IbcError::DuplicatePacket`] on redelivery, [`IbcError::Timeout`]
    /// past expiry, proof errors otherwise.
    pub fn recv_packet(
        &mut self,
        packet: &Packet,
        proof: ProofData,
        now: HostTime,
    ) -> Result<Acknowledgement, IbcError> {
        self.stamp += 1;
        let end = self.channel(&packet.destination_port, &packet.destination_channel)?;
        if !end.is_open() {
            return Err(IbcError::InvalidState("channel not open".into()));
        }
        if end.counterparty_port_id != packet.source_port
            || end.counterparty_channel_id.as_ref() != Some(&packet.source_channel)
        {
            return Err(IbcError::InvalidState("packet routed to wrong channel".into()));
        }
        if packet.timeout.has_expired(now.height, now.timestamp_ms) {
            return Err(IbcError::Timeout("packet expired before delivery".into()));
        }

        // Verify the commitment on the source chain.
        let connection = self.open_connection(&end.connection_id)?;
        self.verify_membership(
            &connection.client_id,
            &proof,
            &path::packet_commitment(&packet.source_port, &packet.source_channel, packet.sequence),
            packet.commitment().as_bytes(),
        )?;

        // Replay protection (Alg. 1 line 37: `assert ph ∉ trie`). A sealed
        // receipt slot reads as an error — exactly "already delivered".
        let receipt_key = path::packet_receipt(
            &packet.destination_port,
            &packet.destination_channel,
            packet.sequence,
        );
        match self.store.get(&receipt_key) {
            Ok(None) => {}
            Ok(Some(_)) | Err(_) => return Err(IbcError::DuplicatePacket),
        }
        if end.ordering == Ordering::Ordered {
            let expected = self.read_sequence(&path::next_sequence_recv(
                &packet.destination_port,
                &packet.destination_channel,
            ))?;
            if packet.sequence != expected {
                return Err(IbcError::InvalidState(format!(
                    "ordered channel expects sequence {expected}, got {}",
                    packet.sequence
                )));
            }
            self.store.set(
                &path::next_sequence_recv(&packet.destination_port, &packet.destination_channel),
                &(expected + 1).to_be_bytes(),
            )?;
        }
        self.store.set(&receipt_key, &[1])?;
        if self.config.seal_receipts {
            self.store.seal(&receipt_key)?;
        }

        // Deliver to the application (§II step 5: deliver payload).
        let module = self
            .modules
            .get_mut(&packet.destination_port)
            .ok_or_else(|| IbcError::UnboundPort(packet.destination_port.clone()))?;
        let ack = module.on_recv_packet(packet);

        // Commit the acknowledgement for relay back to the source.
        self.store.set(
            &path::packet_ack(
                &packet.destination_port,
                &packet.destination_channel,
                packet.sequence,
            ),
            ack.commitment().as_bytes(),
        )?;
        self.events.push(IbcEvent::RecvPacket { packet: packet.clone() });
        self.events
            .push(IbcEvent::WriteAcknowledgement { packet: packet.clone(), ack: ack.clone() });
        Ok(ack)
    }

    /// Processes the acknowledgement for a packet we sent (§II step 6):
    /// verifies the ack proof, clears the commitment, notifies the app.
    ///
    /// # Errors
    ///
    /// [`IbcError::DuplicatePacket`] if the commitment is already gone;
    /// proof errors otherwise.
    pub fn acknowledge_packet(
        &mut self,
        packet: &Packet,
        ack: &Acknowledgement,
        proof: ProofData,
    ) -> Result<(), IbcError> {
        self.stamp += 1;
        let end = self.channel(&packet.source_port, &packet.source_channel)?;
        let commitment_key =
            path::packet_commitment(&packet.source_port, &packet.source_channel, packet.sequence);
        let stored = self.store.get(&commitment_key)?.ok_or(IbcError::DuplicatePacket)?;
        if stored != packet.commitment().as_bytes() {
            return Err(IbcError::InvalidProof("commitment mismatch".into()));
        }
        let connection = self.open_connection(&end.connection_id)?;
        self.verify_membership(
            &connection.client_id,
            &proof,
            &path::packet_ack(
                &packet.destination_port,
                &packet.destination_channel,
                packet.sequence,
            ),
            ack.commitment().as_bytes(),
        )?;
        self.store.delete(&commitment_key)?;
        let module = self
            .modules
            .get_mut(&packet.source_port)
            .ok_or_else(|| IbcError::UnboundPort(packet.source_port.clone()))?;
        module.on_acknowledge(packet, ack)?;
        self.events.push(IbcEvent::AcknowledgePacket { packet: packet.clone() });
        Ok(())
    }

    /// Times out an unsent-in-time packet: verifies expiry at the proven
    /// counterparty height and the receipt's absence, then clears the
    /// commitment and refunds via the app.
    ///
    /// # Errors
    ///
    /// [`IbcError::Timeout`] if the packet has not expired at the proven
    /// height; proof errors otherwise. Ordered channels are not supported
    /// (transfer channels are unordered).
    pub fn timeout_packet(
        &mut self,
        packet: &Packet,
        proof_unreceived: ProofData,
    ) -> Result<(), IbcError> {
        self.stamp += 1;
        let end = self.channel(&packet.source_port, &packet.source_channel)?;
        if end.ordering == Ordering::Ordered {
            return Err(IbcError::InvalidState(
                "timeout on ordered channels is not supported".into(),
            ));
        }
        let commitment_key =
            path::packet_commitment(&packet.source_port, &packet.source_channel, packet.sequence);
        let stored = self.store.get(&commitment_key)?.ok_or(IbcError::DuplicatePacket)?;
        if stored != packet.commitment().as_bytes() {
            return Err(IbcError::InvalidProof("commitment mismatch".into()));
        }
        let connection = self.open_connection(&end.connection_id)?;
        let client = self.client(&connection.client_id)?;
        let consensus = client.consensus_state(proof_unreceived.height).ok_or_else(|| {
            IbcError::InvalidProof(format!(
                "no consensus state at height {}",
                proof_unreceived.height
            ))
        })?;
        if !packet.timeout.has_expired(proof_unreceived.height, consensus.timestamp_ms) {
            return Err(IbcError::Timeout("packet has not expired at the proven height".into()));
        }
        client.verify_non_membership(
            proof_unreceived.height,
            &path::packet_receipt(
                &packet.destination_port,
                &packet.destination_channel,
                packet.sequence,
            ),
            &proof_unreceived.bytes,
        )?;
        self.store.delete(&commitment_key)?;
        let module = self
            .modules
            .get_mut(&packet.source_port)
            .ok_or_else(|| IbcError::UnboundPort(packet.source_port.clone()))?;
        module.on_timeout(packet)?;
        self.events.push(IbcEvent::TimeoutPacket { packet: packet.clone() });
        Ok(())
    }
}

impl<S: ProvableStore> core::fmt::Debug for IbcHandler<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("IbcHandler")
            .field("clients", &self.clients.len())
            .field("modules", &self.modules.len())
            .field("root", &self.root())
            .finish()
    }
}
