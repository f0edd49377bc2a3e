//! One-time setup: clients, connection and channel between the guest chain
//! and the counterparty.
//!
//! The handshake itself is not part of the paper's evaluation (it happens
//! once at deployment), so [`connect_chains`] drives it with direct
//! contract calls — the shared [`ibc_core::handshake`], with *real* proofs
//! and finalised guest blocks at every step — rather than through the
//! transaction pipeline. [`GuestEnd`] is the guest's side of that seam.

use std::cell::{RefCell, RefMut};
use std::rc::Rc;

use apps::{FeeMiddleware, MemoHookMiddleware, ModuleStack};
use counterparty_sim::CounterpartyChain;
use guest_chain::{GuestContract, GuestError, GuestHeader, GuestLightClient};
use ibc_core::handler::IbcHandler;
use ibc_core::handshake::{open_link, ChainEnd};
use ibc_core::ics20::TransferModule;
use ibc_core::types::{ChannelId, ClientId, ConnectionId, PortId};
use ibc_core::LightClient;
use sealable_trie::Trie;
use sim_crypto::schnorr::Keypair;

/// Everything the relayer needs to know about an established link.
#[derive(Clone, Debug)]
pub struct Endpoints {
    /// Guest-side client tracking the counterparty.
    pub cp_client_on_guest: ClientId,
    /// Counterparty-side client tracking the guest.
    pub guest_client_on_cp: ClientId,
    /// Guest-side connection end.
    pub guest_connection: ConnectionId,
    /// Counterparty-side connection end.
    pub cp_connection: ConnectionId,
    /// The application port (ICS-20 transfer).
    pub port: PortId,
    /// Guest-side channel.
    pub guest_channel: ChannelId,
    /// Counterparty-side channel.
    pub cp_channel: ChannelId,
}

/// Host blocks that pass per handshake step the guest takes part in.
const HOST_BLOCKS_PER_STEP: u64 = 2;

/// Generates a guest block at `host_height` and gathers quorum signatures
/// from `validators`; returns the finalised header.
fn finalise(
    contract: &mut GuestContract,
    validators: &[Keypair],
    now_ms: u64,
    host_height: u64,
) -> Result<GuestHeader, GuestError> {
    let block = contract.generate_block(now_ms, host_height)?;
    let signing_bytes = block.signing_bytes();
    for keypair in validators {
        if !contract.current_epoch().contains(&keypair.public()) {
            continue;
        }
        if contract.sign(block.height, keypair.public(), keypair.sign(&signing_bytes))? {
            break;
        }
    }
    let signatures = contract.signatures_at(block.height);
    Ok(GuestHeader { block, signatures })
}

/// The guest contract as a [`ChainEnd`]: committing means generate →
/// quorum-sign → header, which needs the validators' keys at hand. That
/// is a convenience of having deployed the validators ourselves, not a
/// property of the chain, so the adapter lives here rather than beside
/// the contract.
///
/// Holds the contract's `RefCell` borrow for as long as it lives; drop it
/// before anything else touches the contract. Every step the guest takes
/// part in — a commit or an accepted header — moves `host_height` on by
/// two host blocks.
pub struct GuestEnd<'a> {
    contract: RefMut<'a, GuestContract>,
    validators: &'a [Keypair],
    host_height: &'a mut u64,
}

impl<'a> GuestEnd<'a> {
    /// Wraps `contract`, signing with `validators` and counting host
    /// blocks in `host_height`.
    pub fn new(
        contract: &'a Rc<RefCell<GuestContract>>,
        validators: &'a [Keypair],
        host_height: &'a mut u64,
    ) -> Self {
        Self { contract: contract.borrow_mut(), validators, host_height }
    }
}

impl ChainEnd<GuestError> for GuestEnd<'_> {
    fn handler(&mut self) -> &mut IbcHandler<Trie> {
        self.contract.ibc_mut()
    }

    fn light_client(&self) -> Box<dyn LightClient> {
        let genesis = self.contract.block_at(0).expect("genesis exists");
        Box::new(GuestLightClient::from_genesis(&genesis, self.contract.current_epoch().clone()))
    }

    fn commit(&mut self, now_ms: u64) -> Result<(u64, Vec<u8>), GuestError> {
        *self.host_height += HOST_BLOCKS_PER_STEP;
        let header = finalise(&mut self.contract, self.validators, now_ms, *self.host_height)?;
        Ok((header.block.height, header.encode()))
    }

    fn accept(&mut self, client: &ClientId, header: &[u8], now_ms: u64) -> Result<(), GuestError> {
        *self.host_height += HOST_BLOCKS_PER_STEP;
        self.contract.update_counterparty_client(client, header, now_ms)?;
        Ok(())
    }
}

/// Generates a guest block, gathers quorum signatures from `validators`,
/// and pushes the finalised header into the counterparty's guest client.
///
/// Returns the finalised block.
///
/// # Errors
///
/// Propagates contract errors ([`GuestError::NothingToCommit`] when there
/// is no state change and Δ has not elapsed).
pub fn finalise_guest_block(
    contract: &Rc<RefCell<GuestContract>>,
    cp: &mut CounterpartyChain,
    guest_client_on_cp: &ClientId,
    validators: &[Keypair],
    now_ms: u64,
    host_height: u64,
) -> Result<guest_chain::GuestBlock, GuestError> {
    let header = finalise(&mut contract.borrow_mut(), validators, now_ms, host_height)?;
    cp.ibc_mut().update_client(guest_client_on_cp, &header.encode())?;
    Ok(header.block)
}

/// The transfer-port module stack both ends of the guest↔counterparty
/// link bind: an ICS-20 [`TransferModule`] wrapped by memo-hook and fee
/// middleware (innermost to outermost). No forward layer — this link is
/// a single hop, and the harness's inbound packets carry routing-shaped
/// memos purely for size realism.
fn transfer_stack() -> Box<ModuleStack> {
    Box::new(
        ModuleStack::new(Box::new(TransferModule::new()))
            .with(Box::new(MemoHookMiddleware::new()))
            .with(Box::new(FeeMiddleware::new())),
    )
}

/// Establishes clients, a connection and an ICS-20 transfer channel between
/// `contract` (the guest, which sends every Init) and `cp`, binding a fresh
/// transfer module stack (ICS-20 app + memo-hook + fee middleware) on each
/// side.
///
/// `clock_ms` and `host_height` advance as the handshake progresses.
///
/// # Errors
///
/// Any contract or IBC failure aborts the handshake.
pub fn connect_chains(
    contract: &Rc<RefCell<GuestContract>>,
    cp: &mut CounterpartyChain,
    validators: &[Keypair],
    clock_ms: &mut u64,
    host_height: &mut u64,
) -> Result<Endpoints, GuestError> {
    let port = PortId::transfer();
    let mut guest = GuestEnd::new(contract, validators, host_height);
    guest.handler().bind_port(port.clone(), transfer_stack());
    cp.ibc_mut().bind_port(port.clone(), transfer_stack());
    let link = open_link(&mut guest, cp, &[(port.clone(), "ics20-1")], clock_ms)?;

    // Clear bootstrap events so the relayer starts from a clean slate.
    guest.contract.drain_events();
    cp.drain_events();

    let [(guest_channel, cp_channel)]: [_; 1] =
        link.channels.try_into().expect("one channel per port");
    Ok(Endpoints {
        cp_client_on_guest: link.a_client,
        guest_client_on_cp: link.b_client,
        guest_connection: link.a_connection,
        cp_connection: link.b_connection,
        port,
        guest_channel,
        cp_channel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use counterparty_sim::CounterpartyConfig;
    use guest_chain::GuestConfig;

    #[test]
    fn full_handshake_completes() {
        let keypairs: Vec<Keypair> = (0..4).map(Keypair::from_seed).collect();
        let validators = keypairs.iter().map(|kp| (kp.public(), 100)).collect();
        let contract =
            Rc::new(RefCell::new(GuestContract::new(GuestConfig::fast(), validators, 0, 0)));
        let mut cp = CounterpartyChain::new(CounterpartyConfig::default(), 7);
        let mut clock = 0u64;
        let mut host_height = 0u64;
        let endpoints = connect_chains(&contract, &mut cp, &keypairs, &mut clock, &mut host_height)
            .expect("handshake");

        let guest = contract.borrow();
        let guest_chan = guest.ibc().channel(&endpoints.port, &endpoints.guest_channel).unwrap();
        assert!(guest_chan.is_open());
        let cp_chan = cp.ibc().channel(&endpoints.port, &endpoints.cp_channel).unwrap();
        assert!(cp_chan.is_open());
        assert_eq!(cp_chan.counterparty_channel_id.as_ref(), Some(&endpoints.guest_channel));
    }
}
