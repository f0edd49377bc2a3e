//! The chain's record of one committed block: what was committed and who
//! voted. The signatures are computed the first time the header is read.

use std::cell::RefCell;

use ibc_core::client::QuorumHeader;
use profiler::Profiler;
use sim_crypto::schnorr::{Keypair, PublicKey, Signature};
use sim_crypto::Hash;

use crate::header::CpHeader;

/// One committed counterparty block.
///
/// The four public fields are everything the validators signed over, and
/// all that block production, timeout checks and proof queries need. The
/// commit itself — one signature per validator that voted — is only
/// material to whoever relays the header, and most headers are never
/// relayed (a keep-alive block a minute against a handful of packets a
/// day), so the record keeps *who* voted and
/// [`CounterpartyChain::header_at`](crate::CounterpartyChain::header_at)
/// signs on first read. Signing is deterministic in key and message, so
/// the header's bytes do not depend on when, or whether, it is read.
#[derive(Debug)]
pub struct CpCommit {
    /// Block height.
    pub height: u64,
    /// Application state root (the IBC store's commitment).
    pub app_hash: Hash,
    /// Block timestamp.
    pub timestamp_ms: u64,
    /// The validator set taking over from the next block, when this block
    /// closes a counterparty epoch.
    pub next_validators: Option<Vec<(PublicKey, u64)>>,
    votes: RefCell<Votes>,
}

/// A commit before and after its first read. `Cast` is replaced, not
/// kept beside the signatures: a header that is read costs no more memory
/// than one signed at production did.
#[derive(Debug)]
enum Votes {
    /// Validator `i` of the set that committed this block is
    /// `pool[(set_start + i) % pool.len()]` — every set, the initial one
    /// included, is such a window of the candidate pool, so a height stays
    /// signable after its set rotated out.
    Cast {
        set_start: usize,
        voters: VoteMask,
    },
    Signed(Vec<(PublicKey, Signature)>),
}

/// Which validators of a set voted: bit `i` is validator `i`.
#[derive(Debug)]
pub(crate) struct VoteMask(Box<[u8]>);

impl VoteMask {
    /// Nobody of a set of `set_len` has voted.
    pub(crate) fn new(set_len: usize) -> Self {
        Self(vec![0; set_len.div_ceil(8)].into_boxed_slice())
    }

    /// Records validator `i`'s vote; `false` if it had voted already.
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let fresh = self.0[i / 8] & (1 << (i % 8)) == 0;
        self.0[i / 8] |= 1 << (i % 8);
        fresh
    }

    /// The validators that voted, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.0.len() * 8).filter(|i| self.0[i / 8] & (1 << (i % 8)) != 0)
    }
}

impl CpCommit {
    /// A block committed by `voters` out of the set starting at
    /// `pool[set_start]`.
    pub(crate) fn new(
        height: u64,
        app_hash: Hash,
        timestamp_ms: u64,
        next_validators: Option<Vec<(PublicKey, u64)>>,
        set_start: usize,
        voters: VoteMask,
    ) -> Self {
        let votes = RefCell::new(Votes::Cast { set_start, voters });
        Self { height, app_hash, timestamp_ms, next_validators, votes }
    }

    /// The signed header, signing it if nobody has read it before.
    pub(crate) fn header(&self, pool: &[Keypair], profiler: &Profiler) -> CpHeader {
        let mut header = CpHeader {
            height: self.height,
            app_hash: self.app_hash,
            timestamp_ms: self.timestamp_ms,
            next_validators: self.next_validators.clone(),
            signatures: Vec::new(),
        };
        let mut votes = self.votes.borrow_mut();
        header.signatures = match &*votes {
            Votes::Signed(signatures) => signatures.clone(),
            Votes::Cast { set_start, voters } => {
                let _sign = profiler.scope("cp.sign");
                let signing = header.signed_bytes();
                let signatures: Vec<_> = voters
                    .iter()
                    .map(|i| {
                        let validator = &pool[(set_start + i) % pool.len()];
                        (validator.public(), validator.sign(&signing))
                    })
                    .collect();
                *votes = Votes::Signed(signatures.clone());
                signatures
            }
        };
        header
    }
}
