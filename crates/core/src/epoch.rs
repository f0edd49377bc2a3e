//! Validator epochs (Proof-of-Stake, §III-B).

use ibc_core::client::{quorum, TrustedSet};
use serde::{Deserialize, Serialize};
use sim_crypto::schnorr::PublicKey;
use sim_crypto::{Hash, Sha256};

/// A validator and its bonded stake.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Validator {
    /// Signing key.
    pub pubkey: PublicKey,
    /// Bonded stake (lamports-denominated in the deployment).
    pub stake: u64,
}

/// A validator set fixed for a span of guest blocks.
///
/// Validators are selected by stake at each epoch boundary; a block is
/// finalised once signers holding at least [`Epoch::quorum_stake`] have
/// signed it (> ⅔ of the total stake).
///
/// # Examples
///
/// ```
/// use guest_chain::{Epoch, Validator};
/// use ibc_core::client::TrustedSet;
/// use sim_crypto::schnorr::Keypair;
///
/// let epoch = Epoch::new(vec![
///     Validator { pubkey: Keypair::from_seed(1).public(), stake: 70 },
///     Validator { pubkey: Keypair::from_seed(2).public(), stake: 30 },
/// ]);
/// assert_eq!(epoch.total_stake(), 100);
/// assert_eq!(epoch.quorum_stake(), 67, "strictly more than two thirds");
/// assert!(epoch.contains(&Keypair::from_seed(1).public()));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Epoch {
    validators: Vec<Validator>,
}

impl Epoch {
    /// Creates an epoch from a validator list (sorted internally so the
    /// epoch id is order-independent; duplicate keys keep the highest
    /// stake, making the result canonical for any input order).
    pub fn new(mut validators: Vec<Validator>) -> Self {
        validators.sort_by(|a, b| a.pubkey.cmp(&b.pubkey).then(b.stake.cmp(&a.stake)));
        validators.dedup_by_key(|v| v.pubkey);
        Self { validators }
    }

    /// The validators, sorted by public key.
    pub fn validators(&self) -> &[Validator] {
        &self.validators
    }

    /// Number of validators.
    pub fn len(&self) -> usize {
        self.validators.len()
    }

    /// Whether the epoch has no validators (an invalid state for a live
    /// chain, but representable during bootstrap).
    pub fn is_empty(&self) -> bool {
        self.validators.is_empty()
    }

    /// Commitment to the validator set.
    pub fn id(&self) -> Hash {
        let mut hasher = Sha256::new();
        hasher.update(b"bmg/epoch");
        hasher.update((self.validators.len() as u64).to_le_bytes());
        for validator in &self.validators {
            hasher.update(validator.pubkey.to_bytes());
            hasher.update(validator.stake.to_le_bytes());
        }
        hasher.finalize()
    }

    /// Stake required to finalise a block: strictly more than ⅔ of total.
    pub fn quorum_stake(&self) -> u64 {
        quorum(self.total_stake())
    }

    /// Whether `pubkey` is in the validator set.
    pub fn contains(&self, pubkey: &PublicKey) -> bool {
        self.stake_of(pubkey).is_some()
    }
}

impl TrustedSet for Epoch {
    fn stake_of(&self, pubkey: &PublicKey) -> Option<u64> {
        self.validators.iter().find(|v| v.pubkey == *pubkey).map(|v| v.stake)
    }

    fn total_stake(&self) -> u64 {
        self.validators.iter().map(|v| v.stake).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_crypto::schnorr::Keypair;

    fn epoch(stakes: &[u64]) -> Epoch {
        Epoch::new(
            stakes
                .iter()
                .enumerate()
                .map(|(i, &stake)| Validator {
                    pubkey: Keypair::from_seed(i as u64).public(),
                    stake,
                })
                .collect(),
        )
    }

    #[test]
    fn quorum_is_strictly_over_two_thirds() {
        let e = epoch(&[100, 100, 100]);
        assert_eq!(e.total_stake(), 300);
        assert_eq!(e.quorum_stake(), 201);
    }

    #[test]
    fn id_is_order_independent_and_content_sensitive() {
        let a = Epoch::new(vec![
            Validator { pubkey: Keypair::from_seed(1).public(), stake: 10 },
            Validator { pubkey: Keypair::from_seed(2).public(), stake: 20 },
        ]);
        let b = Epoch::new(vec![
            Validator { pubkey: Keypair::from_seed(2).public(), stake: 20 },
            Validator { pubkey: Keypair::from_seed(1).public(), stake: 10 },
        ]);
        assert_eq!(a.id(), b.id());
        let c = Epoch::new(vec![
            Validator { pubkey: Keypair::from_seed(2).public(), stake: 21 },
            Validator { pubkey: Keypair::from_seed(1).public(), stake: 10 },
        ]);
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn duplicate_validators_are_dropped() {
        let key = Keypair::from_seed(1).public();
        let e = Epoch::new(vec![
            Validator { pubkey: key, stake: 10 },
            Validator { pubkey: key, stake: 99 },
        ]);
        assert_eq!(e.len(), 1);
        assert_eq!(e.stake_of(&key), Some(99), "highest stake wins deterministically");
    }

    #[test]
    fn stake_lookup() {
        let e = epoch(&[5, 7]);
        assert_eq!(e.stake_of(&Keypair::from_seed(0).public()), Some(5));
        assert_eq!(e.stake_of(&Keypair::from_seed(9).public()), None);
        assert!(e.contains(&Keypair::from_seed(1).public()));
    }
}
