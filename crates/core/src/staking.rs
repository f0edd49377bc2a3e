//! Validator staking, exits and slashing (§III-B).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use sim_crypto::schnorr::PublicKey;

use crate::epoch::{Epoch, Validator};

/// Errors from staking operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StakeError {
    /// The key has no active stake.
    NotStaked,
    /// Stake below the configured minimum.
    BelowMinimum {
        /// The configured minimum.
        minimum: u64,
    },
    /// Withdrawal requested but the hold period has not elapsed.
    StillHeld {
        /// When the stake becomes claimable.
        available_at_ms: u64,
    },
    /// Nothing to claim.
    NothingPending,
}

impl core::fmt::Display for StakeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NotStaked => f.write_str("no active stake"),
            Self::BelowMinimum { minimum } => write!(f, "stake below minimum {minimum}"),
            Self::StillHeld { available_at_ms } => {
                write!(f, "stake held until t={available_at_ms} ms")
            }
            Self::NothingPending => f.write_str("no pending withdrawal"),
        }
    }
}

impl std::error::Error for StakeError {}

/// A withdrawal waiting out the hold period (one week in the deployment).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingWithdrawal {
    /// The exiting validator.
    pub pubkey: PublicKey,
    /// Amount being withdrawn.
    pub amount: u64,
    /// When it becomes claimable.
    pub available_at_ms: u64,
}

/// The candidate pool: active stakes and pending withdrawals.
///
/// # Examples
///
/// ```
/// use guest_chain::StakingPool;
/// use sim_crypto::schnorr::Keypair;
///
/// let mut pool = StakingPool::new();
/// pool.stake(Keypair::from_seed(1).public(), 500, 100)?;
/// pool.stake(Keypair::from_seed(2).public(), 900, 100)?;
/// pool.stake(Keypair::from_seed(3).public(), 200, 100)?;
///
/// // The next epoch takes the top candidates by stake.
/// let epoch = pool.select_validators(2, 100);
/// assert_eq!(epoch.len(), 2);
/// assert!(epoch.contains(&Keypair::from_seed(2).public()));
/// assert!(!epoch.contains(&Keypair::from_seed(3).public()));
/// # Ok::<(), guest_chain::StakeError>(())
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StakingPool {
    pub(crate) stakes: HashMap<PublicKey, u64>,
    pub(crate) pending: Vec<PendingWithdrawal>,
}

impl StakingPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bonds `amount` for `pubkey` (cumulative).
    ///
    /// # Errors
    ///
    /// [`StakeError::BelowMinimum`] if the resulting stake is below
    /// `min_stake`.
    pub fn stake(
        &mut self,
        pubkey: PublicKey,
        amount: u64,
        min_stake: u64,
    ) -> Result<u64, StakeError> {
        let entry = self.stakes.entry(pubkey).or_default();
        if *entry + amount < min_stake {
            return Err(StakeError::BelowMinimum { minimum: min_stake });
        }
        *entry += amount;
        Ok(*entry)
    }

    /// Requests a full exit: the stake stops counting immediately and
    /// becomes claimable after `hold_ms`.
    ///
    /// # Errors
    ///
    /// [`StakeError::NotStaked`] without an active stake.
    pub fn request_unstake(
        &mut self,
        pubkey: &PublicKey,
        now_ms: u64,
        hold_ms: u64,
    ) -> Result<PendingWithdrawal, StakeError> {
        let amount = self.stakes.remove(pubkey).ok_or(StakeError::NotStaked)?;
        let withdrawal =
            PendingWithdrawal { pubkey: *pubkey, amount, available_at_ms: now_ms + hold_ms };
        self.pending.push(withdrawal);
        Ok(withdrawal)
    }

    /// Claims a matured withdrawal, returning the freed amount.
    ///
    /// # Errors
    ///
    /// [`StakeError::NothingPending`] or [`StakeError::StillHeld`].
    pub fn claim(&mut self, pubkey: &PublicKey, now_ms: u64) -> Result<u64, StakeError> {
        let position = self
            .pending
            .iter()
            .position(|w| w.pubkey == *pubkey)
            .ok_or(StakeError::NothingPending)?;
        let withdrawal = self.pending[position];
        if now_ms < withdrawal.available_at_ms {
            return Err(StakeError::StillHeld { available_at_ms: withdrawal.available_at_ms });
        }
        self.pending.remove(position);
        Ok(withdrawal.amount)
    }

    /// Slashes `pubkey`: active stake *and* pending withdrawals are burned.
    /// Returns the burned amount.
    pub fn slash(&mut self, pubkey: &PublicKey) -> u64 {
        let mut burned = self.stakes.remove(pubkey).unwrap_or(0);
        self.pending.retain(|w| {
            if w.pubkey == *pubkey {
                burned += w.amount;
                false
            } else {
                true
            }
        });
        burned
    }

    /// The active stake of `pubkey`.
    pub fn stake_of(&self, pubkey: &PublicKey) -> u64 {
        self.stakes.get(pubkey).copied().unwrap_or(0)
    }

    /// Total active stake in the pool.
    pub fn total_stake(&self) -> u64 {
        self.stakes.values().sum()
    }

    /// Total stake locked in pending withdrawals (still slashable, so a
    /// stake-conservation audit counts it alongside [`Self::total_stake`]).
    pub fn pending_total(&self) -> u64 {
        self.pending.iter().map(|w| w.amount).sum()
    }

    /// Releases every active stake and pending withdrawal (the §VI-A
    /// self-destruction path), emptying the pool.
    pub fn release_all(&mut self) -> Vec<(PublicKey, u64)> {
        let mut released: Vec<(PublicKey, u64)> = self.stakes.drain().collect();
        for withdrawal in self.pending.drain(..) {
            released.push((withdrawal.pubkey, withdrawal.amount));
        }
        released.sort_by_key(|(pk, _)| *pk);
        released
    }

    /// Selects the next epoch's validators: the top `max_validators`
    /// candidates by stake, at or above `min_stake`.
    pub fn select_validators(&self, max_validators: usize, min_stake: u64) -> Epoch {
        let mut candidates: Vec<Validator> = self
            .stakes
            .iter()
            .filter(|(_, stake)| **stake >= min_stake)
            .map(|(pubkey, stake)| Validator { pubkey: *pubkey, stake: *stake })
            .collect();
        // Highest stake first; ties broken by key for determinism.
        candidates.sort_by(|a, b| b.stake.cmp(&a.stake).then(a.pubkey.cmp(&b.pubkey)));
        candidates.truncate(max_validators);
        Epoch::new(candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_crypto::schnorr::Keypair;

    fn key(seed: u64) -> PublicKey {
        Keypair::from_seed(seed).public()
    }

    #[test]
    fn stake_accumulates() {
        let mut pool = StakingPool::new();
        pool.stake(key(1), 100, 50).unwrap();
        pool.stake(key(1), 30, 50).unwrap();
        assert_eq!(pool.stake_of(&key(1)), 130);
    }

    #[test]
    fn minimum_enforced() {
        let mut pool = StakingPool::new();
        assert_eq!(pool.stake(key(1), 10, 50), Err(StakeError::BelowMinimum { minimum: 50 }));
        assert_eq!(pool.stake_of(&key(1)), 0);
    }

    #[test]
    fn unstake_hold_period() {
        let mut pool = StakingPool::new();
        pool.stake(key(1), 100, 1).unwrap();
        let withdrawal = pool.request_unstake(&key(1), 1_000, 500).unwrap();
        assert_eq!(withdrawal.available_at_ms, 1_500);
        assert_eq!(pool.stake_of(&key(1)), 0, "stops counting immediately");
        assert_eq!(
            pool.claim(&key(1), 1_400),
            Err(StakeError::StillHeld { available_at_ms: 1_500 })
        );
        assert_eq!(pool.claim(&key(1), 1_500), Ok(100));
        assert_eq!(pool.claim(&key(1), 1_600), Err(StakeError::NothingPending));
    }

    #[test]
    fn slash_burns_active_and_pending() {
        let mut pool = StakingPool::new();
        pool.stake(key(1), 100, 1).unwrap();
        pool.stake(key(2), 70, 1).unwrap();
        pool.request_unstake(&key(2), 0, 1_000).unwrap();
        assert_eq!(pool.slash(&key(1)), 100);
        assert_eq!(pool.slash(&key(2)), 70, "held withdrawals are slashable");
        assert_eq!(pool.slash(&key(3)), 0);
    }

    #[test]
    fn selects_top_stakes() {
        let mut pool = StakingPool::new();
        for (seed, stake) in [(1u64, 50u64), (2, 90), (3, 10), (4, 70)] {
            pool.stake(key(seed), stake, 1).unwrap();
        }
        let epoch = pool.select_validators(2, 1);
        assert_eq!(epoch.len(), 2);
        assert!(epoch.contains(&key(2)));
        assert!(epoch.contains(&key(4)));
        // min_stake filters.
        let epoch = pool.select_validators(10, 60);
        assert_eq!(epoch.len(), 2);
    }

    #[test]
    fn selection_is_deterministic_under_ties() {
        let mut a = StakingPool::new();
        let mut b = StakingPool::new();
        for seed in [3u64, 1, 2] {
            a.stake(key(seed), 10, 1).unwrap();
        }
        for seed in [2u64, 3, 1] {
            b.stake(key(seed), 10, 1).unwrap();
        }
        assert_eq!(a.select_validators(2, 1).id(), b.select_validators(2, 1).id());
    }
}
