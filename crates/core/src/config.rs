//! Guest blockchain configuration.

use serde::{Deserialize, Serialize};

/// Minimum stake to be considered a validator candidate.
pub const MIN_STAKE: u64 = 1;

/// Fee collected per sent packet, in lamports (Alg. 1 `collect_fees`).
pub const SEND_FEE_LAMPORTS: u64 = 50_000;

/// Share of collected packet fees distributed to the validators who sign
/// each finalised block, in percent (the incentive mechanism the paper's
/// deployment had not implemented yet, §V-C).
pub const REWARD_SHARE_PERCENT: u64 = 80;

/// Parameters of a guest-blockchain deployment.
///
/// Defaults reproduce the paper's main-net configuration (§IV): Δ = 1 h,
/// minimum epoch length 100 000 host blocks (≈ 12 h), stake held one week
/// after exit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuestConfig {
    /// Δ — maximum age of the head before an empty block is generated
    /// (guarantees timestamp progress for IBC timeouts, §III-A).
    pub delta_ms: u64,
    /// Minimum epoch length in host blocks.
    pub min_epoch_length_host_blocks: u64,
    /// How long withdrawn stake is held before it can be claimed.
    pub stake_hold_ms: u64,
    /// Maximum validator-set size per epoch.
    pub max_validators: usize,
    /// Whether misbehaving validators lose their stake. The paper's
    /// deployment had slashing *disabled* ("automatic slashing and rewards
    /// was not implemented", §V-C); Table-I parity runs use `false`.
    pub slashing_enabled: bool,
    /// §VI-A mitigation for the "last validator wishing to quit" bank-run:
    /// once this much time passes without a new guest block, the contract
    /// may self-destruct and release every stake. 0 disables.
    pub abandonment_timeout_ms: u64,
    /// §VI-C mitigation: maximum light-client updates per client per hour
    /// (rate limiting gives honest actors time to react to a compromised
    /// counterparty). 0 disables.
    pub max_client_updates_per_hour: u32,
}

impl Default for GuestConfig {
    fn default() -> Self {
        Self {
            delta_ms: 60 * 60 * 1_000,
            min_epoch_length_host_blocks: 100_000,
            stake_hold_ms: 7 * 24 * 60 * 60 * 1_000,
            max_validators: 24,
            slashing_enabled: true,
            abandonment_timeout_ms: 30 * 24 * 60 * 60 * 1_000,
            max_client_updates_per_hour: 600,
        }
    }
}

impl GuestConfig {
    /// A configuration with short timings, convenient for tests: Δ = 10 s,
    /// epochs every 100 host blocks, one-minute stake hold.
    pub fn fast() -> Self {
        Self {
            delta_ms: 10_000,
            min_epoch_length_host_blocks: 100,
            stake_hold_ms: 60_000,
            max_validators: 24,
            slashing_enabled: true,
            abandonment_timeout_ms: 5 * 60 * 1_000,
            max_client_updates_per_hour: 600,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_deployment() {
        let config = GuestConfig::default();
        assert_eq!(config.delta_ms, 3_600_000, "Δ = 1 hour");
        assert_eq!(config.min_epoch_length_host_blocks, 100_000);
        assert_eq!(config.stake_hold_ms, 604_800_000, "one week");
        assert_eq!(config.max_validators, 24, "the deployment had 24 validators");
    }
}
