//! Relayer fee strategies (§V-A, §VI-B), and the flat per-link fee
//! schedules a multi-chain mesh prices its routes with.

use host_sim::FeePolicy;
use serde::{Deserialize, Serialize};

/// How the relayer (or a client) pays for host-chain inclusion.
///
/// The paper's deployment mixed two fixed strategies — Solana priority fees
/// (≈ 1.40 USD per send) and Jito bundles (≈ 3.02 USD) — producing the two
/// cost clusters of Fig. 3. [`FeeStrategy::Dynamic`] implements the §VI-B
/// future-work idea: adapt the fee to observed congestion.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FeeStrategy {
    /// Base per-signature fees only; cheapest, waits out congestion.
    Base,
    /// A fixed compute-unit price (micro-lamports per CU).
    FixedPriority {
        /// Price per compute unit in micro-lamports.
        micro_lamports_per_cu: u64,
    },
    /// A fixed Jito-style bundle tip; near-guaranteed next-slot inclusion.
    Bundle {
        /// Tip in lamports.
        tip_lamports: u64,
    },
    /// Congestion-adaptive (§VI-B): base fees while the network is calm,
    /// escalating priority fees as the observed load rises.
    Dynamic {
        /// CU price used when load exceeds `threshold`.
        high_micro_lamports_per_cu: u64,
        /// Load above which the relayer starts paying up.
        threshold: f64,
    },
}

impl FeeStrategy {
    /// Resolves the strategy to a concrete policy given the recently
    /// observed network load (0.0–1.0).
    pub fn policy(&self, recent_load: f64) -> FeePolicy {
        match *self {
            Self::Base => FeePolicy::BaseOnly,
            Self::FixedPriority { micro_lamports_per_cu } => {
                FeePolicy::Priority { micro_lamports_per_cu }
            }
            Self::Bundle { tip_lamports } => FeePolicy::Bundle { tip_lamports },
            Self::Dynamic { high_micro_lamports_per_cu, threshold } => {
                if recent_load > threshold {
                    // Scale the price with how far past the threshold the
                    // network is, up to the configured ceiling.
                    let pressure = ((recent_load - threshold) / (1.0 - threshold)).clamp(0.0, 1.0);
                    let price = (high_micro_lamports_per_cu as f64 * pressure.max(0.2)) as u64;
                    FeePolicy::Priority { micro_lamports_per_cu: price.max(1) }
                } else {
                    FeePolicy::BaseOnly
                }
            }
        }
    }
}

/// What relaying costs on one mesh link, in abstract fee units the
/// routing table can compare across links.
///
/// Counterparty-to-counterparty links have no host-chain fee market, so
/// costs here are flat schedules: a per-message charge for packet
/// deliveries (recv/ack/timeout) and a per-signature charge for light
/// client updates (verification cost scales with the validator count —
/// the same shape that makes guest-bound updates expensive in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkFee {
    /// Fee units per relayed packet message.
    pub per_message: u64,
    /// Fee units per header signature verified in a client update.
    pub per_signature: u64,
}

impl LinkFee {
    /// A free link (both charges zero).
    pub const FREE: Self = Self { per_message: 0, per_signature: 0 };

    /// Cost of delivering one packet message.
    pub const fn message_cost(&self) -> u64 {
        self.per_message
    }

    /// Cost of one client update carrying `signatures` signatures.
    pub const fn update_cost(&self, signatures: u64) -> u64 {
        self.per_signature * signatures
    }
}

impl Default for LinkFee {
    fn default() -> Self {
        Self::FREE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_escalates_with_load() {
        let strategy =
            FeeStrategy::Dynamic { high_micro_lamports_per_cu: 1_000_000, threshold: 0.6 };
        assert_eq!(strategy.policy(0.3), FeePolicy::BaseOnly);
        let FeePolicy::Priority { micro_lamports_per_cu: mid } = strategy.policy(0.7) else {
            panic!("expected priority");
        };
        let FeePolicy::Priority { micro_lamports_per_cu: high } = strategy.policy(0.95) else {
            panic!("expected priority");
        };
        assert!(high > mid, "{high} > {mid}");
    }

    #[test]
    fn link_fee_schedules() {
        assert_eq!(LinkFee::FREE.message_cost(), 0);
        let fee = LinkFee { per_message: 3, per_signature: 2 };
        assert_eq!(fee.update_cost(10), 20);
        assert_eq!(LinkFee::default(), LinkFee::FREE);
    }
}
