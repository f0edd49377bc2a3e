//! Serde-configurable traffic parameters.

use serde::{Deserialize, Serialize};

use crate::curve::ArrivalCurve;

/// Hours → milliseconds (convenience for presets).
const HOUR_MS: u64 = 60 * 60 * 1_000;

/// How transfer amounts are drawn: log-uniform between `min` and `max`,
/// so a population mixes dust with whale-sized transfers like a real
/// ledger does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AmountMix {
    /// Smallest transfer.
    pub min: u128,
    /// Largest transfer (clamped to the sender's balance at draw time).
    pub max: u128,
}

impl Default for AmountMix {
    fn default() -> Self {
        Self { min: 1, max: 10_000 }
    }
}

/// How memos — and therefore packet sizes — are mixed.
///
/// Packet size is what splits a delivery into 4–5 host transactions
/// (§V-A), so a workload that never varies memo length never exercises
/// the chunking path under load.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemoMix {
    /// Fraction of transfers carrying router-style forward metadata.
    pub forward_fraction: f64,
    /// Longest multi-hop route encoded when forwarding (uniform 1..=n).
    pub max_route_hops: u32,
    /// Maximum extra payload padding in bytes (uniform 0..=n), modelling
    /// the long tail of memo sizes seen in main-net traffic.
    pub pad_max: u32,
}

impl Default for MemoMix {
    fn default() -> Self {
        Self { forward_fraction: 0.05, max_route_hops: 4, pad_max: 192 }
    }
}

/// Which IBC application an arrival exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppKind {
    /// ICS-20 fungible transfer (the default app).
    Transfer,
    /// ICS-721-style NFT transfer.
    Nft,
    /// ICS-27-style interchain-account batch.
    Ica,
}

/// How arrivals split across application ports: a fraction become NFT
/// transfers and a fraction interchain-account batches; the rest stay
/// ICS-20 fungible transfers. Both fractions default to zero, so
/// configurations written before the application stacks existed
/// generate byte-identical schedules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AppMix {
    /// Fraction of arrivals sent as NFT transfers.
    #[serde(default)]
    pub nft_fraction: f64,
    /// Fraction of arrivals sent as interchain-account batches.
    #[serde(default)]
    pub ica_fraction: f64,
}

impl AppMix {
    /// An even three-way split across the shipped applications.
    pub fn even() -> Self {
        Self { nft_fraction: 1.0 / 3.0, ica_fraction: 1.0 / 3.0 }
    }

    /// Classifies one uniform draw in `[0, 1)` into an application.
    pub fn classify(&self, draw: f64) -> AppKind {
        if draw < self.nft_fraction {
            AppKind::Nft
        } else if draw < self.nft_fraction + self.ica_fraction {
            AppKind::Ica
        } else {
            AppKind::Transfer
        }
    }
}

/// A complete traffic model: who sends (a seeded user population with
/// balances), how often (base rate shaped by an [`ArrivalCurve`]), in
/// which direction, and what the packets look like.
///
/// Pure data — the same `(TrafficConfig, seed)` pair always generates the
/// same schedule — and fully serde-round-trippable, so scenario files can
/// describe multi-week heavy-traffic campaigns declaratively.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Population size: distinct user accounts with balances.
    pub users: u32,
    /// Mean gap between arrivals (all users combined) at multiplier 1.
    pub mean_gap_ms: u64,
    /// Intensity shape over time (omitted ⇒ steady).
    #[serde(default)]
    pub curve: ArrivalCurve,
    /// Transfer amount distribution.
    #[serde(default)]
    pub amount: AmountMix,
    /// Memo/packet-size distribution.
    #[serde(default)]
    pub memo: MemoMix,
    /// Per-application traffic split (default: all plain transfers).
    #[serde(default)]
    pub apps: AppMix,
    /// Balance every user account starts with.
    pub initial_balance: u128,
}

/// Fraction of arrivals flowing counterparty→guest (the rest flow
/// guest→counterparty): main-net bridges skew outbound.
pub const INBOUND_FRACTION: f64 = 0.4;

/// Default per-user starting balance.
const DEFAULT_INITIAL_BALANCE: u128 = 1_000_000;

impl TrafficConfig {
    /// A steady (homogeneous Poisson) workload.
    pub fn steady(users: u32, mean_gap_ms: u64) -> Self {
        Self {
            users,
            mean_gap_ms,
            curve: ArrivalCurve::Steady,
            amount: AmountMix::default(),
            memo: MemoMix::default(),
            apps: AppMix::default(),
            initial_balance: DEFAULT_INITIAL_BALANCE,
        }
    }

    /// Routes a share of arrivals through the NFT and interchain-account
    /// apps instead of plain transfers.
    #[must_use]
    pub fn with_app_mix(mut self, apps: AppMix) -> Self {
        self.apps = apps;
        self
    }

    /// A day/night cycle: 3× the base rate at the peak, 0.3× at night.
    pub fn diurnal(users: u32, mean_gap_ms: u64) -> Self {
        Self {
            curve: ArrivalCurve::Diurnal {
                peak: 3.0,
                trough: 0.3,
                period_ms: 24 * HOUR_MS,
                peak_at_ms: 14 * HOUR_MS,
            },
            ..Self::steady(users, mean_gap_ms)
        }
    }

    /// A flash crowd one simulated hour in: 20× spike over a 5-minute
    /// ramp, decaying over 20 minutes.
    pub fn flash_crowd(users: u32, mean_gap_ms: u64) -> Self {
        Self {
            curve: ArrivalCurve::FlashCrowd {
                at_ms: HOUR_MS,
                ramp_ms: 5 * 60 * 1_000,
                peak: 20.0,
                decay_ms: 20 * 60 * 1_000,
            },
            ..Self::steady(users, mean_gap_ms)
        }
    }

    /// An airdrop claim window one simulated hour in: 40× the base rate
    /// for 30 minutes, flat otherwise.
    pub fn airdrop_storm(users: u32, mean_gap_ms: u64) -> Self {
        Self {
            curve: ArrivalCurve::AirdropStorm {
                at_ms: HOUR_MS,
                duration_ms: 30 * 60 * 1_000,
                surge: 40.0,
            },
            ..Self::steady(users, mean_gap_ms)
        }
    }

    /// The workload's shape label (the curve's serde tag) — the key
    /// per-shape pre-aggregated metrics are named under.
    pub fn shape_label(&self) -> &'static str {
        self.curve.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let config = TrafficConfig::steady(1_000, 2_000);
        assert_eq!(config.curve, ArrivalCurve::Steady);
        assert!(config.amount.min <= config.amount.max);
    }
}
