//! Testnet configuration, including the validator profiles calibrated to
//! the paper's Table I.

use chaos::{ChaosPlan, Fault, InvariantConfig};
use guest_chain::GuestConfig;
use host_sim::{CongestionModel, FeePolicy, HostProfile};
use monitor::MonitorConfig;
use relayer::RelayerConfig;

/// Milliseconds per hour (convenience).
pub const HOUR_MS: u64 = 60 * 60 * 1_000;
/// Milliseconds per day.
pub const DAY_MS: u64 = 24 * HOUR_MS;

/// Behaviour of one simulated validator.
#[derive(Clone, Copy, Debug)]
pub struct ValidatorProfile {
    /// Bonded stake.
    pub stake: u64,
    /// Whether the validator runs signing infrastructure at all — 7 of the
    /// deployment's 24 never submitted a signature (§V-C).
    pub active: bool,
    /// Fee policy of its Sign transactions (Table I "Cost" column).
    pub fee_policy: FeePolicy,
    /// Median of its signing latency, in milliseconds (log-normal, with
    /// one shape σ = 0.45 shared by every validator).
    pub latency_median_ms: u64,
    /// Probability of signing a block that is *already finalised* (needed
    /// signatures are always submitted; this controls the Table-I spread of
    /// per-validator signature counts).
    pub diligence: f64,
}

impl ValidatorProfile {
    /// A dependable validator with the given stake (for tests).
    pub fn reliable(stake: u64) -> Self {
        Self {
            stake,
            active: true,
            fee_policy: FeePolicy::BaseOnly,
            latency_median_ms: 3_500,
            diligence: 1.0,
        }
    }
}

/// A priority-fee policy costing `cents` per Sign transaction in total
/// (2 base signatures = 0.2 ¢, remainder in priority fees over a 200 k CU
/// budget), reproducing Table I's cost column.
pub fn sign_fee_for_cents(cents: f64) -> FeePolicy {
    let total_lamports =
        (cents / 100.0 / host_sim::USD_PER_SOL * host_sim::LAMPORTS_PER_SOL as f64) as u64;
    let base = 2 * host_sim::LAMPORTS_PER_SIGNATURE;
    let extra = total_lamports.saturating_sub(base);
    if extra == 0 {
        FeePolicy::BaseOnly
    } else {
        // price × 200_000 CU / 1e6 = extra  ⇒  price = extra × 5.
        FeePolicy::Priority { micro_lamports_per_cu: extra * 5 }
    }
}

/// The 24 validators of the paper's deployment (Table I).
///
/// * Validator #1 (index 0) holds the dominant stake — the deployment
///   stalled when it failed, so the remaining honest validators cannot
///   have held a quorum without it. Its 10-hour day-11 outage is part of
///   [`TestnetConfig::paper`]'s chaos plan ([`paper_outage_plan`]).
/// * 16 further active validators: stakes scaled to their observed
///   signature share (diligence), fees from the Cost column, latency
///   medians from the latency columns.
/// * 7 validators that never sign.
pub fn paper_validators() -> Vec<ValidatorProfile> {
    // (diligence, fee cents, median latency s) from Table I rows 2–17.
    let rows: [(f64, f64, f64); 16] = [
        (0.64, 1.40, 3.2),
        (0.51, 0.25, 3.2),
        (0.41, 1.40, 4.0),
        (0.40, 0.23, 3.6),
        (0.39, 0.23, 3.6),
        (0.30, 1.40, 4.0),
        (0.29, 0.60, 4.8),
        (0.16, 0.23, 3.6),
        (0.14, 0.23, 3.2),
        (0.09, 1.40, 4.8),
        (0.08, 1.40, 3.6),
        (0.08, 1.40, 4.4),
        (0.07, 1.40, 4.4),
        (0.014, 1.40, 3.2),
        (0.027, 0.20, 3.2),
        (0.04, 0.20, 3.2),
    ];
    let mut profiles = vec![ValidatorProfile {
        // Validator #1: a dominant stake whose signature alone reaches the
        // ⅔ quorum — consistent with the deployment stalling the moment it
        // failed (§V-C). 1.00 ¢ fee; its 10-hour day-11 outage (the Fig. 2
        // stragglers and Fig. 6 tail) is scheduled by the paper chaos plan.
        stake: 1_000_000,
        active: true,
        fee_policy: sign_fee_for_cents(1.00),
        latency_median_ms: 5_600,
        diligence: 1.0,
    }];
    for (diligence, cents, median_s) in rows {
        profiles.push(ValidatorProfile {
            // Stake proportional to engagement, so the random signer draw
            // reaches quorum (together with #1) on almost every block.
            stake: (diligence * 100_000.0) as u64,
            active: true,
            fee_policy: sign_fee_for_cents(cents),
            latency_median_ms: (median_s * 1_000.0) as u64,
            diligence,
        });
    }
    for i in 0..7 {
        profiles.push(ValidatorProfile {
            stake: 6_000 + i * 10,
            active: false,
            fee_policy: FeePolicy::BaseOnly,
            latency_median_ms: 4_000,
            diligence: 0.0,
        });
    }
    profiles
}

/// The deployment's one recorded incident as a chaos scenario: validator
/// #1 crashes for 9 h 59 m starting on day 11 (§V-C). Signatures
/// scheduled into the window fire right after it (the operator fixes the
/// node and the backlog is signed) and the safety net skips the validator
/// while it is down, which is what reproduces the Table I stall.
pub fn paper_outage_plan(seed: u64) -> ChaosPlan {
    ChaosPlan::new(seed).with(
        11 * DAY_MS,
        11 * DAY_MS + 35_940_000,
        Fault::ValidatorCrash { validator: 0 },
    )
}

/// A misbehaving validator for fisherman experiments (§III-C).
#[derive(Clone, Copy, Debug)]
pub struct RogueConfig {
    /// Index of the equivocating validator.
    pub validator: usize,
    /// Per-block probability of signing a conflicting block.
    pub equivocate_probability: f64,
}

/// Workload: Poisson packet traffic in both directions.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Mean gap between guest→counterparty sends. Each transfer produces
    /// ~3 guest blocks (commitment, ack client-update, ack), so together
    /// with inbound traffic this calibrates Fig. 6's ≈25 % of gaps at the
    /// Δ = 1 h cut-off.
    pub outbound_mean_gap_ms: u64,
    /// Mean gap between counterparty→guest sends (drives the Fig. 4/5
    /// light-client updates; ~2 blocks per transfer).
    pub inbound_mean_gap_ms: u64,
}

impl Default for Workload {
    fn default() -> Self {
        Self { outbound_mean_gap_ms: 110 * 60 * 1_000, inbound_mean_gap_ms: 220 * 60 * 1_000 }
    }
}

/// Whether the run's shared telemetry sink records. `Full`, the default,
/// journals every packet lifecycle — every latency figure, attribution
/// table and detector reads it; `Disabled` is the overhead baseline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TelemetryMode {
    /// Record every lifecycle.
    #[default]
    Full,
    /// No telemetry at all (overhead baseline).
    Disabled,
}

/// Full testnet configuration.
#[derive(Clone, Debug)]
pub struct TestnetConfig {
    /// Simulation seed (same seed ⇒ same run).
    pub seed: u64,
    /// The host chain's runtime limits (Solana by default; §VI-D profiles
    /// show the guest on other hosts).
    pub host_profile: HostProfile,
    /// Guest-chain parameters (Δ, epochs, fees).
    pub guest: GuestConfig,
    /// Counterparty parameters (validator count drives update sizes).
    pub counterparty: counterparty_sim::CounterpartyConfig,
    /// Host-chain congestion.
    pub congestion: CongestionModel,
    /// Relayer behaviour.
    pub relayer: RelayerConfig,
    /// The validator set.
    pub validators: Vec<ValidatorProfile>,
    /// Packet workload.
    pub workload: Workload,
    /// Heavy-traffic model: a seeded user population driving arrivals
    /// through a time-varying curve (flash crowds, airdrop storms,
    /// diurnal cycles). `None` keeps the legacy two-stream Poisson
    /// workload above, byte-identical to previous releases.
    pub traffic: Option<workload::TrafficConfig>,
    /// Grace period after which every active validator signs an
    /// unfinalised block regardless of diligence.
    pub safety_net_ms: u64,
    /// Optional rogue validator; a fisherman actor watches the vote gossip
    /// and reports conflicts on-chain (§III-C).
    pub rogue: Option<RogueConfig>,
    /// Scheduled fault injection; the empty default plan is inert (the
    /// run is identical to one without any chaos machinery).
    pub chaos: ChaosPlan,
    /// Tuning of the invariant audit that runs alongside the simulation.
    pub invariants: InvariantConfig,
    /// Online health monitoring (detector battery + alert lifecycle). A
    /// healthy run journals no alert events, so enabling the monitor does
    /// not disturb baseline outputs beyond extra gauge series.
    pub monitor: MonitorConfig,
    /// Telemetry: full (default) or disabled.
    pub telemetry: TelemetryMode,
    /// Enables the wall-clock self-profiler. Wall time never feeds back
    /// into the simulation — the profile is a side channel read after
    /// the run — so flipping this cannot change any sim output.
    pub profile: bool,
}

impl TestnetConfig {
    /// The paper's deployment configuration (§IV–§V): Δ = 1 h, 24
    /// validators per Table I, slashing disabled, September-2024 workload.
    pub fn paper() -> Self {
        let guest = GuestConfig { slashing_enabled: false, ..GuestConfig::default() };
        Self {
            // Deployment parity: the paper's run had no automatic slashing
            // (§V-C); the seed encodes the evaluation start date.
            seed: 20240901,
            host_profile: HostProfile::SOLANA,
            guest,
            counterparty: counterparty_sim::CounterpartyConfig {
                // Occasional validator-set rotations (every ~3 simulated
                // days of produced blocks) exercise the in-order relay path
                // and fatten a few light-client updates.
                rotation_interval_blocks: 200,
                ..counterparty_sim::CounterpartyConfig::default()
            },
            congestion: CongestionModel::default(),
            relayer: RelayerConfig::default(),
            validators: paper_validators(),
            workload: Workload::default(),
            traffic: None,
            safety_net_ms: 20_000,
            rogue: None,
            chaos: paper_outage_plan(20240901),
            invariants: InvariantConfig::default(),
            monitor: MonitorConfig::paper(),
            telemetry: TelemetryMode::Full,
            profile: false,
        }
    }

    /// A small, fast configuration for tests and load runs: 4 equal
    /// validators, light traffic, short Δ, a pipelined relayer.
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            host_profile: HostProfile::SOLANA,
            guest: GuestConfig::fast(),
            counterparty: counterparty_sim::CounterpartyConfig {
                num_validators: 12,
                participation: 0.9,
                block_interval_ms: 3_000,
                rotation_interval_blocks: 0,
            },
            congestion: CongestionModel::idle(),
            // Load runs relay with as many jobs in flight as a host block
            // admits; `paper()` keeps the deployed relayer's one.
            relayer: RelayerConfig { pipelined: true, ..RelayerConfig::default() },
            validators: (0..4).map(|_| ValidatorProfile::reliable(100)).collect(),
            workload: Workload { outbound_mean_gap_ms: 60_000, inbound_mean_gap_ms: 90_000 },
            traffic: None,
            safety_net_ms: 15_000,
            rogue: None,
            chaos: ChaosPlan::default(),
            invariants: InvariantConfig::default(),
            monitor: MonitorConfig::small(),
            telemetry: TelemetryMode::Full,
            profile: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_validator_set_matches_deployment_shape() {
        let profiles = paper_validators();
        assert_eq!(profiles.len(), 24, "24 validators (§V)");
        assert_eq!(profiles.iter().filter(|p| !p.active).count(), 7, "7 never signed");
        // Without #1, the rest cannot form a quorum (the stall of §V-C).
        let total: u64 = profiles.iter().map(|p| p.stake).sum();
        let quorum = total * 2 / 3 + 1;
        let without_first: u64 = profiles[1..].iter().map(|p| p.stake).sum();
        assert!(without_first < quorum, "{without_first} < {quorum}");
        // With #1 plus the active set, quorum is reachable.
        let active: u64 = profiles.iter().filter(|p| p.active).map(|p| p.stake).sum();
        assert!(active >= quorum);
    }

    #[test]
    fn paper_relays_sequentially_and_small_pipelines() {
        assert!(!TestnetConfig::paper().relayer.pipelined, "Figs. 4–5 measure one job at a time");
        assert!(TestnetConfig::small(1).relayer.pipelined);
    }

    #[test]
    fn sign_fee_reproduces_table1_costs() {
        // 0.20 ¢ is exactly the two base signatures.
        assert_eq!(sign_fee_for_cents(0.20), FeePolicy::BaseOnly);
        // 1.40 ¢ = 0.2 base + 1.2 priority.
        let FeePolicy::Priority { micro_lamports_per_cu } = sign_fee_for_cents(1.40) else {
            panic!("expected priority fee");
        };
        let extra = micro_lamports_per_cu * 200_000 / 1_000_000;
        let total_cents = host_sim::lamports_to_cents(extra + 10_000);
        assert!((total_cents - 1.40).abs() < 0.01, "got {total_cents}");
    }
}
