//! Declarative fault schedules.
//!
//! A [`ChaosPlan`] is a serialisable list of [`FaultEvent`]s — windows (or
//! instants) during which one [`Fault`] is active. Plans are data: they can
//! be written by hand, loaded from JSON, or built with the fluent helpers,
//! and the same plan plus the same seed always reproduces the same run.

use serde::{Deserialize, Serialize};

/// One kind of injectable fault.
///
/// Each variant names the component it disturbs; together they cover the
/// failure modes the paper's deployment actually met (§V-C's validator
/// outage, host congestion, relayer gaps) plus the adversarial ones its
/// design arguments appeal to (counterfeit mints, replayed chunks).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// A validator submits nothing during the window; its backlog is
    /// signed on return (the §V-C operator error).
    ValidatorCrash {
        /// Index into the testnet's validator set.
        validator: usize,
    },
    /// A validator's signing latency is multiplied by `factor`.
    ValidatorLatencySpike {
        /// Index into the testnet's validator set.
        validator: usize,
        /// Latency multiplier (> 1 slows the validator down).
        factor: f64,
    },
    /// A validator's clock drifts by `offset_ms` (its signatures fire
    /// early or late relative to true time).
    ValidatorClockSkew {
        /// Index into the testnet's validator set.
        validator: usize,
        /// Signed drift in milliseconds.
        offset_ms: i64,
    },
    /// The relayer process is down: no event polling, no submissions.
    RelayerHalt,
    /// Each chunked-job submission is lost with this probability.
    ChunkDrop {
        /// Per-submission loss probability in `[0, 1]`.
        probability: f64,
    },
    /// Each chunked-job submission is duplicated with this probability.
    ChunkDuplicate {
        /// Per-submission duplication probability in `[0, 1]`.
        probability: f64,
    },
    /// The next two planned instructions swap with this probability.
    ChunkReorder {
        /// Per-submission reorder probability in `[0, 1]`.
        probability: f64,
    },
    /// The host chain runs at a forced load (base-fee spike, base-class
    /// transactions crowded out).
    CongestionStorm {
        /// Forced host load in `[0, 0.98]`.
        load: f64,
    },
    /// Scheduled host transactions fail inclusion with this probability
    /// and are returned to the mempool.
    InclusionFailureBurst {
        /// Per-transaction inclusion-failure probability in `[0, 1]`.
        probability: f64,
    },
    /// The counterparty chain stops producing blocks.
    CounterpartyHalt,
    /// A named chain in a multi-chain mesh stops producing blocks (e.g.
    /// the middle chain of an `A→B→C` route; packets through it time out
    /// and their refunds must unwind hop-by-hop).
    ChainHalt {
        /// Mesh node name, e.g. `"chain-b"`.
        chain: String,
    },
    /// A named mesh link's relayer is down: neither direction of that
    /// link relays packets, acks, client updates or timeouts.
    LinkDown {
        /// Mesh link name, e.g. `"chain-a<>chain-b"`.
        link: String,
    },
    /// Vouchers are minted out of thin air on the counterparty — a bridge
    /// exploit the ICS-20 conservation invariant must flag. Fires once at
    /// the window start.
    CounterfeitMint {
        /// Credited counterparty account.
        account: String,
        /// Voucher denomination, e.g. `"transfer/channel-0/wsol"`.
        denom: String,
        /// Minted amount.
        amount: u128,
    },
}

impl Fault {
    /// The fault-kind slug: the label minus its parameters
    /// (`validator-crash`, `relayer-halt`, `counterfeit-mint`, …). Detection
    /// quality is scored per kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Fault::ValidatorCrash { .. } => "validator-crash",
            Fault::ValidatorLatencySpike { .. } => "validator-latency",
            Fault::ValidatorClockSkew { .. } => "validator-clock-skew",
            Fault::RelayerHalt => "relayer-halt",
            Fault::ChunkDrop { .. } => "chunk-drop",
            Fault::ChunkDuplicate { .. } => "chunk-duplicate",
            Fault::ChunkReorder { .. } => "chunk-reorder",
            Fault::CongestionStorm { .. } => "congestion-storm",
            Fault::InclusionFailureBurst { .. } => "inclusion-failure",
            Fault::CounterpartyHalt => "counterparty-halt",
            Fault::ChainHalt { .. } => "chain-halt",
            Fault::LinkDown { .. } => "link-down",
            Fault::CounterfeitMint { .. } => "counterfeit-mint",
        }
    }

    /// A short attribution label, recorded on invariant violations so a
    /// report can name the fault that (likely) triggered it: the
    /// [`Fault::kind`], then its parameters after a colon.
    pub fn label(&self) -> String {
        let params = match self {
            Fault::RelayerHalt | Fault::CounterpartyHalt => return self.kind().to_string(),
            Fault::ValidatorCrash { validator } => validator.to_string(),
            Fault::ValidatorLatencySpike { validator, factor } => format!("{validator}x{factor}"),
            Fault::ValidatorClockSkew { validator, offset_ms } => {
                format!("{validator}:{offset_ms}ms")
            }
            Fault::ChunkDrop { probability }
            | Fault::ChunkDuplicate { probability }
            | Fault::ChunkReorder { probability }
            | Fault::InclusionFailureBurst { probability } => probability.to_string(),
            Fault::CongestionStorm { load } => load.to_string(),
            Fault::ChainHalt { chain } => chain.clone(),
            Fault::LinkDown { link } => link.clone(),
            Fault::CounterfeitMint { denom, amount, .. } => format!("{amount}:{denom}"),
        };
        format!("{}:{params}", self.kind())
    }
}

/// A fault active during `[from_ms, until_ms)` of simulated time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Window start (inclusive), ms of simulated time.
    pub from_ms: u64,
    /// Window end (exclusive), ms of simulated time.
    pub until_ms: u64,
    /// The fault.
    pub fault: Fault,
}

impl FaultEvent {
    /// Whether the window covers instant `now_ms`.
    pub fn is_active(&self, now_ms: u64) -> bool {
        now_ms >= self.from_ms && now_ms < self.until_ms
    }
}

/// A deterministic fault schedule.
///
/// The default plan is empty and provably inert: a harness driven by an
/// empty plan is bit-identical to one without any chaos wiring at all.
///
/// # Examples
///
/// ```
/// use chaos::{ChaosPlan, Fault};
///
/// let plan = ChaosPlan::new(7)
///     .with(3_600_000, 7_200_000, Fault::RelayerHalt)
///     .at(5_000_000, Fault::CounterfeitMint {
///         account: "mallory".into(),
///         denom: "transfer/channel-0/wsol".into(),
///         amount: 1_000,
///     });
/// assert_eq!(plan.events.len(), 2);
/// let json = serde_json::to_string(&plan).unwrap();
/// let back: ChaosPlan = serde_json::from_str(&json).unwrap();
/// assert_eq!(back, plan);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Seed of the dedicated chaos RNG streams. Independent from the
    /// simulation seed, so the same workload can be replayed under
    /// different fault samplings (and vice versa).
    pub seed: u64,
    /// The scheduled faults.
    pub events: Vec<FaultEvent>,
}

impl ChaosPlan {
    /// An empty plan with the given chaos seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, events: Vec::new() }
    }

    /// Adds a fault active during `[from_ms, until_ms)`.
    pub fn with(mut self, from_ms: u64, until_ms: u64, fault: Fault) -> Self {
        self.events.push(FaultEvent { from_ms, until_ms, fault });
        self
    }

    /// Adds a one-instant fault at `at_ms` (a 1 ms window; one-shot faults
    /// such as [`Fault::CounterfeitMint`] fire exactly once).
    pub fn at(self, at_ms: u64, fault: Fault) -> Self {
        self.with(at_ms, at_ms + 1, fault)
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_bounds_are_half_open() {
        let event = FaultEvent { from_ms: 10, until_ms: 20, fault: Fault::RelayerHalt };
        assert!(!event.is_active(9));
        assert!(event.is_active(10));
        assert!(event.is_active(19));
        assert!(!event.is_active(20));
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = ChaosPlan::new(42)
            .with(0, 1_000, Fault::ValidatorCrash { validator: 3 })
            .with(500, 600, Fault::ValidatorLatencySpike { validator: 1, factor: 4.0 })
            .with(100, 200, Fault::ValidatorClockSkew { validator: 2, offset_ms: -30_000 })
            .with(0, 50, Fault::ChunkDrop { probability: 0.25 })
            .with(0, 50, Fault::CongestionStorm { load: 0.9 })
            .with(0, 900, Fault::ChainHalt { chain: "chain-b".into() })
            .with(0, 900, Fault::LinkDown { link: "chain-a<>chain-b".into() })
            .at(
                77,
                Fault::CounterfeitMint {
                    account: "mallory".into(),
                    denom: "transfer/channel-0/wsol".into(),
                    amount: 9,
                },
            );
        let json = serde_json::to_string(&plan).unwrap();
        let back: ChaosPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn labels_name_the_fault() {
        assert_eq!(Fault::RelayerHalt.label(), "relayer-halt");
        assert_eq!(Fault::ValidatorCrash { validator: 0 }.label(), "validator-crash:0");
        assert!(Fault::ChunkDrop { probability: 0.5 }.label().contains("0.5"));
    }
}
