//! Turns a [`ChaosPlan`] into per-tick injection decisions.
//!
//! The controller is a pure schedule reader plus a little bookkeeping for
//! one-shot faults; it owns no randomness itself. Components that sample
//! (the host chain's inclusion failures, the relayer's chunk faults) derive
//! their dedicated RNG seeds from [`ChaosPlan::seed`], so chaos sampling
//! never touches the simulation's own random streams.

use crate::plan::{ChaosPlan, Fault};
use host_sim::Disturbance;
use relayer::ChunkFaults;

/// Evaluates which faults of a plan are active at a given instant.
#[derive(Debug)]
pub struct ChaosController {
    plan: ChaosPlan,
    /// Parallel to `plan.events`: whether a one-shot fault already fired.
    fired: Vec<bool>,
}

impl ChaosController {
    /// Wraps a plan.
    pub fn new(plan: ChaosPlan) -> Self {
        let fired = vec![false; plan.events.len()];
        Self { plan, fired }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Whether the plan schedules no faults (the controller is inert).
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// The first window edge (a `from_ms` or an `until_ms`) after `now_ms`,
    /// or `u64::MAX` when none is left. Every query below, and which
    /// one-shots are due, reads the same at every instant in
    /// `now_ms..next_boundary_after(now_ms)`, so a caller may keep what it
    /// read at `now_ms` until then.
    pub fn next_boundary_after(&self, now_ms: u64) -> u64 {
        self.plan
            .events
            .iter()
            .flat_map(|e| [e.from_ms, e.until_ms])
            .filter(|&edge| edge > now_ms)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Labels of every fault active at `now_ms`, plus already-fired
    /// one-shots — their damage persists past the firing instant, and a
    /// violation detected later should still name them.
    pub fn active_labels(&self, now_ms: u64) -> Vec<String> {
        self.plan
            .events
            .iter()
            .zip(&self.fired)
            .filter(|(e, fired)| e.is_active(now_ms) || **fired)
            .map(|(e, _)| e.fault.label())
            .collect()
    }

    /// The crash window covering instant `t` for `validator`, if any.
    ///
    /// Returning the window (not just a boolean) lets the harness replicate
    /// the deployment's outage semantics exactly: a signature scheduled to
    /// fire inside the window is deferred to just after its end, and the
    /// safety net skips the validator while the window is open.
    pub fn crash_window_at(&self, validator: usize, t: u64) -> Option<(u64, u64)> {
        self.plan.events.iter().find_map(|e| match &e.fault {
            Fault::ValidatorCrash { validator: v }
                if *v == validator && t >= e.from_ms && t < e.until_ms =>
            {
                Some((e.from_ms, e.until_ms))
            }
            _ => None,
        })
    }

    /// The combined latency multiplier for `validator` at `now_ms`
    /// (`1.0` when no spike is active).
    pub fn latency_factor(&self, validator: usize, now_ms: u64) -> f64 {
        self.plan
            .events
            .iter()
            .filter(|e| e.is_active(now_ms))
            .filter_map(|e| match &e.fault {
                Fault::ValidatorLatencySpike { validator: v, factor } if *v == validator => {
                    Some(*factor)
                }
                _ => None,
            })
            .product()
    }

    /// The clock drift of `validator` at `now_ms` (0 when none).
    pub fn clock_skew_ms(&self, validator: usize, now_ms: u64) -> i64 {
        self.plan
            .events
            .iter()
            .filter(|e| e.is_active(now_ms))
            .filter_map(|e| match &e.fault {
                Fault::ValidatorClockSkew { validator: v, offset_ms } if *v == validator => {
                    Some(*offset_ms)
                }
                _ => None,
            })
            .sum()
    }

    /// Whether the relayer is halted at `now_ms`.
    pub fn relayer_halted(&self, now_ms: u64) -> bool {
        self.plan
            .events
            .iter()
            .any(|e| e.is_active(now_ms) && matches!(e.fault, Fault::RelayerHalt))
    }

    /// Whether the counterparty chain is halted at `now_ms`.
    pub fn cp_halted(&self, now_ms: u64) -> bool {
        self.plan
            .events
            .iter()
            .any(|e| e.is_active(now_ms) && matches!(e.fault, Fault::CounterpartyHalt))
    }

    /// Whether the named mesh chain is halted at `now_ms`.
    pub fn chain_halted(&self, chain: &str, now_ms: u64) -> bool {
        self.plan.events.iter().any(|e| {
            e.is_active(now_ms) && matches!(&e.fault, Fault::ChainHalt { chain: c } if c == chain)
        })
    }

    /// Whether the named mesh link's relayer is down at `now_ms`.
    pub fn link_down(&self, link: &str, now_ms: u64) -> bool {
        self.plan.events.iter().any(|e| {
            e.is_active(now_ms) && matches!(&e.fault, Fault::LinkDown { link: l } if l == link)
        })
    }

    /// The host-chain disturbance at `now_ms` (default = inert).
    pub fn host_disturbance(&self, now_ms: u64) -> Disturbance {
        let mut disturbance = Disturbance::default();
        for event in self.plan.events.iter().filter(|e| e.is_active(now_ms)) {
            match &event.fault {
                Fault::CongestionStorm { load } => disturbance.forced_load = Some(*load),
                Fault::InclusionFailureBurst { probability } => {
                    disturbance.inclusion_failure_probability =
                        disturbance.inclusion_failure_probability.max(*probability);
                }
                _ => {}
            }
        }
        disturbance
    }

    /// The relayer chunk faults at `now_ms` (`None` when none are active,
    /// so the relayer's fault machinery stays unarmed at baseline).
    pub fn chunk_faults(&self, now_ms: u64) -> Option<ChunkFaults> {
        let mut faults = ChunkFaults { seed: self.plan.seed, ..ChunkFaults::default() };
        let mut any = false;
        for event in self.plan.events.iter().filter(|e| e.is_active(now_ms)) {
            match &event.fault {
                Fault::ChunkDrop { probability } => {
                    faults.drop_probability = faults.drop_probability.max(*probability);
                    any = true;
                }
                Fault::ChunkDuplicate { probability } => {
                    faults.duplicate_probability = faults.duplicate_probability.max(*probability);
                    any = true;
                }
                Fault::ChunkReorder { probability } => {
                    faults.reorder_probability = faults.reorder_probability.max(*probability);
                    any = true;
                }
                _ => {}
            }
        }
        any.then_some(faults)
    }

    /// One-shot faults whose window start has been reached; each is
    /// returned exactly once across the run.
    pub fn take_due_one_shots(&mut self, now_ms: u64) -> Vec<Fault> {
        let mut due = Vec::new();
        for (event, fired) in self.plan.events.iter().zip(self.fired.iter_mut()) {
            if *fired || now_ms < event.from_ms {
                continue;
            }
            if let Fault::CounterfeitMint { .. } = &event.fault {
                *fired = true;
                due.push(event.fault.clone());
            }
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ChaosPlan;

    #[test]
    fn empty_plan_is_inert() {
        let controller = ChaosController::new(ChaosPlan::default());
        assert!(controller.is_empty());
        assert!(controller.active_labels(0).is_empty());
        assert_eq!(controller.crash_window_at(0, 0), None);
        assert_eq!(controller.latency_factor(0, 0), 1.0);
        assert_eq!(controller.clock_skew_ms(0, 0), 0);
        assert!(!controller.relayer_halted(0));
        assert!(!controller.cp_halted(0));
        let disturbance = controller.host_disturbance(0);
        assert_eq!(disturbance.forced_load, None);
        assert_eq!(disturbance.inclusion_failure_probability, 0.0);
        assert_eq!(controller.chunk_faults(0), None);
    }

    #[test]
    fn windows_gate_every_decision() {
        let plan = ChaosPlan::new(1)
            .with(100, 200, Fault::ValidatorCrash { validator: 2 })
            .with(100, 200, Fault::ValidatorLatencySpike { validator: 2, factor: 3.0 })
            .with(100, 200, Fault::RelayerHalt)
            .with(100, 200, Fault::CounterpartyHalt)
            .with(100, 200, Fault::CongestionStorm { load: 0.9 })
            .with(100, 200, Fault::ChunkDrop { probability: 0.5 })
            .with(100, 200, Fault::ChainHalt { chain: "chain-b".into() })
            .with(100, 200, Fault::LinkDown { link: "chain-a<>chain-b".into() });
        let controller = ChaosController::new(plan);

        assert_eq!(controller.crash_window_at(2, 150), Some((100, 200)));
        assert_eq!(controller.crash_window_at(2, 99), None);
        assert_eq!(controller.crash_window_at(1, 150), None, "other validators unaffected");
        assert_eq!(controller.latency_factor(2, 150), 3.0);
        assert_eq!(controller.latency_factor(2, 200), 1.0, "window end is exclusive");
        assert!(controller.relayer_halted(150) && !controller.relayer_halted(200));
        assert!(controller.cp_halted(199) && !controller.cp_halted(99));
        assert!(
            controller.chain_halted("chain-b", 150) && !controller.chain_halted("chain-b", 200)
        );
        assert!(!controller.chain_halted("chain-a", 150), "other chains unaffected");
        assert!(controller.link_down("chain-a<>chain-b", 150));
        assert!(!controller.link_down("chain-b<>chain-c", 150), "other links unaffected");
        assert_eq!(controller.host_disturbance(150).forced_load, Some(0.9));
        assert_eq!(controller.host_disturbance(200).forced_load, None);
        let faults = controller.chunk_faults(150).unwrap();
        assert_eq!(faults.drop_probability, 0.5);
        assert_eq!(controller.chunk_faults(200), None);
        assert_eq!(controller.active_labels(150).len(), 8);
    }

    #[test]
    fn reads_kept_until_the_next_boundary_match_direct_queries() {
        let mint = Fault::CounterfeitMint {
            account: "mallory".into(),
            denom: "transfer/channel-0/wsol".into(),
            amount: 5,
        };
        let plan = ChaosPlan::new(3)
            .with(100, 400, Fault::CongestionStorm { load: 0.9 })
            .with(250, 600, Fault::InclusionFailureBurst { probability: 0.3 })
            .with(300, 350, Fault::RelayerHalt)
            .with(320, 700, Fault::CounterpartyHalt)
            .with(340, 360, Fault::RelayerHalt)
            .with(200, 500, Fault::ChunkDrop { probability: 0.2 })
            .with(450, 800, Fault::ChunkReorder { probability: 0.1 })
            .with(450, 460, Fault::CongestionStorm { load: 0.7 })
            .at(330, mint);
        let reads = |controller: &ChaosController, now| {
            let disturbance = controller.host_disturbance(now);
            (
                disturbance.forced_load,
                disturbance.inclusion_failure_probability,
                controller.relayer_halted(now),
                controller.cp_halted(now),
                controller.chunk_faults(now),
            )
        };
        let mut direct = ChaosController::new(plan.clone());
        let mut cached = ChaosController::new(plan);
        let (mut until, mut kept, mut rereads) = (0, None, 0);
        for now in 0..1_000 {
            let due = direct.take_due_one_shots(now);
            let mut due_cached = Vec::new();
            if now >= until {
                due_cached = cached.take_due_one_shots(now);
                kept = Some(reads(&cached, now));
                until = cached.next_boundary_after(now);
                rereads += 1;
            }
            assert_eq!(due_cached, due, "one-shots at {now}");
            assert_eq!(kept, Some(reads(&direct, now)), "reads at {now}");
        }
        assert_eq!(until, u64::MAX, "no edge after the last window");
        assert_eq!(rereads, 18, "one read at 0 and one at each of the 17 distinct edges");
    }

    #[test]
    fn one_shots_fire_exactly_once() {
        let mint = Fault::CounterfeitMint {
            account: "mallory".into(),
            denom: "transfer/channel-0/wsol".into(),
            amount: 5,
        };
        let mut controller = ChaosController::new(ChaosPlan::new(1).at(500, mint.clone()));
        assert!(controller.take_due_one_shots(499).is_empty());
        assert_eq!(controller.take_due_one_shots(500), vec![mint]);
        assert!(controller.take_due_one_shots(501).is_empty(), "already fired");
    }
}
