//! The traffic generator: a deterministic stream of arrivals sampled
//! from the configured non-homogeneous Poisson process.

use sim_crypto::rng::{seed_stream, SplitMix64};

use crate::config::{TrafficConfig, INBOUND_FRACTION};
use crate::population::UserPopulation;

/// Which way a transfer flows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Guest → counterparty (a host-side user escrows native tokens).
    Outbound,
    /// Counterparty → guest (mints vouchers on the guest).
    Inbound,
}

/// One generated transfer.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// When the user submits, in simulated ms.
    pub at_ms: u64,
    /// Sending user (index into the population).
    pub user: u32,
    /// Flow direction.
    pub direction: Direction,
    /// Transfer amount, already debited from the user's balance (0 when
    /// the user was broke — callers skip those).
    pub amount: u128,
    /// Memo payload (sizes the packet; may carry forward metadata).
    pub memo: String,
}

/// Generates [`Arrival`]s one at a time, in timestamp order, forever.
///
/// Sampling uses Lewis thinning: candidate gaps are drawn from the
/// homogeneous process at the curve's majorising rate, then accepted with
/// probability `multiplier(t) / max_multiplier`. Acceptance, user choice,
/// direction, amount and memo all come from one [`SplitMix64`] stream
/// derived from `(seed, "workload.traffic")`, so the schedule is a pure
/// function of `(config, seed)`.
#[derive(Clone, Debug)]
pub struct TrafficGenerator {
    config: TrafficConfig,
    rng: SplitMix64,
    population: UserPopulation,
    clock_ms: u64,
    max_multiplier: f64,
    generated: u64,
    /// The draw [`TrafficGenerator::pop_due`] looked ahead to and found not
    /// yet due.
    lookahead: Option<Arrival>,
}

impl TrafficGenerator {
    /// A generator starting at time 0.
    pub fn new(config: TrafficConfig, seed: u64) -> Self {
        let population = UserPopulation::new(config.users, config.initial_balance, seed);
        let max_multiplier = config.curve.max_multiplier().max(1e-9);
        Self {
            rng: seed_stream(seed, "workload.traffic"),
            population,
            clock_ms: 0,
            max_multiplier,
            generated: 0,
            lookahead: None,
            config,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// The user population (balances reflect everything generated so far).
    pub fn population(&self) -> &UserPopulation {
        &self.population
    }

    /// Arrivals generated so far, the one [`TrafficGenerator::pop_due`]
    /// holds back included.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// The next arrival. The clock only moves forward; successive calls
    /// return non-decreasing timestamps. An arrival
    /// [`TrafficGenerator::pop_due`] held back comes first, so the two
    /// interleave without skipping a draw.
    pub fn next_arrival(&mut self) -> Arrival {
        self.lookahead.take().unwrap_or_else(|| self.draw())
    }

    /// The next arrival if it is due at or before `until_ms`, as
    /// [`EventQueue::pop_due`](crate::EventQueue::pop_due) answers; one not
    /// yet due is held back for a later call. Draws are the same, in the
    /// same order, as those of [`TrafficGenerator::next_arrival`].
    pub fn pop_due(&mut self, until_ms: u64) -> Option<Arrival> {
        if self.lookahead.is_none() {
            self.lookahead = Some(self.draw());
        }
        self.lookahead.take_if(|next| next.at_ms <= until_ms)
    }

    /// Draws a new arrival from the stream.
    fn draw(&mut self) -> Arrival {
        // Thinning: candidates at the majorising rate, accepted by the
        // instantaneous multiplier.
        let candidate_mean = (self.config.mean_gap_ms as f64 / self.max_multiplier).max(1e-6);
        loop {
            let u = self.rng.next_f64().max(1e-12);
            let gap = (-candidate_mean * u.ln()) as u64 + 1;
            self.clock_ms += gap;
            let accept = self.config.curve.multiplier(self.clock_ms) / self.max_multiplier;
            if self.rng.next_f64() < accept {
                break;
            }
        }
        let user = self.rng.next_below(self.config.users.max(1) as u64) as u32;
        let direction = if self.rng.next_f64() < INBOUND_FRACTION {
            Direction::Inbound
        } else {
            Direction::Outbound
        };
        let amount = self.sample_amount(user);
        let memo = self.sample_memo();
        self.generated += 1;
        Arrival { at_ms: self.clock_ms, user, direction, amount, memo }
    }

    /// Log-uniform amount in `[min, max]`, clamped to the user's balance
    /// (and debited from it).
    fn sample_amount(&mut self, user: u32) -> u128 {
        let (min, max) = (self.config.amount.min.max(1), self.config.amount.max);
        let amount = if max <= min {
            min
        } else {
            let span = (max as f64 / min as f64).ln();
            let drawn = (min as f64 * (self.rng.next_f64() * span).exp()).round() as u128;
            drawn.clamp(min, max)
        };
        self.population.debit_up_to(user, amount)
    }

    /// A memo sized by the configured mix: possibly forward metadata
    /// (multi-hop route), plus uniform padding.
    fn sample_memo(&mut self) -> String {
        let seq = self.generated;
        let mut memo = if self.rng.next_f64() < self.config.memo.forward_fraction {
            let hops = 1 + self.rng.next_below(u64::from(self.config.memo.max_route_hops.max(1)));
            let mut route = format!("{{\"forward\":{{\"hops\":{hops}");
            for hop in 0..hops {
                route.push_str(&format!(",\"ch{hop}\":\"channel-{}\"", 40 + hop));
            }
            route.push_str("}}");
            route
        } else {
            format!("wl/{seq:010}")
        };
        if self.config.memo.pad_max > 0 {
            let pad = self.rng.next_below(u64::from(self.config.memo.pad_max) + 1) as usize;
            memo.extend(core::iter::repeat_n('x', pad));
        }
        memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::ArrivalCurve;

    /// Every arrival due by `until_ms`, in order.
    fn due(mut generator: TrafficGenerator, until_ms: u64) -> Vec<Arrival> {
        std::iter::from_fn(|| generator.pop_due(until_ms)).collect()
    }

    #[test]
    fn pop_due_draws_the_next_arrival_stream() {
        let config = TrafficConfig::flash_crowd(200, 900);
        let mut expected = TrafficGenerator::new(config.clone(), 8);
        let mut generator = TrafficGenerator::new(config, 8);
        // A step loop with an occasional direct draw in between.
        let mut drawn = Vec::new();
        for step in 1..=3_000u64 {
            while let Some(arrival) = generator.pop_due(step * 400) {
                assert!(arrival.at_ms <= step * 400);
                drawn.push(arrival);
            }
            assert_eq!(generator.generated(), drawn.len() as u64 + 1, "one held back");
            if step % 500 == 0 {
                drawn.push(generator.next_arrival());
            }
        }
        assert!(drawn.len() > 1_000);
        for arrival in &drawn {
            assert_eq!(*arrival, expected.next_arrival());
        }
    }

    #[test]
    fn arrivals_are_ordered_and_deterministic() {
        let config = TrafficConfig::steady(500, 1_000);
        let a = due(TrafficGenerator::new(config.clone(), 3), 10 * 60_000);
        let b = due(TrafficGenerator::new(config, 3), 10 * 60_000);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at_ms <= w[1].at_ms), "timestamps ordered");
    }

    #[test]
    fn storm_density_dwarfs_baseline() {
        let mut config = TrafficConfig::airdrop_storm(10_000, 5_000);
        config.curve =
            ArrivalCurve::AirdropStorm { at_ms: 60_000, duration_ms: 60_000, surge: 30.0 };
        let arrivals = due(TrafficGenerator::new(config, 9), 3 * 60_000);
        let before = arrivals.iter().filter(|a| a.at_ms < 60_000).count();
        let during = arrivals.iter().filter(|a| (60_000..120_000).contains(&a.at_ms)).count();
        assert!(
            during > before * 5,
            "storm window must be much denser: before={before} during={during}"
        );
    }

    #[test]
    fn amounts_respect_balances() {
        let mut config = TrafficConfig::steady(3, 500);
        config.initial_balance = 50;
        config.amount = crate::AmountMix { min: 40, max: 40 };
        let arrivals = due(TrafficGenerator::new(config, 4), 60 * 60_000);
        // Each user can afford one full transfer and one partial one.
        let total: u128 = arrivals.iter().map(|a| a.amount).sum();
        assert!(total <= 150, "population spent more than it owns: {total}");
        assert!(arrivals.iter().any(|a| a.amount == 0), "broke users draw zero");
    }

    #[test]
    fn memo_mix_produces_varied_sizes() {
        let mut config = TrafficConfig::steady(100, 200);
        config.memo.forward_fraction = 0.3;
        let arrivals = due(TrafficGenerator::new(config, 5), 5 * 60_000);
        let forwards = arrivals.iter().filter(|a| a.memo.contains("forward")).count();
        assert!(forwards > 0, "some memos carry routes");
        assert!(forwards < arrivals.len(), "not all memos carry routes");
        let lens: std::collections::BTreeSet<usize> =
            arrivals.iter().map(|a| a.memo.len()).collect();
        assert!(lens.len() > 10, "padding must vary packet sizes, got {} lengths", lens.len());
    }
}
