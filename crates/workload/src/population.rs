//! The seeded user population: per-user accounts with balances.

use sim_crypto::rng::seed_stream;

/// A deterministic population of user accounts.
///
/// Account names are derived from the seed (so two runs agree on every
/// name without storing them), balances live in a dense vector — 16 bytes
/// per user, which is what lets a single simulation model hundreds of
/// thousands of distinct senders.
#[derive(Clone, Debug)]
pub struct UserPopulation {
    /// Per-user spendable balance, indexed by user id.
    balances: Vec<u128>,
    /// Name-derivation base, fixed by the seed.
    name_base: u64,
}

impl UserPopulation {
    /// Creates `users` accounts, each holding `initial_balance`.
    pub fn new(users: u32, initial_balance: u128, seed: u64) -> Self {
        let name_base = seed_stream(seed, "workload.population").next_u64();
        Self { balances: vec![initial_balance; users as usize], name_base }
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.balances.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.balances.is_empty()
    }

    /// The ledger account name of user `id` — a pure function of the
    /// population seed, stable across runs and harnesses.
    pub fn name(&self, id: u32) -> String {
        // One extra SplitMix64 mix keyed by the id keeps names
        // unpredictable without a per-user RNG stream.
        let mut tag = sim_crypto::rng::SplitMix64::new(self.name_base ^ u64::from(id));
        format!("user-{id:06}-{:08x}", tag.next_u64() as u32)
    }

    /// User `id`'s current balance.
    pub fn balance(&self, id: u32) -> u128 {
        self.balances[id as usize]
    }

    /// Debits up to `amount` from user `id`, returning what was actually
    /// debited (the balance floor is 0; a broke user sends nothing).
    pub fn debit_up_to(&mut self, id: u32, amount: u128) -> u128 {
        let balance = &mut self.balances[id as usize];
        let debited = amount.min(*balance);
        *balance -= debited;
        debited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let a = UserPopulation::new(100, 10, 7);
        let b = UserPopulation::new(100, 10, 7);
        assert_eq!(a.name(0), b.name(0));
        assert_eq!(a.name(99), b.name(99));
        assert_ne!(a.name(0), a.name(1));
        // A different seed renames everyone.
        let c = UserPopulation::new(100, 10, 8);
        assert_ne!(a.name(0), c.name(0));
    }

    #[test]
    fn debit_respects_balance_floor() {
        let mut pop = UserPopulation::new(2, 100, 1);
        assert_eq!(pop.debit_up_to(0, 60), 60);
        assert_eq!(pop.debit_up_to(0, 60), 40, "only the remainder is spendable");
        assert_eq!(pop.debit_up_to(0, 60), 0, "broke users send nothing");
        assert_eq!(pop.balance(0), 0);
        assert_eq!(pop.balance(1), 100, "other users untouched");
    }
}
