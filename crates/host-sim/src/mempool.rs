//! The pending-transaction pool and priority ordering.
//!
//! The pool is priority-indexed: transactions are kept in a `BTreeMap`
//! keyed by `(fee class, fee descending, submission id)`, so draining a
//! slot walks the index in order instead of re-sorting the whole pool
//! every slot. Under heavy traffic the pool holds thousands of waiting
//! transactions while a slot selects a few dozen — the old per-drain
//! sort was the harness's hottest allocation site.

use std::collections::BTreeMap;

use crate::transaction::{FeePolicy, Transaction};
use crate::types::TimeMs;

/// A transaction waiting for inclusion.
#[derive(Clone, Debug)]
pub struct PendingTx {
    /// Pool-assigned id (also the submission order).
    pub id: u64,
    /// The transaction.
    pub tx: Transaction,
    /// Submission timestamp.
    pub submitted_ms: TimeMs,
    /// Bundle id when part of an atomic bundle.
    pub bundle: Option<u64>,
}

/// Priority class used for ordering within a slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    /// Jito-style bundles, ordered by tip.
    Bundle(u64),
    /// Priority-fee transactions, ordered by CU price.
    Priority(u64),
    /// Base-fee-only transactions.
    Base,
}

/// Index key: class rank, then fee descending, then submission order.
/// `BTreeMap` iteration order over these keys IS the scheduling order.
type PoolKey = (u8, core::cmp::Reverse<u64>, u64);

impl Class {
    /// Scheduling key prefix: lower sorts earlier (rank, then fee
    /// descending).
    fn sort_key(&self) -> (u8, core::cmp::Reverse<u64>) {
        match self {
            Class::Bundle(tip) => (0, core::cmp::Reverse(*tip)),
            Class::Priority(price) => (1, core::cmp::Reverse(*price)),
            Class::Base => (2, core::cmp::Reverse(0)),
        }
    }
}

impl PendingTx {
    fn class(&self) -> Class {
        match self.tx.fee_policy {
            FeePolicy::Bundle { tip_lamports } => Class::Bundle(tip_lamports),
            FeePolicy::Priority { micro_lamports_per_cu } => Class::Priority(micro_lamports_per_cu),
            FeePolicy::BaseOnly => Class::Base,
        }
    }

    fn pool_key(&self) -> PoolKey {
        let (rank, fee) = self.class().sort_key();
        (rank, fee, self.id)
    }
}

/// A priority-indexed pool: ordering is maintained on insert, drains
/// walk the index.
#[derive(Debug, Default)]
pub struct Mempool {
    /// Every pending transaction, in scheduling order.
    ordered: BTreeMap<PoolKey, PendingTx>,
    /// Bundle id → member keys, so a bundle is gathered without scanning
    /// the pool.
    bundles: BTreeMap<u64, Vec<PoolKey>>,
    next_id: u64,
    next_bundle: u64,
}

impl Mempool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a transaction; returns its id.
    pub fn submit(&mut self, tx: Transaction, now_ms: TimeMs) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.insert(PendingTx { id, tx, submitted_ms: now_ms, bundle: None });
        id
    }

    /// Queues an atomic bundle; returns the ids of its transactions.
    ///
    /// All transactions of a bundle are scheduled together and executed
    /// back-to-back, or not at all in that slot.
    pub fn submit_bundle(&mut self, txs: Vec<Transaction>, now_ms: TimeMs) -> Vec<u64> {
        let bundle = self.next_bundle;
        self.next_bundle += 1;
        txs.into_iter()
            .map(|tx| {
                let id = self.next_id;
                self.next_id += 1;
                self.insert(PendingTx { id, tx, submitted_ms: now_ms, bundle: Some(bundle) });
                id
            })
            .collect()
    }

    /// Returns a previously drained transaction to the pool, keeping its id
    /// (and thus its submission-order priority within its fee class). Used
    /// when block production drops a selected transaction.
    pub fn requeue(&mut self, tx: PendingTx) {
        self.insert(tx);
    }

    fn insert(&mut self, pending: PendingTx) {
        let key = pending.pool_key();
        if let Some(bundle) = pending.bundle {
            self.bundles.entry(bundle).or_default().push(key);
        }
        self.ordered.insert(key, pending);
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.ordered.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.ordered.is_empty()
    }

    /// Selects transactions for the next slot.
    ///
    /// * bundles first (highest tip first), each all-or-nothing;
    /// * then priority transactions with a CU price of at least
    ///   `floor_micro_lamports` (highest first);
    /// * base-fee transactions only when `include_base` (the producer has
    ///   spare capacity);
    /// * total compute bounded by `capacity_cu`.
    ///
    /// Selected transactions are removed from the pool; the rest stay.
    ///
    /// Transactions of one class, one fee and one compute budget run in
    /// submission order, within a slot and across slots: each is selected
    /// in id order, and one that does not fit leaves no room for a later
    /// one of the same budget. The pipelined relayer reads this property:
    /// it submits a job's whole plan in one tick and counts on its chunks
    /// landing at sequential offsets. The one exception is a selected
    /// transaction that an inclusion failure
    /// ([`crate::chain::Disturbance`]) returns to the pool, which lets a
    /// later one run first; the relayer then sees a non-sequential write
    /// fail and recovers by retrying the job.
    pub fn drain_for_slot(
        &mut self,
        capacity_cu: u64,
        floor_micro_lamports: u64,
        include_base: bool,
    ) -> Vec<PendingTx> {
        if self.ordered.is_empty() {
            return Vec::new();
        }
        let mut selected_keys: Vec<PoolKey> = Vec::new();
        let mut used_cu = 0u64;
        // Bundles already decided this drain (selected or skipped).
        let mut handled_bundles: Vec<u64> = Vec::new();

        for (&key, entry) in &self.ordered {
            match entry.class() {
                Class::Bundle(_) => {
                    let bundle_id = entry.bundle.expect("bundle class has bundle id");
                    if handled_bundles.contains(&bundle_id) {
                        continue;
                    }
                    handled_bundles.push(bundle_id);
                    let members = &self.bundles[&bundle_id];
                    let bundle_cu: u64 =
                        members.iter().map(|k| self.ordered[k].tx.compute_budget).sum();
                    if used_cu + bundle_cu <= capacity_cu {
                        used_cu += bundle_cu;
                        selected_keys.extend(members.iter().copied());
                    }
                }
                Class::Priority(price) => {
                    if price >= floor_micro_lamports
                        && used_cu + entry.tx.compute_budget <= capacity_cu
                    {
                        used_cu += entry.tx.compute_budget;
                        selected_keys.push(key);
                    }
                }
                Class::Base => {
                    if include_base && used_cu + entry.tx.compute_budget <= capacity_cu {
                        used_cu += entry.tx.compute_budget;
                        selected_keys.push(key);
                    }
                }
            }
        }

        let mut selected: Vec<PendingTx> = Vec::with_capacity(selected_keys.len());
        for key in selected_keys {
            let pending = self.ordered.remove(&key).expect("selected key is pending");
            if let Some(bundle) = pending.bundle {
                if let Some(members) = self.bundles.get_mut(&bundle) {
                    members.retain(|k| *k != key);
                    if members.is_empty() {
                        self.bundles.remove(&bundle);
                    }
                }
            }
            selected.push(pending);
        }
        // Execute in selection order: bundles by tip then members by id,
        // priority by price, base by arrival. Only the selected few sort —
        // never the whole pool.
        selected.sort_by(|a, b| {
            a.class()
                .sort_key()
                .cmp(&b.class().sort_key())
                .then(a.bundle.cmp(&b.bundle))
                .then(a.id.cmp(&b.id))
        });
        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Instruction;
    use crate::types::Pubkey;

    fn tx(policy: FeePolicy, budget: u64) -> Transaction {
        let mut tx = Transaction::build(
            Pubkey::from_label("payer"),
            1,
            vec![Instruction::new(Pubkey::from_label("prog"), vec![], vec![0])],
            policy,
        )
        .unwrap();
        tx.compute_budget = budget;
        tx
    }

    #[test]
    fn ordering_bundle_then_priority_then_base() {
        let mut pool = Mempool::new();
        pool.submit(tx(FeePolicy::BaseOnly, 100), 0);
        pool.submit(tx(FeePolicy::Priority { micro_lamports_per_cu: 10 }, 100), 0);
        pool.submit_bundle(vec![tx(FeePolicy::Bundle { tip_lamports: 5 }, 100)], 0);
        pool.submit(tx(FeePolicy::Priority { micro_lamports_per_cu: 99 }, 100), 0);

        let drained = pool.drain_for_slot(1_000, 0, true);
        let classes: Vec<_> = drained.iter().map(|p| p.tx.fee_policy).collect();
        assert!(matches!(classes[0], FeePolicy::Bundle { .. }));
        assert!(
            matches!(classes[1], FeePolicy::Priority { micro_lamports_per_cu: 99 }),
            "higher price first"
        );
        assert!(matches!(classes[3], FeePolicy::BaseOnly));
        assert!(pool.is_empty());
    }

    #[test]
    fn floor_excludes_cheap_priority_txs() {
        let mut pool = Mempool::new();
        pool.submit(tx(FeePolicy::Priority { micro_lamports_per_cu: 10 }, 100), 0);
        pool.submit(tx(FeePolicy::Priority { micro_lamports_per_cu: 1_000 }, 100), 0);
        let drained = pool.drain_for_slot(1_000, 500, true);
        assert_eq!(drained.len(), 1);
        assert_eq!(pool.len(), 1, "cheap tx waits");
    }

    #[test]
    fn base_excluded_when_congested() {
        let mut pool = Mempool::new();
        pool.submit(tx(FeePolicy::BaseOnly, 100), 0);
        assert!(pool.drain_for_slot(1_000, 0, false).is_empty());
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn capacity_limits_inclusion() {
        let mut pool = Mempool::new();
        for _ in 0..5 {
            pool.submit(tx(FeePolicy::Priority { micro_lamports_per_cu: 10 }, 400), 0);
        }
        let drained = pool.drain_for_slot(1_000, 0, true);
        assert_eq!(drained.len(), 2, "two 400-CU transactions fit in 1000 CU");
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn bundles_are_atomic() {
        let mut pool = Mempool::new();
        pool.submit_bundle(
            vec![
                tx(FeePolicy::Bundle { tip_lamports: 9 }, 600),
                tx(FeePolicy::Bundle { tip_lamports: 9 }, 600),
            ],
            0,
        );
        // Capacity fits only one member: nothing from the bundle runs.
        assert!(pool.drain_for_slot(1_000, 0, true).is_empty());
        assert_eq!(pool.len(), 2);
        // Enough capacity: both run together.
        let drained = pool.drain_for_slot(2_000, 0, true);
        assert_eq!(drained.len(), 2);
    }

    #[test]
    fn higher_tip_bundle_first() {
        let mut pool = Mempool::new();
        pool.submit_bundle(vec![tx(FeePolicy::Bundle { tip_lamports: 1 }, 100)], 0);
        pool.submit_bundle(vec![tx(FeePolicy::Bundle { tip_lamports: 7 }, 100)], 0);
        let drained = pool.drain_for_slot(150, 0, true);
        assert_eq!(drained.len(), 1);
        assert!(matches!(drained[0].tx.fee_policy, FeePolicy::Bundle { tip_lamports: 7 }));
    }

    #[test]
    fn index_preserves_price_then_arrival_order() {
        // The priority index must hand out transactions by (price desc,
        // arrival id asc) no matter the submission order — the invariant
        // the old per-drain sort provided, now maintained on insert.
        let mut pool = Mempool::new();
        let prices = [40, 990, 40, 5, 990, 120];
        let mut ids = Vec::new();
        for price in prices {
            ids.push(pool.submit(tx(FeePolicy::Priority { micro_lamports_per_cu: price }, 10), 0));
        }
        let drained = pool.drain_for_slot(10_000, 0, true);
        let order: Vec<(u64, u64)> = drained
            .iter()
            .map(|p| match p.tx.fee_policy {
                FeePolicy::Priority { micro_lamports_per_cu } => (micro_lamports_per_cu, p.id),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            order,
            [(990, ids[1]), (990, ids[4]), (120, ids[5]), (40, ids[0]), (40, ids[2]), (5, ids[3])],
            "price descending, then arrival order within a price"
        );
    }

    #[test]
    fn requeue_restores_index_position() {
        let mut pool = Mempool::new();
        let first = pool.submit(tx(FeePolicy::Priority { micro_lamports_per_cu: 70 }, 100), 0);
        pool.submit(tx(FeePolicy::Priority { micro_lamports_per_cu: 70 }, 100), 5);
        let drained = pool.drain_for_slot(10_000, 0, true);
        assert_eq!(drained.len(), 2);
        // Production drops the first tx; it goes back with its old id…
        let dropped = drained.into_iter().find(|p| p.id == first).unwrap();
        pool.requeue(dropped);
        pool.submit(tx(FeePolicy::Priority { micro_lamports_per_cu: 70 }, 100), 9);
        // …and still drains ahead of the younger same-price transaction.
        let redrained = pool.drain_for_slot(10_000, 0, true);
        assert_eq!(redrained[0].id, first, "requeued tx keeps its arrival priority");
    }

    #[test]
    fn requeued_bundle_member_keeps_atomicity() {
        let mut pool = Mempool::new();
        pool.submit_bundle(
            vec![
                tx(FeePolicy::Bundle { tip_lamports: 3 }, 400),
                tx(FeePolicy::Bundle { tip_lamports: 3 }, 400),
            ],
            0,
        );
        let drained = pool.drain_for_slot(1_000, 0, true);
        assert_eq!(drained.len(), 2);
        // Both members bounce back; the bundle must re-form atomically.
        for member in drained {
            pool.requeue(member);
        }
        assert!(pool.drain_for_slot(500, 0, true).is_empty(), "partial bundle never runs");
        assert_eq!(pool.drain_for_slot(1_000, 0, true).len(), 2);
    }
}
