//! Compute-unit and heap metering.
//!
//! Solana's runtime constraints are the reason the guest blockchain splits
//! light-client updates across dozens of transactions (§IV, §V-A). The
//! meters here enforce the same budgets; cost constants approximate the
//! Solana compute-budget schedule where one exists and are calibrated to
//! the paper's observations where it does not.

use crate::types::{MAX_COMPUTE_UNITS, MAX_HEAP_BYTES};

/// Cost schedule for metered operations, in compute units.
pub mod costs {
    /// Base cost of the sha256 syscall.
    pub(super) const SHA256_BASE: u64 = 85;
    /// Additional sha256 cost per input byte.
    pub(super) const SHA256_PER_BYTE: u64 = 1;
    /// Verifying one block signature *in-contract*.
    ///
    /// Solana's budget makes in-contract signature verification almost
    /// prohibitive (§IV); this cost allows ~4 verifications per maxed-out
    /// transaction, which reproduces the paper's 36.5-transaction light
    /// client updates.
    pub const SIGNATURE_VERIFY: u64 = 320_000;
    /// Trie read or write per node touched.
    pub const TRIE_NODE_OP: u64 = 250;
    /// Processing one byte of instruction data.
    pub const DATA_PER_BYTE: u64 = 10;
    /// Fixed instruction dispatch overhead.
    pub const INSTRUCTION_BASE: u64 = 1_500;
}

/// A per-transaction compute meter.
///
/// # Examples
///
/// ```
/// use host_sim::compute::ComputeMeter;
///
/// let mut meter = ComputeMeter::new(10_000);
/// meter.consume(4_000)?;
/// assert_eq!(meter.remaining(), 6_000);
/// assert!(meter.consume(7_000).is_err());
/// # Ok::<(), host_sim::compute::BudgetExceeded>(())
/// ```
#[derive(Clone, Debug)]
pub struct ComputeMeter {
    budget: u64,
    used: u64,
}

impl ComputeMeter {
    /// Creates a meter with the given budget. The budget is whatever the
    /// host profile granted the transaction (`Transaction::build_for`
    /// clamps it); the meter itself is profile-agnostic.
    pub fn new(budget: u64) -> Self {
        Self { budget, used: 0 }
    }

    /// Creates a meter with the full per-transaction budget.
    pub fn max() -> Self {
        Self::new(MAX_COMPUTE_UNITS)
    }

    /// Consumes `units`.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] when the budget would be exceeded; the
    /// meter is left saturated so later calls also fail.
    pub fn consume(&mut self, units: u64) -> Result<(), BudgetExceeded> {
        self.used = self.used.saturating_add(units);
        if self.used > self.budget {
            Err(BudgetExceeded { budget: self.budget, attempted: self.used })
        } else {
            Ok(())
        }
    }

    /// Units consumed so far (may exceed the budget after a failure).
    pub fn used(&self) -> u64 {
        self.used.min(self.budget)
    }

    /// Units left.
    pub fn remaining(&self) -> u64 {
        self.budget.saturating_sub(self.used)
    }
}

/// A per-transaction heap meter (Solana: 32 KiB, §IV; other host profiles
/// grant more).
#[derive(Clone, Debug)]
pub struct HeapMeter {
    limit: usize,
    used: usize,
}

impl HeapMeter {
    /// Creates a meter with Solana's 32 KiB limit.
    pub fn new() -> Self {
        Self::with_limit(MAX_HEAP_BYTES)
    }

    /// Creates a meter with an explicit limit (from the host profile).
    pub fn with_limit(limit: usize) -> Self {
        Self { limit, used: 0 }
    }

    /// Records an allocation of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapExceeded`] when cumulative allocations pass the limit.
    pub fn alloc(&mut self, bytes: usize) -> Result<(), HeapExceeded> {
        self.used = self.used.saturating_add(bytes);
        if self.used > self.limit {
            Err(HeapExceeded { attempted: self.used, limit: self.limit })
        } else {
            Ok(())
        }
    }

    /// Bytes allocated so far.
    pub fn used(&self) -> usize {
        self.used
    }
}

impl Default for HeapMeter {
    fn default() -> Self {
        Self::new()
    }
}

/// The compute budget was exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The configured budget.
    pub budget: u64,
    /// Total units the transaction tried to use.
    pub attempted: u64,
}

impl core::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "compute budget exceeded: {} > {}", self.attempted, self.budget)
    }
}

impl std::error::Error for BudgetExceeded {}

/// The heap limit was exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeapExceeded {
    /// Total bytes the transaction tried to allocate.
    pub attempted: usize,
    /// The enforced limit.
    pub limit: usize,
}

impl core::fmt::Display for HeapExceeded {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "heap limit exceeded: {} > {}", self.attempted, self.limit)
    }
}

impl std::error::Error for HeapExceeded {}

/// Convenience: the CU cost of hashing `len` bytes with sha256.
pub fn sha256_cost(len: usize) -> u64 {
    costs::SHA256_BASE + costs::SHA256_PER_BYTE * len as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_counts_and_fails() {
        let mut meter = ComputeMeter::new(1_000);
        meter.consume(999).unwrap();
        assert_eq!(meter.remaining(), 1);
        assert!(meter.consume(2).is_err());
        // Saturated: still failing.
        assert!(meter.consume(0).is_err());
    }

    #[test]
    fn budget_is_taken_verbatim() {
        // Per-profile budgets (§VI-D) exceed Solana's 1.4M; the meter must
        // not clamp them — transaction building enforces profile limits.
        let meter = ComputeMeter::new(120_000_000);
        assert_eq!(meter.remaining(), 120_000_000);
    }

    #[test]
    fn at_most_four_sig_verifies_per_transaction() {
        // The calibration behind the 36.5-tx light client updates: a maxed
        // transaction fits 4 in-contract signature verifications, not 5.
        let mut meter = ComputeMeter::max();
        for _ in 0..4 {
            meter.consume(costs::SIGNATURE_VERIFY).unwrap();
        }
        assert!(meter.consume(costs::SIGNATURE_VERIFY).is_err());
    }

    #[test]
    fn heap_meter_enforces_32kib() {
        let mut heap = HeapMeter::new();
        heap.alloc(MAX_HEAP_BYTES).unwrap();
        assert!(heap.alloc(1).is_err());
    }

    #[test]
    fn sha256_cost_scales() {
        assert_eq!(sha256_cost(0), costs::SHA256_BASE);
        assert_eq!(sha256_cost(100), costs::SHA256_BASE + 100);
    }
}
