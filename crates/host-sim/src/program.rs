//! The on-chain program runtime interface.

use std::collections::HashMap;

use crate::account::Account;
use crate::compute::{BudgetExceeded, ComputeMeter, HeapExceeded, HeapMeter};
use crate::event::Event;
use crate::types::{Pubkey, Slot, TimeMs};

/// Errors a program may return (or the runtime may impose on it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// The compute budget was exhausted.
    ComputeBudget(BudgetExceeded),
    /// The 32 KiB heap limit was exceeded.
    Heap(HeapExceeded),
    /// The instruction data could not be decoded.
    InvalidInstruction(String),
    /// A domain-level rejection, e.g. a failed assertion in Alg. 1.
    Rejected(String),
    /// A referenced account is missing from the instruction.
    MissingAccount(Pubkey),
    /// Not enough lamports for the attempted operation.
    InsufficientFunds,
}

impl core::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ComputeBudget(e) => write!(f, "{e}"),
            Self::Heap(e) => write!(f, "{e}"),
            Self::InvalidInstruction(msg) => write!(f, "invalid instruction: {msg}"),
            Self::Rejected(msg) => write!(f, "rejected: {msg}"),
            Self::MissingAccount(key) => write!(f, "missing account {key}"),
            Self::InsufficientFunds => f.write_str("insufficient funds"),
        }
    }
}

impl std::error::Error for ProgramError {}

impl From<BudgetExceeded> for ProgramError {
    fn from(err: BudgetExceeded) -> Self {
        Self::ComputeBudget(err)
    }
}

impl From<HeapExceeded> for ProgramError {
    fn from(err: HeapExceeded) -> Self {
        Self::Heap(err)
    }
}

/// Execution context handed to a program for one instruction.
///
/// Provides the clock, metering, account access and event emission — the
/// runtime features §II lists as IBC prerequisites (transactional execution,
/// event mechanism) plus the Solana-specific constraints of §IV.
pub struct InvokeContext<'a> {
    /// Current slot.
    pub slot: Slot,
    /// Milliseconds since genesis (the "block time" programs can read).
    pub now_ms: TimeMs,
    /// Accounts passed to the instruction.
    pub instruction_accounts: &'a [Pubkey],
    /// The transaction's fee payer.
    pub payer: Pubkey,
    pub(crate) accounts: &'a mut HashMap<Pubkey, Account>,
    pub(crate) compute: &'a mut ComputeMeter,
    pub(crate) heap: &'a mut HeapMeter,
    pub(crate) events: &'a mut Vec<Event>,
}

impl<'a> InvokeContext<'a> {
    /// Consumes compute units.
    ///
    /// # Errors
    ///
    /// Fails with [`ProgramError::ComputeBudget`] past the budget.
    pub fn consume(&mut self, units: u64) -> Result<(), ProgramError> {
        self.compute.consume(units).map_err(ProgramError::from)
    }

    /// Records a heap allocation.
    ///
    /// # Errors
    ///
    /// Fails with [`ProgramError::Heap`] past 32 KiB.
    pub fn alloc(&mut self, bytes: usize) -> Result<(), ProgramError> {
        self.heap.alloc(bytes).map_err(ProgramError::from)
    }

    /// Compute units consumed so far in this transaction (for cost
    /// attribution, e.g. telemetry's per-instruction CU counters).
    pub fn compute_used(&self) -> u64 {
        self.compute.used()
    }

    /// Emits an event observable by off-chain actors (validators, relayers).
    pub fn emit(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Reads an account.
    pub fn account(&self, key: &Pubkey) -> Option<&Account> {
        self.accounts.get(key)
    }

    /// Moves lamports between two accounts.
    ///
    /// # Errors
    ///
    /// [`ProgramError::MissingAccount`] if either side does not exist,
    /// [`ProgramError::InsufficientFunds`] if `from` cannot cover `amount`.
    pub fn transfer(
        &mut self,
        from: &Pubkey,
        to: &Pubkey,
        amount: u64,
    ) -> Result<(), ProgramError> {
        if !self.accounts.contains_key(to) {
            return Err(ProgramError::MissingAccount(*to));
        }
        {
            let source = self.accounts.get_mut(from).ok_or(ProgramError::MissingAccount(*from))?;
            if source.lamports < amount {
                return Err(ProgramError::InsufficientFunds);
            }
            source.lamports -= amount;
        }
        self.accounts.get_mut(to).expect("destination checked above").lamports += amount;
        Ok(())
    }
}

/// An on-chain program.
///
/// Programs are registered with the bank under their program id and invoked
/// once per instruction addressed to them. State lives inside the program
/// object; its serialized footprint must be reported through
/// [`Program::state_size`] so the bank can enforce account allocation and
/// rent (see `DESIGN.md` for this modelling choice).
pub trait Program {
    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Any [`ProgramError`] aborts the whole transaction.
    fn process_instruction(
        &mut self,
        ctx: &mut InvokeContext<'_>,
        data: &[u8],
    ) -> Result<(), ProgramError>;

    /// Current serialized size of the program's state account, in bytes.
    fn state_size(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn context_parts() -> (HashMap<Pubkey, Account>, ComputeMeter, HeapMeter, Vec<Event>) {
        let mut accounts = HashMap::new();
        accounts.insert(Pubkey::from_label("alice"), Account::wallet(1_000));
        accounts.insert(Pubkey::from_label("bob"), Account::wallet(0));
        (accounts, ComputeMeter::new(10_000), HeapMeter::new(), Vec::new())
    }

    fn with_ctx<R>(f: impl FnOnce(&mut InvokeContext<'_>) -> R) -> R {
        let (mut accounts, mut compute, mut heap, mut events) = context_parts();
        let mut ctx = InvokeContext {
            slot: 1,
            now_ms: 400,
            instruction_accounts: &[],
            payer: Pubkey::from_label("alice"),
            accounts: &mut accounts,
            compute: &mut compute,
            heap: &mut heap,
            events: &mut events,
        };
        f(&mut ctx)
    }

    #[test]
    fn transfer_moves_lamports() {
        with_ctx(|ctx| {
            let alice = Pubkey::from_label("alice");
            let bob = Pubkey::from_label("bob");
            ctx.transfer(&alice, &bob, 400).unwrap();
            assert_eq!(ctx.account(&alice).unwrap().lamports, 600);
            assert_eq!(ctx.account(&bob).unwrap().lamports, 400);
        });
    }

    #[test]
    fn transfer_insufficient_funds() {
        with_ctx(|ctx| {
            let alice = Pubkey::from_label("alice");
            let bob = Pubkey::from_label("bob");
            assert_eq!(ctx.transfer(&alice, &bob, 2_000), Err(ProgramError::InsufficientFunds));
            assert_eq!(ctx.account(&alice).unwrap().lamports, 1_000);
        });
    }

    #[test]
    fn transfer_to_missing_account_rolls_back() {
        with_ctx(|ctx| {
            let alice = Pubkey::from_label("alice");
            let ghost = Pubkey::from_label("ghost");
            assert!(matches!(
                ctx.transfer(&alice, &ghost, 100),
                Err(ProgramError::MissingAccount(_))
            ));
            assert_eq!(ctx.account(&alice).unwrap().lamports, 1_000);
        });
    }

    #[test]
    fn metering_propagates_as_program_errors() {
        with_ctx(|ctx| {
            assert!(ctx.consume(5_000).is_ok());
            assert!(matches!(ctx.consume(6_000), Err(ProgramError::ComputeBudget(_))));
            assert!(matches!(ctx.alloc(40 * 1024), Err(ProgramError::Heap(_))));
        });
    }
}
