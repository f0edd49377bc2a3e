//! The bank: accounts, programs and transaction execution.

use std::collections::HashMap;

use crate::account::{rent, Account, AccountError};
use crate::compute::{costs, ComputeMeter, HeapMeter};
use crate::event::Event;
use crate::program::{InvokeContext, Program, ProgramError};
use crate::transaction::Transaction;
use crate::types::{Pubkey, Slot, TimeMs, MAX_ACCOUNT_SIZE};

/// Outcome of executing one transaction.
#[derive(Debug)]
pub struct TxOutcome {
    /// `Ok` if every instruction succeeded.
    pub result: Result<(), ProgramError>,
    /// Fee charged to the payer (charged even on failure).
    pub fee_lamports: u64,
    /// Compute units consumed.
    pub compute_units: u64,
    /// Events emitted (empty if the transaction failed).
    pub events: Vec<Event>,
}

impl TxOutcome {
    /// Whether the transaction succeeded.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// Account and program state of the host chain.
///
/// Typically driven through [`crate::HostChain`], which adds the slot clock
/// and fee market; the bank alone is convenient for direct unit tests of
/// programs.
///
/// Every `&mut self` method advances [`Bank::stamp`], so an observer that
/// remembers the stamp it last read at can tell that nothing here, nor in
/// any registered program's state, has changed since.
#[derive(Default)]
pub struct Bank {
    accounts: HashMap<Pubkey, Account>,
    programs: HashMap<Pubkey, Box<dyn Program>>,
    /// Account that receives fees (block producer stand-in).
    fee_sink_lamports: u64,
    stamp: u64,
}

impl Bank {
    /// Creates an empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates `key` out of thin air with `lamports` (test/bootstrap
    /// faucet).
    pub fn airdrop(&mut self, key: Pubkey, lamports: u64) {
        self.stamp += 1;
        self.accounts.entry(key).or_insert_with(|| Account::wallet(0)).lamports += lamports;
    }

    /// Registers an executable program under `program_id`.
    pub fn register_program(&mut self, program_id: Pubkey, program: Box<dyn Program>) {
        self.stamp += 1;
        let mut account = Account::wallet(0);
        account.executable = true;
        account.owner = Pubkey::from_label("loader");
        self.accounts.insert(program_id, account);
        self.programs.insert(program_id, program);
    }

    /// Allocates (or grows) a program-owned data account, transferring the
    /// rent-exemption deposit from `payer`.
    ///
    /// # Errors
    ///
    /// [`AccountError::TooLarge`] above 10 MiB, [`AccountError::
    /// InsufficientFunds`] if `payer` cannot cover the deposit delta.
    pub fn allocate_account(
        &mut self,
        payer: &Pubkey,
        key: Pubkey,
        owner: Pubkey,
        data_len: usize,
    ) -> Result<(), AccountError> {
        self.stamp += 1;
        if data_len > MAX_ACCOUNT_SIZE {
            return Err(AccountError::TooLarge(data_len));
        }
        let required = rent::minimum_balance(data_len);
        let current = self.accounts.get(&key).map_or(0, |a| a.lamports);
        let delta = required.saturating_sub(current);
        {
            let payer_account =
                self.accounts.get_mut(payer).ok_or(AccountError::Unknown(*payer))?;
            if payer_account.lamports < delta {
                return Err(AccountError::InsufficientFunds);
            }
            payer_account.lamports -= delta;
        }
        let account =
            self.accounts.entry(key).or_insert_with(|| Account::data_account(owner, 0, 0));
        account.owner = owner;
        account.data_len = data_len;
        account.lamports += delta;
        Ok(())
    }

    /// Reads an account.
    pub fn account(&self, key: &Pubkey) -> Option<&Account> {
        self.accounts.get(key)
    }

    /// Balance helper (0 for unknown accounts).
    pub fn balance(&self, key: &Pubkey) -> u64 {
        self.accounts.get(key).map_or(0, |a| a.lamports)
    }

    /// The change stamp: advanced by every `&mut self` method, including a
    /// call that fails, and by nothing else. Equal stamps mean equal state.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Total fees collected so far.
    pub fn fees_collected(&self) -> u64 {
        self.fee_sink_lamports
    }

    /// Immutable access to a registered program (downcast by the caller).
    pub fn program(&self, program_id: &Pubkey) -> Option<&dyn Program> {
        self.programs.get(program_id).map(|p| p.as_ref())
    }

    /// Executes `tx` at the given slot/time.
    ///
    /// Fees are charged up front (and kept even if execution fails, as on
    /// Solana). Instructions run in order; the first failure aborts the
    /// rest. Programs follow a check-then-commit discipline, so an aborted
    /// instruction has made no state changes (see `DESIGN.md`).
    pub fn execute_transaction(
        &mut self,
        tx: &Transaction,
        slot: Slot,
        now_ms: TimeMs,
    ) -> TxOutcome {
        self.stamp += 1;
        let fee = tx.fee_lamports();
        let payer_balance = self.balance(&tx.payer);
        if payer_balance < fee {
            return TxOutcome {
                result: Err(ProgramError::InsufficientFunds),
                fee_lamports: 0,
                compute_units: 0,
                events: Vec::new(),
            };
        }
        self.accounts.get_mut(&tx.payer).expect("payer checked above").lamports -= fee;
        self.fee_sink_lamports += fee;

        let mut compute = ComputeMeter::new(tx.compute_budget);
        let mut heap = HeapMeter::with_limit(tx.heap_limit);
        let mut events = Vec::new();
        let mut result = Ok(());

        for instruction in &tx.instructions {
            // Dispatch overhead + data deserialization cost.
            if let Err(err) = compute.consume(
                costs::INSTRUCTION_BASE + costs::DATA_PER_BYTE * instruction.data.len() as u64,
            ) {
                result = Err(ProgramError::ComputeBudget(err));
                break;
            }
            let Some(mut program) = self.programs.remove(&instruction.program_id) else {
                result = Err(ProgramError::MissingAccount(instruction.program_id));
                break;
            };
            let mut ctx = InvokeContext {
                slot,
                now_ms,
                instruction_accounts: &instruction.accounts,
                payer: tx.payer,
                accounts: &mut self.accounts,
                compute: &mut compute,
                heap: &mut heap,
                events: &mut events,
            };
            let step = program.process_instruction(&mut ctx, &instruction.data);
            // Keep the state account's recorded size in sync with the
            // program's native state.
            let state_size = program.state_size();
            self.programs.insert(instruction.program_id, program);
            if let Some(state_key) = instruction.accounts.first() {
                if let Some(account) = self.accounts.get_mut(state_key) {
                    if account.owner == instruction.program_id {
                        account.data_len = account.data_len.max(state_size);
                    }
                }
            }
            if let Err(err) = step {
                result = Err(err);
                break;
            }
        }

        if result.is_err() {
            events.clear();
        }
        TxOutcome { result, fee_lamports: fee, compute_units: compute.used(), events }
    }
}

impl core::fmt::Debug for Bank {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Bank")
            .field("accounts", &self.accounts.len())
            .field("programs", &self.programs.len())
            .field("fees_collected", &self.fee_sink_lamports)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{FeePolicy, Instruction};
    use crate::types::LAMPORTS_PER_SIGNATURE;

    /// A test program that counts invocations and can be told to fail or to
    /// burn compute.
    #[derive(Default)]
    struct Counter {
        count: u64,
    }

    impl Program for Counter {
        fn process_instruction(
            &mut self,
            ctx: &mut InvokeContext<'_>,
            data: &[u8],
        ) -> Result<(), ProgramError> {
            match data.first() {
                Some(0) => {
                    self.count += 1;
                    ctx.emit(Event::encode(Pubkey::from_label("counter"), "Tick", self.count));
                    Ok(())
                }
                Some(1) => Err(ProgramError::Rejected("told to fail".into())),
                Some(2) => {
                    ctx.consume(u64::MAX / 2)?;
                    Ok(())
                }
                _ => Err(ProgramError::InvalidInstruction("unknown tag".into())),
            }
        }

        fn state_size(&self) -> usize {
            8
        }
    }

    fn setup() -> (Bank, Pubkey, Pubkey) {
        let mut bank = Bank::new();
        let program_id = Pubkey::from_label("counter");
        let payer = Pubkey::from_label("payer");
        bank.register_program(program_id, Box::new(Counter::default()));
        bank.airdrop(payer, 100_000_000_000);
        (bank, program_id, payer)
    }

    fn tick_tx(program_id: Pubkey, payer: Pubkey, tag: u8) -> Transaction {
        Transaction::build(
            payer,
            1,
            vec![Instruction::new(program_id, vec![], vec![tag])],
            FeePolicy::BaseOnly,
        )
        .unwrap()
    }

    #[test]
    fn successful_execution_emits_events_and_charges_fee() {
        let (mut bank, program_id, payer) = setup();
        let before = bank.balance(&payer);
        let outcome = bank.execute_transaction(&tick_tx(program_id, payer, 0), 1, 400);
        assert!(outcome.is_ok());
        assert_eq!(outcome.events.len(), 1);
        assert_eq!(bank.balance(&payer), before - LAMPORTS_PER_SIGNATURE);
        assert_eq!(bank.fees_collected(), LAMPORTS_PER_SIGNATURE);
    }

    #[test]
    fn failed_execution_still_charges_fee_and_drops_events() {
        let (mut bank, program_id, payer) = setup();
        let outcome = bank.execute_transaction(&tick_tx(program_id, payer, 1), 1, 400);
        assert!(!outcome.is_ok());
        assert!(outcome.events.is_empty());
        assert_eq!(outcome.fee_lamports, LAMPORTS_PER_SIGNATURE);
    }

    #[test]
    fn compute_exhaustion_fails_transaction() {
        let (mut bank, program_id, payer) = setup();
        let outcome = bank.execute_transaction(&tick_tx(program_id, payer, 2), 1, 400);
        assert!(matches!(outcome.result, Err(ProgramError::ComputeBudget(_))));
    }

    #[test]
    fn broke_payer_cannot_pay_fee() {
        let (mut bank, program_id, _) = setup();
        let broke = Pubkey::from_label("broke");
        bank.airdrop(broke, 10);
        let outcome = bank.execute_transaction(&tick_tx(program_id, broke, 0), 1, 400);
        assert_eq!(outcome.result, Err(ProgramError::InsufficientFunds));
        assert_eq!(outcome.fee_lamports, 0);
        assert_eq!(bank.balance(&broke), 10, "nothing charged");
    }

    #[test]
    fn allocate_charges_rent_deposit() {
        let (mut bank, program_id, payer) = setup();
        let state = Pubkey::from_label("state");
        let before = bank.balance(&payer);
        bank.allocate_account(&payer, state, program_id, 1_000_000).unwrap();
        let deposit = rent::minimum_balance(1_000_000);
        assert_eq!(bank.balance(&payer), before - deposit);
        assert_eq!(
            bank.account(&state).unwrap().lamports,
            deposit,
            "the account holds its deposit"
        );
    }

    #[test]
    fn allocate_rejects_oversized_accounts() {
        let (mut bank, program_id, payer) = setup();
        let err = bank
            .allocate_account(&payer, Pubkey::from_label("big"), program_id, MAX_ACCOUNT_SIZE + 1)
            .unwrap_err();
        assert!(matches!(err, AccountError::TooLarge(_)));
    }

    /// Runs `call` and asserts that it moved the stamp.
    fn moves(bank: &mut Bank, name: &str, call: impl FnOnce(&mut Bank)) {
        let before = bank.stamp();
        call(bank);
        assert!(bank.stamp() > before, "{name} left the stamp at {before}");
    }

    #[test]
    fn every_mutating_path_moves_the_stamp() {
        let (mut bank, program_id, payer) = setup();
        let bank = &mut bank;
        let state = Pubkey::from_label("state");
        let broke = Pubkey::from_label("broke");
        moves(bank, "airdrop", |bank| bank.airdrop(broke, 1));
        moves(bank, "register_program", |bank| {
            bank.register_program(Pubkey::from_label("other"), Box::new(Counter::default()))
        });
        moves(bank, "allocate_account", |bank| {
            bank.allocate_account(&payer, state, program_id, 1_000).unwrap()
        });
        moves(bank, "allocate_account (refused)", |bank| {
            bank.allocate_account(&broke, state, program_id, MAX_ACCOUNT_SIZE).unwrap_err();
        });
        moves(bank, "execute_transaction", |bank| {
            assert!(bank.execute_transaction(&tick_tx(program_id, payer, 0), 1, 400).is_ok());
        });
        moves(bank, "execute_transaction (failing)", |bank| {
            assert!(!bank.execute_transaction(&tick_tx(program_id, payer, 1), 1, 400).is_ok());
        });
        moves(bank, "execute_transaction (broke payer)", |bank| {
            let outcome = bank.execute_transaction(&tick_tx(program_id, broke, 0), 1, 400);
            assert_eq!(outcome.result, Err(ProgramError::InsufficientFunds));
        });
        let stamp = bank.stamp();
        let _ = (bank.balance(&payer), bank.account(&payer), bank.fees_collected());
        assert!(bank.program(&program_id).is_some());
        assert_eq!(bank.stamp(), stamp, "reads leave the stamp alone");
    }

    #[test]
    fn multi_instruction_transaction_stops_at_first_failure() {
        let (mut bank, program_id, payer) = setup();
        let tx = Transaction::build(
            payer,
            1,
            vec![
                Instruction::new(program_id, vec![], vec![0]),
                Instruction::new(program_id, vec![], vec![1]),
                Instruction::new(program_id, vec![], vec![0]),
            ],
            FeePolicy::BaseOnly,
        )
        .unwrap();
        let outcome = bank.execute_transaction(&tx, 1, 400);
        assert!(!outcome.is_ok());
        // The counter advanced once (first instruction) but not thrice.
        let outcome2 = bank.execute_transaction(&tick_tx(program_id, payer, 0), 2, 800);
        let count: u64 = outcome2.events[0].decode("Tick").unwrap();
        assert_eq!(count, 2);
    }
}
