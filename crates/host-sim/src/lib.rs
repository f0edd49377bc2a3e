//! A Solana-like host blockchain simulator.
//!
//! The guest blockchain (the paper's contribution) runs *on top of* a host
//! chain whose runtime restrictions shape its whole design (§IV):
//!
//! * 1 232-byte transaction size limit → chunked light-client updates,
//! * 1.4 M compute-unit budget → no in-contract batch signature checks,
//! * 32 KiB heap limit → bounded per-instruction working sets,
//! * rent-exemption deposits → the 14.6 k USD cost of the 10 MiB state
//!   account (§V-D),
//! * per-signature fees, priority fees and Jito-style bundles → the cost
//!   clusters of Fig. 3 and the fee analysis of §V-B.
//!
//! This crate reimplements that substrate from scratch: accounts and rent
//! ([`account`]), transactions and fees ([`transaction`]), compute/heap
//! metering ([`compute`]), a program runtime ([`program`], [`bank`]) and a
//! slot-clocked chain with a congestion-aware fee market ([`chain`],
//! [`mempool`]).
//!
//! # Examples
//!
//! ```
//! use host_sim::{CongestionModel, Event, HostChain, Pubkey};
//! use host_sim::transaction::{FeePolicy, Instruction, Transaction};
//! use host_sim::program::{InvokeContext, Program, ProgramError};
//!
//! struct Greeter;
//! impl Program for Greeter {
//!     fn process_instruction(
//!         &mut self,
//!         ctx: &mut InvokeContext<'_>,
//!         _data: &[u8],
//!     ) -> Result<(), ProgramError> {
//!         ctx.emit(Event::encode(Pubkey::from_label("greeter"), "Greeting", "hello"));
//!         Ok(())
//!     }
//! }
//!
//! let mut chain = HostChain::new(CongestionModel::idle(), 1);
//! let program_id = Pubkey::from_label("greeter");
//! let payer = Pubkey::from_label("payer");
//! chain.bank_mut().register_program(program_id, Box::new(Greeter));
//! chain.bank_mut().airdrop(payer, 1_000_000_000);
//!
//! let tx = Transaction::build(
//!     payer,
//!     1,
//!     vec![Instruction::new(program_id, vec![], vec![])],
//!     FeePolicy::BaseOnly,
//! )?;
//! let id = chain.submit(tx);
//! let block = chain.advance_slot();
//! assert!(block.outcome_of(id).unwrap().is_ok());
//! let greeting = block.events().next().unwrap();
//! assert_eq!(greeting.decode::<String>("Greeting").as_deref(), Some("hello"));
//! # Ok::<(), host_sim::transaction::TransactionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod account;
pub mod bank;
pub mod chain;
pub mod compute;
pub mod event;
pub mod mempool;
pub mod program;
pub mod transaction;
pub mod types;

pub use account::{rent, AccountError};
pub use bank::{Bank, TxOutcome};
pub use chain::{Block, CongestionModel, Disturbance, HostChain, SLOT_CU_CAPACITY};
pub use event::Event;
pub use program::{InvokeContext, Program, ProgramError};
pub use transaction::{FeePolicy, Instruction, Transaction, TransactionError};
pub use types::{
    lamports_to_cents, lamports_to_usd, HostProfile, Pubkey, Slot, TimeMs, LAMPORTS_PER_SIGNATURE,
    LAMPORTS_PER_SOL, MAX_ACCOUNT_SIZE, MAX_COMPUTE_UNITS, MAX_HEAP_BYTES, MAX_TRANSACTION_SIZE,
    USD_PER_SOL,
};
