//! Stacked IBC applications and middleware.
//!
//! The host-side [`Module`](ibc_core::router::Module) callbacks of
//! ICS-26 are a flat surface: one object per port. Real chains layer
//! cross-cutting concerns — fees, routing, hooks — *around* the
//! application on that port. This crate provides that layering:
//!
//! * An application is any [`Module`](ibc_core::router::Module): the
//!   ICS-20 [`TransferModule`](ibc_core::ics20::TransferModule), the
//!   [`EchoModule`](ibc_core::router::EchoModule), and this crate's
//!   [`nft::NftTransferApp`] (ICS-721-style) and [`ica::IcaApp`]
//!   (ICS-27-style).
//! * [`Middleware`] — hooks around the recv, ack and timeout callbacks.
//!   `before_recv` may short-circuit with its own ack; `after_recv` may
//!   rewrite the ack on the way out.
//! * [`ModuleStack`] — middlewares composed onion-style around one
//!   module, itself a `Module`, so a whole stack binds to a port
//!   anywhere a bare module did.
//!
//! Shipped layers: [`ForwardMiddleware`] (multi-hop routing with
//! hop-by-hop refund unwinding, generalised over asset kinds via
//! [`ForwardHooks`](ibc_core::forward::ForwardHooks)), [`FeeMiddleware`]
//! (ICS-29-style relayer fees with a conservation invariant), and
//! [`MemoHookMiddleware`] (post-receive actions dispatched from the memo).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fee;
pub mod forward;
pub mod hooks;
pub mod ica;
pub mod nft;
pub mod stack;

pub use fee::{relayer_account, FeeMiddleware, FeeTotals, PacketFee, FEE_ESCROW_ACCOUNT};
pub use forward::ForwardMiddleware;
pub use hooks::{parse_hook, HookMetadata, MemoHookMiddleware};
pub use ica::{ica_account, ica_execute, ica_register, IcaApp, IcaOp, IcaOutcome, IcaPacketData};
pub use nft::{send_nft, NftModule, NftPacketData, NftTransferApp};
pub use stack::{
    InFlightUnit, InnerStack, Middleware, ModuleStack, RecvDecision, StackCounters, StackRequest,
};

/// The ICS-20 ledger under its old stack-adapter name. Pinned for
/// `benchmark/src/probes.rs`, which builds stacks with
/// `TransferApp::new()`; ROADMAP item 1's `[benchmark]` PR moves the
/// probe to `TransferModule` and drops this alias.
pub type TransferApp = ibc_core::ics20::TransferModule;

/// The echo module under its old stack-adapter name. Pinned for
/// `benchmark/src/probes.rs`, which builds stacks with `EchoApp::new()`;
/// ROADMAP item 1's `[benchmark]` PR moves the probe to `EchoModule` and
/// drops this alias.
pub type EchoApp = ibc_core::router::EchoModule;
