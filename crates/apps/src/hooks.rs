//! Memo-hook middleware: post-receive actions dispatched from the memo.
//!
//! A destination-chain layer. When a plain ICS-20 delivery succeeds and
//! its memo carries `{"hook": {...}}` metadata, the hook runs *after*
//! the application credited the receiver: a `"transfer"` hook sweeps
//! the credited funds onward to another local account (the
//! auto-forward-to-contract pattern of IBC hooks), a `"note"` hook
//! records its payload for inspection.
//!
//! Hooks are contained: a failing or unknown hook increments
//! [`MemoHookMiddleware::failed`] and leaves the delivery (and its
//! success ack) untouched — turning the ack into an error after the
//! credit would double-spend via the sender-side refund. Memos that
//! also carry forward/refund routing metadata are in transit, not
//! final deliveries, so hooks skip them.

use std::any::Any;

use serde::{Deserialize, Serialize};

use ibc_core::channel::{Acknowledgement, Packet};
use ibc_core::forward::MemoEnvelope;
use ibc_core::ics20::{self, FungibleTokenPacketData};

use crate::stack::{InnerStack, Middleware};

/// One post-receive action, carried in a memo as `{"hook": {...}}`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HookMetadata {
    /// Action name: `"transfer"` or `"note"`.
    pub action: String,
    /// Target account for `"transfer"` hooks.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub to: Option<String>,
    /// Payload for `"note"` hooks.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub note: Option<String>,
}

impl HookMetadata {
    /// Renders the hook as a standalone memo string.
    pub fn to_memo(&self) -> String {
        serde_json::to_string(&HookEnvelope { hook: Some(self.clone()) }).expect("memo serializes")
    }
}

/// The `{"hook": ...}` memo shape; unknown keys (forward, fee, …) are
/// ignored so one memo can carry several layers' metadata.
#[derive(Debug, Default, Serialize, Deserialize)]
struct HookEnvelope {
    #[serde(default, skip_serializing_if = "Option::is_none")]
    hook: Option<HookMetadata>,
}

/// Parses the hook metadata out of a memo, if any.
pub fn parse_hook(memo: &str) -> Option<HookMetadata> {
    serde_json::from_str::<HookEnvelope>(memo).ok().and_then(|e| e.hook)
}

/// The memo-hook middleware layer.
#[derive(Debug, Default)]
pub struct MemoHookMiddleware {
    /// Hooks executed successfully.
    pub executed: u64,
    /// Hooks that failed or named an unknown action.
    pub failed: u64,
    notes: Vec<String>,
}

impl MemoHookMiddleware {
    /// A fresh hook layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes recorded by `"note"` hooks, in arrival order.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

impl Middleware for MemoHookMiddleware {
    fn name(&self) -> &'static str {
        "memo-hook"
    }

    fn after_recv(
        &mut self,
        inner: &mut InnerStack<'_>,
        packet: &Packet,
        ack: Acknowledgement,
    ) -> Acknowledgement {
        if !ack.is_success() {
            return ack;
        }
        let Some(data) = FungibleTokenPacketData::decode(&packet.payload) else {
            return ack;
        };
        let routing = MemoEnvelope::parse(&data.memo);
        if routing.forward.is_some() || routing.refund.is_some() {
            // In transit (forwarded or unwinding): the nominal receiver
            // was not credited, so no hook fires here.
            return ack;
        }
        let Some(hook) = parse_hook(&data.memo) else {
            return ack;
        };
        match hook.action.as_str() {
            "transfer" => {
                let moved = hook.to.as_deref().and_then(|to| {
                    // The local denomination the receiver was credited
                    // in: base when returning home, locally-prefixed
                    // voucher otherwise — same classification the
                    // ledger's credit path used.
                    let local = match ics20::split_voucher(
                        &data.denom,
                        &packet.source_port,
                        &packet.source_channel,
                    ) {
                        Some(base) => base.to_string(),
                        None => format!(
                            "{}{}",
                            ics20::voucher_prefix(
                                &packet.destination_port,
                                &packet.destination_channel
                            ),
                            data.denom
                        ),
                    };
                    let ledger = inner.ics20_mut()?;
                    ledger.transfer_internal(&data.receiver, to, &local, data.amount).ok()
                });
                match moved {
                    Some(()) => self.executed += 1,
                    None => self.failed += 1,
                }
            }
            "note" => {
                self.notes.push(hook.note.unwrap_or_default());
                self.executed += 1;
            }
            _ => self.failed += 1,
        }
        ack
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
