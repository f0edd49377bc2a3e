//! Events emitted by programs and observed by off-chain actors.

use std::any::Any;
use std::fmt;
use std::rc::Rc;

use serde::{de::DeserializeOwned, Serialize};

use crate::types::Pubkey;

/// An event emitted during transaction execution.
///
/// Validators and relayers poll blocks for events (the paper's `NewBlock`
/// and `FinalisedBlock` among others). Payloads are serde-encoded by the
/// emitting program and read back with [`Event::payload_as`].
///
/// The value a payload was encoded from stays beside its bytes, so an
/// observer in the same process that asks for that type gets it without a
/// second parse. Both sit behind one `Rc`, so a clone of an event copies a
/// pointer.
#[derive(Clone)]
pub struct Event {
    /// The emitting program.
    pub program_id: Pubkey,
    /// Event kind, e.g. `"NewBlock"`.
    pub name: String,
    body: Rc<Body>,
}

struct Body<T: ?Sized = dyn Any> {
    /// Serde-JSON-encoded payload.
    bytes: Vec<u8>,
    /// What `bytes` was encoded from.
    typed: T,
}

impl Event {
    /// Encodes `payload` into an event.
    ///
    /// # Panics
    ///
    /// Panics if `payload` fails to serialize (programs only emit
    /// serializable types).
    pub fn encode<T: Serialize + 'static>(program_id: Pubkey, name: &str, payload: T) -> Self {
        let bytes = serde_json::to_vec(&payload).expect("event payload serializes");
        Self { program_id, name: name.to_string(), body: Rc::new(Body { bytes, typed: payload }) }
    }

    /// The serde-JSON-encoded payload.
    pub fn payload(&self) -> &[u8] {
        &self.body.bytes
    }

    /// The payload as a `T`: the value it was encoded from when that was a
    /// `T`, the bytes parsed otherwise. `None` if they are no `T`.
    pub fn payload_as<T: DeserializeOwned + Clone + 'static>(&self) -> Option<T> {
        match self.body.typed.downcast_ref::<T>() {
            Some(typed) => Some(typed.clone()),
            None => serde_json::from_slice(&self.body.bytes).ok(),
        }
    }

    /// Decodes the payload if the event name matches.
    pub fn decode<T: DeserializeOwned + Clone + 'static>(&self, name: &str) -> Option<T> {
        if self.name != name {
            return None;
        }
        self.payload_as()
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("program_id", &self.program_id)
            .field("name", &self.name)
            .field("payload", &String::from_utf8_lossy(self.payload()))
            .finish()
    }
}

/// Events are equal when an observer reading their bytes cannot tell them
/// apart.
impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.program_id == other.program_id
            && self.name == other.name
            && self.payload() == other.payload()
    }
}

impl Eq for Event {}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    struct Ping {
        height: u64,
    }

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    struct Pong {
        height: u64,
    }

    #[test]
    fn encode_decode_round_trip() {
        let event = Event::encode(Pubkey::from_label("p"), "Ping", Ping { height: 7 });
        assert_eq!(event.decode::<Ping>("Ping"), Some(Ping { height: 7 }));
        assert_eq!(event.decode::<Ping>("Pong"), None);
    }

    #[test]
    fn another_type_is_parsed_from_the_bytes() {
        let event = Event::encode(Pubkey::from_label("p"), "Ping", Ping { height: 7 });
        assert_eq!(event.payload(), br#"{"height":7}"#);
        assert_eq!(event.payload_as::<Pong>(), Some(Pong { height: 7 }));
        assert_eq!(event.payload_as::<u64>(), None);
        assert_eq!(event.clone(), event);
    }
}
