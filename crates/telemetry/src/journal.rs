//! The structured event journal: an append-only, sim-clock-stamped list
//! of records rendered as JSONL.
//!
//! Every record carries the simulated timestamp it was emitted at — never
//! a wall clock — so two same-seed runs produce byte-identical journals.

use serde::ser::Serializer;
use serde::value::Value;
use serde::{de, Deserialize, Serialize};

/// A single typed field value attached to a journal event.
///
/// Serializes as the bare JSON value (no enum tag), so journal lines stay
/// readable: `{"slot": 42, "kind": "write_chunk"}`.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer payload (slots, lamports, compute units).
    U64(u64),
    /// Signed integer payload (deltas, skews).
    I64(i64),
    /// Floating-point payload (loads, probabilities).
    F64(f64),
    /// Text payload (names, labels, denominations).
    Text(String),
    /// Boolean payload.
    Bool(bool),
}

impl Serialize for FieldValue {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let value = match self {
            FieldValue::U64(v) => Value::Number(serde::value::Number::PosInt(u128::from(*v))),
            FieldValue::I64(v) => {
                if *v >= 0 {
                    Value::Number(serde::value::Number::PosInt(*v as u128))
                } else {
                    Value::Number(serde::value::Number::NegInt(i128::from(*v)))
                }
            }
            FieldValue::F64(v) => Value::Number(serde::value::Number::Float(*v)),
            FieldValue::Text(v) => Value::String(v.clone()),
            FieldValue::Bool(v) => Value::Bool(*v),
        };
        serializer.serialize_value(value)
    }
}

impl<'de> Deserialize<'de> for FieldValue {
    fn deserialize<D: de::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.into_value()?;
        match value {
            Value::Bool(v) => Ok(FieldValue::Bool(v)),
            Value::String(v) => Ok(FieldValue::Text(v)),
            Value::Number(serde::value::Number::PosInt(v)) => Ok(FieldValue::U64(v as u64)),
            Value::Number(serde::value::Number::NegInt(v)) => Ok(FieldValue::I64(v as i64)),
            Value::Number(serde::value::Number::Float(v)) => Ok(FieldValue::F64(v)),
            other => {
                Err(<D::Error as de::Error>::custom(format!("bad field value: {}", other.kind())))
            }
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Text(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Text(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Text(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Ordered `name → value` fields of one event, serialized as a JSON
/// object in insertion order (deterministic: call sites list fields in a
/// fixed order).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fields(pub Vec<(String, FieldValue)>);

impl Fields {
    /// Looks up a field by name.
    pub fn get(&self, name: &str) -> Option<&FieldValue> {
        self.0.iter().find(|(key, _)| key == name).map(|(_, value)| value)
    }

    /// True when no fields are attached.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Serialize for Fields {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut entries = Vec::with_capacity(self.0.len());
        for (key, value) in &self.0 {
            entries.push((
                key.clone(),
                serde::value::to_value(value).map_err(|err| {
                    <S::Error as serde::ser::Error>::custom(format!("field {key}: {err}"))
                })?,
            ));
        }
        serializer.serialize_value(Value::Object(entries))
    }
}

impl<'de> Deserialize<'de> for Fields {
    fn deserialize<D: de::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.into_value()?;
        let Value::Object(entries) = value else {
            return Err(<D::Error as de::Error>::custom("fields must be an object"));
        };
        let mut out = Vec::with_capacity(entries.len());
        for (key, value) in entries {
            let field = serde::value::from_value(value)
                .map_err(|err| <D::Error as de::Error>::custom(format!("field {key}: {err}")))?;
            out.push((key, field));
        }
        Ok(Fields(out))
    }
}

impl From<&[(&str, FieldValue)]> for Fields {
    fn from(entries: &[(&str, FieldValue)]) -> Self {
        Fields(entries.iter().map(|(key, value)| (key.to_string(), value.clone())).collect())
    }
}

/// What a journal record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordKind {
    /// A point-in-time occurrence.
    Event,
    /// The opening edge of a span.
    SpanStart,
    /// The closing edge of a span.
    SpanEnd,
}

/// One line of the JSONL journal.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Position in the journal (0-based, gap-free).
    pub seq: u64,
    /// Simulated timestamp in milliseconds.
    pub at_ms: u64,
    /// Record type.
    pub kind: RecordKind,
    /// Event or span name (dotted, e.g. `relayer.chunk.retry`).
    pub name: String,
    /// Trace ids this record belongs to (empty for global events).
    pub traces: Vec<u64>,
    /// Span id for `SpanStart`/`SpanEnd` records.
    pub span: Option<u64>,
    /// Structured payload.
    pub fields: Fields,
}
