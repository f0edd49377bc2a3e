//! The few `serde_json::Value` helpers the benchmark's writers and
//! readers share (the vendored `Value` keeps objects as ordered pairs).

use serde_json::{Number, Value};

pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// A measured number; JSON has no NaN or infinity, so those read 0.
pub fn number(value: f64) -> Value {
    Value::Number(Number::Float(if value.is_finite() { value } else { 0.0 }))
}

pub fn count(value: u64) -> Value {
    Value::Number(Number::PosInt(u128::from(value)))
}

pub fn field<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    match value {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Number(Number::PosInt(v)) => Some(*v as f64),
        Value::Number(Number::NegInt(v)) => Some(*v as f64),
        Value::Number(Number::Float(v)) => Some(*v),
        _ => None,
    }
}
