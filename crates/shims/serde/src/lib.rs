//! Offline, in-tree stand-in for the subset of [`serde`] this workspace uses:
//! the [`Serialize`] trait, its derive macro and a JSON-like [`Value`] tree.
//!
//! Unlike real serde's visitor architecture, this shim serializes through a
//! concrete [`Value`]: `Serialize` lowers a type to a [`Value`], and the
//! companion `serde_json` shim renders that tree to a JSON string. Only the
//! records the workspace writes implement `Serialize`: named-field structs
//! of integers, floats, booleans, strings, options and other such records.
//! Nothing parses JSON into a typed value; `serde_json::from_str` parses to a
//! [`Value`], which callers read with [`Value::field`].
//!
//! [`serde`]: https://docs.rs/serde

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub use serde_derive::Serialize;

/// A JSON-like tree of values, the intermediate representation all
/// serialization in this shim goes through, and what `serde_json` parses to.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer, kept exact (not routed through `f64`).
    UInt(u64),
    /// A negative integer, kept exact.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object, as insertion-ordered key/value pairs.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in a [`Value::Map`], returning [`Value::Null`] when the
    /// key is absent (so a missing field reads like an explicit `null`).
    pub fn field(&self, key: &str) -> Result<&Value, Error> {
        match self {
            Value::Map(entries) => Ok(entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&Value::Null)),
            other => Err(Error::new(format!(
                "expected map with field `{key}`, found {}",
                other.kind()
            ))),
        }
    }

    /// A short name for the variant, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::UInt(_) | Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

/// A serialization or parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can be lowered to a [`Value`].
pub trait Serialize {
    /// Lowers `self` to a [`Value`].
    fn to_value(&self) -> Value;
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        Value::UInt(*self)
    }
}

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::UInt(*self as u64)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

// Like real serde_json's `Value: Serialize`: callers that build JSON of a
// shape no record declares (the kf-serve wire layer) write the tree itself.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_lower_to_values() {
        assert_eq!(42u64.to_value(), Value::UInt(42));
        assert_eq!(7usize.to_value(), Value::UInt(7));
        assert_eq!(1.5f64.to_value(), Value::Float(1.5));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("a".to_string().to_value(), Value::Str("a".into()));
        assert_eq!(
            vec![Some(1u64), None].to_value(),
            Value::Seq(vec![Value::UInt(1), Value::Null])
        );
        let tree = Value::Seq(vec![Value::Int(-1)]);
        assert_eq!(tree.to_value(), tree);
    }

    #[test]
    fn field_lookup_treats_missing_as_null() {
        let m = Value::Map(vec![("a".into(), Value::UInt(1))]);
        assert_eq!(m.field("a").unwrap(), &Value::UInt(1));
        assert_eq!(m.field("b").unwrap(), &Value::Null);
        assert!(Value::Null.field("a").is_err());
    }

    #[test]
    fn type_mismatches_error() {
        // Field lookup on anything but a map errors, naming what it found.
        for (value, kind) in [
            (Value::Null, "null"),
            (Value::Bool(true), "bool"),
            (Value::Int(-1), "integer"),
            (Value::Float(0.5), "float"),
            (Value::Str("x".into()), "string"),
            (Value::Seq(vec![]), "sequence"),
        ] {
            let err = value.field("a").unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("expected map with field `a`, found {kind}")
            );
        }
    }
}
