//! Offline stand-in for the `serde` crate.
//!
//! The build environment cannot reach crates.io, so the workspace vendors a
//! deliberately small serialization framework with serde's *spelling*: a
//! [`Serialize`] trait plus `#[derive(Serialize)]` (from the sibling
//! `serde_derive` shim). Instead of serde's generic `Serializer` visitor,
//! the trait renders into one concrete intermediate [`Value`] tree, which
//! `serde_json` prints as JSON text and parses JSON text back into. Nothing
//! deserializes a typed value: JSON read back is walked as a [`Value`].
//!
//! Representation choices (stable; pp-serving's tests pin the bytes of a
//! `PredictRequest` for each context kind):
//!
//! * structs with named fields → JSON objects;
//! * newtype structs → the inner value, transparently;
//! * tuple structs → JSON arrays;
//! * unit enum variants → `"VariantName"`;
//! * data-carrying variants → `{"VariantName": <payload>}` (serde's
//!   externally-tagged default).

#![warn(missing_docs)]

pub use serde_derive::Serialize;

/// The intermediate tree every serialization goes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object as ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

/// A JSON number, keeping integers exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    PosInt(u64),
    /// Negative integer.
    NegInt(i64),
    /// Anything with a fractional part or exponent.
    Float(f64),
}

impl Value {
    /// Borrows the object pairs if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Borrows the elements if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Borrows the string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Converts to `f64` if this is any kind of number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::PosInt(v)) => Some(*v as f64),
            Value::Number(Number::NegInt(v)) => Some(*v as f64),
            Value::Number(Number::Float(v)) => Some(*v),
            _ => None,
        }
    }

    /// Converts to `u64` if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::PosInt(v)) => Some(*v),
            Value::Number(Number::NegInt(v)) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Converts to `i64` if this is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::PosInt(v)) => i64::try_from(*v).ok(),
            Value::Number(Number::NegInt(v)) => Some(*v),
            _ => None,
        }
    }
}

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    /// Converts `self` to the intermediate tree.
    fn to_value(&self) -> Value;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::PosInt(*self as u64))
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 {
                    Value::Number(Number::PosInt(v as u64))
                } else {
                    Value::Number(Number::NegInt(v))
                }
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as f64;
                if v.is_finite() {
                    Value::Number(Number::Float(v))
                } else {
                    // serde_json renders non-finite floats as null.
                    Value::Null
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Container impls
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(7u32.to_value().as_u64(), Some(7));
        assert_eq!((-9i64).to_value().as_i64(), Some(-9));
        assert_eq!(4i64.to_value(), Value::Number(Number::PosInt(4)));
        assert_eq!(1.5f32.to_value().as_f64(), Some(1.5));
        assert_eq!(f64::NAN.to_value(), Value::Null);
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!(String::from("hi").to_value().as_str(), Some("hi"));
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1u8, 2, 3];
        let items: Vec<u64> = v
            .to_value()
            .as_array()
            .expect("a vec is an array")
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        assert_eq!(items, [1, 2, 3]);
    }

    #[test]
    fn wrong_shape_errors() {
        assert_eq!(Value::Bool(true).as_u64(), None);
        assert_eq!((-1i32).to_value().as_u64(), None);
        assert_eq!(u64::MAX.to_value().as_i64(), None);
        assert_eq!(Value::Null.as_array(), None);
        assert_eq!(Value::String("7".into()).as_f64(), None);
    }
}
