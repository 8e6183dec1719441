//! Offline stand-in for `serde`: the trait names the workspace's derives
//! and `cip-geom`'s hand-written `Point` impls refer to. The provided
//! methods panic, because no code path the ladder measures serializes
//! through serde (the workspace writes its JSON and wire formats by hand).

pub use serde_derive::{Deserialize, Serialize};

/// A type that can be serialized.
pub trait Serialize {
    /// Serializes `self`.
    fn serialize<S: Serializer>(&self, _serializer: S) -> Result<S::Ok, S::Error> {
        unimplemented!("the offline serde stand-in does not serialize")
    }
}

/// A type that can be deserialized.
pub trait Deserialize<'de>: Sized {
    /// Deserializes a value.
    fn deserialize<D: Deserializer<'de>>(_deserializer: D) -> Result<Self, D::Error> {
        unimplemented!("the offline serde stand-in does not deserialize")
    }
}

/// An output format.
pub trait Serializer: Sized {
    /// Value produced on success.
    type Ok;
    /// Error produced on failure.
    type Error;
    /// State for serializing a fixed-length tuple.
    type SerializeTuple: ser::SerializeTuple<Ok = Self::Ok, Error = Self::Error>;
    /// Begins a tuple of `len` elements.
    fn serialize_tuple(self, len: usize) -> Result<Self::SerializeTuple, Self::Error>;
}

/// An input format.
pub trait Deserializer<'de>: Sized {
    /// Error produced on failure.
    type Error: de::Error;
    /// Hints that a tuple of `len` elements follows.
    fn deserialize_tuple<V: de::Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
}

impl Serialize for f64 {}
impl<'de> Deserialize<'de> for f64 {}

/// Serialization helpers.
pub mod ser {
    use super::Serialize;

    /// Returned by `Serializer::serialize_tuple`.
    pub trait SerializeTuple {
        /// Value produced on success.
        type Ok;
        /// Error produced on failure.
        type Error;
        /// Serializes one element.
        fn serialize_element<T: ?Sized + Serialize>(
            &mut self,
            value: &T,
        ) -> Result<(), Self::Error>;
        /// Finishes the tuple.
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }
}

/// Deserialization helpers.
pub mod de {
    use super::Deserialize;
    use std::fmt;

    /// What a visitor expected, for error messages.
    pub trait Expected {
        /// Writes the expectation.
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;
    }

    impl<'de, V: Visitor<'de>> Expected for V {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.expecting(f)
        }
    }

    /// Deserialization errors.
    pub trait Error: Sized {
        /// The input held the wrong number of elements.
        fn invalid_length(len: usize, exp: &dyn Expected) -> Self;
    }

    /// Walks the input of one value.
    pub trait Visitor<'de>: Sized {
        /// The value produced.
        type Value;
        /// Describes what this visitor expects.
        fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;
        /// The input is a sequence.
        fn visit_seq<A: SeqAccess<'de>>(self, seq: A) -> Result<Self::Value, A::Error>;
    }

    /// Access to the elements of a sequence.
    pub trait SeqAccess<'de> {
        /// Error produced on failure.
        type Error: Error;
        /// The next element, or `None` at the end.
        fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error>;
    }
}
