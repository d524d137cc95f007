//! A compact, panic-free binary codec.
//!
//! `Wire` plays the role serde + bincode played before the workspace went
//! dependency-free: every checkpointable type implements it, either by hand
//! or through the [`impl_wire_struct!`](crate::impl_wire_struct),
//! [`impl_wire_newtype!`](crate::impl_wire_newtype) and
//! [`impl_wire_enum!`](crate::impl_wire_enum) macros.
//!
//! Design rules, chosen so corrupted input can never panic or OOM the
//! decoder (the fault-injection suite depends on this):
//!
//! - integers are LEB128 varints (zigzag for signed), so truncation is
//!   always detected as "ran out of bytes";
//! - decoded collections grow incrementally — lengths read from the
//!   stream are *never* trusted for pre-allocation;
//! - every failure path returns [`WireError`] with the byte offset and a
//!   static context string, mirroring the log codec's `CodecError`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Decoding error: byte offset where decoding failed plus what was being
/// decoded. All decode paths return this; none panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset in the input where the failure was detected.
    pub offset: usize,
    /// What the decoder was trying to read.
    pub context: &'static str,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wire decode error at byte {}: {}",
            self.offset, self.context
        )
    }
}

impl std::error::Error for WireError {}

/// Cursor over an input buffer. Every read is bounds-checked.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole buffer has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Read one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(WireError {
                offset: self.pos,
                context,
            }),
        }
    }

    /// Read `n` raw bytes.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireError {
                offset: self.pos,
                context,
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read an LEB128-encoded u64.
    pub fn varint(&mut self, context: &'static str) -> Result<u64, WireError> {
        let start = self.pos;
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8(context)?;
            if shift >= 63 && byte > 1 {
                return Err(WireError {
                    offset: start,
                    context: "varint overflow",
                });
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError {
                    offset: start,
                    context: "varint too long",
                });
            }
        }
    }
}

/// Append an LEB128-encoded u64.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Delta-encoding back-reference tag: the value equals the base's.
pub const DELTA_SAME: u8 = 0;
/// Delta-encoding tag: the new value follows in full.
pub const DELTA_NEW: u8 = 1;

/// Binary serialization to/from the wire format.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decode a value from the reader.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encode a value to a fresh byte vector.
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.put(&mut out);
    out
}

/// Decode a value, requiring the buffer to be fully consumed.
pub fn from_bytes<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(buf);
    let v = T::get(&mut r)?;
    if !r.is_empty() {
        return Err(WireError {
            offset: r.pos(),
            context: "trailing bytes",
        });
    }
    Ok(v)
}

impl Wire for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u8("u8")
    }
}

impl Wire for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.varint("u64")
    }
}

impl Wire for u16 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let off = r.pos();
        u16::try_from(r.varint("u16")?).map_err(|_| WireError {
            offset: off,
            context: "u16 range",
        })
    }
}

impl Wire for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let off = r.pos();
        u32::try_from(r.varint("u32")?).map_err(|_| WireError {
            offset: off,
            context: "u32 range",
        })
    }
}

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let off = r.pos();
        usize::try_from(r.varint("usize")?).map_err(|_| WireError {
            offset: off,
            context: "usize range",
        })
    }
}

impl Wire for i64 {
    fn put(&self, out: &mut Vec<u8>) {
        // Zigzag so small-magnitude negatives stay short.
        put_varint(out, ((*self << 1) ^ (*self >> 63)) as u64);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let z = r.varint("i64")?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }
}

impl Wire for i32 {
    fn put(&self, out: &mut Vec<u8>) {
        i64::from(*self).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let off = r.pos();
        i32::try_from(i64::get(r)?).map_err(|_| WireError {
            offset: off,
            context: "i32 range",
        })
    }
}

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let raw = r.take(8, "f64")?;
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let off = r.pos();
        match r.u8("bool")? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError {
                offset: off,
                context: "bool out of range",
            }),
        }
    }
}

impl Wire for () {
    fn put(&self, _out: &mut Vec<u8>) {}
    fn get(_r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = usize::get(r)?;
        let off = r.pos();
        let raw = r.take(len, "string bytes")?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError {
            offset: off,
            context: "invalid utf-8",
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = usize::get(r)?;
        // Grow incrementally: a corrupted length must not pre-allocate.
        let mut v = Vec::new();
        for _ in 0..len {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Vec::<T>::get(r)?.into())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let off = r.pos();
        match r.u8("option tag")? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(WireError {
                offset: off,
                context: "option tag out of range",
            }),
        }
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = usize::get(r)?;
        let mut m = BTreeMap::new();
        for _ in 0..len {
            let k = K::get(r)?;
            let v = V::get(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = usize::get(r)?;
        let mut s = BTreeSet::new();
        for _ in 0..len {
            s.insert(T::get(r)?);
        }
        Ok(s)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn put(&self, out: &mut Vec<u8>) {
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let off = r.pos();
        let mut v = Vec::with_capacity(N);
        for _ in 0..N {
            v.push(T::get(r)?);
        }
        v.try_into().map_err(|_| WireError {
            offset: off,
            context: "array length",
        })
    }
}

/// An opaque byte payload with a fast-path encoding.
///
/// `Vec<u8>` already implements [`Wire`] through the generic `Vec<T>`
/// impl, but that path dispatches per element — fine for small
/// collections, wasteful for the multi-kilobyte journal chunks the
/// `dpnet` attach stream carries. `Bytes` encodes the same way on the
/// wire (varint length + raw bytes) but copies with one `memcpy` each
/// direction, and decoding stays bounds-checked: the length read from
/// the stream is validated against the remaining buffer *before* any
/// allocation, so a corrupted length can never pre-allocate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes(pub Vec<u8>);

impl Wire for Bytes {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.0.len() as u64);
        out.extend_from_slice(&self.0);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = usize::get(r)?;
        // `take` refuses lengths past the end of the buffer, so the
        // allocation below is always bounded by the input size.
        Ok(Bytes(r.take(len, "byte payload")?.to_vec()))
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(v)
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn put(&self, out: &mut Vec<u8>) {
        T::put(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Arc::new(T::get(r)?))
    }
}

/// Implement [`Wire`] for a struct with named fields, encoding the fields
/// in declaration order.
#[macro_export]
macro_rules! impl_wire_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $( $crate::wire::Wire::put(&self.$field, out); )+
            }
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                $( let $field = $crate::wire::Wire::get(r)?; )+
                Ok(Self { $($field),+ })
            }
        }
    };
}

/// Implement [`Wire`] for a single-field tuple struct (newtype).
#[macro_export]
macro_rules! impl_wire_newtype {
    ($ty:ident) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $crate::wire::Wire::put(&self.0, out);
            }
            fn get(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok($ty($crate::wire::Wire::get(r)?))
            }
        }
    };
}

/// Implement [`Wire`] for an enum whose variants are unit or named-field,
/// using explicit one-byte tags. Unknown tags decode to a [`WireError`].
#[macro_export]
macro_rules! impl_wire_enum {
    ($ty:ident { $( $tag:literal => $variant:ident $( { $($field:ident),+ $(,)? } )? ),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(
                        $ty::$variant $( { $($field),+ } )? => {
                            out.push($tag);
                            $( $( $crate::wire::Wire::put($field, out); )+ )?
                        }
                    )+
                }
            }
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                let off = r.pos();
                let tag = r.u8(concat!(stringify!($ty), " tag"))?;
                match tag {
                    $(
                        $tag => {
                            $( $( let $field = $crate::wire::Wire::get(r)?; )+ )?
                            Ok($ty::$variant $( { $($field),+ } )?)
                        }
                    )+
                    _ => Err($crate::wire::WireError {
                        offset: off,
                        context: concat!("unknown ", stringify!($ty), " tag"),
                    }),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let bytes = to_bytes(&v);
            assert_eq!(from_bytes::<u64>(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let bytes = to_bytes(&v);
            assert_eq!(from_bytes::<i64>(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn collections_roundtrip() {
        let m: BTreeMap<u64, Vec<String>> = [(3, vec!["abc".to_string()]), (9, vec![])]
            .into_iter()
            .collect();
        assert_eq!(
            from_bytes::<BTreeMap<u64, Vec<String>>>(&to_bytes(&m)).unwrap(),
            m
        );
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let full = to_bytes(&vec![1u64, 2, 3, u64::MAX]);
        for cut in 0..full.len() {
            assert!(from_bytes::<Vec<u64>>(&full[..cut]).is_err());
        }
    }

    #[test]
    fn huge_length_prefix_does_not_allocate() {
        // Length claims 2^60 elements but the buffer is 9 bytes long.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 60);
        assert!(from_bytes::<Vec<u8>>(&buf).is_err());
    }

    #[test]
    fn bytes_fast_path_matches_vec_encoding_and_rejects_huge_lengths() {
        let payload = Bytes(vec![7u8; 300]);
        let encoded = to_bytes(&payload);
        // Same wire layout as the generic Vec<u8> impl.
        assert_eq!(encoded, to_bytes(&payload.0));
        assert_eq!(from_bytes::<Bytes>(&encoded).unwrap(), payload);
        // A length claiming far more than the buffer holds is a typed
        // error before any allocation happens.
        let mut lying = Vec::new();
        put_varint(&mut lying, 1 << 60);
        lying.extend_from_slice(b"xy");
        assert!(from_bytes::<Bytes>(&lying).is_err());
        // Truncation anywhere is an error, never a panic.
        for cut in 0..encoded.len() {
            assert!(from_bytes::<Bytes>(&encoded[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u64);
        bytes.push(0);
        assert!(from_bytes::<u64>(&bytes).is_err());
    }
}
