//! The versioned wire format: a little-endian reader/writer pair, the
//! IEEE CRC-32 the frame checksum uses, the [`Codec`] trait that gives a
//! type its one byte layout, and the [`Wire`] trait a message type
//! implements to travel over any [`Transport`](crate::Transport) backend.
//!
//! Every layout in the tree is declared once, as a field list handed to
//! [`codec_struct!`](crate::codec_struct) or
//! [`codec_enum!`](crate::codec_enum) (DESIGN.md §6c tabulates them);
//! encoder and decoder are both derived from that list, so they cannot
//! drift apart. Canonical rules, shared by every type: integers are
//! little-endian, `f64` travels as its IEEE-754 bit pattern, `bool` and
//! `Option` tags are exactly `0` or `1`, sequences are a `u32` count
//! then the items, and a decoder accepts only bytes its encoder emits.
//!
//! Everything here is panic-free on hostile input: every decode path
//! returns a typed [`WireError`] so a flipped bit on a socket surfaces
//! as a recoverable value, never an abort.

use std::fmt;

/// A malformed or mismatched byte sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes available than the field being read requires.
    Truncated {
        /// Bytes the read needed.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The frame header carried an unknown format version.
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// The payload tag does not name a known message variant.
    BadTag {
        /// The tag byte received.
        got: u8,
    },
    /// Header+payload CRC-32 mismatch — bit corruption in flight.
    BadChecksum,
    /// The declared payload length exceeds the sanity ceiling.
    Oversized {
        /// The declared length.
        len: usize,
    },
    /// Structurally invalid payload (bad count, trailing bytes, ...).
    Malformed {
        /// What was wrong.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { need, have } => {
                write!(f, "truncated input: needed {need} bytes, had {have}")
            }
            Self::BadVersion { got } => write!(f, "unknown wire version {got}"),
            Self::BadTag { got } => write!(f, "unknown message tag {got}"),
            Self::BadChecksum => write!(f, "frame checksum mismatch"),
            Self::Oversized { len } => write!(f, "payload length {len} exceeds ceiling"),
            Self::Malformed { what } => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian appender over a byte vector.
pub struct ByteWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> ByteWriter<'a> {
    /// Wrap `out`; writes append to it.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Self { out }
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern — round-trips every
    /// value bit-exactly, NaN payloads and signed zeros included.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append `v` verbatim (no length prefix).
    pub fn raw(&mut self, v: &[u8]) {
        self.out.extend_from_slice(v);
    }
}

/// Little-endian cursor over a byte slice; every read is checked.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read the next `n` bytes verbatim.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { need: n, have: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut a = [0; N];
        a.copy_from_slice(self.raw(N)?);
        Ok(a)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.raw(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        self.u64().map(f64::from_bits)
    }

    /// Assert the payload was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed { what: "trailing bytes" });
        }
        Ok(())
    }
}

/// Slicing-by-8 tables of the reflected IEEE polynomial: `t[0]` is the
/// classic byte-at-a-time table, and `t[n][b]` is the CRC of byte `b`
/// followed by `n` zero bytes, so eight lookups advance the CRC by eight
/// bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut j = 0;
        while j < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            j += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut n = 1;
    while n < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[n - 1][i];
            t[n][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        n += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC-32 over the concatenation of `parts`.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

/// A type with exactly one byte layout: what [`Codec::put`] appends is
/// the only input [`Codec::get`] accepts for that value, so
/// `put(get(bytes)) == bytes` for every accepted `bytes` — the property
/// the job server's content-hash cache keys on.
///
/// Implemented here for the building blocks (integers, `f64`, `bool`,
/// `usize` as `u64`, `String`, `[T; N]`, `Option<T>`, `Vec<T>`, pairs);
/// structs and tagged enums derive it from their field list with
/// [`codec_struct!`](crate::codec_struct) and
/// [`codec_enum!`](crate::codec_enum).
pub trait Codec: Sized {
    /// The fewest bytes any value of this type encodes to — what
    /// `Vec<Self>` multiplies a declared count by before allocating.
    const MIN_LEN: usize;

    /// Append this value's bytes.
    fn put(&self, w: &mut ByteWriter<'_>);

    /// Read one value back. Never panics on hostile input.
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError>;

    /// Append `items` back to back, without a count. (`u8` overrides
    /// this and [`Codec::get_all`] with one `memcpy`, so bulk payloads
    /// are not walked byte by byte.)
    fn put_all(items: &[Self], w: &mut ByteWriter<'_>) {
        for item in items {
            item.put(w);
        }
    }

    /// Read `count` items laid back to back. The caller has bounded
    /// `count` by the bytes present ([`Vec`] does).
    fn get_all(count: usize, r: &mut ByteReader<'_>) -> Result<Vec<Self>, WireError> {
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(Self::get(r)?);
        }
        Ok(items)
    }
}

impl Codec for u8 {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut ByteWriter<'_>) {
        w.u8(*self);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
    fn put_all(items: &[Self], w: &mut ByteWriter<'_>) {
        w.raw(items);
    }
    fn get_all(count: usize, r: &mut ByteReader<'_>) -> Result<Vec<Self>, WireError> {
        r.raw(count).map(<[u8]>::to_vec)
    }
}

macro_rules! codec_scalar {
    ($($ty:ident),+) => {$(
        impl Codec for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();
            fn put(&self, w: &mut ByteWriter<'_>) {
                w.$ty(*self);
            }
            fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
                r.$ty()
            }
        }
    )+};
}
codec_scalar!(u16, u32, u64, f64);

/// `usize` travels as a `u64`, so the layout does not depend on the
/// platform that wrote it.
impl Codec for usize {
    const MIN_LEN: usize = 8;
    fn put(&self, w: &mut ByteWriter<'_>) {
        w.u64(*self as u64);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.u64()?).map_err(|_| WireError::Malformed { what: "size exceeds usize" })
    }
}

/// One byte, exactly `0` or `1`.
impl Codec for bool {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut ByteWriter<'_>) {
        w.u8(u8::from(*self));
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed { what: "bool byte is not 0 or 1" }),
        }
    }
}

/// A `bool` presence tag, then the value if present.
impl<T: Codec> Codec for Option<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, w: &mut ByteWriter<'_>) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(if bool::get(r)? { Some(T::get(r)?) } else { None })
    }
}

/// A `u32` count, then the items. The one hostile-count check in the
/// tree: a count the remaining bytes cannot hold is rejected before
/// anything is allocated for it.
impl<T: Codec> Codec for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, w: &mut ByteWriter<'_>) {
        w.u32(self.len() as u32);
        T::put_all(self, w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let count = r.u32()? as usize;
        if count.saturating_mul(T::MIN_LEN) > r.remaining() {
            return Err(WireError::Malformed { what: "declared count exceeds payload" });
        }
        T::get_all(count, r)
    }
}

/// UTF-8 bytes in `Vec<u8>` layout.
impl Codec for String {
    const MIN_LEN: usize = 4;
    fn put(&self, w: &mut ByteWriter<'_>) {
        w.u32(self.len() as u32);
        w.raw(self.as_bytes());
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        String::from_utf8(Vec::get(r)?)
            .map_err(|_| WireError::Malformed { what: "string is not utf-8" })
    }
}

/// `N` items back to back, no count.
impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    const MIN_LEN: usize = N * T::MIN_LEN;
    fn put(&self, w: &mut ByteWriter<'_>) {
        T::put_all(self, w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let mut items = [T::default(); N];
        for item in &mut items {
            *item = T::get(r)?;
        }
        Ok(items)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    fn put(&self, w: &mut ByteWriter<'_>) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// [`Codec::MIN_LEN`] of the field a projection returns — lets
/// [`codec_struct!`](crate::codec_struct) sum its fields' minimum
/// lengths from their names alone.
pub const fn min_len_of<S, T: Codec>(_field: fn(&S) -> &T) -> usize {
    T::MIN_LEN
}

/// Derives [`Codec`] for a struct from its field names **in wire
/// order** (which need not be declaration order). A trailing
/// `; ..base` names fields that do not travel: decoding takes them from
/// the expression `base`.
///
/// ```
/// struct Pair { a: u32, b: Vec<u64> }
/// cip_transport::codec_struct!(Pair { a, b });
/// ```
#[macro_export]
macro_rules! codec_struct {
    ($ty:ty { $first:ident $(, $f:ident)* $(,)? $(; ..$base:expr)? }) => {
        impl $crate::wire::Codec for $ty {
            const MIN_LEN: usize = $crate::wire::min_len_of(|s: &$ty| &s.$first)
                $(+ $crate::wire::min_len_of(|s: &$ty| &s.$f))*;
            fn put(&self, w: &mut $crate::wire::ByteWriter<'_>) {
                $crate::wire::Codec::put(&self.$first, w);
                $($crate::wire::Codec::put(&self.$f, w);)*
            }
            fn get(
                r: &mut $crate::wire::ByteReader<'_>,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                let $first = $crate::wire::Codec::get(r)?;
                $(let $f = $crate::wire::Codec::get(r)?;)*
                Ok(Self { $first, $($f,)* $(..$base)? })
            }
        }
    };
}

/// Derives the layout of a tagged enum from its `tag => Variant` list:
/// a `u8` tag, then the variant's fields in the order listed. Variants
/// are `Unit`, `Struct { a, b }` or `Tuple(a)` (the names bind the
/// positions).
///
/// The `framed` form derives [`Wire`], for the top-level message of a
/// connection: the tag travels in the frame header, and so do the
/// fields a variant lists in leading brackets — `[from, step, seq]`,
/// any subset, named after the [`Route`] field that carries them. The
/// plain form adds [`Codec`] on top, with the tag as the first byte,
/// for an enum nested inside another layout.
///
/// ```
/// enum Shape { Dot, Line { from: u32, len: u64 }, Tag(String) }
/// cip_transport::codec_enum!(framed Shape {
///     1 => Dot,
///     2 => Line { [from] len },
///     3 => Tag(text),
/// });
/// ```
#[macro_export]
macro_rules! codec_enum {
    (framed $ty:ty { $(
        $tag:literal => $v:ident
            $({ $([$($h:ident),+])? $($f:ident),* $(,)? })?
            $(($($t:ident),+))?
    ),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn tag(&self) -> u8 {
                match self {
                    $(Self::$v { .. } => $tag,)+
                }
            }
            // A variant that lists all three route fields leaves the
            // update nothing to fill in.
            #[allow(clippy::needless_update)]
            fn route(&self) -> $crate::wire::Route {
                match self {
                    $(Self::$v { $($($($h,)+)?)? .. } => {
                        $crate::wire::Route { $($($($h: *$h,)+)?)? ..Default::default() }
                    })+
                }
            }
            #[allow(unused_variables)]
            fn encode_payload(&self, w: &mut $crate::wire::ByteWriter<'_>) {
                match self {
                    $(Self::$v $({ $($f,)* .. })? $(($($t),+))? => {
                        $($($crate::wire::Codec::put($f, w);)*)?
                        $($($crate::wire::Codec::put($t, w);)+)?
                    })+
                }
            }
            #[allow(unused_variables)]
            fn decode_payload(
                tag: u8,
                route: $crate::wire::Route,
                r: &mut $crate::wire::ByteReader<'_>,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                match tag {
                    $($tag => {
                        $($(let $f = $crate::wire::Codec::get(r)?;)*)?
                        $($(let $t = $crate::wire::Codec::get(r)?;)+)?
                        Ok(Self::$v $({ $($($h: route.$h,)+)? $($f,)* })? $(($($t),+))?)
                    })+
                    got => Err($crate::wire::WireError::BadTag { got }),
                }
            }
        }
    };
    ($ty:ty { $($variants:tt)+ }) => {
        $crate::codec_enum!(framed $ty { $($variants)+ });
        impl $crate::wire::Codec for $ty {
            const MIN_LEN: usize = 1;
            fn put(&self, w: &mut $crate::wire::ByteWriter<'_>) {
                w.u8($crate::wire::Wire::tag(self));
                $crate::wire::Wire::encode_payload(self, w);
            }
            fn get(
                r: &mut $crate::wire::ByteReader<'_>,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                let tag = r.u8()?;
                $crate::wire::Wire::decode_payload(tag, $crate::wire::Route::default(), r)
            }
        }
    };
}

/// `value` behind a one-byte format version — the shape of every
/// payload that travels outside a frame.
pub fn encode_versioned<T: Codec>(version: u8, value: &T) -> Vec<u8> {
    let mut out = vec![version];
    value.put(&mut ByteWriter::new(&mut out));
    out
}

/// Inverse of [`encode_versioned`]: rejects any other version byte and
/// any trailing bytes.
pub fn decode_versioned<T: Codec>(version: u8, bytes: &[u8]) -> Result<T, WireError> {
    let mut r = ByteReader::new(bytes);
    let got = r.u8()?;
    if got != version {
        return Err(WireError::BadVersion { got });
    }
    let value = T::get(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// The routing metadata a frame header carries on its message's behalf.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Route {
    /// Originating rank.
    pub from: u32,
    /// Step the message belongs to (0 when not step-scoped).
    pub step: u32,
    /// Per-(from, to, step) sequence number (0 when unsequenced).
    pub seq: u64,
}

/// A message that can cross process boundaries.
///
/// Implementors provide what the frame header carries (`tag` and
/// [`Route`]) plus payload encode/decode; framing, checksumming, and
/// versioning live in [`frame`](crate::frame) and are shared by every
/// message type. Derive it with
/// [`codec_enum!(framed ..)`](crate::codec_enum).
pub trait Wire: Send + Sized + 'static {
    /// Variant discriminant stamped into the frame header (nonzero).
    fn tag(&self) -> u8;
    /// The fields of this message the frame header carries.
    fn route(&self) -> Route;
    /// Append the payload bytes — everything the header doesn't carry.
    fn encode_payload(&self, w: &mut ByteWriter<'_>);
    /// Rebuild a message from header metadata plus payload bytes. Must
    /// never panic on hostile input; the caller checks that the payload
    /// was consumed exactly.
    fn decode_payload(tag: u8, route: Route, r: &mut ByteReader<'_>) -> Result<Self, WireError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC the frames were first checksummed with:
    /// the oracle the sliced one must equal on every input.
    fn crc32_bytewise(parts: &[&[u8]]) -> u32 {
        let t = &CRC_TABLES[0];
        let mut c = 0xFFFF_FFFFu32;
        for part in parts {
            for &b in *part {
                c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
        }
        !c
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
        assert_eq!(crc32_bytewise(&[b"123456789"]), 0xCBF4_3926);
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_one_on_any_split() {
        cip_base::rng::sweep(256, |rng| {
            let len = rng.range_u32(4097) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            // 1-4 parts at random cut points (empty parts included).
            let mut cuts: Vec<usize> =
                (0..rng.range_u32(4)).map(|_| rng.range_u32(len as u32 + 1) as usize).collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                parts.push(&bytes[from..cut]);
                from = cut;
            }
            assert_eq!(crc32(&parts), crc32_bytewise(&parts), "len {len}, {} parts", parts.len());
            assert_eq!(crc32(&parts), crc32(&[&bytes]));
        });
    }

    fn bytes_of<T: Codec>(v: &T) -> Vec<u8> {
        let mut buf = Vec::new();
        v.put(&mut ByteWriter::new(&mut buf));
        buf
    }

    fn decode<T: Codec>(buf: &[u8]) -> Result<T, WireError> {
        let mut r = ByteReader::new(buf);
        let v = T::get(&mut r)?;
        r.finish().map(|()| v)
    }

    #[test]
    fn building_blocks_round_trip_bit_exactly() {
        type Sample = (Vec<(u16, [f64; 2])>, (Option<String>, (Vec<u8>, (usize, bool))));
        let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let v: Sample = (
            vec![(513, [-0.0, weird]), (7, [1e300, 0.5])],
            (Some("héllo".to_string()), (vec![9, 8], (1 << 40, true))),
        );
        let buf = bytes_of(&v);
        assert_eq!(&buf[..6], &[2, 0, 0, 0, 1, 2], "u32 count, then little-endian items");
        assert_eq!(bytes_of(&decode::<Sample>(&buf).expect("decodes")), buf);
        assert_eq!(Sample::MIN_LEN, 4 + 1 + 4 + 8 + 1);
        assert_eq!(bytes_of(&None::<u64>), [0]);
        for cut in 0..buf.len() {
            assert!(decode::<Sample>(&buf[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn hostile_and_non_canonical_input_is_rejected_typed() {
        let malformed = |r: Result<_, WireError>| matches!(r, Err(WireError::Malformed { .. }));
        // A count the payload cannot hold is rejected before allocating.
        let hostile = (1u32 << 30).to_le_bytes();
        assert!(malformed(decode::<Vec<u64>>(&hostile).map(drop)));
        assert!(malformed(decode::<Vec<Vec<u8>>>(&hostile).map(drop)));
        assert!(malformed(decode::<String>(&hostile).map(drop)));
        assert!(malformed(decode::<String>(&[1, 0, 0, 0, 0xFF]).map(drop)), "not utf-8");
        // Tags are exactly 0 or 1.
        assert!(malformed(decode::<bool>(&[2]).map(drop)));
        assert!(malformed(decode::<Option<u8>>(&[2, 0]).map(drop)));
        assert!(malformed(decode::<u16>(&[1, 2, 3]).map(drop)), "trailing byte");
        assert_eq!(decode::<u32>(&[1, 2, 3]), Err(WireError::Truncated { need: 4, have: 3 }));
        assert_eq!(decode_versioned::<u8>(3, &[4, 0]), Err(WireError::BadVersion { got: 4 }));
        assert_eq!(decode_versioned::<u8>(3, &encode_versioned(3, &9u8)), Ok(9));
    }
}
