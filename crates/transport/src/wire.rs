//! Byte-level primitives for the versioned wire format: a little-endian
//! reader/writer pair, the IEEE CRC-32 the frame checksum uses, and the
//! [`Wire`] trait a message type implements to travel over any
//! [`Transport`](crate::Transport) backend.
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
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern — round-trips every
    /// value bit-exactly, NaN payloads and signed zeros included.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a byte string: `u32` length, then the bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.out.extend_from_slice(v);
    }

    /// Append a UTF-8 string in [`Self::bytes`] form.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Append a `u32` slice: `u32` count, then the values.
    pub fn u32s(&mut self, v: &[u32]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u32(x);
        }
    }

    /// Append a `u64` slice: `u32` count, then the values.
    pub fn u64s(&mut self, v: &[u64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u64(x);
        }
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

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { need: n, have: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u32` count of items `width` bytes wide, checked against
    /// the bytes actually left *before* anything is allocated for them.
    fn count(&mut self, width: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(width) > self.remaining() {
            return Err(WireError::Malformed { what: "declared length exceeds payload" });
        }
        Ok(count)
    }

    /// Read a byte string written by [`ByteWriter::bytes`].
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.count(1)?;
        Ok(self.take(len)?.to_vec())
    }

    /// Read a UTF-8 string written by [`ByteWriter::str`].
    pub fn str(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?)
            .map_err(|_| WireError::Malformed { what: "string is not utf-8" })
    }

    /// Read a `u32` slice written by [`ByteWriter::u32s`].
    pub fn u32s(&mut self) -> Result<Vec<u32>, WireError> {
        let bytes = self.count(4)? * 4;
        let to_u32 = |c: &[u8]| u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        Ok(self.take(bytes)?.chunks_exact(4).map(to_u32).collect())
    }

    /// Read a `u64` slice written by [`ByteWriter::u64s`].
    pub fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let bytes = self.count(8)? * 8;
        let to_u64 =
            |c: &[u8]| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        Ok(self.take(bytes)?.chunks_exact(8).map(to_u64).collect())
    }

    /// Assert the payload was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed { what: "trailing bytes" });
        }
        Ok(())
    }
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut j = 0;
        while j < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            j += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 over the concatenation of `parts`.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

/// A message that can cross process boundaries.
///
/// Implementors provide the routing metadata the frame header carries
/// (`tag`/`from`/`step`/`seq`) plus payload encode/decode; framing,
/// checksumming, and versioning live in [`frame`](crate::frame) and are
/// shared by every message type.
pub trait Wire: Send + Sized + 'static {
    /// Variant discriminant stamped into the frame header (nonzero).
    fn tag(&self) -> u8;
    /// Originating rank.
    fn src_rank(&self) -> u32;
    /// Step the message belongs to (0 when not step-scoped).
    fn step(&self) -> u32;
    /// Per-(from, to, step) sequence number (0 when unsequenced).
    fn seq(&self) -> u64;
    /// Append the payload bytes — everything the header doesn't carry.
    fn encode_payload(&self, w: &mut ByteWriter<'_>);
    /// Rebuild a message from header metadata plus payload bytes. Must
    /// consume the reader exactly and never panic on hostile input.
    fn decode_payload(
        tag: u8,
        from: u32,
        step: u32,
        seq: u64,
        r: &mut ByteReader<'_>,
    ) -> Result<Self, WireError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn reader_round_trips_writer() {
        let mut buf = Vec::new();
        let mut w = ByteWriter::new(&mut buf);
        w.u8(7);
        w.u16(513);
        w.u32(70_000);
        w.u64(1 << 40);
        w.f64(-0.0);
        w.f64(f64::NAN);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(513));
        assert_eq!(r.u32(), Ok(70_000));
        assert_eq!(r.u64(), Ok(1 << 40));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert!(r.f64().is_ok_and(f64::is_nan));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn strings_and_slices_round_trip_and_reject_hostile_lengths() {
        let mut buf = Vec::new();
        let mut w = ByteWriter::new(&mut buf);
        w.str("héllo");
        w.bytes(&[9, 8]);
        w.u32s(&[1, u32::MAX]);
        w.u64s(&[1 << 40]);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.str().as_deref(), Ok("héllo"));
        assert_eq!(r.bytes(), Ok(vec![9, 8]));
        assert_eq!(r.u32s(), Ok(vec![1, u32::MAX]));
        assert_eq!(r.u64s(), Ok(vec![1 << 40]));
        assert_eq!(r.finish(), Ok(()));
        // A count the payload cannot hold is rejected before allocating.
        let hostile = (1u32 << 30).to_le_bytes();
        assert!(matches!(ByteReader::new(&hostile).u64s(), Err(WireError::Malformed { .. })));
        assert!(matches!(ByteReader::new(&hostile).str(), Err(WireError::Malformed { .. })));
        let bad_utf8 = [1u8, 0, 0, 0, 0xFF];
        assert!(matches!(ByteReader::new(&bad_utf8).str(), Err(WireError::Malformed { .. })));
    }

    #[test]
    fn reader_rejects_short_and_trailing_input() {
        let buf = [1u8, 2, 3];
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u32(), Err(WireError::Truncated { need: 4, have: 3 }));
        assert_eq!(r.u16(), Ok(513));
        assert!(matches!(r.finish(), Err(WireError::Malformed { .. })));
    }
}
