//! Length-prefixed, CRC-checked frames — the unit every TCP byte
//! stream, corruption test, and future remote backend agrees on.
//!
//! Layout (little-endian, [`HEADER_LEN`] = 30 bytes):
//!
//! ```text
//! offset  0    1    2      6      10     14     22     26     30..
//!         ver  tag  from   to     step   seq    len    crc    payload
//!         u8   u8   u32    u32    u32    u64    u32    u32
//! ```
//!
//! The CRC-32 covers the first 26 header bytes plus the payload, so a
//! flipped bit anywhere in a frame is caught. Failure taxonomy on the
//! read side: a checksum or payload-decode failure is **frame-local**
//! (the stream stays framed; the runtime's NACK repair re-requests the
//! lost message), while a version mismatch or an absurd length means
//! the length field itself cannot be trusted and the stream is dead.

use crate::wire::{crc32, ByteReader, ByteWriter, Route, Wire, WireError};
use std::io::{self, Read, Write};

/// Wire-format version stamped into every frame header.
pub const WIRE_VERSION: u8 = 1;
/// Fixed frame header size in bytes.
pub const HEADER_LEN: usize = 30;
/// Bytes of the header covered by the checksum (all but the CRC field).
const CRC_COVER: usize = HEADER_LEN - 4;
/// Sanity ceiling on the declared payload length (64 MiB).
pub const MAX_PAYLOAD: usize = 1 << 26;
/// Capacity of the `BufReader` every framed socket is read through:
/// most frames then arrive whole in one `read`, where a bare socket
/// costs [`read_frame`] three (first byte, rest of the header, payload).
pub const READ_BUF: usize = 64 << 10;

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Wire-format version (must equal [`WIRE_VERSION`]).
    pub version: u8,
    /// Message variant discriminant.
    pub tag: u8,
    /// Originating rank.
    pub from: u32,
    /// Destination rank.
    pub to: u32,
    /// Step the message belongs to.
    pub step: u32,
    /// Per-(from, to, step) sequence number.
    pub seq: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC-32 over the header (sans this field) plus the payload.
    pub crc: u32,
}

/// Append one frame carrying `msg`, addressed to rank `to`, onto `out`.
pub fn encode_frame<M: Wire>(msg: &M, to: u32, out: &mut Vec<u8>) {
    let start = out.len();
    {
        let Route { from, step, seq } = msg.route();
        let mut w = ByteWriter::new(out);
        w.u8(WIRE_VERSION);
        w.u8(msg.tag());
        w.u32(from);
        w.u32(to);
        w.u32(step);
        w.u64(seq);
        w.u32(0); // len, patched below
        w.u32(0); // crc, patched below
        msg.encode_payload(&mut w);
    }
    let len = (out.len() - start - HEADER_LEN) as u32;
    out[start + 22..start + 26].copy_from_slice(&len.to_le_bytes());
    let crc = {
        let (head, payload) = out[start..].split_at(HEADER_LEN);
        crc32(&[&head[..CRC_COVER], payload])
    };
    out[start + 26..start + 30].copy_from_slice(&crc.to_le_bytes());
}

/// Parse a header from at least [`HEADER_LEN`] bytes, validating the
/// version and the length ceiling.
pub fn parse_header(buf: &[u8]) -> Result<FrameHeader, WireError> {
    let mut r = ByteReader::new(buf);
    let version = r.u8()?;
    let tag = r.u8()?;
    let from = r.u32()?;
    let to = r.u32()?;
    let step = r.u32()?;
    let seq = r.u64()?;
    let len = r.u32()?;
    let crc = r.u32()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    if len as usize > MAX_PAYLOAD {
        return Err(WireError::Oversized { len: len as usize });
    }
    Ok(FrameHeader { version, tag, from, to, step, seq, len, crc })
}

/// Decode a checksummed payload into its message, consuming it exactly.
fn decode_payload<M: Wire>(h: &FrameHeader, payload: &[u8]) -> Result<M, WireError> {
    let mut r = ByteReader::new(payload);
    let route = Route { from: h.from, step: h.step, seq: h.seq };
    let msg = M::decode_payload(h.tag, route, &mut r)?;
    r.finish()?;
    Ok(msg)
}

/// Decode one frame from the front of `buf`. Returns the message, its
/// destination rank, and the bytes consumed.
pub fn decode_frame<M: Wire>(buf: &[u8]) -> Result<(M, u32, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated { need: HEADER_LEN, have: buf.len() });
    }
    let h = parse_header(buf)?;
    let total = HEADER_LEN + h.len as usize;
    if buf.len() < total {
        return Err(WireError::Truncated { need: total, have: buf.len() });
    }
    let payload = &buf[HEADER_LEN..total];
    if crc32(&[&buf[..CRC_COVER], payload]) != h.crc {
        return Err(WireError::BadChecksum);
    }
    Ok((decode_payload(&h, payload)?, h.to, total))
}

/// Why reading a frame off a byte stream failed.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the stream cleanly between frames.
    Eof,
    /// I/O failure, including mid-frame disconnects.
    Io(io::Error),
    /// Frame-local corruption; the stream remains framed, the next
    /// frame can still be read, and the runtime's NACK repair recovers
    /// the lost message.
    Corrupt(WireError),
    /// Unrecoverable format violation — the length field cannot be
    /// trusted, so resynchronisation is impossible.
    Fatal(WireError),
}

/// Encode and write one frame; returns the frame's total byte length.
/// `buf` is reusable scratch.
pub fn write_frame<M: Wire>(
    w: &mut impl Write,
    msg: &M,
    to: u32,
    buf: &mut Vec<u8>,
) -> io::Result<usize> {
    buf.clear();
    encode_frame(msg, to, buf);
    w.write_all(buf)?;
    Ok(buf.len())
}

/// Read one frame from a byte stream. `payload` is reusable scratch.
/// Returns the message, its destination rank, and the frame's total
/// byte length. Hand it a socket wrapped in a [`READ_BUF`]-sized
/// `BufReader`.
pub fn read_frame<M: Wire>(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
) -> Result<(M, u32, usize), ReadError> {
    let mut head = [0u8; HEADER_LEN];
    // Read the first byte separately so a clean close between frames is
    // distinguishable from a frame truncated by a dying peer.
    loop {
        let mut first = [0u8; 1];
        match r.read(&mut first) {
            Ok(0) => return Err(ReadError::Eof),
            Ok(_) => {
                head[0] = first[0];
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    r.read_exact(&mut head[1..]).map_err(ReadError::Io)?;
    let h = match parse_header(&head) {
        Ok(h) => h,
        Err(e) => return Err(ReadError::Fatal(e)),
    };
    payload.clear();
    payload.resize(h.len as usize, 0);
    r.read_exact(payload).map_err(ReadError::Io)?;
    let total = HEADER_LEN + h.len as usize;
    if crc32(&[&head[..CRC_COVER], payload.as_slice()]) != h.crc {
        return Err(ReadError::Corrupt(WireError::BadChecksum));
    }
    match decode_payload(&h, payload) {
        Ok(msg) => Ok((msg, h.to, total)),
        Err(e) => Err(ReadError::Corrupt(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Codec;

    /// Minimal test message: an opaque byte blob with routing metadata.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Blob {
        from: u32,
        step: u32,
        seq: u64,
        data: Vec<u8>,
    }

    impl Wire for Blob {
        fn tag(&self) -> u8 {
            1
        }
        fn route(&self) -> Route {
            Route { from: self.from, step: self.step, seq: self.seq }
        }
        fn encode_payload(&self, w: &mut ByteWriter<'_>) {
            self.data.put(w);
        }
        fn decode_payload(tag: u8, h: Route, r: &mut ByteReader<'_>) -> Result<Self, WireError> {
            if tag != 1 {
                return Err(WireError::BadTag { got: tag });
            }
            Ok(Blob { from: h.from, step: h.step, seq: h.seq, data: Codec::get(r)? })
        }
    }

    fn blob() -> Blob {
        Blob { from: 3, step: 17, seq: 0xDEAD_BEEF_CAFE, data: vec![9, 8, 7, 6, 5] }
    }

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        encode_frame(&blob(), 11, &mut buf);
        let (m, to, n) = decode_frame::<Blob>(&buf).unwrap();
        assert_eq!(m, blob());
        assert_eq!(to, 11);
        assert_eq!(n, buf.len());
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let mut clean = Vec::new();
        encode_frame(&blob(), 2, &mut clean);
        for bit in 0..clean.len() * 8 {
            let mut buf = clean.clone();
            buf[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_frame::<Blob>(&buf).is_err(), "bit flip at {bit} went undetected");
        }
    }

    #[test]
    fn truncation_and_bad_version_are_typed() {
        let mut buf = Vec::new();
        encode_frame(&blob(), 2, &mut buf);
        for cut in 0..buf.len() {
            assert!(matches!(decode_frame::<Blob>(&buf[..cut]), Err(WireError::Truncated { .. })));
        }
        buf[0] = WIRE_VERSION + 1;
        assert!(matches!(decode_frame::<Blob>(&buf), Err(WireError::BadVersion { .. })));
    }

    #[test]
    fn stream_reader_skips_corrupt_frames_and_sees_clean_eof() {
        let mut stream = Vec::new();
        encode_frame(&blob(), 2, &mut stream);
        let first_len = stream.len();
        encode_frame(&blob(), 4, &mut stream);
        // Corrupt a payload byte of the first frame only.
        stream[first_len - 1] ^= 0x40;
        let mut cursor = io::Cursor::new(stream);
        let mut scratch = Vec::new();
        assert!(matches!(
            read_frame::<Blob>(&mut cursor, &mut scratch),
            Err(ReadError::Corrupt(WireError::BadChecksum))
        ));
        let (m, to, _) = read_frame::<Blob>(&mut cursor, &mut scratch).unwrap();
        assert_eq!((m, to), (blob(), 4));
        assert!(matches!(read_frame::<Blob>(&mut cursor, &mut scratch), Err(ReadError::Eof)));
    }
}
