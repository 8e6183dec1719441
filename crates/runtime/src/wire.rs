//! [`Wire`] implementation for the executor's [`Msg`] — the payload
//! layouts of wire format version 1.
//!
//! The frame header ([`cip_transport::frame`]) already carries `tag`,
//! `from`, `step`, and `seq`, so payloads hold only what is left:
//!
//! | variant    | tag | payload |
//! |------------|-----|---------|
//! | `Halo`     | 1   | `u32` count, then per value `u32` node + 3×`f64` position |
//! | `Element`  | 2   | `u32` id, 6×`f64` bbox (min then max), `u16` body |
//! | `Done`     | 3   | `u64` sent |
//! | `Resend`   | 4   | `u32` count, then count×`u64` seqs |
//! | `Complete` | 5   | empty |
//! | `Migrate`  | 6   | `u32` count, then count×`u32` node ids |
//!
//! All integers little-endian; `f64` as IEEE-754 bit patterns, so every
//! position round-trips bit-exactly (signed zeros and NaNs included) and
//! the TCP backend stays bit-identical to the in-process oracle. Decode
//! validates counts against the bytes actually present *before*
//! allocating, so a corrupt length cannot balloon memory.

use crate::exec::Msg;
use cip_geom::{Aabb, Point};
use cip_transport::{ByteReader, ByteWriter, Wire, WireError};

/// Frame tag of [`Msg::Halo`].
pub const TAG_HALO: u8 = 1;
/// Frame tag of [`Msg::Element`].
pub const TAG_ELEMENT: u8 = 2;
/// Frame tag of [`Msg::Done`].
pub const TAG_DONE: u8 = 3;
/// Frame tag of [`Msg::Resend`].
pub const TAG_RESEND: u8 = 4;
/// Frame tag of [`Msg::Complete`].
pub const TAG_COMPLETE: u8 = 5;
/// Frame tag of [`Msg::Migrate`].
pub const TAG_MIGRATE: u8 = 6;

/// Bytes of one halo value: node id + 3 coordinates.
const HALO_VALUE_LEN: usize = 4 + 3 * 8;

impl Wire for Msg {
    fn tag(&self) -> u8 {
        match self {
            Msg::Halo { .. } => TAG_HALO,
            Msg::Element { .. } => TAG_ELEMENT,
            Msg::Done { .. } => TAG_DONE,
            Msg::Resend { .. } => TAG_RESEND,
            Msg::Complete { .. } => TAG_COMPLETE,
            Msg::Migrate { .. } => TAG_MIGRATE,
        }
    }

    fn src_rank(&self) -> u32 {
        match self {
            Msg::Halo { from, .. }
            | Msg::Element { from, .. }
            | Msg::Done { from, .. }
            | Msg::Resend { from, .. }
            | Msg::Complete { from }
            | Msg::Migrate { from, .. } => *from,
        }
    }

    fn step(&self) -> u32 {
        match self {
            Msg::Halo { step, .. }
            | Msg::Element { step, .. }
            | Msg::Done { step, .. }
            | Msg::Resend { step, .. }
            | Msg::Migrate { step, .. } => *step,
            Msg::Complete { .. } => 0,
        }
    }

    fn seq(&self) -> u64 {
        match self {
            Msg::Halo { seq, .. } | Msg::Element { seq, .. } => *seq,
            Msg::Done { .. } | Msg::Resend { .. } | Msg::Complete { .. } | Msg::Migrate { .. } => 0,
        }
    }

    fn encode_payload(&self, w: &mut ByteWriter<'_>) {
        match self {
            Msg::Halo { values, .. } => {
                w.u32(values.len() as u32);
                for (node, pos) in values {
                    w.u32(*node);
                    for d in 0..3 {
                        w.f64(pos.coords[d]);
                    }
                }
            }
            Msg::Element { id, bbox, body, .. } => {
                w.u32(*id);
                for d in 0..3 {
                    w.f64(bbox.min.coords[d]);
                }
                for d in 0..3 {
                    w.f64(bbox.max.coords[d]);
                }
                w.u16(*body);
            }
            Msg::Done { sent, .. } => w.u64(*sent),
            Msg::Resend { seqs, .. } => w.u64s(seqs),
            Msg::Complete { .. } => {}
            Msg::Migrate { nodes, .. } => w.u32s(nodes),
        }
    }

    fn decode_payload(
        tag: u8,
        from: u32,
        step: u32,
        seq: u64,
        r: &mut ByteReader<'_>,
    ) -> Result<Self, WireError> {
        match tag {
            TAG_HALO => {
                let count = r.u32()? as usize;
                if count * HALO_VALUE_LEN > r.remaining() {
                    return Err(WireError::Malformed { what: "halo count exceeds payload" });
                }
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    let node = r.u32()?;
                    let mut coords = [0.0f64; 3];
                    for c in &mut coords {
                        *c = r.f64()?;
                    }
                    values.push((node, Point { coords }));
                }
                Ok(Msg::Halo { from, step, seq, values })
            }
            TAG_ELEMENT => {
                let id = r.u32()?;
                let mut min = [0.0f64; 3];
                for c in &mut min {
                    *c = r.f64()?;
                }
                let mut max = [0.0f64; 3];
                for c in &mut max {
                    *c = r.f64()?;
                }
                let body = r.u16()?;
                // `Aabb::new` debug-asserts min <= max; a corrupt frame
                // must decode to a value, not a panic, so build it raw.
                let bbox = Aabb { min: Point { coords: min }, max: Point { coords: max } };
                Ok(Msg::Element { from, step, seq, id, bbox, body })
            }
            TAG_DONE => Ok(Msg::Done { from, step, sent: r.u64()? }),
            TAG_RESEND => Ok(Msg::Resend { from, step, seqs: r.u64s()? }),
            TAG_COMPLETE => Ok(Msg::Complete { from }),
            TAG_MIGRATE => Ok(Msg::Migrate { from, step, nodes: r.u32s()? }),
            got => Err(WireError::BadTag { got }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_transport::frame::{decode_frame, encode_frame};

    fn round_trip(msg: &Msg) {
        let mut buf = Vec::new();
        encode_frame(msg, 3, &mut buf);
        let (back, to, consumed) = decode_frame::<Msg>(&buf).expect("frame decodes");
        assert_eq!(&back, msg);
        assert_eq!(to, 3);
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(&Msg::Halo {
            from: 2,
            step: 5,
            seq: 9,
            values: vec![
                (7, Point::new([1.5, -0.0, f64::MIN_POSITIVE])),
                (8, Point::new([-3.25, 1e300, 0.1])),
            ],
        });
        round_trip(&Msg::Halo { from: 0, step: 0, seq: 0, values: Vec::new() });
        round_trip(&Msg::Element {
            from: 1,
            step: 2,
            seq: 3,
            id: 40,
            bbox: Aabb::new(Point::new([0.0, 1.0, 2.0]), Point::new([1.0, 2.0, 3.0])),
            body: 6,
        });
        round_trip(&Msg::Done { from: 3, step: 7, sent: u64::MAX });
        round_trip(&Msg::Resend { from: 1, step: 4, seqs: vec![0, 5, 1 << 40] });
        round_trip(&Msg::Resend { from: 1, step: 4, seqs: Vec::new() });
        round_trip(&Msg::Complete { from: 9 });
        round_trip(&Msg::Migrate { from: 2, step: 0, nodes: vec![1, 9, u32::MAX] });
        round_trip(&Msg::Migrate { from: 0, step: 3, nodes: Vec::new() });
    }

    #[test]
    fn hostile_counts_are_rejected_without_allocating() {
        // A Halo frame claiming 2^32 - 1 values in an 8-byte payload.
        let msg = Msg::Halo { from: 0, step: 0, seq: 0, values: Vec::new() };
        let mut buf = Vec::new();
        encode_frame(&msg, 1, &mut buf);
        // Patch the count field (first 4 payload bytes) and fix the CRC
        // by re-deriving it the way the encoder does.
        let hdr = cip_transport::HEADER_LEN;
        buf[hdr..hdr + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = cip_transport::wire::crc32(&[&buf[..26], &buf[cip_transport::HEADER_LEN..]]);
        buf[26..30].copy_from_slice(&crc.to_le_bytes());
        let err = decode_frame::<Msg>(&buf).expect_err("hostile count rejected");
        assert!(matches!(err, WireError::Malformed { .. }), "{err:?}");
    }

    #[test]
    fn nan_positions_survive_bit_exactly() {
        let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let msg = Msg::Halo {
            from: 0,
            step: 1,
            seq: 2,
            values: vec![(3, Point::new([weird, 0.0, 0.0]))],
        };
        let mut buf = Vec::new();
        encode_frame(&msg, 1, &mut buf);
        let (back, _, _) = decode_frame::<Msg>(&buf).expect("frame decodes");
        match back {
            Msg::Halo { values, .. } => {
                assert_eq!(values[0].1.coords[0].to_bits(), weird.to_bits());
            }
            other => panic!("expected Halo, got {other:?}"),
        }
    }
}
