//! Compact access-pattern descriptors: the wire unit of server-side list
//! I/O.
//!
//! "Noncontiguous I/O through PVFS" shows that shipping one descriptor of
//! a strided access and letting the server walk its own files beats
//! enumerating every piece by orders of magnitude. DPFS's request
//! combination (paper §4.2) already collapses *messages*; an
//! [`AccessPattern`] additionally collapses the *range list inside* the
//! message: a dense column access that used to cost 16 bytes per brick
//! run on the wire becomes one 25-byte `vector{start, count, blocklen,
//! stride}` segment, no matter how many rows it touches.
//!
//! A pattern is an ordered list of segments over subfile byte space:
//!
//! - `Run{offset, len}` — one contiguous extent (also the indexed
//!   fallback: any irregular access is a sequence of runs);
//! - `Vector{start, count, blocklen, stride}` — `count` blocks of
//!   `blocklen` bytes whose starts are `stride` apart, the MPI
//!   `MPI_Type_vector` shape.
//!
//! Expansion order is segment order, blocks in ascending offset; the
//! coalesced payload of a list request is the concatenation of the
//! expanded ranges in exactly that order. Patterns are validated on
//! decode — monotone non-overlapping, bounded range count, bounded total
//! bytes — so a hostile descriptor can neither overlap-amplify a write
//! nor blow up server memory.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::frame::{within_one_frame, FrameError};

/// Hard cap on the number of ranges one pattern may expand to. Keeps a
/// 25-byte hostile descriptor from demanding millions of server seeks.
pub const MAX_PATTERN_RANGES: usize = 1 << 20;

/// One segment of an [`AccessPattern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternSeg {
    /// A single contiguous extent.
    Run {
        /// Byte offset of the extent.
        offset: u64,
        /// Extent length in bytes (non-zero).
        len: u64,
    },
    /// `count` equally-spaced, equal-length blocks (a strided column).
    Vector {
        /// Offset of the first block.
        start: u64,
        /// Number of blocks (≥ 2 — a single block is a `Run`).
        count: u32,
        /// Bytes per block (non-zero).
        blocklen: u32,
        /// Distance between consecutive block starts (> `blocklen`,
        /// or the blocks would coalesce into one run).
        stride: u64,
    },
}

impl PatternSeg {
    /// Number of `(offset, len)` ranges this segment expands to.
    fn num_ranges(&self) -> usize {
        match self {
            PatternSeg::Run { .. } => 1,
            PatternSeg::Vector { count, .. } => *count as usize,
        }
    }

    /// Total bytes this segment covers.
    fn total_bytes(&self) -> u64 {
        match self {
            PatternSeg::Run { len, .. } => *len,
            PatternSeg::Vector {
                count, blocklen, ..
            } => *count as u64 * *blocklen as u64,
        }
    }

    /// First byte offset touched.
    fn first_offset(&self) -> u64 {
        match self {
            PatternSeg::Run { offset, .. } => *offset,
            PatternSeg::Vector { start, .. } => *start,
        }
    }

    /// One past the last byte offset touched. `None` on u64 overflow.
    fn end_offset(&self) -> Option<u64> {
        match self {
            PatternSeg::Run { offset, len } => offset.checked_add(*len),
            PatternSeg::Vector {
                start,
                count,
                blocklen,
                stride,
            } => (*count as u64 - 1)
                .checked_mul(*stride)
                .and_then(|span| start.checked_add(span))
                .and_then(|last| last.checked_add(*blocklen as u64)),
        }
    }

    /// Encoded size in bytes (tag + fields).
    fn encoded_len(&self) -> usize {
        match self {
            PatternSeg::Run { .. } => 1 + 16,
            PatternSeg::Vector { .. } => 1 + 24,
        }
    }

    /// Structural validity: non-zero lengths, non-overlapping blocks,
    /// no offset overflow.
    fn valid(&self) -> bool {
        let ok = match self {
            PatternSeg::Run { len, .. } => *len > 0,
            PatternSeg::Vector {
                count,
                blocklen,
                stride,
                ..
            } => *count >= 2 && *blocklen > 0 && *stride > *blocklen as u64,
        };
        ok && self.end_offset().is_some()
    }
}

/// A compact, validated description of one server's byte access: the
/// wire body of `Request::ReadList` / `Request::WriteList`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessPattern {
    segs: Vec<PatternSeg>,
}

impl AccessPattern {
    /// Build a pattern from validated segments. Returns `None` if any
    /// segment is malformed or the sequence is not monotone
    /// non-overlapping in offset order.
    pub fn new(segs: Vec<PatternSeg>) -> Option<AccessPattern> {
        let p = AccessPattern { segs };
        if p.check().is_ok() {
            Some(p)
        } else {
            None
        }
    }

    /// Compress sorted, non-overlapping `(offset, len)` ranges into the
    /// smallest descriptor: maximal arithmetic progressions of
    /// equal-length ranges become `Vector` segments, everything else
    /// stays a `Run`. The expansion of the result reproduces `ranges`
    /// exactly.
    ///
    /// Panics in debug builds if `ranges` is unsorted or overlapping —
    /// planners always emit subfile ranges sorted and disjoint.
    pub fn from_runs(ranges: &[(u64, u64)]) -> AccessPattern {
        let mut segs = Vec::new();
        let mut i = 0usize;
        while i < ranges.len() {
            let (start, len) = ranges[i];
            debug_assert!(len > 0, "zero-length range in pattern input");
            if i > 0 {
                let (po, pl) = ranges[i - 1];
                debug_assert!(po + pl <= start, "unsorted/overlapping pattern input");
            }
            // Longest arithmetic progression of equal-length ranges
            // starting at i. Worth a Vector segment from 2 blocks up
            // (25 bytes vs 34 for two runs).
            let mut count = 1usize;
            if len <= u32::MAX as u64 && i + 1 < ranges.len() && ranges[i + 1].1 == len {
                let stride = ranges[i + 1].0 - start;
                if stride > len {
                    count = 2;
                    while i + count < ranges.len() {
                        let (o, l) = ranges[i + count];
                        if l == len
                            && o == start + count as u64 * stride
                            && count < u32::MAX as usize
                        {
                            count += 1;
                        } else {
                            break;
                        }
                    }
                    segs.push(PatternSeg::Vector {
                        start,
                        count: count as u32,
                        blocklen: len as u32,
                        stride,
                    });
                }
            }
            if count == 1 {
                segs.push(PatternSeg::Run { offset: start, len });
            }
            i += count;
        }
        AccessPattern { segs }
    }

    /// The segments.
    pub fn segs(&self) -> &[PatternSeg] {
        &self.segs
    }

    /// Expand to the enumerated `(offset, len)` range list, in pattern
    /// order.
    pub fn expand(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.num_ranges());
        for seg in &self.segs {
            match *seg {
                PatternSeg::Run { offset, len } => out.push((offset, len)),
                PatternSeg::Vector {
                    start,
                    count,
                    blocklen,
                    stride,
                } => {
                    for b in 0..count as u64 {
                        out.push((start + b * stride, blocklen as u64));
                    }
                }
            }
        }
        out
    }

    /// Number of ranges the pattern expands to.
    pub fn num_ranges(&self) -> usize {
        self.segs.iter().map(|s| s.num_ranges()).sum()
    }

    /// Total bytes covered (= coalesced payload size).
    pub fn total_bytes(&self) -> u64 {
        self.segs.iter().map(|s| s.total_bytes()).sum()
    }

    /// Exact encoded size in bytes, for the client's cost model: use the
    /// descriptor only when it beats the enumerated list it replaces.
    pub fn encoded_len(&self) -> usize {
        4 + self.segs.iter().map(|s| s.encoded_len()).sum::<usize>()
    }

    /// Validation shared by `new` and `decode_from`: every segment
    /// well-formed, offsets monotone non-overlapping across segments,
    /// bounded range count, total bytes within one frame.
    fn check(&self) -> Result<(), FrameError> {
        let mut prev_end = 0u64;
        let mut ranges = 0usize;
        let mut total = 0u64;
        for (i, seg) in self.segs.iter().enumerate() {
            if !seg.valid() {
                return Err(FrameError::BadMessage(format!(
                    "malformed pattern segment {i}"
                )));
            }
            if i > 0 && seg.first_offset() < prev_end {
                return Err(FrameError::BadMessage(format!(
                    "pattern segment {i} overlaps its predecessor"
                )));
            }
            prev_end = seg.end_offset().expect("valid() checked overflow");
            ranges += seg.num_ranges();
            if ranges > MAX_PATTERN_RANGES {
                return Err(FrameError::BadMessage(format!(
                    "pattern expands past {MAX_PATTERN_RANGES} ranges"
                )));
            }
            total = within_one_frame(total, seg.total_bytes()).ok_or_else(|| {
                FrameError::BadMessage("pattern covers more than one frame".into())
            })?;
        }
        Ok(())
    }

    /// Append the wire encoding: `[nsegs u32]` then per segment a tag
    /// byte (1 = run, 2 = vector) and its fields, all little-endian.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.segs.len() as u32);
        for seg in &self.segs {
            match *seg {
                PatternSeg::Run { offset, len } => {
                    buf.put_u8(1);
                    buf.put_u64_le(offset);
                    buf.put_u64_le(len);
                }
                PatternSeg::Vector {
                    start,
                    count,
                    blocklen,
                    stride,
                } => {
                    buf.put_u8(2);
                    buf.put_u64_le(start);
                    buf.put_u32_le(count);
                    buf.put_u32_le(blocklen);
                    buf.put_u64_le(stride);
                }
            }
        }
    }

    /// Decode and validate a pattern from the front of `buf`. Hostile
    /// input — truncated, overlapping, amplifying — comes back as
    /// [`FrameError::BadMessage`], never a panic or an oversized
    /// allocation.
    pub fn decode_from(buf: &mut Bytes) -> Result<AccessPattern, FrameError> {
        if buf.remaining() < 4 {
            return Err(FrameError::BadMessage("short pattern".into()));
        }
        let nsegs = buf.get_u32_le() as usize;
        // Each segment costs at least 17 encoded bytes; reject counts the
        // remaining buffer cannot possibly hold before allocating.
        if nsegs > buf.remaining() / 17 + 1 {
            return Err(FrameError::BadMessage(format!(
                "pattern claims {nsegs} segments in {} bytes",
                buf.remaining()
            )));
        }
        let mut segs = Vec::with_capacity(nsegs);
        for _ in 0..nsegs {
            if buf.remaining() < 1 {
                return Err(FrameError::BadMessage("short pattern segment".into()));
            }
            let tag = buf.get_u8();
            let seg = match tag {
                1 => {
                    if buf.remaining() < 16 {
                        return Err(FrameError::BadMessage("short run segment".into()));
                    }
                    PatternSeg::Run {
                        offset: buf.get_u64_le(),
                        len: buf.get_u64_le(),
                    }
                }
                2 => {
                    if buf.remaining() < 24 {
                        return Err(FrameError::BadMessage("short vector segment".into()));
                    }
                    PatternSeg::Vector {
                        start: buf.get_u64_le(),
                        count: buf.get_u32_le(),
                        blocklen: buf.get_u32_le(),
                        stride: buf.get_u64_le(),
                    }
                }
                other => {
                    return Err(FrameError::BadMessage(format!(
                        "bad pattern segment tag {other}"
                    )))
                }
            };
            segs.push(seg);
        }
        let p = AccessPattern { segs };
        p.check()?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(p: &AccessPattern) -> AccessPattern {
        let mut buf = BytesMut::new();
        p.encode_into(&mut buf);
        let mut bytes = buf.freeze();
        let back = AccessPattern::decode_from(&mut bytes).unwrap();
        assert!(!bytes.has_remaining());
        back
    }

    #[test]
    fn from_runs_compresses_strided_columns() {
        // 64 equally spaced 16-byte blocks: one Vector segment.
        let ranges: Vec<(u64, u64)> = (0..64).map(|i| (i * 1024, 16)).collect();
        let p = AccessPattern::from_runs(&ranges);
        assert_eq!(
            p.segs(),
            &[PatternSeg::Vector {
                start: 0,
                count: 64,
                blocklen: 16,
                stride: 1024
            }]
        );
        assert_eq!(p.expand(), ranges);
        assert_eq!(p.num_ranges(), 64);
        assert_eq!(p.total_bytes(), 64 * 16);
        // 64 ranges cost 4 + 16*64 = 1028 bytes enumerated; the pattern
        // costs 4 + 25.
        assert_eq!(p.encoded_len(), 29);
    }

    #[test]
    fn from_runs_mixed_shapes() {
        // run, then a progression, then an odd tail run
        let mut ranges = vec![(0u64, 100u64)];
        ranges.extend((0..8).map(|i| (200 + i * 50, 10)));
        ranges.push((1000, 7));
        let p = AccessPattern::from_runs(&ranges);
        assert_eq!(p.segs().len(), 3);
        assert_eq!(p.expand(), ranges);
    }

    #[test]
    fn from_runs_irregular_stays_runs() {
        let ranges = vec![(0u64, 3u64), (10, 5), (100, 1), (103, 2)];
        let p = AccessPattern::from_runs(&ranges);
        assert!(p.segs().iter().all(|s| matches!(s, PatternSeg::Run { .. })));
        assert_eq!(p.expand(), ranges);
        // Irregular access encodes *larger* than the enumerated list
        // would: 4 + 17*4 = 72 > 4 + 16*4 = 68. The cost model must
        // fall back to the legacy shape here.
        assert!(p.encoded_len() > 4 + 16 * ranges.len());
    }

    #[test]
    fn adjacent_equal_ranges_do_not_vectorize() {
        // stride == len means the ranges are contiguous; they must stay
        // runs (the planner coalesces them before we ever see this, but
        // the compressor must not produce an invalid stride <= blocklen).
        let ranges = vec![(0u64, 8u64), (8, 8), (16, 8)];
        let p = AccessPattern::from_runs(&ranges);
        assert!(p.segs().iter().all(|s| matches!(s, PatternSeg::Run { .. })));
        assert_eq!(p.expand(), ranges);
    }

    #[test]
    fn codec_round_trips() {
        for p in [
            AccessPattern::from_runs(&[(5, 10)]),
            AccessPattern::from_runs(&(0..100).map(|i| (i * 64, 32)).collect::<Vec<_>>()),
            AccessPattern::from_runs(&[(0, 3), (10, 5), (100, 1)]),
            AccessPattern::default(),
        ] {
            assert_eq!(round_trip(&p), p);
        }
    }

    #[test]
    fn decode_rejects_truncation_at_every_cut() {
        let p = AccessPattern::from_runs(&[(0, 4), (100, 4), (200, 4), (999, 1)]);
        let mut buf = BytesMut::new();
        p.encode_into(&mut buf);
        let enc = buf.freeze();
        for cut in 0..enc.len() {
            let mut short = enc.slice(..cut);
            assert!(
                AccessPattern::decode_from(&mut short).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn decode_rejects_overlap_and_zero_len() {
        // overlapping runs
        let bad = AccessPattern {
            segs: vec![
                PatternSeg::Run { offset: 0, len: 10 },
                PatternSeg::Run { offset: 5, len: 10 },
            ],
        };
        let mut buf = BytesMut::new();
        bad.encode_into(&mut buf);
        assert!(AccessPattern::decode_from(&mut buf.freeze()).is_err());
        // zero-length run
        let bad = AccessPattern {
            segs: vec![PatternSeg::Run { offset: 0, len: 0 }],
        };
        let mut buf = BytesMut::new();
        bad.encode_into(&mut buf);
        assert!(AccessPattern::decode_from(&mut buf.freeze()).is_err());
        // vector whose stride would interleave blocks
        let bad = AccessPattern {
            segs: vec![PatternSeg::Vector {
                start: 0,
                count: 4,
                blocklen: 16,
                stride: 8,
            }],
        };
        let mut buf = BytesMut::new();
        bad.encode_into(&mut buf);
        assert!(AccessPattern::decode_from(&mut buf.freeze()).is_err());
    }

    #[test]
    fn decode_rejects_amplification() {
        // A tiny descriptor demanding millions of ranges...
        let bomb = AccessPattern {
            segs: vec![PatternSeg::Vector {
                start: 0,
                count: u32::MAX,
                blocklen: 1,
                stride: 2,
            }],
        };
        let mut buf = BytesMut::new();
        bomb.encode_into(&mut buf);
        assert!(AccessPattern::decode_from(&mut buf.freeze()).is_err());
        // ...or more bytes than a frame can carry.
        let fat = AccessPattern {
            segs: vec![PatternSeg::Vector {
                start: 0,
                count: 1 << 16,
                blocklen: 1 << 16,
                stride: 1 << 17,
            }],
        };
        let mut buf = BytesMut::new();
        fat.encode_into(&mut buf);
        assert!(AccessPattern::decode_from(&mut buf.freeze()).is_err());
        // ...or a segment count the buffer cannot hold.
        let mut hostile = BytesMut::new();
        hostile.put_u32_le(u32::MAX);
        assert!(AccessPattern::decode_from(&mut hostile.freeze()).is_err());
    }

    #[test]
    fn decode_rejects_offset_overflow() {
        let bad = AccessPattern {
            segs: vec![PatternSeg::Run {
                offset: u64::MAX - 1,
                len: 10,
            }],
        };
        let mut buf = BytesMut::new();
        bad.encode_into(&mut buf);
        assert!(AccessPattern::decode_from(&mut buf.freeze()).is_err());
    }

    #[test]
    fn new_validates_like_decode() {
        assert!(AccessPattern::new(vec![PatternSeg::Run { offset: 0, len: 1 }]).is_some());
        assert!(AccessPattern::new(vec![
            PatternSeg::Run { offset: 5, len: 10 },
            PatternSeg::Run { offset: 0, len: 1 },
        ])
        .is_none());
    }
}
