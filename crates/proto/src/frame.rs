//! Length-prefixed, CRC-protected framing over any `Read`/`Write` stream.
//!
//! Two headers are on the wire; the magic says which:
//!
//! - **v2** (`"DPF2"`): `[magic][correlation id u64][len u32][crc u32]
//!   [payload]`. The correlation ID ties a response frame back to the
//!   request it answers, so many requests can be in flight on one
//!   connection and complete out of order.
//! - **v3** (`"DPF3"`): `[magic][correlation id u64][trace id u64][len u32]
//!   [crc u32][payload]` — v2 plus a trace ID, so server-side events join
//!   the client operation's trace. Clients emit v3 for traced requests
//!   only; untraced traffic stays v2, and servers always answer in v2 (the
//!   client already knows the trace ID it sent).
//!
//! Anything else — the uncorrelated `"DPFS"` v1 header included — is
//! [`FrameError::BadMagic`], and the connection that sent it is corrupt.

use std::fmt;
use std::io::{Read, Write};

use bytes::{Buf, Bytes};

/// `"DPF2"` — first four bytes of every v2 (correlated) frame.
pub const MAGIC_V2: [u8; 4] = *b"DPF2";

/// `"DPF3"` — first four bytes of every v3 (correlated + traced) frame.
pub const MAGIC_V3: [u8; 4] = *b"DPF3";

/// Upper bound on payload size (64 MiB). Protects a peer from allocating
/// unbounded memory on a corrupt or hostile length field.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// `total + more` payload bytes, if a single frame can still carry them:
/// the bound on what a read request — enumerated or pattern — may ask for,
/// since its reply is one frame and the server allocates it up front.
pub(crate) fn within_one_frame(total: u64, more: u64) -> Option<u64> {
    total
        .checked_add(more)
        .filter(|&t| t <= MAX_FRAME_LEN as u64)
}

/// Framing-layer errors.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying stream I/O failed.
    Io(std::io::Error),
    /// First four bytes were not a frame magic.
    BadMagic([u8; 4]),
    /// Declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// Payload CRC mismatch (corruption in flight).
    BadChecksum { expected: u32, actual: u32 },
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// Payload did not decode to a valid message.
    BadMessage(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            FrameError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
            FrameError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: expected {expected:#x}, got {actual:#x}"
                )
            }
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::BadMessage(m) => write!(f, "bad message: {m}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The CRC-32 (IEEE) every frame carries, one-shot and incremental. One
/// implementation serves the wire, the WAL and the snapshot, so it lives
/// in the bottom crate; the incremental form lets the vectored writers
/// checksum a payload spread over several slices without gluing them.
pub use dpfs_meta::codec::{crc32, crc32_update};

/// Which header a frame carries, with the IDs that header holds.
#[derive(Clone, Copy)]
enum Version {
    V2 { corr_id: u64 },
    V3 { corr_id: u64, trace_id: u64 },
}

/// Longest header on the wire (v3).
const MAX_HEADER_LEN: usize = 28;

/// Build the header that frames the concatenation of `parts`: magic, IDs,
/// total length and one CRC streamed across the parts — the single place
/// the header layouts are written down. The payload is read once, here.
fn header<'a>(
    version: Version,
    parts: impl IntoIterator<Item = &'a [u8]>,
) -> Result<Vec<u8>, FrameError> {
    let (len, crc) = parts.into_iter().fold((0usize, u32::MAX), |(len, crc), p| {
        (len + p.len(), crc32_update(crc, p))
    });
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut h = Vec::with_capacity(MAX_HEADER_LEN);
    match version {
        Version::V2 { corr_id } => {
            h.extend_from_slice(&MAGIC_V2);
            h.extend_from_slice(&corr_id.to_le_bytes());
        }
        Version::V3 { corr_id, trace_id } => {
            h.extend_from_slice(&MAGIC_V3);
            h.extend_from_slice(&corr_id.to_le_bytes());
            h.extend_from_slice(&trace_id.to_le_bytes());
        }
    }
    h.extend_from_slice(&(len as u32).to_le_bytes());
    h.extend_from_slice(&(!crc).to_le_bytes());
    Ok(h)
}

/// The v2 header of a response frame echoing `corr_id`, whose payload is
/// the concatenation of `parts`. For writers that queue `[header,
/// parts...]` instead of writing through a `Write` — the server's outbound
/// queue — so a reply is checksummed once, outside any lock, and its
/// payload is never glued into a frame buffer.
pub fn response_header<'a>(
    corr_id: u64,
    parts: impl IntoIterator<Item = &'a [u8]>,
) -> Result<Vec<u8>, FrameError> {
    header(Version::V2 { corr_id }, parts)
}

/// Write every byte of `bufs`, preferring one `write_vectored` syscall
/// per pass so header and payload slices leave in a single gathered
/// write. Falls back to resubmitting the remainder on a short write.
fn write_all_vectored<W: Write>(w: &mut W, bufs: &[&[u8]]) -> std::io::Result<()> {
    let mut idx = 0usize; // first buffer not fully written
    let mut off = 0usize; // bytes of bufs[idx] already written
    while idx < bufs.len() {
        if off >= bufs[idx].len() {
            idx += 1;
            off = 0;
            continue;
        }
        let slices: Vec<std::io::IoSlice> = std::iter::once(&bufs[idx][off..])
            .chain(bufs[idx + 1..].iter().copied())
            .filter(|s| !s.is_empty())
            .map(std::io::IoSlice::new)
            .collect();
        let mut n = w.write_vectored(&slices)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "failed to write whole frame",
            ));
        }
        while n > 0 && idx < bufs.len() {
            let rem = bufs[idx].len() - off;
            if n >= rem {
                n -= rem;
                idx += 1;
                off = 0;
            } else {
                off += n;
                n = 0;
            }
        }
    }
    Ok(())
}

/// Write one frame whose payload is the concatenation of `parts`: header
/// and parts leave through one gathered `write_vectored`, so a message
/// split into (head, payload) parts hits the wire without ever being
/// copied into a contiguous buffer.
fn write_parts<W: Write>(w: &mut W, version: Version, parts: &[&[u8]]) -> Result<(), FrameError> {
    let header = header(version, parts.iter().copied())?;
    let mut bufs: Vec<&[u8]> = Vec::with_capacity(parts.len() + 1);
    bufs.push(&header);
    bufs.extend_from_slice(parts);
    write_all_vectored(w, &bufs)?;
    w.flush()?;
    Ok(())
}

/// Write one v2 frame carrying `corr_id` and `payload`.
pub fn write_frame_v2<W: Write>(w: &mut W, corr_id: u64, payload: &[u8]) -> Result<(), FrameError> {
    write_frame_v2_parts(w, corr_id, &[payload])
}

/// Write one v2 frame whose payload is the concatenation of `parts` —
/// the scatter-gather send path.
pub fn write_frame_v2_parts<W: Write>(
    w: &mut W,
    corr_id: u64,
    parts: &[&[u8]],
) -> Result<(), FrameError> {
    write_parts(w, Version::V2 { corr_id }, parts)
}

/// Write one v3 frame carrying `corr_id`, `trace_id`, and `payload`.
pub fn write_frame_v3<W: Write>(
    w: &mut W,
    corr_id: u64,
    trace_id: u64,
    payload: &[u8],
) -> Result<(), FrameError> {
    write_frame_v3_parts(w, corr_id, trace_id, &[payload])
}

/// [`write_frame_v2_parts`] with a trace ID: the traced scatter-gather
/// send path.
pub fn write_frame_v3_parts<W: Write>(
    w: &mut W,
    corr_id: u64,
    trace_id: u64,
    parts: &[&[u8]],
) -> Result<(), FrameError> {
    write_parts(w, Version::V3 { corr_id, trace_id }, parts)
}

/// One decoded frame of either version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Correlation ID: a response echoes its request's.
    pub corr_id: u64,
    /// Trace ID (v3); 0 means untraced (v2, or a v3 frame that chose not
    /// to trace).
    pub trace_id: u64,
    /// The frame payload.
    pub payload: Bytes,
}

/// Header length announced by a frame's magic.
fn header_len(magic: [u8; 4]) -> Result<usize, FrameError> {
    match magic {
        MAGIC_V2 => Ok(20),
        MAGIC_V3 => Ok(28),
        other => Err(FrameError::BadMagic(other)),
    }
}

/// What a frame header says about its frame.
struct Header {
    corr_id: u64,
    trace_id: u64,
    /// Payload length, already checked against [`MAX_FRAME_LEN`].
    len: usize,
    crc: u32,
}

impl Header {
    /// Parse a complete header: `h.len()` is what [`header_len`] gave for
    /// its magic.
    fn parse(h: &[u8]) -> Result<Header, FrameError> {
        let u64_at = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().unwrap());
        let u32_at = |at: usize| u32::from_le_bytes(h[at..at + 4].try_into().unwrap());
        // The `[len u32][crc u32]` tail sits at the end of every header.
        let len = u32_at(h.len() - 8) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized(len));
        }
        Ok(Header {
            corr_id: u64_at(4),
            trace_id: if h.len() > 20 { u64_at(12) } else { 0 },
            len,
            crc: u32_at(h.len() - 4),
        })
    }

    /// Checksum `payload` against the header and wrap it up as a frame.
    fn frame(&self, payload: Bytes) -> Result<Frame, FrameError> {
        let actual = crc32(&payload);
        if actual != self.crc {
            return Err(FrameError::BadChecksum {
                expected: self.crc,
                actual,
            });
        }
        Ok(Frame {
            corr_id: self.corr_id,
            trace_id: self.trace_id,
            payload,
        })
    }
}

/// The header at the front of `buf` and its length, or `None` while the
/// header is still incomplete.
fn peek_header(buf: &[u8]) -> Result<Option<(Header, usize)>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let n = header_len(buf[..4].try_into().unwrap())?;
    if buf.len() < n {
        return Ok(None);
    }
    Ok(Some((Header::parse(&buf[..n])?, n)))
}

/// [`peek_header`], but `None` until the whole frame it announces is in
/// `buf` too.
fn peek_frame(buf: &[u8]) -> Result<Option<(Header, usize)>, FrameError> {
    Ok(peek_header(buf)?.filter(|(h, n)| buf.len() >= n + h.len))
}

/// Total length (header + payload) of the frame at the front of `buf`,
/// as soon as its header is complete — before the payload has arrived,
/// so a reader can make room for exactly the bytes still to come.
/// `Ok(None)` while the header itself is incomplete; `Err(_)` when the
/// prefix can never become a valid frame (bad magic, oversized length).
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>, FrameError> {
    Ok(peek_header(buf)?.map(|(h, n)| n + h.len))
}

/// Try to decode one frame (either version) from the front of `buf` without
/// consuming anything on failure.
///
/// - `Ok(Some((frame, consumed)))` — a complete frame; the caller should
///   drop the first `consumed` bytes.
/// - `Ok(None)` — the buffer holds only a prefix of a frame; read more.
/// - `Err(_)` — the prefix can never become a valid frame (bad magic,
///   oversized length, checksum mismatch); the connection is corrupt.
///
/// The payload is copied out of `buf`; [`decode_bytes`] is the zero-copy
/// form for a caller that owns its buffer.
pub fn decode_slice(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
    let Some((h, n)) = peek_frame(buf)? else {
        return Ok(None);
    };
    let frame = h.frame(Bytes::copy_from_slice(&buf[n..n + h.len]))?;
    Ok(Some((frame, n + h.len)))
}

/// [`decode_slice`] without the copy: split one complete frame off the
/// front of `buf`, its payload a refcounted window of the same
/// allocation. `buf` is left untouched on `Ok(None)` and on `Err(_)`.
/// The readiness-driven server runtime reads nonblockingly into a
/// per-connection buffer, freezes it once a whole frame is in, and calls
/// this until it returns `Ok(None)`.
pub fn decode_bytes(buf: &mut Bytes) -> Result<Option<Frame>, FrameError> {
    let Some((h, n)) = peek_frame(buf)? else {
        return Ok(None);
    };
    let frame = h.frame(buf.slice(n..n + h.len))?;
    buf.advance(n + h.len);
    Ok(Some(frame))
}

/// Read exactly `buf.len()` bytes, distinguishing clean EOF before the
/// first byte (`Closed`) from a torn read (`Io`). `at_frame_start` is true
/// when no bytes of the current frame have been consumed yet.
fn read_exactly<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    at_frame_start: bool,
) -> Result<(), FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        let n = r.read(&mut buf[got..])?;
        if n == 0 {
            if got == 0 && at_frame_start {
                return Err(FrameError::Closed);
            }
            return Err(FrameError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "torn frame header",
            )));
        }
        got += n;
    }
    Ok(())
}

/// Read the frame that began with `magic` (already consumed from `r`).
fn read_after_magic<R: Read>(r: &mut R, magic: [u8; 4]) -> Result<Frame, FrameError> {
    let n = header_len(magic)?;
    let mut h = [0u8; MAX_HEADER_LEN];
    h[..4].copy_from_slice(&magic);
    read_exactly(r, &mut h[4..n], false)?;
    let header = Header::parse(&h[..n])?;
    // The stream fills the payload's own allocation in place: no zeroing
    // pass before it, no copy after it.
    let mut payload = Vec::with_capacity(header.len);
    r.take(header.len as u64).read_to_end(&mut payload)?;
    if payload.len() < header.len {
        return Err(FrameError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "torn frame payload",
        )));
    }
    header.frame(Bytes::from(payload))
}

/// Read one frame of either version (a v2 frame's trace ID is 0).
/// `Err(Closed)` when the peer shut the stream down cleanly before a new
/// frame began.
pub fn read_frame_any<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    let mut magic = [0u8; 4];
    read_exactly(r, &mut magic, true)?;
    read_after_magic(r, magic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn empty_payload_round_trip() {
        let mut buf = Vec::new();
        write_frame_v2(&mut buf, 1, b"").unwrap();
        let got = read_frame_any(&mut Cursor::new(&buf)).unwrap();
        assert!(got.payload.is_empty());
    }

    #[test]
    fn clean_eof_is_closed() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame_any(&mut Cursor::new(empty)),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = Vec::new();
        write_frame_v2(&mut buf, 1, b"x").unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_frame_any(&mut Cursor::new(&buf)),
            Err(FrameError::BadMagic(_))
        ));
    }

    /// The uncorrelated v1 header (`"DPFS"`, length, CRC) is no longer a
    /// frame: every reader refuses it by its magic.
    #[test]
    fn v1_frame_is_bad_magic() {
        let payload = b"legacy";
        let mut v1 = b"DPFS".to_vec();
        v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v1.extend_from_slice(&crc32(payload).to_le_bytes());
        v1.extend_from_slice(payload);
        let refused = |e: FrameError| matches!(e, FrameError::BadMagic(m) if &m == b"DPFS");
        assert!(refused(read_frame_any(&mut Cursor::new(&v1)).unwrap_err()));
        assert!(refused(decode_slice(&v1).unwrap_err()));
        assert!(refused(
            decode_bytes(&mut Bytes::from(v1.clone())).unwrap_err()
        ));
        assert!(refused(frame_len(&v1).unwrap_err()));
    }

    #[test]
    fn v2_round_trip_carries_correlation_id() {
        let mut buf = Vec::new();
        write_frame_v2(&mut buf, 0xDEAD_BEEF_0042, b"pipelined").unwrap();
        let frame = read_frame_any(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(frame.corr_id, 0xDEAD_BEEF_0042);
        assert_eq!(frame.trace_id, 0, "v2 frames are untraced");
        assert_eq!(&frame.payload[..], b"pipelined");
    }

    #[test]
    fn torn_v2_header_is_io_error() {
        let mut buf = Vec::new();
        write_frame_v2(&mut buf, 9, b"payload").unwrap();
        for cut in [2usize, 6, 14] {
            let mut short = buf.clone();
            short.truncate(cut);
            assert!(
                matches!(
                    read_frame_any(&mut Cursor::new(&short)),
                    Err(FrameError::Io(_))
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corrupt_v2_payload_detected() {
        let mut buf = Vec::new();
        write_frame_v2(&mut buf, 3, b"payload").unwrap();
        let n = buf.len();
        buf[n - 1] ^= 0xFF;
        assert!(matches!(
            read_frame_any(&mut Cursor::new(&buf)),
            Err(FrameError::BadChecksum { .. })
        ));
    }

    #[test]
    fn v3_round_trip_carries_both_ids() {
        let mut buf = Vec::new();
        write_frame_v3(&mut buf, 0x1122, 0xABCD_EF01_2345, b"traced").unwrap();
        let frame = read_frame_any(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(frame.corr_id, 0x1122);
        assert_eq!(frame.trace_id, 0xABCD_EF01_2345);
        assert_eq!(&frame.payload[..], b"traced");
    }

    #[test]
    fn mixed_version_stream_demuxes() {
        let mut buf = Vec::new();
        write_frame_v2(&mut buf, 2, b"two").unwrap();
        write_frame_v3(&mut buf, 3, 33, b"three").unwrap();
        write_frame_v2(&mut buf, u64::MAX, b"four").unwrap();
        let mut c = Cursor::new(&buf);
        for want in [
            (2, 0, &b"two"[..]),
            (3, 33, b"three"),
            (u64::MAX, 0, b"four"),
        ] {
            let f = read_frame_any(&mut c).unwrap();
            assert_eq!((f.corr_id, f.trace_id, &f.payload[..]), want);
        }
        assert!(matches!(read_frame_any(&mut c), Err(FrameError::Closed)));
    }

    #[test]
    fn torn_v3_header_is_io_error() {
        let mut buf = Vec::new();
        write_frame_v3(&mut buf, 9, 10, b"payload").unwrap();
        for cut in [2usize, 6, 14, 22] {
            let mut short = buf.clone();
            short.truncate(cut);
            assert!(
                matches!(
                    read_frame_any(&mut Cursor::new(&short)),
                    Err(FrameError::Io(_))
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corrupt_v3_payload_detected() {
        let mut buf = Vec::new();
        write_frame_v3(&mut buf, 3, 4, b"payload").unwrap();
        let n = buf.len();
        buf[n - 1] ^= 0xFF;
        assert!(matches!(
            read_frame_any(&mut Cursor::new(&buf)),
            Err(FrameError::BadChecksum { .. })
        ));
    }

    #[test]
    fn decode_slice_round_trips_both_versions() {
        let mut buf = Vec::new();
        write_frame_v2(&mut buf, 2, b"two").unwrap();
        write_frame_v3(&mut buf, 3, 33, b"three").unwrap();
        let (f, n2) = decode_slice(&buf).unwrap().unwrap();
        assert_eq!((f.corr_id, f.trace_id, &f.payload[..]), (2, 0, &b"two"[..]));
        let (f, n3) = decode_slice(&buf[n2..]).unwrap().unwrap();
        assert_eq!(
            (f.corr_id, f.trace_id, &f.payload[..]),
            (3, 33, &b"three"[..])
        );
        assert_eq!(n2 + n3, buf.len());
        assert!(decode_slice(&[]).unwrap().is_none());
    }

    #[test]
    fn decode_slice_needs_more_on_every_prefix() {
        let mut buf = Vec::new();
        write_frame_v3(&mut buf, 7, 8, b"partial").unwrap();
        for cut in 0..buf.len() {
            assert!(
                decode_slice(&buf[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes must ask for more"
            );
        }
        assert!(decode_slice(&buf).unwrap().is_some());
    }

    #[test]
    fn decode_slice_rejects_corruption() {
        assert!(matches!(
            decode_slice(b"XXXX____"),
            Err(FrameError::BadMagic(_))
        ));
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&MAGIC_V2);
        oversized.extend_from_slice(&1u64.to_le_bytes());
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());
        oversized.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_slice(&oversized),
            Err(FrameError::Oversized(_))
        ));
        let mut buf = Vec::new();
        write_frame_v2(&mut buf, 1, b"payload").unwrap();
        let n = buf.len();
        buf[n - 1] ^= 0xFF;
        assert!(matches!(
            decode_slice(&buf),
            Err(FrameError::BadChecksum { .. })
        ));
    }

    #[test]
    fn crc32_check_values() {
        // The CRC-32/ISO-HDLC check value: the polynomial is frozen, every
        // frame version carries it.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            !crc32_update(crc32_update(u32::MAX, b"1234"), b"56789"),
            0xCBF4_3926
        );
    }

    /// One fixed payload framed as v2 and v3, byte for byte (headers
    /// computed independently with zlib's CRC-32): the wire format a
    /// faster checksum must not move.
    #[test]
    fn golden_frame_bytes() {
        const PAYLOAD: &[u8] = b"dpfs golden payload \x00\x01\xfe\xff";
        const LEN_CRC: [u8; 8] = [0x18, 0x00, 0x00, 0x00, 0xb0, 0xa3, 0xdf, 0x06];
        const CORR: [u8; 8] = [0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01];
        const TRACE: [u8; 8] = [0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11];
        let golden = |pieces: &[&[u8]]| pieces.concat();

        let v2 = golden(&[b"DPF2", &CORR, &LEN_CRC, PAYLOAD]);
        let v3 = golden(&[b"DPF3", &CORR, &TRACE, &LEN_CRC, PAYLOAD]);
        let (corr_id, trace_id) = (0x0102_0304_0506_0708, 0x1112_1314_1516_1718);

        let mut out = Vec::new();
        write_frame_v2(&mut out, corr_id, PAYLOAD).unwrap();
        assert_eq!(out, v2);
        out.clear();
        write_frame_v3_parts(&mut out, corr_id, trace_id, &[&PAYLOAD[..5], &PAYLOAD[5..]]).unwrap();
        assert_eq!(out, v3);
        // The queued-writer header is the same header.
        assert_eq!(response_header(corr_id, [PAYLOAD]).unwrap(), v2[..20]);

        for (bytes, trace) in [(&v2, 0), (&v3, trace_id)] {
            let f = read_frame_any(&mut Cursor::new(bytes)).unwrap();
            assert_eq!(
                (f.corr_id, f.trace_id, &f.payload[..]),
                (corr_id, trace, PAYLOAD)
            );
            let (f, used) = decode_slice(bytes).unwrap().unwrap();
            assert_eq!(
                (f.corr_id, f.trace_id, &f.payload[..]),
                (corr_id, trace, PAYLOAD)
            );
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn decode_bytes_matches_decode_slice_without_copying() {
        let mut wire = Vec::new();
        write_frame_v2(&mut wire, 1, b"one").unwrap();
        write_frame_v2(&mut wire, 2, b"two").unwrap();
        write_frame_v3(&mut wire, 3, 33, b"three").unwrap();
        let whole = wire.len();
        wire.extend_from_slice(b"DPF2\x01"); // a partial fourth header
        let mut buf = Bytes::from(wire.clone());
        let block = buf.as_ptr();
        let mut at = 0;
        for _ in 0..3 {
            let (want, used) = decode_slice(&wire[at..]).unwrap().unwrap();
            let got = decode_bytes(&mut buf).unwrap().unwrap();
            assert_eq!(got, want);
            // the payload is a window of the buffer that was frozen
            let off = got.payload.as_ptr() as usize - block as usize;
            assert_eq!(&wire[off..off + got.payload.len()], &want.payload[..]);
            at += used;
        }
        assert_eq!(at, whole);
        assert!(decode_bytes(&mut buf).unwrap().is_none());
        assert_eq!(&buf[..], b"DPF2\x01", "a partial frame is left in place");
    }

    #[test]
    fn decode_bytes_rejects_corruption_and_leaves_the_buffer() {
        let mut wire = Vec::new();
        write_frame_v2(&mut wire, 1, b"payload").unwrap();
        let n = wire.len();
        wire[n - 1] ^= 0xFF;
        let mut buf = Bytes::from(wire);
        assert!(matches!(
            decode_bytes(&mut buf),
            Err(FrameError::BadChecksum { .. })
        ));
        assert_eq!(buf.len(), n);
        assert!(matches!(
            decode_bytes(&mut Bytes::from_static(b"XXXX____")),
            Err(FrameError::BadMagic(_))
        ));
    }

    #[test]
    fn frame_len_known_once_the_header_is_in() {
        let mut wire = Vec::new();
        write_frame_v3(&mut wire, 7, 8, b"announced").unwrap();
        for cut in 0..28 {
            assert_eq!(frame_len(&wire[..cut]).unwrap(), None, "cut {cut}");
        }
        for cut in 28..=wire.len() {
            assert_eq!(frame_len(&wire[..cut]).unwrap(), Some(wire.len()));
        }
        assert!(matches!(frame_len(b"XXXX"), Err(FrameError::BadMagic(_))));
        let mut oversized = MAGIC_V2.to_vec();
        oversized.extend_from_slice(&1u64.to_le_bytes());
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());
        oversized.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            frame_len(&oversized),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn parts_writers_match_contiguous_writers() {
        let payload = b"header|body-bytes|tail".to_vec();
        let parts: Vec<&[u8]> = vec![b"header|", b"", b"body-bytes|", b"tail"];
        let mut whole = Vec::new();
        write_frame_v2(&mut whole, 42, &payload).unwrap();
        let mut split = Vec::new();
        write_frame_v2_parts(&mut split, 42, &parts).unwrap();
        assert_eq!(whole, split);
        let mut whole = Vec::new();
        write_frame_v3(&mut whole, 42, 77, &payload).unwrap();
        let mut split = Vec::new();
        write_frame_v3_parts(&mut split, 42, 77, &parts).unwrap();
        assert_eq!(whole, split);
        // and the result still reads back as one frame
        let frame = read_frame_any(&mut Cursor::new(&split)).unwrap();
        assert_eq!((frame.corr_id, frame.trace_id), (42, 77));
        assert_eq!(&frame.payload[..], &payload[..]);
    }

    #[test]
    fn parts_writer_enforces_total_length_cap() {
        let big = vec![0u8; MAX_FRAME_LEN / 2 + 1];
        let parts: Vec<&[u8]> = vec![&big, &big];
        let mut out = Vec::new();
        assert!(matches!(
            write_frame_v2_parts(&mut out, 1, &parts),
            Err(FrameError::Oversized(_))
        ));
    }

    /// A writer that accepts at most `cap` bytes per call, exercising the
    /// partial-progress resubmission in `write_all_vectored`.
    struct Dribble {
        out: Vec<u8>,
        cap: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            let mut budget = self.cap;
            let mut wrote = 0usize;
            for b in bufs {
                if budget == 0 {
                    break;
                }
                let n = b.len().min(budget);
                self.out.extend_from_slice(&b[..n]);
                budget -= n;
                wrote += n;
            }
            Ok(wrote)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn parts_writer_survives_short_writes() {
        let parts: Vec<&[u8]> = vec![b"alpha", b"beta-beta", b"g"];
        for cap in 1..8 {
            let mut d = Dribble {
                out: Vec::new(),
                cap,
            };
            write_frame_v2_parts(&mut d, 9, &parts).unwrap();
            let frame = read_frame_any(&mut Cursor::new(&d.out)).unwrap();
            assert_eq!(&frame.payload[..], b"alphabeta-betag", "cap {cap}");
        }
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_V2);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame_any(&mut Cursor::new(&buf)),
            Err(FrameError::Oversized(_))
        ));
    }
}
