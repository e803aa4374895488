//! Request/response message types and their binary codec.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::frame::{within_one_frame, FrameError};
use crate::meta::{MetaOp, MetaResult};
use crate::pattern::AccessPattern;

/// Error codes carried in [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The named subfile does not exist on this server.
    NoSuchSubfile,
    /// Local-file-system I/O failed on the server.
    IoFailure,
    /// Request was malformed (overlapping/unsorted ranges, zero length, ...).
    BadRequest,
    /// Server is shutting down.
    ShuttingDown,
    /// Server-side storage quota exceeded.
    NoSpace,
    /// A code this client does not know about (a newer server). The raw
    /// byte is carried so it survives re-encoding and can be logged;
    /// decoding never fails on it, which keeps old clients talking to new
    /// servers.
    Unknown(u8),
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::NoSuchSubfile => 1,
            ErrorCode::IoFailure => 2,
            ErrorCode::BadRequest => 3,
            ErrorCode::ShuttingDown => 4,
            ErrorCode::NoSpace => 5,
            ErrorCode::Unknown(v) => v,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => ErrorCode::NoSuchSubfile,
            2 => ErrorCode::IoFailure,
            3 => ErrorCode::BadRequest,
            4 => ErrorCode::ShuttingDown,
            5 => ErrorCode::NoSpace,
            other => ErrorCode::Unknown(other),
        }
    }
}

/// A client request. `subfile` names the server-local file holding this
/// server's bricks of a DPFS file.
//
// `Meta` dwarfs the I/O variants (a cross-shard rename prepare carries a
// full attr row + distribution snapshot), but requests are per-RPC
// transients — built, encoded, dropped — never held in bulk, so the
// stack-size skew is harmless and boxing would noise up every codec and
// handler match.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / RTT probe.
    Ping,
    /// Write `ranges` into the subfile, creating it if needed. Each element
    /// is `(offset, data)`. One request may carry many ranges (request
    /// combination).
    Write {
        subfile: String,
        ranges: Vec<(u64, Bytes)>,
    },
    /// Read `ranges` (`(offset, len)` pairs) from the subfile. Reads beyond
    /// EOF return zero-filled bytes, matching sparse local files.
    Read {
        subfile: String,
        ranges: Vec<(u64, u64)>,
    },
    /// Remove the subfile entirely (file deletion).
    Delete { subfile: String },
    /// Stat the subfile.
    Stat { subfile: String },
    /// Truncate/extend the subfile to `size` bytes.
    Truncate { subfile: String, size: u64 },
    /// Ask the server to flush a subfile's data to stable storage.
    Sync { subfile: String },
    /// Administrative shutdown (used by the in-process testbed).
    Shutdown,
    /// Ask the server for a statistics snapshot (counters + latency
    /// histograms). The reply is [`Response::Stats`].
    Stats,
    /// A metadata operation (served by `dpfs-metad`, not by I/O servers).
    /// Rides the same framed envelope, so metadata traffic inherits
    /// correlation IDs, trace IDs, deadlines and retries unchanged.
    Meta { op: MetaOp },
    /// List-I/O read: one compact [`AccessPattern`] instead of an
    /// enumerated range list. The server expands the pattern against its
    /// local subfile and answers [`Response::DataList`] — one coalesced
    /// payload, not per-range chunks.
    ReadList {
        subfile: String,
        pattern: AccessPattern,
    },
    /// List-I/O write: the pattern names where the bytes land and
    /// `payload` carries them gathered back to back in pattern order
    /// (`payload.len()` must equal `pattern.total_bytes()`). One
    /// refcounted payload instead of per-range copies, which is what
    /// lets mirror fan-out reuse it and the transport send it with a
    /// vectored write.
    WriteList {
        subfile: String,
        pattern: AccessPattern,
        payload: Bytes,
    },
    /// Rename the subfile `from` to `to` in place, replacing whatever `to`
    /// named (file rename: names move, no byte does).
    Rename { from: String, to: String },
}

impl Request {
    /// Short, stable name of the request kind, for metrics/trace labels.
    pub fn kind_str(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Write { .. } => "write",
            Request::Read { .. } => "read",
            Request::Delete { .. } => "delete",
            Request::Stat { .. } => "stat",
            Request::Truncate { .. } => "truncate",
            Request::Sync { .. } => "sync",
            Request::Shutdown => "shutdown",
            Request::Stats => "stats",
            Request::Meta { op } => op.op_str(),
            Request::ReadList { .. } => "read_list",
            Request::WriteList { .. } => "write_list",
            Request::Rename { .. } => "rename",
        }
    }
}

/// A server response.
//
// Like [`Request`], the `Meta` variant (rename-prepare snapshots) dwarfs
// the rest; responses are per-RPC transients, so the skew is accepted
// rather than boxed (see the note on `Request`).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to `Ping` / `Shutdown` / `Sync`.
    Pong,
    /// Write accepted; total payload bytes written.
    Written { bytes: u64 },
    /// Read data, one chunk per requested range, in request order.
    Data { chunks: Vec<Bytes> },
    /// Subfile removed (`existed` tells whether it was present).
    Deleted { existed: bool },
    /// Stat result.
    Stat { exists: bool, size: u64 },
    /// Truncated to the requested size.
    Truncated,
    /// Request failed.
    Error { code: ErrorCode, message: String },
    /// Statistics snapshot. The payload is an opaque versioned blob
    /// produced by the server's stats encoder (`dpfs-server` defines the
    /// layout); keeping it opaque here lets the snapshot grow fields
    /// without a wire-protocol change.
    Stats { payload: Bytes },
    /// Reply to [`Request::Meta`]. `shard` identifies the metadata shard
    /// that served the op; the client checks it against the shard it
    /// routed to, so a mis-wired mount fails loudly.
    Meta { shard: u32, result: MetaResult },
    /// Reply to [`Request::ReadList`]: the pattern's ranges coalesced
    /// into one payload, in pattern order. No per-chunk length prefixes
    /// — the client already knows the pattern it sent, so it scatters
    /// straight from this buffer into the caller's.
    DataList { data: Bytes },
    /// Subfile renamed (`existed` tells whether there was one to rename).
    Renamed { existed: bool },
}

// ---- codec helpers ----

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, FrameError> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(FrameError::BadMessage("short string".into()));
    }
    let b = buf.split_to(len);
    String::from_utf8(b.to_vec()).map_err(|_| FrameError::BadMessage("invalid utf-8".into()))
}

fn get_u8(buf: &mut Bytes) -> Result<u8, FrameError> {
    if buf.remaining() < 1 {
        return Err(FrameError::BadMessage("short message".into()));
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut Bytes) -> Result<u32, FrameError> {
    if buf.remaining() < 4 {
        return Err(FrameError::BadMessage("short message".into()));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut Bytes) -> Result<u64, FrameError> {
    if buf.remaining() < 8 {
        return Err(FrameError::BadMessage("short message".into()));
    }
    Ok(buf.get_u64_le())
}

fn get_bytes(buf: &mut Bytes) -> Result<Bytes, FrameError> {
    let len = get_u64(buf)? as usize;
    if buf.remaining() < len {
        return Err(FrameError::BadMessage("short byte chunk".into()));
    }
    Ok(buf.split_to(len))
}

/// Payloads shorter than this are copied into the surrounding head part
/// even on the scatter-gather path: below it one more iovec and refcount
/// cost more than the copy (a legacy `Data` reply can carry thousands of
/// 64-byte chunks).
const SPLIT_MIN: usize = 1024;

/// Where the encoders write. Scalars, strings and patterns go to `head`;
/// a bulk payload is either copied in behind them (contiguous encoding)
/// or, when `split` is set, closes the head and rides as a refcounted part
/// of its own. One encoder per message type serves both shapes, so the
/// parts always concatenate to the contiguous encoding.
struct Parts {
    done: Vec<Bytes>,
    head: BytesMut,
    split: bool,
}

impl Parts {
    fn new(split: bool) -> Parts {
        Parts {
            done: Vec::new(),
            head: BytesMut::new(),
            split,
        }
    }

    /// Append `payload` behind its `u64` length prefix.
    fn put_bytes(&mut self, payload: &Bytes) {
        self.head.put_u64_le(payload.len() as u64);
        if self.split && payload.len() >= SPLIT_MIN {
            self.done.push(std::mem::take(&mut self.head).freeze());
            self.done.push(payload.clone());
        } else {
            self.head.put_slice(payload);
        }
    }

    fn finish(mut self) -> Vec<Bytes> {
        if !self.head.is_empty() {
            self.done.push(self.head.freeze());
        }
        self.done
    }
}

fn ensure_done(buf: &Bytes) -> Result<(), FrameError> {
    if buf.has_remaining() {
        Err(FrameError::BadMessage(format!(
            "{} trailing bytes",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

impl Request {
    fn encode_to(&self, out: &mut Parts) {
        let buf = &mut out.head;
        match self {
            Request::Ping => buf.put_u8(1),
            Request::Write { subfile, ranges } => {
                buf.put_u8(2);
                put_str(buf, subfile);
                buf.put_u32_le(ranges.len() as u32);
                for (off, data) in ranges {
                    out.head.put_u64_le(*off);
                    out.put_bytes(data);
                }
            }
            Request::Read { subfile, ranges } => {
                buf.put_u8(3);
                put_str(buf, subfile);
                buf.put_u32_le(ranges.len() as u32);
                for (off, len) in ranges {
                    buf.put_u64_le(*off);
                    buf.put_u64_le(*len);
                }
            }
            Request::Delete { subfile } => {
                buf.put_u8(4);
                put_str(buf, subfile);
            }
            Request::Stat { subfile } => {
                buf.put_u8(5);
                put_str(buf, subfile);
            }
            Request::Truncate { subfile, size } => {
                buf.put_u8(6);
                put_str(buf, subfile);
                buf.put_u64_le(*size);
            }
            Request::Sync { subfile } => {
                buf.put_u8(7);
                put_str(buf, subfile);
            }
            Request::Shutdown => buf.put_u8(8),
            Request::Stats => buf.put_u8(9),
            Request::Meta { op } => {
                buf.put_u8(10);
                op.encode_into(buf);
            }
            Request::ReadList { subfile, pattern } => {
                buf.put_u8(11);
                put_str(buf, subfile);
                pattern.encode_into(buf);
            }
            Request::WriteList {
                subfile,
                pattern,
                payload,
            } => {
                buf.put_u8(12);
                put_str(buf, subfile);
                pattern.encode_into(buf);
                out.put_bytes(payload);
            }
            Request::Rename { from, to } => {
                buf.put_u8(13);
                put_str(buf, from);
                put_str(buf, to);
            }
        }
    }

    /// Encode to a frame payload.
    pub fn encode(&self) -> Bytes {
        let mut out = Parts::new(false);
        self.encode_to(&mut out);
        out.head.freeze()
    }

    /// Encode as a list of byte slices whose concatenation equals
    /// [`Request::encode`]. Bulk payloads (`WriteList`'s gathered bytes,
    /// `Write`'s larger ranges) come back as their own refcounted parts,
    /// untouched — the transport hands all parts to one `write_vectored`
    /// frame write, so a payload is never copied into a message buffer on
    /// the hot path. Everything else is a single part.
    pub fn encode_parts(&self) -> Vec<Bytes> {
        let mut out = Parts::new(true);
        self.encode_to(&mut out);
        out.finish()
    }

    /// Decode from a frame payload.
    pub fn decode(mut buf: Bytes) -> Result<Request, FrameError> {
        let tag = get_u8(&mut buf)?;
        let req = match tag {
            1 => Request::Ping,
            2 => {
                let subfile = get_str(&mut buf)?;
                let n = get_u32(&mut buf)? as usize;
                let mut ranges = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let off = get_u64(&mut buf)?;
                    let data = get_bytes(&mut buf)?;
                    ranges.push((off, data));
                }
                Request::Write { subfile, ranges }
            }
            3 => {
                let subfile = get_str(&mut buf)?;
                let n = get_u32(&mut buf)? as usize;
                let mut ranges = Vec::with_capacity(n.min(1 << 16));
                // The bound `ReadList`'s pattern carries, where the
                // lengths enter: the server allocates what they ask for.
                let mut total = 0u64;
                for _ in 0..n {
                    let (off, len) = (get_u64(&mut buf)?, get_u64(&mut buf)?);
                    total = within_one_frame(total, len).ok_or_else(|| {
                        FrameError::BadMessage("read covers more than one frame".into())
                    })?;
                    ranges.push((off, len));
                }
                Request::Read { subfile, ranges }
            }
            4 => Request::Delete {
                subfile: get_str(&mut buf)?,
            },
            5 => Request::Stat {
                subfile: get_str(&mut buf)?,
            },
            6 => Request::Truncate {
                subfile: get_str(&mut buf)?,
                size: get_u64(&mut buf)?,
            },
            7 => Request::Sync {
                subfile: get_str(&mut buf)?,
            },
            8 => Request::Shutdown,
            9 => Request::Stats,
            10 => Request::Meta {
                op: MetaOp::decode_from(&mut buf)?,
            },
            11 => Request::ReadList {
                subfile: get_str(&mut buf)?,
                pattern: AccessPattern::decode_from(&mut buf)?,
            },
            12 => {
                let subfile = get_str(&mut buf)?;
                let pattern = AccessPattern::decode_from(&mut buf)?;
                let payload = get_bytes(&mut buf)?;
                if payload.len() as u64 != pattern.total_bytes() {
                    return Err(FrameError::BadMessage(format!(
                        "write-list payload of {} bytes for a pattern of {}",
                        payload.len(),
                        pattern.total_bytes()
                    )));
                }
                Request::WriteList {
                    subfile,
                    pattern,
                    payload,
                }
            }
            13 => Request::Rename {
                from: get_str(&mut buf)?,
                to: get_str(&mut buf)?,
            },
            other => return Err(FrameError::BadMessage(format!("bad request tag {other}"))),
        };
        ensure_done(&buf)?;
        Ok(req)
    }

    /// Total payload bytes carried (writes) or requested (reads); used by
    /// the server's bandwidth model and statistics.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Request::Write { ranges, .. } => ranges.iter().map(|(_, d)| d.len() as u64).sum(),
            Request::Read { ranges, .. } => ranges.iter().map(|(_, l)| *l).sum(),
            Request::ReadList { pattern, .. } => pattern.total_bytes(),
            Request::WriteList { payload, .. } => payload.len() as u64,
            _ => 0,
        }
    }
}

impl Response {
    fn encode_to(&self, out: &mut Parts) {
        let buf = &mut out.head;
        match self {
            Response::Pong => buf.put_u8(1),
            Response::Written { bytes } => {
                buf.put_u8(2);
                buf.put_u64_le(*bytes);
            }
            Response::Data { chunks } => {
                buf.put_u8(3);
                buf.put_u32_le(chunks.len() as u32);
                for c in chunks {
                    out.put_bytes(c);
                }
            }
            Response::Deleted { existed } => {
                buf.put_u8(4);
                buf.put_u8(*existed as u8);
            }
            Response::Stat { exists, size } => {
                buf.put_u8(5);
                buf.put_u8(*exists as u8);
                buf.put_u64_le(*size);
            }
            Response::Truncated => buf.put_u8(6),
            Response::Error { code, message } => {
                buf.put_u8(7);
                buf.put_u8(code.to_u8());
                put_str(buf, message);
            }
            Response::Stats { payload } => {
                buf.put_u8(8);
                out.put_bytes(payload);
            }
            Response::Meta { shard, result } => {
                buf.put_u8(9);
                buf.put_u32_le(*shard);
                result.encode_into(buf);
            }
            Response::DataList { data } => {
                buf.put_u8(10);
                out.put_bytes(data);
            }
            Response::Renamed { existed } => {
                buf.put_u8(11);
                buf.put_u8(*existed as u8);
            }
        }
    }

    /// Encode to a frame payload.
    pub fn encode(&self) -> Bytes {
        let mut out = Parts::new(false);
        self.encode_to(&mut out);
        out.head.freeze()
    }

    /// Encode as a list of byte slices whose concatenation equals
    /// [`Response::encode`]: the reply-side twin of
    /// [`Request::encode_parts`]. Read data (`Data` chunks, the `DataList`
    /// payload) and `Stats` blobs come back as refcounted parts behind a
    /// small head, so the server queues the very buffer it read the
    /// subfile into instead of copying it into a message.
    pub fn encode_parts(&self) -> Vec<Bytes> {
        let mut out = Parts::new(true);
        self.encode_to(&mut out);
        out.finish()
    }

    /// Decode from a frame payload.
    pub fn decode(mut buf: Bytes) -> Result<Response, FrameError> {
        let tag = get_u8(&mut buf)?;
        let resp = match tag {
            1 => Response::Pong,
            2 => Response::Written {
                bytes: get_u64(&mut buf)?,
            },
            3 => {
                let n = get_u32(&mut buf)? as usize;
                let mut chunks = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    chunks.push(get_bytes(&mut buf)?);
                }
                Response::Data { chunks }
            }
            4 => Response::Deleted {
                existed: get_u8(&mut buf)? != 0,
            },
            5 => Response::Stat {
                exists: get_u8(&mut buf)? != 0,
                size: get_u64(&mut buf)?,
            },
            6 => Response::Truncated,
            7 => Response::Error {
                code: ErrorCode::from_u8(get_u8(&mut buf)?),
                message: get_str(&mut buf)?,
            },
            8 => Response::Stats {
                payload: get_bytes(&mut buf)?,
            },
            9 => Response::Meta {
                shard: get_u32(&mut buf)?,
                result: MetaResult::decode_from(&mut buf)?,
            },
            10 => Response::DataList {
                data: get_bytes(&mut buf)?,
            },
            11 => Response::Renamed {
                existed: get_u8(&mut buf)? != 0,
            },
            other => return Err(FrameError::BadMessage(format!("bad response tag {other}"))),
        };
        ensure_done(&buf)?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(req: Request) {
        let enc = req.encode();
        let dec = Request::decode(enc).unwrap();
        assert_eq!(dec, req);
    }

    fn round_trip_resp(resp: Response) {
        let enc = resp.encode();
        let dec = Response::decode(enc).unwrap();
        assert_eq!(dec, resp);
    }

    #[test]
    fn request_round_trips() {
        round_trip_req(Request::Ping);
        round_trip_req(Request::Write {
            subfile: "/data/dpfs.test".into(),
            ranges: vec![(0, Bytes::from_static(b"abc")), (1024, Bytes::new())],
        });
        round_trip_req(Request::Read {
            subfile: "f".into(),
            ranges: vec![(0, 10), (100, 200)],
        });
        round_trip_req(Request::Delete {
            subfile: "f".into(),
        });
        round_trip_req(Request::Stat {
            subfile: "f".into(),
        });
        round_trip_req(Request::Truncate {
            subfile: "f".into(),
            size: 12345,
        });
        round_trip_req(Request::Sync {
            subfile: "f".into(),
        });
        round_trip_req(Request::Shutdown);
        round_trip_req(Request::Stats);
        round_trip_req(Request::Rename {
            from: "/a/f#r1".into(),
            to: "/b/g#r1".into(),
        });
    }

    fn strided_pattern() -> AccessPattern {
        AccessPattern::from_runs(&(0..16).map(|i| (i * 256, 32)).collect::<Vec<_>>())
    }

    #[test]
    fn list_requests_round_trip() {
        round_trip_req(Request::ReadList {
            subfile: "/data/dpfs.test".into(),
            pattern: strided_pattern(),
        });
        round_trip_req(Request::WriteList {
            subfile: "f".into(),
            pattern: strided_pattern(),
            payload: Bytes::from(vec![7u8; 16 * 32]),
        });
        round_trip_resp(Response::DataList {
            data: Bytes::from_static(b"coalesced"),
        });
        round_trip_resp(Response::DataList { data: Bytes::new() });
    }

    #[test]
    fn list_kind_strs_and_payload_bytes() {
        let r = Request::ReadList {
            subfile: "f".into(),
            pattern: strided_pattern(),
        };
        assert_eq!(r.kind_str(), "read_list");
        assert_eq!(r.payload_bytes(), 16 * 32);
        let w = Request::WriteList {
            subfile: "f".into(),
            pattern: strided_pattern(),
            payload: Bytes::from(vec![0u8; 16 * 32]),
        };
        assert_eq!(w.kind_str(), "write_list");
        assert_eq!(w.payload_bytes(), 16 * 32);
    }

    fn glue(parts: &[Bytes]) -> Vec<u8> {
        parts.iter().flat_map(|p| p.iter().copied()).collect()
    }

    #[test]
    fn encode_parts_concatenates_to_encode() {
        let reqs = [
            Request::Ping,
            Request::Read {
                subfile: "f".into(),
                ranges: vec![(0, 10)],
            },
            Request::ReadList {
                subfile: "f".into(),
                pattern: strided_pattern(),
            },
            Request::WriteList {
                subfile: "f".into(),
                pattern: strided_pattern(),
                payload: Bytes::from(vec![9u8; 16 * 32]),
            },
            Request::WriteList {
                subfile: "f".into(),
                pattern: AccessPattern::from_runs(&[(0, 4096)]),
                payload: Bytes::from(vec![9u8; 4096]),
            },
            Request::Write {
                subfile: "f".into(),
                ranges: vec![
                    (0, Bytes::from(vec![1u8; SPLIT_MIN])),
                    (9000, Bytes::from_static(b"tiny")),
                    (10_000, Bytes::from(vec![2u8; 2 * SPLIT_MIN])),
                ],
            },
        ];
        for req in reqs {
            let whole = req.encode();
            let parts = req.encode_parts();
            assert_eq!(&glue(&parts)[..], &whole[..], "{}", req.kind_str());
            assert!(parts.iter().all(|p| !p.is_empty()));
        }
        let resps = [
            Response::Pong,
            Response::DataList { data: Bytes::new() },
            Response::DataList {
                data: Bytes::from(vec![3u8; 4096]),
            },
            Response::Data {
                chunks: vec![
                    Bytes::from(vec![4u8; SPLIT_MIN - 1]),
                    Bytes::from(vec![5u8; SPLIT_MIN]),
                    Bytes::new(),
                ],
            },
            Response::Stats {
                payload: Bytes::from(vec![6u8; 2048]),
            },
        ];
        for resp in resps {
            let whole = resp.encode();
            let parts = resp.encode_parts();
            assert_eq!(&glue(&parts)[..], &whole[..], "{resp:?}");
            assert_eq!(Response::decode(Bytes::from(glue(&parts))).unwrap(), resp);
        }
    }

    #[test]
    fn bulk_payload_parts_are_the_callers_buffers() {
        // Scatter-gather means *the same allocation*, not an equal copy.
        let payload = Bytes::from(vec![1u8; SPLIT_MIN]);
        let parts = Request::WriteList {
            subfile: "f".into(),
            pattern: AccessPattern::from_runs(&[(0, SPLIT_MIN as u64)]),
            payload: payload.clone(),
        }
        .encode_parts();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[1].as_ptr(), payload.as_ptr());
        let parts = Response::DataList {
            data: payload.clone(),
        }
        .encode_parts();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 1 + 8);
        assert_eq!(parts[1].as_ptr(), payload.as_ptr());
        // Small payloads are cheaper to copy than to scatter.
        let small = Response::DataList {
            data: Bytes::from(vec![1u8; SPLIT_MIN - 1]),
        };
        assert_eq!(small.encode_parts().len(), 1);
    }

    #[test]
    fn write_list_payload_length_mismatch_rejected() {
        // pattern says 512 bytes, payload carries 8
        let mut buf = BytesMut::new();
        buf.put_u8(12);
        put_str(&mut buf, "f");
        strided_pattern().encode_into(&mut buf);
        buf.put_u64_le(8);
        buf.put_slice(&[0u8; 8]);
        assert!(Request::decode(buf.freeze()).is_err());
    }

    #[test]
    fn list_requests_truncated_at_every_cut_rejected() {
        let enc = Request::WriteList {
            subfile: "file".into(),
            pattern: strided_pattern(),
            payload: Bytes::from(vec![3u8; 16 * 32]),
        }
        .encode();
        for cut in 1..enc.len() {
            assert!(
                Request::decode(enc.slice(..cut)).is_err(),
                "cut at {cut} should fail"
            );
        }
        let enc = Request::ReadList {
            subfile: "file".into(),
            pattern: strided_pattern(),
        }
        .encode();
        for cut in 1..enc.len() {
            assert!(
                Request::decode(enc.slice(..cut)).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn kind_str_is_stable() {
        assert_eq!(Request::Ping.kind_str(), "ping");
        assert_eq!(
            Request::Read {
                subfile: "f".into(),
                ranges: vec![]
            }
            .kind_str(),
            "read"
        );
        assert_eq!(
            Request::Write {
                subfile: "f".into(),
                ranges: vec![]
            }
            .kind_str(),
            "write"
        );
        assert_eq!(Request::Stats.kind_str(), "stats");
    }

    #[test]
    fn response_round_trips() {
        round_trip_resp(Response::Pong);
        round_trip_resp(Response::Written { bytes: 4096 });
        round_trip_resp(Response::Data {
            chunks: vec![Bytes::from_static(b"xyz"), Bytes::new()],
        });
        round_trip_resp(Response::Deleted { existed: true });
        round_trip_resp(Response::Stat {
            exists: false,
            size: 0,
        });
        round_trip_resp(Response::Truncated);
        round_trip_resp(Response::Error {
            code: ErrorCode::NoSuchSubfile,
            message: "no subfile /x".into(),
        });
        round_trip_resp(Response::Stats {
            payload: Bytes::from_static(&[1, 2, 3, 4]),
        });
        round_trip_resp(Response::Stats {
            payload: Bytes::new(),
        });
        round_trip_resp(Response::Renamed { existed: true });
        round_trip_resp(Response::Renamed { existed: false });
    }

    #[test]
    fn payload_bytes() {
        let w = Request::Write {
            subfile: "f".into(),
            ranges: vec![
                (0, Bytes::from(vec![0u8; 100])),
                (200, Bytes::from(vec![0u8; 50])),
            ],
        };
        assert_eq!(w.payload_bytes(), 150);
        let r = Request::Read {
            subfile: "f".into(),
            ranges: vec![(0, 10), (20, 30)],
        };
        assert_eq!(r.payload_bytes(), 40);
        assert_eq!(Request::Ping.payload_bytes(), 0);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = Request::Ping.encode().to_vec();
        enc.push(0xAA);
        assert!(Request::decode(Bytes::from(enc)).is_err());
    }

    #[test]
    fn truncated_message_rejected() {
        let enc = Request::Write {
            subfile: "file".into(),
            ranges: vec![(0, Bytes::from_static(b"data"))],
        }
        .encode();
        for cut in 1..enc.len() {
            assert!(
                Request::decode(enc.slice(..cut)).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(Request::decode(Bytes::from_static(&[99])).is_err());
        assert!(Response::decode(Bytes::from_static(&[99])).is_err());
    }

    #[test]
    fn unknown_error_codes_survive_decode_and_round_trip() {
        // Forward compat: an old client receiving a new server's error code
        // must decode it (as Unknown), not drop the connection.
        let decoded = Response::decode(Bytes::from_static(&[7, 200, 0, 0, 0, 0])).unwrap();
        assert_eq!(
            decoded,
            Response::Error {
                code: ErrorCode::Unknown(200),
                message: String::new(),
            }
        );
        // and the carried byte survives a re-encode
        round_trip_resp(Response::Error {
            code: ErrorCode::Unknown(200),
            message: "future error".into(),
        });
    }
}
