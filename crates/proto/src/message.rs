//! Request/response messages and the one wire codec every message uses.
//!
//! A message's layout is written once, as a row of a table: `wire_enum!`
//! gives an enum's tag per variant and each variant's fields in wire order,
//! `wire_rows!` a struct's fields in wire order, and both directions of the
//! `Wire` codec are generated from that row. [`Request`] and [`Response`]
//! are tables here; the metadata verbs (`meta.rs`) and the list-I/O pattern
//! segments (`pattern.rs`) are tables of the same codec. Decoding is "decode,
//! then check": the table parses, then `Request::check` (and a pattern's
//! own check) refuses what parses but must not be acted on.

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
    /// EOF return zero-filled bytes, matching sparse local files. Answered
    /// by [`Response::DataList`]: the ranges' bytes back to back, in
    /// request order — the reply to a [`Request::ReadList`] too.
    Read {
        subfile: String,
        ranges: Vec<(u64, u64)>,
    },
    /// Remove the subfile entirely (file deletion).
    Delete { subfile: String },
    /// Stat the subfile.
    Stat { subfile: String },
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
    /// local subfile and answers [`Response::DataList`], as for `Read`.
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

/// `payload` — `ranges`' bytes back to back, as a `WriteList` or a read
/// reply carries them — cut into one refcounted slice per range, beside
/// its offset: the range list of a `Write`. No byte is copied. Panics if
/// the payload is shorter than the ranges.
pub fn split_payload(payload: &Bytes, ranges: &[(u64, u64)]) -> Vec<(u64, Bytes)> {
    let mut at = 0usize;
    ranges
        .iter()
        .map(|&(off, len)| {
            let slice = payload.slice(at..at + len as usize);
            at += len as usize;
            (off, slice)
        })
        .collect()
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
    /// Subfile removed (`existed` tells whether it was present).
    Deleted { existed: bool },
    /// Stat result.
    Stat { exists: bool, size: u64 },
    /// Request failed.
    Error { code: ErrorCode, message: String },
    /// Statistics snapshot: the answering daemon as a one-node
    /// `ClusterSnapshot` (`dpfs-obs` defines the encoding). Opaque here, so
    /// the document can grow rows without a wire-protocol change.
    Stats { payload: Bytes },
    /// Reply to [`Request::Meta`]. `shard` identifies the metadata shard
    /// that served the op; the client checks it against the shard it
    /// routed to, so a mis-wired mount fails loudly.
    Meta { shard: u32, result: MetaResult },
    /// Reply to every read, [`Request::Read`] and [`Request::ReadList`]:
    /// the ranges' bytes coalesced into one payload, in request order. No
    /// per-range length prefixes — the client already knows the ranges it
    /// sent, so it scatters straight from this buffer into the caller's.
    /// (Tag 3, a per-range chunk list, is retired.)
    DataList { data: Bytes },
    /// Subfile renamed (`existed` tells whether there was one to rename).
    Renamed { existed: bool },
}

// ---- the codec ----

/// Payloads shorter than this are copied into the surrounding head part
/// even on the scatter-gather path: below it one more iovec and refcount
/// cost more than the copy (an enumerated `Write` can carry thousands of
/// 64-byte ranges).
const SPLIT_MIN: usize = 1024;

/// Where `Wire::put` writes. Scalars, strings and patterns go to `head`;
/// a bulk payload is either copied in behind them (contiguous encoding)
/// or, when `split` is set, closes the head and rides as a refcounted part
/// of its own. One encoder per type serves both shapes, so the parts
/// always concatenate to the contiguous encoding.
pub(crate) struct Parts {
    done: Vec<Bytes>,
    head: BytesMut,
    split: bool,
}

impl Parts {
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
}

/// `x`'s encoding appended to `buf`, in one piece.
pub(crate) fn put_into<T: Wire>(x: &T, buf: &mut BytesMut) {
    let mut out = Parts {
        done: Vec::new(),
        head: std::mem::take(buf),
        split: false,
    };
    x.put(&mut out);
    *buf = out.head;
}

fn contiguous<T: Wire>(x: &T) -> Bytes {
    let mut buf = BytesMut::new();
    put_into(x, &mut buf);
    buf.freeze()
}

fn parts<T: Wire>(x: &T) -> Vec<Bytes> {
    let mut out = Parts {
        done: Vec::new(),
        head: BytesMut::new(),
        split: true,
    };
    x.put(&mut out);
    if !out.head.is_empty() {
        out.done.push(out.head.freeze());
    }
    out.done
}

/// One `T` that is all of `buf`: trailing bytes are refused.
fn whole<T: Wire>(mut buf: Bytes) -> Result<T, FrameError> {
    let x = T::get(&mut buf)?;
    if buf.has_remaining() {
        return Err(FrameError::BadMessage(format!(
            "{} trailing bytes",
            buf.remaining()
        )));
    }
    Ok(x)
}

/// A value's wire form, written once per shape: integers little-endian, a
/// string as a `u32` length then its bytes, a byte payload as a `u64`
/// length then its bytes, a list as a `u32` count then its items, an
/// option as a 0/1 byte then the value, a row or a tuple as its fields in
/// order, an enum as its `wire_enum!` row.
pub(crate) trait Wire: Sized {
    fn put(&self, out: &mut Parts);
    fn get(buf: &mut Bytes) -> Result<Self, FrameError>;
}

fn short(what: &str) -> FrameError {
    FrameError::BadMessage(format!("short {what}"))
}

macro_rules! wire_ints {
    ($($int:ty: $put:ident $get:ident)*) => {$(
        impl Wire for $int {
            fn put(&self, out: &mut Parts) {
                out.head.$put(*self);
            }
            fn get(buf: &mut Bytes) -> Result<$int, FrameError> {
                if buf.remaining() < std::mem::size_of::<$int>() {
                    return Err(short("message"));
                }
                Ok(buf.$get())
            }
        }
    )*};
}

wire_ints! {
    u8: put_u8 get_u8
    u32: put_u32_le get_u32_le
    u64: put_u64_le get_u64_le
}

impl Wire for bool {
    fn put(&self, out: &mut Parts) {
        (*self as u8).put(out);
    }
    fn get(buf: &mut Bytes) -> Result<bool, FrameError> {
        Ok(u8::get(buf)? != 0)
    }
}

impl Wire for i64 {
    fn put(&self, out: &mut Parts) {
        (*self as u64).put(out);
    }
    fn get(buf: &mut Bytes) -> Result<i64, FrameError> {
        Ok(u64::get(buf)? as i64)
    }
}

/// The code's byte; one this side does not know decodes as `Unknown`.
impl Wire for ErrorCode {
    fn put(&self, out: &mut Parts) {
        self.to_u8().put(out);
    }
    fn get(buf: &mut Bytes) -> Result<ErrorCode, FrameError> {
        u8::get(buf).map(ErrorCode::from_u8)
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

impl Wire for String {
    fn put(&self, out: &mut Parts) {
        put_str(&mut out.head, self);
    }
    fn get(buf: &mut Bytes) -> Result<String, FrameError> {
        let len = u32::get(buf)? as usize;
        if buf.remaining() < len {
            return Err(short("string"));
        }
        String::from_utf8(buf.split_to(len).to_vec())
            .map_err(|_| FrameError::BadMessage("invalid utf-8".into()))
    }
}

/// A bulk payload: on the scatter-gather path one of 1 KiB or more rides
/// as its own refcounted part (`Parts::put_bytes`); decoding slices it
/// out of the frame without a copy.
impl Wire for Bytes {
    fn put(&self, out: &mut Parts) {
        out.put_bytes(self);
    }
    fn get(buf: &mut Bytes) -> Result<Bytes, FrameError> {
        let len = u64::get(buf)?;
        if (buf.remaining() as u64) < len {
            return Err(short("byte chunk"));
        }
        Ok(buf.split_to(len as usize))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Parts) {
        (self.len() as u32).put(out);
        for x in self {
            x.put(out);
        }
    }
    fn get(buf: &mut Bytes) -> Result<Vec<T>, FrameError> {
        let n = u32::get(buf)? as usize;
        // Every item takes at least a byte: a hostile count reserves no
        // more than the rest of the message could hold.
        let mut xs = Vec::with_capacity(n.min(buf.remaining()).min(1 << 16));
        for _ in 0..n {
            xs.push(T::get(buf)?);
        }
        Ok(xs)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Parts) {
        self.is_some().put(out);
        if let Some(x) = self {
            x.put(out);
        }
    }
    fn get(buf: &mut Bytes) -> Result<Option<T>, FrameError> {
        Ok(if bool::get(buf)? {
            Some(T::get(buf)?)
        } else {
            None
        })
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Parts) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(buf: &mut Bytes) -> Result<(A, B), FrameError> {
        Ok((A::get(buf)?, B::get(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, out: &mut Parts) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn get(buf: &mut Bytes) -> Result<(A, B, C), FrameError> {
        Ok((A::get(buf)?, B::get(buf)?, C::get(buf)?))
    }
}

/// Rows travel as their fields, in the order listed. The invoking module
/// names `Wire`, `Parts`, `Bytes` and `FrameError`.
macro_rules! wire_rows {
    ($($row:ident { $($field:ident),* })*) => {$(
        impl Wire for $row {
            fn put(&self, out: &mut Parts) {
                $(self.$field.put(out);)*
            }
            fn get(buf: &mut Bytes) -> Result<$row, FrameError> {
                Ok($row { $($field: Wire::get(buf)?),* })
            }
        }
    )*};
}

/// An enum travels as a one-byte tag, then the variant's fields in the
/// order listed: `tag Variant`, `tag Variant { fields }` or `tag
/// Variant(value)`. One table writes both directions; the encoder's match
/// is exhaustive, so a variant the table misses does not compile, and a
/// tag it does not list (a retired one included) does not decode. The
/// invoking module names `Wire`, `Parts`, `Bytes` and `FrameError`.
macro_rules! wire_enum {
    ($enum:ident, $what:literal,
     $($tag:literal $variant:ident $({ $($field:ident),* })? $(($value:ident))?)*) => {
        impl Wire for $enum {
            fn put(&self, out: &mut Parts) {
                match self {
                    $($enum::$variant $({ $($field),* })? $(($value))? => {
                        <u8 as Wire>::put(&$tag, out);
                        $($($field.put(out);)*)?
                        $($value.put(out);)?
                    })*
                }
            }
            fn get(buf: &mut Bytes) -> Result<$enum, FrameError> {
                Ok(match <u8 as Wire>::get(buf)? {
                    $($tag => $enum::$variant
                        $({ $($field: Wire::get(buf)?),* })?
                        $(({ let $value = Wire::get(buf)?; $value }))?,)*
                    other => {
                        return Err(FrameError::BadMessage(format!("bad {} tag {other}", $what)))
                    }
                })
            }
        }
    };
}

pub(crate) use {wire_enum, wire_rows};

// Request tag 6 (a subfile resize) and response tags 3 (a per-range chunk
// list) and 6 (the resize's reply) are retired, not reassigned: an older
// peer's message is refused instead of decoding to another verb or shape.
wire_enum! { Request, "request",
    1 Ping
    2 Write { subfile, ranges }
    3 Read { subfile, ranges }
    4 Delete { subfile }
    5 Stat { subfile }
    7 Sync { subfile }
    8 Shutdown
    9 Stats
    10 Meta { op }
    11 ReadList { subfile, pattern }
    12 WriteList { subfile, pattern, payload }
    13 Rename { from, to }
}

wire_enum! { Response, "response",
    1 Pong
    2 Written { bytes }
    4 Deleted { existed }
    5 Stat { exists, size }
    7 Error { code, message }
    8 Stats { payload }
    9 Meta { shard, result }
    10 DataList { data }
    11 Renamed { existed }
}

impl Request {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Bytes {
        contiguous(self)
    }

    /// Encode as a list of byte slices whose concatenation equals
    /// [`Request::encode`]. Bulk payloads (`WriteList`'s gathered bytes,
    /// `Write`'s larger ranges) come back as their own refcounted parts,
    /// untouched — the transport hands all parts to one `write_vectored`
    /// frame write, so a payload is never copied into a message buffer on
    /// the hot path. Everything else is a single part.
    pub fn encode_parts(&self) -> Vec<Bytes> {
        parts(self)
    }

    /// Decode from a frame payload, then check it (`Request::check`).
    pub fn decode(buf: Bytes) -> Result<Request, FrameError> {
        let req: Request = whole(buf)?;
        req.check()?;
        Ok(req)
    }

    /// The bounds a decoded request meets before anyone acts on it (a
    /// pattern checks its own as it decodes): a `Write` range ends inside
    /// the offset space, since the store adds the two; a `Read` asks for at
    /// most one frame, since the server allocates what it asks for; a
    /// `WriteList` payload is what its pattern covers.
    fn check(&self) -> Result<(), FrameError> {
        let refuse = |why: String| Err(FrameError::BadMessage(why));
        match self {
            Request::Write { ranges, .. }
                if ranges
                    .iter()
                    .any(|(off, data)| off.checked_add(data.len() as u64).is_none()) =>
            {
                refuse("write range overflows the offset space".into())
            }
            Request::Read { ranges, .. }
                if ranges
                    .iter()
                    .try_fold(0, |total, &(_, len)| within_one_frame(total, len))
                    .is_none() =>
            {
                refuse("read covers more than one frame".into())
            }
            Request::WriteList {
                pattern, payload, ..
            } if payload.len() as u64 != pattern.total_bytes() => refuse(format!(
                "write-list payload of {} bytes for a pattern of {}",
                payload.len(),
                pattern.total_bytes()
            )),
            _ => Ok(()),
        }
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
    /// Encode to a frame payload.
    pub fn encode(&self) -> Bytes {
        contiguous(self)
    }

    /// Encode as a list of byte slices whose concatenation equals
    /// [`Response::encode`]: the reply-side twin of
    /// [`Request::encode_parts`]. Read data (the `DataList` payload) and
    /// `Stats` blobs come back as refcounted parts behind a
    /// small head, so the server queues the very buffer it read the
    /// subfile into instead of copying it into a message.
    pub fn encode_parts(&self) -> Vec<Bytes> {
        parts(self)
    }

    /// Decode from a frame payload.
    pub fn decode(buf: Bytes) -> Result<Response, FrameError> {
        whole(buf)
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
        round_trip_resp(Response::Deleted { existed: true });
        round_trip_resp(Response::Stat {
            exists: false,
            size: 0,
        });
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

    /// Tag 6 (resize a subfile, and its bare reply) is retired, not
    /// reassigned: an older peer's message is refused instead of decoding
    /// to another verb.
    #[test]
    fn retired_resize_tags_are_rejected() {
        let mut old = vec![6u8, 1, 0, 0, 0, b'f'];
        old.extend_from_slice(&4096u64.to_le_bytes());
        assert!(Request::decode(Bytes::from(old)).is_err());
        assert!(Response::decode(Bytes::from_static(&[6])).is_err());
    }

    /// Tag 3 (one length-prefixed chunk per range, the old answer to an
    /// enumerated `Read`) is retired: every read is answered by `DataList`,
    /// and an older peer's chunk list is refused instead of decoding to
    /// another reply.
    #[test]
    fn retired_chunk_list_tag_is_rejected() {
        let mut old = vec![3u8, 1, 0, 0, 0];
        old.extend_from_slice(&3u64.to_le_bytes());
        old.extend_from_slice(b"xyz");
        assert!(Response::decode(Bytes::from(old)).is_err());
        assert!(Response::decode(Bytes::from_static(&[3, 0, 0, 0, 0])).is_err());
    }

    /// A `Write` range whose end does not fit the offset space is refused
    /// at decode, like a pattern's: the store computes that end.
    #[test]
    fn write_range_overflowing_the_offset_space_is_rejected() {
        let at = |off: u64| {
            Request::Write {
                subfile: "f".into(),
                ranges: vec![
                    (0, Bytes::from_static(b"ok")),
                    (off, Bytes::from_static(b"xy")),
                ],
            }
            .encode()
        };
        assert!(Request::decode(at(u64::MAX - 1)).is_err());
        assert!(Request::decode(at(u64::MAX)).is_err());
        assert!(Request::decode(at(u64::MAX - 2)).is_ok());
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
