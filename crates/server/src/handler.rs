//! Request dispatch: protocol request → subfile store operation → response.

use std::sync::atomic::Ordering;
use std::time::Duration;

use dpfs_obs::{now_ns, ring, Side, TraceEvent};
use dpfs_proto::{ErrorCode, Request, Response};
use parking_lot::Mutex;

use crate::perf::PerfModel;
use crate::stats::ServerStats;
use crate::subfile::{StoreError, SubfileStore};

/// Record one server-side span into the global trace ring. No-op when
/// `trace_id` is 0 (untraced request), so call sites need no branches.
pub(crate) fn server_event(
    trace_id: u64,
    phase: &'static str,
    kind: &'static str,
    server: &str,
    start_ns: u64,
    dur_ns: u64,
    bytes: u64,
) {
    if trace_id == 0 {
        return;
    }
    ring().record(TraceEvent {
        seq: 0,
        trace_id,
        side: Side::Server,
        phase,
        kind,
        server: server.to_string(),
        start_ns,
        dur_ns,
        bytes,
    });
}

/// Shared per-server handler state. Connection threads and per-connection
/// workers all dispatch through one `Handler`; the `device` lock serializes
/// only the *device-bound* part of the injected delay (seeks + payload
/// streaming), modeling the sequential storage device underneath concurrent
/// request handling (paper §4.2) — the per-request overhead part overlaps
/// across concurrent requests. The store I/O itself runs outside the device
/// lock — per-subfile locks inside [`SubfileStore`] provide the necessary
/// mutual exclusion, so unthrottled servers serve distinct subfiles fully
/// in parallel.
pub struct Handler {
    /// Server name, stamped on this server's trace events.
    name: String,
    store: SubfileStore,
    perf: PerfModel,
    stats: ServerStats,
    device: Mutex<()>,
}

impl Handler {
    /// Build a handler over a store with a delay model. `name` labels this
    /// server's trace events.
    pub fn new(name: impl Into<String>, store: SubfileStore, perf: PerfModel) -> Self {
        Handler {
            name: name.into(),
            store,
            perf,
            stats: ServerStats::default(),
            device: Mutex::new(()),
        }
    }

    /// The server name trace events are stamped with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The server's statistics counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The subfile store (tests & the testbed reach through for inspection).
    pub fn store(&self) -> &SubfileStore {
        &self.store
    }

    /// A stats snapshot with store-level counters folded in: the
    /// `subfiles_reopened` count lives in the [`SubfileStore`], not in the
    /// request-path counters, so snapshots built here see both.
    pub fn stats_snapshot(&self) -> crate::stats::StatsSnapshot {
        let mut snap = self.stats.snapshot();
        snap.subfiles_reopened = self.store.reopened();
        snap
    }

    /// Sleep out the modeled service time. The per-request overhead
    /// (`request_latency`: network RTT, dispatch, thread handoff) sleeps
    /// *outside* the device lock — concurrent requests overlap it, which is
    /// what pipelined connections buy — while the device-bound part (seeks
    /// plus payload streaming) sleeps *inside* the lock, so concurrent
    /// requests to one server still queue for its (simulated) sequential
    /// storage device. Unthrottled servers skip both entirely.
    fn inject_delay(&self, ranges: usize, bytes: u64, trace_id: u64, kind: &'static str) {
        if self.perf.is_unthrottled() {
            return;
        }
        let overhead = self.perf.request_latency;
        if overhead > Duration::ZERO {
            self.stats
                .injected_delay_ns
                .fetch_add(overhead.as_nanos() as u64, Ordering::Relaxed);
            let t0 = now_ns();
            std::thread::sleep(overhead);
            server_event(
                trace_id,
                "delay",
                kind,
                &self.name,
                t0,
                now_ns().saturating_sub(t0),
                bytes,
            );
        }
        let dev = self.perf.device_time(ranges, bytes);
        if dev > Duration::ZERO {
            // The device span covers lock wait + hold: queueing for the
            // (simulated) sequential device is device time from the
            // request's point of view.
            let t0 = now_ns();
            let _dev = self.device.lock();
            self.stats
                .injected_delay_ns
                .fetch_add(dev.as_nanos() as u64, Ordering::Relaxed);
            std::thread::sleep(dev);
            server_event(
                trace_id,
                "device",
                kind,
                &self.name,
                t0,
                now_ns().saturating_sub(t0),
                bytes,
            );
        }
    }

    /// Handle one request, producing exactly one response. Never panics on
    /// malformed input; store errors map to protocol error codes.
    pub fn handle(&self, req: Request) -> Response {
        self.handle_traced(req, 0)
    }

    /// [`Handler::handle`] for a request stamped with `trace_id` (0 =
    /// untraced): records a `handle` span plus `delay`/`device` sub-spans
    /// into the global trace ring, the service time into the per-kind
    /// histogram, and the in-flight gauge around the whole dispatch.
    pub fn handle_traced(&self, req: Request, trace_id: u64) -> Response {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let kind = req.kind_str();
        let bytes = req.payload_bytes();
        let t0 = now_ns();
        let resp = self.dispatch(req, trace_id);
        let dur = now_ns().saturating_sub(t0);
        self.stats.hist_for(kind).record(dur);
        server_event(trace_id, "handle", kind, &self.name, t0, dur, bytes);
        dpfs_obs::slowlog().note(
            dpfs_obs::Side::Server,
            kind,
            &self.name,
            trace_id,
            dur,
            bytes,
        );
        self.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        resp
    }

    fn dispatch(&self, req: Request, trace_id: u64) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Write { subfile, ranges } => {
                let bytes: u64 = ranges.iter().map(|(_, d)| d.len() as u64).sum();
                let nranges = ranges.len();
                self.inject_delay(nranges, bytes, trace_id, "write");
                match self.store.write_ranges(&subfile, &ranges) {
                    Ok(n) => {
                        self.stats.writes.fetch_add(1, Ordering::Relaxed);
                        self.stats.bytes_written.fetch_add(n, Ordering::Relaxed);
                        Response::Written { bytes: n }
                    }
                    Err(e) => self.error_response(e),
                }
            }
            Request::Read { subfile, ranges } => {
                let bytes: u64 = ranges.iter().map(|(_, l)| *l).sum();
                let nranges = ranges.len();
                self.inject_delay(nranges, bytes, trace_id, "read");
                match self.store.read_ranges(&subfile, &ranges) {
                    Ok(chunks) => {
                        self.stats.reads.fetch_add(1, Ordering::Relaxed);
                        self.stats.bytes_read.fetch_add(bytes, Ordering::Relaxed);
                        Response::Data { chunks }
                    }
                    // A subfile that was never written is all holes: reads
                    // come back zero-filled, exactly like reading a sparse
                    // region of an existing subfile. (`Stat` still reports
                    // exists=false, so fsck can tell the difference.)
                    Err(StoreError::NotFound) => {
                        self.stats.reads.fetch_add(1, Ordering::Relaxed);
                        self.stats.bytes_read.fetch_add(bytes, Ordering::Relaxed);
                        Response::Data {
                            chunks: ranges
                                .iter()
                                .map(|&(_, len)| bytes::Bytes::from(vec![0u8; len as usize]))
                                .collect(),
                        }
                    }
                    Err(e) => self.error_response(e),
                }
            }
            Request::Delete { subfile } => match self.store.delete(&subfile) {
                Ok(existed) => Response::Deleted { existed },
                Err(e) => self.error_response(e),
            },
            Request::Rename { from, to } => match self.store.rename(&from, &to) {
                Ok(existed) => Response::Renamed { existed },
                Err(e) => self.error_response(e),
            },
            Request::Stat { subfile } => match self.store.stat(&subfile) {
                Ok((exists, size)) => Response::Stat { exists, size },
                Err(e) => self.error_response(e),
            },
            Request::Truncate { subfile, size } => match self.store.truncate(&subfile, size) {
                Ok(()) => Response::Truncated,
                Err(e) => self.error_response(e),
            },
            Request::Sync { subfile } => {
                match self.store.sync(&subfile) {
                    Ok(()) => Response::Pong,
                    Err(StoreError::NotFound) => Response::Pong, // nothing to flush
                    Err(e) => self.error_response(e),
                }
            }
            Request::Shutdown => Response::Pong,
            Request::Stats => Response::Stats {
                payload: bytes::Bytes::from(self.stats_snapshot().encode()),
            },
            // Server-side list I/O: the client shipped one compact access
            // pattern; expand it against the local subfile and answer with
            // one coalesced payload — no per-range request bytes in, no
            // per-chunk framing out.
            Request::ReadList { subfile, pattern } => {
                let bytes = pattern.total_bytes();
                let ranges = pattern.expand();
                self.inject_delay(ranges.len(), bytes, trace_id, "read_list");
                match self.store.read_ranges_coalesced(&subfile, &ranges) {
                    Ok(data) => {
                        self.stats.list_reads.fetch_add(1, Ordering::Relaxed);
                        self.stats.bytes_read.fetch_add(bytes, Ordering::Relaxed);
                        Response::DataList { data }
                    }
                    // Sparse semantics, as for `Read`: an absent subfile is
                    // all holes.
                    Err(StoreError::NotFound) => {
                        self.stats.list_reads.fetch_add(1, Ordering::Relaxed);
                        self.stats.bytes_read.fetch_add(bytes, Ordering::Relaxed);
                        Response::DataList {
                            data: bytes::Bytes::from(vec![0u8; bytes as usize]),
                        }
                    }
                    Err(e) => self.error_response(e),
                }
            }
            Request::WriteList {
                subfile,
                pattern,
                payload,
            } => {
                // The codec already enforces payload == pattern bytes on
                // decoded requests; re-check here so in-process callers
                // (testbed, tests) get the same contract.
                if payload.len() as u64 != pattern.total_bytes() {
                    self.stats.errors.fetch_add(1, Ordering::Relaxed);
                    return Response::Error {
                        code: ErrorCode::BadRequest,
                        message: format!(
                            "write-list payload of {} bytes for a pattern of {}",
                            payload.len(),
                            pattern.total_bytes()
                        ),
                    };
                }
                let ranges = pattern.expand();
                self.inject_delay(ranges.len(), payload.len() as u64, trace_id, "write_list");
                // Scatter the gathered payload: each range gets a
                // refcounted slice of it — no copies on the way to disk.
                let mut at = 0usize;
                let scatter: Vec<(u64, bytes::Bytes)> = ranges
                    .iter()
                    .map(|&(off, len)| {
                        let slice = payload.slice(at..at + len as usize);
                        at += len as usize;
                        (off, slice)
                    })
                    .collect();
                match self.store.write_ranges(&subfile, &scatter) {
                    Ok(n) => {
                        self.stats.list_writes.fetch_add(1, Ordering::Relaxed);
                        self.stats.bytes_written.fetch_add(n, Ordering::Relaxed);
                        Response::Written { bytes: n }
                    }
                    Err(e) => self.error_response(e),
                }
            }
            // I/O servers do not own the catalog; metadata belongs to
            // dpfs-metad. A client that dials the wrong port gets a clean
            // protocol error, not a hung connection.
            Request::Meta { op } => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("{} sent to an I/O server", op.op_str()),
                }
            }
        }
    }

    fn error_response(&self, e: StoreError) -> Response {
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        let (code, message) = match e {
            StoreError::NotFound => (ErrorCode::NoSuchSubfile, "no such subfile".to_string()),
            StoreError::NoSpace { capacity, needed } => (
                ErrorCode::NoSpace,
                format!("capacity {capacity} bytes exceeded, needed {needed}"),
            ),
            StoreError::Io(e) => (ErrorCode::IoFailure, e.to_string()),
        };
        Response::Error { code, message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn handler() -> (Handler, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "dpfs-handler-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SubfileStore::open(&dir, 0).unwrap();
        (Handler::new("test", store, PerfModel::unthrottled()), dir)
    }

    #[test]
    fn ping_pong() {
        let (h, dir) = handler();
        assert_eq!(h.handle(Request::Ping), Response::Pong);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn write_then_read() {
        let (h, dir) = handler();
        let resp = h.handle(Request::Write {
            subfile: "/f".into(),
            ranges: vec![(0, Bytes::from_static(b"data!"))],
        });
        assert_eq!(resp, Response::Written { bytes: 5 });
        let resp = h.handle(Request::Read {
            subfile: "/f".into(),
            ranges: vec![(0, 5)],
        });
        match resp {
            Response::Data { chunks } => assert_eq!(&chunks[0][..], b"data!"),
            other => panic!("unexpected {other:?}"),
        }
        let snap = h.stats().snapshot();
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.bytes_written, 5);
        assert_eq!(snap.bytes_read, 5);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn read_missing_subfile_returns_zeros() {
        // sparse semantics: never-written subfiles read as holes
        let (h, dir) = handler();
        let resp = h.handle(Request::Read {
            subfile: "/missing".into(),
            ranges: vec![(0, 4), (100, 2)],
        });
        match resp {
            Response::Data { chunks } => {
                assert_eq!(&chunks[0][..], &[0u8; 4]);
                assert_eq!(&chunks[1][..], &[0u8; 2]);
            }
            other => panic!("expected zero data, got {other:?}"),
        }
        assert_eq!(h.stats().snapshot().errors, 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn stat_delete_truncate() {
        let (h, dir) = handler();
        h.handle(Request::Write {
            subfile: "/f".into(),
            ranges: vec![(0, Bytes::from_static(b"abcd"))],
        });
        assert_eq!(
            h.handle(Request::Stat {
                subfile: "/f".into()
            }),
            Response::Stat {
                exists: true,
                size: 4
            }
        );
        assert_eq!(
            h.handle(Request::Truncate {
                subfile: "/f".into(),
                size: 2
            }),
            Response::Truncated
        );
        assert_eq!(
            h.handle(Request::Stat {
                subfile: "/f".into()
            }),
            Response::Stat {
                exists: true,
                size: 2
            }
        );
        let rename = |from: &str, to: &str| {
            h.handle(Request::Rename {
                from: from.into(),
                to: to.into(),
            })
        };
        assert_eq!(rename("/f", "/g"), Response::Renamed { existed: true });
        assert_eq!(rename("/f", "/g"), Response::Renamed { existed: false });
        assert_eq!(rename("/g", "/f"), Response::Renamed { existed: true });
        assert_eq!(
            h.handle(Request::Delete {
                subfile: "/f".into()
            }),
            Response::Deleted { existed: true }
        );
        assert_eq!(
            h.handle(Request::Delete {
                subfile: "/f".into()
            }),
            Response::Deleted { existed: false }
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn stats_request_returns_decodable_snapshot() {
        use crate::stats::StatsSnapshot;
        let (h, dir) = handler();
        h.handle(Request::Write {
            subfile: "/f".into(),
            ranges: vec![(0, Bytes::from_static(b"1234"))],
        });
        let resp = h.handle(Request::Stats);
        let Response::Stats { payload } = resp else {
            panic!("expected Stats response, got {resp:?}");
        };
        let snap = StatsSnapshot::decode(&payload).unwrap();
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.bytes_written, 4);
        assert_eq!(snap.write_latency.count, 1);
        // The Stats request itself was counted before the snapshot was
        // taken, but its histogram sample lands after.
        assert_eq!(snap.requests, 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn traced_handle_records_server_events() {
        let (h, dir) = handler();
        let trace_id = dpfs_obs::next_trace_id();
        let cursor = dpfs_obs::ring().cursor();
        h.handle_traced(
            Request::Read {
                subfile: "/f".into(),
                ranges: vec![(0, 8)],
            },
            trace_id,
        );
        let events: Vec<_> = dpfs_obs::ring()
            .events_since(cursor)
            .into_iter()
            .filter(|e| e.trace_id == trace_id)
            .collect();
        assert!(
            events
                .iter()
                .any(|e| e.phase == "handle" && e.kind == "read" && e.server == "test"),
            "missing handle event in {events:?}"
        );
        assert_eq!(h.stats().snapshot().read_latency.count, 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn list_write_then_list_read_round_trips() {
        use dpfs_proto::AccessPattern;
        let (h, dir) = handler();
        // Four 8-byte blocks every 32 bytes: compresses to one Vector seg.
        let ranges: Vec<(u64, u64)> = (0..4).map(|i| (i * 32, 8)).collect();
        let pattern = AccessPattern::from_runs(&ranges);
        let payload: Vec<u8> = (0..32u8).collect();
        let resp = h.handle(Request::WriteList {
            subfile: "/lf".into(),
            pattern: pattern.clone(),
            payload: Bytes::from(payload.clone()),
        });
        assert_eq!(resp, Response::Written { bytes: 32 });
        let resp = h.handle(Request::ReadList {
            subfile: "/lf".into(),
            pattern: pattern.clone(),
        });
        match resp {
            Response::DataList { data } => assert_eq!(&data[..], &payload[..]),
            other => panic!("unexpected {other:?}"),
        }
        // The coalesced list read must agree with an enumerated read of the
        // same ranges.
        let resp = h.handle(Request::Read {
            subfile: "/lf".into(),
            ranges,
        });
        let Response::Data { chunks } = resp else {
            panic!("expected Data");
        };
        let enumerated: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
        assert_eq!(enumerated, payload);
        let snap = h.stats().snapshot();
        assert_eq!(snap.list_writes, 1);
        assert_eq!(snap.list_reads, 1);
        assert_eq!(snap.bytes_written, 32);
        assert_eq!(snap.bytes_read, 64); // 32 list + 32 enumerated
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn list_read_missing_subfile_returns_zeros() {
        use dpfs_proto::AccessPattern;
        let (h, dir) = handler();
        let pattern = AccessPattern::from_runs(&[(16, 4), (64, 12)]);
        let resp = h.handle(Request::ReadList {
            subfile: "/missing".into(),
            pattern,
        });
        match resp {
            Response::DataList { data } => assert_eq!(&data[..], &[0u8; 16]),
            other => panic!("expected zero data, got {other:?}"),
        }
        let snap = h.stats().snapshot();
        assert_eq!(snap.errors, 0);
        assert_eq!(snap.list_reads, 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn list_read_past_eof_zero_fills_tail() {
        use dpfs_proto::AccessPattern;
        let (h, dir) = handler();
        h.handle(Request::Write {
            subfile: "/short".into(),
            ranges: vec![(0, Bytes::from_static(b"abcdef"))],
        });
        // Second range starts inside the file and runs past EOF; third is
        // entirely past EOF.
        let pattern = AccessPattern::from_runs(&[(0, 2), (4, 4), (100, 3)]);
        let resp = h.handle(Request::ReadList {
            subfile: "/short".into(),
            pattern,
        });
        match resp {
            Response::DataList { data } => {
                assert_eq!(&data[..], b"abef\0\0\0\0\0");
            }
            other => panic!("unexpected {other:?}"),
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn list_write_payload_mismatch_is_bad_request() {
        use dpfs_proto::AccessPattern;
        let (h, dir) = handler();
        let pattern = AccessPattern::from_runs(&[(0, 8)]);
        let resp = h.handle(Request::WriteList {
            subfile: "/lf".into(),
            pattern,
            payload: Bytes::from_static(b"tiny"),
        });
        match resp {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        let snap = h.stats().snapshot();
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.list_writes, 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn list_requests_route_to_rw_histograms() {
        use dpfs_proto::AccessPattern;
        let (h, dir) = handler();
        let pattern = AccessPattern::from_runs(&[(0, 4)]);
        h.handle_traced(
            Request::WriteList {
                subfile: "/lf".into(),
                pattern: pattern.clone(),
                payload: Bytes::from_static(b"1234"),
            },
            0,
        );
        h.handle_traced(
            Request::ReadList {
                subfile: "/lf".into(),
                pattern,
            },
            0,
        );
        let snap = h.stats().snapshot();
        assert_eq!(snap.write_latency.count, 1);
        assert_eq!(snap.read_latency.count, 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn sync_of_missing_subfile_is_ok() {
        let (h, dir) = handler();
        assert_eq!(
            h.handle(Request::Sync {
                subfile: "/nope".into()
            }),
            Response::Pong
        );
        std::fs::remove_dir_all(dir).unwrap();
    }
}
