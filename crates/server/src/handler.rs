//! Request dispatch: protocol request → subfile store operation → response.

use std::sync::atomic::Ordering;

use bytes::Bytes;
use dpfs_obs::{now_ns, record_span, ClusterSnapshot, Side};
use dpfs_proto::{split_payload, ErrorCode, Request, Response};

use crate::service::Attempt;
use crate::stats::ServerStats;
use crate::subfile::{StoreError, SubfileStore};

/// Shared per-server handler state. Connection threads and per-connection
/// workers all dispatch through one `Handler`; per-subfile locks inside
/// [`SubfileStore`] provide the mutual exclusion, so distinct subfiles are
/// served fully in parallel.
pub struct Handler {
    /// Server name, stamped on this server's trace events.
    name: String,
    store: SubfileStore,
    stats: ServerStats,
}

impl Handler {
    /// Build a handler over a store. `name` labels this server's trace
    /// events.
    pub fn new(name: impl Into<String>, store: SubfileStore) -> Self {
        Handler {
            name: name.into(),
            store,
            stats: ServerStats::default(),
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

    /// Handle one request, producing exactly one response. Never panics on
    /// malformed input; store errors map to protocol error codes.
    pub fn handle(&self, req: Request) -> Response {
        self.handle_traced(req, 0)
    }

    /// [`Handler::handle`] for a request stamped with `trace_id` (0 =
    /// untraced): records a `handle` span into the global trace ring, the
    /// service time into the per-kind histogram, and the in-flight gauge
    /// around the whole dispatch.
    pub fn handle_traced(&self, req: Request, trace_id: u64) -> Response {
        self.serve(req, trace_id, now_ns(), None)
    }

    /// [`Handler::handle_traced`] of a `Read` or `ReadList` on a thread that
    /// must not wait — an I/O shard's: answered only from an open
    /// descriptor and the page cache. A read that would wait is handed back
    /// before anything is counted; whoever handles it then counts it, once.
    pub(crate) fn read_nowait(&self, req: Request, trace_id: u64) -> Attempt {
        let t0 = now_ns();
        let cached = match &req {
            Request::Read { subfile, ranges } => self.store.read_ranges_nowait(subfile, ranges),
            Request::ReadList { subfile, pattern } => {
                self.store.read_ranges_nowait(subfile, &pattern.expand())
            }
            _ => Ok(None),
        };
        match cached.transpose() {
            None => Attempt::HandedBack(req),
            cached => Attempt::Answered(self.serve(req, trace_id, t0, cached)),
        }
    }

    /// Count, time and trace one request from `t0` on; `cached` is a read's
    /// outcome when the caller already read its bytes without waiting.
    fn serve(
        &self,
        req: Request,
        trace_id: u64,
        t0: u64,
        cached: Option<Result<Bytes, StoreError>>,
    ) -> Response {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let kind = req.kind_str();
        let bytes = req.payload_bytes();
        let resp = self.dispatch(req, cached);
        let dur = now_ns().saturating_sub(t0);
        self.stats.hist_for(kind).record(dur);
        record_span(
            Side::Server,
            trace_id,
            "handle",
            kind,
            &self.name,
            t0,
            dur,
            bytes,
        );
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

    fn dispatch(&self, req: Request, cached: Option<Result<Bytes, StoreError>>) -> Response {
        match req {
            Request::Ping => Response::Pong,
            // Every write, enumerated or pattern, lands alike: one range
            // list, each range's bytes a refcounted slice of what arrived —
            // no copies on the way to disk. The request kind picks only the
            // counter and the labels.
            write @ (Request::Write { .. } | Request::WriteList { .. }) => {
                let (subfile, ranges, writes) = match write {
                    Request::Write { subfile, ranges } => (subfile, ranges, &self.stats.writes),
                    Request::WriteList {
                        subfile,
                        pattern,
                        payload,
                    } => {
                        // The codec already enforces payload == pattern
                        // bytes on decoded requests; re-check here so
                        // in-process callers (testbed, tests) get the same
                        // contract.
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
                        let ranges = split_payload(&payload, &pattern.expand());
                        (subfile, ranges, &self.stats.list_writes)
                    }
                    _ => unreachable!("matched a write"),
                };
                match self.store.write_ranges(&subfile, &ranges) {
                    Ok(n) => {
                        writes.fetch_add(1, Ordering::Relaxed);
                        self.stats.bytes_written.fetch_add(n, Ordering::Relaxed);
                        Response::Written { bytes: n }
                    }
                    Err(e) => self.error_response(e),
                }
            }
            // Every read, enumerated or pattern, is answered alike: the
            // ranges' bytes back to back in one payload. The request kind
            // picks only the counter and the labels. A read a shard served
            // from the page cache arrives with its bytes (`cached`).
            read @ (Request::Read { .. } | Request::ReadList { .. }) => {
                let bytes = read.payload_bytes();
                let reads = match read {
                    Request::Read { .. } => &self.stats.reads,
                    _ => &self.stats.list_reads,
                };
                let data = cached.unwrap_or_else(|| {
                    let (subfile, ranges) = match read {
                        Request::Read { subfile, ranges } => (subfile, ranges),
                        Request::ReadList { subfile, pattern } => (subfile, pattern.expand()),
                        _ => unreachable!("matched a read"),
                    };
                    self.store.read_ranges_coalesced(&subfile, &ranges)
                });
                let data = match data {
                    Ok(data) => data,
                    // A subfile that was never written is all holes: reads
                    // come back zero-filled, exactly like reading a sparse
                    // region of an existing subfile. (`Stat` still reports
                    // exists=false, so fsck can tell the difference.)
                    Err(StoreError::NotFound) => Bytes::from(vec![0u8; bytes as usize]),
                    Err(e) => return self.error_response(e),
                };
                reads.fetch_add(1, Ordering::Relaxed);
                self.stats.bytes_read.fetch_add(bytes, Ordering::Relaxed);
                Response::DataList { data }
            }
            Request::Delete { subfile } => match self.store.delete(&subfile) {
                Ok(existed) => Response::Deleted { existed },
                Err(e) => self.error_response(e),
            },
            Request::Stat { subfile } => match self.store.stat(&subfile) {
                Ok((exists, size)) => Response::Stat { exists, size },
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
                payload: Bytes::from(
                    ClusterSnapshot {
                        nodes: vec![self.stats_snapshot().node(&self.name)],
                    }
                    .encode(),
                ),
            },
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

    fn handler() -> (Handler, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "dpfs-handler-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SubfileStore::open(&dir, 0).unwrap();
        (Handler::new("test", store), dir)
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
        assert_eq!(
            resp,
            Response::DataList {
                data: Bytes::from_static(b"data!")
            }
        );
        let snap = h.stats().snapshot();
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.bytes_written, 5);
        assert_eq!(snap.bytes_read, 5);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Holes read as zeros in the one reply shape: an enumerated read of a
    /// subfile never written, and one past the end of a short subfile, each
    /// answer one zero-filled payload of the ranges' summed length.
    #[test]
    fn an_absent_or_short_subfile_reads_as_one_zero_filled_payload() {
        let (h, dir) = handler();
        let read = |subfile: &str| {
            h.handle(Request::Read {
                subfile: subfile.into(),
                ranges: vec![(4, 4), (100, 2), (7, 3)],
            })
        };
        let zeros = Response::DataList {
            data: Bytes::from(vec![0u8; 9]),
        };
        assert_eq!(read("/missing"), zeros);
        h.handle(Request::Write {
            subfile: "/short".into(),
            ranges: vec![(0, Bytes::from_static(b"abcd"))],
        });
        assert_eq!(read("/short"), zeros);
        let snap = h.stats().snapshot();
        assert_eq!((snap.errors, snap.reads, snap.bytes_read), (0, 2, 18));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn stat_then_delete() {
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
    fn stats_request_answers_one_node_of_the_stats_document() {
        let (h, dir) = handler();
        h.handle(Request::Write {
            subfile: "/f".into(),
            ranges: vec![(0, Bytes::from_static(b"1234"))],
        });
        let resp = h.handle(Request::Stats);
        let Response::Stats { payload } = resp else {
            panic!("expected Stats response, got {resp:?}");
        };
        let snap = ClusterSnapshot::decode(&payload).unwrap();
        let [node] = &snap.nodes[..] else {
            panic!("one node, got {snap:?}");
        };
        assert_eq!(
            (node.name.as_str(), node.role),
            ("test", dpfs_obs::NodeRole::Iond)
        );
        assert_eq!(node.counter("io.writes"), Some(1));
        assert_eq!(node.counter("io.bytes_written"), Some(4));
        assert_eq!(node.hist("lat.write").unwrap().count, 1);
        // The Stats request itself was counted before the snapshot was
        // taken, but its histogram sample lands after.
        assert_eq!(node.counter("io.requests"), Some(2));
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
        assert_eq!(
            resp,
            Response::DataList {
                data: Bytes::from(payload)
            }
        );
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
