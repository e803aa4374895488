//! Client-side connections to I/O servers.
//!
//! The paper's DPFS-API "invokes system communication API such as socket on
//! UNIX to send the request to the server" (§2). Each client holds one
//! persistent TCP connection per server, opened lazily on first use and
//! multiplexed by [`crate::transport::Transport`]: requests are stamped
//! with correlation IDs and pipelined, so independent RPCs to one server
//! overlap instead of queueing behind each other.
//! Server *names* are dial strings (`host:port`), optionally redirected
//! through an alias map — the in-process testbed registers servers under
//! stable display names aliased to their ephemeral localhost ports.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use dpfs_proto::{ErrorCode, Request, Response};
use parking_lot::Mutex;

use crate::error::{DpfsError, Result};
use crate::retry::RetryPolicy;
use crate::trace;
use crate::transport::{Pending, Transport, TransportStats};

/// Maps server names to dial addresses. Empty = dial the name itself.
#[derive(Debug, Clone, Default)]
pub struct Resolver {
    aliases: HashMap<String, String>,
}

impl Resolver {
    /// Resolver that dials names directly.
    pub fn direct() -> Resolver {
        Resolver::default()
    }

    /// Add an alias: requests for `name` dial `addr`.
    pub fn alias(&mut self, name: &str, addr: &str) {
        self.aliases.insert(name.to_string(), addr.to_string());
    }

    /// The dial string for `name`.
    pub fn resolve<'a>(&'a self, name: &'a str) -> &'a str {
        self.aliases.get(name).map(|s| s.as_str()).unwrap_or(name)
    }
}

/// A pool of lazily-opened, multiplexed server transports, owned by one
/// client.
///
/// The pool-wide map lock is held only long enough to look up (or insert)
/// a server's [`Transport`]; RPCs to different servers — and independent
/// RPCs to the same server — proceed in parallel.
pub struct ConnPool {
    resolver: Arc<Resolver>,
    transports: Mutex<HashMap<String, Arc<Transport>>>,
    /// Per-request deadline of [`ConnPool::rpc`] and the metadata RPCs.
    rpc_timeout: Duration,
    /// Fault-tolerance policy for transient failures of the same calls
    /// (a file handle brings its own deadline and policy).
    retry: RetryPolicy,
}

impl ConnPool {
    /// New pool using `resolver` for name resolution, `rpc_timeout` as the
    /// per-request deadline and `retry` as the policy for transient
    /// failures ([`RetryPolicy::disabled()`]: exactly one attempt per call).
    pub fn new(resolver: Arc<Resolver>, rpc_timeout: Duration, retry: RetryPolicy) -> ConnPool {
        ConnPool {
            resolver,
            transports: Mutex::new(HashMap::new()),
            rpc_timeout,
            retry,
        }
    }

    /// The pool's retry policy for transient transport failures.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The per-request deadline applied by [`ConnPool::rpc`].
    pub fn rpc_timeout(&self) -> Duration {
        self.rpc_timeout
    }

    /// The transport for `server`, created on first sight. Holds the map
    /// lock only for the lookup/insert.
    fn transport(&self, server: &str) -> Arc<Transport> {
        let mut transports = self.transports.lock();
        if let Some(t) = transports.get(server) {
            return t.clone();
        }
        let t = Arc::new(Transport::new(server.to_string(), self.resolver.clone()));
        transports.insert(server.to_string(), t.clone());
        t
    }

    /// Enqueue one request to `server` without waiting for the response.
    /// The returned [`Pending`] is awaited with [`Pending::wait`]; submit
    /// several before waiting to pipeline them on the shared connection.
    pub fn submit(&self, server: &str, req: &Request) -> Result<Pending> {
        self.transport(server).submit(req)
    }

    /// [`ConnPool::submit`], stamping the request with `trace_id` (0 =
    /// untraced) so server-side events join the operation's trace.
    pub fn submit_traced(&self, server: &str, req: &Request, trace_id: u64) -> Result<Pending> {
        self.transport(server).submit_traced(req, trace_id)
    }

    /// Issue one request to `server` and await its response (submit +
    /// wait under this pool's deadline and retry policy). Opens the
    /// connection on first use; a transport error or timeout poisons the
    /// cached connection so the next call redials.
    pub fn rpc(&self, server: &str, req: &Request) -> Result<Response> {
        let first = self.submit(server, req);
        self.wait_retrying(
            server,
            req,
            0,
            first,
            self.rpc_timeout,
            self.retry,
            RetryPolicy::retryable,
        )
    }

    /// Wait, then retry — the one place a failed RPC is reissued. Awaits
    /// `first` for at most `timeout`; while the result is an error
    /// `retryable` accepts and `policy` has attempts left, backs off and
    /// reissues `req`, each attempt under the same `timeout`. Every retry
    /// is counted in [`TransportStats::retries`] and recorded as a `retry`
    /// span in the trace ring (when `trace_id != 0`), so recovery is
    /// observable. Returns the *last* error when all attempts fail —
    /// preserving the error class callers already match on. The predicate
    /// gates every attempt: requests that are only safe to replay after a
    /// subset of transport failures (metadata mutations) stop at the first
    /// error outside it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn wait_retrying(
        &self,
        server: &str,
        req: &Request,
        trace_id: u64,
        first: Result<Pending>,
        timeout: Duration,
        policy: RetryPolicy,
        retryable: fn(&DpfsError) -> bool,
    ) -> Result<Response> {
        let mut res = first.and_then(|p| p.wait(timeout));
        for attempt in 1..policy.max_attempts {
            if !matches!(&res, Err(err) if retryable(err)) {
                break;
            }
            std::thread::sleep(policy.backoff_for(server, attempt));
            let transport = self.transport(server);
            transport.note_retry();
            let t0 = trace::now_ns();
            res = transport
                .submit_traced(req, trace_id)
                .and_then(|p| p.wait(timeout));
            trace::client_event(
                trace_id,
                "retry",
                req.kind_str(),
                server,
                t0,
                trace::now_ns().saturating_sub(t0),
                req.payload_bytes(),
            );
        }
        res
    }

    /// Count one reconstructed per-server read against `server` (the one
    /// that failed; its bytes were rebuilt from mirrors or peers+parity).
    pub(crate) fn note_reconstruct(&self, server: &str) {
        self.transport(server).note_reconstruct();
    }

    /// Like [`ConnPool::rpc`] but converts server-side `Error` responses
    /// into `DpfsError::Server`.
    pub fn rpc_ok(&self, server: &str, req: &Request) -> Result<Response> {
        match self.rpc(server, req)? {
            Response::Error { code, message } => Err(DpfsError::Server { code, message }),
            resp => Ok(resp),
        }
    }

    /// Drop the cached connection to `server` (if any). In-flight RPCs on
    /// that connection receive [`DpfsError::Disconnected`]; the next RPC
    /// redials.
    pub fn disconnect(&self, server: &str) {
        let transport = { self.transports.lock().get(server).cloned() };
        if let Some(t) = transport {
            t.disconnect("disconnected by client");
        }
    }

    /// Probe a server with `Ping`, returning liveness. Any decoded
    /// response counts — a server answering `Error { ShuttingDown }` (or
    /// any protocol-level error) is *reachable*, which is what liveness
    /// probes ask; only transport failures (connect, frame, timeout) mean
    /// the server is down.
    pub fn ping(&self, server: &str) -> bool {
        self.rpc(server, &Request::Ping).is_ok()
    }

    /// Transport counters for `server` (`None` before first use).
    pub fn transport_stats(&self, server: &str) -> Option<TransportStats> {
        self.transports.lock().get(server).map(|t| t.stats())
    }

    /// Requests currently in flight to `server`.
    pub fn in_flight(&self, server: &str) -> u64 {
        self.transports
            .lock()
            .get(server)
            .map(|t| t.in_flight())
            .unwrap_or(0)
    }
}

/// Interpret a response to a read ([`Request::Read`] or
/// [`Request::ReadList`]) as one coalesced payload, validating its length
/// against the `expected` bytes the request's ranges sum to. A buggy or
/// hostile server returning a short (or long) payload surfaces as a typed
/// [`DpfsError::ShortRead`] instead of letting the caller's scatter copy
/// index out of bounds and panic.
pub fn expect_list_data(resp: Response, expected: u64, server: &str) -> Result<bytes::Bytes> {
    match resp {
        Response::DataList { data } => {
            if data.len() as u64 != expected {
                return Err(DpfsError::ShortRead {
                    server: server.to_string(),
                    expected,
                    got: data.len() as u64,
                });
            }
            Ok(data)
        }
        Response::Error { code, message } => Err(DpfsError::Server { code, message }),
        other => Err(DpfsError::Server {
            code: ErrorCode::BadRequest,
            message: format!("expected DataList, got {other:?}"),
        }),
    }
}

/// Interpret a response to a write.
pub fn expect_written(resp: Response) -> Result<u64> {
    match resp {
        Response::Written { bytes } => Ok(bytes),
        Response::Error { code, message } => Err(DpfsError::Server { code, message }),
        other => Err(DpfsError::Server {
            code: ErrorCode::BadRequest,
            message: format!("expected Written, got {other:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolver_aliases() {
        let mut r = Resolver::direct();
        assert_eq!(r.resolve("127.0.0.1:9999"), "127.0.0.1:9999");
        r.alias("ccn60.mcs.anl.gov", "127.0.0.1:5001");
        assert_eq!(r.resolve("ccn60.mcs.anl.gov"), "127.0.0.1:5001");
        assert_eq!(r.resolve("other"), "other");
    }

    #[test]
    fn connect_failure_is_typed() {
        let pool = ConnPool::new(
            Arc::new(Resolver::direct()),
            crate::transport::DEFAULT_RPC_TIMEOUT,
            RetryPolicy::disabled(),
        );
        // port 1 on localhost: nothing listens there
        let err = pool.rpc("127.0.0.1:1", &Request::Ping).unwrap_err();
        assert!(matches!(err, DpfsError::Connect { .. }));
        assert!(!pool.ping("127.0.0.1:1"));
    }

    #[test]
    fn expect_list_data_validates_length() {
        let data = bytes::Bytes::from_static(b"12345678");
        let got = expect_list_data(Response::DataList { data: data.clone() }, 8, "s").unwrap();
        assert_eq!(got, data);
        let err = expect_list_data(Response::DataList { data }, 9, "s").unwrap_err();
        assert!(matches!(
            err,
            DpfsError::ShortRead {
                expected: 9,
                got: 8,
                ..
            }
        ));
        assert!(expect_list_data(Response::Pong, 0, "s").is_err());
    }

    #[test]
    fn expect_helpers() {
        assert_eq!(expect_written(Response::Written { bytes: 9 }).unwrap(), 9);
        let err = expect_written(Response::Error {
            code: ErrorCode::NoSpace,
            message: "full".into(),
        })
        .unwrap_err();
        assert!(matches!(
            err,
            DpfsError::Server {
                code: ErrorCode::NoSpace,
                ..
            }
        ));
    }
}
