//! Client-side request tracing.
//!
//! Every client operation (`read`/`write`/`sync`/...) gets a fresh
//! *trace ID* from [`next_trace_id`]. The operation records its phases —
//! `plan` (brick planning / request combination), `submit` (frames onto
//! the wire), `await` (all responses back), one `rpc` span per server RPC,
//! and an enclosing `op` span — into the process-global [`ring()`]. Traced
//! requests travel as v3 frames, so the server's events (`decode`,
//! `queue`, `device`, `delay`, `respond`) carry the same trace ID; with an
//! in-process testbed both sides land in the same ring and a single JSONL
//! export ([`export_jsonl_to`]) shows the whole operation end to end.
//!
//! Recording is cheap (a `fetch_add` and six atomic stores into a 48-byte
//! slot per event: no lock, no allocation), so tracing stays on in
//! benchmarks; the ablation harness exports it via `DPFS_TRACE_OUT`.
//!
//! The primitives live in `dpfs-obs` (shared with both daemons, which
//! record their spans through the same [`record_span`]); this module
//! re-exports them.

pub use dpfs_obs::{
    export_jsonl, export_jsonl_to, next_trace_id, now_ns, record_span, ring, sampled_trace_id,
    set_trace_sample_every, slowlog, ClusterSnapshot, HistSnapshot, Histogram, NodeRole,
    NodeSnapshot, Side, SlowLog, TraceEvent, TraceRing, HIST_BUCKETS,
};
