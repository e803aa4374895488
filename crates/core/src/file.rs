//! Open-file handles: the read/write engine.
//!
//! A [`FileHandle`] owns everything needed to turn a user access into server
//! requests: the file's layout, its brick map, the server name list, and the
//! client's options (request combination on/off, stagger rank, read
//! granularity). Every access takes one path: the runs are planned into
//! per-server requests ([`crate::plan::plan_list`]), each request picks the
//! smaller of its two wire shapes, and `issue` *submits* them all through
//! the pool's multiplexed transport in the planner's staggered order —
//! every frame goes on the wire before any response is awaited — then
//! takes the completions in plan order as it consumes them. One client
//! thereby overlaps the service time of every server it stripes over, and
//! two handles striped over the same servers overlap on the shared
//! per-server connections.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use dpfs_meta::{Distribution, MetaError};
use dpfs_proto::{split_payload, AccessPattern, Request, Response, MAX_PATTERN_RANGES};

use crate::conn::{expect_list_data, expect_written, ConnPool};
use crate::datatype::Datatype;
use crate::error::{DpfsError, Result};
use crate::geometry::Region;
use crate::hints::{copy_home, holders, FileLevel, Placement, RedundancyPolicy, Subfile};
pub use crate::hints::{mirror_subfile, parity_subfile, primary_subfile};
use crate::layout::{bricks_for, BrickRun, Layout, LinearLayout};
use crate::meta_client::MetaClient;
use crate::placement::BrickMap;
use crate::plan::{plan_list, Granularity, ListRequest};
use crate::retry::RetryPolicy;
use crate::trace;
use crate::transport::{Landing, Pending, DEFAULT_RPC_TIMEOUT};

/// Bytes of one subfile a re-protection round trip moves — per source read
/// and per write, far under the frame limit whatever the subfile's size.
const REPROTECT_CHUNK: u64 = 4 << 20;

/// Per-client I/O options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOptions {
    /// Apply the paper's request-combination optimization (§4.2): one
    /// request per server, staggered by `rank`. Off is the paper's general
    /// approach: one request per touched brick, in ascending brick order.
    pub combine: bool,
    /// Read transfer granularity (whole bricks by default, as in the paper).
    pub granularity: Granularity,
    /// This client's rank; sets the staggered schedule's starting server.
    pub rank: usize,
    /// Per-request deadline. An RPC that exceeds it poisons its connection
    /// and surfaces [`DpfsError::Timeout`].
    pub rpc_timeout: Duration,
    /// Fault-tolerance policy: transient transport failures (connect,
    /// timeout, disconnect) are retried with backoff; application errors
    /// are not. [`RetryPolicy::disabled()`] restores fail-fast behaviour.
    pub retry: RetryPolicy,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            combine: true,
            granularity: Granularity::Brick,
            rank: 0,
            rpc_timeout: DEFAULT_RPC_TIMEOUT,
            retry: RetryPolicy::default(),
        }
    }
}

/// Client-side I/O statistics for one file handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Framed requests issued.
    pub requests: u64,
    /// Bytes received over the wire (including discarded brick padding).
    pub wire_read: u64,
    /// Bytes of received data actually used.
    pub useful_read: u64,
    /// Bytes sent over the wire.
    pub wire_written: u64,
}

/// An open DPFS file.
pub struct FileHandle {
    path: String,
    /// The file's catalog id, which names its subfiles on the I/O servers.
    id: u64,
    meta: Arc<MetaClient>,
    pool: Arc<ConnPool>,
    /// Server names in catalog order; request `server` indices point here.
    servers: Vec<String>,
    layout: Layout,
    map: BrickMap,
    placement: Placement,
    /// Per-file redundancy: mirrors / parity written alongside the data,
    /// read back around a dead server.
    redundancy: RedundancyPolicy,
    opts: ClientOptions,
    /// Current logical size in bytes.
    size: u64,
    stats: ClientStats,
    /// Trace ID of the most recent traced operation on this handle.
    last_trace_id: u64,
}

impl FileHandle {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        path: String,
        id: u64,
        meta: Arc<MetaClient>,
        pool: Arc<ConnPool>,
        servers: Vec<String>,
        layout: Layout,
        map: BrickMap,
        placement: Placement,
        redundancy: RedundancyPolicy,
        opts: ClientOptions,
        size: u64,
    ) -> FileHandle {
        FileHandle {
            path,
            id,
            meta,
            pool,
            servers,
            layout,
            map,
            placement,
            redundancy,
            opts,
            size,
            stats: ClientStats::default(),
            last_trace_id: 0,
        }
    }

    /// The trace ID of the most recent read/write/sync on this handle
    /// (0 before the first operation). Filter [`trace::ring()`] events on it
    /// to see the operation's full client+server timeline.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id
    }

    /// The file's DPFS path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The file's catalog id: its subfiles on the I/O servers are named by
    /// it ([`RedundancyPolicy::subfiles`]), not by its path.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The file's layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The file's level.
    pub fn level(&self) -> FileLevel {
        self.layout.level()
    }

    /// Current logical size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The brick-to-server map.
    pub fn brick_map(&self) -> &BrickMap {
        &self.map
    }

    /// The server names this file is striped over.
    pub fn servers(&self) -> &[String] {
        &self.servers
    }

    /// The file's redundancy policy.
    pub fn redundancy(&self) -> RedundancyPolicy {
        self.redundancy
    }

    /// I/O statistics accumulated on this handle.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The layout of a linear file; the byte and datatype APIs' level check.
    fn linear(&self) -> Result<&LinearLayout> {
        match &self.layout {
            Layout::Linear(lin) => Ok(lin),
            other => Err(DpfsError::WrongLevel {
                expected: "linear",
                actual: other.level().as_str().into(),
            }),
        }
    }

    // ---------------------------------------------------------- byte API

    /// Write `data` at byte `offset` (linear files only). Grows the file —
    /// and its brick distribution — as needed.
    pub fn write_bytes(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        let lin = self.linear()?;
        if data.is_empty() {
            return Ok(());
        }
        let end = checked_end(offset, data.len() as u64)?;
        let needed = bricks_for(end, lin.brick_bytes);
        if needed > self.map.num_bricks() {
            self.grow_to(needed)?;
        }
        let lin = self.linear()?;
        let runs = lin.map_bytes(offset, data.len() as u64, 0);
        self.execute_writes(&runs, data)?;
        if end > self.size {
            self.size = end;
            self.meta.set_file_size(&self.path, end as i64)?;
        }
        Ok(())
    }

    /// Read `len` bytes at `offset` (linear files only). Bytes past the
    /// written extent come back zero-filled.
    pub fn read_bytes(&mut self, offset: u64, len: u64) -> Result<Vec<u8>> {
        let lin = self.linear()?;
        if len == 0 {
            return Ok(Vec::new());
        }
        let end = checked_end(offset, len)?;
        if bricks_for(end, lin.brick_bytes) > self.map.num_bricks() {
            return Err(DpfsError::InvalidArgument(format!(
                "read [{offset}, {end}) beyond file's {} bricks",
                self.map.num_bricks()
            )));
        }
        let runs = lin.map_bytes(offset, len, 0);
        let mut buf = vec![0u8; len as usize];
        self.execute_reads(&runs, &mut buf)?;
        Ok(buf)
    }

    // -------------------------------------------------------- region API

    /// Write a rectangular region of a multidim/array file. `data` holds
    /// the region packed row-major (`region.volume() * elem_bytes` bytes).
    pub fn write_region(&mut self, region: &Region, data: &[u8]) -> Result<()> {
        let runs = self.region_runs(region)?;
        let expect: u64 = runs.iter().map(|r| r.len).sum();
        if data.len() as u64 != expect {
            return Err(DpfsError::InvalidArgument(format!(
                "buffer of {} bytes for region of {} bytes",
                data.len(),
                expect
            )));
        }
        self.execute_writes(&runs, data)
    }

    /// Read a rectangular region of a multidim/array file, packed
    /// row-major.
    pub fn read_region(&mut self, region: &Region) -> Result<Vec<u8>> {
        let runs = self.region_runs(region)?;
        let len: u64 = runs.iter().map(|r| r.len).sum();
        let mut buf = vec![0u8; len as usize];
        self.execute_reads(&runs, &mut buf)?;
        Ok(buf)
    }

    fn region_runs(&self, region: &Region) -> Result<Vec<BrickRun>> {
        match &self.layout {
            Layout::Multidim(md) => md.map_region(region),
            Layout::Array(ar) => ar.map_region(region),
            Layout::Linear(_) => Err(DpfsError::WrongLevel {
                expected: "multidim or array",
                actual: "linear".into(),
            }),
        }
    }

    // ------------------------------------------------------ datatype API

    /// Write through a derived datatype anchored at byte `base` of a linear
    /// file. `data` packs the datatype's runs contiguously.
    pub fn write_datatype(&mut self, base: u64, dtype: &Datatype, data: &[u8]) -> Result<()> {
        if data.len() as u64 != dtype.size() {
            return Err(DpfsError::InvalidArgument(format!(
                "buffer of {} bytes for datatype of {} bytes",
                data.len(),
                dtype.size()
            )));
        }
        let lin = self.linear()?;
        let end = checked_end(base, dtype.extent())?;
        let needed = bricks_for(end.max(1), lin.brick_bytes);
        if needed > self.map.num_bricks() {
            self.grow_to(needed)?;
        }
        let lin = self.linear()?;
        // materialize runs then write as one planned batch
        let runs = datatype_runs(lin, base, dtype);
        self.execute_writes(&runs, data)?;
        if end > self.size {
            self.size = end;
            self.meta.set_file_size(&self.path, end as i64)?;
        }
        Ok(())
    }

    /// Read through a derived datatype anchored at byte `base` of a linear
    /// file; returns the packed bytes.
    pub fn read_datatype(&mut self, base: u64, dtype: &Datatype) -> Result<Vec<u8>> {
        let lin = self.linear()?;
        let end = checked_end(base, dtype.extent())?;
        if bricks_for(end.max(1), lin.brick_bytes) > self.map.num_bricks() {
            return Err(DpfsError::InvalidArgument(
                "datatype extends beyond file".into(),
            ));
        }
        let mut buf = vec![0u8; dtype.size() as usize];
        let runs = datatype_runs(lin, base, dtype);
        self.execute_reads(&runs, &mut buf)?;
        Ok(buf)
    }

    // --------------------------------------------------------- chunk API

    /// The rectangular region of HPF chunk `rank` (array files with pure
    /// BLOCK/`*` patterns; cyclic chunks have no bounding rectangle).
    pub fn chunk_region(&self, rank: u64) -> Result<Region> {
        match &self.layout {
            Layout::Array(ar) => {
                if rank >= ar.num_bricks() {
                    return Err(DpfsError::InvalidArgument(format!(
                        "chunk {rank} of {}",
                        ar.num_bricks()
                    )));
                }
                ar.chunk_region(rank).ok_or_else(|| {
                    DpfsError::InvalidArgument(
                        "cyclic chunks are not rectangular; use write_chunk/read_chunk".into(),
                    )
                })
            }
            other => Err(DpfsError::WrongLevel {
                expected: "array",
                actual: other.level().as_str().into(),
            }),
        }
    }

    /// Write processor `rank`'s whole chunk (array files): the checkpoint
    /// pattern of paper §3.3 — one brick, one request. `data` is the
    /// processor's HPF *local array*, packed row-major (for pure-BLOCK
    /// patterns that equals the chunk's rectangular region).
    pub fn write_chunk(&mut self, rank: u64, data: &[u8]) -> Result<()> {
        let len = self.chunk_check(rank, data.len() as u64)?;
        let runs = [BrickRun {
            brick: rank,
            brick_off: 0,
            buf_off: 0,
            len,
        }];
        self.execute_writes(&runs, data)
    }

    /// Read processor `rank`'s whole chunk back (the local array bytes).
    pub fn read_chunk(&mut self, rank: u64) -> Result<Vec<u8>> {
        let len = match &self.layout {
            Layout::Array(ar) if rank < ar.num_bricks() => ar.chunk_len(rank),
            Layout::Array(ar) => {
                return Err(DpfsError::InvalidArgument(format!(
                    "chunk {rank} of {}",
                    ar.num_bricks()
                )))
            }
            other => {
                return Err(DpfsError::WrongLevel {
                    expected: "array",
                    actual: other.level().as_str().into(),
                })
            }
        };
        let mut buf = vec![0u8; len as usize];
        let runs = [BrickRun {
            brick: rank,
            brick_off: 0,
            buf_off: 0,
            len,
        }];
        self.execute_reads(&runs, &mut buf)?;
        Ok(buf)
    }

    fn chunk_check(&self, rank: u64, data_len: u64) -> Result<u64> {
        let Layout::Array(ar) = &self.layout else {
            return Err(DpfsError::WrongLevel {
                expected: "array",
                actual: self.level().as_str().into(),
            });
        };
        if rank >= ar.num_bricks() {
            return Err(DpfsError::InvalidArgument(format!(
                "chunk {rank} of {}",
                ar.num_bricks()
            )));
        }
        let len = ar.chunk_len(rank);
        if data_len != len {
            return Err(DpfsError::InvalidArgument(format!(
                "chunk {rank} is {len} bytes, buffer has {data_len}"
            )));
        }
        Ok(len)
    }

    // -------------------------------------------------------- execution

    /// Plan `runs` under the client's options: combined and staggered, or
    /// — the general approach — each brick alone, in ascending brick order.
    fn plan(&self, runs: &[BrickRun], granularity: Granularity) -> Vec<ListRequest> {
        let plan = |runs: &[BrickRun]| {
            plan_list(runs, &self.map, &self.layout, granularity, self.opts.rank)
                .expect("plan_list plans every run")
        };
        if self.opts.combine {
            return plan(runs);
        }
        let mut by_brick = runs.to_vec();
        // Stable: run order within a brick is kept.
        by_brick.sort_by_key(|r| r.brick);
        by_brick
            .chunk_by(|a, b| a.brick == b.brick)
            .flat_map(plan)
            .collect()
    }

    /// Account one write acknowledgement from `server`: anything but
    /// exactly `expected` bytes written is a [`DpfsError::ShortWrite`].
    fn note_written(&mut self, server: usize, expected: u64, res: Result<Response>) -> Result<()> {
        self.stats.requests += 1;
        let written = expect_written(res?)?;
        if written != expected {
            return Err(DpfsError::ShortWrite {
                server: self.servers[server].clone(),
                expected,
                written,
            });
        }
        self.stats.wire_written += expected;
        Ok(())
    }

    /// The write path: one request per planned item carrying one coalesced
    /// payload, in whichever wire shape encodes smaller. Redundancy fans
    /// the same refcounted payloads out to mirrors and keeps parity
    /// byte-exact.
    fn execute_writes(&mut self, runs: &[BrickRun], data: &[u8]) -> Result<()> {
        let trace_id = trace::sampled_trace_id();
        self.last_trace_id = trace_id;
        let op_start = trace::now_ns();
        // Writes always use exact ranges: whole-brick granularity would
        // clobber bytes the caller never supplied.
        let reqs = self.plan(runs, Granularity::Exact);
        // Gather each request's payload out of `data` up front. `Bytes`
        // payloads are refcounted, so replica fan-out and enumerated-shape
        // slicing reuse them without copying.
        let payloads: Vec<Bytes> = reqs
            .iter()
            .map(|req| Bytes::from(gather(req, data)))
            .collect();
        let shaped: Vec<ListShape> = reqs.iter().map(list_shape).collect();
        // Copy 0 is the primary; every further copy is the same request at
        // the same byte offsets, aimed at the copy's home — one extra
        // request per copy in the same pipelined dispatch.
        let copies = self.redundancy.copies();
        let n = self.servers.len();
        let mut work: Vec<(&str, Request)> = Vec::with_capacity(reqs.len() * copies);
        // `(server index, expected Written bytes)` parallel to `work`.
        let mut expect: Vec<(usize, u64)> = Vec::with_capacity(reqs.len() * copies);
        for copy in 0..copies {
            for ((req, shape), payload) in reqs.iter().zip(&shaped).zip(&payloads) {
                let (server, subfile) = copy_home(self.id, req.server, copy, n);
                work.push((
                    self.servers[server].as_str(),
                    shape.write(req, payload, subfile),
                ));
                expect.push((server, req.wire_bytes()));
            }
        }
        trace::record_span(
            trace::Side::Client,
            trace_id,
            "plan",
            "write",
            "",
            op_start,
            trace::now_ns().saturating_sub(op_start),
            data.len() as u64,
        );
        let results: Vec<_> = issue(&self.pool, &self.opts, work, trace_id).collect();
        for ((server, expected), res) in expect.into_iter().zip(results) {
            self.note_written(server, expected, res)?;
        }
        if self.redundancy == RedundancyPolicy::XorParity {
            let touched: Vec<(u64, u64)> =
                reqs.iter().flat_map(|r| r.ranges.iter().copied()).collect();
            self.write_parity(&touched, trace_id)?;
        }
        trace::record_span(
            trace::Side::Client,
            trace_id,
            "op",
            "write",
            "",
            op_start,
            trace::now_ns().saturating_sub(op_start),
            data.len() as u64,
        );
        Ok(())
    }

    /// The membership this handle's redundancy algebra — the parity update
    /// and the reconstructing read — runs over: every server, whatever its
    /// brick map says. The map is a snapshot another handle may have
    /// outgrown, an XOR group couples all data servers, and a member the
    /// catalog never gave a brick reads back as zeros; only the existence
    /// enumerations (`sync` here, `unlink`, fsck) go by brick lists.
    fn every_server(&self) -> Vec<bool> {
        vec![true; self.servers.len()]
    }

    /// Bring the parity subfile up to date after a data write: parity is
    /// the member of the file's one protection group that is the XOR of all
    /// the data subfiles, so the stale ranges are simply [`Self::restore`]d
    /// (reads past a subfile's extent come back zero-filled, so short and
    /// absent subfiles contribute zeros). Every data server is read, not
    /// only those this handle's brick map names: the map is a snapshot, and
    /// another handle may since have grown the file onto a server it shows
    /// empty. Recomputing from the data —
    /// instead of delta-XORing old vs new bytes — self-heals any previously
    /// stale parity range it touches. `touched` is the `(subfile_offset,
    /// len)` ranges the write dirtied, in any order, overlap allowed.
    fn write_parity(&mut self, touched: &[(u64, u64)], trace_id: u64) -> Result<()> {
        // Union of touched subfile-offset ranges across all data servers:
        // parity[off] covers byte `off` of every data subfile, so exactly
        // these ranges went stale.
        let mut spans: Vec<(u64, u64)> = touched
            .iter()
            .map(|&(sub_off, len)| (sub_off, sub_off + len))
            .collect();
        spans.sort_unstable();
        let mut union: Vec<(u64, u64)> = Vec::new(); // (offset, len)
        for (start, end) in spans {
            match union.last_mut() {
                Some((off, len)) if start <= *off + *len => {
                    *len = (*off + *len).max(end) - *off;
                }
                _ => union.push((start, end - start)),
            }
        }
        if union.is_empty() {
            return Ok(());
        }
        let mut data = self.redundancy.subfiles(self.id, &self.every_server());
        let parity = data.pop().expect("xor parity enumerates parity");
        self.restore(&parity, &data, &union, trace_id)
    }

    /// The bytes one member of a protection group holds at `ranges`,
    /// computed from `sources` — the group's other members
    /// ([`RedundancyPolicy::groups`]). Under `Replica(k)` every member holds
    /// the same bytes, so the first listed source that answers has them;
    /// under `XorParity` a member is the XOR of all the others (parity is
    /// just one more member). The one place redundancy turns into bytes: a
    /// read around a dead server, the parity update of a write and fsck's
    /// re-protection all come here. Always speaks enumerated `Read`; the
    /// bytes come back as one buffer, the ranges' bytes back to back.
    fn rebuild(
        &mut self,
        sources: &[Subfile],
        ranges: &[(u64, u64)],
        trace_id: u64,
    ) -> Result<Bytes> {
        let mut failed = DpfsError::InvalidArgument("no redundant copy to rebuild from".into());
        match self.redundancy {
            RedundancyPolicy::None => Err(failed),
            RedundancyPolicy::Replica(_) => {
                for source in sources {
                    let mut one = self.fetch(std::slice::from_ref(source), ranges, trace_id);
                    match one.pop().expect("one result per request") {
                        Ok(data) => return Ok(data),
                        Err(e) => failed = e,
                    }
                }
                Err(failed)
            }
            RedundancyPolicy::XorParity => {
                let total: u64 = ranges.iter().map(|&(_, len)| len).sum();
                let mut acc = vec![0u8; total as usize];
                for data in self.fetch(sources, ranges, trace_id) {
                    for (a, b) in acc.iter_mut().zip(data?.iter()) {
                        *a ^= b;
                    }
                }
                Ok(Bytes::from(acc))
            }
        }
    }

    /// `ranges` of every subfile in `batch`, all requests on the wire at
    /// once: one length-checked, counted buffer per subfile, in `batch`
    /// order.
    fn fetch(
        &mut self,
        batch: &[Subfile],
        ranges: &[(u64, u64)],
        trace_id: u64,
    ) -> Vec<Result<Bytes>> {
        let work = batch
            .iter()
            .map(|(host, subfile)| {
                let read = Request::Read {
                    subfile: subfile.clone(),
                    ranges: ranges.to_vec(),
                };
                (self.servers[*host].as_str(), read)
            })
            .collect();
        let results = issue(&self.pool, &self.opts, work, trace_id);
        self.stats.requests += batch.len() as u64;
        let bytes: u64 = ranges.iter().map(|&(_, len)| len).sum();
        batch
            .iter()
            .zip(results)
            .map(|((host, _), res)| {
                let data = expect_list_data(res?, bytes, &self.servers[*host])?;
                self.stats.wire_read += bytes;
                Ok(data)
            })
            .collect()
    }

    /// Recompute the bytes `member` must hold at `ranges` from `sources`
    /// (see [`Self::rebuild`]) and write them to it.
    fn restore(
        &mut self,
        member: &Subfile,
        sources: &[Subfile],
        ranges: &[(u64, u64)],
        trace_id: u64,
    ) -> Result<()> {
        let data = self.rebuild(sources, ranges, trace_id)?;
        let (host, subfile) = member;
        let write = Request::Write {
            subfile: subfile.clone(),
            ranges: split_payload(&data, ranges),
        };
        let res = issue_one(
            &self.pool,
            &self.opts,
            &self.servers[*host],
            write,
            trace_id,
        );
        self.note_written(*host, data.len() as u64, res)
    }

    /// Re-protection (fsck): rewrite the first `want` bytes of `member` from
    /// `sources`, [`REPROTECT_CHUNK`] bytes per round trip, so a subfile of
    /// any size fits the frame limit.
    pub(crate) fn reprotect(
        &mut self,
        member: &Subfile,
        sources: &[Subfile],
        want: u64,
    ) -> Result<()> {
        let trace_id = trace::sampled_trace_id();
        self.last_trace_id = trace_id;
        for off in (0..want).step_by(REPROTECT_CHUNK as usize) {
            let len = REPROTECT_CHUNK.min(want - off);
            self.restore(member, sources, &[(off, len)], trace_id)?;
        }
        Ok(())
    }

    /// The read path, three steps: plan the runs, `issue` one request per
    /// planned item, land each reply in `buf` through its request's
    /// [`Landing`] — streamed off the socket when this caller reads its
    /// own reply, placed whole otherwise. There is no other way for a
    /// byte to reach the caller — a handle holds no file data between
    /// calls, so a read reflects every write acknowledged before it was
    /// issued, through any handle.
    fn execute_reads(&mut self, runs: &[BrickRun], buf: &mut [u8]) -> Result<()> {
        let trace_id = trace::sampled_trace_id();
        self.last_trace_id = trace_id;
        let op_start = trace::now_ns();
        let op_bytes = buf.len() as u64;
        let reqs = self.plan(runs, self.opts.granularity);
        let n = self.servers.len();
        let work: Vec<(&str, Request)> = reqs
            .iter()
            .map(|req| {
                let (server, subfile) = copy_home(self.id, req.server, 0, n);
                (
                    self.servers[server].as_str(),
                    list_shape(req).read(req, subfile),
                )
            })
            .collect();
        trace::record_span(
            trace::Side::Client,
            trace_id,
            "plan",
            "read",
            "",
            op_start,
            trace::now_ns().saturating_sub(op_start),
            op_bytes,
        );
        // Each reply lands in `buf` as it comes off the socket, or — read
        // on another waiter's behalf, or not the expected `DataList` — is
        // placed (or refused) whole before the next is awaited: the read
        // holds at most one reply buffer at a time.
        let mut lost = Vec::new();
        let mut replies = issue(&self.pool, &self.opts, work, trace_id);
        for req in &reqs {
            let mut landing = Landing::new(&req.pieces, req.wire_bytes(), buf);
            let res = replies
                .next_landing(Some(&mut landing))
                .expect("one reply per request");
            match res {
                Ok(resp) => landing.complete(resp, &self.servers[req.server])?,
                Err(err) if RetryPolicy::retryable(&err) => lost.push((req, err)),
                // Application errors always fail the read — the server
                // processed the request and said no.
                Err(err) => return Err(err),
            }
        }
        drop(replies);
        // Terminal transport-class failure: read *around* the lost server —
        // the surviving mirror or the XOR of peers + parity rebuilds the
        // exact bytes. When that fails too (no redundancy, or a second
        // server down) the read fails with the error that lost the bytes.
        for (req, err) in lost {
            let t0 = trace::now_ns();
            let gone = copy_home(self.id, req.server, 0, self.servers.len());
            let sources = self.redundancy.peers(self.id, &self.every_server(), &gone);
            let Ok(payload) = self.rebuild(&sources, &req.ranges, trace_id) else {
                return Err(err);
            };
            let server = &self.servers[req.server];
            self.pool.note_reconstruct(server);
            trace::record_span(
                trace::Side::Client,
                trace_id,
                "reconstruct",
                "read",
                server,
                t0,
                trace::now_ns().saturating_sub(t0),
                req.useful_bytes(),
            );
            Landing::new(&req.pieces, req.wire_bytes(), buf).place_all(&payload);
        }
        self.stats.requests += reqs.len() as u64;
        self.stats.wire_read += reqs.iter().map(ListRequest::wire_bytes).sum::<u64>();
        self.stats.useful_read += reqs.iter().map(ListRequest::useful_bytes).sum::<u64>();
        trace::record_span(
            trace::Side::Client,
            trace_id,
            "op",
            "read",
            "",
            op_start,
            trace::now_ns().saturating_sub(op_start),
            op_bytes,
        );
        Ok(())
    }

    /// Grow a linear file's brick map to at least `needed` bricks. The
    /// extension is a compare-and-set in the catalog, committed before this
    /// returns — so before the first byte goes to a server the file had no
    /// brick on — and answered with the file's entry as it now stands: this
    /// handle's map is whatever the catalog says, its own plan if it won,
    /// another handle's if that one got there first, extended again from
    /// there if still short. Nothing else changes a brick list, so what the
    /// I/O servers hold is always within [`RedundancyPolicy::subfiles`] over
    /// the catalog.
    fn grow_to(&mut self, needed: u64) -> Result<()> {
        let perf = match self.placement {
            Placement::RoundRobin => None,
            Placement::Greedy => {
                // The registry is read when a greedy file actually grows,
                // for the numbers of the servers that hold its bricks (the
                // parity server of an XOR file holds none).
                let registry = self.meta.list_servers()?;
                let number = |name: &String| {
                    let found = registry.iter().find(|s| s.name == *name);
                    found.map_or(1, |s| s.performance.max(1))
                };
                Some(
                    self.servers[..self.map.num_servers()]
                        .iter()
                        .map(number)
                        .collect::<Vec<i64>>(),
                )
            }
        };
        while self.map.num_bricks() < needed {
            let have = self.map.num_bricks();
            let mut planned = self.map.clone();
            planned.extend(needed - have, perf.as_deref())?;
            let added: Vec<(String, Vec<i64>)> = self
                .servers
                .iter()
                .zip(planned.bricklists())
                .zip(self.map.bricklists())
                .filter(|((_, new), old)| new.len() > old.len())
                .map(|((server, new), old)| {
                    let bricks = new[old.len()..].iter().map(|&b| b as i64).collect();
                    (server.clone(), bricks)
                })
                .collect();
            let entry = self
                .meta
                .extend_distribution(&self.path, have as i64, &added)
                .map_err(|e| match e {
                    MetaError::NoSuchTable(_) => DpfsError::NoSuchFile(self.path.clone()),
                    other => other.into(),
                })?;
            if entry.id != self.id {
                return Err(DpfsError::InvalidArgument(format!(
                    "{} was replaced by another file while open",
                    self.path
                )));
            }
            self.map = brick_map(self.redundancy, &entry.dist)?;
            self.size = self.size.max(entry.attr.size as u64);
        }
        if let Layout::Linear(lin) = &mut self.layout {
            lin.file_bytes = lin.file_bytes.max(self.map.num_bricks() * lin.brick_bytes);
        }
        Ok(())
    }

    /// Ask every server holding this file to flush its subfiles — the
    /// primaries, the mirror copies and the parity sibling, on the servers
    /// this handle's brick map names (a server answers `Pong` for a subfile
    /// never written). Every one is attempted even when some fail, and the
    /// failures come back aggregated in a single [`DpfsError::Aggregate`].
    pub fn sync(&mut self) -> Result<()> {
        self.last_trace_id = trace::sampled_trace_id();
        let work = self
            .redundancy
            .subfiles(self.id, &holders(self.servers.len(), self.map.bricklists()))
            .into_iter()
            .map(|(s, subfile)| (self.servers[s].as_str(), Request::Sync { subfile }))
            .collect();
        issue_all(&self.pool, &self.opts, "sync", work, self.last_trace_id)
    }

    /// Close the handle. Nothing is sent: the write that grew the file
    /// already persisted its size, and the size this handle read at `open`
    /// may be older than what another handle has written since.
    pub fn close(self) -> Result<()> {
        Ok(())
    }
}

/// The brick map the catalog's distribution rows (server-name order) spell.
/// Under XOR parity the last row is the brickless parity server's; the map
/// covers the data servers.
pub(crate) fn brick_map(redundancy: RedundancyPolicy, dist: &[Distribution]) -> Result<BrickMap> {
    let rows = redundancy.data_servers(dist.len());
    let lists: Vec<&[i64]> = dist[..rows].iter().map(|d| &d.bricklist[..]).collect();
    BrickMap::from_bricklists(&lists)
}

/// One past the last byte of a `len`-byte access at `offset`; an access
/// that runs off the end of the offset space is the caller's error.
fn checked_end(offset: u64, len: u64) -> Result<u64> {
    offset.checked_add(len).ok_or_else(|| {
        DpfsError::InvalidArgument(format!(
            "{len} bytes at offset {offset} overflow the offset space"
        ))
    })
}

/// The brick runs of `dtype` anchored at byte `base` of a linear file; the
/// buffer packs the datatype's flattened ranges contiguously, in order.
pub fn datatype_runs(lin: &LinearLayout, base: u64, dtype: &Datatype) -> Vec<BrickRun> {
    let ranges = dtype.flatten();
    let mut runs = Vec::with_capacity(ranges.len());
    let mut buf_off = 0u64;
    for (off, len) in ranges {
        lin.map_bytes_into(base + off, len, buf_off, &mut runs);
        buf_off += len;
    }
    runs
}

/// One write request's payload — its ranges' bytes back to back — built
/// from `data` in piece order, with no zeroing pass first: a piece that
/// continues the payload is appended, one that reaches back over bytes an
/// earlier piece wrote (self-overlapping runs share payload bytes)
/// overwrites them, so the later piece wins. A gap no piece covers would
/// read as zeros; a plan leaves none.
fn gather(req: &ListRequest, data: &[u8]) -> Vec<u8> {
    let len = req.wire_bytes() as usize;
    let mut payload = Vec::with_capacity(len);
    for p in &req.pieces {
        let at = p.payload_off as usize;
        let src = &data[p.buf_off as usize..(p.buf_off + p.len) as usize];
        if at > payload.len() {
            payload.resize(at, 0);
        }
        let back = (payload.len() - at).min(src.len());
        payload[at..at + back].copy_from_slice(&src[..back]);
        payload.extend_from_slice(&src[back..]);
    }
    payload.resize(len, 0);
    payload
}

/// Issue one request per planned item; the raw responses come back in plan
/// order as the returned [`Replies`] is advanced. Every frame goes on the
/// wire first — the transport assigns correlation IDs, and whichever
/// waiter reads a connection completes its replies out of order — so one
/// slow server stalls no request to the others and several requests to
/// *one* server overlap inside its connection. Each reply is awaited only
/// when asked for: a caller that is done with one reply before it asks
/// for the next holds one reply buffer at a time, while the other servers'
/// replies keep arriving. Every item awaited is retried on its own
/// transient failure.
pub(crate) fn issue<'a>(
    pool: &'a ConnPool,
    opts: &'a ClientOptions,
    work: Vec<(&'a str, Request)>,
    trace_id: u64,
) -> Replies<'a> {
    let kind = work
        .first()
        .map(|(_, req)| req.kind_str())
        .unwrap_or("other");
    let t0 = trace::now_ns();
    // Keep each request alongside its pending completion: a waiter that
    // fails with a transient error reissues the request itself (the other
    // servers' responses keep arriving meanwhile).
    let submitted: Vec<_> = work
        .into_iter()
        .map(|(server, req)| {
            let pending = pool.submit_traced(server, &req, trace_id);
            (server, req, pending)
        })
        .collect();
    let t1 = trace::now_ns();
    trace::record_span(
        trace::Side::Client,
        trace_id,
        "submit",
        kind,
        "",
        t0,
        t1.saturating_sub(t0),
        0,
    );
    Replies {
        pool,
        opts,
        trace_id,
        kind,
        since: t1,
        submitted: submitted.into_iter(),
    }
}

/// The responses of one [`issue`], awaited in plan order as it is advanced.
/// Dropping it abandons the requests not awaited yet and closes the
/// operation's `await` span.
pub(crate) struct Replies<'a> {
    pool: &'a ConnPool,
    opts: &'a ClientOptions,
    trace_id: u64,
    kind: &'static str,
    since: u64,
    submitted: std::vec::IntoIter<(&'a str, Request, Result<Pending>)>,
}

impl Replies<'_> {
    /// The next reply, streamed into `landing` where it fits (see
    /// [`Pending::wait`]).
    fn next_landing(&mut self, landing: Option<&mut Landing<'_>>) -> Option<Result<Response>> {
        let (server, req, pending) = self.submitted.next()?;
        Some(self.pool.wait_retrying(
            server,
            &req,
            self.trace_id,
            pending,
            self.opts.rpc_timeout,
            self.opts.retry,
            RetryPolicy::retryable,
            landing,
        ))
    }
}

impl Iterator for Replies<'_> {
    type Item = Result<Response>;

    fn next(&mut self) -> Option<Result<Response>> {
        self.next_landing(None)
    }
}

impl Drop for Replies<'_> {
    fn drop(&mut self) {
        trace::record_span(
            trace::Side::Client,
            self.trace_id,
            "await",
            self.kind,
            "",
            self.since,
            trace::now_ns().saturating_sub(self.since),
            0,
        );
    }
}

/// One whole-file operation `op` (`sync`, `unlink`): `work` holds
/// one request per subfile. They go through [`issue`] like a read's — all
/// on the wire before the first is awaited — and every one is attempted
/// even when some fail: one dead server must not leave the others'
/// subfiles untouched. The failures, transport errors and `Error` replies
/// alike, come back as a single [`DpfsError::Aggregate`] naming their
/// servers.
pub(crate) fn issue_all(
    pool: &ConnPool,
    opts: &ClientOptions,
    op: &'static str,
    work: Vec<(&str, Request)>,
    trace_id: u64,
) -> Result<()> {
    let op_start = trace::now_ns();
    let servers: Vec<&str> = work.iter().map(|&(server, _)| server).collect();
    let failures: Vec<(String, DpfsError)> = servers
        .into_iter()
        .zip(issue(pool, opts, work, trace_id))
        .filter_map(|(server, res)| {
            let err = match res {
                Ok(Response::Error { code, message }) => DpfsError::Server { code, message },
                Ok(_) => return None,
                Err(e) => e,
            };
            Some((server.to_string(), err))
        })
        .collect();
    trace::record_span(
        trace::Side::Client,
        trace_id,
        "op",
        op,
        "",
        op_start,
        trace::now_ns().saturating_sub(op_start),
        0,
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(DpfsError::Aggregate { op, failures })
    }
}

/// [`issue`] for a single request.
fn issue_one(
    pool: &ConnPool,
    opts: &ClientOptions,
    server: &str,
    req: Request,
    trace_id: u64,
) -> Result<Response> {
    issue(pool, opts, vec![(server, req)], trace_id)
        .next()
        .expect("one result per request")
}

/// The wire shape of one request.
enum ListShape {
    /// Compact descriptor: `ReadList` / `WriteList`.
    Pattern(AccessPattern),
    /// Irregular access — the descriptor would encode no smaller than the
    /// enumerated range list; ship `Read` / `Write` over the same
    /// coalesced ranges.
    Enumerated,
}

/// A pattern descriptor ships iff it encodes smaller than the enumerated
/// range list (`u32` count + 16 bytes per range).
fn list_shape(req: &ListRequest) -> ListShape {
    if req.ranges.len() > MAX_PATTERN_RANGES {
        return ListShape::Enumerated;
    }
    let pattern = AccessPattern::from_runs(&req.ranges);
    if pattern.encoded_len() < 4 + 16 * req.ranges.len() {
        ListShape::Pattern(pattern)
    } else {
        ListShape::Enumerated
    }
}

impl ListShape {
    /// The read of `req`'s ranges from `subfile`, in this shape.
    fn read(&self, req: &ListRequest, subfile: String) -> Request {
        match self {
            ListShape::Pattern(pattern) => Request::ReadList {
                subfile,
                pattern: pattern.clone(),
            },
            ListShape::Enumerated => Request::Read {
                subfile,
                ranges: req.ranges.clone(),
            },
        }
    }

    /// The write of `payload` (`req`'s ranges, concatenated) to `subfile`,
    /// in this shape.
    fn write(&self, req: &ListRequest, payload: &Bytes, subfile: String) -> Request {
        match self {
            ListShape::Pattern(pattern) => Request::WriteList {
                subfile,
                pattern: pattern.clone(),
                payload: payload.clone(),
            },
            ListShape::Enumerated => Request::Write {
                subfile,
                ranges: split_payload(payload, &req.ranges),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::round_robin;
    use proptest::prelude::*;

    fn req(ranges: Vec<(u64, u64)>) -> ListRequest {
        ListRequest {
            server: 0,
            ranges,
            pieces: vec![],
        }
    }

    /// The wire-shape crossover: a pattern ships iff its descriptor
    /// encodes strictly smaller than the enumerated range list
    /// (`u32` count + 16 bytes per range).
    #[test]
    fn wire_shape_crossover() {
        // A single range never pays: one Run segment (21 bytes) beats a
        // one-range enumeration (20 bytes) nowhere.
        assert!(matches!(
            list_shape(&req(vec![(0, 4096)])),
            ListShape::Enumerated
        ));

        // Regular strides compress to one Vector segment (29 bytes
        // total), so the descriptor wins from two ranges up...
        for count in 2u64..32 {
            let ranges: Vec<(u64, u64)> = (0..count).map(|i| (i * 64, 16)).collect();
            let shape = list_shape(&req(ranges.clone()));
            let ListShape::Pattern(p) = shape else {
                panic!("strided {count}-range access should ship as a pattern");
            };
            assert!(p.encoded_len() < 4 + 16 * ranges.len());
            assert_eq!(p.expand(), ranges);
        }

        // ...while fully irregular runs (distinct lengths — no arithmetic
        // structure to exploit) cost 17 bytes per Run segment against 16
        // enumerated, so they always fall back.
        for count in 1u64..16 {
            let ranges: Vec<(u64, u64)> = (0..count).map(|i| (i * i * 97 + i, i + 1)).collect();
            assert!(
                matches!(list_shape(&req(ranges)), ListShape::Enumerated),
                "irregular {count}-range access should ship enumerated"
            );
        }

        // Over the per-pattern range cap, always enumerated (the descriptor
        // would be rejected server-side).
        let huge: Vec<(u64, u64)> = (0..=MAX_PATTERN_RANGES as u64)
            .map(|i| (i * 64, 16))
            .collect();
        assert!(matches!(list_shape(&req(huge)), ListShape::Enumerated));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A write payload built in piece order is the one the zero-filled
        /// buffer and its gather gave, byte for byte: over random exact
        /// plans on linear and multidimensional files, runs unsorted,
        /// duplicated and self-overlapping.
        #[test]
        fn gathered_payloads_equal_zero_fill_and_gather(
            multidim in proptest::bool::ANY,
            servers in 1usize..5,
            raw in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), any::<u64>(), 0u64..2048),
                0..40,
            ),
        ) {
            let layout = if multidim {
                Layout::Multidim(
                    crate::layout::MultidimLayout::new(
                        crate::geometry::Shape::new(vec![64, 48]).unwrap(),
                        crate::geometry::Shape::new(vec![16, 16]).unwrap(),
                        1,
                    )
                    .unwrap(),
                )
            } else {
                Layout::Linear(LinearLayout::new(512, 16 * 512).unwrap())
            };
            let bricks = layout.num_bricks();
            let map = BrickMap::from_assignment(round_robin(bricks, servers), servers);
            let runs: Vec<BrickRun> = raw
                .iter()
                .map(|&(b, off, len, buf_off)| {
                    let brick = b % bricks;
                    let brick_off = off % layout.brick_len(brick);
                    BrickRun {
                        brick,
                        brick_off,
                        buf_off,
                        len: 1 + len % (layout.brick_len(brick) - brick_off),
                    }
                })
                .collect();
            let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
            for req in plan_list(&runs, &map, &layout, Granularity::Exact, 0).unwrap() {
                let mut want = vec![0u8; req.wire_bytes() as usize];
                for p in &req.pieces {
                    want[p.payload_off as usize..(p.payload_off + p.len) as usize]
                        .copy_from_slice(&data[p.buf_off as usize..(p.buf_off + p.len) as usize]);
                }
                prop_assert_eq!(gather(&req, &data), want);
            }
        }
    }
}
