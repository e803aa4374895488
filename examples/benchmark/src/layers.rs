//! Per-layer numbers, taken from outside the program only: deltas of the
//! public statistics across the traced window, the harness's spans, and
//! *layer replay* — one operation's actual inputs (layout, brick map,
//! per-server ranges, request and reply frames, metadata ops) captured
//! once, then each layer's public function called directly, many times,
//! on one thread with the cluster idle.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use dpfs_core::layout::BrickRun;
use dpfs_core::plan::{plan_list, ListRequest};
use dpfs_core::trace::{self, HistSnapshot};
use dpfs_core::{ClientStats, Dpfs, Granularity, Layout};
use dpfs_meta::{Catalog, Database, Distribution, FileAttrRow};
use dpfs_metad::MetadStatsSnapshot;
use dpfs_proto::frame::{self, crc32, decode_slice, read_frame_any};
use dpfs_proto::{AccessPattern, MetaOp, Request, Response};
use dpfs_server::{StatsSnapshot, SubfileStore};

use crate::cluster::{self, Cluster};
use crate::driver::OP_SPAN;
use crate::host;
use crate::spans::Recorder;
use crate::workloads::{add_stats, Access, AccessShape, Client, Probe};
use crate::Res;

pub type Values = BTreeMap<&'static str, f64>;

/// One client-side view of a group of peers, summed over every mount.
#[derive(Default)]
struct Rpc {
    submitted: u64,
    req_bytes: u64,
    list_io: u64,
    retries: u64,
    in_flight_peak: u64,
    lat: HistSnapshot,
}

impl Rpc {
    fn add(&mut self, fs: &Dpfs, peer: &str) {
        let Some(t) = fs.pool().transport_stats(peer) else {
            return; // never dialed
        };
        self.submitted += t.submitted;
        self.req_bytes += t.req_bytes;
        self.list_io += t.list_io;
        self.retries += t.retries + t.timed_out;
        self.in_flight_peak = self.in_flight_peak.max(t.in_flight_peak);
        for h in [&t.read_latency, &t.write_latency, &t.other_latency] {
            self.lat.merge(h);
        }
    }
}

/// Every public counter the layer table reads, at one instant.
pub struct Scrape {
    ionds: Vec<StatsSnapshot>,
    metads: Vec<MetadStatsSnapshot>,
    io_rpc: Rpc,
    meta_rpc: Rpc,
    cache: (u64, u64),
    io: ClientStats,
    trace_recorded: u64,
    trace_dropped: u64,
}

impl Scrape {
    pub fn take(cluster: &Cluster, clients: &[Box<dyn Client>]) -> Scrape {
        let mut s = Scrape {
            ionds: cluster.ionds.iter().map(|s| s.stats()).collect(),
            metads: cluster.metads.iter().map(|m| m.stats()).collect(),
            io_rpc: Rpc::default(),
            meta_rpc: Rpc::default(),
            cache: (0, 0),
            io: ClientStats::default(),
            trace_recorded: trace::ring().recorded(),
            trace_dropped: trace::ring().dropped(),
        };
        for client in clients {
            let fs = client.fs();
            for i in 0..cluster::IO_SERVERS {
                s.io_rpc.add(fs, &cluster::iond_name(i));
            }
            for i in 0..cluster::METAD_SHARDS {
                s.meta_rpc.add(fs, &cluster::metad_name(i));
            }
            let (hits, misses) = fs.meta_cache_stats().unwrap_or((0, 0));
            s.cache.0 += hits;
            s.cache.1 += misses;
            add_stats(&mut s.io, client.io_stats());
        }
        s
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean (µs) of the values recorded between two snapshots of a
/// histogram, given as `(count, sum_ns)` pairs.
fn mean_us(after: (u64, u64), before: (u64, u64)) -> f64 {
    ratio(
        after.1.saturating_sub(before.1) as f64 / 1e3,
        after.0.saturating_sub(before.0) as f64,
    )
}

fn iond_lat(s: &[StatsSnapshot]) -> (u64, u64) {
    s.iter()
        .flat_map(|s| [&s.read_latency, &s.write_latency, &s.other_latency])
        .fold((0, 0), |acc, h| (acc.0 + h.count, acc.1 + h.sum))
}

fn metad_lat(s: &[MetadStatsSnapshot]) -> (u64, u64) {
    s.iter()
        .flat_map(|s| s.op_latency.iter())
        .fold((0, 0), |acc, (_, h)| (acc.0 + h.count, acc.1 + h.sum))
}

/// The counter-derived layer metrics of the window between two scrapes
/// in which `ops` operations completed.
pub fn window_metrics(before: &Scrape, after: &Scrape, ops: f64, out: &mut Values) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let (io_a, io_b) = (&after.io_rpc, &before.io_rpc);
    let (md_a, md_b) = (&after.meta_rpc, &before.meta_rpc);
    let io_submitted = d(io_a.submitted, io_b.submitted);
    let md_submitted = d(md_a.submitted, md_b.submitted);

    out.insert(
        "core.transport.rpcs_per_op",
        (io_submitted + md_submitted) / ops,
    );
    out.insert(
        "core.transport.req_bytes_per_op",
        (d(io_a.req_bytes, io_b.req_bytes) + d(md_a.req_bytes, md_b.req_bytes)) / ops,
    );
    out.insert(
        "core.transport.list_io_share",
        ratio(d(io_a.list_io, io_b.list_io), io_submitted),
    );
    out.insert(
        "core.transport.in_flight_peak",
        io_a.in_flight_peak.max(md_a.in_flight_peak) as f64,
    );
    out.insert(
        "core.transport.retries",
        d(io_a.retries, io_b.retries) + d(md_a.retries, md_b.retries),
    );
    let rpc_us = mean_us(
        (io_a.lat.count, io_a.lat.sum),
        (io_b.lat.count, io_b.lat.sum),
    );
    let meta_rpc_us = mean_us(
        (md_a.lat.count, md_a.lat.sum),
        (md_b.lat.count, md_b.lat.sum),
    );
    out.insert("core.transport.rpc_us", rpc_us);
    out.insert("core.remote_meta.rpc_us", meta_rpc_us);
    out.insert("core.remote_meta.rpcs_per_op", md_submitted / ops);

    let hits = d(after.cache.0, before.cache.0);
    let misses = d(after.cache.1, before.cache.1);
    out.insert("core.meta_cache.hit_ratio", ratio(hits, hits + misses));

    out.insert(
        "core.plan.requests_per_op",
        d(after.io.requests, before.io.requests) / ops,
    );
    out.insert(
        "core.plan.wire_efficiency",
        ratio(
            d(after.io.useful_read, before.io.useful_read),
            d(after.io.wire_read, before.io.wire_read),
        ),
    );

    let sum = |s: &[StatsSnapshot], f: fn(&StatsSnapshot) -> u64| s.iter().map(f).sum::<u64>();
    let service_us = mean_us(iond_lat(&after.ionds), iond_lat(&before.ionds));
    out.insert("server.handler.service_us", service_us);
    out.insert(
        "server.handler.requests_per_op",
        d(
            sum(&after.ionds, |s| s.requests),
            sum(&before.ionds, |s| s.requests),
        ) / ops,
    );
    out.insert(
        "server.handler.errors",
        d(
            sum(&after.ionds, |s| s.errors),
            sum(&before.ionds, |s| s.errors),
        ),
    );
    // Wire + readiness runtime + worker queue + client demux: what a
    // round trip costs beyond the handler. Zero without I/O RPCs.
    out.insert(
        "server.service.rpc_gap_us",
        if io_submitted > 0.0 {
            rpc_us - service_us
        } else {
            0.0
        },
    );

    let metad_us = mean_us(metad_lat(&after.metads), metad_lat(&before.metads));
    let meta_ops = |s: &[MetadStatsSnapshot]| s.iter().map(|s| s.meta_ops).sum::<u64>();
    out.insert("metad.handler.service_us", metad_us);
    out.insert(
        "metad.handler.ops_per_op",
        d(meta_ops(&after.metads), meta_ops(&before.metads)) / ops,
    );
    out.insert(
        "metad.service.rpc_gap_us",
        if md_submitted > 0.0 {
            meta_rpc_us - metad_us
        } else {
            0.0
        },
    );

    out.insert(
        "obs.trace.dropped",
        d(after.trace_dropped, before.trace_dropped),
    );
    out.insert(
        "obs.trace.recorded_per_op",
        d(after.trace_recorded, before.trace_recorded) / ops,
    );
}

/// Median durations of the harness spans, under the layer names.
pub fn span_metrics(recorders: &[Recorder], out: &mut Values) {
    const SPANS: [(&str, &str, f64); 10] = [
        ("core.fs.open", "core.fs.open_us", 50.0),
        ("core.fs.create", "core.fs.create_us", 50.0),
        ("core.fs.stat", "core.fs.stat_us", 50.0),
        ("core.fs.rename", "core.fs.rename_us", 50.0),
        ("core.fs.unlink", "core.fs.unlink_us", 50.0),
        ("core.file.read", "core.file.read_us", 50.0),
        ("core.file.write", "core.file.write_us", 50.0),
        (OP_SPAN, "client.lat_p50_us", 50.0),
        (OP_SPAN, "client.lat_p95_us", 95.0),
        (OP_SPAN, "client.lat_p99_us", 99.0),
    ];
    for (span, metric, p) in SPANS {
        let mut all: Vec<u64> = recorders.iter().flat_map(|r| r.durations(span)).collect();
        all.sort_unstable();
        out.insert(metric, host::percentile(&all, p) as f64 / 1e3);
    }
}

// ------------------------------------------------------------ layer replay

/// How many times replay calls each function, and for how long at most.
#[derive(Clone, Copy)]
pub struct ReplayBudget {
    pub calls: usize,
    pub cap: Duration,
}

/// Call `f` repeatedly, each call a child span of the current replay
/// operation and preceded by an untimed `prepare`; return the median call
/// time in µs.
fn timed_after(
    rec: &mut Recorder,
    budget: ReplayBudget,
    name: &'static str,
    mut prepare: impl FnMut(),
    mut f: impl FnMut(),
) -> f64 {
    let started = Instant::now();
    let floor = budget.calls.min(20);
    let mut done = 0;
    while done < budget.calls && (done < floor || started.elapsed() < budget.cap) {
        prepare();
        rec.layer(name, &mut f);
        done += 1;
    }
    percentile_us(rec, name, 50.0)
}

fn timed(rec: &mut Recorder, budget: ReplayBudget, name: &'static str, f: impl FnMut()) -> f64 {
    timed_after(rec, budget, name, || (), f)
}

/// Percentile (µs) of the spans called `name` in `rec`.
fn percentile_us(rec: &Recorder, name: &str, p: f64) -> f64 {
    let mut all = rec.durations(name);
    all.sort_unstable();
    host::percentile(&all, p) as f64 / 1e3
}

fn map_runs(access: &Access) -> Res<Vec<BrickRun>> {
    let layout = access.handle.layout();
    Ok(match (&access.shape, layout) {
        (AccessShape::Region(region), Layout::Multidim(md)) => md.map_region(region)?,
        (AccessShape::Region(region), Layout::Array(ar)) => ar.map_region(region)?,
        (AccessShape::Datatype { base, dtype }, Layout::Linear(lin)) => {
            let mut runs = Vec::new();
            let mut buf_off = 0;
            for (off, len) in dtype.flatten() {
                runs.extend(lin.map_bytes(base + off, len, buf_off));
                buf_off += len;
            }
            runs
        }
        (AccessShape::Bytes { offset, len }, Layout::Linear(lin)) => {
            lin.map_bytes(*offset, *len, 0)
        }
        _ => return Err("replay: access shape does not fit the file's level".into()),
    })
}

fn plan(access: &Access, runs: &[BrickRun]) -> Res<Vec<ListRequest>> {
    let granularity = if access.payload.is_some() {
        Granularity::Exact
    } else {
        access.granularity
    };
    plan_list(
        runs,
        access.handle.brick_map(),
        access.handle.layout(),
        granularity,
        access.rank,
    )
    .ok_or_else(|| "replay: the operation no longer plans as list I/O".into())
}

/// The request the client library puts on the wire for `req`: a pattern
/// descriptor when that encodes smaller than the enumerated ranges (the
/// cost model of `dpfs_core::file`, which is private; `replay_data` checks
/// the result against the window's `rpc.list_io` counter), else the
/// enumerated shape.
fn wire_request(access: &Access, req: &ListRequest) -> Request {
    let subfile = access.handle.path().to_string();
    let pattern = AccessPattern::from_runs(&req.ranges);
    let compact = pattern.encoded_len() < 4 + 16 * req.ranges.len();
    match &access.payload {
        None if compact => Request::ReadList { subfile, pattern },
        None => Request::Read {
            subfile,
            ranges: req.ranges.clone(),
        },
        Some(data) => {
            let mut payload = vec![0u8; req.wire_bytes() as usize];
            for p in &req.pieces {
                payload[p.payload_off as usize..(p.payload_off + p.len) as usize]
                    .copy_from_slice(&data[p.buf_off as usize..(p.buf_off + p.len) as usize]);
            }
            let payload = Bytes::from(payload);
            if compact {
                Request::WriteList {
                    subfile,
                    pattern,
                    payload,
                }
            } else {
                let mut at = 0;
                let ranges = req
                    .ranges
                    .iter()
                    .map(|&(off, len)| {
                        let piece = payload.slice(at..at + len as usize);
                        at += len as usize;
                        (off, piece)
                    })
                    .collect();
                Request::Write { subfile, ranges }
            }
        }
    }
}

fn request_frame(req: &Request, out: &mut impl io::Write) -> Res<()> {
    let parts = req.encode_parts();
    let refs: Vec<&[u8]> = parts.iter().map(|p| &p[..]).collect();
    frame::write_frame_v3_parts(out, 1, 1, &refs)?;
    Ok(())
}

/// Replay the data path of `access` layer by layer.
fn replay_data(
    cluster: &Cluster,
    access: &Access,
    scratch: &Path,
    budget: ReplayBudget,
    rec: &mut Recorder,
    out: &mut Values,
) -> Res<()> {
    let runs = map_runs(access)?;
    let map_us = timed(rec, budget, "core.layout.map", || {
        std::hint::black_box(map_runs(access).map(|r| r.len()).unwrap_or(0));
    });
    out.insert("core.layout.map_us", map_us);

    let reqs = plan(access, &runs)?;
    let plan_us = timed(rec, budget, "core.plan.plan", || {
        std::hint::black_box(plan(access, &runs).map(|r| r.len()).unwrap_or(0));
    });
    out.insert("core.plan.plan_us", plan_us);

    // One server's share of the operation: the first request planned.
    let first = &reqs[0];
    let server = &cluster.ionds[first.server];
    let pattern = AccessPattern::from_runs(&first.ranges);
    out.insert(
        "proto.pattern.compress_us",
        timed(rec, budget, "proto.pattern.compress", || {
            std::hint::black_box(AccessPattern::from_runs(&first.ranges));
        }),
    );
    let mut encoded = BytesMut::new();
    pattern.encode_into(&mut encoded);
    let encoded = encoded.freeze();
    out.insert(
        "proto.pattern.expand_us",
        timed(rec, budget, "proto.pattern.expand", || {
            let ranges = AccessPattern::decode_from(&mut encoded.clone()).map(|p| p.expand());
            std::hint::black_box(ranges.map(|r| r.len()).unwrap_or(0));
        }),
    );

    let request = wire_request(access, first);
    // `wire_request` repeats a decision that belongs to the client library.
    // The window's own counter says which shape the library really sent;
    // a replay that disagrees with it measures the wrong message.
    let list_io_share = out.get("core.transport.list_io_share").copied();
    let replays_list = matches!(
        request,
        Request::ReadList { .. } | Request::WriteList { .. }
    );
    if let Some(share) = list_io_share {
        if (replays_list && share == 0.0) || (!replays_list && share == 1.0) {
            return Err(format!(
                "replay: rebuilt a {} request, but {share:.2} of the window's I/O RPCs were list I/O",
                if replays_list { "list" } else { "legacy" }
            )
            .into());
        }
    }
    out.insert(
        "proto.message.encode_us",
        timed(rec, budget, "proto.message.encode", || {
            let _ = request_frame(&request, &mut io::sink());
        }),
    );
    let mut request_bytes = Vec::new();
    request_frame(&request, &mut request_bytes)?;
    out.insert(
        "proto.message.server_decode_us",
        timed(rec, budget, "proto.message.server_decode", || {
            let decoded = decode_slice(&request_bytes)
                .ok()
                .flatten()
                .map(|(f, _)| Request::decode(f.payload));
            std::hint::black_box(decoded.is_some());
        }),
    );

    let response = server.handler().handle(request.clone());
    if matches!(response, Response::Error { .. }) {
        return Err(format!("replay: server refused the captured request: {response:?}").into());
    }
    out.insert(
        "server.handler.direct_us",
        timed(rec, budget, "server.handler.direct", || {
            std::hint::black_box(server.handler().handle(request.clone()));
        }),
    );
    out.insert(
        "proto.message.server_encode_us",
        timed(rec, budget, "proto.message.server_encode", || {
            let _ = frame::write_frame_v2(&mut io::sink(), 1, &response.encode());
        }),
    );
    let mut reply_bytes = Vec::new();
    frame::write_frame_v2(&mut reply_bytes, 1, &response.encode())?;
    out.insert(
        "proto.message.decode_us",
        timed(rec, budget, "proto.message.decode", || {
            let decoded =
                read_frame_any(&mut &reply_bytes[..]).map(|f| Response::decode(f.payload));
            std::hint::black_box(decoded.is_ok());
        }),
    );

    // The same ranges against a scratch store: page-cache figures.
    let store = SubfileStore::open(&scratch.join("probe-store"), 0)?;
    let extent = first.ranges.iter().map(|&(o, l)| o + l).max().unwrap_or(0);
    store.write_ranges("probe", &[(0, Bytes::from(vec![7u8; extent as usize]))])?;
    if access.payload.is_none() {
        out.insert(
            "server.subfile.read_us",
            timed(rec, budget, "server.subfile.read", || {
                std::hint::black_box(
                    store
                        .read_ranges_coalesced("probe", &first.ranges)
                        .map(|b| b.len())
                        .unwrap_or(0),
                );
            }),
        );
    } else {
        let blob = Bytes::from(vec![9u8; first.wire_bytes() as usize]);
        let mut at = 0;
        let pieces: Vec<(u64, Bytes)> = first
            .ranges
            .iter()
            .map(|&(off, len)| {
                let piece = blob.slice(at..at + len as usize);
                at += len as usize;
                (off, piece)
            })
            .collect();
        out.insert(
            "server.subfile.write_us",
            timed(rec, budget, "server.subfile.write", || {
                std::hint::black_box(store.write_ranges("probe", &pieces).unwrap_or(0));
            }),
        );
    }
    Ok(())
}

fn probe_attr(path: &str) -> FileAttrRow {
    FileAttrRow {
        filename: path.to_string(),
        owner: "dpfs".into(),
        permission: 0o644,
        size: 4096,
        filelevel: "linear".into(),
        dims: 0,
        dimsize: Vec::new(),
        stripe_dims: Vec::new(),
        stripe_size: 4096,
        pattern: String::new(),
        placement: "round_robin".into(),
        redundancy: String::new(),
    }
}

fn probe_dist(path: &str) -> Vec<Distribution> {
    (0..cluster::IO_SERVERS)
        .map(|i| Distribution {
            server: cluster::iond_name(i),
            filename: path.to_string(),
            bricklist: if i == 0 { vec![0] } else { Vec::new() },
        })
        .collect()
}

/// Create + delete one file through `catalog`, timed as a pair.
fn create_delete_us(
    rec: &mut Recorder,
    budget: ReplayBudget,
    name: &'static str,
    catalog: &Catalog,
) -> f64 {
    let (attr, dist) = (probe_attr("/probe-file"), probe_dist("/probe-file"));
    timed(rec, budget, name, || {
        let _ = catalog.create_file(&attr, &dist);
        let _ = catalog.delete_file("/probe-file");
    })
}

/// Replay the metadata path: the daemon's handler without a socket, then
/// SQL, catalog and WAL on databases of the benchmark's own.
fn replay_meta(
    cluster: &Cluster,
    fs: &Dpfs,
    stat_path: &str,
    scratch: &Path,
    budget: ReplayBudget,
    rec: &mut Recorder,
    out: &mut Values,
) -> Res<()> {
    let remote = fs.remote_meta().ok_or("replay: not a remote mount")?;
    let stat_handler = cluster.metads[remote.route_file(stat_path)].handler();
    out.insert(
        "metad.handler.direct_stat_us",
        timed(rec, budget, "metad.handler.direct_stat", || {
            std::hint::black_box(stat_handler.handle(Request::Meta {
                op: MetaOp::GetFileAttr {
                    filename: stat_path.to_string(),
                },
            }));
        }),
    );
    let create_path = "/probe-create";
    let create_handler = cluster.metads[remote.route_file(create_path)].handler();
    let create = Request::Meta {
        op: MetaOp::CreateFile {
            attr: probe_attr(create_path),
            dist: probe_dist(create_path),
        },
    };
    let delete = Request::Meta {
        op: MetaOp::DeleteFile {
            filename: create_path.to_string(),
        },
    };
    // Each timed create is preceded by an untimed delete, so every one
    // finds the name free.
    out.insert(
        "metad.handler.direct_create_us",
        timed_after(
            rec,
            budget,
            "metad.handler.direct_create",
            || {
                create_handler.handle(delete.clone());
            },
            || {
                std::hint::black_box(create_handler.handle(create.clone()));
            },
        ),
    );
    create_handler.handle(delete);

    // An in-memory catalog the size of the churn data set.
    let db = Arc::new(Database::in_memory());
    let catalog = Catalog::new(db.clone())?;
    for k in 0..512 {
        let path = format!("/p{k}");
        catalog.create_file(&probe_attr(&path), &probe_dist(&path))?;
    }
    // The statement `Catalog::get_file_attr` formats for this lookup.
    let sql = "SELECT * FROM dpfs_file_attr WHERE filename = '/p256'";
    let stmt = dpfs_meta::sql::parse(sql)?;
    out.insert(
        "meta.sql.parse_us",
        timed(rec, budget, "meta.sql.parse", || {
            std::hint::black_box(dpfs_meta::sql::parse(sql).is_ok());
        }),
    );
    out.insert(
        "meta.db.exec_us",
        timed(rec, budget, "meta.db.exec", || {
            std::hint::black_box(db.execute_stmt(stmt.clone()).is_ok());
        }),
    );
    out.insert(
        "meta.catalog.get_attr_us",
        timed(rec, budget, "meta.catalog.get_attr", || {
            std::hint::black_box(catalog.get_file_attr("/p256").is_ok());
        }),
    );
    out.insert(
        "meta.catalog.create_delete_us",
        create_delete_us(rec, budget, "meta.catalog.create_delete", &catalog),
    );

    // The same pair on three empty catalogs: in memory, over a WAL, and
    // over a WAL with fsync. The differences are what a commit and what
    // durability cost on this sandbox's disk.
    let wal = |dir: &str, sync: bool| -> Res<Catalog> {
        let db = Database::open_with_sync(&scratch.join(dir), sync)?;
        Ok(Catalog::new(Arc::new(db))?)
    };
    let empty = Catalog::new(Arc::new(Database::in_memory()))?;
    let in_memory = create_delete_us(rec, budget, "meta.wal.in_memory", &empty);
    let no_sync = create_delete_us(rec, budget, "meta.wal.no_sync", &wal("wal-nosync", false)?);
    let sync = create_delete_us(rec, budget, "meta.wal.sync", &wal("wal-sync", true)?);
    out.insert("meta.wal.commit_us", (no_sync - in_memory).max(0.0));
    out.insert("meta.wal.fsync_us", (sync - no_sync).max(0.0));
    Ok(())
}

/// Replay one captured operation against the idle cluster, every call a
/// child span of one `replay` operation in `rec`.
pub fn replay(
    cluster: &Cluster,
    fs: &Dpfs,
    probe: &Probe,
    scratch: &Path,
    budget: ReplayBudget,
    rec: &mut Recorder,
    out: &mut Values,
) -> Res<()> {
    rec.set_enabled(true);
    rec.op("replay", |rec| {
        let block = vec![0xa5u8; 1 << 20];
        let crc_us = timed(rec, budget, "proto.frame.crc", || {
            std::hint::black_box(crc32(std::hint::black_box(&block)));
        });
        // Bytes per µs are 10^6 bytes per second.
        out.insert("proto.frame.crc_mb_s", ratio(block.len() as f64, crc_us));

        let pings = ReplayBudget {
            calls: budget.calls.max(100),
            ..budget
        };
        let rtt_us = timed(rec, pings, "core.transport.ping", || {
            let _ = fs.pool().rpc(&cluster::iond_name(0), &Request::Ping);
        });
        out.insert("core.transport.ping_rtt_us", rtt_us);
        out.insert(
            "core.transport.ping_rtt_p95_us",
            percentile_us(rec, "core.transport.ping", 95.0),
        );

        if let Some(access) = &probe.access {
            replay_data(cluster, access, scratch, budget, rec, out)?;
        }
        if let Some(path) = &probe.stat_path {
            replay_meta(cluster, fs, path, scratch, budget, rec, out)?;
        }
        Ok(())
    })
}
