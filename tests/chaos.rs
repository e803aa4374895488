//! Chaos harness: the fault-tolerance layer proven under injected faults.
//!
//! A [`FaultProxy`] sits between the client and one I/O server, severing
//! connections mid-stream on a schedule; servers get killed and restarted
//! on their original ports. The invariants under all of it:
//!
//! - striped writes and reads complete byte-exact through a flapping
//!   server, with the retry layer absorbing every cut (and recording it in
//!   transport stats and the trace ring);
//! - a kill + restart preserves on-disk subfile data, and the *same*
//!   client file handle reads it back without being reopened;
//! - concurrent clients survive a kill/restart schedule and converge to a
//!   consistent, byte-exact state once the faults stop.
//!
//! The first test asserts that its cuts were recorded as `retry` spans and
//! exports its trace slice to `DPFS_TRACE_OUT` (append mode).

use std::sync::atomic::Ordering;
use std::time::Duration;

use dpfs::cluster::{FaultProxy, Testbed};
use dpfs::core::trace::{export_jsonl, ring};
use dpfs::core::{ClientOptions, Dpfs, DpfsError, Hint, RedundancyPolicy, RetryPolicy};

/// A retry policy tuned for chaos: more attempts, tight backoffs so the
/// whole schedule stays inside the CI time budget.
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(40),
        ..RetryPolicy::default()
    }
}

/// Deterministic, zero-free payload byte for offset `i` (zero-free so holes
/// from lost writes can never masquerade as correct data).
fn pat(i: usize) -> u8 {
    (i % 251) as u8 + 1
}

/// Append this test's slice of the global trace ring to `DPFS_TRACE_OUT`,
/// if set. Append (not truncate): other test binaries share the file.
fn export_trace_slice(cursor: u64) {
    let Ok(path) = std::env::var("DPFS_TRACE_OUT") else {
        return;
    };
    let events = ring().events_since(cursor);
    use std::io::Write;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = f.write_all(export_jsonl(&events).as_bytes());
    }
}

/// ISSUE acceptance scenario: 4 servers, a proxy flapping `ion01`, a 4 MiB
/// striped write + read-back that must come out byte-exact with at least
/// one recorded retry.
#[test]
fn flapping_server_write_read_back_with_retries() {
    let tb = Testbed::unthrottled(4).unwrap();
    let proxy = FaultProxy::start(tb.server_addr(1)).unwrap();

    // Re-route ion01 through the proxy; the other three are direct.
    let mut resolver = tb.resolver();
    resolver.alias("ion01", &proxy.addr().to_string());
    let client = Dpfs::mount(
        tb.db(),
        resolver,
        ClientOptions {
            retry: chaos_retry(),
            ..ClientOptions::default()
        },
    )
    .unwrap();

    let cursor = ring().cursor();
    // Sever (both directions of) the relay every 10 frames, dropping the
    // triggering frame: requests vanish, responses vanish, and the client
    // must absorb each as a transient Disconnected.
    proxy.knobs().cut_every_frames.store(10, Ordering::Relaxed);

    const TOTAL: usize = 4 << 20; // 4 MiB
    const SLICE: usize = 256 << 10;
    let mut f = client
        .create("/flap", &Hint::linear(64 << 10, TOTAL as u64))
        .unwrap();
    let data: Vec<u8> = (0..TOTAL).map(pat).collect();
    for (i, chunk) in data.chunks(SLICE).enumerate() {
        f.write_bytes((i * SLICE) as u64, chunk).unwrap();
    }
    f.sync().unwrap();

    let mut back = Vec::with_capacity(TOTAL);
    for i in 0..TOTAL / SLICE {
        back.extend_from_slice(&f.read_bytes((i * SLICE) as u64, SLICE as u64).unwrap());
    }
    assert_eq!(back.len(), data.len());
    assert!(back == data, "read-back differs from what was written");

    assert!(
        proxy.cuts() >= 1,
        "the schedule never actually cut anything"
    );
    let stats = client.pool().transport_stats("ion01").unwrap();
    assert!(
        stats.retries >= 1,
        "expected at least one recorded retry, stats: {stats:?}"
    );
    // The retries are visible in the trace ring, not just the counters.
    let retry_spans = ring()
        .events_since(cursor)
        .into_iter()
        .filter(|e| e.phase == "retry")
        .count();
    assert!(retry_spans >= 1, "no retry spans recorded");
    export_trace_slice(cursor);
}

/// Kill a server, restart it on the same port, and read data written
/// before the kill back through the *same* file handle — no remount, no
/// reopen. The restarted server must report the surviving subfile as
/// re-opened in its stats.
#[test]
fn kill_restart_preserves_data_same_handle() {
    let mut tb = Testbed::unthrottled(3).unwrap();
    let client = tb.client_opts(ClientOptions {
        retry: chaos_retry(),
        ..ClientOptions::default()
    });

    const TOTAL: usize = 512 << 10;
    let mut f = client
        .create("/phoenix", &Hint::linear(4096, TOTAL as u64))
        .unwrap();
    let data: Vec<u8> = (0..TOTAL).map(pat).collect();
    f.write_bytes(0, &data).unwrap();
    f.sync().unwrap();

    tb.kill_server(1);
    tb.restart_server(1).unwrap();

    let back = f.read_bytes(0, TOTAL as u64).unwrap();
    assert!(back == data, "data lost across kill+restart");

    let stats = tb.server_stats();
    let (name, snap) = &stats[1];
    assert_eq!(name, "ion01");
    assert!(
        snap.subfiles_reopened >= 1,
        "restarted server never re-opened its surviving subfile: {snap:?}"
    );
}

/// A flap *while requests are in flight*: the proxy severs everything
/// mid-workload, repeatedly, and the client still finishes byte-exact.
#[test]
fn mid_flight_severs_are_absorbed() {
    let tb = Testbed::unthrottled(2).unwrap();
    let proxy = FaultProxy::start(tb.server_addr(0)).unwrap();
    let mut resolver = tb.resolver();
    resolver.alias("ion00", &proxy.addr().to_string());
    let client = Dpfs::mount(
        tb.db(),
        resolver,
        ClientOptions {
            retry: chaos_retry(),
            ..ClientOptions::default()
        },
    )
    .unwrap();

    const TOTAL: usize = 256 << 10;
    let mut f = client
        .create("/sever", &Hint::linear(8192, TOTAL as u64))
        .unwrap();
    let data: Vec<u8> = (0..TOTAL).map(pat).collect();

    // Writer races a sever loop flipping the axe every few ms. The axe is
    // always stopped before the scope joins — panicking inside the scope
    // while it still runs would deadlock the join — so write errors are
    // carried out of the scope and asserted after.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let wrote = std::thread::scope(|s| {
        let (stop, proxy) = (&stop, &proxy);
        // 20 ms between swings: several severs land mid-workload, but a
        // retry attempt (redial + relay setup, a few ms in debug builds)
        // can win the race against the next one.
        let axe = s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                proxy.sever_all();
            }
        });
        let mut wrote = Ok(());
        for (i, chunk) in data.chunks(32 << 10).enumerate() {
            wrote = f.write_bytes((i * (32 << 10)) as u64, chunk).map(|_| ());
            if wrote.is_err() {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        axe.join().unwrap();
        wrote
    });
    wrote.unwrap();

    let back = f.read_bytes(0, TOTAL as u64).unwrap();
    assert!(back == data, "mid-flight severs corrupted the file");
}

/// Two clients working concurrently through a kill/restart schedule.
/// Errors *during* the chaos window are tolerated (retries may be
/// exhausted); once the cluster is healthy again, both files must be
/// writable and read back byte-exact.
#[test]
fn concurrent_clients_survive_kill_restart_schedule() {
    let mut tb = Testbed::unthrottled(3).unwrap();
    const TOTAL: usize = 128 << 10;

    let mk_client = |tb: &Testbed| {
        tb.client_opts(ClientOptions {
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(8),
                ..RetryPolicy::default()
            },
            ..ClientOptions::default()
        })
    };

    let clients: Vec<_> = (0..2).map(|_| mk_client(&tb)).collect();
    let mut handles: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(i, c)| {
            c.create(&format!("/c{i}"), &Hint::linear(4096, TOTAL as u64))
                .unwrap()
        })
        .collect();

    // Chaos window: clients hammer writes while server 2 dies and comes
    // back twice. Mid-window errors are allowed; panics/hangs are not.
    std::thread::scope(|s| {
        let workers: Vec<_> = handles
            .iter_mut()
            .map(|f| {
                s.spawn(move || {
                    for round in 0..20usize {
                        let byte = (round % 250) as u8 + 1;
                        let _ = f.write_bytes(0, &vec![byte; TOTAL]);
                        std::thread::sleep(Duration::from_millis(2));
                    }
                })
            })
            .collect();
        for _ in 0..2 {
            std::thread::sleep(Duration::from_millis(15));
            tb.kill_server(2);
            std::thread::sleep(Duration::from_millis(15));
            tb.restart_server(2).unwrap();
        }
        for w in workers {
            w.join().unwrap();
        }
    });

    // Healthy again: a final write + read-back per client must be exact.
    for (i, f) in handles.iter_mut().enumerate() {
        let data: Vec<u8> = (0..TOTAL).map(|j| pat(i + j)).collect();
        f.write_bytes(0, &data).unwrap();
        f.sync().unwrap();
        let back = f.read_bytes(0, TOTAL as u64).unwrap();
        assert!(back == data, "client {i} not byte-exact after recovery");
    }
}

// ------------------------------------------------- redundancy matrix

/// Tight retries for reconstruction tests: a killed server refuses
/// connections immediately, so two quick attempts suffice before the
/// read falls over to reconstruction.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        ..RetryPolicy::default()
    }
}

/// ISSUE acceptance scenario, parameterized over the policy: 4 servers, a
/// 4 MiB redundant file, one server killed — the whole file reads back
/// byte-exact, every lost range
/// reconstructed (counted in transport stats and traced as `reconstruct`
/// spans).
fn killed_server_reads_byte_exact(policy: RedundancyPolicy, path: &str, victim: usize) {
    let mut tb = Testbed::unthrottled(4).unwrap();
    let client = tb.client_opts(ClientOptions {
        retry: fast_retry(),
        ..ClientOptions::default()
    });

    const TOTAL: usize = 4 << 20; // 4 MiB
    const SLICE: usize = 256 << 10;
    let mut f = client
        .create(
            path,
            &Hint::linear(64 << 10, TOTAL as u64).with_redundancy(policy),
        )
        .unwrap();
    let data: Vec<u8> = (0..TOTAL).map(pat).collect();
    for (i, chunk) in data.chunks(SLICE).enumerate() {
        f.write_bytes((i * SLICE) as u64, chunk).unwrap();
    }
    f.sync().unwrap();

    let victim_name = format!("ion{victim:02}");
    tb.kill_server(victim);

    let cursor = ring().cursor();
    let mut back = Vec::with_capacity(TOTAL);
    for i in 0..TOTAL / SLICE {
        back.extend_from_slice(&f.read_bytes((i * SLICE) as u64, SLICE as u64).unwrap());
    }
    assert!(
        back == data,
        "reconstructed read differs from what was written"
    );

    // Reconstructions recorded against the victim.
    let stats = client.pool().transport_stats(&victim_name).unwrap();
    assert!(
        stats.reconstructs >= 1,
        "no reconstruction recorded against {victim_name}: {stats:?}"
    );
    // And the reconstructions are visible as trace spans.
    let spans = ring()
        .events_since(cursor)
        .into_iter()
        .filter(|e| e.phase == "reconstruct")
        .count();
    assert!(spans >= 1, "no reconstruct spans recorded");
    export_trace_slice(cursor);
}

#[test]
fn killed_server_replica2_reads_byte_exact() {
    killed_server_reads_byte_exact(RedundancyPolicy::Replica(2), "/rep2", 1);
}

#[test]
fn killed_server_xor_parity_reads_byte_exact() {
    killed_server_reads_byte_exact(RedundancyPolicy::XorParity, "/xor", 1);
}

/// Degraded reads in parallel on one shared mount: redundant files
/// (`Replica(2)` and `XorParity` alternating) striped over four servers
/// behind two metadata shards, one server killed before any read, then
/// eight threads open and read whole files at once. Every read rebuilds
/// what the dead server held — from the mirror, or from the peers and the
/// parity — while other threads rebuild theirs, and every read is
/// byte-exact.
#[test]
fn killed_server_concurrent_reads_on_one_mount_are_byte_exact() {
    const FILES: usize = 8;
    const THREADS: usize = 8;
    const READS: usize = 6;
    const LEN: u64 = 64 << 10;
    let mut tb = Testbed::unthrottled_with_metad_shards(4, 2).unwrap();
    let client = tb.remote_client_opts(ClientOptions {
        retry: fast_retry(),
        ..ClientOptions::default()
    });
    let byte = |file: usize, j: usize| ((file + j) % 251) as u8 + 1;
    for i in 0..FILES {
        let policy = if i % 2 == 0 {
            RedundancyPolicy::Replica(2)
        } else {
            RedundancyPolicy::XorParity
        };
        let data: Vec<u8> = (0..LEN as usize).map(|j| byte(i, j)).collect();
        let hint = Hint::linear(8 << 10, LEN).with_redundancy(policy);
        let mut f = client.create(&format!("/red{i}"), &hint).unwrap();
        f.write_bytes(0, &data).unwrap();
        f.sync().unwrap();
    }
    tb.kill_server(1);

    std::thread::scope(|s| {
        let readers: Vec<_> = (0..THREADS)
            .map(|t| {
                let client = &client;
                s.spawn(move || {
                    for k in 0..READS {
                        let i = (t + k) % FILES;
                        let path = format!("/red{i}");
                        let back = client.open(&path).unwrap().read_bytes(0, LEN).unwrap();
                        assert_eq!(back.len() as u64, LEN, "thread {t}: {path} short");
                        if let Some(j) = (0..back.len()).find(|&j| back[j] != byte(i, j)) {
                            panic!("thread {t}: byte {j} of {path} not reconstructed");
                        }
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
    });
    let stats = client.pool().transport_stats("ion01").unwrap();
    assert!(
        stats.reconstructs >= 1,
        "no reconstruction recorded against ion01: {stats:?}"
    );
}

/// Sever-mid-flight against a Replica(2) mount: partway through, the
/// proxy starts dropping *every* frame to ion01 — effectively a dead
/// server mid-connection — and reads stay byte-exact, each lost range
/// served by the surviving mirror.
#[test]
fn severed_server_replica2_reads_byte_exact() {
    let tb = Testbed::unthrottled(3).unwrap();
    let proxy = FaultProxy::start(tb.server_addr(1)).unwrap();
    let mut resolver = tb.resolver();
    resolver.alias("ion01", &proxy.addr().to_string());
    let client = Dpfs::mount(
        tb.db(),
        resolver,
        ClientOptions {
            retry: fast_retry(),
            ..ClientOptions::default()
        },
    )
    .unwrap();

    const TOTAL: usize = 1 << 20;
    let mut f = client
        .create(
            "/sever-rep",
            &Hint::linear(32 << 10, TOTAL as u64).with_redundancy(RedundancyPolicy::Replica(2)),
        )
        .unwrap();
    let data: Vec<u8> = (0..TOTAL).map(pat).collect();
    f.write_bytes(0, &data).unwrap();
    f.sync().unwrap();

    // From here on every frame through the proxy dies, including the
    // in-flight ones.
    proxy.knobs().cut_every_frames.store(1, Ordering::Relaxed);
    proxy.sever_all();

    let back = f.read_bytes(0, TOTAL as u64).unwrap();
    assert!(back == data, "severed-server read not byte-exact");
    assert!(
        client.pool().transport_stats("ion01").unwrap().reconstructs >= 1,
        "no reconstruction recorded against the severed server"
    );
}

/// Kill-then-restart against an XorParity mount: reads are byte-exact
/// *during* the outage (reconstructed) and *after* the restart (served
/// from the surviving on-disk subfile), through the same handle.
#[test]
fn kill_restart_xor_parity_byte_exact_throughout() {
    let mut tb = Testbed::unthrottled(4).unwrap();
    let client = tb.client_opts(ClientOptions {
        retry: fast_retry(),
        ..ClientOptions::default()
    });

    const TOTAL: usize = 1 << 20;
    let mut f = client
        .create(
            "/xor-phoenix",
            &Hint::linear(64 << 10, TOTAL as u64).with_redundancy(RedundancyPolicy::XorParity),
        )
        .unwrap();
    let data: Vec<u8> = (0..TOTAL).map(pat).collect();
    f.write_bytes(0, &data).unwrap();
    f.sync().unwrap();

    tb.kill_server(2);
    let during = f.read_bytes(0, TOTAL as u64).unwrap();
    assert!(during == data, "read during outage not byte-exact");

    tb.restart_server(2).unwrap();
    let after = f.read_bytes(0, TOTAL as u64).unwrap();
    assert!(after == data, "read after restart not byte-exact");
}

/// A double loss is an error, never a guess: with the primary's host and
/// its only mirror's host both dead, the read fails with the transport
/// error that lost the primary's bytes — no buffer comes back.
#[test]
fn double_loss_replica2_fails_with_the_primarys_error() {
    let mut tb = Testbed::unthrottled(3).unwrap();
    let client = tb.client_opts(ClientOptions {
        retry: fast_retry(),
        ..ClientOptions::default()
    });

    const TOTAL: usize = 96 << 10;
    let mut f = client
        .create(
            "/double",
            &Hint::linear(4096, TOTAL as u64).with_redundancy(RedundancyPolicy::Replica(2)),
        )
        .unwrap();
    let data: Vec<u8> = (0..TOTAL).map(pat).collect();
    f.write_bytes(0, &data).unwrap();
    f.sync().unwrap();

    // ion01's primary is mirrored on ion02 only.
    tb.kill_server(1);
    tb.kill_server(2);
    match f.read_bytes(0, TOTAL as u64) {
        Err(DpfsError::Connect { server, .. }) => assert_eq!(server, "ion01"),
        other => panic!("expected ion01's connect error, got {other:?}"),
    }
    // One survivor is still enough for the stripe whose copies it holds.
    tb.restart_server(1).unwrap();
    let back = f.read_bytes(0, TOTAL as u64).unwrap();
    assert!(back == data, "single loss after the double not byte-exact");
}

/// Where a test's mount finds its metadata: in-process, or on a two-shard
/// `dpfs-metad` plane over TCP.
#[derive(Debug, Clone, Copy)]
enum Mount {
    Embedded,
    Metad,
}

/// A server comes back with an *empty disk* (lost subfiles); `fsck` flags
/// the file under-protected, `fsck_reprotect` rebuilds the lost copies from
/// the survivors, and a subsequent kill of a *different* server still reads
/// byte-exact.
fn reprotect_after_empty_restart(
    mount: Mount,
    policy: RedundancyPolicy,
    path: &str,
    brick: u64,
    total: usize,
) {
    use dpfs::core::fsck::{fsck_reprotect, fsck_with, Issue};

    let opts = ClientOptions {
        retry: fast_retry(),
        ..ClientOptions::default()
    };
    let (mut tb, client) = match mount {
        Mount::Embedded => {
            let tb = Testbed::unthrottled(4).unwrap();
            let client = tb.client_opts(opts);
            (tb, client)
        }
        Mount::Metad => {
            let tb = Testbed::unthrottled_with_metad_shards(4, 2).unwrap();
            let client = tb.remote_client_opts(opts);
            (tb, client)
        }
    };

    let mut f = client
        .create(
            path,
            &Hint::linear(brick, total as u64).with_redundancy(policy),
        )
        .unwrap();
    let data: Vec<u8> = (0..total).map(pat).collect();
    f.write_bytes(0, &data).unwrap();
    f.sync().unwrap();
    f.close().unwrap();

    // Disk replacement: ion01 loses everything it held.
    tb.kill_server(1);
    tb.restart_server_empty(1).unwrap();

    let report = fsck_with(&client, true, false).unwrap();
    assert!(
        report
            .issues
            .iter()
            .any(|i| matches!(i, Issue::UnderProtected { .. })),
        "fsck missed the under-protection: {:?}",
        report.issues
    );

    let summary = fsck_reprotect(&client).unwrap();
    assert!(
        !summary.fixed.is_empty(),
        "re-protect rebuilt nothing: {summary:?}"
    );
    assert!(summary.unfixable.is_empty(), "unfixable: {summary:?}");
    let report = fsck_with(&client, true, false).unwrap();
    assert!(
        !report
            .issues
            .iter()
            .any(|i| matches!(i, Issue::UnderProtected { .. })),
        "still under-protected after re-protect: {:?}",
        report.issues
    );

    // The file is whole again: a *different* single-server loss must
    // still read byte-exact.
    tb.kill_server(2);
    let mut f = client.open(path).unwrap();
    let back = f.read_bytes(0, total as u64).unwrap();
    assert!(
        back == data,
        "not byte-exact after re-protect + second kill"
    );
}

#[test]
fn fsck_reprotects_replica2_after_empty_restart() {
    for mount in [Mount::Embedded, Mount::Metad] {
        reprotect_after_empty_restart(
            mount,
            RedundancyPolicy::Replica(2),
            "/reprotect-rep",
            16 << 10,
            512 << 10,
        );
    }
}

#[test]
fn fsck_reprotects_xor_parity_after_empty_restart() {
    for mount in [Mount::Embedded, Mount::Metad] {
        reprotect_after_empty_restart(
            mount,
            RedundancyPolicy::XorParity,
            "/reprotect-xor",
            16 << 10,
            512 << 10,
        );
    }
}

/// A sparse file re-protects: one brick of twelve is written, so two of the
/// three data subfiles are legitimately empty. They are still sources — they
/// read back as the zeros parity holds for them — so the one subfile that
/// was lost rebuilds from parity, and the file survives losing parity next.
/// Beside *no* live parity an empty data subfile is no finding at all.
#[test]
fn fsck_reprotects_a_sparse_xor_file() {
    use dpfs::core::fsck::{fsck_reprotect, fsck_with, Issue};

    let mut tb = Testbed::unthrottled(4).unwrap();
    let client = tb.client_opts(ClientOptions {
        retry: fast_retry(),
        ..ClientOptions::default()
    });
    const BRICK: usize = 4096;
    let hint =
        Hint::linear(BRICK as u64, 12 * BRICK as u64).with_redundancy(RedundancyPolicy::XorParity);
    let mut f = client.create("/sparse", &hint).unwrap();
    let data: Vec<u8> = (0..BRICK).map(pat).collect();
    f.write_bytes(0, &data).unwrap();
    f.sync().unwrap();
    f.close().unwrap();
    let under_protected = |client: &Dpfs| -> Vec<Issue> {
        let report = fsck_with(client, true, false).unwrap();
        let flagged = |i: &Issue| matches!(i, Issue::UnderProtected { .. });
        report.issues.into_iter().filter(flagged).collect()
    };

    // Parity's host (the last server) away: nothing says ion01/ion02 lost
    // anything.
    tb.kill_server(3);
    assert_eq!(under_protected(&client), vec![]);
    tb.restart_server(3).unwrap();

    // Disk replacement on the one server that holds data.
    tb.kill_server(0);
    tb.restart_server_empty(0).unwrap();
    let summary = fsck_reprotect(&client).unwrap();
    assert!(summary.unfixable.is_empty(), "unfixable: {summary:?}");
    assert!(
        summary
            .fixed
            .iter()
            .any(|s| s.ends_with("/sparse on ion00")),
        "ion00's subfile not rebuilt: {summary:?}"
    );
    // One pass settles it: the unwritten subfiles were rewritten as zeros.
    assert_eq!(under_protected(&client), vec![]);
    let again = fsck_reprotect(&client).unwrap();
    assert!(
        again.fixed.is_empty() && again.unfixable.is_empty(),
        "{again:?}"
    );

    tb.kill_server(3);
    let mut f = client.open("/sparse").unwrap();
    assert!(f.read_bytes(0, BRICK as u64).unwrap() == data);
}

/// A subfile larger than a frame re-protects: the parent moved a whole
/// subfile per frame and stopped at `MAX_FRAME_LEN`. ion02's primary is
/// grown sparse past it (no memory, no disk) with a marker at its very end;
/// its mirror's host, ion00, comes back with an empty disk.
#[test]
fn fsck_reprotects_a_subfile_larger_than_a_frame() {
    use dpfs::core::fsck::fsck_reprotect;
    use dpfs::proto::{Request, Response, MAX_FRAME_LEN};

    let mut tb = Testbed::unthrottled(3).unwrap();
    let client = tb.client_opts(ClientOptions {
        retry: fast_retry(),
        ..ClientOptions::default()
    });
    const HEAD: usize = 3 * 4096;
    let hint = Hint::linear(4096, HEAD as u64).with_redundancy(RedundancyPolicy::Replica(2));
    let mut f = client.create("/big", &hint).unwrap();
    let head: Vec<u8> = (0..HEAD).map(pat).collect();
    f.write_bytes(0, &head).unwrap();
    f.sync().unwrap();

    let size = MAX_FRAME_LEN as u64 + 1;
    let marker = b"the last bytes of a long subfile";
    let marker_at = size - marker.len() as u64;
    let mark = Request::Write {
        subfile: dpfs::core::primary_subfile(f.id()),
        ranges: vec![(marker_at, marker.to_vec().into())],
    };
    let pool = client.pool();
    pool.rpc_ok("ion02", &mark).unwrap();

    tb.kill_server(0);
    tb.restart_server_empty(0).unwrap();
    let summary = fsck_reprotect(&client).unwrap();
    assert!(summary.unfixable.is_empty(), "unfixable: {summary:?}");

    // The mirror of ion02's primary is whole again, marker and all...
    let mirror = dpfs::core::mirror_subfile(f.id(), 1);
    let stat = Request::Stat {
        subfile: mirror.clone(),
    };
    assert_eq!(
        pool.rpc_ok("ion00", &stat).unwrap(),
        Response::Stat { exists: true, size }
    );
    let tail = Request::Read {
        subfile: mirror,
        ranges: vec![(marker_at, marker.len() as u64)],
    };
    match pool.rpc_ok("ion00", &tail).unwrap() {
        Response::DataList { data } => assert_eq!(&data[..], marker),
        other => panic!("expected DataList, got {other:?}"),
    }
    // ...and so is ion00's own primary: the file reads whole without ion02.
    tb.kill_server(2);
    let mut f = client.open("/big").unwrap();
    assert!(f.read_bytes(0, HEAD as u64).unwrap() == head);
}

/// Re-protection moves a subfile in fixed 4 MiB pieces. Three data subfiles
/// of ≈ 4.3 MB in 3000-byte bricks: every piece boundary falls inside a
/// brick (4 MiB is no multiple of 3000), and the rebuilt subfile must still
/// be byte-exact.
#[test]
fn fsck_reprotects_xor_parity_across_a_chunk_boundary() {
    reprotect_after_empty_restart(
        Mount::Embedded,
        RedundancyPolicy::XorParity,
        "/reprotect-chunks",
        3000,
        13_000_000,
    );
}
