//! Microbenchmarks: the RPC floor — what one round trip through the
//! client transport and the serving runtime costs when the handler costs
//! nothing, on loopback, one request outstanding. The floor reference for
//! `core.transport.rpc_us` and `core.remote_meta.rpc_us`.

use std::time::{Duration, Instant};

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use dpfs_cluster::Testbed;
use dpfs_core::{ConnPool, RetryPolicy, DEFAULT_RPC_TIMEOUT};
use dpfs_proto::{MetaOp, Request, Response};
use std::sync::Arc;

fn bench_rpc_floor(c: &mut Criterion) {
    let tb = Testbed::unthrottled_with_metad(1).expect("testbed");
    let pool = ConnPool::new(
        Arc::new(dpfs_core::Resolver::direct()),
        DEFAULT_RPC_TIMEOUT,
        RetryPolicy::disabled(),
    );
    let ion = tb.server_addr(0).to_string();
    let metad = tb.metad_addr().expect("testbed has a metad").to_string();
    let rpc = |server: &str, req: &Request| pool.rpc(server, req).expect("rpc");

    // Back to back: the server's threads never get to sleep for long.
    c.bench_function("ping_rtt_hot", |b| b.iter(|| rpc(&ion, &Request::Ping)));
    // After 5 ms of silence every thread on the path is asleep: what a
    // client that thinks between requests (`small_read` does) pays.
    c.bench_function("ping_rtt_cold_5ms", |b| {
        b.iter_custom(|iters| {
            let mut timed = Duration::ZERO;
            for _ in 0..iters {
                std::thread::sleep(Duration::from_millis(5));
                let t0 = Instant::now();
                rpc(&ion, &Request::Ping);
                timed += t0.elapsed();
            }
            timed
        })
    });
    // The metad op that touches no SQL: the daemon-side floor of a
    // metadata round trip.
    let shard_map = Request::Meta {
        op: MetaOp::GetShardMap,
    };
    c.bench_function("meta_shard_map_rtt", |b| b.iter(|| rpc(&metad, &shard_map)));
    let block = Request::Write {
        subfile: "/floor.dat".into(),
        ranges: vec![(0, Bytes::from(vec![0x5Au8; 8192]))],
    };
    assert_eq!(rpc(&ion, &block), Response::Written { bytes: 8192 });
    let read = Request::Read {
        subfile: "/floor.dat".into(),
        ranges: vec![(0, 8192)],
    };
    c.bench_function("read_8k_rtt", |b| b.iter(|| rpc(&ion, &read)));
}

criterion_group!(benches, bench_rpc_floor);
criterion_main!(benches);
