//! `dpfs-metad` — standalone DPFS metadata daemon.
//!
//! Runs the metadata server the paper's clients query for every open,
//! stat and layout lookup (§5). It owns the catalog database — clients
//! and I/O servers never touch it directly — and serves the metadata RPCs
//! over the same framed transport as the I/O nodes.
//!
//! ```text
//! dpfs-metad --dir /var/dpfs-meta [--bind 0.0.0.0:7441] [--sync]
//!            [--name NAME] [--stats-interval SECS]
//!            [--shard ID --shards N]
//! ```
//!
//! Omitting `--dir` runs an in-memory catalog (gone at exit — useful for
//! smoke tests only). `--sync` makes commits fsync the write-ahead state.
//! `--shard ID --shards N` serves shard ID of an N-wide partitioned
//! metadata plane (clients mount all N daemons with repeated
//! `dpfs-sh --metad` flags, in shard order).
//!
//! Logging verbosity is controlled by the `DPFS_LOG` environment variable
//! (`error`, `info` — the default — or `debug`).

use std::time::Duration;

use dpfs_metad::{MetaServer, MetadConfig};
use dpfs_obs::{log_error, log_info};

struct Args {
    dir: Option<String>,
    bind: String,
    sync: bool,
    name: Option<String>,
    stats_interval: u64,
    shard_id: u32,
    shards: u32,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dir: None,
        bind: "0.0.0.0:7441".to_string(),
        sync: false,
        name: None,
        stats_interval: 0,
        shard_id: 0,
        shards: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--dir" => args.dir = Some(value("--dir")?),
            "--bind" => args.bind = value("--bind")?,
            "--sync" => args.sync = true,
            "--name" => args.name = Some(value("--name")?),
            "--stats-interval" => {
                args.stats_interval = value("--stats-interval")?
                    .parse()
                    .map_err(|e| format!("bad --stats-interval: {e}"))?
            }
            "--shard" => {
                args.shard_id = value("--shard")?
                    .parse()
                    .map_err(|e| format!("bad --shard: {e}"))?
            }
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("bad --shards: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: dpfs-metad [--dir DIR] [--bind ADDR:PORT] [--sync] [--name NAME] \
                     [--stats-interval SECS] [--shard ID --shards N]\n\
                     omitting --dir serves an in-memory (non-persistent) catalog\n\
                     --shard/--shards serve one shard of a partitioned metadata plane\n\
                     set DPFS_LOG=error|info|debug to control log verbosity (default info)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.shards == 0 || args.shard_id >= args.shards {
        return Err(format!(
            "--shard {} out of range for --shards {}",
            args.shard_id, args.shards
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            log_error!("dpfs-metad: {e}");
            std::process::exit(2);
        }
    };
    let mut config = MetadConfig::in_memory()
        .bind(&args.bind)
        .shard(args.shard_id, args.shards);
    config.sync_on_commit = args.sync;
    if let Some(name) = &args.name {
        config = config.name(name.clone());
    }
    if let Some(dir) = &args.dir {
        config = config.dir(dir);
    }
    let name = config.name.clone();

    let server = match MetaServer::start(config) {
        Ok(s) => s,
        Err(e) => {
            log_error!("dpfs-metad: failed to start: {e}");
            std::process::exit(1);
        }
    };
    log_info!(
        "dpfs-metad `{name}` serving {} on {} (shard {}/{})",
        args.dir.as_deref().unwrap_or("an in-memory catalog"),
        server.addr(),
        args.shard_id,
        args.shards
    );
    log_info!("mount with: dpfs-sh --metad {}", server.addr());

    // Serve until killed; optionally print stats periodically.
    loop {
        std::thread::sleep(Duration::from_secs(match args.stats_interval {
            0 => 60, // off: nothing to print, just stay alive
            n => n,
        }));
        if args.stats_interval > 0 {
            let s = server.stats();
            log_info!(
                "stats: conns={} reqs={} meta_ops={} errors={} in_flight={}",
                s.connections,
                s.requests,
                s.meta_ops,
                s.errors,
                s.in_flight
            );
            for (op, h) in &s.op_latency {
                log_info!("  {op}: n={} lat_us={}", h.count, h.summary_us());
            }
        }
    }
}
