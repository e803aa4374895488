//! `dpfs-iond` — standalone DPFS I/O-node daemon.
//!
//! Runs one DPFS server process on a real machine, serving subfiles from a
//! local directory, exactly as the paper deploys a server per storage
//! workstation (§2). Clients reach it by registering its `host:port` as the
//! server name in the metadata catalog.
//!
//! ```text
//! dpfs-iond --root /var/dpfs [--bind 0.0.0.0:7440] [--capacity BYTES]
//!           [--class class1|class2|class3|unthrottled] [--name NAME]
//! ```
//!
//! `--class` enables the storage-class delay model (for experiments);
//! production use leaves it `unthrottled`.
//!
//! Logging verbosity is controlled by the `DPFS_LOG` environment variable
//! (`error`, `info` — the default — or `debug`).

use std::time::Duration;

use dpfs_obs::{log_debug, log_error, log_info};
use dpfs_server::{IoServer, PerfModel, ServerConfig, StorageClass};

struct Args {
    root: String,
    bind: String,
    capacity: u64,
    class: StorageClass,
    name: Option<String>,
    stats_interval: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: String::new(),
        bind: "0.0.0.0:7440".to_string(),
        capacity: 0,
        class: StorageClass::Unthrottled,
        name: None,
        stats_interval: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--root" => args.root = value("--root")?,
            "--bind" => args.bind = value("--bind")?,
            "--capacity" => {
                args.capacity = value("--capacity")?
                    .parse()
                    .map_err(|e| format!("bad --capacity: {e}"))?
            }
            "--class" => {
                let v = value("--class")?;
                args.class =
                    StorageClass::parse(&v).ok_or_else(|| format!("unknown class {v:?}"))?;
            }
            "--name" => args.name = Some(value("--name")?),
            "--stats-interval" => {
                args.stats_interval = value("--stats-interval")?
                    .parse()
                    .map_err(|e| format!("bad --stats-interval: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: dpfs-iond --root DIR [--bind ADDR:PORT] [--capacity BYTES] \
                     [--class CLASS] [--name NAME] [--stats-interval SECS]\n\
                     set DPFS_LOG=error|info|debug to control log verbosity (default info)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.root.is_empty() {
        return Err("--root is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            log_error!("dpfs-iond: {e}");
            std::process::exit(2);
        }
    };
    let name = args.name.unwrap_or_else(|| args.bind.clone());
    let perf: PerfModel = args.class.model();
    let mut config = ServerConfig::new(name.clone(), &args.root, perf).bind(&args.bind);
    config.capacity = args.capacity;

    let server = match IoServer::start(config) {
        Ok(s) => s,
        Err(e) => {
            log_error!("dpfs-iond: failed to start: {e}");
            std::process::exit(1);
        }
    };
    log_info!(
        "dpfs-iond `{name}` serving {} on {} (class {}, capacity {})",
        args.root,
        server.addr(),
        args.class.name(),
        if args.capacity == 0 {
            "unlimited".to_string()
        } else {
            args.capacity.to_string()
        }
    );
    log_info!("register in the catalog as: {}", server.addr());

    // Serve until killed; optionally print stats periodically.
    loop {
        std::thread::sleep(Duration::from_secs(match args.stats_interval {
            0 => 60, // off: nothing to print, just stay alive
            n => n,
        }));
        if args.stats_interval > 0 {
            let s = server.stats();
            log_info!(
                "stats: conns={} reqs={} reads={} writes={} bytes_r={} bytes_w={} errors={} \
                 in_flight={} read_lat_us={} write_lat_us={}",
                s.connections,
                s.requests,
                s.reads,
                s.writes,
                s.bytes_read,
                s.bytes_written,
                s.errors,
                s.in_flight,
                s.read_latency.summary_us(),
                s.write_latency.summary_us()
            );
            log_debug!("stats: injected_delay_ns={}", s.injected_delay_ns);
        }
    }
}
