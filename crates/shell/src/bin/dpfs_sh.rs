//! `dpfs-sh` — the interactive DPFS shell.
//!
//! Two ways to mount:
//!
//! - `dpfs-sh [num-servers]` — ephemeral in-process testbed: starts
//!   `num-servers` I/O servers (default 4) and one `dpfs-metad` shard, and
//!   mounts through it; `sql` runs on that shard's database.
//!   Self-contained; nothing survives exit.
//! - `dpfs-sh --metad ADDR [--metad ADDR]... [--server NAME=ADDR]...` —
//!   attach to running `dpfs-metad` daemons (and `dpfs-iond` I/O
//!   servers): all metadata goes over TCP, and any `--server` not yet in
//!   the catalog is registered on mount. Repeat `--metad` to mount a
//!   sharded metadata plane — the i-th occurrence must be the daemon
//!   started with `--shard i`.
//!
//! Type `help` at the prompt for the command list.

use std::io::{BufRead, Write};

use dpfs_cluster::Testbed;
use dpfs_core::{ClientOptions, Dpfs, Resolver};
use dpfs_meta::ServerInfo;
use dpfs_shell::Shell;

/// Parsed `--metad` mode arguments.
struct RemoteArgs {
    /// Metadata daemon addresses, in shard order (one = unsharded).
    metads: Vec<String>,
    servers: Vec<(String, String)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: dpfs-sh [num-servers]\n       \
         dpfs-sh --metad ADDR [--metad ADDR]... [--server NAME=ADDR]...\n       \
         (repeat --metad in shard order to mount a sharded metadata plane)"
    );
    std::process::exit(2);
}

fn parse_remote(args: &[String]) -> Option<RemoteArgs> {
    if !args.iter().any(|a| a == "--metad") {
        return None;
    }
    let mut metads = Vec::new();
    let mut servers = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--metad" => match it.next() {
                Some(addr) => metads.push(addr.clone()),
                None => usage(),
            },
            "--server" => match it.next().and_then(|s| s.split_once('=')) {
                Some((name, addr)) => servers.push((name.to_string(), addr.to_string())),
                None => usage(),
            },
            _ => usage(),
        }
    }
    if metads.is_empty() {
        usage()
    }
    Some(RemoteArgs { metads, servers })
}

/// Mount against external metads, registering any new I/O servers.
fn mount_remote(ra: &RemoteArgs) -> Result<Dpfs, String> {
    let mut resolver = Resolver::direct();
    let mut names = Vec::with_capacity(ra.metads.len());
    for (shard, addr) in ra.metads.iter().enumerate() {
        let name = format!("metad{shard}");
        resolver.alias(&name, addr);
        names.push(name);
    }
    for (name, addr) in &ra.servers {
        resolver.alias(name, addr);
    }
    let client = Dpfs::mount_sharded(names, resolver, ClientOptions::default())
        .map_err(|e| format!("mount failed: {e}"))?;
    // An admin's row for a server (its capacity, its performance number)
    // is left as it stands; only servers the registry lacks are added.
    let known = client
        .meta()
        .list_servers()
        .map_err(|e| format!("metad at {} unreachable: {e}", ra.metads[0]))?;
    for (name, _) in &ra.servers {
        if !known.iter().any(|s| s.name == *name) {
            client
                .meta()
                .register_server(&ServerInfo {
                    name: name.clone(),
                    capacity: i64::MAX,
                    performance: 1,
                })
                .map_err(|e| format!("registering {name} failed: {e}"))?;
        }
    }
    Ok(client)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // `_testbed` keeps the in-process servers alive for the session.
    let mut _testbed = None;
    let mut shell = match parse_remote(&args) {
        Some(ra) => match mount_remote(&ra) {
            Ok(c) => {
                println!(
                    "DPFS shell — metadata via {} dpfs-metad shard(s) at {} ({} I/O servers named).",
                    ra.metads.len(),
                    ra.metads.join(", "),
                    ra.servers.len()
                );
                Shell::new(c)
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        },
        None => {
            let n: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(4);
            let testbed = match Testbed::unthrottled(n) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("failed to start testbed: {e}");
                    std::process::exit(1);
                }
            };
            println!(
                "DPFS shell — {n} I/O servers and a metadata daemon started. Type `help` for commands, ctrl-D to exit."
            );
            let shell = Shell::on_testbed(&testbed);
            _testbed = Some(testbed);
            shell
        }
    };

    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("dpfs:{}> ", shell.cwd());
        stdout.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line == "exit" || line == "quit" {
            break;
        }
        match shell.exec(line) {
            Ok(out) => {
                if !out.is_empty() {
                    print!("{out}");
                    if !out.ends_with('\n') {
                        println!();
                    }
                }
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
    println!("bye");
}
