//! The DPFS shell: command dispatch and implementations.

use std::fmt::Write as _;

use dpfs_core::{Dpfs, DpfsError, FileLevel, Hint, Layout, Result};
use dpfs_metad::MetadStatsSnapshot;
use dpfs_proto::{Request, Response};
use dpfs_server::StatsSnapshot;

use crate::parse::{resolve_path, split_words};

/// Default brick size for `import`ed linear files (64 KiB).
pub const DEFAULT_IMPORT_BRICK: u64 = 64 * 1024;

/// An interactive DPFS shell session.
pub struct Shell {
    fs: Dpfs,
    cwd: String,
}

impl Shell {
    /// New shell rooted at `/`.
    pub fn new(fs: Dpfs) -> Shell {
        Shell {
            fs,
            cwd: "/".to_string(),
        }
    }

    /// The current working directory.
    pub fn cwd(&self) -> &str {
        &self.cwd
    }

    /// The underlying client.
    pub fn fs(&self) -> &Dpfs {
        &self.fs
    }

    /// Execute one command line; returns the text to print.
    pub fn exec(&mut self, line: &str) -> Result<String> {
        // SQL has its own quoting: `sql` takes the rest of the line raw.
        if let Some(statement) = line.trim_start().strip_prefix("sql") {
            if statement.is_empty() || statement.starts_with(char::is_whitespace) {
                return self.cmd_sql(statement.trim());
            }
        }
        let words = split_words(line).map_err(DpfsError::InvalidArgument)?;
        let Some((cmd, args)) = words.split_first() else {
            return Ok(String::new());
        };
        match cmd.as_str() {
            "pwd" => Ok(self.cwd.clone()),
            "cd" => self.cmd_cd(args),
            "ls" => self.cmd_ls(args),
            "mkdir" => self.cmd_mkdir(args),
            "rmdir" => self.cmd_rmdir(args),
            "rm" => self.cmd_rm(args),
            "cp" => self.cmd_cp(args),
            "mv" => self.cmd_mv(args),
            "stat" => self.cmd_stat(args),
            "df" => self.cmd_df(),
            "cat" => self.cmd_cat(args),
            "import" => self.cmd_import(args),
            "export" => self.cmd_export(args),
            "servers" => self.cmd_servers(),
            "stats" => self.cmd_stats(args),
            "fsck" => self.cmd_fsck(args),
            "du" => self.cmd_du(args),
            "tree" => self.cmd_tree(args),
            "chmod" => self.cmd_chmod(args),
            "chown" => self.cmd_chown(args),
            "head" => self.cmd_head(args),
            "tag" => self.cmd_tag(args),
            "tags" => self.cmd_tags(args),
            "untag" => self.cmd_untag(args),
            "find" => self.cmd_find(args),
            "help" => Ok(HELP.to_string()),
            other => Err(DpfsError::InvalidArgument(format!(
                "unknown command {other:?} (try `help`)"
            ))),
        }
    }

    fn one_arg<'a>(&self, args: &'a [String], usage: &str) -> Result<&'a str> {
        match args {
            [a] => Ok(a),
            _ => Err(DpfsError::InvalidArgument(format!("usage: {usage}"))),
        }
    }

    fn two_args<'a>(&self, args: &'a [String], usage: &str) -> Result<(&'a str, &'a str)> {
        match args {
            [a, b] => Ok((a, b)),
            _ => Err(DpfsError::InvalidArgument(format!("usage: {usage}"))),
        }
    }

    fn cmd_cd(&mut self, args: &[String]) -> Result<String> {
        let target = match args {
            [] => "/".to_string(),
            [p] => resolve_path(&self.cwd, p),
            _ => return Err(DpfsError::InvalidArgument("usage: cd [dir]".into())),
        };
        if !self.fs.dir_exists(&target)? {
            return Err(DpfsError::NoSuchDirectory(target));
        }
        self.cwd = target;
        Ok(String::new())
    }

    fn cmd_ls(&mut self, args: &[String]) -> Result<String> {
        let (long, rest): (bool, &[String]) = match args.first().map(|s| s.as_str()) {
            Some("-l") => (true, &args[1..]),
            _ => (false, args),
        };
        let path = match rest {
            [] => self.cwd.clone(),
            [p] => resolve_path(&self.cwd, p),
            _ => return Err(DpfsError::InvalidArgument("usage: ls [-l] [dir]".into())),
        };
        let (dirs, files) = self.fs.readdir(&path)?;
        let mut out = String::new();
        for d in &dirs {
            if long {
                writeln!(out, "d--------- {d}/").unwrap();
            } else {
                writeln!(out, "{d}/").unwrap();
            }
        }
        for f in &files {
            if long {
                let full = resolve_path(&path, f);
                let attr = self.fs.stat(&full)?;
                writeln!(
                    out,
                    "-{:o} {:>8} {:>10} {:>8} {}",
                    attr.permission, attr.owner, attr.size, attr.filelevel, f
                )
                .unwrap();
            } else {
                writeln!(out, "{f}").unwrap();
            }
        }
        Ok(out)
    }

    fn cmd_mkdir(&mut self, args: &[String]) -> Result<String> {
        let p = self.one_arg(args, "mkdir <dir>")?;
        self.fs.mkdir(&resolve_path(&self.cwd, p))?;
        Ok(String::new())
    }

    fn cmd_rmdir(&mut self, args: &[String]) -> Result<String> {
        let p = self.one_arg(args, "rmdir <dir>")?;
        self.fs.rmdir(&resolve_path(&self.cwd, p))?;
        Ok(String::new())
    }

    fn cmd_rm(&mut self, args: &[String]) -> Result<String> {
        let p = self.one_arg(args, "rm <file>")?;
        self.fs.unlink(&resolve_path(&self.cwd, p))?;
        Ok(String::new())
    }

    fn cmd_stat(&mut self, args: &[String]) -> Result<String> {
        let p = self.one_arg(args, "stat <file>")?;
        let full = resolve_path(&self.cwd, p);
        let (attr, dist) = self
            .fs
            .meta()
            .open_file(&full)?
            .ok_or(DpfsError::NoSuchFile(full))?;
        let mut out = String::new();
        writeln!(out, "file:       {}", attr.filename).unwrap();
        writeln!(out, "owner:      {}", attr.owner).unwrap();
        writeln!(out, "permission: {:o}", attr.permission).unwrap();
        writeln!(out, "size:       {}", attr.size).unwrap();
        writeln!(out, "level:      {}", attr.filelevel).unwrap();
        writeln!(out, "placement:  {}", attr.placement).unwrap();
        if !attr.redundancy.is_empty() {
            writeln!(out, "redundancy: {}", attr.redundancy).unwrap();
        }
        if attr.dims > 0 {
            writeln!(out, "dims:       {:?}", attr.dimsize).unwrap();
            writeln!(out, "stripe:     {:?}", attr.stripe_dims).unwrap();
        }
        writeln!(out, "stripe_size: {}", attr.stripe_size).unwrap();
        if !attr.pattern.is_empty() {
            writeln!(out, "pattern:    ({})", attr.pattern).unwrap();
        }
        for d in &dist {
            writeln!(out, "  {} holds {} bricks", d.server, d.bricklist.len()).unwrap();
        }
        Ok(out)
    }

    fn cmd_df(&mut self) -> Result<String> {
        let servers = self.fs.meta().list_servers()?;
        let counts = self.fs.meta().server_brick_counts()?;
        let mut out = String::new();
        writeln!(
            out,
            "{:<12} {:>14} {:>6} {:>8}",
            "server", "capacity", "perf", "bricks"
        )
        .unwrap();
        for s in &servers {
            let bricks = counts
                .iter()
                .find(|(n, _)| n == &s.name)
                .map(|(_, c)| *c)
                .unwrap_or(0);
            let cap = if s.capacity == i64::MAX {
                "unlimited".to_string()
            } else {
                s.capacity.to_string()
            };
            writeln!(
                out,
                "{:<12} {:>14} {:>6} {:>8}",
                s.name, cap, s.performance, bricks
            )
            .unwrap();
        }
        Ok(out)
    }

    fn cmd_servers(&mut self) -> Result<String> {
        let servers = self.fs.meta().list_servers()?;
        let mut out = String::new();
        for s in &servers {
            let alive = self.fs.pool().ping(&s.name);
            writeln!(out, "{} {}", s.name, if alive { "up" } else { "DOWN" }).unwrap();
        }
        Ok(out)
    }

    /// Fetch a live [`StatsSnapshot`] from every registered server via the
    /// `Stats` RPC. Unreachable servers report as `None`.
    fn collect_stats(&self) -> Result<Vec<(String, Option<StatsSnapshot>)>> {
        let servers = self.fs.meta().list_servers()?;
        let mut out = Vec::with_capacity(servers.len());
        for s in &servers {
            let snap = match self.fs.pool().rpc_ok(&s.name, &Request::Stats) {
                Ok(Response::Stats { payload }) => StatsSnapshot::decode(&payload),
                _ => None,
            };
            out.push((s.name.clone(), snap));
        }
        Ok(out)
    }

    /// Render one stats table. With `prev`, counter columns show the delta
    /// since the previous round next to the running total.
    fn stats_table(
        rows: &[(String, Option<StatsSnapshot>)],
        prev: Option<&[(String, Option<StatsSnapshot>)]>,
    ) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>10} {:>6} {:>6} {:>5}  {:<20} {:<20}",
            "server",
            "reqs",
            "reads",
            "writes",
            "errs",
            "reopen",
            "infl",
            "read p50/p95/p99 us",
            "write p50/p95/p99 us"
        )
        .unwrap();
        for (i, (name, snap)) in rows.iter().enumerate() {
            let Some(s) = snap else {
                writeln!(out, "{name:<12} unreachable").unwrap();
                continue;
            };
            let before =
                prev.and_then(|p| p.get(i))
                    .and_then(|(n, b)| if n == name { b.as_ref() } else { None });
            let delta = |cur: u64, get: fn(&StatsSnapshot) -> u64| match before {
                Some(b) => format!("{cur} (+{})", cur.saturating_sub(get(b))),
                None => cur.to_string(),
            };
            writeln!(
                out,
                "{:<12} {:>10} {:>10} {:>10} {:>6} {:>6} {:>5}  {:<20} {:<20}",
                name,
                delta(s.requests, |b| b.requests),
                delta(s.reads, |b| b.reads),
                delta(s.writes, |b| b.writes),
                delta(s.errors, |b| b.errors),
                delta(s.subfiles_reopened, |b| b.subfiles_reopened),
                s.in_flight,
                s.read_latency.summary_us(),
                s.write_latency.summary_us()
            )
            .unwrap();
        }
        out
    }

    /// The metadata half of `stats`: where metadata lives, and — on remote
    /// mounts — the daemons' own per-op service-time histograms fetched
    /// over their `Stats` RPC. On a sharded plane every shard gets its own
    /// section (daemon counters, per-op percentiles).
    fn metadata_section(&self) -> String {
        let Some(remote) = self.fs.remote_meta() else {
            return "metadata: embedded (in-process catalog)\n".to_string();
        };
        let shards = remote.shard_count();
        let mut out = String::new();
        for shard in 0..shards {
            let name = remote.shard_server(shard).to_string();
            if shards == 1 {
                writeln!(out, "metadata: remote via {name}").unwrap();
            } else {
                writeln!(
                    out,
                    "metadata: remote via {name} [shard {shard} of {shards}]"
                )
                .unwrap();
            }
            let snap = match self.fs.pool().rpc_ok(&name, &Request::Stats) {
                Ok(Response::Stats { payload }) => MetadStatsSnapshot::decode(&payload),
                _ => None,
            };
            let Some(s) = snap else {
                writeln!(out, "metad:       unreachable").unwrap();
                continue;
            };
            writeln!(
                out,
                "metad:       {} reqs, {} meta ops, {} errs, {} conns, {} in flight",
                s.requests, s.meta_ops, s.errors, s.connections, s.in_flight
            )
            .unwrap();
            for (op, h) in &s.op_latency {
                writeln!(
                    out,
                    "  {:<28} {:>8} calls  p50/p95/p99 us {}",
                    op,
                    h.count,
                    h.summary_us()
                )
                .unwrap();
            }
        }
        out
    }

    fn cmd_stats(&mut self, args: &[String]) -> Result<String> {
        let usage = || {
            DpfsError::InvalidArgument(
                "usage: stats [--json | --watch [rounds [interval-ms]]]".into(),
            )
        };
        match args.first().map(|s| s.as_str()) {
            None => Ok(format!(
                "{}{}",
                Self::stats_table(&self.collect_stats()?, None),
                self.metadata_section()
            )),
            // Machine-readable mode: one unified cluster scrape rendered
            // as JSON, so scripts stop parsing the human tables.
            Some("--json") => {
                if args.len() > 1 {
                    return Err(usage());
                }
                let mut json = dpfs_cluster::scrape_cluster(&self.fs).to_json();
                json.push('\n');
                Ok(json)
            }
            Some("--watch") => {
                let rest = &args[1..];
                if rest.len() > 2 {
                    return Err(usage());
                }
                let rounds: u64 = match rest.first() {
                    Some(r) => r.parse().map_err(|_| usage())?,
                    None => 5,
                };
                let interval_ms: u64 = match rest.get(1) {
                    Some(ms) => ms.parse().map_err(|_| usage())?,
                    None => 1000,
                };
                let mut out = String::new();
                let mut prev: Option<Vec<(String, Option<StatsSnapshot>)>> = None;
                for round in 1..=rounds {
                    if round > 1 {
                        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                    }
                    let rows = self.collect_stats()?;
                    writeln!(out, "round {round}/{rounds}:").unwrap();
                    out.push_str(&Self::stats_table(&rows, prev.as_deref()));
                    prev = Some(rows);
                }
                out.push_str(&self.metadata_section());
                Ok(out)
            }
            Some(_) => Err(usage()),
        }
    }

    fn cmd_cat(&mut self, args: &[String]) -> Result<String> {
        let p = self.one_arg(args, "cat <file>")?;
        let data = self.read_all(&resolve_path(&self.cwd, p))?;
        Ok(String::from_utf8_lossy(&data).into_owned())
    }

    /// Read a whole file regardless of level.
    pub fn read_all(&self, path: &str) -> Result<Vec<u8>> {
        self.read_prefix(path, u64::MAX)
    }

    /// The first `limit` bytes of a file (all of it if shorter). A linear
    /// file's first bytes are a byte range and only they are read; a
    /// multidim or array file has no byte order to take a prefix of short
    /// of reading the whole region.
    fn read_prefix(&self, path: &str, limit: u64) -> Result<Vec<u8>> {
        let mut f = self.fs.open(path)?;
        let region = match f.layout() {
            Layout::Linear(_) => return f.read_bytes(0, f.size().min(limit)),
            Layout::Multidim(md) => md.array.full_region(),
            Layout::Array(ar) => ar.array.full_region(),
        };
        let mut all = f.read_region(&region)?;
        all.truncate(limit.min(all.len() as u64) as usize);
        Ok(all)
    }

    fn cmd_cp(&mut self, args: &[String]) -> Result<String> {
        let (src, dst) = self.two_args(args, "cp <src> <dst>")?;
        let src = resolve_path(&self.cwd, src);
        let dst = resolve_path(&self.cwd, dst);
        let attr = self.fs.stat(&src)?;
        let data = self.read_all(&src)?;
        // recreate with the same striping geometry
        let striping = dpfs_core::fs::striping_from_attr(&attr)?;
        let hint = Hint {
            striping,
            io_nodes: None,
            placement: match attr.placement.as_str() {
                "greedy" => dpfs_core::Placement::Greedy,
                _ => dpfs_core::Placement::RoundRobin,
            },
            owner: attr.owner.clone(),
            permission: attr.permission,
            redundancy: dpfs_core::RedundancyPolicy::parse(&attr.redundancy)?,
        };
        let mut out = self.fs.create(&dst, &hint)?;
        match FileLevel::parse(&attr.filelevel)? {
            FileLevel::Linear => out.write_bytes(0, &data)?,
            FileLevel::Multidim | FileLevel::Array => {
                let shape =
                    dpfs_core::Shape::new(attr.dimsize.iter().map(|&x| x as u64).collect())?;
                out.write_region(&shape.full_region(), &data)?;
            }
        }
        out.close()?;
        Ok(String::new())
    }

    fn cmd_mv(&mut self, args: &[String]) -> Result<String> {
        let (src, dst) = self.two_args(args, "mv <src> <dst>")?;
        self.fs
            .rename(&resolve_path(&self.cwd, src), &resolve_path(&self.cwd, dst))?;
        Ok(String::new())
    }

    fn cmd_import(&mut self, args: &[String]) -> Result<String> {
        // import <local> <dpfs> [brick_bytes] [replica:K|xor]
        let parse_brick = |b: &String| {
            b.parse::<u64>()
                .map_err(|_| DpfsError::InvalidArgument(format!("bad brick size {b:?}")))
        };
        let (local, dpfs_path, brick, redundancy) = match args {
            [l, d] => (l.as_str(), d.as_str(), DEFAULT_IMPORT_BRICK, String::new()),
            [l, d, b] => (l.as_str(), d.as_str(), parse_brick(b)?, String::new()),
            [l, d, b, r] => (l.as_str(), d.as_str(), parse_brick(b)?, r.clone()),
            _ => {
                return Err(DpfsError::InvalidArgument(
                    "usage: import <local-file> <dpfs-file> [brick-bytes] [replica:K|xor]".into(),
                ))
            }
        };
        let data = std::fs::read(local)?;
        let hint = Hint::linear(brick, data.len() as u64)
            .with_redundancy(dpfs_core::RedundancyPolicy::parse(&redundancy)?);
        let dst = resolve_path(&self.cwd, dpfs_path);
        let mut f = self.fs.create(&dst, &hint)?;
        f.write_bytes(0, &data)?;
        f.close()?;
        Ok(format!("imported {} bytes into {dst}", data.len()))
    }

    fn cmd_export(&mut self, args: &[String]) -> Result<String> {
        let (dpfs_path, local) = self.two_args(args, "export <dpfs-file> <local-file>")?;
        let src = resolve_path(&self.cwd, dpfs_path);
        let data = self.read_all(&src)?;
        std::fs::write(local, &data)?;
        Ok(format!("exported {} bytes to {local}", data.len()))
    }

    fn cmd_fsck(&mut self, args: &[String]) -> Result<String> {
        let online = args.iter().any(|a| a == "--online");
        let strict = args.iter().any(|a| a == "--strict");
        if args.iter().any(|a| a == "--repair") {
            let mut out = String::new();
            // An operator action, not a mount-time one: recovery aborts
            // every uncommitted intent it finds, including the one of a
            // rename another live client is half-way through.
            let remote = self.fs.remote_meta();
            if let Some(remote) = remote {
                let resolved = remote.recover_rename_intents()?;
                writeln!(out, "resolved {resolved} rename intent(s)").unwrap();
            }
            let (report, summary) = match dpfs_core::fsck::fsck_repair(&self.fs) {
                Ok(audit) => audit,
                Err(e) if remote.is_some() => {
                    writeln!(out, "catalog audit: {e}").unwrap();
                    return Ok(out);
                }
                Err(e) => return Err(e),
            };
            for f in &summary.fixed {
                writeln!(out, "fixed: {f}").unwrap();
            }
            for i in &summary.unfixable {
                writeln!(out, "UNFIXABLE: {i:?}").unwrap();
            }
            writeln!(
                out,
                "{} fixed, {} unfixable, {} remaining issue(s)",
                summary.fixed.len(),
                summary.unfixable.len(),
                report.issues.len()
            )
            .unwrap();
            return Ok(out);
        }
        let report = dpfs_core::fsck::fsck_with(&self.fs, online, strict)?;
        let mut out = String::new();
        writeln!(
            out,
            "checked {} files, {} directories{}",
            report.files_checked,
            report.dirs_checked,
            if online {
                format!(", {} subfiles", report.subfiles_checked)
            } else {
                String::new()
            }
        )
        .unwrap();
        if report.clean() {
            writeln!(out, "clean").unwrap();
        } else {
            for issue in &report.issues {
                writeln!(out, "ISSUE: {issue:?}").unwrap();
            }
            writeln!(out, "{} issue(s) found", report.issues.len()).unwrap();
        }
        Ok(out)
    }

    fn du_walk(&self, dir: &str, out: &mut Vec<(String, i64)>) -> Result<i64> {
        let entry = self
            .fs
            .meta()
            .get_dir(dir)?
            .ok_or_else(|| DpfsError::NoSuchDirectory(dir.to_string()))?;
        let mut total = 0i64;
        for sub in &entry.sub_dirs {
            total += self.du_walk(sub, out)?;
        }
        for f in &entry.files {
            total += self.fs.stat(f)?.size;
        }
        out.push((dir.to_string(), total));
        Ok(total)
    }

    fn cmd_du(&mut self, args: &[String]) -> Result<String> {
        let path = match args {
            [] => self.cwd.clone(),
            [p] => resolve_path(&self.cwd, p),
            _ => return Err(DpfsError::InvalidArgument("usage: du [dir]".into())),
        };
        let mut rows = Vec::new();
        self.du_walk(&path, &mut rows)?;
        rows.sort();
        let mut out = String::new();
        for (dir, bytes) in rows {
            writeln!(out, "{bytes:>12} {dir}").unwrap();
        }
        Ok(out)
    }

    fn tree_walk(&self, dir: &str, depth: usize, out: &mut String) -> Result<()> {
        let entry = self
            .fs
            .meta()
            .get_dir(dir)?
            .ok_or_else(|| DpfsError::NoSuchDirectory(dir.to_string()))?;
        let indent = "  ".repeat(depth);
        for sub in &entry.sub_dirs {
            writeln!(out, "{indent}{}/", dpfs_meta_base(sub)).unwrap();
            self.tree_walk(sub, depth + 1, out)?;
        }
        for f in &entry.files {
            writeln!(out, "{indent}{}", dpfs_meta_base(f)).unwrap();
        }
        Ok(())
    }

    fn cmd_tree(&mut self, args: &[String]) -> Result<String> {
        let path = match args {
            [] => self.cwd.clone(),
            [p] => resolve_path(&self.cwd, p),
            _ => return Err(DpfsError::InvalidArgument("usage: tree [dir]".into())),
        };
        let mut out = format!("{path}\n");
        self.tree_walk(&path, 1, &mut out)?;
        Ok(out)
    }

    fn cmd_chmod(&mut self, args: &[String]) -> Result<String> {
        let (mode, path) = self.two_args(args, "chmod <octal-mode> <file>")?;
        let bits = i64::from_str_radix(mode, 8)
            .map_err(|_| DpfsError::InvalidArgument(format!("bad mode {mode:?}")))?;
        self.fs
            .meta()
            .set_file_permission(&resolve_path(&self.cwd, path), bits)?;
        Ok(String::new())
    }

    fn cmd_chown(&mut self, args: &[String]) -> Result<String> {
        let (owner, path) = self.two_args(args, "chown <owner> <file>")?;
        self.fs
            .meta()
            .set_file_owner(&resolve_path(&self.cwd, path), owner)?;
        Ok(String::new())
    }

    fn cmd_head(&mut self, args: &[String]) -> Result<String> {
        let (path, n) = match args {
            [p] => (p.as_str(), 512u64),
            [p, n] => (
                p.as_str(),
                n.parse()
                    .map_err(|_| DpfsError::InvalidArgument(format!("bad byte count {n:?}")))?,
            ),
            _ => {
                return Err(DpfsError::InvalidArgument(
                    "usage: head <file> [bytes]".into(),
                ))
            }
        };
        let full = resolve_path(&self.cwd, path);
        let data = self.read_prefix(&full, n)?;
        Ok(String::from_utf8_lossy(&data).into_owned())
    }
}

impl Shell {
    fn cmd_tag(&mut self, args: &[String]) -> Result<String> {
        let (file, key, value) = match args {
            [f, k, v] => (f, k, v),
            _ => {
                return Err(DpfsError::InvalidArgument(
                    "usage: tag <file> <key> <value>".into(),
                ))
            }
        };
        self.fs
            .meta()
            .set_tag(&resolve_path(&self.cwd, file), key, value)?;
        Ok(String::new())
    }

    fn cmd_tags(&mut self, args: &[String]) -> Result<String> {
        let p = self.one_arg(args, "tags <file>")?;
        let tags = self.fs.meta().list_tags(&resolve_path(&self.cwd, p))?;
        let mut out = String::new();
        for (k, v) in tags {
            writeln!(out, "{k} = {v}").unwrap();
        }
        Ok(out)
    }

    fn cmd_untag(&mut self, args: &[String]) -> Result<String> {
        let (file, key) = self.two_args(args, "untag <file> <key>")?;
        let removed = self
            .fs
            .meta()
            .remove_tag(&resolve_path(&self.cwd, file), key)?;
        Ok(if removed {
            String::new()
        } else {
            format!("no tag {key:?}")
        })
    }

    fn cmd_find(&mut self, args: &[String]) -> Result<String> {
        let (key, pattern) = self.two_args(args, "find <tag-key> <value-pattern>")?;
        let hits = self.fs.meta().find_by_tag(key, pattern)?;
        let mut out = String::new();
        for (file, value, size) in hits {
            writeln!(out, "{size:>12} {file}  ({key}={value})").unwrap();
        }
        Ok(out)
    }

    /// `sql <statement>`: run one statement on the embedded metadata
    /// database. `EXPLAIN <statement>` names the access path; `?`
    /// placeholders may stay unbound there.
    fn cmd_sql(&mut self, statement: &str) -> Result<String> {
        let catalog = self.fs.catalog().ok_or_else(|| {
            DpfsError::InvalidArgument(
                "sql: the metadata database of a remote mount lives in its daemon".into(),
            )
        })?;
        let rs = catalog.db().execute(statement)?;
        let mut out = rs.columns.join("\t");
        out.push('\n');
        for row in &rs.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(out, "{}", cells.join("\t")).unwrap();
        }
        Ok(out)
    }
}

/// Base name helper for tree output.
fn dpfs_meta_base(p: &str) -> &str {
    p.rsplit('/').next().unwrap_or(p)
}

const HELP: &str = "\
DPFS shell commands:
  pwd                      print working directory
  cd [dir]                 change directory
  ls [-l] [dir]            list directory
  mkdir <dir>              create directory
  rmdir <dir>              remove empty directory
  rm <file>                delete a DPFS file
  cp <src> <dst>           copy a DPFS file
  mv <src> <dst>           rename/move a DPFS file
  cat <file>               print file contents
  stat <file>              show file attributes and brick distribution
  df                       per-server capacity and brick usage
  servers                  ping all registered servers
  stats [--watch [N [MS]]] live per-server counters and latency percentiles
  stats --json             one unified cluster scrape as machine-readable JSON
  import <local> <dpfs> [brick-bytes] [replica:K|xor]
                           copy a sequential file into DPFS, optionally
                           replicated K-way or XOR-parity protected
  export <dpfs> <local>    copy a DPFS file to a sequential file
  head <file> [bytes]      print the first bytes of a file
  du [dir]                 recursive directory sizes
  tree [dir]               directory tree
  chmod <mode> <file>      change permission bits (octal)
  chown <owner> <file>     change owner
  fsck [--online|--repair] check (and repair) catalog consistency; on a
                           --metad mount --repair resolves the intents of
                           cross-shard renames whose client died (run it
                           when no rename is in flight)
  tag <file> <k> <v>       attach a metadata tag
  tags <file>              list tags
  untag <file> <k>         remove a tag
  find <k> <pattern>       find files by tag value (LIKE pattern)
  sql <statement>          run SQL on the embedded metadata database;
                           EXPLAIN <statement> names its access path
  help                     this text
";

#[cfg(test)]
mod tests {
    use super::*;
    use dpfs_cluster::Testbed;

    fn shell() -> (Shell, Testbed) {
        let tb = Testbed::unthrottled(4).unwrap();
        let shell = Shell::new(tb.client(0, true));
        (shell, tb)
    }

    #[test]
    fn pwd_cd_mkdir() {
        let (mut sh, _tb) = shell();
        assert_eq!(sh.exec("pwd").unwrap(), "/");
        sh.exec("mkdir home").unwrap();
        sh.exec("cd home").unwrap();
        assert_eq!(sh.exec("pwd").unwrap(), "/home");
        sh.exec("mkdir xhshen").unwrap();
        sh.exec("cd xhshen").unwrap();
        assert_eq!(sh.exec("pwd").unwrap(), "/home/xhshen");
        sh.exec("cd ..").unwrap();
        assert_eq!(sh.exec("pwd").unwrap(), "/home");
        assert!(sh.exec("cd nonexistent").is_err());
    }

    #[test]
    fn import_export_round_trip() {
        let (mut sh, _tb) = shell();
        let tmp = std::env::temp_dir().join(format!("dpfs-shell-imp-{}", std::process::id()));
        let payload: Vec<u8> = (0..100_000u32).map(|x| (x % 251) as u8).collect();
        std::fs::write(&tmp, &payload).unwrap();
        let out = sh
            .exec(&format!("import {} /data.bin 4096", tmp.display()))
            .unwrap();
        assert!(out.contains("100000 bytes"));
        let tmp2 = std::env::temp_dir().join(format!("dpfs-shell-exp-{}", std::process::id()));
        sh.exec(&format!("export /data.bin {}", tmp2.display()))
            .unwrap();
        assert_eq!(std::fs::read(&tmp2).unwrap(), payload);
        std::fs::remove_file(tmp).unwrap();
        std::fs::remove_file(tmp2).unwrap();
    }

    #[test]
    fn ls_and_stat_and_rm() {
        let (mut sh, _tb) = shell();
        let tmp = std::env::temp_dir().join(format!("dpfs-shell-ls-{}", std::process::id()));
        std::fs::write(&tmp, b"hello dpfs").unwrap();
        sh.exec(&format!("import {} /f.txt", tmp.display()))
            .unwrap();
        let ls = sh.exec("ls").unwrap();
        assert!(ls.contains("f.txt"));
        let lsl = sh.exec("ls -l").unwrap();
        assert!(lsl.contains("10")); // size
        let stat = sh.exec("stat /f.txt").unwrap();
        assert!(stat.contains("level:      linear"));
        assert!(stat.contains("bricks"));
        assert_eq!(sh.exec("cat /f.txt").unwrap(), "hello dpfs");
        sh.exec("rm /f.txt").unwrap();
        assert!(sh.exec("stat /f.txt").is_err());
        std::fs::remove_file(tmp).unwrap();
    }

    #[test]
    fn cp_copies_content_and_geometry() {
        let (mut sh, _tb) = shell();
        let tmp = std::env::temp_dir().join(format!("dpfs-shell-cp-{}", std::process::id()));
        std::fs::write(&tmp, vec![42u8; 10_000]).unwrap();
        sh.exec(&format!("import {} /a 1024", tmp.display()))
            .unwrap();
        sh.exec("cp /a /b").unwrap();
        let a = sh.fs().stat("/a").unwrap();
        let b = sh.fs().stat("/b").unwrap();
        assert_eq!(a.stripe_size, b.stripe_size);
        assert_eq!(a.size, b.size);
        assert_eq!(sh.read_all("/b").unwrap(), vec![42u8; 10_000]);
        std::fs::remove_file(tmp).unwrap();
    }

    #[test]
    fn mv_renames() {
        let (mut sh, _tb) = shell();
        let tmp = std::env::temp_dir().join(format!("dpfs-shell-mv-{}", std::process::id()));
        std::fs::write(&tmp, b"move me").unwrap();
        sh.exec(&format!("import {} /old", tmp.display())).unwrap();
        sh.exec("mv /old /new").unwrap();
        assert!(sh.fs().stat("/old").is_err());
        assert_eq!(sh.read_all("/new").unwrap(), b"move me");
        std::fs::remove_file(tmp).unwrap();
    }

    #[test]
    fn df_and_servers() {
        let (mut sh, _tb) = shell();
        let df = sh.exec("df").unwrap();
        assert!(df.contains("ion00"));
        assert!(df.contains("unlimited"));
        let servers = sh.exec("servers").unwrap();
        assert_eq!(servers.matches(" up").count(), 4);
    }

    #[test]
    fn unknown_command_and_help() {
        let (mut sh, _tb) = shell();
        assert!(sh.exec("frobnicate").is_err());
        assert!(sh.exec("help").unwrap().contains("import"));
        assert_eq!(sh.exec("").unwrap(), "");
    }

    #[test]
    fn du_and_tree() {
        let (mut sh, _tb) = shell();
        sh.exec("mkdir a").unwrap();
        sh.exec("mkdir a/b").unwrap();
        let tmp = std::env::temp_dir().join(format!("dpfs-shell-du-{}", std::process::id()));
        std::fs::write(&tmp, vec![0u8; 1000]).unwrap();
        sh.exec(&format!("import {} /a/f1", tmp.display())).unwrap();
        sh.exec(&format!("import {} /a/b/f2", tmp.display()))
            .unwrap();
        let du = sh.exec("du /a").unwrap();
        assert!(du.contains("2000"), "du output: {du}"); // /a total
        assert!(du.contains("1000")); // /a/b total
        let tree = sh.exec("tree /").unwrap();
        assert!(tree.contains("a/"));
        assert!(tree.contains("b/"));
        assert!(tree.contains("f1"));
        assert!(tree.contains("f2"));
        std::fs::remove_file(tmp).unwrap();
    }

    #[test]
    fn chmod_chown_head() {
        let (mut sh, tb) = shell();
        let tmp = std::env::temp_dir().join(format!("dpfs-shell-ch-{}", std::process::id()));
        std::fs::write(&tmp, b"0123456789abcdef").unwrap();
        // 4-byte bricks: one brick on each of the four servers
        sh.exec(&format!("import {} /f 4", tmp.display())).unwrap();
        sh.exec("chmod 600 /f").unwrap();
        sh.exec("chown alice /f").unwrap();
        let attr = sh.fs().stat("/f").unwrap();
        assert_eq!(attr.permission, 0o600);
        assert_eq!(attr.owner, "alice");
        let reads = || tb.server_stats().iter().map(|(_, s)| s.reads).sum::<u64>();
        let before = reads();
        assert_eq!(sh.exec("head /f 4").unwrap(), "0123");
        assert_eq!(reads() - before, 1, "head reads the brick it prints");
        assert_eq!(sh.exec("head /f").unwrap(), "0123456789abcdef");
        assert!(sh.exec("chmod 99x /f").is_err());
        std::fs::remove_file(tmp).unwrap();
    }

    #[test]
    fn fsck_command_reports_clean_and_dirty() {
        let (mut sh, _tb) = shell();
        let tmp = std::env::temp_dir().join(format!("dpfs-shell-fsck-{}", std::process::id()));
        std::fs::write(&tmp, vec![1u8; 100]).unwrap();
        sh.exec(&format!("import {} /f", tmp.display())).unwrap();
        let out = sh.exec("fsck --online").unwrap();
        assert!(out.contains("clean"), "{out}");
        // corrupt the catalog behind the shell's back
        sh.fs()
            .catalog()
            .unwrap()
            .db()
            .execute("DELETE FROM dpfs_file_distribution WHERE filename = '/f'")
            .unwrap();
        let out = sh.exec("fsck").unwrap();
        assert!(out.contains("MissingDistribution"), "{out}");
        std::fs::remove_file(tmp).unwrap();
    }

    #[test]
    fn sql_command_runs_statements_and_explains_them() {
        let (mut sh, _tb) = shell();
        sh.exec("mkdir /d").unwrap();
        sh.exec("sql UPDATE dpfs_directory SET files = 'it''s' WHERE main_dir = '/d'")
            .unwrap();
        let out = sh
            .exec("sql SELECT main_dir, files FROM dpfs_directory WHERE files = 'it''s'")
            .unwrap();
        assert_eq!(out, "main_dir\tfiles\n'/d'\t'it's'\n");
        let out = sh
            .exec("sql EXPLAIN SELECT * FROM dpfs_file_distribution WHERE filename = ?")
            .unwrap();
        assert!(
            out.contains("index-eq dpfs_file_distribution.filename"),
            "{out}"
        );
        let out = sh.exec("sql EXPLAIN SELECT * FROM dpfs_file_attr").unwrap();
        assert!(out.contains("scan dpfs_file_attr"), "{out}");
        assert!(sh.exec("sql SELEKT").is_err());
        assert!(sh.exec("sql").is_err());
    }

    #[test]
    fn tags_commands() {
        let (mut sh, _tb) = shell();
        let tmp = std::env::temp_dir().join(format!("dpfs-shell-tag-{}", std::process::id()));
        std::fs::write(&tmp, b"x").unwrap();
        sh.exec(&format!("import {} /d1", tmp.display())).unwrap();
        sh.exec(&format!("import {} /d2", tmp.display())).unwrap();
        sh.exec("tag /d1 experiment astro-7").unwrap();
        sh.exec("tag /d2 experiment fusion-1").unwrap();
        sh.exec("tag /d1 stage raw").unwrap();
        let tags = sh.exec("tags /d1").unwrap();
        assert!(tags.contains("experiment = astro-7"));
        assert!(tags.contains("stage = raw"));
        let found = sh.exec("find experiment astro-%").unwrap();
        assert!(found.contains("/d1"));
        assert!(!found.contains("/d2"));
        sh.exec("untag /d1 stage").unwrap();
        assert!(!sh.exec("tags /d1").unwrap().contains("stage"));
        std::fs::remove_file(tmp).unwrap();
    }

    #[test]
    fn stats_shows_live_counters_and_percentiles() {
        let (mut sh, _tb) = shell();
        let tmp = std::env::temp_dir().join(format!("dpfs-shell-stats-{}", std::process::id()));
        std::fs::write(&tmp, vec![7u8; 20_000]).unwrap();
        sh.exec(&format!("import {} /s.bin 1024", tmp.display()))
            .unwrap();
        sh.exec("cat /s.bin").unwrap();
        let out = sh.exec("stats").unwrap();
        assert!(out.contains("ion00"), "{out}");
        assert!(out.contains("read p50/p95/p99"), "{out}");
        // every server held bricks of /s.bin, so each saw reads and writes
        // and has non-empty latency histograms (summary never "-/-/-").
        let data_rows: Vec<&str> = out
            .lines()
            .skip(1)
            .filter(|l| l.starts_with("ion"))
            .collect();
        assert_eq!(data_rows.len(), 4, "{out}");
        for row in data_rows {
            assert!(!row.contains("unreachable"), "{out}");
            assert!(!row.contains("-/-/-"), "{out}");
        }
        assert!(out.contains("metadata: embedded"), "{out}");
        std::fs::remove_file(tmp).unwrap();
    }

    #[test]
    fn stats_json_emits_the_unified_scrape() {
        let tb = Testbed::unthrottled_with_metad_shards(2, 2).unwrap();
        let mut sh = Shell::new(tb.remote_client(0, true));
        sh.exec("mkdir /j").unwrap();
        sh.exec("stat /j").ok();
        let tmp = std::env::temp_dir().join(format!("dpfs-stats-json-{}", std::process::id()));
        std::fs::write(&tmp, [5u8; 64]).unwrap();
        sh.exec(&format!("import {} /j/f.bin", tmp.display()))
            .unwrap();
        std::fs::remove_file(&tmp).unwrap();
        let out = sh.exec("stats --json").unwrap();
        let json = out.trim();
        assert!(
            json.starts_with("{\"nodes\":[") && json.ends_with("]}"),
            "{out}"
        );
        assert!(json.contains("\"role\":\"iond\""), "{out}");
        assert!(json.contains("\"role\":\"metad\""), "{out}");
        assert!(json.contains("\"role\":\"client\""), "{out}");
        assert!(json.contains("\"meta.ops\":"), "{out}");
        assert!(json.contains("\"trace.recorded\":"), "{out}");
        // The list-I/O plane is visible on both sides of the wire.
        assert!(json.contains("\"io.list_reads\":"), "{out}");
        assert!(json.contains("\"io.list_writes\":"), "{out}");
        assert!(json.contains("\"rpc.list_io\":"), "{out}");
        assert!(json.contains("\"rpc.req_bytes\":"), "{out}");
        // No human-table artifacts in machine mode.
        assert!(!json.contains("p50/p95/p99"), "{out}");
        // Extra arguments are rejected.
        assert!(sh.exec("stats --json now").is_err());
    }

    #[test]
    fn stats_reports_the_metadata_service_on_remote_mounts() {
        let tb = Testbed::unthrottled_with_metad(2).unwrap();
        let mut sh = Shell::new(tb.remote_client(0, true));
        sh.exec("mkdir /d").unwrap();
        sh.exec("stat /d").ok();
        sh.exec("ls").unwrap();
        let out = sh.exec("stats").unwrap();
        assert!(out.contains("metadata: remote via metad0"), "{out}");
        assert!(out.contains("meta ops"), "{out}");
        assert!(out.contains("meta.mkdir"), "{out}");
    }

    #[test]
    fn stats_reports_every_metadata_shard() {
        let tb = Testbed::unthrottled_with_metad_shards(2, 2).unwrap();
        let mut sh = Shell::new(tb.remote_client(0, true));
        sh.exec("mkdir /a").unwrap();
        sh.exec("mkdir /b").unwrap();
        sh.exec("stat /a").ok();
        let out = sh.exec("stats").unwrap();
        assert!(
            out.contains("metadata: remote via metad0") && out.contains("[shard 0 of 2]"),
            "{out}"
        );
        assert!(
            out.contains("metadata: remote via metad1") && out.contains("[shard 1 of 2]"),
            "{out}"
        );
        // one daemon-counter line per shard
        assert_eq!(out.matches("meta ops").count(), 2, "{out}");
        // mkdir broadcasts, so both daemons saw it
        assert_eq!(out.matches("meta.mkdir").count(), 2, "{out}");
    }

    /// A client that died between `RenameCommit` and `RenameFinish` leaves
    /// the file visible under both names; `fsck --repair` is the operator's
    /// way to finish the rename.
    #[test]
    fn fsck_repair_on_a_remote_mount_resolves_crashed_cross_shard_renames() {
        use dpfs_proto::{MetaOp, MetaResult};
        let tb = Testbed::unthrottled_with_metad_shards(2, 2).unwrap();
        let mut sh = Shell::new(tb.remote_client(0, true));
        let tmp = std::env::temp_dir().join(format!("dpfs-shell-intent-{}", std::process::id()));
        std::fs::write(&tmp, [3u8; 64]).unwrap();
        sh.exec("mkdir /sd0").unwrap();
        sh.exec("mkdir /sd1").unwrap();
        sh.exec(&format!("import {} /sd1/f", tmp.display()))
            .unwrap();
        std::fs::remove_file(&tmp).unwrap();
        let (from, to) = ("/sd1/f", "/sd0/g");
        let remote = sh.fs().remote_meta().unwrap().clone();
        let (src, dst) = (remote.route_file(from), remote.route_file(to));
        assert_ne!(src, dst, "the two directories live on different shards");
        let meta = |shard: usize, op: MetaOp| {
            let reply = remote
                .pool()
                .rpc_ok(remote.shard_server(shard), &Request::Meta { op });
            match reply {
                Ok(Response::Meta { result, .. }) => result,
                other => panic!("expected a metadata reply, got {other:?}"),
            }
        };

        // Prepare and commit through the raw ops; never finish.
        let prepared = meta(
            src,
            MetaOp::RenamePrepare {
                from: from.into(),
                to: to.into(),
            },
        );
        let MetaResult::RenamePrepared {
            intent,
            mut attr,
            mut dist,
            tags,
        } = prepared
        else {
            panic!("expected RenamePrepared, got {prepared:?}");
        };
        attr.filename = to.into();
        dist.iter_mut().for_each(|d| d.filename = to.into());
        let committed = meta(
            dst,
            MetaOp::RenameCommit {
                intent,
                attr,
                dist,
                tags,
            },
        );
        assert_eq!(committed, MetaResult::Unit);
        sh.exec(&format!("stat {from}")).unwrap();
        sh.exec(&format!("stat {to}")).unwrap();

        let out = sh.exec("fsck --repair").unwrap();
        assert!(out.contains("resolved 1 rename intent(s)"), "{out}");
        assert!(out.contains("requires an embedded mount"), "{out}");
        assert!(sh.exec(&format!("stat {from}")).is_err(), "source is gone");
        sh.exec(&format!("stat {to}")).unwrap();
        let marker = MetaOp::GetTag {
            filename: to.into(),
            tag: dpfs_meta::catalog::RENAME_INTENT_TAG.into(),
        };
        assert_eq!(meta(dst, marker), MetaResult::MaybeString(None));
        assert_eq!(
            meta(src, MetaOp::ListRenameIntents),
            MetaResult::Intents(vec![])
        );
        let out = sh.exec("fsck --repair").unwrap();
        assert!(out.contains("resolved 0 rename intent(s)"), "{out}");
        // The other forms still need the database in-process.
        assert!(sh.exec("fsck").is_err());
    }

    #[test]
    fn stats_watch_diffs_rounds() {
        let (mut sh, _tb) = shell();
        let tmp = std::env::temp_dir().join(format!("dpfs-shell-statsw-{}", std::process::id()));
        std::fs::write(&tmp, vec![1u8; 4096]).unwrap();
        sh.exec(&format!("import {} /w.bin", tmp.display()))
            .unwrap();
        let out = sh.exec("stats --watch 2 10").unwrap();
        assert!(out.contains("round 1/2:"), "{out}");
        assert!(out.contains("round 2/2:"), "{out}");
        // second round shows deltas against the first
        assert!(out.contains("(+"), "{out}");
        assert!(sh.exec("stats --watch 2 10 extra").is_err());
        assert!(sh.exec("stats bogus").is_err());
        std::fs::remove_file(tmp).unwrap();
    }

    #[test]
    fn rmdir_requires_empty() {
        let (mut sh, _tb) = shell();
        sh.exec("mkdir d").unwrap();
        sh.exec("mkdir d/e").unwrap();
        assert!(sh.exec("rmdir d").is_err());
        sh.exec("rmdir d/e").unwrap();
        sh.exec("rmdir d").unwrap();
        let ls = sh.exec("ls").unwrap();
        assert!(!ls.contains("d/"));
    }
}
