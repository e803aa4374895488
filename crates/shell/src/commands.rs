//! The DPFS shell: command dispatch and implementations.

use std::fmt::Write as _;
use std::sync::Arc;

use dpfs_cluster::{scrape_cluster, Testbed, UNREACHABLE};
use dpfs_core::trace::{ClusterSnapshot, NodeRole};
use dpfs_core::{primary_subfile, Dpfs, DpfsError, FileLevel, Hint, Layout, Result};
use dpfs_meta::{Database, FileEntry};

use crate::parse::{resolve_path, split_words};

/// Default brick size for `import`ed linear files (64 KiB).
pub const DEFAULT_IMPORT_BRICK: u64 = 64 * 1024;

/// An interactive DPFS shell session.
pub struct Shell {
    fs: Dpfs,
    cwd: String,
    /// The database `sql` runs on: the testbed's, when the shell runs on
    /// one; `None` on a `--metad` mount, whose databases live in the
    /// daemons.
    db: Option<Arc<Database>>,
}

impl Shell {
    /// New shell over `fs`, rooted at `/`.
    pub fn new(fs: Dpfs) -> Shell {
        Shell {
            fs,
            cwd: "/".to_string(),
            db: None,
        }
    }

    /// New shell over a client of `tb`, rooted at `/`; `sql` runs on the
    /// database of `tb`'s metadata shard 0.
    pub fn on_testbed(tb: &Testbed) -> Shell {
        Shell {
            db: Some(tb.db()),
            ..Shell::new(tb.client(0, true))
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
        let FileEntry { id, attr, dist } = self
            .fs
            .meta()
            .open_file(&full)?
            .ok_or(DpfsError::NoSuchFile(full))?;
        let mut out = String::new();
        writeln!(out, "file:       {}", attr.filename).unwrap();
        // The name the I/O servers hold the file's subfiles under.
        writeln!(out, "id:         {}", primary_subfile(id)).unwrap();
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

    /// The I/O servers of one scrape, one row each. With `prev` (the
    /// previous round of `--watch`), counter columns show the delta since
    /// then, matched by server and counter name, next to the running total.
    fn stats_table(snap: &ClusterSnapshot, prev: Option<&ClusterSnapshot>) -> String {
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
        for node in snap.nodes_of(NodeRole::Iond) {
            if node.counter(UNREACHABLE).is_some() {
                writeln!(out, "{:<12} unreachable", node.name).unwrap();
                continue;
            }
            let before =
                prev.and_then(|p| p.nodes_of(NodeRole::Iond).find(|b| b.name == node.name));
            let counter = |key: &str| {
                let cur = node.counter(key).unwrap_or(0);
                match before.and_then(|b| b.counter(key)) {
                    Some(b) => format!("{cur} (+{})", cur.saturating_sub(b)),
                    None => cur.to_string(),
                }
            };
            let summary = |key: &str| node.hist(key).copied().unwrap_or_default().summary_us();
            writeln!(
                out,
                "{:<12} {:>10} {:>10} {:>10} {:>6} {:>6} {:>5}  {:<20} {:<20}",
                node.name,
                counter("io.requests"),
                counter("io.reads"),
                counter("io.writes"),
                counter("io.errors"),
                counter("io.subfiles_reopened"),
                node.gauge("in_flight").unwrap_or(0),
                summary("lat.read"),
                summary("lat.write")
            )
            .unwrap();
        }
        out
    }

    /// The metadata half of `stats`: each shard's daemon counters and
    /// per-op service-time percentiles, one section per shard.
    fn metadata_section(snap: &ClusterSnapshot) -> String {
        let shards = snap.nodes_of(NodeRole::Metad).count();
        let mut out = String::new();
        for (shard, node) in snap.nodes_of(NodeRole::Metad).enumerate() {
            if shards == 1 {
                writeln!(out, "metadata: remote via {}", node.name).unwrap();
            } else {
                writeln!(
                    out,
                    "metadata: remote via {} [shard {shard} of {shards}]",
                    node.name
                )
                .unwrap();
            }
            if node.counter(UNREACHABLE).is_some() {
                writeln!(out, "metad:       unreachable").unwrap();
                continue;
            }
            let counter = |key: &str| node.counter(key).unwrap_or(0);
            writeln!(
                out,
                "metad:       {} reqs, {} meta ops, {} errs, {} conns, {} in flight",
                counter("meta.requests"),
                counter("meta.ops"),
                counter("meta.errors"),
                counter("meta.connections"),
                node.gauge("in_flight").unwrap_or(0)
            )
            .unwrap();
            for (op, h) in &node.hists {
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
            None => {
                let snap = scrape_cluster(&self.fs);
                Ok(Self::stats_table(&snap, None) + &Self::metadata_section(&snap))
            }
            // Machine-readable mode: the same scrape rendered as JSON, so
            // scripts stop parsing the human tables.
            Some("--json") => {
                if args.len() > 1 {
                    return Err(usage());
                }
                let mut json = scrape_cluster(&self.fs).to_json();
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
                let mut prev: Option<ClusterSnapshot> = None;
                for round in 1..=rounds {
                    if round > 1 {
                        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                    }
                    let snap = scrape_cluster(&self.fs);
                    writeln!(out, "round {round}/{rounds}:").unwrap();
                    out.push_str(&Self::stats_table(&snap, prev.as_ref()));
                    prev = Some(snap);
                }
                let last = prev.unwrap_or_else(|| scrape_cluster(&self.fs));
                out.push_str(&Self::metadata_section(&last));
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
            placement: dpfs_core::Placement::parse(&attr.placement)?,
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
            let resolved = self.fs.meta().recover_rename_intents()?;
            writeln!(out, "resolved {resolved} rename intent(s)").unwrap();
            let (report, mut summary) = dpfs_core::fsck::fsck_repair(&self.fs)?;
            let rebuilt = dpfs_core::fsck::fsck_reprotect(&self.fs)?;
            summary.fixed.extend(rebuilt.fixed);
            summary.unfixable.extend(rebuilt.unfixable);
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

    /// `sql <statement>`: run one statement on the testbed's metadata
    /// database, as a transaction of its own. `EXPLAIN <statement>` names
    /// the access path; `?` placeholders may stay unbound there.
    fn cmd_sql(&mut self, statement: &str) -> Result<String> {
        let db = self.db.as_ref().ok_or_else(|| {
            DpfsError::InvalidArgument(
                "sql: the metadata databases of a --metad mount live in its daemons".into(),
            )
        })?;
        let rs = db.execute(statement)?;
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
  fsck [--online|--repair] check catalog consistency on any mount, every
                           metadata shard; --online also stats every
                           subfile; --repair fixes what is safe, resolves
                           the intents of cross-shard renames whose client
                           died (run it when no rename is in flight) and
                           rebuilds lost mirrors and parity
  tag <file> <k> <v>       attach a metadata tag
  tags <file>              list tags
  untag <file> <k>         remove a tag
  find <k> <pattern>       find files by tag value (LIKE pattern)
  sql <statement>          run SQL on the testbed's metadata database;
                           EXPLAIN <statement> names its access path
  help                     this text
";

#[cfg(test)]
mod tests {
    use super::*;
    use dpfs_cluster::Testbed;

    fn shell() -> (Shell, Testbed) {
        let tb = Testbed::unthrottled(4).unwrap();
        (Shell::on_testbed(&tb), tb)
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
        let (mut sh, tb) = shell();
        let tmp = std::env::temp_dir().join(format!("dpfs-shell-fsck-{}", std::process::id()));
        std::fs::write(&tmp, vec![1u8; 100]).unwrap();
        sh.exec(&format!("import {} /f", tmp.display())).unwrap();
        let out = sh.exec("fsck --online").unwrap();
        assert!(out.contains("clean"), "{out}");
        // corrupt the catalog behind the shell's back
        tb.db()
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

    /// `sql` runs one statement, a transaction of its own: there is no
    /// `BEGIN` to leave the mount's metadata database stuck in. (One used to
    /// open a transaction for the whole database, and every namespace
    /// command after it failed with "nested BEGIN".)
    #[test]
    fn sql_refuses_transaction_control_and_the_mount_keeps_working() {
        let (mut sh, _tb) = shell();
        let begin = sh.exec("sql BEGIN");
        sh.exec("mkdir /after").unwrap();
        sh.exec("mkdir /after/inner").unwrap();
        let out = sh.exec("ls /after").unwrap();
        assert!(out.contains("inner"), "{out}");
        assert!(sh.exec("ls /").unwrap().contains("after"));
        assert!(begin.is_err(), "{begin:?}");
        for statement in ["COMMIT", "ROLLBACK"] {
            assert!(sh.exec(&format!("sql {statement}")).is_err(), "{statement}");
        }
        assert!(sh.exec("ls /after").unwrap().contains("inner"));
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
        assert!(out.contains("metadata: remote via metad0"), "{out}");
        std::fs::remove_file(tmp).unwrap();
    }

    #[test]
    fn stats_json_emits_the_unified_scrape() {
        let tb = Testbed::unthrottled_sharded(2, 2).unwrap();
        let mut sh = Shell::new(tb.client(0, true));
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
        let tb = Testbed::unthrottled(2).unwrap();
        let mut sh = Shell::new(tb.client(0, true));
        sh.exec("mkdir /d").unwrap();
        sh.exec("stat /d").ok();
        sh.exec("ls").unwrap();
        let out = sh.exec("stats").unwrap();
        assert!(out.contains("metadata: remote via metad0"), "{out}");
        assert!(out.contains("meta ops"), "{out}");
        assert!(out.contains("meta.mkdir"), "{out}");
        // The shell of a bare mount, as `--metad` makes it, holds no
        // database for `sql`.
        assert!(sh.exec("sql SELECT * FROM dpfs_directory").is_err());
    }

    #[test]
    fn stats_reports_every_metadata_shard() {
        let tb = Testbed::unthrottled_sharded(2, 2).unwrap();
        let mut sh = Shell::new(tb.client(0, true));
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

    /// `stats` and `stats --json` are two renderings of one scrape: they
    /// agree on every iond's `io.requests` and every shard's `meta.ops`.
    #[test]
    fn stats_and_stats_json_render_one_scrape_alike() {
        let tb = Testbed::unthrottled_sharded(2, 2).unwrap();
        let mut sh = Shell::new(tb.client(0, true));
        let tmp = std::env::temp_dir().join(format!("dpfs-stats-same-{}", std::process::id()));
        std::fs::write(&tmp, [9u8; 8192]).unwrap();
        sh.exec("mkdir /a").unwrap();
        sh.exec(&format!("import {} /a/f 4096", tmp.display()))
            .unwrap();
        std::fs::remove_file(&tmp).unwrap();

        let snap = scrape_cluster(sh.fs());
        let table = Shell::stats_table(&snap, None) + &Shell::metadata_section(&snap);
        let json = snap.to_json();
        // `key` of the `role` node `name` in the JSON document.
        let in_json = |name: &str, role: &str, key: &str| -> u64 {
            let head = format!("{name}\",\"role\":\"{role}\"");
            let node = json.split("{\"name\":\"").find(|n| n.starts_with(&head));
            let node = node.unwrap_or_else(|| panic!("no {role} {name} in {json}"));
            let at = node.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
            let digits = node[at..].split(|c: char| !c.is_ascii_digit()).next();
            digits.unwrap().parse().unwrap()
        };
        for ion in ["ion00", "ion01"] {
            let row = table.lines().find(|l| l.starts_with(ion)).unwrap();
            let reqs: u64 = row.split_whitespace().nth(1).unwrap().parse().unwrap();
            assert!(reqs > 0, "{table}");
            assert_eq!(reqs, in_json(ion, "iond", "io.requests"), "{table}\n{json}");
        }
        let sections: Vec<&str> = table.split("metadata: remote via ").skip(1).collect();
        assert_eq!(sections.len(), 2, "{table}");
        for (shard, section) in ["metad0", "metad1"].into_iter().zip(sections) {
            assert!(section.starts_with(shard), "{table}");
            let ops = section.split(" reqs, ").nth(1).unwrap();
            let ops: u64 = ops.split(' ').next().unwrap().parse().unwrap();
            assert!(ops > 0, "{table}");
            assert_eq!(ops, in_json(shard, "metad", "meta.ops"), "{table}\n{json}");
        }
    }

    /// A client that died between `RenameCommit` and `RenameFinish` leaves
    /// the file visible under both names; `fsck --repair` is the operator's
    /// way to finish the rename.
    #[test]
    fn fsck_repair_on_a_remote_mount_resolves_crashed_cross_shard_renames() {
        use dpfs_proto::{MetaOp, MetaResult, Request, Response};
        let tb = Testbed::unthrottled_sharded(2, 2).unwrap();
        let mut sh = Shell::new(tb.client(0, true));
        let tmp = std::env::temp_dir().join(format!("dpfs-shell-intent-{}", std::process::id()));
        std::fs::write(&tmp, [3u8; 64]).unwrap();
        sh.exec("mkdir /sd0").unwrap();
        sh.exec("mkdir /sd1").unwrap();
        sh.exec(&format!("import {} /sd1/f", tmp.display()))
            .unwrap();
        std::fs::remove_file(&tmp).unwrap();
        let (from, to) = ("/sd1/f", "/sd0/g");
        let remote = sh.fs().meta().clone();
        let pool = sh.fs().pool().clone();
        let (src, dst) = (remote.route_file(from), remote.route_file(to));
        assert_ne!(src, dst, "the two directories live on different shards");
        let meta = |shard: usize, op: MetaOp| {
            let reply = pool.rpc_ok(remote.shard_server(shard), &Request::Meta { op });
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
            mut entry, tags, ..
        } = prepared
        else {
            panic!("expected RenamePrepared, got {prepared:?}");
        };
        entry.attr.filename = to.into();
        entry.dist.iter_mut().for_each(|d| d.filename = to.into());
        let committed = meta(dst, MetaOp::RenameCommit { entry, tags });
        assert_eq!(committed, MetaResult::Unit);
        // Both names show the one file: the same id, and so the same
        // subfiles.
        let id = |stat: String| {
            stat.lines()
                .find(|l| l.starts_with("id:"))
                .unwrap()
                .to_string()
        };
        let before = id(sh.exec(&format!("stat {from}")).unwrap());
        assert_eq!(id(sh.exec(&format!("stat {to}")).unwrap()), before);

        let out = sh.exec("fsck --repair").unwrap();
        assert!(out.contains("resolved 1 rename intent(s)"), "{out}");
        assert!(out.contains("0 remaining issue(s)"), "{out}");
        assert!(sh.exec(&format!("stat {from}")).is_err(), "source is gone");
        assert_eq!(id(sh.exec(&format!("stat {to}")).unwrap()), before);
        assert_eq!(
            meta(src, MetaOp::ListRenameIntents),
            MetaResult::Intents(vec![])
        );
        let out = sh.exec("fsck --repair").unwrap();
        assert!(out.contains("resolved 0 rename intent(s)"), "{out}");
        // The catalog audit runs on the daemons: both shards are clean.
        let out = sh.exec("fsck --online").unwrap();
        assert!(out.contains("clean"), "{out}");
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
