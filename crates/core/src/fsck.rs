//! File-system consistency checker (extension).
//!
//! The paper's pitch for database-backed metadata is easy, reliable
//! consistency (§5). `fsck` makes that checkable: it audits the four
//! catalog tables against each other — and, optionally, against the
//! servers' actual subfiles — and reports every violation it finds.

use std::collections::{BTreeSet, HashMap};

use dpfs_proto::Request;

use crate::error::{DpfsError, Result};
use crate::file::FileHandle;
use crate::fs::{striping_from_attr, Dpfs};
use crate::hints::{holders, RedundancyPolicy, Subfile};
use crate::layout::Layout;
use crate::placement::BrickMap;

/// fsck audits raw catalog tables, so it needs the database in-process.
fn embedded_only() -> DpfsError {
    DpfsError::InvalidArgument(
        "fsck requires an embedded mount (run it against the metadata database directly)".into(),
    )
}

/// One consistency violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Issue {
    /// A `dpfs_file_distribution` row references a file with no attribute
    /// row.
    OrphanDistribution { filename: String, server: String },
    /// A file has an attribute row but no distribution rows.
    MissingDistribution { filename: String },
    /// A file's brick lists do not form a partition of `0..num_bricks`.
    CorruptBricklists { filename: String, detail: String },
    /// A file's attribute row cannot be interpreted (bad level/geometry).
    BadAttributes { filename: String, detail: String },
    /// A directory lists a file that has no attribute row.
    DanglingDirEntry { dir: String, name: String },
    /// A file's attribute row is not listed in its parent directory.
    UnlistedFile { filename: String },
    /// A directory row's parent is missing or does not list it.
    OrphanDirectory { dir: String },
    /// A directory listed as a child has no row of its own.
    MissingDirectory { dir: String, parent: String },
    /// A distribution row references a server absent from `dpfs_server`.
    UnknownServer { filename: String, server: String },
    /// Online check: a server that should hold data has no subfile.
    SubfileMissing { filename: String, server: String },
    /// Online check: a subfile is larger than its bricks allow.
    SubfileOversized {
        filename: String,
        server: String,
        max_expected: u64,
        actual: u64,
    },
    /// Online check: a server did not respond.
    ServerUnreachable { server: String },
    /// Online check: a redundant file's mirror or parity subfile is
    /// missing or shorter than the data it must protect (e.g. after a
    /// server came back with an empty disk). [`fsck_reprotect`] rebuilds
    /// these from the surviving copies.
    UnderProtected {
        filename: String,
        server: String,
        subfile: String,
    },
}

/// Result of a check run.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// All violations found, in discovery order.
    pub issues: Vec<Issue>,
    /// Files audited.
    pub files_checked: usize,
    /// Directories audited.
    pub dirs_checked: usize,
    /// Subfiles statted on servers (online mode).
    pub subfiles_checked: usize,
}

impl FsckReport {
    /// True when no violations were found.
    pub fn clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Audit the catalog. With `online`, also stat every subfile on its server.
pub fn fsck(fs: &Dpfs, online: bool) -> Result<FsckReport> {
    fsck_with(fs, online, false)
}

/// Like [`fsck`], with a `strict` online mode that additionally flags
/// *missing* subfiles of fully-written linear files. Strict mode assumes no
/// sparse files (a sparse write legitimately leaves some servers without a
/// subfile), so it is opt-in.
pub fn fsck_with(fs: &Dpfs, online: bool, strict: bool) -> Result<FsckReport> {
    let mut report = FsckReport::default();
    let catalog = fs.catalog().ok_or_else(embedded_only)?;
    let db = catalog.db();

    // Load the raw tables once.
    let attrs = db.execute("SELECT filename FROM dpfs_file_attr ORDER BY filename")?;
    let file_names: Vec<String> = attrs
        .rows
        .iter()
        .map(|r| Ok(r[0].as_text()?.to_string()))
        .collect::<Result<_>>()?;
    let file_set: BTreeSet<&String> = file_names.iter().collect();

    let servers: BTreeSet<String> = catalog
        .list_servers()?
        .into_iter()
        .map(|s| s.name)
        .collect();

    let dist_rows = db.execute(
        "SELECT filename, server, bricklist FROM dpfs_file_distribution ORDER BY filename, server",
    )?;
    let mut dist_by_file: HashMap<String, Vec<(String, Vec<i64>)>> = HashMap::new();
    for row in &dist_rows.rows {
        let filename = row[0].as_text()?.to_string();
        let server = row[1].as_text()?.to_string();
        let bricklist = row[2].as_int_list()?.to_vec();
        if !file_set.contains(&filename) {
            report.issues.push(Issue::OrphanDistribution {
                filename: filename.clone(),
                server: server.clone(),
            });
        }
        if !servers.contains(&server) {
            report.issues.push(Issue::UnknownServer {
                filename: filename.clone(),
                server: server.clone(),
            });
        }
        dist_by_file
            .entry(filename)
            .or_default()
            .push((server, bricklist));
    }

    // Per-file checks.
    for filename in &file_names {
        report.files_checked += 1;
        let attr = catalog
            .get_file_attr(filename)?
            .expect("listed a moment ago");
        let layout = match striping_from_attr(&attr).and_then(|s| Layout::from_striping(&s)) {
            Ok(l) => l,
            Err(e) => {
                report.issues.push(Issue::BadAttributes {
                    filename: filename.clone(),
                    detail: e.to_string(),
                });
                continue;
            }
        };
        let Some(dist) = dist_by_file.get(filename) else {
            report.issues.push(Issue::MissingDistribution {
                filename: filename.clone(),
            });
            continue;
        };
        let lists: Vec<Vec<i64>> = dist.iter().map(|(_, l)| l.clone()).collect();
        let map = match BrickMap::from_bricklists(&lists) {
            Ok(m) => m,
            Err(e) => {
                report.issues.push(Issue::CorruptBricklists {
                    filename: filename.clone(),
                    detail: e.to_string(),
                });
                continue;
            }
        };
        // for linear files the map may exceed the declared layout (growth
        // updates both, but size is authoritative); require map >= layout
        if map.num_bricks() < layout.num_bricks() {
            report.issues.push(Issue::CorruptBricklists {
                filename: filename.clone(),
                detail: format!(
                    "{} bricks mapped, layout requires {}",
                    map.num_bricks(),
                    layout.num_bricks()
                ),
            });
        }

        if online {
            // Missing-subfile inference is only sound when the admin asserts
            // files are not sparse (strict), and then only for linear files
            // whose size attribute tracks the written extent.
            let fully_written = strict
                && matches!(layout, Layout::Linear(_))
                && attr.size as u64 >= layout.file_bytes()
                && attr.size > 0;
            let policy = RedundancyPolicy::parse(&attr.redundancy);
            // The audit covers the subfiles the brick lists name
            // (`RedundancyPolicy::subfiles`): a row without bricks — the
            // parity server's, a server a short file never reached — has no
            // primary to stat.
            let data_rows = match &policy {
                Ok(p) => p.data_servers(dist.len()),
                Err(_) => dist.len(),
            };
            // Indexed like `dist`; `None` = not statted or unreachable.
            let mut primary_sizes: Vec<Option<u64>> = vec![None; dist.len()];
            for (host, (server, list)) in dist.iter().enumerate().take(data_rows) {
                if list.is_empty() {
                    continue;
                }
                report.subfiles_checked += 1;
                let max_expected: u64 = list.iter().map(|&b| layout.brick_len(b as u64)).sum();
                match fs.pool().rpc(
                    server,
                    &Request::Stat {
                        subfile: filename.clone(),
                    },
                ) {
                    Ok(dpfs_proto::Response::Stat { exists, size }) => {
                        // A partially-written file may legitimately have no
                        // subfile on some servers; a fully-written one may
                        // not.
                        if !exists && fully_written {
                            report.issues.push(Issue::SubfileMissing {
                                filename: filename.clone(),
                                server: server.clone(),
                            });
                        }
                        if size > max_expected {
                            report.issues.push(Issue::SubfileOversized {
                                filename: filename.clone(),
                                server: server.clone(),
                                max_expected,
                                actual: size,
                            });
                        }
                        primary_sizes[host] = Some(if exists { size } else { 0 });
                    }
                    Ok(_) | Err(_) => {
                        report.issues.push(Issue::ServerUnreachable {
                            server: server.clone(),
                        });
                    }
                }
            }
            match policy {
                Ok(p) => {
                    check_protection(fs, filename, p, &layout, dist, &primary_sizes, &mut report)
                }
                Err(e) => report.issues.push(Issue::BadAttributes {
                    filename: filename.clone(),
                    detail: e.to_string(),
                }),
            }
        }
    }

    // Directory-tree checks: walk from the root.
    let dir_rows = db.execute("SELECT main_dir FROM dpfs_directory ORDER BY main_dir")?;
    let all_dirs: BTreeSet<String> = dir_rows
        .rows
        .iter()
        .map(|r| Ok(r[0].as_text()?.to_string()))
        .collect::<Result<_>>()?;
    let mut reachable: BTreeSet<String> = BTreeSet::new();
    let mut listed_files: BTreeSet<String> = BTreeSet::new();
    let mut stack = vec!["/".to_string()];
    while let Some(dir) = stack.pop() {
        if !reachable.insert(dir.clone()) {
            continue;
        }
        report.dirs_checked += 1;
        let Some(entry) = catalog.get_dir(&dir)? else {
            continue;
        };
        for sub in &entry.sub_dirs {
            if all_dirs.contains(sub) {
                stack.push(sub.clone());
            } else {
                report.issues.push(Issue::MissingDirectory {
                    dir: sub.clone(),
                    parent: dir.clone(),
                });
            }
        }
        for f in &entry.files {
            if !file_set.contains(f) {
                report.issues.push(Issue::DanglingDirEntry {
                    dir: dir.clone(),
                    name: f.clone(),
                });
            }
            listed_files.insert(f.clone());
        }
    }
    for dir in &all_dirs {
        if !reachable.contains(dir) {
            report
                .issues
                .push(Issue::OrphanDirectory { dir: dir.clone() });
        }
    }
    for f in &file_names {
        if !listed_files.contains(f) {
            report.issues.push(Issue::UnlistedFile {
                filename: f.clone(),
            });
        }
    }

    Ok(report)
}

/// Stat one subfile: `Some(size)` (0 = absent) or `None` when the server
/// is unreachable.
fn stat_subfile(fs: &Dpfs, server: &str, subfile: &str) -> Option<u64> {
    match fs.pool().rpc(
        server,
        &Request::Stat {
            subfile: subfile.to_string(),
        },
    ) {
        Ok(dpfs_proto::Response::Stat { exists, size }) => Some(if exists { size } else { 0 }),
        _ => None,
    }
}

/// Is member `i` of `group` a data subfile under parity? Those legitimately
/// differ in length — a sparse or partly written file leaves some empty.
fn xor_data(policy: RedundancyPolicy, group: &[Subfile], i: usize) -> bool {
    policy == RedundancyPolicy::XorParity && i + 1 < group.len()
}

/// The members of one protection group that hold less than the group says
/// they must, as `(index into the group, bytes the member should hold)`.
/// `sizes[i]` is member `i`'s subfile size (`None`: unreachable, left
/// alone); `cap(host)` is the most the bricks assigned to `host` allow.
///
/// The largest reachable member is authoritative: the copies of a stripe
/// are written together and parity covers the longest data subfile, so a
/// shorter copy or parity lost its tail or everything. Data subfiles under
/// parity legitimately differ in length, so there only an empty one with
/// bricks to hold — a replaced disk — counts (conservatively: rebuilding a
/// legitimately unwritten one just rewrites its zeros), clamped to its brick
/// allotment so the rebuilt subfile never trips the `SubfileOversized` check.
fn short_members(
    policy: RedundancyPolicy,
    group: &[Subfile],
    sizes: &[Option<u64>],
    cap: impl Fn(usize) -> u64,
) -> Vec<(usize, u64)> {
    let target = sizes.iter().flatten().copied().max().unwrap_or(0);
    (0..group.len())
        .filter_map(|i| {
            let have = sizes[i]?;
            let (want, short) = if xor_data(policy, group, i) {
                let want = target.min(cap(group[i].0));
                (want, have == 0 && want > 0)
            } else {
                (target, have < target)
            };
            short.then_some((i, want))
        })
        .collect()
}

/// Online protection audit for one redundant file: every protection group
/// (primary + mirrors under `Replica(k)`, data + parity under `XorParity`)
/// must be mutually consistent in size.
fn check_protection(
    fs: &Dpfs,
    filename: &str,
    policy: RedundancyPolicy,
    layout: &Layout,
    dist: &[(String, Vec<i64>)],
    primary_sizes: &[Option<u64>],
    report: &mut FsckReport,
) {
    let cap = |host: usize| {
        dist[host]
            .1
            .iter()
            .map(|&b| layout.brick_len(b as u64))
            .sum()
    };
    let holds = holders(dist.len(), dist.iter().map(|(_, list)| list));
    for group in policy.groups(filename, &holds) {
        let sizes: Vec<Option<u64>> = group
            .iter()
            .map(|(host, sub)| {
                if sub == filename {
                    return primary_sizes[*host];
                }
                report.subfiles_checked += 1;
                stat_subfile(fs, &dist[*host].0, sub)
            })
            .collect();
        // An empty data subfile is evidence of a loss only beside live
        // parity: without it the file may just be sparse or partly written.
        let parity_live = sizes.last().copied().flatten().is_some_and(|p| p > 0);
        for (i, _) in short_members(policy, &group, &sizes, cap) {
            if xor_data(policy, &group, i) && !parity_live {
                continue;
            }
            let (host, subfile) = group[i].clone();
            report.issues.push(Issue::UnderProtected {
                filename: filename.to_string(),
                server: dist[host].0.clone(),
                subfile,
            });
        }
    }
}

/// Rebuild lost redundancy after a server came back with an empty disk:
/// for every redundant file, find the members of each protection group that
/// fall short (`short_members`) and have the file's own handle rewrite
/// them from the rest of the group — any whole copy under `Replica(k)`, the
/// XOR of *all* the other members under `XorParity`, data before parity.
/// Members on unreachable servers are left alone; one that could only be
/// rebuilt by reading an unreachable member, a short copy or short parity
/// is reported unfixable rather than overwritten with a guess. Requires an
/// embedded mount, like [`fsck`].
pub fn fsck_reprotect(fs: &Dpfs) -> Result<RepairSummary> {
    let catalog = fs.catalog().ok_or_else(embedded_only)?;
    let mut summary = RepairSummary::default();
    let files = catalog
        .db()
        .execute("SELECT filename FROM dpfs_file_attr ORDER BY filename")?;
    for row in &files.rows {
        let filename = row[0].as_text()?;
        let mut file = match fs.open(filename) {
            Ok(file) => file,
            // Attributes that do not parse, fsck reports (BadAttributes,
            // ...): nothing to rebuild from. A catalog failure is not that.
            Err(DpfsError::InvalidArgument(_) | DpfsError::NoSuchFile(_)) => continue,
            Err(e) => return Err(e),
        };
        // Just opened, so its brick map is the catalog's.
        let holds = holders(file.servers().len(), file.brick_map().bricklists());
        for group in file.redundancy().groups(filename, &holds) {
            reprotect_group(fs, &mut file, &group, &mut summary)?;
        }
    }
    Ok(summary)
}

fn reprotect_group(
    fs: &Dpfs,
    file: &mut FileHandle,
    group: &[Subfile],
    summary: &mut RepairSummary,
) -> Result<()> {
    let policy = file.redundancy();
    let sizes: Vec<Option<u64>> = group
        .iter()
        .map(|(host, sub)| stat_subfile(fs, &file.servers()[*host], sub))
        .collect();
    let cap = |host: usize| {
        let bricks = &file.brick_map().bricklists()[host];
        bricks.iter().map(|&b| file.layout().brick_len(b)).sum()
    };
    let short = short_members(policy, group, &sizes, cap);
    // Members a rebuild must not read: unreachable, or a copy or parity
    // that is short until rebuilt. An empty data subfile under parity stays
    // a source — it reads back as the zeros parity holds for a part of the
    // file never written, and sizes alone cannot tell that from a loss.
    let mut bad: Vec<bool> = (0..group.len())
        .map(|i| {
            sizes[i].is_none()
                || (!xor_data(policy, group, i) && short.iter().any(|&(j, _)| j == i))
        })
        .collect();
    for (i, want) in short {
        let sources: Vec<Subfile> = (0..group.len())
            .filter(|&j| j != i && !bad[j])
            .map(|j| group[j].clone())
            .collect();
        // One whole copy rebuilds a replica; XOR needs every other member.
        let enough = match policy {
            RedundancyPolicy::XorParity => sources.len() + 1 == group.len(),
            _ => !sources.is_empty(),
        };
        let (host, subfile) = &group[i];
        let server = file.servers()[*host].clone();
        if !enough {
            summary.unfixable.push(Issue::UnderProtected {
                filename: file.path().to_string(),
                server,
                subfile: subfile.clone(),
            });
            continue;
        }
        file.reprotect(&group[i], &sources, want)?;
        bad[i] = false;
        summary.fixed.push(format!("rebuilt {subfile} on {server}"));
    }
    Ok(())
}

/// Outcome of a repair pass.
#[derive(Debug, Default)]
pub struct RepairSummary {
    /// Human-readable descriptions of fixes applied.
    pub fixed: Vec<String>,
    /// Issues that cannot be repaired automatically (risk of data loss).
    pub unfixable: Vec<Issue>,
}

/// Run an offline check, repair what is safely repairable, and return the
/// post-repair report plus a summary of actions. Safe repairs: dropping
/// orphan distribution rows, unlinking dangling directory entries,
/// re-linking unlisted files and orphan directories, creating missing
/// directory rows. Anything touching file data (missing/corrupt brick
/// lists, bad attributes, unknown servers) is reported, never guessed.
pub fn fsck_repair(fs: &Dpfs) -> Result<(FsckReport, RepairSummary)> {
    use dpfs_meta::catalog::parent_dir;
    let before = fsck(fs, false)?;
    let mut summary = RepairSummary::default();
    let catalog = fs.catalog().ok_or_else(embedded_only)?;
    let db = catalog.db();
    for issue in &before.issues {
        match issue {
            Issue::OrphanDistribution { filename, server } => {
                db.execute_with(
                    "DELETE FROM dpfs_file_distribution WHERE filename = ? AND server = ?",
                    &[filename.as_str().into(), server.as_str().into()],
                )?;
                summary.fixed.push(format!(
                    "dropped orphan distribution row {server}:{filename}"
                ));
            }
            Issue::DanglingDirEntry { dir, name } => {
                if let Some(entry) = catalog.get_dir(dir)? {
                    let files: Vec<String> =
                        entry.files.into_iter().filter(|f| f != name).collect();
                    db.execute_with(
                        "UPDATE dpfs_directory SET files = ? WHERE main_dir = ?",
                        &[files.join("\n").into(), dir.as_str().into()],
                    )?;
                    summary
                        .fixed
                        .push(format!("removed dangling entry {name} from {dir}"));
                }
            }
            Issue::UnlistedFile { filename } => {
                let Some(parent) = parent_dir(filename) else {
                    summary.unfixable.push(issue.clone());
                    continue;
                };
                match catalog.get_dir(&parent)? {
                    Some(entry) => {
                        let mut files = entry.files;
                        files.push(filename.clone());
                        db.execute_with(
                            "UPDATE dpfs_directory SET files = ? WHERE main_dir = ?",
                            &[files.join("\n").into(), parent.as_str().into()],
                        )?;
                        summary
                            .fixed
                            .push(format!("re-linked {filename} into {parent}"));
                    }
                    None => summary.unfixable.push(issue.clone()),
                }
            }
            Issue::OrphanDirectory { dir } => {
                let Some(parent) = parent_dir(dir) else {
                    summary.unfixable.push(issue.clone());
                    continue;
                };
                match catalog.get_dir(&parent)? {
                    Some(entry) => {
                        let mut subs = entry.sub_dirs;
                        if !subs.contains(dir) {
                            subs.push(dir.clone());
                        }
                        db.execute_with(
                            "UPDATE dpfs_directory SET sub_dirs = ? WHERE main_dir = ?",
                            &[subs.join("\n").into(), parent.as_str().into()],
                        )?;
                        summary
                            .fixed
                            .push(format!("re-linked directory {dir} into {parent}"));
                    }
                    None => summary.unfixable.push(issue.clone()),
                }
            }
            Issue::MissingDirectory { dir, .. } => {
                db.execute_with(
                    "INSERT INTO dpfs_directory VALUES (?, '', '')",
                    &[dir.as_str().into()],
                )?;
                summary
                    .fixed
                    .push(format!("created missing directory row {dir}"));
            }
            other => summary.unfixable.push(other.clone()),
        }
    }
    let after = fsck(fs, false)?;
    Ok((after, summary))
}

#[cfg(test)]
mod tests {
    // fsck needs live servers; end-to-end tests live in
    // crates/core/tests/fsck.rs. Here we only check report plumbing.
    use super::*;

    #[test]
    fn empty_report_is_clean() {
        let r = FsckReport::default();
        assert!(r.clean());
    }

    #[test]
    fn report_with_issue_is_dirty() {
        let mut r = FsckReport::default();
        r.issues.push(Issue::UnlistedFile {
            filename: "/f".into(),
        });
        assert!(!r.clean());
    }
}
