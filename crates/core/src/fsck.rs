//! File-system consistency checker (extension).
//!
//! The paper's pitch for database-backed metadata is easy, reliable
//! consistency (§5). `fsck` makes that checkable on every mount, as one flow
//! over the mount's metadata client:
//!
//! 1. every metadata shard audits its own tables against each other
//!    ([`dpfs_meta::Catalog::audit`], one `MetaOp::Audit` per shard) — and,
//!    for [`fsck_repair`], fixes what is safely fixable;
//! 2. one pass over the files the audits name reads each entry the way
//!    `open` does, so a file `open` refuses is an issue, and — online —
//!    stats the subfiles its brick lists name once. The stats say what is
//!    missing, oversized or under-protected; [`fsck_reprotect`] rebuilds
//!    from the same stats.

use dpfs_proto::{Request, Response};

pub use dpfs_meta::Issue;

use crate::error::Result;
use crate::file::{issue, FileHandle};
use crate::fs::Dpfs;
use crate::hints::{holders, primary_subfile, RedundancyPolicy, Subfile};
use crate::layout::Layout;

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

/// Outcome of a repair pass.
#[derive(Debug, Default)]
pub struct RepairSummary {
    /// Human-readable descriptions of fixes applied.
    pub fixed: Vec<String>,
    /// Issues that cannot be repaired automatically (risk of data loss).
    pub unfixable: Vec<Issue>,
}

/// How far the per-file pass goes past reading each file's entry.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// The entry only: what the catalog alone says.
    Open,
    /// Stat every subfile and report what the sizes show; `strict` also
    /// flags missing ones.
    Stat { strict: bool },
    /// Stat every subfile and rebuild the short members of every
    /// protection group.
    Reprotect,
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
    let pass = if online {
        Pass::Stat { strict }
    } else {
        Pass::Open
    };
    Ok(check(fs, pass)?.0)
}

/// Rebuild lost redundancy after a server came back with an empty disk:
/// for every redundant file, find the members of each protection group that
/// fall short (`short_members`) and have the file's own handle rewrite
/// them from the rest of the group — any whole copy under `Replica(k)`, the
/// XOR of *all* the other members under `XorParity`, data before parity.
/// Members on unreachable servers are left alone; one that could only be
/// rebuilt by reading an unreachable member, a short copy or short parity
/// is reported unfixable rather than overwritten with a guess.
pub fn fsck_reprotect(fs: &Dpfs) -> Result<RepairSummary> {
    Ok(check(fs, Pass::Reprotect)?.1)
}

/// Repair what is safely repairable in every shard's tables, then check
/// again: returns the post-repair report plus a summary of actions. Safe
/// repairs: dropping orphan distribution rows, unlinking dangling directory
/// entries, re-linking unlisted files and orphan directories, creating
/// missing directory rows. Anything touching file data (missing/corrupt
/// brick lists, bad attributes, unknown servers) is reported, never guessed:
/// whatever the check still finds is unfixable.
pub fn fsck_repair(fs: &Dpfs) -> Result<(FsckReport, RepairSummary)> {
    let fixed = fs.meta().audit(true)?.fixed;
    let after = fsck(fs, false)?;
    let unfixable = after.issues.clone();
    Ok((after, RepairSummary { fixed, unfixable }))
}

/// The one flow: audit every shard, then one pass over the files.
fn check(fs: &Dpfs, pass: Pass) -> Result<(FsckReport, RepairSummary)> {
    let audit = fs.meta().audit(false)?;
    let mut report = FsckReport {
        issues: audit.issues,
        files_checked: audit.files.len(),
        dirs_checked: audit.dirs as usize,
        subfiles_checked: 0,
    };
    let mut summary = RepairSummary::default();
    for filename in &audit.files {
        // Gone since the audit (unlinked, renamed away): nothing to check.
        let Some(entry) = fs.meta().open_file(filename)? else {
            continue;
        };
        let mut file = match fs.open_entry(filename.clone(), &entry, fs.options()) {
            Ok(file) => file,
            Err(issue) => {
                // The audit may have named it already (no distribution).
                if !report.issues.contains(&issue) {
                    report.issues.push(issue);
                }
                continue;
            }
        };
        let strict = match pass {
            Pass::Open => continue,
            Pass::Stat { strict } => strict,
            Pass::Reprotect => false,
        };
        // The audit covers the subfiles the brick lists name
        // (`RedundancyPolicy::subfiles`), statted in one batch: a server
        // without bricks — the parity server's, one a short file never
        // reached — has no primary to stat.
        let policy = file.redundancy();
        let holds = holders(file.servers().len(), file.brick_map().bricklists());
        let subfiles = policy.subfiles(file.id(), &holds);
        let primary = primary_subfile(file.id());
        let stats = stat_all(fs, file.servers(), &subfiles);
        report.subfiles_checked += subfiles.len();
        // Missing-subfile inference is only sound when the admin asserts
        // files are not sparse (strict), and then only for linear files,
        // whose size attribute tracks the written extent.
        let fully_written = strict && matches!(file.layout(), Layout::Linear(_)) && file.size() > 0;
        for ((host, sub), stat) in subfiles.iter().zip(&stats) {
            if *sub != primary {
                continue;
            }
            let server = file.servers()[*host].clone();
            let Some((exists, size)) = *stat else {
                report.issues.push(Issue::ServerUnreachable { server });
                continue;
            };
            let filename = filename.clone();
            let max_expected = cap(&file, *host);
            if size > max_expected {
                report.issues.push(Issue::SubfileOversized {
                    filename,
                    server,
                    max_expected,
                    actual: size,
                });
            } else if !exists && fully_written {
                // A partially-written file may legitimately have no subfile
                // on some servers; a fully-written one may not.
                report
                    .issues
                    .push(Issue::SubfileMissing { filename, server });
            }
        }
        // Every protection group (primary + mirrors under `Replica(k)`,
        // data + parity under `XorParity`) must be mutually consistent in
        // size.
        for (group, sizes) in sized_groups(policy, file.id(), &holds, &stats) {
            if pass == Pass::Reprotect {
                reprotect_group(&mut file, &group, &sizes, &mut summary)?;
                continue;
            }
            // An empty data subfile is evidence of a loss only beside live
            // parity: without it the file may just be sparse or partly
            // written.
            let parity_live = sizes.last().copied().flatten().is_some_and(|p| p > 0);
            for (i, _) in short_members(policy, &group, &sizes, |host| cap(&file, host)) {
                if xor_data(policy, &group, i) && !parity_live {
                    continue;
                }
                let (host, subfile) = group[i].clone();
                report.issues.push(Issue::UnderProtected {
                    filename: filename.clone(),
                    server: file.servers()[host].clone(),
                    subfile,
                });
            }
        }
    }
    Ok((report, summary))
}

/// The most bytes the bricks `file`'s map gives server `host` allow (none
/// for the brickless parity server).
fn cap(file: &FileHandle, host: usize) -> u64 {
    let lists = file.brick_map().bricklists();
    let bricks = lists.get(host).into_iter().flatten();
    bricks.map(|&b| file.layout().brick_len(b)).sum()
}

/// Stat `subfiles` (indices into `servers`) in one batch through the one
/// dispatch: `(exists, size)` per subfile, in order, `None` where the server
/// did not answer.
fn stat_all(fs: &Dpfs, servers: &[String], subfiles: &[Subfile]) -> Vec<Option<(bool, u64)>> {
    let work = subfiles
        .iter()
        .map(|(host, sub)| {
            let stat = Request::Stat {
                subfile: sub.clone(),
            };
            (servers[*host].as_str(), stat)
        })
        .collect();
    issue(fs.pool(), &fs.options(), work, 0)
        .map(|res| match res {
            Ok(Response::Stat { exists, size }) => Some((exists, size)),
            _ => None,
        })
        .collect()
}

/// The groups of `policy` over `holds`, each beside its members' sizes
/// (0 = absent, `None` = unreachable). `stats` answers
/// [`RedundancyPolicy::subfiles`] over the same `holds` — the list the
/// groups are cut from, in order.
fn sized_groups(
    policy: RedundancyPolicy,
    id: u64,
    holds: &[bool],
    stats: &[Option<(bool, u64)>],
) -> Vec<(Vec<Subfile>, Vec<Option<u64>>)> {
    let mut sizes = stats
        .iter()
        .map(|st| st.map(|(exists, size)| if exists { size } else { 0 }));
    policy
        .groups(id, holds)
        .into_iter()
        .map(|group| {
            let group_sizes = sizes.by_ref().take(group.len()).collect();
            (group, group_sizes)
        })
        .collect()
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

fn reprotect_group(
    file: &mut FileHandle,
    group: &[Subfile],
    sizes: &[Option<u64>],
    summary: &mut RepairSummary,
) -> Result<()> {
    let policy = file.redundancy();
    let short = short_members(policy, group, sizes, |host| cap(file, host));
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
        let path = file.path();
        summary
            .fixed
            .push(format!("rebuilt {subfile} of {path} on {server}"));
    }
    Ok(())
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
