//! End-to-end fsck tests: a healthy system is clean; injected catalog
//! corruption is detected precisely, and alike on a one-shard and a
//! two-shard metadata plane.

use std::sync::Arc;

use dpfs_core::fsck::{fsck, Issue};
use dpfs_core::{ClientOptions, Dpfs, Hint, Resolver, Shape};
use dpfs_meta::{Catalog, Database, ServerInfo};
use dpfs_metad::{MetaServer, MetadConfig};
use dpfs_server::{IoServer, PerfModel, ServerConfig};

struct Rig {
    fs: Dpfs,
    _metads: Vec<MetaServer>,
    servers: Vec<IoServer>,
    root: std::path::PathBuf,
    /// Each metadata shard's database: tests corrupt them behind the
    /// mount's back.
    dbs: Vec<Arc<Database>>,
}

impl Rig {
    /// The database of the shard that holds `/home`'s files.
    fn db(&self) -> &Database {
        &self.dbs[self.fs.meta().route_file("/home/a")]
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Three I/O servers and a `shards`-wide metadata plane, each shard a
/// daemon over a database of its own.
fn rig(tag: &str, shards: usize) -> Rig {
    let root = std::env::temp_dir().join(format!(
        "dpfs-fsck-{tag}-{shards}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let mut resolver = Resolver::direct();
    let mut servers = Vec::new();
    for i in 0..3 {
        let name = format!("node{i:02}");
        let server = IoServer::start(ServerConfig::new(
            name.clone(),
            root.join(&name),
            PerfModel::unthrottled(),
        ))
        .unwrap();
        resolver.alias(&name, &server.addr().to_string());
        servers.push(server);
    }
    let (mut dbs, mut metads, mut names) = (Vec::new(), Vec::new(), Vec::new());
    for shard in 0..shards {
        let name = format!("metad{shard}");
        let db = Arc::new(Database::in_memory());
        let config = MetadConfig::in_memory()
            .name(&name)
            .shard(shard as u32, shards as u32);
        let metad = MetaServer::start_with_db(config, db.clone()).unwrap();
        resolver.alias(&name, &metad.addr().to_string());
        dbs.push(db);
        metads.push(metad);
        names.push(name);
    }
    let fs = Dpfs::mount_sharded(names, resolver, ClientOptions::default()).unwrap();
    for server in &servers {
        fs.register_server(&ServerInfo {
            name: server.name().to_string(),
            capacity: i64::MAX,
            performance: 1,
        })
        .unwrap();
    }
    Rig {
        fs,
        _metads: metads,
        servers,
        root,
        dbs,
    }
}

fn populate(r: &Rig) {
    r.fs.mkdir("/home").unwrap();
    let mut f = r.fs.create("/home/a", &Hint::linear(64, 1024)).unwrap();
    f.write_bytes(0, &vec![1u8; 1024]).unwrap();
    f.close().unwrap();
    let shape = Shape::new(vec![16, 16]).unwrap();
    let mut f =
        r.fs.create(
            "/home/b",
            &Hint::multidim(shape.clone(), Shape::new(vec![4, 4]).unwrap(), 1),
        )
        .unwrap();
    f.write_region(&shape.full_region(), &vec![2u8; 256])
        .unwrap();
    f.close().unwrap();
}

#[test]
fn healthy_system_is_clean_offline_and_online() {
    let r = rig("clean", 1);
    populate(&r);
    let report = fsck(&r.fs, false).unwrap();
    assert!(report.clean(), "offline issues: {:?}", report.issues);
    assert_eq!(report.files_checked, 2);
    assert!(report.dirs_checked >= 2);
    let report = fsck(&r.fs, true).unwrap();
    assert!(report.clean(), "online issues: {:?}", report.issues);
    assert_eq!(report.subfiles_checked, 6);
}

/// The online audit stats the subfiles the brick lists name, not one per
/// server per copy: a one-brick file has one primary, and beside it one
/// mirror or the parity sibling.
#[test]
fn online_audit_covers_the_subfiles_the_brick_lists_name() {
    use dpfs_core::RedundancyPolicy;
    for (policy, subfiles) in [
        (RedundancyPolicy::None, 1),
        (RedundancyPolicy::Replica(2), 2),
        (RedundancyPolicy::XorParity, 2),
    ] {
        let r = rig("exact", 1);
        let mut f =
            r.fs.create("/one", &Hint::linear(64, 64).with_redundancy(policy))
                .unwrap();
        f.write_bytes(0, &[9u8; 64]).unwrap();
        f.close().unwrap();
        let report = dpfs_core::fsck::fsck_with(&r.fs, true, true).unwrap();
        assert!(report.clean(), "{policy:?}: {:?}", report.issues);
        assert_eq!(report.subfiles_checked, subfiles, "{policy:?}");
        let fixed = dpfs_core::fsck::fsck_reprotect(&r.fs).unwrap();
        assert!(fixed.fixed.is_empty() && fixed.unfixable.is_empty());
    }
}

#[test]
fn detects_orphan_distribution() {
    let r = rig("orphandist", 1);
    populate(&r);
    r.db()
        .execute("INSERT INTO dpfs_file_distribution VALUES ('x', 'node00', '/ghost', [0,1])")
        .unwrap();
    let report = fsck(&r.fs, false).unwrap();
    assert!(report
        .issues
        .iter()
        .any(|i| matches!(i, Issue::OrphanDistribution { filename, .. } if filename == "/ghost")));
}

#[test]
fn detects_missing_distribution_and_corrupt_bricklists() {
    let r = rig("corrupt", 1);
    populate(&r);
    let db = r.db();
    // nuke /home/a's distribution entirely
    db.execute("DELETE FROM dpfs_file_distribution WHERE filename = '/home/a'")
        .unwrap();
    // corrupt /home/b's brick lists: duplicate brick 0 on node01
    db.execute("UPDATE dpfs_file_distribution SET bricklist = append(bricklist, 0) WHERE filename = '/home/b' AND server = 'node01'")
        .unwrap();
    let report = fsck(&r.fs, false).unwrap();
    assert!(report
        .issues
        .iter()
        .any(|i| matches!(i, Issue::MissingDistribution { filename } if filename == "/home/a")));
    assert!(report
        .issues
        .iter()
        .any(|i| matches!(i, Issue::CorruptBricklists { filename, .. } if filename == "/home/b")));
}

#[test]
fn detects_directory_anomalies() {
    let r = rig("dirs", 1);
    populate(&r);
    let db = r.db();
    // dangling file entry in /home
    db.execute("INSERT INTO dpfs_dirent VALUES ('/home/ghost', '/home', 'file')")
        .unwrap();
    // unreachable directory row
    db.execute("INSERT INTO dpfs_directory VALUES ('/island', '', '')")
        .unwrap();
    // file attr not listed anywhere: remove /home/a from its dir
    db.execute("DELETE FROM dpfs_dirent WHERE path = '/home/a'")
        .unwrap();
    let report = fsck(&r.fs, false).unwrap();
    assert!(report
        .issues
        .iter()
        .any(|i| matches!(i, Issue::DanglingDirEntry { name, .. } if name == "/home/ghost")));
    assert!(report
        .issues
        .iter()
        .any(|i| matches!(i, Issue::OrphanDirectory { dir } if dir == "/island")));
    assert!(report
        .issues
        .iter()
        .any(|i| matches!(i, Issue::UnlistedFile { filename } if filename == "/home/a")));
}

#[test]
fn detects_unknown_server() {
    let r = rig("unknown", 1);
    populate(&r);
    Catalog::new(r.dbs[0].clone())
        .unwrap()
        .remove_server("node02")
        .unwrap();
    // /home/a and /home/b both stripe over node02
    let report = fsck(&r.fs, false).unwrap();
    assert!(report
        .issues
        .iter()
        .any(|i| matches!(i, Issue::UnknownServer { server, .. } if server == "node02")));
}

#[test]
fn online_detects_missing_subfile_and_dead_server() {
    let mut r = rig("online", 1);
    populate(&r);
    // delete /home/a's subfile behind DPFS's back on node00
    let id = r.fs.meta().open_file("/home/a").unwrap().unwrap().id;
    let subfile = dpfs_core::primary_subfile(id);
    std::fs::remove_file(r.root.join("node00").join(subfile)).unwrap();
    // non-strict online mode does not flag it (could be sparse)...
    let report = fsck(&r.fs, true).unwrap();
    assert!(report.clean(), "non-strict: {:?}", report.issues);
    // ...strict mode does
    let report = dpfs_core::fsck::fsck_with(&r.fs, true, true).unwrap();
    assert!(
        report.issues.iter().any(|i| matches!(
            i,
            Issue::SubfileMissing { filename, server } if filename == "/home/a" && server == "node00"
        )),
        "issues: {:?}",
        report.issues
    );
    // kill a server: unreachable
    r.servers[1].stop();
    let report = fsck(&r.fs, true).unwrap();
    assert!(report
        .issues
        .iter()
        .any(|i| matches!(i, Issue::ServerUnreachable { server } if server == "node01")));
}

#[test]
fn repair_fixes_safe_issues() {
    use dpfs_core::fsck::fsck_repair;
    let r = rig("repair", 1);
    populate(&r);
    let db = r.db();
    // orphan distribution row
    db.execute("INSERT INTO dpfs_file_distribution VALUES ('x', 'node00', '/ghost', [0])")
        .unwrap();
    // dangling dir entry
    db.execute("INSERT INTO dpfs_dirent VALUES ('/home/phantom', '/home', 'file')")
        .unwrap();
    // unlisted file: unlink /home/a from /home
    db.execute("DELETE FROM dpfs_dirent WHERE path = '/home/a'")
        .unwrap();
    // orphan directory with an existing parent
    db.execute("INSERT INTO dpfs_directory VALUES ('/home/lost', '', '')")
        .unwrap();

    let before = fsck(&r.fs, false).unwrap();
    assert!(!before.clean());

    let (after, summary) = fsck_repair(&r.fs).unwrap();
    assert!(after.clean(), "post-repair issues: {:?}", after.issues);
    assert!(summary.fixed.len() >= 4, "fixed: {:?}", summary.fixed);
    assert!(
        summary.unfixable.is_empty(),
        "unfixable: {:?}",
        summary.unfixable
    );

    // the filesystem is actually usable again
    let (_, files) = r.fs.readdir("/home").unwrap();
    assert!(files.contains(&"a".to_string()));
    assert!(!files.contains(&"phantom".to_string()));
    assert!(r.fs.dir_exists("/home/lost").unwrap());
}

#[test]
fn repair_leaves_data_issues_unfixed() {
    use dpfs_core::fsck::fsck_repair;
    let r = rig("norepair", 1);
    populate(&r);
    let db = r.db();
    db.execute("DELETE FROM dpfs_file_distribution WHERE filename = '/home/a'")
        .unwrap();
    let (after, summary) = fsck_repair(&r.fs).unwrap();
    assert!(!after.clean());
    assert!(summary
        .unfixable
        .iter()
        .any(|i| matches!(i, Issue::MissingDistribution { filename } if filename == "/home/a")));
}

/// One corruption of each kind the catalog can show, injected through the
/// database of the shard that holds the files: a one-shard and a two-shard
/// plane report the very same issues, and the repair leaves both with the
/// same unfixable remainder.
#[test]
fn both_mounts_report_the_same_issues_for_the_same_corruption() {
    let corrupt = |db: &Database| {
        for sql in [
            "INSERT INTO dpfs_file_distribution VALUES ('x', 'node00', '/ghost', [0])",
            "DELETE FROM dpfs_file_distribution WHERE filename = '/home/a'",
            "UPDATE dpfs_file_attr SET filelevel = 'cubic' WHERE filename = '/home/b'",
            "DELETE FROM dpfs_dirent WHERE parent = '/home' AND kind = 'file'",
            "INSERT INTO dpfs_dirent VALUES ('/home/phantom', '/home', 'file')",
            "INSERT INTO dpfs_directory VALUES ('/island', '', '')",
            "INSERT INTO dpfs_dirent VALUES ('/void', '/', 'dir')",
        ] {
            db.execute(sql).unwrap();
        }
    };
    let mut seen = Vec::new();
    for shards in [1, 2] {
        let r = rig("same", shards);
        populate(&r);
        corrupt(r.db());
        let report = fsck(&r.fs, true).unwrap();
        let (after, summary) = dpfs_core::fsck::fsck_repair(&r.fs).unwrap();
        seen.push((report.issues, summary.fixed, after.issues));
    }
    let (issues, fixed, left) = &seen[0];
    assert_eq!(issues.len(), 8, "{issues:?}");
    assert_eq!(fixed.len(), 6, "{fixed:?}");
    // What repair may not touch: the missing distribution, the bad level.
    assert_eq!(left.len(), 2, "{left:?}");
    assert_eq!(seen[0], seen[1], "one shard vs two");
}
