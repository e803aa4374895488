//! A metadata directory written by PR 13's parent — snapshot plus WAL tail,
//! no index ever declared in it, `dpfs_meta_gen` advanced by every mutation
//! in a transaction of its own — opens under this engine as it is: the on-disk formats did
//! not change, `Catalog::new` builds the indexes the directory never had,
//! and every answer is the one the old engine scanned for.
//! `fixtures/pr13-dir/README.md` lists what was written.

use std::path::PathBuf;
use std::sync::Arc;

use dpfs_meta::{Catalog, Database, Value};

fn copy_of_fixture(tag: &str) -> PathBuf {
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr13-dir");
    let dir = std::env::temp_dir().join(format!("dpfs-meta-pr13-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for file in ["snapshot.db", "wal.log"] {
        std::fs::copy(src.join(file), dir.join(file)).unwrap();
    }
    dir
}

fn check_contents(c: &Catalog, f2_size: i64) {
    let files = |dir: &str| {
        let mut files = c.get_dir(dir).unwrap().unwrap().files;
        files.sort();
        files
    };
    assert_eq!(files("/a"), ["/a/f2", "/a/f3", "/a/f4", "/a/it's"]);
    assert_eq!(files("/b"), ["/b/g1", "/b/late"]);
    for gone in ["/a/f0", "/a/f1", "/a/f5"] {
        assert!(c.get_file_attr(gone).unwrap().is_none(), "{gone}");
        assert!(c.get_distribution(gone).unwrap().is_empty(), "{gone}");
        assert!(c.list_tags(gone).unwrap().is_empty(), "{gone}");
    }
    let attr = c.get_file_attr("/a/f2").unwrap().unwrap();
    assert_eq!((attr.size, attr.owner.as_str()), (f2_size, "o'brien"));
    assert_eq!(c.get_file_attr("/b/g1").unwrap().unwrap().size, 101);
    assert_eq!(c.get_file_attr("/a/it's").unwrap().unwrap().size, 7);
    for name in ["/a/f2", "/a/f3", "/a/f4", "/a/it's", "/b/g1", "/b/late"] {
        let dist = c.get_distribution(name).unwrap();
        let got: Vec<_> = dist
            .iter()
            .map(|d| (d.server.as_str(), d.filename.as_str(), d.bricklist.clone()))
            .collect();
        assert_eq!(got, [("s0", name, vec![0, 2]), ("s1", name, vec![1, 3])]);
    }
    assert_eq!(
        c.list_tags("/b/g1").unwrap(),
        [
            ("experiment".to_string(), "run-7".to_string()),
            ("owner-group".to_string(), "cosmology".to_string())
        ]
    );
    assert_eq!(c.get_tag("/a/f2", "experiment").unwrap().unwrap(), "run-8");
    assert_eq!(
        c.get_tag("/b/late", "experiment").unwrap().unwrap(),
        "run-9"
    );
    let hits: Vec<String> = c
        .find_by_tag("experiment", "run-%")
        .unwrap()
        .into_iter()
        .map(|(f, ..)| f)
        .collect();
    assert_eq!(hits, ["/a/f2", "/b/g1", "/b/late"]);
    assert_eq!(
        c.server_brick_counts().unwrap(),
        [("s0".to_string(), 12), ("s1".to_string(), 12)]
    );
    assert_eq!(c.get_server("s1").unwrap().unwrap().performance, 2);
}

#[test]
fn a_directory_of_the_parent_commit_opens_indexed_and_answers_the_same() {
    let dir = copy_of_fixture("open");
    let before: Vec<_> = ["snapshot.db", "wal.log"]
        .iter()
        .map(|f| std::fs::read(dir.join(f)).unwrap())
        .collect();
    let db = Arc::new(Database::open_with_sync(&dir, false).unwrap());
    let c = Catalog::new(db.clone()).unwrap();
    check_contents(&c, 4242);
    let intents = c.list_rename_intents().unwrap();
    assert_eq!(intents.len(), 1);
    assert_eq!((intents[0].id, intents[0].src.as_str()), (1, "/a/f3"));

    // The indexes exist although nothing on disk declares them...
    let path = |sql: &str| {
        let rs = db.execute(&format!("EXPLAIN {sql}")).unwrap();
        rs.scalar().unwrap().as_text().unwrap().to_string()
    };
    assert_eq!(
        path("SELECT * FROM dpfs_file_distribution WHERE filename = ?"),
        "index-eq dpfs_file_distribution.filename"
    );
    assert_eq!(
        path("DELETE FROM dpfs_file_tags WHERE filename = ?"),
        "index-eq dpfs_file_tags.filename"
    );
    // ...and opening, declaring them and reading wrote nothing.
    for (f, old) in ["snapshot.db", "wal.log"].iter().zip(&before) {
        assert_eq!(&std::fs::read(dir.join(f)).unwrap(), old, "{f} changed");
    }

    // New work lands on top. The old engine left the sequence row at 22
    // (it counted every mutation), so the next intent is 23: above every id
    // the directory ever issued. An aborted id is never issued again, across
    // a reopen by WAL replay over the old snapshot and one from a snapshot
    // this engine wrote, and other mutations do not consume one.
    let mut next_id = 23;
    let mut prepare_and_abort = |c: &Catalog| {
        let (intent, ..) = c.rename_prepare("/a/f4", "/elsewhere/f4").unwrap();
        assert_eq!(intent, next_id);
        assert!(c.rename_abort(intent).unwrap());
        next_id += 1;
    };
    prepare_and_abort(&c);
    c.set_file_size("/a/f2", 5005).unwrap();
    drop(c);
    drop(db);
    for checkpoint in [true, false] {
        let db = Arc::new(Database::open_with_sync(&dir, false).unwrap());
        let c = Catalog::new(db.clone()).unwrap();
        prepare_and_abort(&c);
        check_contents(&c, 5005);
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM dpfs_rename_intent")
                .unwrap()
                .rows[0][0],
            Value::Int(1)
        );
        if checkpoint {
            db.checkpoint().unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
