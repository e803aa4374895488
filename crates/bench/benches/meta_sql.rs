//! Microbenchmarks: the embedded SQL metadata engine.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpfs_meta::{Catalog, Database, Distribution, FileAttrRow};

fn attr(name: &str) -> FileAttrRow {
    FileAttrRow {
        filename: name.to_string(),
        owner: "bench".into(),
        permission: 0o644,
        size: 8192,
        filelevel: "linear".into(),
        dims: 0,
        dimsize: vec![],
        stripe_dims: vec![],
        stripe_size: 4096,
        pattern: String::new(),
        placement: "round_robin".into(),
        redundancy: String::new(),
    }
}

fn dist(name: &str) -> Vec<Distribution> {
    (0..4)
        .map(|i| Distribution {
            server: format!("ion{i:02}"),
            filename: name.to_string(),
            bricklist: vec![i, i + 4],
        })
        .collect()
}

/// An in-memory catalog of `files` files, 64 to a directory, each striped
/// over four servers (the benchmark's `meta_churn` shape).
fn catalog_of(files: usize) -> Catalog {
    let c = Catalog::new(Arc::new(Database::in_memory())).unwrap();
    for d in 0..files / 64 {
        c.mkdir(&format!("/d{d}")).unwrap();
    }
    for k in 0..files {
        let name = format!("/d{}/f{k}", k / 64);
        c.create_file(&attr(&name), &dist(&name)).unwrap();
    }
    c
}

/// The catalog calls behind `stat`, `create` + `unlink` and `rename`. The
/// `get_attr` pair shows the cost is flat in the number of files.
fn bench_catalog(c: &mut Criterion) {
    for (row, files) in [("get_attr_512", 512), ("get_attr_16k", 16_384)] {
        let catalog = catalog_of(files);
        let name = format!("/d{}/f{}", files / 128, files / 2);
        c.bench_function(row, |b| {
            b.iter(|| catalog.get_file_attr(black_box(&name)).unwrap().is_some())
        });
    }
    let catalog = catalog_of(512);
    c.bench_function("create_delete_512", |b| {
        let (attr, dist) = (attr("/d1/probe"), dist("/d1/probe"));
        b.iter(|| {
            catalog.create_file(&attr, &dist).unwrap();
            catalog.delete_file("/d1/probe").unwrap().1.len()
        })
    });
    c.bench_function("rename_512", |b| {
        let mut names = ("/d0/f0", "/d1/moved");
        b.iter(|| {
            catalog.rename_file(names.0, names.1).unwrap();
            names = (names.1, names.0);
        })
    });
}

fn bench_sql(c: &mut Criterion) {
    c.bench_function("sql_insert_row", |b| {
        let db = Database::in_memory();
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v TEXT, l INTLIST)")
            .unwrap();
        let mut k = 0i64;
        b.iter(|| {
            k += 1;
            db.execute(&format!("INSERT INTO t VALUES ({k}, 'value', [1,2,3])"))
                .unwrap()
        })
    });

    c.bench_function("sql_select_filtered_1k_rows", |b| {
        let db = Database::in_memory();
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
            .unwrap();
        for k in 0..1000 {
            db.execute(&format!("INSERT INTO t VALUES ({k}, {})", k % 17))
                .unwrap();
        }
        b.iter(|| {
            db.execute(black_box(
                "SELECT k FROM t WHERE v = 3 ORDER BY k DESC LIMIT 10",
            ))
            .unwrap()
            .rows
            .len()
        })
    });

    c.bench_function("sql_transaction_update", |b| {
        let db = Database::in_memory();
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
            .unwrap();
        for k in 0..100 {
            db.execute(&format!("INSERT INTO t VALUES ({k}, 0)"))
                .unwrap();
        }
        b.iter(|| {
            db.transaction(|txn| {
                txn.execute("UPDATE t SET v = v + 1 WHERE k < 50")?;
                Ok(())
            })
            .unwrap()
        })
    });
}

criterion_group!(benches, bench_sql, bench_catalog);
criterion_main!(benches);
