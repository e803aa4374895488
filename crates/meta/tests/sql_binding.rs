//! Parameter-binding tests: every catalog string travels beside the SQL
//! text as a bound parameter, never inside it, so a name may hold anything
//! — quotes, NUL, `?`, a statement of its own, the separator control bytes
//! of the composite keys (`\u{1}`, `\u{2}`) — and must round-trip through
//! the full file lifecycle without corrupting the `dist_key`/`tag_key`
//! composite keys or leaking into neighboring rows.
//!
//! Control characters are not a binding matter and stay out of *paths*:
//! the catalog refuses any ASCII control character in a path (a newline
//! split a directory entry in two while entries were `\n`-joined TEXT),
//! and the refusal leaves the directory as it was. Every other string (owner, server, tag, value) takes
//! them all.

use proptest::prelude::*;

use dpfs_meta::{Catalog, Database, Distribution, FileAttrRow, MetaError, ServerInfo};

/// Path segments drawn from an alphabet of troublemakers: single and double
/// quotes, the placeholder, SQL LIKE wildcards, a statement separator and
/// comment dashes, backslash, the derived-subfile marker and spaces — plus
/// plain letters so the strings stay distinguishable.
const NASTY: &str = "[ab'\"?%_;\\ #-]{1,8}";
/// What a path may not hold: NUL, the composite-key separator and escape
/// bytes, a bell, the directory-entry separator and its relatives.
const CONTROL: &str = "[\0\u{1}\u{2}\u{7}\n\r\t\u{7f}]{1}";
/// Server names, tags, owners and values: all of the above.
const NASTIER: &str = "[ab'\"?\0\u{1}\u{2}\u{7}%_;\\ \n-]{1,8}";

fn attr(name: &str, owner: &str) -> FileAttrRow {
    FileAttrRow {
        filename: name.to_string(),
        owner: owner.to_string(),
        permission: 0o644,
        size: 192,
        filelevel: "linear".into(),
        dims: 0,
        dimsize: vec![],
        stripe_dims: vec![],
        stripe_size: 64,
        pattern: String::new(),
        placement: "round_robin".into(),
        redundancy: String::new(),
    }
}

proptest! {
    #[test]
    fn hostile_names_survive_the_file_lifecycle(
        seg1 in NASTY,
        seg2 in NASTY,
        head in NASTY,
        control in CONTROL,
        tail in NASTY,
        srv in NASTIER,
        tag in NASTIER,
        value in NASTIER,
    ) {
        // Prefixes keep the two filenames (and the two tags below) distinct
        // even when the generated segments collide.
        let file1 = format!("/d/f1{seg1}");
        let file2 = format!("/d/f2{seg2}");
        let refused = format!("/d/{head}{control}{tail}");
        let server = format!("srv{srv}");
        let tag2 = format!("t2{tag}");

        let catalog = Catalog::new(std::sync::Arc::new(Database::in_memory())).unwrap();
        catalog.mkdir("/d").unwrap();
        catalog
            .register_server(&ServerInfo {
                name: server.clone(),
                capacity: i64::MAX,
                performance: 1,
            })
            .unwrap();
        prop_assert_eq!(
            catalog.get_server(&server).unwrap().map(|s| s.name),
            Some(server.clone())
        );

        // create → tag → rename → distribution, all under hostile names.
        let dist = vec![Distribution {
            server: server.clone(),
            filename: file1.clone(),
            bricklist: vec![0, 1, 2],
        }];
        catalog.create_file(&attr(&file1, &value), &dist).unwrap();
        let got = catalog.get_file_attr(&file1).unwrap().unwrap();
        prop_assert_eq!(&got.owner, &value);

        // A control character anywhere in a path is refused — as a new file,
        // as a new directory, as a rename's destination — and the directory
        // is what it was.
        let listed = catalog.get_dir("/d").unwrap();
        let invalid = |r: dpfs_meta::Result<()>| matches!(r, Err(MetaError::InvalidName(_)));
        prop_assert!(invalid(catalog.create_file(&attr(&refused, "o"), &[]).map(|_| ())));
        prop_assert!(invalid(catalog.mkdir(&refused)));
        prop_assert!(invalid(catalog.rename_file(&file1, &refused).map(|_| ())));
        prop_assert_eq!(catalog.get_dir("/d").unwrap(), listed);

        catalog.set_tag(&file1, &tag, &value).unwrap();
        catalog.set_tag(&file1, &tag2, "other").unwrap();
        prop_assert_eq!(catalog.get_tag(&file1, &tag).unwrap(), Some(value.clone()));

        catalog.rename_file(&file1, &file2).unwrap();

        // The old name is fully vacated...
        prop_assert!(catalog.get_file_attr(&file1).unwrap().is_none());
        prop_assert!(catalog.get_distribution(&file1).unwrap().is_empty());
        prop_assert_eq!(catalog.get_tag(&file1, &tag).unwrap(), None);

        // ...and the new name carries everything, bricklists intact.
        let moved = catalog.get_distribution(&file2).unwrap();
        prop_assert_eq!(moved.len(), 1);
        prop_assert_eq!(&moved[0].server, &server);
        prop_assert_eq!(&moved[0].bricklist, &vec![0, 1, 2]);
        prop_assert_eq!(catalog.get_tag(&file2, &tag).unwrap(), Some(value.clone()));
        prop_assert_eq!(
            catalog.get_tag(&file2, &tag2).unwrap(),
            Some("other".to_string())
        );

        // Tag keys stayed composite: exactly two tags, no cross-talk rows.
        let mut tags = catalog.list_tags(&file2).unwrap();
        tags.sort();
        prop_assert_eq!(tags.len(), 2);

        // Brick accounting via the dist_key'd rows still adds up.
        let counts = catalog.server_brick_counts().unwrap();
        prop_assert_eq!(counts, vec![(server.clone(), 3)]);

        // And the file deletes cleanly by its hostile name.
        catalog.delete_file(&file2).unwrap();
        prop_assert!(catalog.get_distribution(&file2).unwrap().is_empty());
        prop_assert!(catalog.list_tags(&file2).unwrap().is_empty());
        // Nothing was left behind in the directory, listed or not.
        catalog.rmdir("/d").unwrap();
    }
}

#[test]
fn a_name_that_is_sql_is_still_a_name() {
    // What used to need escaping, or broke: a quote, a placeholder, a
    // statement of its own.
    let c = Catalog::new(std::sync::Arc::new(Database::in_memory())).unwrap();
    let name = "/it's a ?'; DROP TABLE dpfs_file_attr; --";
    let file = attr(name, "o'brien\n?");
    c.create_file(&file, &[]).unwrap();
    assert_eq!(c.get_file_attr(name).unwrap().unwrap(), file);
    c.set_tag(name, "t'?", "v'\n?").unwrap();
    c.rename_file(name, "/plain").unwrap();
    assert_eq!(c.get_tag("/plain", "t'?").unwrap().unwrap(), "v'\n?");
    c.rename_file("/plain", name).unwrap();
    assert_eq!(c.get_dir("/").unwrap().unwrap().files, vec![name]);
    c.delete_file(name).unwrap();
    assert!(c.get_file_attr(name).unwrap().is_none());
    assert!(c.get_dir("/").unwrap().unwrap().files.is_empty());
}
