//! Subfile store: the server-local files that hold a server's bricks.
//!
//! DPFS is "built on top of the local file system of each storage resource"
//! (paper §2, footnote 1): the bricks a server owns are packed densely into
//! one local file per DPFS file — the *subfile* — and the server performs
//! plain file I/O against it, inheriting the local file system's caching and
//! prefetching.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

/// One subfile's open-handle slot: `None` until first use and after
/// `delete` or `rename` closes the descriptor.
type HandleSlot = Arc<RwLock<Option<File>>>;

/// How a request holds its subfile's slot across its local I/O.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Access {
    /// Reads: shared once the handle is open; the subfile must exist.
    Shared,
    /// Exclusive; the subfile must exist.
    Exclusive,
    /// Exclusive; the subfile is created if absent.
    Create,
}

/// Store rooted at a local directory; subfile names (DPFS paths) map to
/// files under the root.
///
/// Locking is per subfile: the store-wide map lock is held only to look up
/// (or insert) a subfile's handle slot, and the slot's own reader-writer
/// lock is held across the local I/O. Requests for *different* subfiles
/// proceed in parallel, and so do *reads* of one subfile (`pread` needs
/// only `&File`): they share the slot for their whole range list. Writes,
/// `truncate`, `delete`, `rename`, `sync` and the lazy open take it
/// exclusively, so `delete`, `rename` and `truncate` never interleave with
/// a half-done range list.
/// The I/O itself is positional (`pread`/`pwrite`): one syscall per range,
/// no seek.
pub struct SubfileStore {
    root: PathBuf,
    /// Open-handle cache: repeated brick requests hit the same descriptor.
    handles: Mutex<HashMap<String, HandleSlot>>,
    /// Optional capacity cap in bytes (0 = unlimited); enforced on writes.
    capacity: u64,
    /// Lazy opens of subfiles that already existed on disk. Near zero in
    /// steady state (handles stay cached); after a server restart every
    /// surviving subfile is re-opened on demand and counted here, which is
    /// how recovery shows up in the server's stats.
    reopened: AtomicU64,
}

/// Errors from local subfile I/O.
#[derive(Debug)]
pub enum StoreError {
    /// Subfile does not exist (reads/stat of absent files).
    NotFound,
    /// Capacity cap would be exceeded.
    NoSpace { capacity: u64, needed: u64 },
    /// Underlying local-FS failure.
    Io(std::io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound => write!(f, "subfile not found"),
            StoreError::NoSpace { capacity, needed } => {
                write!(f, "capacity {capacity} exceeded (needed {needed})")
            }
            StoreError::Io(e) => write!(f, "subfile io error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Map a DPFS subfile name to a safe single-component local file name.
/// `/home/xhshen/dpfs.test` → `%shome%sxhshen%sdpfs.test`.
///
/// The encoding must be injective or distinct DPFS files share one local
/// subfile and silently overwrite each other. `%` is the escape character
/// (`%%` = literal `%`, `%s` = `/`); every `%` in the output is followed by
/// a discriminator, so decoding is unambiguous, and no characters are
/// trimmed (trimming made `/x` and `x` collide).
fn local_name(subfile: &str) -> String {
    let mut out = String::with_capacity(subfile.len());
    for c in subfile.chars() {
        match c {
            '%' => out.push_str("%%"),
            '/' => out.push_str("%s"),
            c => out.push(c),
        }
    }
    out
}

impl SubfileStore {
    /// Open a store rooted at `root` (created if absent) with a capacity cap
    /// in bytes (0 = unlimited).
    pub fn open(root: &Path, capacity: u64) -> Result<Self, StoreError> {
        std::fs::create_dir_all(root)?;
        Ok(SubfileStore {
            root: root.to_path_buf(),
            handles: Mutex::new(HashMap::new()),
            capacity,
            reopened: AtomicU64::new(0),
        })
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of lazy opens that found the subfile already on disk (i.e.
    /// re-opens of surviving data, typically after a restart).
    pub fn reopened(&self) -> u64 {
        self.reopened.load(Ordering::Relaxed)
    }

    fn path_of(&self, subfile: &str) -> PathBuf {
        self.root.join(local_name(subfile))
    }

    /// The handle slot for `subfile`, created empty on first sight. Holds
    /// the store-wide map lock only for the lookup/insert.
    fn slot(&self, subfile: &str) -> HandleSlot {
        let mut handles = self.handles.lock();
        if let Some(slot) = handles.get(subfile) {
            return slot.clone();
        }
        let slot = HandleSlot::default();
        handles.insert(subfile.to_string(), slot.clone());
        slot
    }

    fn with_file<T>(
        &self,
        subfile: &str,
        access: Access,
        f: impl FnOnce(&File) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let slot = self.slot(subfile);
        if access == Access::Shared {
            if let Some(file) = slot.read().as_ref() {
                return f(file);
            }
        }
        let mut handle = slot.write();
        if handle.is_none() {
            let path = self.path_of(subfile);
            let existed = path.exists();
            let file = if access == Access::Create {
                OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(&path)?
            } else {
                match OpenOptions::new().read(true).write(true).open(&path) {
                    Ok(f) => f,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        return Err(StoreError::NotFound)
                    }
                    Err(e) => return Err(e.into()),
                }
            };
            if existed {
                self.reopened.fetch_add(1, Ordering::Relaxed);
            }
            *handle = Some(file);
        }
        f(handle.as_ref().expect("just opened"))
    }

    /// Write scatter/gather ranges; creates the subfile if needed.
    /// Returns total bytes written.
    pub fn write_ranges(&self, subfile: &str, ranges: &[(u64, Bytes)]) -> Result<u64, StoreError> {
        let total: u64 = ranges.iter().map(|(_, d)| d.len() as u64).sum();
        if self.capacity > 0 {
            let end = ranges
                .iter()
                .map(|(off, d)| off + d.len() as u64)
                .max()
                .unwrap_or(0);
            if end > self.capacity {
                return Err(StoreError::NoSpace {
                    capacity: self.capacity,
                    needed: end,
                });
            }
        }
        self.with_file(subfile, Access::Create, |file| {
            for (off, data) in ranges {
                file.write_all_at(data, *off)?;
            }
            Ok(total)
        })
    }

    /// Read scatter/gather ranges. Ranges past EOF come back zero-filled
    /// (sparse-file semantics, same as reading a hole).
    pub fn read_ranges(
        &self,
        subfile: &str,
        ranges: &[(u64, u64)],
    ) -> Result<Vec<Bytes>, StoreError> {
        self.with_file(subfile, Access::Shared, |file| {
            let size = file.metadata()?.len();
            let mut out = Vec::with_capacity(ranges.len());
            for &(off, len) in ranges {
                let mut buf = vec![0u8; len as usize];
                if off < size {
                    let avail = ((size - off) as usize).min(len as usize);
                    file.read_exact_at(&mut buf[..avail], off)?;
                }
                out.push(Bytes::from(buf));
            }
            Ok(out)
        })
    }

    /// Read scatter/gather ranges into **one** coalesced buffer, in range
    /// order — the reply shape of server-side list I/O. Ranges past EOF
    /// come back zero-filled, like [`SubfileStore::read_ranges`], but the
    /// result carries no per-chunk framing: one allocation, one payload.
    pub fn read_ranges_coalesced(
        &self,
        subfile: &str,
        ranges: &[(u64, u64)],
    ) -> Result<Bytes, StoreError> {
        let total: usize = ranges.iter().map(|&(_, len)| len as usize).sum();
        self.with_file(subfile, Access::Shared, |file| {
            let size = file.metadata()?.len();
            let mut buf = vec![0u8; total];
            let mut at = 0usize;
            for &(off, len) in ranges {
                let dst = &mut buf[at..at + len as usize];
                if off < size {
                    let avail = ((size - off) as usize).min(len as usize);
                    file.read_exact_at(&mut dst[..avail], off)?;
                }
                at += len as usize;
            }
            Ok(Bytes::from(buf))
        })
    }

    /// Delete the subfile; returns whether it existed.
    pub fn delete(&self, subfile: &str) -> Result<bool, StoreError> {
        // Hold the slot exclusively from closing the descriptor to the end
        // of the unlink: in-flight I/O is waited out, and a request that
        // looks the name up meanwhile queues on this slot and reopens the
        // *path* afterwards — it can never keep a descriptor to the
        // unlinked inode.
        let slot = self.slot(subfile);
        let mut handle = slot.write();
        *handle = None;
        let removed = match std::fs::remove_file(self.path_of(subfile)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        };
        self.forget(subfile, &slot);
        removed
    }

    /// Drop `subfile`'s map entry — called with `slot` still held
    /// exclusively, its descriptor closed — unless somebody queued on it
    /// meanwhile (clones are only handed out under the map lock, so 2 =
    /// the map's and the caller's): they keep the one slot per name, and a
    /// later delete or rename forgets it.
    fn forget(&self, subfile: &str, slot: &HandleSlot) {
        let mut handles = self.handles.lock();
        if Arc::strong_count(slot) == 2 {
            handles.remove(subfile);
        }
    }

    /// Rename the subfile `from` to `to`, replacing whatever `to` named;
    /// returns whether `from` existed (an absent one creates nothing).
    pub fn rename(&self, from: &str, to: &str) -> Result<bool, StoreError> {
        if from == to {
            return Ok(self.stat(from)?.0);
        }
        // `delete`'s discipline, on both names: each slot is held
        // exclusively from closing its descriptor to the end of the
        // rename, so no cached descriptor outlives the inode it named and
        // whoever queued meanwhile reopens the *path* afterwards. The
        // slots are taken in name order, so `rename(a, b)` and
        // `rename(b, a)` cannot each hold the one the other waits for.
        let (from_slot, to_slot) = (self.slot(from), self.slot(to));
        let (first, second) = if from < to {
            (&from_slot, &to_slot)
        } else {
            (&to_slot, &from_slot)
        };
        let (mut first, mut second) = (first.write(), second.write());
        (*first, *second) = (None, None);
        let renamed = match std::fs::rename(self.path_of(from), self.path_of(to)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        };
        self.forget(from, &from_slot);
        self.forget(to, &to_slot);
        renamed
    }

    /// Stat the subfile: `(exists, size)`.
    pub fn stat(&self, subfile: &str) -> Result<(bool, u64), StoreError> {
        match std::fs::metadata(self.path_of(subfile)) {
            Ok(m) => Ok((true, m.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok((false, 0)),
            Err(e) => Err(e.into()),
        }
    }

    /// Truncate or extend the subfile to `size` bytes (creating it if
    /// absent).
    pub fn truncate(&self, subfile: &str, size: u64) -> Result<(), StoreError> {
        self.with_file(subfile, Access::Create, |file| {
            file.set_len(size)?;
            Ok(())
        })
    }

    /// Flush a subfile's data to stable storage.
    pub fn sync(&self, subfile: &str) -> Result<(), StoreError> {
        self.with_file(subfile, Access::Exclusive, |file| {
            file.sync_data()?;
            Ok(())
        })
    }

    /// Total bytes across all subfiles in the store.
    pub fn used_bytes(&self) -> Result<u64, StoreError> {
        let mut total = 0;
        for entry in std::fs::read_dir(&self.root)? {
            total += entry?.metadata()?.len();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> (SubfileStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "dpfs-subfile-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (SubfileStore::open(&dir, 0).unwrap(), dir)
    }

    #[test]
    fn local_name_escaping() {
        assert_eq!(local_name("/home/x/f"), "%shome%sx%sf");
        assert_eq!(local_name("/a%b/c"), "%sa%%b%sc");
        assert_eq!(local_name("plain"), "plain");
    }

    #[test]
    fn local_name_is_injective_on_tricky_pairs() {
        // Regression: the old encoding mapped '/' to a bare '%' and trimmed
        // leading escapes, so each of these pairs collided on disk.
        for (a, b) in [
            ("/a/b", "a/b"),
            ("/x", "%x"),
            ("/x", "x"),
            ("%/x", "/%x"),
            ("/a/b", "/a%b"),
        ] {
            assert_ne!(local_name(a), local_name(b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn absolute_and_relative_subfiles_do_not_collide() {
        let (s, dir) = store();
        s.write_ranges("/a/b", &[(0, Bytes::from_static(b"abs"))])
            .unwrap();
        s.write_ranges("a/b", &[(0, Bytes::from_static(b"rel"))])
            .unwrap();
        s.write_ranges("/x", &[(0, Bytes::from_static(b"sla"))])
            .unwrap();
        s.write_ranges("%x", &[(0, Bytes::from_static(b"pct"))])
            .unwrap();
        assert_eq!(&s.read_ranges("/a/b", &[(0, 3)]).unwrap()[0][..], b"abs");
        assert_eq!(&s.read_ranges("a/b", &[(0, 3)]).unwrap()[0][..], b"rel");
        assert_eq!(&s.read_ranges("/x", &[(0, 3)]).unwrap()[0][..], b"sla");
        assert_eq!(&s.read_ranges("%x", &[(0, 3)]).unwrap()[0][..], b"pct");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn concurrent_distinct_subfiles_make_progress() {
        let (s, dir) = store();
        std::thread::scope(|scope| {
            for i in 0..8u8 {
                let s = &s;
                scope.spawn(move || {
                    let name = format!("/par/{i}");
                    for round in 0..16u8 {
                        let payload = Bytes::from(vec![i ^ round; 64]);
                        s.write_ranges(&name, &[(0, payload.clone())]).unwrap();
                        let back = s.read_ranges(&name, &[(0, 64)]).unwrap();
                        assert_eq!(&back[0][..], &payload[..]);
                    }
                });
            }
        });
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn write_read_round_trip() {
        let (s, dir) = store();
        s.write_ranges(
            "/f",
            &[
                (0, Bytes::from_static(b"hello")),
                (10, Bytes::from_static(b"world")),
            ],
        )
        .unwrap();
        let out = s.read_ranges("/f", &[(0, 5), (10, 5)]).unwrap();
        assert_eq!(&out[0][..], b"hello");
        assert_eq!(&out[1][..], b"world");
        // the gap reads as zeros
        let gap = s.read_ranges("/f", &[(5, 5)]).unwrap();
        assert_eq!(&gap[0][..], &[0u8; 5]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn read_past_eof_zero_fills() {
        let (s, dir) = store();
        s.write_ranges("/f", &[(0, Bytes::from_static(b"abc"))])
            .unwrap();
        let out = s.read_ranges("/f", &[(1, 10)]).unwrap();
        assert_eq!(&out[0][..2], b"bc");
        assert_eq!(&out[0][2..], &[0u8; 8]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn read_missing_subfile_is_not_found() {
        let (s, dir) = store();
        assert!(matches!(
            s.read_ranges("/nope", &[(0, 1)]),
            Err(StoreError::NotFound)
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn delete_and_stat() {
        let (s, dir) = store();
        assert_eq!(s.stat("/f").unwrap(), (false, 0));
        s.write_ranges("/f", &[(0, Bytes::from_static(b"12345678"))])
            .unwrap();
        assert_eq!(s.stat("/f").unwrap(), (true, 8));
        assert!(s.delete("/f").unwrap());
        assert!(!s.delete("/f").unwrap());
        assert_eq!(s.stat("/f").unwrap(), (false, 0));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn capacity_enforced() {
        let dir = std::env::temp_dir().join(format!("dpfs-subfile-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = SubfileStore::open(&dir, 100).unwrap();
        assert!(s
            .write_ranges("/f", &[(0, Bytes::from(vec![1u8; 100]))])
            .is_ok());
        assert!(matches!(
            s.write_ranges("/f", &[(50, Bytes::from(vec![1u8; 100]))]),
            Err(StoreError::NoSpace { .. })
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn truncate_extends_and_shrinks() {
        let (s, dir) = store();
        s.truncate("/f", 100).unwrap();
        assert_eq!(s.stat("/f").unwrap(), (true, 100));
        s.truncate("/f", 10).unwrap();
        assert_eq!(s.stat("/f").unwrap(), (true, 10));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn used_bytes_sums_subfiles() {
        let (s, dir) = store();
        s.write_ranges("/a", &[(0, Bytes::from(vec![1u8; 10]))])
            .unwrap();
        s.write_ranges("/b", &[(0, Bytes::from(vec![1u8; 20]))])
            .unwrap();
        assert_eq!(s.used_bytes().unwrap(), 30);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn distinct_subfiles_do_not_collide() {
        let (s, dir) = store();
        s.write_ranges("/a/b", &[(0, Bytes::from_static(b"one"))])
            .unwrap();
        s.write_ranges("/a%b", &[(0, Bytes::from_static(b"two"))])
            .unwrap();
        let one = s.read_ranges("/a/b", &[(0, 3)]).unwrap();
        let two = s.read_ranges("/a%b", &[(0, 3)]).unwrap();
        assert_eq!(&one[0][..], b"one");
        assert_eq!(&two[0][..], b"two");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn readers_share_a_subfile_and_delete_waits_for_them() {
        use std::sync::mpsc;
        use std::time::Duration;

        let (s, dir) = store();
        let s = Arc::new(s);
        s.write_ranges("/f", &[(0, Bytes::from_static(b"abcdefgh"))])
            .unwrap();
        s.read_ranges("/f", &[(0, 1)]).unwrap(); // the handle is open now
        let slot = s.slot("/f");
        let reading = slot.read();

        // A second reader gets through while the first still holds the slot
        // (with an exclusive slot it would wait for `reading` forever).
        let (tx, rx) = mpsc::channel();
        let reader = {
            let s = s.clone();
            std::thread::spawn(move || {
                let got = s.read_ranges_coalesced("/f", &[(0, 4), (4, 4)]).unwrap();
                tx.send(got).unwrap();
            })
        };
        let got = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a read of /f waited for another reader of /f");
        assert_eq!(&got[..], b"abcdefgh");
        reader.join().unwrap();

        // `delete` does not: it completes only once the reader lets go.
        let (tx, rx) = mpsc::channel();
        let deleter = {
            let s = s.clone();
            std::thread::spawn(move || tx.send(s.delete("/f").unwrap()).unwrap())
        };
        assert!(
            rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "delete went ahead under a reader's half-done range list"
        );
        drop(reading);
        assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap());
        deleter.join().unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A write that looks the name up while `delete` is between closing
    /// the descriptor and unlinking must not end up holding the doomed
    /// inode: whatever order the two finish in, the name is either a file
    /// with the writer's bytes or absent — and then the next write creates
    /// a file `stat` can see.
    #[test]
    fn a_write_racing_a_delete_never_lands_on_the_unlinked_inode() {
        use std::sync::mpsc;
        use std::time::Duration;

        let (s, dir) = store();
        let s = &s;
        s.write_ranges("/f", &[(0, Bytes::from_static(b"old bytes"))])
            .unwrap();
        // Holding the slot shared parks the deleter inside `delete`, after
        // its lookup and before its unlink.
        let slot = s.slot("/f");
        let reading = slot.read();
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            let deleter = scope.spawn(move || tx.send(s.delete("/f").unwrap()).unwrap());
            assert!(
                rx.recv_timeout(Duration::from_millis(200)).is_err(),
                "delete went ahead under a reader"
            );
            let writer = scope.spawn(|| {
                s.write_ranges("/f", &[(0, Bytes::from_static(b"new"))])
                    .unwrap()
            });
            drop(reading);
            assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap());
            deleter.join().unwrap();
            assert_eq!(writer.join().unwrap(), 3);
        });
        match s.stat("/f").unwrap() {
            (true, size) => {
                // the write came second: a fresh file holding exactly it
                assert_eq!(size, 3);
                assert_eq!(&s.read_ranges("/f", &[(0, 3)]).unwrap()[0][..], b"new");
            }
            (false, _) => assert!(matches!(
                s.read_ranges("/f", &[(0, 3)]),
                Err(StoreError::NotFound)
            )),
        }
        s.write_ranges("/f", &[(0, Bytes::from_static(b"after"))])
            .unwrap();
        assert_eq!(
            s.stat("/f").unwrap(),
            (true, 5),
            "a write after the delete went to an unlinked inode"
        );
        assert_eq!(&s.read_ranges("/f", &[(0, 5)]).unwrap()[0][..], b"after");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rename_moves_the_inode_and_replaces_the_destination() {
        let (s, dir) = store();
        s.write_ranges("/a", &[(0, Bytes::from_static(b"short"))])
            .unwrap();
        s.write_ranges("/b", &[(0, Bytes::from_static(b"a longer leftover"))])
            .unwrap();
        assert!(s.rename("/a", "/b").unwrap());
        assert_eq!(s.stat("/a").unwrap(), (false, 0));
        assert_eq!(s.stat("/b").unwrap(), (true, 5));
        assert_eq!(&s.read_ranges("/b", &[(0, 5)]).unwrap()[0][..], b"short");
        // Both cached descriptors went with the rename: a write to the old
        // name creates a new file instead of reaching the moved inode.
        s.write_ranges("/a", &[(0, Bytes::from_static(b"new"))])
            .unwrap();
        assert_eq!(s.stat("/a").unwrap(), (true, 3));
        assert_eq!(&s.read_ranges("/b", &[(0, 5)]).unwrap()[0][..], b"short");
        assert!(s.rename("/a", "/a").unwrap(), "a name renamed to itself");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rename_of_an_absent_subfile_creates_nothing() {
        let (s, dir) = store();
        assert!(!s.rename("/nope", "/other").unwrap());
        assert!(!s.rename("/nope", "/nope").unwrap());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        assert!(s.handles.lock().is_empty(), "slots of absent names leaked");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rename_keeps_hostile_names_inside_the_root() {
        let (s, dir) = store();
        let names = ["/a%b/c", "/a/b%c", "/../x", "..%s..%sy", "/p/../q"];
        for (i, pair) in names.windows(2).enumerate() {
            s.write_ranges(pair[0], &[(0, Bytes::from(vec![i as u8; 4]))])
                .unwrap();
            assert!(s.rename(pair[0], pair[1]).unwrap());
            assert_eq!(s.stat(pair[0]).unwrap(), (false, 0));
            assert_eq!(s.stat(pair[1]).unwrap(), (true, 4));
            let on_disk: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            assert_eq!(on_disk, [local_name(pair[1])]);
            s.delete(pair[1]).unwrap();
        }
        // `..` itself is the one name that is a path: the root's parent is a
        // directory, so neither direction can move anything.
        s.write_ranges("/f", &[(0, Bytes::from_static(b"kept"))])
            .unwrap();
        assert!(s.rename("/f", "..").is_err());
        assert!(s.rename("..", "/g").is_err());
        assert_eq!(s.stat("/f").unwrap(), (true, 4));
        assert_eq!(s.stat("/g").unwrap(), (false, 0));
        assert!(dir.is_dir());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn opposite_renames_do_not_deadlock() {
        let (s, dir) = store();
        let s = &s;
        s.write_ranges("/a", &[(0, Bytes::from_static(b"a"))])
            .unwrap();
        s.write_ranges("/b", &[(0, Bytes::from_static(b"b"))])
            .unwrap();
        std::thread::scope(|scope| {
            for (from, to) in [("/a", "/b"), ("/b", "/a")] {
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.rename(from, to).unwrap();
                    }
                });
            }
        });
        // Every rename consumed one name, so exactly one file is left.
        let left = s.stat("/a").unwrap().0 as u8 + s.stat("/b").unwrap().0 as u8;
        assert_eq!(left, 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A write that looks the source name up while `rename` is between
    /// closing the descriptors and moving the inode must not end up holding
    /// a descriptor the name no longer reaches: whatever order the two
    /// finish in, the writer's bytes are readable under exactly one name.
    #[test]
    fn a_write_racing_a_rename_lands_under_exactly_one_name() {
        use std::sync::mpsc;
        use std::time::Duration;

        let (s, dir) = store();
        let s = &s;
        s.write_ranges("/from", &[(0, Bytes::from_static(b"old bytes"))])
            .unwrap();
        // Holding the source slot shared parks the renamer inside `rename`,
        // after its lookups and before the move.
        let slot = s.slot("/from");
        let reading = slot.read();
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            let renamer = scope.spawn(move || tx.send(s.rename("/from", "/to").unwrap()).unwrap());
            assert!(
                rx.recv_timeout(Duration::from_millis(200)).is_err(),
                "rename went ahead under a reader"
            );
            let writer = scope.spawn(|| {
                s.write_ranges("/from", &[(0, Bytes::from_static(b"NEW"))])
                    .unwrap()
            });
            drop(reading);
            assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap());
            renamer.join().unwrap();
            assert_eq!(writer.join().unwrap(), 3);
        });
        let head = |name: &str| match s.read_ranges(name, &[(0, 3)]) {
            Ok(chunks) => Some(chunks[0].to_vec()),
            Err(StoreError::NotFound) => None,
            Err(e) => panic!("{e}"),
        };
        match (head("/from"), head("/to")) {
            // the write came first and moved with the inode
            (None, Some(to)) => {
                assert_eq!(to, b"NEW");
                assert_eq!(s.stat("/to").unwrap(), (true, 9));
            }
            // the write came second: a fresh file under the old name
            (Some(from), Some(to)) => {
                assert_eq!((&from[..], &to[..]), (&b"NEW"[..], &b"old"[..]));
                assert_eq!(s.stat("/from").unwrap(), (true, 3));
            }
            other => panic!("the writer's bytes are under no name: {other:?}"),
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn concurrent_readers_never_see_a_torn_range_list() {
        use std::sync::Barrier;

        const READERS: usize = 4;
        const RANGES: u64 = 64;
        let (s, dir) = store();
        let ranges: Vec<(u64, u64)> = (0..RANGES).map(|i| (i * 512, 512)).collect();
        let data = Bytes::from(vec![0xA5u8; (RANGES * 512) as usize]);
        // Each round: readers and one truncate-then-delete race from a
        // barrier; the file is rewritten while everyone waits at the next.
        let round = Barrier::new(READERS + 2);
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    for _ in 0..32 {
                        round.wait();
                        for _ in 0..8 {
                            match s.read_ranges_coalesced("/f", &ranges) {
                                Ok(got) => assert!(
                                    got == data || got.iter().all(|&b| b == 0),
                                    "torn read: truncate/delete ran inside a range list"
                                ),
                                Err(StoreError::NotFound) => {}
                                Err(e) => panic!("{e}"),
                            }
                        }
                        round.wait();
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..32 {
                    round.wait();
                    s.truncate("/f", 0).unwrap();
                    s.delete("/f").unwrap();
                    round.wait();
                }
            });
            for _ in 0..32 {
                s.write_ranges("/f", &[(0, data.clone())]).unwrap();
                round.wait();
                round.wait();
            }
        });
        std::fs::remove_dir_all(dir).unwrap();
    }
}
