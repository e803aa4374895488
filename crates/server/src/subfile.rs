//! Subfile store: the server-local files that hold a server's bricks.
//!
//! DPFS is "built on top of the local file system of each storage resource"
//! (paper §2, footnote 1): the bricks a server owns are packed densely into
//! one local file per DPFS file — the *subfile* — and the server performs
//! plain file I/O against it, inheriting the local file system's caching and
//! prefetching.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::sys;

/// One subfile's open-handle slot: `None` until first use and after
/// `delete` closes the descriptor (and drops its mapping).
type HandleSlot = Arc<RwLock<Option<Handle>>>;

/// An open subfile: its descriptor and, from its first gathered read on,
/// a read-only mapping of it (`sys::read_run`). A gather holds the slot
/// shared, so two may want the mapping remade at once: each takes the
/// current one under `map`, and a replaced mapping is unmapped when the
/// last gather using it lets go.
struct Handle {
    file: File,
    map: Mutex<Option<Arc<sys::Mapping>>>,
}

impl Handle {
    /// The mapping, made if there is none or the file has outgrown it
    /// (`size`, the end of file the read was planned on). `None` if the
    /// kernel refuses to map — the run is then read — and, for a thread
    /// that must not wait (`nowait`), while another thread holds `map`.
    fn mapping(&self, size: u64, nowait: bool) -> Option<Arc<sys::Mapping>> {
        let mut map = if nowait {
            self.map.try_lock()?
        } else {
            self.map.lock()
        };
        if !map.as_ref().is_some_and(|m| m.covers(size)) {
            *map = Some(Arc::new(sys::Mapping::new(&self.file, size).ok()?));
        }
        map.clone()
    }
}

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

/// Store rooted at a local directory; subfile names (derived from DPFS file
/// ids) map to files under the root.
///
/// Locking is per subfile: the store-wide map lock is held only to look up
/// (or insert) a subfile's handle slot, and the slot's own reader-writer
/// lock is held across the local I/O. Requests for *different* subfiles
/// proceed in parallel, and so do *reads* of one subfile (`pread` needs
/// only `&File`): they share the slot for their whole range list. Writes,
/// `delete`, `sync` and the lazy open take it exclusively, so `delete`
/// never interleaves with a half-done range list,
/// and no write runs under a gather from the subfile's mapping. The I/O
/// itself is positional, with no seek: a write is one `pwrite` per range,
/// a read one vectored read per run of page-adjacent ranges, or one gather
/// from the mapping per long run with gaps.
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

/// The one range loop of both reads: one [`sys::read_run`] per run of
/// page-adjacent ranges, each appending its ranges' bytes below the end of
/// the file to the reply — read by the kernel, or gathered from the
/// subfile's mapping where the run is long and sparse — then zeros for
/// whatever the run asked for past it. Only those zeros are written by
/// hand; every other byte of the reply is written once. `nowait` reads
/// only what the page cache holds, and a run it cannot fill whole ends the
/// read with `WouldBlock`.
fn read_coalesced(handle: &Handle, ranges: &[(u64, u64)], nowait: bool) -> io::Result<Bytes> {
    let size = handle.file.metadata()?.len();
    let total: usize = ranges.iter().map(|&(_, len)| len as usize).sum();
    let mut buf = Vec::with_capacity(total);
    let mut rest = ranges;
    while !rest.is_empty() {
        let at = buf.len();
        let map = || handle.mapping(size, nowait);
        let n = sys::read_run(&handle.file, map, rest, size, &mut buf, nowait)?;
        let asked: usize = rest[..n].iter().map(|&(_, len)| len as usize).sum();
        buf.resize(at + asked, 0);
        rest = &rest[n..];
    }
    Ok(Bytes::from(buf))
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
        f: impl FnOnce(&Handle) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let slot = self.slot(subfile);
        if access == Access::Shared {
            if let Some(handle) = slot.read().as_ref() {
                return f(handle);
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
            *handle = Some(Handle {
                file,
                map: Mutex::new(None),
            });
        }
        f(handle.as_ref().expect("just opened"))
    }

    /// Write scatter/gather ranges; creates the subfile if needed.
    /// Returns total bytes written.
    pub fn write_ranges(&self, subfile: &str, ranges: &[(u64, Bytes)]) -> Result<u64, StoreError> {
        let total: u64 = ranges.iter().map(|(_, d)| d.len() as u64).sum();
        if self.capacity > 0 {
            // A range that runs off the offset space needs more than any
            // capacity (decoded requests never carry one).
            let end = ranges
                .iter()
                .map(|(off, d)| off.checked_add(d.len() as u64).unwrap_or(u64::MAX))
                .max()
                .unwrap_or(0);
            if end > self.capacity {
                return Err(StoreError::NoSpace {
                    capacity: self.capacity,
                    needed: end,
                });
            }
        }
        self.with_file(subfile, Access::Create, |handle| {
            for (off, data) in ranges {
                handle.file.write_all_at(data, *off)?;
            }
            Ok(total)
        })
    }

    /// Read scatter/gather ranges into **one** coalesced buffer, in range
    /// order — the reply shape of every read. Ranges past EOF come back
    /// zero-filled (sparse-file semantics, same as reading a hole): one
    /// allocation, one payload.
    pub fn read_ranges_coalesced(
        &self,
        subfile: &str,
        ranges: &[(u64, u64)],
    ) -> Result<Bytes, StoreError> {
        self.with_file(subfile, Access::Shared, |handle| {
            Ok(read_coalesced(handle, ranges, false)?)
        })
    }

    /// [`SubfileStore::read_ranges_coalesced`] for a thread that must not
    /// wait: the same bytes if the subfile's descriptor is open, no writer
    /// holds or waits for its slot, and the page cache holds every byte
    /// asked for; `Ok(None)` — "would wait" — otherwise, with nothing
    /// opened, created or locked. An absent subfile would wait too: its
    /// zero fill is the blocking read's to give.
    pub(crate) fn read_ranges_nowait(
        &self,
        subfile: &str,
        ranges: &[(u64, u64)],
    ) -> Result<Option<Bytes>, StoreError> {
        let Some(slot) = self.handles.lock().get(subfile).cloned() else {
            return Ok(None);
        };
        let Some(handle) = slot.try_read() else {
            return Ok(None);
        };
        let Some(handle) = handle.as_ref() else {
            return Ok(None);
        };
        match read_coalesced(handle, ranges, true) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e.into()),
        }
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
    /// later delete forgets it.
    fn forget(&self, subfile: &str, slot: &HandleSlot) {
        let mut handles = self.handles.lock();
        if Arc::strong_count(slot) == 2 {
            handles.remove(subfile);
        }
    }

    /// Stat the subfile: `(exists, size)`.
    pub fn stat(&self, subfile: &str) -> Result<(bool, u64), StoreError> {
        match std::fs::metadata(self.path_of(subfile)) {
            Ok(m) => Ok((true, m.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok((false, 0)),
            Err(e) => Err(e.into()),
        }
    }

    /// Flush a subfile's data to stable storage.
    pub fn sync(&self, subfile: &str) -> Result<(), StoreError> {
        self.with_file(subfile, Access::Exclusive, |handle| {
            handle.file.sync_data()?;
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
        assert_eq!(
            &s.read_ranges_coalesced("/a/b", &[(0, 3)]).unwrap()[..],
            b"abs"
        );
        assert_eq!(
            &s.read_ranges_coalesced("a/b", &[(0, 3)]).unwrap()[..],
            b"rel"
        );
        assert_eq!(
            &s.read_ranges_coalesced("/x", &[(0, 3)]).unwrap()[..],
            b"sla"
        );
        assert_eq!(
            &s.read_ranges_coalesced("%x", &[(0, 3)]).unwrap()[..],
            b"pct"
        );
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
                        let back = s.read_ranges_coalesced(&name, &[(0, 64)]).unwrap();
                        assert_eq!(&back[..], &payload[..]);
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
        let out = s.read_ranges_coalesced("/f", &[(0, 5), (10, 5)]).unwrap();
        assert_eq!(&out[..], b"helloworld");
        // the gap reads as zeros
        let gap = s.read_ranges_coalesced("/f", &[(5, 5)]).unwrap();
        assert_eq!(&gap[..], &[0u8; 5]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn read_past_eof_zero_fills() {
        let (s, dir) = store();
        s.write_ranges("/f", &[(0, Bytes::from_static(b"abc"))])
            .unwrap();
        let out = s.read_ranges_coalesced("/f", &[(1, 10)]).unwrap();
        assert_eq!(&out[..2], b"bc");
        assert_eq!(&out[2..], &[0u8; 8]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn read_missing_subfile_is_not_found() {
        let (s, dir) = store();
        assert!(matches!(
            s.read_ranges_coalesced("/nope", &[(0, 1)]),
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
        // A range past the end of the offset space is just as much too big.
        assert!(matches!(
            s.write_ranges("/f", &[(u64::MAX - 1, Bytes::from_static(b"xy"))]),
            Err(StoreError::NoSpace {
                needed: u64::MAX,
                ..
            })
        ));
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
        let one = s.read_ranges_coalesced("/a/b", &[(0, 3)]).unwrap();
        let two = s.read_ranges_coalesced("/a%b", &[(0, 3)]).unwrap();
        assert_eq!(&one[..], b"one");
        assert_eq!(&two[..], b"two");
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
        s.read_ranges_coalesced("/f", &[(0, 1)]).unwrap(); // the handle is open now
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
                assert_eq!(
                    &s.read_ranges_coalesced("/f", &[(0, 3)]).unwrap()[..],
                    b"new"
                );
            }
            (false, _) => assert!(matches!(
                s.read_ranges_coalesced("/f", &[(0, 3)]),
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
        assert_eq!(
            &s.read_ranges_coalesced("/f", &[(0, 5)]).unwrap()[..],
            b"after"
        );
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
        // Each round: readers and one delete race from a barrier; the file
        // is rewritten while everyone waits at the next.
        let round = Barrier::new(READERS + 2);
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    for _ in 0..32 {
                        round.wait();
                        for _ in 0..8 {
                            match s.read_ranges_coalesced("/f", &ranges) {
                                Ok(got) => assert!(
                                    got == data,
                                    "torn read: delete ran inside a range list"
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

    /// The nonblocking read waits for nothing: not for a writer holding the
    /// slot, not for the lazy open of a subfile no request has touched yet.
    #[test]
    fn a_nowait_read_would_wait_for_a_writer_or_an_unopened_subfile() {
        let (s, dir) = store();
        s.write_ranges("/f", &[(0, Bytes::from_static(b"abcdefgh"))])
            .unwrap();
        let got = s.read_ranges_nowait("/f", &[(2, 3)]).unwrap();
        assert_eq!(got.as_deref(), Some(&b"cde"[..]));

        let slot = s.slot("/f");
        let writing = slot.write();
        assert!(s.read_ranges_nowait("/f", &[(2, 3)]).unwrap().is_none());
        drop(writing);
        assert!(s.read_ranges_nowait("/f", &[(2, 3)]).unwrap().is_some());

        // A store reopened over the same root has no descriptor yet: the
        // blocking read opens it, and from then on the shard can serve it.
        // An absent subfile is the blocking read's to zero-fill.
        let again = SubfileStore::open(&dir, 0).unwrap();
        assert!(again.read_ranges_nowait("/f", &[(0, 8)]).unwrap().is_none());
        assert!(again
            .read_ranges_nowait("/nope", &[(0, 8)])
            .unwrap()
            .is_none());
        assert!(
            again.handles.lock().is_empty(),
            "a nowait read opened a slot"
        );
        again.read_ranges_coalesced("/f", &[(0, 1)]).unwrap();
        let got = again.read_ranges_nowait("/f", &[(0, 8)]).unwrap();
        assert_eq!(got.as_deref(), Some(&b"abcdefgh"[..]));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Read syscalls this thread has made so far (`syscr`), where the
    /// kernel keeps the count.
    fn syscr() -> Option<u64> {
        let io = std::fs::read_to_string("/proc/thread-self/io").ok()?;
        io.lines()
            .find_map(|line| line.strip_prefix("syscr:"))?
            .trim()
            .parse()
            .ok()
    }

    /// The read syscalls `f` makes on this thread. Reading the counter
    /// costs reads of its own, the same number every time, so the cost of
    /// an empty interval is taken off.
    fn reads_in(f: impl FnOnce()) -> u64 {
        let a = syscr().unwrap();
        let b = syscr().unwrap();
        f();
        let c = syscr().unwrap();
        (c - b) - (b - a)
    }

    /// The count behind `strided_read`: an iond answers 1024 ranges of
    /// 64 B at stride 4096 without a read syscall — each half of the list
    /// (512 ranges and their 511 gaps fill an iovec array) is a run of 512
    /// pages with gaps, gathered from the mapping. At stride 128 a run's
    /// hull is 16 pages, too few to gather: one read per run. At stride
    /// 8192 a gap would skip a page no range touches, so every range is its
    /// own read — the rule's edge. Blocking and nowait reads make the same
    /// calls.
    #[test]
    fn a_strided_read_costs_one_read_per_short_run_of_pages_and_none_per_gathered_one() {
        if syscr().is_none() {
            eprintln!("subfile: no /proc/thread-self/io here; the syscall count did not run");
            return;
        }
        let (s, dir) = store();
        let data: Vec<u8> = (0..8 << 20).map(|i| (i * 7 % 251) as u8).collect();
        s.write_ranges("/s", &[(0, Bytes::from(data.clone()))])
            .unwrap();
        s.read_ranges_coalesced("/s", &[(0, 8 << 20)]).unwrap();
        let strided = |stride: u64| (0..1024u64).map(|i| (i * stride, 64)).collect::<Vec<_>>();
        for (ranges, fewest, most) in [
            (strided(4096), 0, 0),
            (strided(128), 2, 2),
            (strided(8192), 1024, 1024),
            (vec![(12_345, 1 << 20)], 1, 1),
        ] {
            let want: Vec<u8> = ranges
                .iter()
                .flat_map(|&(off, len)| &data[off as usize..(off + len) as usize])
                .copied()
                .collect();
            let blocking = reads_in(|| {
                assert!(s.read_ranges_coalesced("/s", &ranges).unwrap() == want);
            });
            let nowait = reads_in(|| {
                let got = s.read_ranges_nowait("/s", &ranges).unwrap();
                assert!(got.as_deref() == Some(&want[..]));
            });
            println!(
                "{} ranges: {blocking} reads blocking, {nowait} nowait",
                ranges.len()
            );
            assert!(
                (fewest..=most).contains(&blocking),
                "{blocking} reads, {fewest}..={most} wanted"
            );
            assert_eq!(nowait, blocking);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// `len` bytes that differ from page to page and from `salt` to salt.
    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len).map(|i| (i * 7 % 251) as u8 ^ salt).collect()
    }

    /// 64 B at stride 4096 over `pages` pages from `first`: a gathered run.
    fn sparse(first: u64, pages: u64) -> Vec<(u64, u64)> {
        (first..first + pages)
            .map(|p| (p * 4096 + 64, 64))
            .collect()
    }

    /// The bytes of `ranges` in `data`, one range after the other.
    fn each(data: &[u8], ranges: &[(u64, u64)]) -> Vec<u8> {
        ranges
            .iter()
            .flat_map(|&(off, len)| &data[off as usize..(off + len) as usize])
            .copied()
            .collect()
    }

    /// The mapping `subfile`'s handle holds, if any.
    fn mapping_of(s: &SubfileStore, subfile: &str) -> Option<Arc<sys::Mapping>> {
        let slot = s.slot(subfile);
        let handle = slot.read();
        let map = handle.as_ref()?.map.lock().clone();
        map
    }

    /// A gather reads the inode the name holds now: `delete` and a
    /// recreation under the same name leave no mapping of the old inode
    /// behind, for a blocking and a `nowait` read alike.
    #[test]
    fn a_gather_after_delete_reads_the_names_new_bytes() {
        const SIZE: usize = 1 << 20;
        let (s, dir) = store();
        let ranges = sparse(0, 256);
        let (old, new) = (pattern(SIZE, 0), pattern(SIZE, 0xFF));
        s.write_ranges("/m", &[(0, Bytes::from(old.clone()))])
            .unwrap();
        assert!(s.read_ranges_coalesced("/m", &ranges).unwrap() == each(&old, &ranges));
        assert!(mapping_of(&s, "/m").is_some(), "the read was not gathered");
        assert!(s.delete("/m").unwrap());
        s.write_ranges("/m", &[(0, Bytes::from(new.clone()))])
            .unwrap();
        for read in [
            SubfileStore::read_ranges_coalesced,
            |s: &SubfileStore, name: &str, ranges: &[(u64, u64)]| {
                Ok(s.read_ranges_nowait(name, ranges)?.expect("cached"))
            },
        ] {
            assert!(
                read(&s, "/m", &ranges).unwrap() == each(&new, &ranges),
                "a gather after delete and recreate read the unlinked inode"
            );
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A write past the mapped length, then a gather of the new tail: the
    /// mapping is remade to cover it, and the tail's bytes come back.
    #[test]
    fn a_gather_past_the_mapped_length_remaps_and_reads_the_new_tail() {
        const SIZE: usize = 1 << 20;
        let (s, dir) = store();
        let data = pattern(2 * SIZE, 0);
        s.write_ranges("/g", &[(0, Bytes::copy_from_slice(&data[..SIZE]))])
            .unwrap();
        let head = sparse(0, 256);
        assert!(s.read_ranges_coalesced("/g", &head).unwrap() == each(&data, &head));
        let first = mapping_of(&s, "/g").expect("the read was not gathered");
        assert!(!first.covers(SIZE as u64 + 1));
        s.write_ranges(
            "/g",
            &[(SIZE as u64, Bytes::copy_from_slice(&data[SIZE..]))],
        )
        .unwrap();
        let tail = sparse(256, 256);
        assert!(s.read_ranges_nowait("/g", &tail).unwrap().unwrap() == each(&data, &tail));
        assert!(s.read_ranges_coalesced("/g", &tail).unwrap() == each(&data, &tail));
        let remade = mapping_of(&s, "/g").unwrap();
        assert!(
            remade.covers(2 * SIZE as u64),
            "the mapping was not remade when the file outgrew it"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The `Rss` of the mapping at `addr`, from `/proc/self/smaps`.
    fn mapped_rss_kb(addr: usize) -> Option<u64> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
        let mut lines = smaps
            .lines()
            .skip_while(|line| !line.starts_with(&format!("{addr:x}-")));
        lines.next()?;
        lines
            .find_map(|line| line.strip_prefix("Rss:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    }

    /// A gathered read leaves no file page mapped: each window it touched
    /// is released whole, with the pages a fault mapped around the one it
    /// touched. Two sizes: a 4 MiB subfile, and one under the 2 MiB a
    /// kernel may align a large file mapping to by itself.
    #[test]
    fn a_gathered_read_leaves_nothing_mapped() {
        if mapped_rss_kb(0).is_none() && std::fs::metadata("/proc/self/smaps").is_err() {
            eprintln!("subfile: no /proc/self/smaps here; the residency check did not run");
            return;
        }
        let (s, dir) = store();
        for (name, pages) in [("/r4", 1024u64), ("/r1", 300)] {
            let data = pattern(pages as usize * 4096, 1);
            s.write_ranges(name, &[(0, Bytes::from(data.clone()))])
                .unwrap();
            for ranges in [sparse(0, pages), sparse(pages / 3, pages / 2)] {
                let want = each(&data, &ranges);
                assert!(s.read_ranges_coalesced(name, &ranges).unwrap() == want);
                assert!(s.read_ranges_nowait(name, &ranges).unwrap().unwrap() == want);
                let map = mapping_of(&s, name).expect("the read was not gathered");
                let rss = mapped_rss_kb(map.addr()).expect("the mapping is not in smaps");
                assert_eq!(rss, 0, "{name}: {rss} kB of the subfile stayed mapped");
            }
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    use proptest::prelude::*;

    /// Range lists of every shape a request can carry: strided runs with
    /// and without page-adjacent gaps (some longer than an iovec array), in
    /// order or shuffled, arbitrary lists with overlaps and a repeated
    /// tail, lists near the end of the offset space, and long sorted
    /// strided runs — gathered from the mapping — that start anywhere in
    /// the first 1.2 MiB, cross window edges, reach past the end of the
    /// subfile and hold empty ranges. Lengths include 0; the subfile ends
    /// below 1.3 MiB, so ranges cross it and lie past it.
    fn range_lists() -> impl Strategy<Value = Vec<(u64, u64)>> {
        let strided = (
            (0u64..96 << 10, 0u64..9_000, 0u64..600, 1u64..1_200),
            any::<u64>(),
        )
            .prop_map(|((start, gap, len, count), seed)| {
                let mut v: Vec<(u64, u64)> =
                    (0..count).map(|i| (start + i * (len + gap), len)).collect();
                // An odd seed shuffles: half the lists are out of order.
                if seed % 2 == 1 {
                    v.sort_by_key(|&(off, _)| (off ^ seed).wrapping_mul(seed));
                }
                v
            });
        let arbitrary =
            proptest::collection::vec((0u64..96 << 10, 0u64..20_000), 1..40).prop_map(|mut v| {
                let tail: Vec<_> = v.iter().rev().take(3).copied().collect();
                v.extend(tail);
                v
            });
        let far = proptest::collection::vec(
            (
                prop_oneof![0u64..96 << 10, (u64::MAX - (40 << 10))..=u64::MAX],
                0u64..20_000,
            ),
            1..12,
        );
        let long = (
            0u64..1200 << 10,
            1u64..4_200,
            0u64..200,
            64u64..1_100,
            0u64..8,
        )
            .prop_map(|(start, stride, len, count, empty)| {
                (0..count)
                    .map(|i| {
                        let len = if empty > 0 && i % empty == 0 { 0 } else { len };
                        (start + i * stride, len.min(stride))
                    })
                    .collect()
            });
        prop_oneof![strided, arbitrary, far, long]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Both reads are one range loop, and each range's bytes are what
        /// a plain positional read of that range returns — zeros past the
        /// end. Once the blocking read has been through the ranges (and so
        /// brought every page into the cache), the nowait read returns the
        /// same bytes and does not say "would wait".
        #[test]
        fn nowait_and_blocking_reads_return_the_same_bytes(
            base in 0usize..1300 << 10,
            writes in proptest::collection::vec((0u64..64 << 10, 1usize..9000, any::<u8>()), 1..6),
            reads in range_lists(),
        ) {
            let (s, dir) = store();
            s.write_ranges("/p", &[(0, Bytes::from(pattern(base, 0)))]).unwrap();
            for (off, len, fill) in &writes {
                s.write_ranges("/p", &[(*off, Bytes::from(vec![*fill; *len]))]).unwrap();
            }
            let file = File::open(s.path_of("/p")).unwrap();
            let size = file.metadata().unwrap().len();
            let mut want = Vec::new();
            for &(off, len) in &reads {
                let mut range = vec![0u8; len as usize];
                if off < size {
                    let avail = (size - off).min(len) as usize;
                    file.read_exact_at(&mut range[..avail], off).unwrap();
                }
                want.extend_from_slice(&range);
            }
            let blocking = s.read_ranges_coalesced("/p", &reads).unwrap();
            prop_assert!(blocking[..] == want[..], "blocking read differs from the per-range reads");
            let nowait = s.read_ranges_nowait("/p", &reads).unwrap();
            prop_assert!(nowait.as_ref() == Some(&blocking), "nowait read differs or would wait");
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
}
