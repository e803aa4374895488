//! `poll(2)` and `preadv2(2)`: the two foreign calls in the tree (the tests
//! below add `posix_fadvise`), and one of its two `unsafe` sites (the other
//! is `dpfs-meta`'s CRC kernel, `clmul.rs`). Every crate root carries
//! `#![deny(unsafe_code)]`; these two files alone lift it. `preadv2` with
//! `RWF_NOWAIT` is Linux's (4.14 and glibc 2.26 on).
//!
//! Every subfile read goes through [`read_run`], blocking or not: one
//! `preadv2` per run of page-adjacent ranges, not one per range. The wanted
//! bytes land in the reply's spare capacity and the gaps between them in a
//! discard buffer on the stack, so the kernel writes each reply byte once
//! and reads only the pages the ranges touch.
#![allow(unsafe_code)]

use std::ffi::{c_int, c_short, c_void};
use std::fs::File;
use std::io;
use std::mem::MaybeUninit;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Readable (for a listener: a connection is waiting).
pub(crate) const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x004;

/// The only line of `poll` another unix may need to change (Linux:
/// `unsigned long`; the BSDs and macOS: `unsigned int`).
#[allow(non_camel_case_types)]
type nfds_t = std::ffi::c_ulong;

/// `struct pollfd`, field for field.
#[repr(C)]
pub(crate) struct PollFd {
    fd: RawFd,
    /// Interest set; the owner rewrites it as the descriptor's state moves.
    pub(crate) events: c_short,
    /// What the last [`poll`] found. `POLLERR`/`POLLHUP`/`POLLNVAL` are
    /// reported whatever `events` asked for.
    pub(crate) revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

/// `preadv2` flag: fail with `EAGAIN` rather than wait for the device.
const RWF_NOWAIT: c_int = 0x0000_0008;

/// `errno` of a `RWF_NOWAIT` read the file (system) cannot do at all: a
/// kernel before 4.14, or a file without `FMODE_NOWAIT` (NFS, FUSE, ...).
/// Rust files it under no `ErrorKind` of its own.
const EOPNOTSUPP: i32 = 95;

/// The page a run is measured in. A run reads only the 4 KiB pages its
/// ranges touch, and so only the pages of any larger size they touch.
const PAGE: u64 = 4096;

/// The most iovecs one `preadv2` takes (Linux's `UIO_MAXIOV`).
const IOV_MAX: usize = 1024;

/// The longest gap a run reads through: a range that ends on the first
/// byte of a page, and a next one that starts on the last byte of the page
/// after.
const MAX_GAP: usize = 2 * PAGE as usize - 2;

/// `struct iovec`, field for field. Raw, not `IoSliceMut`: a run's gap
/// iovecs all point at one discard buffer, and its range iovecs at reply
/// capacity not yet initialised.
#[repr(C)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: nfds_t, timeout: c_int) -> c_int;
    /// `offset` is a 64-bit `off_t`.
    #[link_name = "preadv2"]
    fn sys_preadv2(fd: c_int, iov: *const IoVec, iovcnt: c_int, offset: i64, flags: c_int)
        -> isize;
}

/// Block until a descriptor in `fds` is ready or `timeout` passes (`None`:
/// no timeout) and return how many have `revents` set. `EINTR` is retried.
/// The caller keeps every `fd` open for the duration of the call.
pub(crate) fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    // Round up: a wait cut short would turn the caller's deadline loop
    // into a spin over the last fraction of a millisecond.
    let ms = timeout.map_or(-1, |d| {
        c_int::try_from(d.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    loop {
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // structs laid out as `struct pollfd`; the kernel reads `fd` and
        // `events` and writes `revents` of exactly `fds.len()` entries and
        // keeps no pointer past the call.
        let n = unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as nfds_t, ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// How many leading ranges of `ranges` one read covers: a *run*. A range
/// joins while it starts below `eof`, at or after the end of the run's
/// last nonempty range, and in that range's last page or the page after —
/// so the hull of a run covers exactly the pages its ranges cover — and
/// while the run needs at most `IOV_MAX` iovecs, one per range and one per
/// gap. A range that reaches past `eof` is the last of its run. Empty
/// ranges ride along; the first range always counts, read or not.
/// Unsorted or overlapping ranges therefore make runs of one, and nothing
/// here can overflow: every end is clipped to `eof`.
fn run_len(ranges: &[(u64, u64)], eof: u64) -> usize {
    let mut end = None;
    let mut iovs = 0;
    for (i, &(off, len)) in ranges.iter().enumerate() {
        if len == 0 {
            continue;
        }
        if off >= eof {
            return i.max(1);
        }
        let gap = match end {
            None => 0,
            Some(e) if off >= e && off / PAGE <= (e - 1) / PAGE + 1 => off - e,
            Some(_) => return i,
        };
        iovs += 1 + usize::from(gap > 0);
        if iovs > IOV_MAX {
            return i;
        }
        if len > eof - off {
            return i + 1;
        }
        end = Some(off + len);
    }
    ranges.len()
}

/// Append to `reply` the bytes below `eof` of the run that leads `ranges`
/// (see [`run_len`]) and return how many ranges that was. One `preadv2`
/// reads the run's hull: each range's bytes land in `reply`'s spare
/// capacity, in range order, and each gap's in one discard buffer on the
/// stack. `reply` grows only over bytes the kernel wrote; what the run's
/// ranges ask for at or past `eof` is the caller's to zero.
///
/// With `nowait` the read is `RWF_NOWAIT`, served only from the page cache:
/// a read that ends short of the run — a page not cached — is
/// `WouldBlock`, and so is a file system or kernel that cannot read
/// without waiting (`EOPNOTSUPP`, `ENOSYS`). A short blocking read resumes
/// at the first byte not read; end of file before the run's end is
/// `UnexpectedEof`. `EINTR` is retried.
pub(crate) fn read_run(
    file: &File,
    ranges: &[(u64, u64)],
    eof: u64,
    reply: &mut Vec<u8>,
    nowait: bool,
) -> io::Result<usize> {
    let count = run_len(ranges, eof);
    // The run's ranges as `(start, end)` file offsets, below `eof`.
    let run = || {
        ranges[..count]
            .iter()
            .filter(|&&(off, len)| len > 0 && off < eof)
            .map(|&(off, len)| (off, off + len.min(eof - off)))
    };
    let (Some((mut pos, _)), Some((_, end))) = (run().next(), run().next_back()) else {
        return Ok(count);
    };
    reply.reserve(run().map(|(off, stop)| (stop - off) as usize).sum());
    let flags = if nowait { RWF_NOWAIT } else { 0 };
    let mut discard = MaybeUninit::<[u8; MAX_GAP]>::uninit();
    let mut iov = [const { MaybeUninit::<IoVec>::uninit() }; IOV_MAX];
    while pos < end {
        // Describe `pos..end`: the ranges' bytes not read yet go one after
        // the other to the end of `reply`, the gaps all to `discard`.
        let spare = reply.spare_capacity_mut().as_mut_ptr();
        let (mut n, mut at, mut filled) = (0, pos, 0);
        for (off, stop) in run().filter(|&(_, stop)| stop > pos) {
            if off > at {
                let gap = (off - at) as usize;
                assert!(gap <= MAX_GAP, "a run's gap outgrew the discard buffer");
                iov[n].write(IoVec {
                    base: discard.as_mut_ptr().cast(),
                    len: gap,
                });
                n += 1;
                at = off;
            }
            let len = (stop - at) as usize;
            iov[n].write(IoVec {
                base: spare.wrapping_add(filled).cast(),
                len,
            });
            n += 1;
            filled += len;
            at = stop;
        }
        let offset =
            i64::try_from(pos).map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
        // SAFETY: `iov[..n]` were just written, and are `#[repr(C)]`
        // `struct iovec`s (`MaybeUninit` has its content's layout). The reply
        // iovecs tile the first `filled` bytes of `reply`'s spare capacity,
        // which `reserve` made at least the run's byte count; the gap
        // iovecs each cover at most `MAX_GAP` bytes of `discard` (asserted),
        // which is never read. The kernel writes at most those bytes and
        // keeps no pointer past the call. The descriptor stays open for the
        // call: `file` is borrowed.
        let got = unsafe {
            sys_preadv2(
                file.as_raw_fd(),
                iov.as_ptr().cast(),
                n as c_int,
                offset,
                flags,
            )
        };
        if got < 0 {
            let e = io::Error::last_os_error();
            match e.kind() {
                io::ErrorKind::Interrupted => continue,
                _ if nowait => return Err(nowait_error(e)),
                _ => return Err(e),
            }
        }
        if got == 0 && !nowait {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let read_to = pos + got as u64;
        // The kernel fills the iovecs in order, so the reply bytes among
        // the `got` it wrote are the first ones of the spare capacity.
        let new: u64 = run()
            .map(|(off, stop)| stop.min(read_to).saturating_sub(off.max(pos)))
            .sum();
        // SAFETY: those `new` bytes, right after the initialised ones,
        // were just written by the kernel.
        unsafe { reply.set_len(reply.len() + new as usize) };
        pos = read_to;
        if nowait && pos < end {
            return Err(io::ErrorKind::WouldBlock.into());
        }
    }
    Ok(count)
}

/// A failed `RWF_NOWAIT` read as its caller sees it: a read that cannot be
/// done without waiting (`EOPNOTSUPP`, or `ENOSYS` from a kernel without
/// `preadv2`) is one that would wait, so it goes where waiting is allowed.
fn nowait_error(e: io::Error) -> io::Error {
    if e.raw_os_error() == Some(EOPNOTSUPP) || e.kind() == io::ErrorKind::Unsupported {
        io::ErrorKind::WouldBlock.into()
    } else {
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::fs::FileExt;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn poll_reports_readiness_and_honours_its_timeout() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let t0 = Instant::now();
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        a.write_all(b"x").unwrap();
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        assert_eq!(fds[0].revents & POLLIN, POLLIN);
        // Level-triggered: unread input reports again; no interest, no report.
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        fds[0].events = 0;
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
    }

    extern "C" {
        fn posix_fadvise(fd: c_int, offset: i64, len: i64, advice: c_int) -> c_int;
    }

    /// `posix_fadvise` advice: drop the range's clean pages from the cache.
    const POSIX_FADV_DONTNEED: c_int = 4;

    /// Write `pages` pages to a fresh file beside the test binary — on the
    /// disk the build is on, not on a temp dir that may be `tmpfs`, whose
    /// pages no advice evicts — and flush them, so the cache holds them
    /// clean.
    fn synced_file(tag: &str, pages: usize) -> (File, Vec<u8>, std::path::PathBuf) {
        let exe = std::env::current_exe().unwrap();
        let path = exe.with_file_name(format!("dpfs-sys-{tag}-{}", std::process::id()));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        let data: Vec<u8> = (0..pages * 4096).map(|i| (i * 7 % 251) as u8).collect();
        // One page per write: the cache then holds single-page folios, each
        // of which the advice can drop alone (it keeps a folio it covers
        // only in part).
        for (i, page) in data.chunks(4096).enumerate() {
            file.write_all_at(page, i as u64 * 4096).unwrap();
        }
        file.sync_data().unwrap();
        (file, data, path)
    }

    /// Drop `len` bytes' worth of pages at `offset` from the cache.
    fn evict(file: &File, offset: i64, len: i64) {
        // SAFETY: a plain syscall on a borrowed, open descriptor.
        let rc = unsafe { posix_fadvise(file.as_raw_fd(), offset, len, POSIX_FADV_DONTNEED) };
        assert_eq!(rc, 0, "posix_fadvise");
    }

    /// Evict `len` bytes at `offset` and check that a nowait read of
    /// `ranges` would now wait. The advice skips a page something holds
    /// for a moment, so it is given up to five times; a file system that
    /// keeps its pages whatever the advice only earns a note.
    fn evicted_and_would_wait(
        file: &File,
        path: &std::path::Path,
        ranges: &[(u64, u64)],
        offset: i64,
        len: i64,
    ) {
        for _ in 0..5 {
            evict(file, offset, len);
            match run(file, ranges, true) {
                Err(e) => return assert_eq!(e.kind(), io::ErrorKind::WouldBlock, "{e}"),
                Ok(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        eprintln!(
            "sys: the file system under {} kept evicted pages; \
             the would-block half of this test did not run",
            path.display()
        );
    }

    /// One run read from an empty reply: its bytes and how many ranges it
    /// took.
    fn run(file: &File, ranges: &[(u64, u64)], nowait: bool) -> io::Result<(Vec<u8>, usize)> {
        let eof = file.metadata()?.len();
        let mut reply = Vec::new();
        let n = read_run(file, ranges, eof, &mut reply, nowait)?;
        Ok((reply, n))
    }

    #[test]
    fn a_read_the_file_system_cannot_do_without_waiting_would_wait() {
        let kind = |e: io::Error| nowait_error(e).kind();
        assert_eq!(
            kind(io::Error::from_raw_os_error(EOPNOTSUPP)),
            io::ErrorKind::WouldBlock
        );
        let enosys = io::Error::from_raw_os_error(38);
        assert_eq!(enosys.kind(), io::ErrorKind::Unsupported);
        assert_eq!(kind(enosys), io::ErrorKind::WouldBlock);
        // `EAGAIN` is the kernel's own "would wait"; real failures stay
        // what they were.
        let eagain = io::Error::from_raw_os_error(11);
        assert_eq!(kind(eagain), io::ErrorKind::WouldBlock);
        let ebadf = io::Error::from_raw_os_error(9);
        assert_eq!(nowait_error(ebadf).raw_os_error(), Some(9));
    }

    #[test]
    fn a_run_covers_exactly_the_pages_its_ranges_touch() {
        const EOF: u64 = 1 << 30;
        let strided = |stride: u64| {
            (0..1024u64)
                .map(move |i| (i * stride, 64))
                .collect::<Vec<_>>()
        };
        // One iovec per range and one per gap: 512 ranges fill 1023 of 1024.
        assert_eq!(run_len(&strided(64), EOF), 1024, "no gaps, one iovec each");
        assert_eq!(run_len(&strided(4096), EOF), 512);
        assert_eq!(run_len(&strided(8192), EOF), 1);
        // The page rule's edge: a range ending on the first byte of page 1
        // reaches a range starting anywhere in page 2, not in page 3.
        let first = (4095, 2);
        assert_eq!(run_len(&[first, (3 * PAGE - 1, 1)], EOF), 2);
        assert_eq!(3 * PAGE - 1 - (4095 + 2), MAX_GAP as u64);
        assert_eq!(run_len(&[first, (3 * PAGE, 1)], EOF), 1);
        // Unsorted, overlapping and duplicate ranges make runs of one.
        assert_eq!(run_len(&[(100, 10), (50, 10)], EOF), 1);
        assert_eq!(run_len(&[(100, 10), (105, 10)], EOF), 1);
        assert_eq!(run_len(&[(100, 10), (100, 10)], EOF), 1);
        assert_eq!(run_len(&[(100, 10), (110, 10)], EOF), 2, "touching");
        // Empty ranges ride along wherever they point; a range past the
        // end is a run of its own, and one across the end closes its run.
        assert_eq!(run_len(&[(100, 10), (u64::MAX, 0), (120, 10)], EOF), 3);
        assert_eq!(run_len(&[(u64::MAX, 0), (100, 10)], EOF), 2);
        assert_eq!(run_len(&[(EOF, 10), (100, 10)], EOF), 1);
        assert_eq!(run_len(&[(u64::MAX, u64::MAX), (100, 10)], EOF), 1);
        let near = (EOF - 20, 10);
        assert_eq!(run_len(&[near, (EOF - 5, 10), (EOF + 5, 1)], EOF), 2);
        assert_eq!(run_len(&[near, (EOF - 5, u64::MAX), (EOF + 5, 1)], EOF), 2);
    }

    #[test]
    fn a_nowait_read_gets_cached_bytes_and_would_block_on_evicted_ones() {
        let (file, data, path) = synced_file("nowait", 64);
        let len = data.len() as u64;
        assert_eq!(run(&file, &[(0, len)], true).unwrap(), (data.clone(), 1));
        // At or past the end there is nothing to read, and no call is made:
        // the caller zeroes those bytes. A range across the end reads up to
        // it.
        for far in [len, u64::MAX] {
            assert_eq!(
                run(&file, &[(far, 4096), (0, 1)], true).unwrap(),
                (vec![], 1)
            );
        }
        let (tail, _) = run(&file, &[(len - 3, 4096)], true).unwrap();
        assert_eq!(tail, &data[data.len() - 3..]);

        // The pages are clean, so the advice drops them and the first one
        // must now come from the device — unless the file system keeps
        // its pages whatever the advice, which this test cannot help.
        evicted_and_would_wait(&file, &path, &[(32 * 4096, 4096)], 0, 0);
        // A blocking read brings them back, and then they are served again.
        assert_eq!(run(&file, &[(0, len)], false).unwrap().0, data);
        assert_eq!(run(&file, &[(0, len)], true).unwrap().0, data);
        std::fs::remove_file(path).unwrap();
    }

    /// A file that ends before the size a read was planned on (another
    /// process shrank it): the read keeps exactly the bytes the kernel
    /// wrote, and a blocking read resumes where the file ended and then
    /// reports the end. A nowait read would wait.
    #[test]
    fn a_file_shorter_than_the_planned_size_ends_the_read_after_its_bytes() {
        let (file, data, path) = synced_file("short", 4);
        let ranges: Vec<(u64, u64)> = (0..8u64).map(|i| (i * 4096 + 100, 64)).collect();
        let below: Vec<u8> = ranges[..4]
            .iter()
            .flat_map(|&(off, len)| &data[off as usize..(off + len) as usize])
            .copied()
            .collect();
        for (nowait, kind) in [
            (false, io::ErrorKind::UnexpectedEof),
            (true, io::ErrorKind::WouldBlock),
        ] {
            let mut reply = Vec::new();
            let e = read_run(&file, &ranges, 2 * data.len() as u64, &mut reply, nowait);
            assert_eq!(e.unwrap_err().kind(), kind);
            assert_eq!(reply, below);
        }
        std::fs::remove_file(path).unwrap();
    }

    /// A run is one call, so one page missing from the cache anywhere in
    /// its hull — here under a range in the middle — makes the whole
    /// nowait read wait, and the blocking read still returns every range.
    #[test]
    fn a_run_with_one_evicted_page_would_wait_and_then_reads_whole() {
        let (file, data, path) = synced_file("run", 64);
        let ranges: Vec<(u64, u64)> = (0..64u64).map(|i| (i * 4096 + 100, 64)).collect();
        let want: Vec<u8> = ranges
            .iter()
            .flat_map(|&(off, len)| &data[off as usize..(off + len) as usize])
            .copied()
            .collect();
        assert_eq!(run(&file, &ranges, true).unwrap(), (want.clone(), 64));
        evicted_and_would_wait(&file, &path, &ranges, 40 * 4096, 4096);
        assert_eq!(run(&file, &ranges, false).unwrap(), (want.clone(), 64));
        assert_eq!(run(&file, &ranges, true).unwrap(), (want, 64));
        std::fs::remove_file(path).unwrap();
    }
}
