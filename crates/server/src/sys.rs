//! `poll(2)` and `preadv2(2)`: the two foreign calls in the tree (the tests
//! below add `posix_fadvise`), and one of its two `unsafe` sites (the other
//! is `dpfs-meta`'s CRC kernel, `clmul.rs`). Every crate root carries
//! `#![deny(unsafe_code)]`; these two files alone lift it. `preadv2` with
//! `RWF_NOWAIT` is Linux's (4.14 and glibc 2.26 on).
#![allow(unsafe_code)]

use std::ffi::{c_int, c_short};
use std::fs::File;
use std::io::{self, IoSliceMut};
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

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: nfds_t, timeout: c_int) -> c_int;
    /// `iov` points at `struct iovec`s, which `IoSliceMut` is laid out as
    /// on every unix; `offset` is a 64-bit `off_t`.
    #[link_name = "preadv2"]
    fn sys_preadv2(
        fd: c_int,
        iov: *const IoSliceMut<'_>,
        iovcnt: c_int,
        offset: i64,
        flags: c_int,
    ) -> isize;
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

/// Read into `buf` from `file` at `offset` only what the page cache holds
/// already: `preadv2(RWF_NOWAIT)`, which never waits for the device.
/// Returns the bytes read, fewer than asked when the cached pages or the
/// file end partway, and `WouldBlock` when not even the first page is
/// cached — or when the file system cannot read without waiting at all
/// (`EOPNOTSUPP`). `EINTR` is retried.
pub(crate) fn pread_nowait(file: &File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
    // -1 would mean "at the file position": refuse it, don't wrap into it.
    let offset = i64::try_from(offset).map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
    let iov = [IoSliceMut::new(buf)];
    loop {
        // SAFETY: `iov` is one `IoSliceMut` — ABI-compatible with `struct
        // iovec` — over an exclusively borrowed buffer; the kernel writes at
        // most its length into it and keeps no pointer past the call. The
        // descriptor stays open for the call: `file` is borrowed.
        let n = unsafe { sys_preadv2(file.as_raw_fd(), iov.as_ptr(), 1, offset, RWF_NOWAIT) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(nowait_error(e));
        }
    }
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
        file.write_all_at(&data, 0).unwrap();
        file.sync_data().unwrap();
        (file, data, path)
    }

    fn evict(file: &File) {
        // SAFETY: a plain syscall on a borrowed, open descriptor.
        let rc = unsafe { posix_fadvise(file.as_raw_fd(), 0, 0, POSIX_FADV_DONTNEED) };
        assert_eq!(rc, 0, "posix_fadvise");
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
    fn a_nowait_read_gets_cached_bytes_and_would_block_on_evicted_ones() {
        let (file, data, path) = synced_file("nowait", 64);
        let mut buf = vec![0u8; data.len()];
        assert_eq!(pread_nowait(&file, &mut buf, 0).unwrap(), data.len());
        assert_eq!(buf, data);
        // Past the end there is nothing to wait for: 0 bytes, at once.
        assert_eq!(pread_nowait(&file, &mut buf, data.len() as u64).unwrap(), 0);
        assert_eq!(
            pread_nowait(&file, &mut buf, u64::MAX).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );

        // The pages are clean, so the advice drops them and the first one
        // must now come from the device — unless the file system keeps
        // its pages whatever the advice, which this test cannot help.
        evict(&file);
        match pread_nowait(&file, &mut buf[..4096], 32 * 4096) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock, "{e}"),
            Ok(_) => eprintln!(
                "sys: the file system under {} kept evicted pages; \
                 the would-block half of this test did not run",
                path.display()
            ),
        }
        // A blocking read brings them back, and then they are served again.
        file.read_exact_at(&mut buf, 0).unwrap();
        buf.fill(0);
        assert_eq!(pread_nowait(&file, &mut buf, 0).unwrap(), data.len());
        assert_eq!(buf, data);
        std::fs::remove_file(path).unwrap();
    }
}
