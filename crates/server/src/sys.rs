//! `poll(2)`, `preadv2(2)`, and `mmap(2)` with its helpers `munmap`,
//! `madvise` and `mincore`: the foreign calls of the tree (the tests below
//! add `posix_fadvise`), and one of its two `unsafe` sites (the other is
//! `dpfs-meta`'s CRC kernel, `clmul.rs`). Every crate root carries
//! `#![deny(unsafe_code)]`; these two files alone lift it. `preadv2` with
//! `RWF_NOWAIT` is Linux's (4.14 and glibc 2.26 on), `MADV_POPULATE_READ`
//! too (5.14 on; refused before, and then the run is read with `preadv2`).
//! The `mmap`/`madvise` constants are Linux's generic ones (x86-64, arm64).
//!
//! Every subfile read goes through [`read_run`], blocking or not, one run
//! of page-adjacent ranges at a time, in one of two ways:
//!
//! - **Read** ([`preadv_run`]): one `preadv2` reads the run's hull. The
//!   wanted bytes land in the reply's spare capacity and the gaps between
//!   them in a discard buffer on the stack, so the kernel writes each reply
//!   byte once and reads only the pages the ranges touch.
//! - **Gathered** ([`gather_run`]): a run with gaps whose hull spans at
//!   least [`GATHER_MIN_PAGES`] pages is copied out of a read-only shared
//!   [`Mapping`] of the subfile, one aligned [`WINDOW`] at a time: make the
//!   window's pages resident (a thread that must not wait asks `mincore`
//!   whether they all are; one that may wait brings them in with
//!   `MADV_POPULATE_READ`), copy each range's bytes, then `MADV_DONTNEED`
//!   the whole window. The gaps are never copied: a sparse run costs its
//!   pages, not its hull.
//!
//! What a gather leaves mapped: nothing. A fault maps, beside its page,
//! the cached pages of the `fault_around_bytes`-aligned block of
//! *addresses* around it, never past the [`REACH`]-aligned block one page
//! table maps. The mapping is placed at an address congruent to its file
//! offsets modulo `REACH`, so where fault-around reaches no further than
//! a window each block lies inside one window, and the window's release
//! unmaps it: no file page stays mapped between windows. Wherever it
//! reaches further (with 256 KiB windows, pages of the window before were
//! seen left mapped on Linux 6.18), what spilled into windows already
//! released is unmapped at the end of the run, by one release of the
//! `REACH`-aligned blocks around its hull.
//!
//! Why the mapping is safe to read:
//!
//! - A page of a file mapping past the end of the file raises `SIGBUS`
//!   when touched. No path of the server shrinks a subfile (no `set_len`,
//!   no truncating open in `crates/server/src`; `ci.sh` greps for both), a
//!   gather reads only pages below the end of file it was planned on, and
//!   it holds its subfile's slot shared, so no writer of the store runs
//!   during it. `delete` unlinks a *name*: the mapped inode lives on
//!   until the mapping is dropped with the descriptor. Where the page cannot be brought in, `MADV_POPULATE_READ`
//!   fails with an error instead of the signal, and the read fails with it.
//! - Nothing waits on a thread that must not: `mincore` must report every
//!   page of the window cached before the first is touched. The kernel
//!   reports the page cache of a file only to a process that owns it or
//!   may write it (otherwise it says "resident" for every page); the
//!   store's subfiles are its own, opened read-write. The one residual
//!   wait is a page evicted between that `mincore` and the copy, a few
//!   microseconds later: the copy then faults it in from the device.
//! - A process outside the store that writes or shrinks the subfile meanwhile
//!   is outside this argument, as it is outside the store's locking.
#![allow(unsafe_code)]

use std::ffi::{c_int, c_short, c_void};
use std::fs::File;
use std::io;
use std::mem::MaybeUninit;
use std::ops::Deref;
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

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const MAP_SHARED: c_int = 0x01;
const MAP_PRIVATE: c_int = 0x02;
const MAP_FIXED: c_int = 0x10;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
/// `madvise`: unmap the range's pages; a later touch maps them again from
/// the page cache (for a shared file mapping, nothing is lost).
const MADV_DONTNEED: c_int = 4;
/// `madvise`: fault the range's pages in readable, reading from the device
/// what the cache lacks (Linux 5.14 on).
const MADV_POPULATE_READ: c_int = 22;

/// The page a run is measured in. A run reads only the 4 KiB pages its
/// ranges touch, and so only the pages of any larger size they touch.
const PAGE: u64 = 4096;

/// The most iovecs one `preadv2` takes (Linux's `UIO_MAXIOV`).
const IOV_MAX: usize = 1024;

/// The longest gap a run reads through: a range that ends on the first
/// byte of a page, and a next one that starts on the last byte of the page
/// after.
const MAX_GAP: usize = 2 * PAGE as usize - 2;

/// The span a gather makes resident, copies from and releases at a time,
/// aligned in the file. It bounds the file pages a gathering thread has
/// mapped; a smaller window pays the `mincore`/`madvise` calls and their
/// TLB flushes more often (EXPERIMENTS.md, "Strided reads are gathered
/// from a mapping": 256 KiB, 512 KiB and 1 MiB measured).
pub const WINDOW: u64 = 512 << 10;

/// The span of addresses one page table maps (512 pages). No fault maps a
/// page outside the `REACH`-aligned block of the address it faults at —
/// fault-around and a large folio's pages alike stop at the table — so a
/// mapping placed at an address congruent to its file offsets modulo
/// `REACH` has each such block cover the same `REACH`-aligned offsets.
const REACH: u64 = 2 << 20;

/// The fewest pages the hull of a run with gaps spans for it to be
/// gathered. Below it the run's one `preadv2` copies fewer gap bytes than
/// a gather's `mincore` and `madvise` calls cost: at 64 B per page the
/// `subfile` bench's gather wins from 48 pages alone and from 64 with
/// another thread of the process busy.
pub const GATHER_MIN_PAGES: u64 = 64;

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
    /// `offset` is a 64-bit `off_t`; failure is `MAP_FAILED`, all ones.
    #[link_name = "mmap"]
    fn sys_mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    #[link_name = "munmap"]
    fn sys_munmap(addr: *mut c_void, len: usize) -> c_int;
    #[link_name = "madvise"]
    fn sys_madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    /// One byte per page of `addr..addr + len`; bit 0 set: cached.
    #[link_name = "mincore"]
    fn sys_mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> c_int;
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

/// A read-only shared mapping of a file's first bytes, as many as it was
/// made for, placed at an address congruent to offset 0 modulo `REACH`
/// (see the module header for why). Unmapped on drop. The address is kept
/// as an integer: the store shares a mapping between threads, and only
/// the methods below turn it back into a pointer.
pub struct Mapping {
    base: usize,
    /// Bytes mapped: the length asked for, rounded up to a page.
    len: usize,
}

impl Mapping {
    /// Map `file`'s first `len` bytes (rounded up to a page); `len` may
    /// exceed the file, as long as nothing touches a page past its end.
    /// Refused (`InvalidInput`) for 0 bytes or more than the address space.
    pub fn new(file: &File, len: u64) -> io::Result<Mapping> {
        let len = len
            .checked_next_multiple_of(PAGE)
            .and_then(|len| usize::try_from(len).ok())
            .filter(|&len| len > 0 && len <= isize::MAX as usize - REACH as usize)
            .ok_or(io::ErrorKind::InvalidInput)?;
        let room = len + REACH as usize;
        let fail = usize::MAX;
        // SAFETY: a fresh anonymous reservation the kernel places; it
        // overlaps nothing of the process's and nothing can touch it
        // (`PROT_NONE`).
        let start = unsafe {
            sys_mmap(
                std::ptr::null_mut(),
                room,
                PROT_NONE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        } as usize;
        if start == fail {
            return Err(io::Error::last_os_error());
        }
        let base = start.next_multiple_of(REACH as usize);
        // SAFETY: `base..base + len` lies inside the reservation just made
        // (it has `REACH` to spare), which only this call knows of, so
        // `MAP_FIXED` replaces nothing else. The descriptor stays open for
        // the call; the mapping holds its own reference to the file.
        let got = unsafe {
            sys_mmap(
                base as *mut c_void,
                len,
                PROT_READ,
                MAP_SHARED | MAP_FIXED,
                file.as_raw_fd(),
                0,
            )
        } as usize;
        let mapped = if got == fail {
            Err(io::Error::last_os_error())
        } else {
            Ok(Mapping { base, len })
        };
        // Give back what the file mapping does not cover: the head and the
        // tail of the reservation, or all of it if the mapping failed.
        let keep = if mapped.is_ok() {
            base..base + len
        } else {
            start..start
        };
        unmap(start, keep.start - start);
        unmap(keep.end, start + room - keep.end);
        mapped
    }

    /// Whether the mapping reaches `end`: a file of that size can be
    /// gathered from it.
    pub fn covers(&self, end: u64) -> bool {
        end <= self.len as u64
    }

    /// The address of offset 0.
    #[cfg(test)]
    pub(crate) fn addr(&self) -> usize {
        self.base
    }

    /// `madvise(advice)` over the pages `from..to` (page-aligned offsets,
    /// within the mapping). `EINTR` is retried.
    fn advise(&self, from: u64, to: u64, advice: c_int) -> io::Result<()> {
        assert!(from.is_multiple_of(PAGE) && from <= to && self.covers(to));
        loop {
            // SAFETY: the range lies inside this live mapping (asserted), so
            // no other memory of the process is advised; `DONTNEED` and
            // `POPULATE_READ` on a read-only shared file mapping change which
            // pages are mapped, never their contents.
            let rc = unsafe {
                sys_madvise(
                    (self.base + from as usize) as *mut c_void,
                    (to - from) as usize,
                    advice,
                )
            };
            if rc == 0 {
                return Ok(());
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }

    /// Unmap the pages of `from..to` (page-aligned offsets), clipped to
    /// the mapping; the page cache keeps them.
    fn release(&self, from: u64, to: u64) -> io::Result<()> {
        let to = to.min(self.len as u64);
        if from >= to {
            return Ok(());
        }
        self.advise(from, to, MADV_DONTNEED)
    }

    /// Whether the page cache holds every page of `from..to`, at most one
    /// window (page-aligned offsets within the mapping).
    fn cached(&self, from: u64, to: u64) -> io::Result<bool> {
        const PAGES: usize = (WINDOW / PAGE) as usize;
        let pages = (to - from).div_ceil(PAGE) as usize;
        assert!(pages <= PAGES && from.is_multiple_of(PAGE) && self.covers(to));
        let mut vec = [0u8; PAGES];
        // SAFETY: the range lies inside this live mapping (asserted) and
        // `vec` has a byte for each of its at most `PAGES` pages; the
        // kernel writes those and keeps no pointer.
        let rc = unsafe {
            sys_mincore(
                (self.base + from as usize) as *mut c_void,
                (to - from) as usize,
                vec.as_mut_ptr(),
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(vec[..pages].iter().all(|&page| page & 1 == 1))
    }

    /// Append the file's bytes `from..to` to `reply`.
    fn copy(&self, from: u64, to: u64, reply: &mut Vec<u8>) {
        assert!(from <= to && self.covers(to), "a copy past the mapping");
        let n = (to - from) as usize;
        reply.reserve(n);
        // SAFETY: the source lies inside this live, readable mapping
        // (asserted), below the end of the file its caller planned on, so
        // no touch raises `SIGBUS` (module header); the destination is
        // `reply`'s spare capacity, just reserved, which nothing aliases.
        // The `n` bytes written are then the ones `set_len` admits.
        unsafe {
            std::ptr::copy_nonoverlapping(
                (self.base + from as usize) as *const u8,
                reply.spare_capacity_mut().as_mut_ptr().cast::<u8>(),
                n,
            );
            reply.set_len(reply.len() + n);
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        unmap(self.base, self.len);
    }
}

/// `munmap` of `len` bytes at `addr`, a range of a mapping this module
/// made and nothing references any more; nothing for 0 bytes.
fn unmap(addr: usize, len: usize) {
    if len > 0 {
        // SAFETY: per the contract above; a failure leaves the range mapped
        // and unreachable, a leak of address space and nothing else.
        unsafe { sys_munmap(addr as *mut c_void, len) };
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

/// A run's nonempty ranges as `(start, end)` file offsets, below `eof`.
fn below(run: &[(u64, u64)], eof: u64) -> impl DoubleEndedIterator<Item = (u64, u64)> + '_ {
    run.iter()
        .filter(move |&&(off, len)| len > 0 && off < eof)
        .map(move |&(off, len)| (off, off + len.min(eof - off)))
}

/// Append to `reply` the bytes below `eof` of the run that leads `ranges`
/// (see [`run_len`]) and return how many ranges that was; what the run's
/// ranges ask for at or past `eof` is the caller's to zero. A run with
/// gaps whose hull spans at least [`GATHER_MIN_PAGES`] pages is gathered
/// from the mapping `map` returns (asked for only then; it must cover
/// `eof`); any other run, and a gathered one the kernel refuses to map or
/// populate (`map` gives `None`, `EINVAL`, `ENOMEM`), is read with one
/// `preadv2`.
///
/// With `nowait` nothing waits for the device: a page not cached makes
/// the read `WouldBlock`, and so does a file system or kernel that cannot
/// read without waiting (`EOPNOTSUPP`, `ENOSYS`). See [`preadv_run`] and
/// [`gather_run`] for what each way leaves in `reply` when it fails.
pub(crate) fn read_run<M: Deref<Target = Mapping>>(
    file: &File,
    map: impl FnOnce() -> Option<M>,
    ranges: &[(u64, u64)],
    eof: u64,
    reply: &mut Vec<u8>,
    nowait: bool,
) -> io::Result<usize> {
    let count = run_len(ranges, eof);
    let run = &ranges[..count];
    if let (Some((start, _)), Some((_, end))) =
        (below(run, eof).next(), below(run, eof).next_back())
    {
        let wanted: u64 = below(run, eof).map(|(off, stop)| stop - off).sum();
        let pages = end.div_ceil(PAGE) - start / PAGE;
        if wanted < end - start && pages >= GATHER_MIN_PAGES {
            if let Some(map) = map() {
                match gather(&map, run, eof, reply, nowait) {
                    Err(e) if refused(&e) => {}
                    gathered => return gathered.map(|()| count),
                }
            }
        }
    }
    preadv(file, run, eof, reply, nowait).map(|()| count)
}

/// `read_run` by one `preadv2` of the run's hull, whatever its shape.
/// `reply` grows only over bytes the kernel wrote. A short blocking read
/// resumes at the first byte not read; end of file before the run's end is
/// `UnexpectedEof`. `EINTR` is retried.
pub fn preadv_run(
    file: &File,
    ranges: &[(u64, u64)],
    eof: u64,
    reply: &mut Vec<u8>,
    nowait: bool,
) -> io::Result<usize> {
    let count = run_len(ranges, eof);
    preadv(file, &ranges[..count], eof, reply, nowait).map(|()| count)
}

/// `read_run` gathered from `map`, whatever the run's shape. On any
/// error `reply` is left as it was: a nowait gather that meets a page not
/// cached is `WouldBlock` having appended nothing.
pub fn gather_run(
    map: &Mapping,
    ranges: &[(u64, u64)],
    eof: u64,
    reply: &mut Vec<u8>,
    nowait: bool,
) -> io::Result<usize> {
    let count = run_len(ranges, eof);
    gather(map, &ranges[..count], eof, reply, nowait).map(|()| count)
}

/// Whether a gather failed because the kernel would not map, populate or
/// advise at all (`EINVAL`: `MADV_POPULATE_READ` before Linux 5.14; a
/// mapping too short; `ENOMEM`), so the run is read instead.
fn refused(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::InvalidInput | io::ErrorKind::OutOfMemory
    )
}

fn preadv(
    file: &File,
    run: &[(u64, u64)],
    eof: u64,
    reply: &mut Vec<u8>,
    nowait: bool,
) -> io::Result<()> {
    let (Some((mut pos, _)), Some((_, end))) =
        (below(run, eof).next(), below(run, eof).next_back())
    else {
        return Ok(());
    };
    reply.reserve(
        below(run, eof)
            .map(|(off, stop)| (stop - off) as usize)
            .sum(),
    );
    let flags = if nowait { RWF_NOWAIT } else { 0 };
    let mut discard = MaybeUninit::<[u8; MAX_GAP]>::uninit();
    let mut iov = [const { MaybeUninit::<IoVec>::uninit() }; IOV_MAX];
    while pos < end {
        // Describe `pos..end`: the ranges' bytes not read yet go one after
        // the other to the end of `reply`, the gaps all to `discard`.
        let spare = reply.spare_capacity_mut().as_mut_ptr();
        let (mut n, mut at, mut filled) = (0, pos, 0);
        for (off, stop) in below(run, eof).filter(|&(_, stop)| stop > pos) {
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
        let new: u64 = below(run, eof)
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
    Ok(())
}

/// Copy `run`'s bytes below `eof` out of `map` into `reply`, one aligned
/// [`WINDOW`] at a time: make the pages of the run's hull in the window
/// resident (`nowait`: only if `mincore` finds them all cached, else
/// `WouldBlock`), copy, release the whole window. Then, whatever happened,
/// release the [`REACH`]-aligned blocks around the hull: a fault maps
/// cached neighbours of its page as far as the kernel's fault-around
/// reaches, which the window releases cover only when it reaches no
/// further than a window. `reply` is truncated back on any error.
fn gather(
    map: &Mapping,
    run: &[(u64, u64)],
    eof: u64,
    reply: &mut Vec<u8>,
    nowait: bool,
) -> io::Result<()> {
    let (Some((start, _)), Some((_, end))) = (below(run, eof).next(), below(run, eof).next_back())
    else {
        return Ok(());
    };
    let (first, stop) = (start / PAGE * PAGE, end.div_ceil(PAGE) * PAGE);
    if !map.covers(stop) {
        return Err(io::ErrorKind::InvalidInput.into());
    }
    let at = reply.len();
    reply.reserve(below(run, eof).map(|(off, end)| (end - off) as usize).sum());
    let copied = copy_windows(map, below(run, eof), first, stop, reply, nowait);
    let swept = map.release(first / REACH * REACH, stop.next_multiple_of(REACH));
    let done = copied.and(swept);
    if done.is_err() {
        reply.truncate(at);
    }
    done
}

/// [`gather`]'s window loop over the pages `first..stop` that `ranges`
/// (sorted, disjoint, inside those pages) touch.
fn copy_windows(
    map: &Mapping,
    ranges: impl Iterator<Item = (u64, u64)>,
    first: u64,
    stop: u64,
    reply: &mut Vec<u8>,
    nowait: bool,
) -> io::Result<()> {
    let mut ranges = ranges.peekable();
    let mut page = first;
    while page < stop {
        let window = page / WINDOW * WINDOW;
        let upto = stop.min(window + WINDOW);
        let resident = if nowait {
            map.cached(page, upto)?
        } else {
            map.advise(page, upto, MADV_POPULATE_READ).map(|()| true)?
        };
        if !resident {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        while let Some(&(off, end)) = ranges.peek() {
            if off >= upto {
                break;
            }
            map.copy(off.max(page), end.min(upto), reply);
            if end > upto {
                break;
            }
            ranges.next();
        }
        map.release(window, window + WINDOW)?;
        page = upto;
    }
    Ok(())
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
        // Removed, not truncated: nothing in the server's sources shrinks a
        // file (`ci.sh` greps for it).
        let _ = std::fs::remove_file(&path);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
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

    /// Evict `len` bytes at `offset` and check that the nowait read `read`
    /// would now wait. The advice skips a page something holds for a
    /// moment, so it is given up to five times; a file system that keeps
    /// its pages whatever the advice only earns a note.
    fn evicted_and_would_wait<T>(
        file: &File,
        path: &std::path::Path,
        read: impl Fn() -> io::Result<T>,
        offset: i64,
        len: i64,
    ) {
        for _ in 0..5 {
            evict(file, offset, len);
            match read() {
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

    /// One run read from an empty reply with one `preadv2`: its bytes and
    /// how many ranges it took.
    fn run(file: &File, ranges: &[(u64, u64)], nowait: bool) -> io::Result<(Vec<u8>, usize)> {
        let eof = file.metadata()?.len();
        let mut reply = Vec::new();
        let n = read_run(file, || None::<&Mapping>, ranges, eof, &mut reply, nowait)?;
        Ok((reply, n))
    }

    /// The bytes of `ranges`, read one by one.
    fn each(data: &[u8], ranges: &[(u64, u64)]) -> Vec<u8> {
        ranges
            .iter()
            .flat_map(|&(off, len)| &data[off as usize..(off + len) as usize])
            .copied()
            .collect()
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
        evicted_and_would_wait(
            &file,
            &path,
            || run(&file, &[(32 * 4096, 4096)], true),
            0,
            0,
        );
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
        let below = each(&data, &ranges[..4]);
        for (nowait, kind) in [
            (false, io::ErrorKind::UnexpectedEof),
            (true, io::ErrorKind::WouldBlock),
        ] {
            let mut reply = Vec::new();
            let eof = 2 * data.len() as u64;
            let e = read_run(&file, || None::<&Mapping>, &ranges, eof, &mut reply, nowait);
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
        let want = each(&data, &ranges);
        assert_eq!(run(&file, &ranges, true).unwrap(), (want.clone(), 64));
        evicted_and_would_wait(&file, &path, || run(&file, &ranges, true), 40 * 4096, 4096);
        assert_eq!(run(&file, &ranges, false).unwrap(), (want.clone(), 64));
        assert_eq!(run(&file, &ranges, true).unwrap(), (want, 64));
        std::fs::remove_file(path).unwrap();
    }

    /// A gathered run on a thread that must not wait: one page missing
    /// from the cache in the run's second window makes the read
    /// `WouldBlock` with nothing appended — not even the first window's
    /// bytes — and the blocking read brings it in and returns every byte.
    /// Whether the file system evicts at all is told by a second page far
    /// outside the run, evicted after the gather (a fault reads around
    /// itself, as far as the device's readahead) and probed by a
    /// `RWF_NOWAIT` read: where that page went, the gather must have waited
    /// (five tries, for a page the advice skipped).
    #[test]
    fn a_gather_with_one_evicted_page_would_wait_having_appended_nothing() {
        let pages = 2 * WINDOW / PAGE;
        let (file, data, path) = synced_file("gather", 2 * pages as usize + 128);
        let eof = data.len() as u64;
        let map = Mapping::new(&file, eof).unwrap();
        let ranges: Vec<(u64, u64)> = (0..pages).map(|i| (i * PAGE + 100, 64)).collect();
        let want = each(&data, &ranges);
        let gathered = |nowait| {
            let mut reply = b"head".to_vec();
            let got = read_run(&file, || Some(&map), &ranges, eof, &mut reply, nowait);
            (got, reply)
        };
        for nowait in [true, false] {
            let (got, reply) = gathered(nowait);
            assert_eq!(got.unwrap(), ranges.len());
            assert!(reply[4..] == want[..] && reply.starts_with(b"head"));
        }
        let (inside, far) = (WINDOW + 40 * PAGE, eof - 8 * PAGE);
        let mut evictions = 0;
        for _ in 0..5 {
            evict(&file, inside as i64, PAGE as i64);
            let (got, reply) = gathered(true);
            if let Err(e) = got {
                assert_eq!(e.kind(), io::ErrorKind::WouldBlock, "{e}");
                assert_eq!(reply, b"head", "a gather that would wait appended bytes");
                evictions = -1;
                break;
            }
            evict(&file, far as i64, PAGE as i64);
            if run(&file, &[(far, 64)], true).is_err() {
                evictions += 1;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            evictions < 5,
            "a nowait gather read a page the file system had evicted"
        );
        if evictions == 0 {
            eprintln!(
                "sys: the file system under {} kept evicted pages; \
                 the would-block half of this test did not run",
                path.display()
            );
        }
        let (got, reply) = gathered(false);
        assert_eq!(got.unwrap(), ranges.len());
        assert!(reply[4..] == want[..]);
        std::fs::remove_file(path).unwrap();
    }

    /// Each way reads any run the other does, to the same bytes: dense,
    /// sparse, across window edges, across the end of the file.
    #[test]
    fn a_gather_and_a_preadv_return_the_same_bytes() {
        let (file, data, path) = synced_file("ways", 300);
        let eof = data.len() as u64 - 1000;
        let map = Mapping::new(&file, eof).unwrap();
        let strided = |start: u64, stride: u64, len: u64, count: u64| {
            (0..count)
                .map(|i| (start + i * stride, len))
                .collect::<Vec<_>>()
        };
        for ranges in [
            strided(0, 4096, 64, 300),
            strided(WINDOW - 3 * PAGE + 7, 5000, 900, 40),
            strided(4000, 4096, 4000, 290),
            strided(eof - 64 * PAGE, 4096, 128, 80),
            vec![(17, 1), (4096 * 200, 0), (8000, 3)],
            vec![(eof + 1, 10)],
        ] {
            let mut rest = &ranges[..];
            while !rest.is_empty() {
                let (mut read, mut gathered) = (Vec::new(), Vec::new());
                let n = preadv_run(&file, rest, eof, &mut read, false).unwrap();
                assert_eq!(gather_run(&map, rest, eof, &mut gathered, true).unwrap(), n);
                assert!(read == gathered, "{} ranges from {:?}", n, rest[0]);
                rest = &rest[n..];
            }
        }
        std::fs::remove_file(path).unwrap();
    }
}
