//! `poll(2)`: the one foreign call in the tree, and one of its two `unsafe`
//! sites (the other is `dpfs-meta`'s CRC kernel, `clmul.rs`). Every crate
//! root carries `#![deny(unsafe_code)]`; these two files alone lift it.
#![allow(unsafe_code)]

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Readable (for a listener: a connection is waiting).
pub(crate) const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x004;

/// The only line another unix may need to change (Linux: `unsigned long`;
/// the BSDs and macOS: `unsigned int`).
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

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: nfds_t, timeout: c_int) -> c_int;
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
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
}
