//! The one system call the front door needs beyond `std`: `poll(2)`,
//! declared directly (Unix only, no extra crate), plus the self-pipe
//! [`Waker`] other threads use to interrupt a poll.

use std::io::{Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

pub(crate) const POLLIN: i16 = 0x1;
pub(crate) const POLLOUT: i16 = 0x4;
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;
/// Readiness a read should handle: data, or a hang-up or error the read
/// will report.
pub(crate) const READABLE: i16 = POLLIN | POLLERR | POLLHUP;
/// Readiness a write should handle, likewise.
pub(crate) const WRITABLE: i16 = POLLOUT | POLLERR | POLLHUP;

/// `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    pub(crate) revents: i16,
}

impl PollFd {
    /// Interest in `events` on `fd`; a negative `fd` is skipped by the
    /// kernel (it reports nothing, not even a hang-up).
    pub(crate) fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

#[cfg(target_os = "linux")]
type NFds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NFds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
}

/// Blocks until some entry of `fds` is ready or `timeout` (rounded up
/// to whole milliseconds; `None` = forever) passes, leaving each
/// entry's `revents` set. A failed poll (`EINTR`, `ENOMEM`) reads as a
/// wake-up with nothing ready: every caller re-checks its own state and
/// polls again.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    let ms = timeout.map_or(-1, |t| {
        t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
    });
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // `struct pollfd`s, and `nfds` is its length; the kernel writes only
    // the `revents` fields within it.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, ms) };
}

/// A self-pipe: a byte written to one end makes a poll on the other
/// end's descriptor return.
#[derive(Debug)]
pub(crate) struct Waker {
    rx: UnixStream,
    tx: UnixStream,
}

impl Waker {
    pub(crate) fn new() -> std::io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    /// The descriptor to poll for `POLLIN`.
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Makes the next (or current) poll on [`fd`](Self::fd) return.
    /// Never blocks: when the pipe is full, a wake-up is already owed.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes every pending wake-up.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}
