//! The readiness syscall and the [`Poller`] over it.
//!
//! The workspace is dependency-free, so readiness notification cannot
//! come from `mio`/`libc`; instead this module declares the one symbol
//! it needs, `poll(2)` (part of every libc the workspace can link
//! against), and wraps it in safe types. This is the only module in the
//! workspace allowed to contain `unsafe` — everything above it works
//! with the safe [`Poller`].
//!
//! One poller on every platform: level-triggered `poll(2)`, rebuilding
//! the fd array from the registration table on every
//! [`wait`](Poller::wait) — O(fds) per iteration, and the same code
//! path on any POSIX system.
#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;

/// Which readiness conditions a registration watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Interest {
    /// Wake when the fd has readable data (or a pending accept).
    pub(crate) readable: bool,
    /// Wake when the fd can be written without blocking.
    pub(crate) writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub(crate) const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// No interest: the fd stays registered (errors/hangups still
    /// surface) but neither data nor write space wakes the loop.
    pub(crate) const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the fd was registered under.
    pub(crate) token: u64,
    /// Readable (data, accept, or EOF pending).
    pub(crate) readable: bool,
    /// Writable without blocking.
    pub(crate) writable: bool,
    /// Error or hangup reported by the kernel.
    pub(crate) error: bool,
}

/// Readable data (or a pending accept on a listener).
const POLLIN: i16 = 0x001;
/// Writable without blocking.
const POLLOUT: i16 = 0x004;
/// Error condition on the fd (always reported, need not be requested).
const POLLERR: i16 = 0x008;
/// Peer hung up (always reported, need not be requested).
const POLLHUP: i16 = 0x010;

/// One entry of a `poll(2)` fd set, layout-identical to libc's
/// `struct pollfd` (`int`, `short`, `short` on every POSIX ABI).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    /// The file descriptor to watch.
    fd: RawFd,
    /// Requested events (`POLLIN` / `POLLOUT` bits).
    events: i16,
    /// Returned events, filled by the kernel.
    revents: i16,
}

impl PollFd {
    /// An entry watching `fd` for `events`.
    fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Did the kernel report any of `bits` for this entry?
    fn has(&self, bits: i16) -> bool {
        self.revents & bits != 0
    }
}

/// libc's `nfds_t`: `unsigned long` in glibc and musl, `unsigned int`
/// in Darwin, the BSDs and bionic.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    // `timeout` is milliseconds (-1 = infinite).
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
}

/// Block until at least one entry in `fds` is ready or `timeout_ms`
/// elapses (`-1` waits forever). Returns the number of ready entries
/// (zero on timeout) and retries transparently on `EINTR`.
///
/// # Errors
/// A set too large for `nfds_t`, or any `poll(2)` failure other than
/// `EINTR` (e.g. `EINVAL` past `RLIMIT_NOFILE`), as an [`io::Error`].
fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    let nfds = Nfds::try_from(fds.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many fds to poll"))?;
    loop {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd-layout structs, `nfds` is its length, and
        // the kernel writes only the `revents` field of those entries.
        let rc = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
        if let Ok(ready) = usize::try_from(rc) {
            return Ok(ready);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Readiness multiplexing: register fds once under a caller-chosen
/// token, then [`wait`](Poller::wait) repeatedly. The registration
/// table is flattened into a fresh `pollfd` array on every wait, and
/// each returned `revents` maps back to its token by position.
pub(crate) struct Poller {
    entries: Vec<(RawFd, u64, Interest)>,
    fds: Vec<PollFd>,
}

impl Poller {
    /// A poller watching nothing.
    pub(crate) fn new() -> Self {
        Poller {
            entries: Vec::new(),
            fds: Vec::new(),
        }
    }

    /// Start watching `fd` under `token` with the given interest.
    ///
    /// # Errors
    /// `fd` is already registered.
    pub(crate) fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.entries.iter().any(|&(f, _, _)| f == fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.entries.push((fd, token, interest));
        Ok(())
    }

    /// Change the interest set (and token) of an already-registered fd.
    ///
    /// # Errors
    /// The fd was never registered.
    pub(crate) fn reregister(
        &mut self,
        fd: RawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        let entry = self
            .entries
            .iter_mut()
            .find(|(f, _, _)| *f == fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        entry.1 = token;
        entry.2 = interest;
        Ok(())
    }

    /// Stop watching `fd` entirely.
    ///
    /// # Errors
    /// Never: an unknown fd is *not* an error (close races).
    pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.entries.retain(|&(f, _, _)| f != fd);
        Ok(())
    }

    /// Clear `events` and fill it with ready registrations, blocking up
    /// to `timeout_ms` milliseconds (0 = poll without blocking).
    ///
    /// # Errors
    /// A fatal `poll(2)` failure (`EINTR` is retried inside).
    pub(crate) fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        events.clear();
        self.fds.clear();
        for &(fd, _, interest) in &self.entries {
            let mut bits = 0i16;
            if interest.readable {
                bits |= POLLIN;
            }
            if interest.writable {
                bits |= POLLOUT;
            }
            self.fds.push(PollFd::new(fd, bits));
        }
        if poll_fds(&mut self.fds, timeout_ms)? == 0 {
            return Ok(());
        }
        for (entry, fd) in self.entries.iter().zip(self.fds.iter()) {
            if fd.revents != 0 {
                events.push(Event {
                    token: entry.1,
                    readable: fd.has(POLLIN),
                    writable: fd.has(POLLOUT),
                    error: fd.has(POLLERR | POLLHUP),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn poll_times_out_on_a_silent_socket() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let ready = poll_fds(&mut fds, 10).unwrap();
        assert_eq!(ready, 0);
        assert!(!fds[0].has(POLLIN));
    }

    #[test]
    fn poll_reports_readable_after_a_write() {
        let (a, mut b) = UnixStream::pair().unwrap();
        b.write_all(&[1]).unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let ready = poll_fds(&mut fds, 1000).unwrap();
        assert_eq!(ready, 1);
        assert!(fds[0].has(POLLIN));
    }

    #[test]
    fn poll_reports_hangup_on_a_closed_peer() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let ready = poll_fds(&mut fds, 1000).unwrap();
        assert_eq!(ready, 1);
        assert!(fds[0].has(POLLIN | POLLHUP));
    }

    /// The poller's readiness story for one socket: silent → timeout,
    /// write → readable on the right token, writable interest →
    /// writable, deregister → silence.
    #[test]
    fn backends_agree_on_readiness() {
        let mut poller = Poller::new();
        let mut events = Vec::new();
        let (a, mut b) = UnixStream::pair().unwrap();
        poller.register(a.as_raw_fd(), 7, Interest::READ).unwrap();

        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "silent socket woke");

        b.write_all(&[42]).unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Writable interest on an idle socket fires immediately.
        poller
            .reregister(
                a.as_raw_fd(),
                9,
                Interest {
                    readable: false,
                    writable: true,
                },
            )
            .unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert!(
            events.iter().any(|e| e.token == 9 && e.writable),
            "no writable event"
        );

        poller.deregister(a.as_raw_fd()).unwrap();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "deregistered fd woke");
    }
}
