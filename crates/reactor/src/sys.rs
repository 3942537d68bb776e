//! Raw readiness syscalls and the [`Poller`] abstraction over them.
//!
//! The workspace is dependency-free, so readiness notification cannot
//! come from `mio`/`libc`; instead this module declares the handful of
//! symbols it needs (part of every libc the workspace can link against)
//! and wraps them in safe types. This is the only module in the
//! workspace allowed to contain `unsafe` — everything above it works
//! with the safe [`Poller`] trait.
//!
//! One [`Poller`] per platform, chosen at compile time by
//! [`new_poller`]:
//!
//! - Linux: level-triggered `epoll` — persistent fd registration in a
//!   kernel interest list; `epoll_wait` returns only the ready
//!   descriptors, so a quiet connection costs nothing per iteration.
//! - everywhere else: `poll(2)`, rebuilding the fd array from the
//!   registration table on every [`wait`](Poller::wait) — O(fds) per
//!   iteration, but runs on any POSIX system. (Linux builds compile it
//!   for the unit tests only.)
#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;

// ----------------------------------------------------------------------
// The Poller trait
// ----------------------------------------------------------------------

/// Which readiness conditions a registration watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake when the fd has readable data (or a pending accept).
    pub readable: bool,
    /// Wake when the fd can be written without blocking.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// No interest: the fd stays registered (errors/hangups still
    /// surface) but neither data nor write space wakes the loop.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (data, accept, or EOF pending).
    pub readable: bool,
    /// Writable without blocking.
    pub writable: bool,
    /// Error or hangup reported by the kernel.
    pub error: bool,
}

/// Readiness multiplexing behind a backend-neutral interface: register
/// fds once under a caller-chosen token, then [`wait`](Poller::wait)
/// repeatedly. Implementations: epoll (persistent kernel interest
/// list) and `poll(2)` (portable rebuild-per-wait fallback).
pub trait Poller: Send {
    /// Start watching `fd` under `token` with the given interest.
    ///
    /// # Errors
    /// Kernel registration failure (bad fd, duplicate registration).
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;

    /// Change the interest set (and token) of an already-registered fd.
    ///
    /// # Errors
    /// Kernel failure, or the fd was never registered.
    fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;

    /// Stop watching `fd` entirely.
    ///
    /// # Errors
    /// Kernel failure; an unknown fd is *not* an error (close races).
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;

    /// Clear `events` and fill it with ready registrations, blocking up
    /// to `timeout_ms` milliseconds (0 = poll without blocking).
    ///
    /// # Errors
    /// A fatal readiness-syscall failure (`EINTR` is retried inside).
    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()>;
}

/// Construct this platform's poller: level-triggered `epoll` on
/// Linux, `poll(2)` everywhere else — same trait, same semantics.
///
/// # Errors
/// Kernel failure creating the epoll instance.
pub fn new_poller() -> io::Result<Box<dyn Poller>> {
    #[cfg(target_os = "linux")]
    return Ok(Box::new(epoll::EpollPoller::new()?));
    #[cfg(not(target_os = "linux"))]
    return Ok(Box::new(poll::PollPoller::new()));
}

// ----------------------------------------------------------------------
// poll(2) (everything but Linux; on Linux, the unit tests)
// ----------------------------------------------------------------------

#[cfg(any(test, not(target_os = "linux")))]
mod poll {
    use super::{Event, Interest, Poller};
    use std::io;
    use std::os::fd::RawFd;

    /// Readable data (or a pending accept on a listener).
    pub const POLLIN: i16 = 0x001;
    /// Writable without blocking.
    pub const POLLOUT: i16 = 0x004;
    /// Error condition on the fd (always reported, need not be requested).
    pub const POLLERR: i16 = 0x008;
    /// Peer hung up (always reported, need not be requested).
    pub const POLLHUP: i16 = 0x010;

    /// One entry of a `poll(2)` fd set, layout-identical to libc's
    /// `struct pollfd`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        /// The file descriptor to watch.
        pub fd: RawFd,
        /// Requested events (`POLLIN` / `POLLOUT` bits).
        pub events: i16,
        /// Returned events, filled by the kernel.
        pub revents: i16,
    }

    impl PollFd {
        /// An entry watching `fd` for `events`.
        #[must_use]
        pub fn new(fd: RawFd, events: i16) -> Self {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }

        /// Did the kernel report any of `bits` for this entry?
        #[must_use]
        pub fn has(&self, bits: i16) -> bool {
            self.revents & bits != 0
        }
    }

    extern "C" {
        // `nfds_t` is `unsigned long` on every Linux ABI this workspace
        // targets; `timeout` is milliseconds (-1 = infinite).
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Block until at least one entry in `fds` is ready or `timeout_ms`
    /// elapses (`-1` waits forever). Returns the number of ready entries
    /// (zero on timeout) and retries transparently on `EINTR`.
    ///
    /// # Errors
    /// Any `poll(2)` failure other than `EINTR` (e.g. `EINVAL` for an
    /// oversized set) is returned as the corresponding [`io::Error`].
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `fds` is a valid, exclusively borrowed slice of
            // `#[repr(C)]` pollfd-layout structs; the kernel writes only the
            // `revents` field of the `fds.len()` entries passed.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// The portable fallback: a registration table flattened into a fresh
    /// `pollfd` array on every wait (the O(fds) rebuild the epoll backend
    /// exists to avoid).
    pub(super) struct PollPoller {
        entries: Vec<(RawFd, u64, Interest)>,
        fds: Vec<PollFd>,
    }

    impl PollPoller {
        pub(super) fn new() -> Self {
            PollPoller {
                entries: Vec::new(),
                fds: Vec::new(),
            }
        }
    }

    impl Poller for PollPoller {
        fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            if self.entries.iter().any(|&(f, _, _)| f == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.entries.push((fd, token, interest));
            Ok(())
        }

        fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let entry = self
                .entries
                .iter_mut()
                .find(|(f, _, _)| *f == fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            entry.1 = token;
            entry.2 = interest;
            Ok(())
        }

        fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.entries.retain(|&(f, _, _)| f != fd);
            Ok(())
        }

        fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
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
            let ready = poll_fds(&mut self.fds, timeout_ms)?;
            if ready == 0 {
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
}

// ----------------------------------------------------------------------
// epoll (Linux)
// ----------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod epoll {
    use super::{Event, Interest, Poller};
    use std::io;
    use std::os::fd::RawFd;

    const EPOLL_CLOEXEC: i32 = 0x8_0000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    /// Layout-identical to the kernel's `struct epoll_event`, which is
    /// `__attribute__((packed))` on x86-64.
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// The Linux poller: one epoll instance per reactor shard with
    /// persistent registrations — `wait` returns only ready fds, so
    /// idle connections cost nothing per iteration.
    pub(super) struct EpollPoller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl EpollPoller {
        pub(super) fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 takes a flags word and returns a
            // fresh fd (or -1); no memory is passed to the kernel.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EpollPoller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn bits(interest: Interest) -> u32 {
            let mut events = 0u32;
            if interest.readable {
                events |= EPOLLIN;
            }
            if interest.writable {
                events |= EPOLLOUT;
            }
            events
        }

        fn ctl(&self, op: i32, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
            let mut ev = event.unwrap_or(EpollEvent { events: 0, data: 0 });
            // SAFETY: `ev` is a valid, exclusively borrowed
            // `#[repr(C, packed)]` struct matching the kernel's
            // epoll_event layout; the kernel only reads it (and ignores
            // the pointer entirely for EPOLL_CTL_DEL on modern kernels,
            // where passing a valid dummy is still correct).
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            // SAFETY: `epfd` is a live epoll fd owned exclusively by
            // this poller; closing it at most once is the Drop contract.
            unsafe {
                close(self.epfd);
            }
        }
    }

    impl Poller for EpollPoller {
        fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let ev = EpollEvent {
                events: Self::bits(interest),
                data: token,
            };
            self.ctl(EPOLL_CTL_ADD, fd, Some(ev))
        }

        fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let ev = EpollEvent {
                events: Self::bits(interest),
                data: token,
            };
            self.ctl(EPOLL_CTL_MOD, fd, Some(ev))
        }

        fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            match self.ctl(EPOLL_CTL_DEL, fd, None) {
                // A close may already have removed the fd from the
                // interest list; deregistering it again is not a bug.
                Err(e) if e.raw_os_error() == Some(2) || e.raw_os_error() == Some(9) => Ok(()),
                other => other,
            }
        }

        fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            let ready = loop {
                // SAFETY: `buf` is a valid, exclusively borrowed slice
                // of `#[repr(C, packed)]` epoll_event structs; the
                // kernel writes at most `buf.len()` entries and returns
                // how many.
                let rc = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        i32::try_from(self.buf.len()).unwrap_or(i32::MAX),
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &self.buf[..ready] {
                let bits = ev.events;
                events.push(Event {
                    token: ev.data,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            // A full buffer means more fds may be ready; grow so the
            // next wait drains them in one call.
            if ready == self.buf.len() {
                self.buf
                    .resize(self.buf.len() * 2, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::poll::{poll_fds, PollFd, PollPoller, POLLHUP, POLLIN};
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

    /// Both pollers report the same readiness story for the same socket
    /// activity: silent → timeout, write → readable on the right token,
    /// writable interest → writable, deregister → silence.
    #[test]
    fn backends_agree_on_readiness() {
        let pollers: [(&str, Box<dyn Poller>); 2] = [
            ("poll", Box::new(PollPoller::new())),
            ("platform", new_poller().unwrap()),
        ];
        for (name, mut poller) in pollers {
            let mut events = Vec::new();
            let (a, mut b) = UnixStream::pair().unwrap();
            poller.register(a.as_raw_fd(), 7, Interest::READ).unwrap();

            poller.wait(&mut events, 0).unwrap();
            assert!(events.is_empty(), "{name}: silent socket woke");

            b.write_all(&[42]).unwrap();
            poller.wait(&mut events, 1000).unwrap();
            assert_eq!(events.len(), 1, "{name}");
            assert_eq!(events[0].token, 7, "{name}");
            assert!(events[0].readable, "{name}");

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
                "{name}: no writable event"
            );

            poller.deregister(a.as_raw_fd()).unwrap();
            poller.wait(&mut events, 0).unwrap();
            assert!(events.is_empty(), "{name}: deregistered fd woke");
        }
    }
}
