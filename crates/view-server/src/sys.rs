//! Minimal direct FFI over the handful of Linux syscalls the readiness
//! reactor needs and std does not offer: `epoll` and `eventfd`.
//!
//! The workspace is offline and carries no `libc` crate, so the reactor
//! declares the few `extern "C"` signatures it needs against the C
//! library directly. Everything unsafe is confined to this module; the
//! rest of the crate sees only the safe [`Epoll`] and [`EventFd`]
//! wrappers, which translate failures into `io::Error` via `errno`
//! exactly as std does. (Vectored writes go through std's
//! `write_vectored` on the socket itself.)
//!
//! Only the constants and operations the reactor actually uses are
//! bound — this is deliberately not a general-purpose binding layer.

use std::io;
use std::os::unix::io::RawFd;

/// Readiness: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// Condition: an error is pending on the fd.
pub const EPOLLERR: u32 = 0x008;
/// Condition: hangup — the peer closed its end entirely.
pub const EPOLLHUP: u32 = 0x010;
/// Condition: the peer shut down its write half (half-close). Reported
/// without this flag being requested on some kernels, so the reactor
/// always treats it as "drain then close".
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// One epoll readiness record: an event mask plus the caller's opaque
/// 64-bit tag (the reactor stores connection-slab slot indices there).
///
/// The kernel ABI packs this struct on x86_64 (and only there), which
/// glibc mirrors with `__attribute__((packed))`; the `cfg_attr` keeps
/// the layout byte-identical on both shapes of the ABI.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Debug)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness/condition flags.
    pub events: u32,
    /// Caller-owned tag returned verbatim with each readiness record.
    pub data: u64,
}

impl EpollEvent {
    /// An empty (zeroed) record, used to size `epoll_wait` buffers.
    pub const fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance: one readiness queue, closed on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // translated to errno by cvt.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    /// Register `fd` for `events`, tagging readiness records with `tag`.
    pub fn add(&self, fd: RawFd, events: u32, tag: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, tag)
    }

    /// Change the interest mask (and tag) of an already-registered fd.
    pub fn modify(&self, fd: RawFd, events: u32, tag: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, tag)
    }

    /// Deregister `fd`. Harmless if the fd was never registered.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, tag: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: tag };
        // SAFETY: `ev` outlives the call; the kernel copies it before
        // returning (and ignores it entirely for EPOLL_CTL_DEL).
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Block up to `timeout_ms` for readiness; fills `events` from the
    /// front and returns how many records landed. A timeout returns
    /// `Ok(0)`; `EINTR` is retried internally so callers never see it.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the events pointer and capacity describe a live,
            // exclusively borrowed slice for the duration of the call.
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len().min(i32::MAX as usize) as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: the fd is owned by this struct and closed exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

/// An owned eventfd used to wake a blocked `epoll_wait` from another
/// thread (connection handoff, shutdown). Nonblocking on both ends.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Create a nonblocking, close-on-exec eventfd with counter zero.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: eventfd takes no pointers; errors map through errno.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The raw fd, for registration with an [`Epoll`].
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Bump the counter, making the fd readable. A full counter
    /// (`EAGAIN`) already means "wake pending", so it is not an error.
    pub fn signal(&self) -> io::Result<()> {
        let one: u64 = 1;
        // SAFETY: the 8-byte buffer lives across the call; eventfd
        // writes require exactly 8 bytes.
        let n = unsafe { write(self.fd, one.to_ne_bytes().as_ptr(), 8) };
        if n == 8 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::WouldBlock {
            return Ok(());
        }
        Err(err)
    }

    /// Reset the counter so the fd stops reading ready. Pending wakes
    /// collapse into one drain — exactly the semantics a wakeup needs.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: the 8-byte buffer lives across the call.
        let _ = unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: the fd is owned by this struct and closed exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn eventfd_wakes_epoll() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw_fd(), EPOLLIN, 42).unwrap();
        let mut buf = [EpollEvent::zeroed(); 4];
        // Nothing signalled yet: wait times out empty.
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);
        ev.signal().unwrap();
        ev.signal().unwrap(); // coalesces with the first
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        let tag = buf[0].data;
        assert_eq!(tag, 42);
        ev.drain();
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0, "drained fd is quiet");
    }

    #[test]
    fn epoll_reports_socket_readability() {
        let (a, b) = UnixStream::pair().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(a.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 7).unwrap();
        let mut buf = [EpollEvent::zeroed(); 4];
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);
        (&b).write_all(b"hello").unwrap();
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        let mask = buf[0].events;
        assert_ne!(mask & EPOLLIN, 0);
        let mut got = [0u8; 5];
        let mut ar = &a;
        ar.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello");
        // Peer half-close surfaces as RDHUP/HUP readiness.
        drop(b);
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        let mask = buf[0].events;
        assert_ne!(mask & (EPOLLRDHUP | EPOLLHUP | EPOLLIN), 0);
        ep.delete(a.as_raw_fd()).unwrap();
    }
}
