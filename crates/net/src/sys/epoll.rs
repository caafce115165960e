//! The Linux epoll poller: raw-syscall wrappers around `epoll_create1` /
//! `epoll_ctl` / `epoll_wait`, declared against the C library std already
//! links. Level-triggered (the reactor re-arms nothing), O(ready) per wait.

use super::linux_impl::timeout_ms;
use super::{Event, Interest};
use std::ffi::c_int;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// `struct epoll_event`. The kernel ABI packs it on x86-64 (12 bytes); on
/// every other architecture it is laid out naturally.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

fn interest_bits(interest: Interest) -> u32 {
    // EPOLLRDHUP is always armed: a peer half-close must wake the reactor
    // even when read interest is (temporarily) withdrawn for backpressure,
    // or a closed connection could linger until its next event.
    let mut bits = EPOLLRDHUP;
    if interest.readable {
        bits |= EPOLLIN;
    }
    if interest.writable {
        bits |= EPOLLOUT;
    }
    bits
}

/// One epoll instance plus its reusable kernel-facing event buffer.
pub(crate) struct Poller {
    epfd: OwnedFd,
    buf: Vec<EpollEvent>,
}

impl Poller {
    pub(crate) fn new() -> std::io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is an
        // error, otherwise the fd is owned here (and closed by OwnedFd).
        #[allow(unsafe_code, reason = "raw syscall: std exposes no epoll")]
        let raw = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if raw < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: `raw` was just returned by the kernel and is owned by
        // nothing else.
        #[allow(unsafe_code, reason = "adopting a kernel-returned fd into OwnedFd")]
        let epfd = unsafe { OwnedFd::from_raw_fd(raw) };
        Ok(Poller { epfd, buf: vec![EpollEvent { events: 0, data: 0 }; 1024] })
    }

    fn ctl(&mut self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> std::io::Result<()> {
        let mut ev = EpollEvent { events: interest_bits(interest), data: token };
        // SAFETY: `ev` outlives the call; the kernel copies it before
        // returning. DEL ignores the event pointer entirely.
        #[allow(unsafe_code, reason = "raw syscall: std exposes no epoll")]
        let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    pub(crate) fn register(
        &mut self,
        fd: RawFd,
        token: u64,
        interest: Interest,
    ) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    pub(crate) fn reregister(
        &mut self,
        fd: RawFd,
        token: u64,
        interest: Interest,
    ) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    pub(crate) fn deregister(&mut self, fd: RawFd) {
        // Best-effort: the fd may already be closed, which deregisters it
        // kernel-side anyway.
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, Interest { readable: false, writable: false });
    }

    /// Blocks until readiness or `timeout`, appending into `events`
    /// (cleared first). A signal (`EINTR`) returns an empty set.
    #[expect(clippy::indexing_slicing, reason = "epoll_wait returns at most buf.len() events")]
    pub(crate) fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> std::io::Result<()> {
        events.clear();
        // SAFETY: the buffer pointer/len pair is valid for the whole call;
        // the kernel writes at most `maxevents` entries.
        #[allow(unsafe_code, reason = "raw syscall: std exposes no epoll")]
        let rc = unsafe {
            epoll_wait(
                self.epfd.as_raw_fd(),
                self.buf.as_mut_ptr(),
                self.buf.len() as c_int,
                timeout_ms(timeout),
            )
        };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            return if err.kind() == std::io::ErrorKind::Interrupted {
                Ok(()) // a signal: report no events, the reactor re-waits
            } else {
                Err(err)
            };
        }
        for raw in &self.buf[..rc as usize] {
            let bits = raw.events; // copy out of the (packed) struct
            let failed = bits & (EPOLLERR | EPOLLHUP) != 0;
            events.push(Event {
                token: raw.data,
                readable: failed || bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: failed || bits & EPOLLOUT != 0,
            });
        }
        Ok(())
    }
}
