//! Readiness multiplexing over the raw OS interface — [`epoll.rs`](self) is
//! the only file on the workspace's serving path that contains `unsafe` code.
//!
//! The reactor needs one primitive: "block until any of these sockets is
//! readable or writable". The std library deliberately does not expose one,
//! so `epoll.rs` declares the Linux entry points itself (the C library is
//! already linked by std — no new dependency). Registration is a syscall
//! per change (`epoll_ctl`), waiting is O(ready) (`epoll_wait`), so
//! thousands of mostly-idle connections cost nothing per wakeup.
//!
//! **The server side is Linux-only.** The rest of the crate sees only
//! `Poller` (register / reregister / deregister / wait with a token per
//! fd), `Event` (token + readable/writable bits, with error and hangup
//! conditions folded into both so the read/write paths discover them as
//! EOF or `EPIPE`), and `Waker` (a nonblocking `UnixStream` pair for
//! cross-thread wakeups — no raw pipe syscalls needed). On every other
//! target the module compiles to stubs that fail at `NetServer::bind` time
//! with [`std::io::ErrorKind::Unsupported`]; the blocking
//! [`crate::NetClient`] keeps working everywhere.

#[cfg(target_os = "linux")]
mod epoll;

/// Readiness interest for one registered socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Wake when the socket has bytes (or EOF / an error) to read.
    pub readable: bool,
    /// Wake when the socket can accept more outbound bytes.
    pub writable: bool,
}

impl Interest {
    pub(crate) const READ: Interest = Interest { readable: true, writable: false };
}

/// One readiness event out of [`Poller::wait`]. Error and hangup conditions
/// set both bits so whichever path runs first observes the failure.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The socket is readable (data, EOF, error or peer hangup).
    pub readable: bool,
    /// The socket is writable (or in an error state a write will surface).
    pub writable: bool,
}

#[cfg(target_os = "linux")]
pub(crate) use epoll::Poller;
#[cfg(target_os = "linux")]
pub(crate) use linux_impl::{stream_fd, waker_pair, SysFd, WakeReceiver, Waker};

#[cfg(not(target_os = "linux"))]
pub(crate) use stub_impl::{stream_fd, waker_pair, Poller, SysFd, WakeReceiver, Waker};

#[cfg(target_os = "linux")]
mod linux_impl {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::os::fd::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    /// The OS handle of a registered socket.
    pub(crate) type SysFd = RawFd;

    /// The fd behind a [`TcpStream`], for registration.
    pub(crate) fn stream_fd(stream: &TcpStream) -> SysFd {
        stream.as_raw_fd()
    }

    /// Converts an optional timeout to the millisecond argument
    /// `epoll_wait` takes: `-1` blocks, sub-millisecond waits round *up* so a
    /// 200 µs retry tick cannot spin at 0 ms.
    pub(super) fn timeout_ms(timeout: Option<Duration>) -> i32 {
        match timeout {
            None => -1,
            Some(d) => {
                let ms = d.as_millis().min(i32::MAX as u128) as i32;
                if ms == 0 && !d.is_zero() {
                    1
                } else {
                    ms
                }
            }
        }
    }

    /// The sending half of a cross-thread wakeup channel: writing one byte
    /// makes the owning reactor's [`super::Poller::wait`] return. Nonblocking,
    /// so a full pipe (wakeup already pending) is success, not a stall.
    pub(crate) struct Waker {
        tx: UnixStream,
    }

    impl Waker {
        pub(crate) fn wake(&self) {
            // A byte already in flight wakes the reactor just as well, so
            // WouldBlock (and any teardown race) is deliberately ignored.
            let _ = (&self.tx).write(&[1u8]);
        }
    }

    /// The receiving half, registered with the reactor's poller under the
    /// waker token.
    pub(crate) struct WakeReceiver {
        rx: UnixStream,
    }

    impl WakeReceiver {
        pub(crate) fn fd(&self) -> SysFd {
            self.rx.as_raw_fd()
        }

        /// Swallows every pending wakeup byte (level-triggered pollers
        /// would otherwise report the waker readable forever).
        pub(crate) fn drain(&self) {
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        }
    }

    /// A connected nonblocking wakeup pair.
    pub(crate) fn waker_pair() -> std::io::Result<(Waker, WakeReceiver)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx }, WakeReceiver { rx }))
    }
}

#[cfg(not(target_os = "linux"))]
mod stub_impl {
    use super::{Event, Interest};
    use std::net::TcpStream;
    use std::time::Duration;

    pub(crate) type SysFd = i32;

    pub(crate) fn stream_fd(_stream: &TcpStream) -> SysFd {
        -1
    }

    fn unsupported() -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the mbdr-net reactor requires Linux epoll",
        )
    }

    /// Readiness is unsupported off Linux: construction fails, so
    /// `NetServer::bind` reports `Unsupported` instead of limping.
    pub(crate) struct Poller;

    impl Poller {
        pub(crate) fn new() -> std::io::Result<Poller> {
            Err(unsupported())
        }

        pub(crate) fn register(
            &mut self,
            _fd: SysFd,
            _token: u64,
            _interest: Interest,
        ) -> std::io::Result<()> {
            Err(unsupported())
        }

        pub(crate) fn reregister(
            &mut self,
            _fd: SysFd,
            _token: u64,
            _interest: Interest,
        ) -> std::io::Result<()> {
            Err(unsupported())
        }

        pub(crate) fn deregister(&mut self, _fd: SysFd) {}

        pub(crate) fn wait(
            &mut self,
            _events: &mut Vec<Event>,
            _timeout: Option<Duration>,
        ) -> std::io::Result<()> {
            Err(unsupported())
        }
    }

    pub(crate) struct Waker;

    impl Waker {
        pub(crate) fn wake(&self) {}
    }

    pub(crate) struct WakeReceiver;

    impl WakeReceiver {
        pub(crate) fn fd(&self) -> SysFd {
            -1
        }

        pub(crate) fn drain(&self) {}
    }

    pub(crate) fn waker_pair() -> std::io::Result<(Waker, WakeReceiver)> {
        Err(unsupported())
    }
}

// Two attributes, not `all(test, …)`: clippy's allow-*-in-tests only
// recognises a bare `#[cfg(test)]`.
#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::linux_impl::timeout_ms;
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    const NOW: Option<Duration> = Some(Duration::ZERO);
    const WRITE: Interest = Interest { readable: false, writable: true };

    /// A connected loopback pair: (the side the poller watches, its peer).
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (watched, _) = listener.accept().expect("accept");
        (watched, peer)
    }

    fn wait(poller: &mut Poller, timeout: Option<Duration>) -> Vec<Event> {
        // Stale contents prove `wait` clears the buffer before appending.
        let mut events = vec![Event { token: u64::MAX, readable: true, writable: true }];
        poller.wait(&mut events, timeout).expect("wait");
        events
    }

    #[test]
    fn a_peer_write_reports_the_registered_token_readable() {
        let (watched, mut peer) = tcp_pair();
        let mut poller = Poller::new().expect("poller");
        poller.register(stream_fd(&watched), 42, Interest::READ).expect("register");
        assert!(wait(&mut poller, NOW).is_empty(), "an idle socket is not ready");
        peer.write_all(b"x").expect("peer write");
        let events = wait(&mut poller, None);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable && !events[0].writable);
    }

    #[test]
    fn reregister_to_writable_fires_on_an_idle_socket_and_deregister_silences_it() {
        let (watched, mut peer) = tcp_pair();
        let mut poller = Poller::new().expect("poller");
        let fd = stream_fd(&watched);
        poller.register(fd, 7, Interest::READ).expect("register");
        assert!(wait(&mut poller, NOW).is_empty());
        poller.reregister(fd, 8, WRITE).expect("reregister");
        let events = wait(&mut poller, None);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 8, "reregister replaces the token too");
        assert!(events[0].writable && !events[0].readable);

        poller.deregister(fd);
        peer.write_all(b"x").expect("peer write");
        assert!(wait(&mut poller, NOW).is_empty(), "a deregistered fd reports nothing");
        poller.deregister(fd); // already gone: best-effort, must not panic
    }

    #[test]
    fn peer_close_waits_for_read_interest_and_a_hangup_sets_both_bits() {
        // A TCP FIN must not wake a connection parked for backpressure (read
        // interest withdrawn) — level-triggered, it would wake it on every
        // wait — but must reach it as soon as reading resumes.
        let (watched, peer) = tcp_pair();
        let mut poller = Poller::new().expect("poller");
        let parked = Interest { readable: false, writable: false };
        poller.register(stream_fd(&watched), 1, parked).expect("register");
        drop(peer);
        assert!(wait(&mut poller, NOW).is_empty(), "a parked connection sleeps through a FIN");
        poller.reregister(stream_fd(&watched), 1, Interest::READ).expect("resume");
        let events = wait(&mut poller, None);
        assert_eq!(events.len(), 1);
        assert!(events[0].readable, "the read path must run to observe EOF");

        // A full hangup is folded into both bits so whichever path runs
        // first sees the failure.
        let (local, remote) = UnixStream::pair().expect("pair");
        poller.register(local.as_raw_fd(), 2, Interest::READ).expect("register");
        drop(remote);
        let hangup = wait(&mut poller, None).into_iter().find(|e| e.token == 2).expect("event");
        assert!(hangup.readable && hangup.writable);
    }

    #[test]
    fn the_waker_wakes_a_blocked_wait_and_drain_clears_it() {
        let (waker, wake_rx) = waker_pair().expect("waker");
        let mut poller = Poller::new().expect("poller");
        poller.register(wake_rx.fd(), 99, Interest::READ).expect("register");
        // No timeout: the scope joins only if `wake` ends the wait (whether
        // it lands before the wait starts or while it blocks).
        let events = std::thread::scope(|scope| {
            let blocked = scope.spawn(|| wait(&mut poller, None));
            waker.wake();
            waker.wake(); // coalesces with the pending byte
            blocked.join().expect("waiter panicked")
        });
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 99);
        assert!(events[0].readable);
        assert_eq!(wait(&mut poller, NOW).len(), 1, "level-triggered until drained");
        wake_rx.drain();
        assert!(wait(&mut poller, NOW).is_empty());
    }

    #[test]
    fn sub_millisecond_timeouts_round_up_so_a_retry_tick_cannot_spin() {
        assert_eq!(timeout_ms(None), -1, "no timeout blocks");
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0, "an explicit zero polls");
        assert_eq!(timeout_ms(Some(Duration::from_micros(200))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_nanos(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(2_999))), 2, "whole ms truncate");
        assert_eq!(timeout_ms(Some(Duration::from_secs(u64::MAX))), i32::MAX, "saturates");
    }
}
