//! Offline shim for the `polling` crate: portable readiness polling
//! over `poll(2)` through minimal `extern "C"` declarations (the build
//! environment has no crates.io access, so the real crate cannot be
//! pulled; this mirrors the subset of its API the workspace uses, so
//! swapping in the upstream crate is a manifest-only change).
//!
//! Covered surface:
//!
//! * [`Poller`] — `new`, `add`, `modify`, `delete`, `wait`, `notify`;
//! * [`Event`] — `readable` / `writable` / `all` / `none` constructors
//!   plus the `key` / `readable` / `writable` fields;
//! * [`Events`] — the reusable buffer `wait` fills.
//!
//! Semantics follow upstream `polling`:
//!
//! * **Oneshot**: once an event for a source is delivered, that
//!   source's interest is cleared; re-arm it with [`Poller::modify`]
//!   before the next [`Poller::wait`]. The OS-level mechanism is
//!   level-triggered `poll(2)`, so a source that became ready while
//!   disarmed is still reported as soon as it is re-armed — readiness
//!   is never lost, only masked.
//! * **Spurious wakeups are allowed**: `wait` may return zero events
//!   (a [`Poller::notify`], a signal interrupting the syscall, or a
//!   source deleted between snapshot and report). Callers must treat
//!   readiness as a hint and be prepared for `WouldBlock`.
//! * **Error conditions** (`POLLERR`/`POLLHUP`/`POLLNVAL`) are
//!   reported as readable-and/or-writable per the registered interest,
//!   so a caller discovers the condition by attempting the I/O.
//!
//! Extensions over upstream: batched datagram I/O ([`mmsg`]) and a
//! nonblocking TCP connect ([`sock`]), so every raw syscall in the
//! workspace lives here.

#![deny(missing_docs)]
// A length or count must never wrap at the FFI boundary: no lossy cast
// outside tests.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg(unix)]

use std::collections::BTreeMap;
use std::io;
use std::os::raw::c_ulong;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::Mutex;
use std::time::Duration;

/// The raw libc surface the shim stands on. Kept to the minimum the
/// implementation needs; all constants are Linux generic-ABI values
/// (`O_NONBLOCK` in particular differs on the BSDs), so refuse to
/// build anywhere else rather than misbehave silently.
mod sys {
    #[cfg(not(target_os = "linux"))]
    compile_error!("the polling shim's FFI constants assume the Linux ABI");
    use std::os::raw::{c_int, c_short, c_uint, c_ulong, c_void};

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;

    pub const F_SETFD: c_int = 2;
    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    pub const FD_CLOEXEC: c_int = 1;
    pub const O_NONBLOCK: c_int = 0o4000;
    pub const EINTR: i32 = 4;
    pub const EAGAIN: i32 = 11;
    pub const ENOSYS: i32 = 38;

    pub const AF_INET: u16 = 2;
    pub const AF_INET6: u16 = 10;
    pub const MSG_TRUNC: c_int = 0x20;
    pub const MSG_DONTWAIT: c_int = 0x40;

    pub const SOCK_STREAM: c_int = 1;
    pub const EINPROGRESS: i32 = 115;

    /// `struct iovec`: one gather/scatter segment.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct IoVec {
        pub iov_base: *mut c_void,
        pub iov_len: usize,
    }

    /// `struct msghdr` (Linux layout; `repr(C)` reproduces the padding
    /// after `msg_namelen` and `msg_flags` on 64-bit targets).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct MsgHdr {
        pub msg_name: *mut c_void,
        pub msg_namelen: c_uint,
        pub msg_iov: *mut IoVec,
        pub msg_iovlen: usize,
        pub msg_control: *mut c_void,
        pub msg_controllen: usize,
        pub msg_flags: c_int,
    }

    /// `struct mmsghdr`: one `msghdr` plus the kernel-reported byte
    /// count of the transferred datagram.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct MmsgHdr {
        pub msg_hdr: MsgHdr,
        pub msg_len: c_uint,
    }

    // The workspace's entire raw-syscall surface. The static-analysis
    // pass (`cargo run -p xtask -- lint`) pins `extern "C"` to this
    // crate and these symbol names; extend its allowlist in
    // `crates/xtask/src/rules.rs` (and docs/ANALYSIS.md) when adding
    // a declaration here.
    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        pub fn sendmmsg(fd: c_int, msgvec: *mut MmsgHdr, vlen: c_uint, flags: c_int) -> c_int;
        pub fn recvmmsg(
            fd: c_int,
            msgvec: *mut MmsgHdr,
            vlen: c_uint,
            flags: c_int,
            timeout: *mut c_void, // struct timespec *; always null here
        ) -> c_int;
        pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
    }
}

/// Interest in (or readiness of) a registered source, tagged with the
/// caller-chosen `key` that [`Poller::wait`] reports back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The key the source was registered under.
    pub key: usize,
    /// Interest in (or presence of) read readiness.
    pub readable: bool,
    /// Interest in (or presence of) write readiness.
    pub writable: bool,
}

impl Event {
    /// Interest in read readiness only.
    pub fn readable(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: false,
        }
    }

    /// Interest in write readiness only.
    pub fn writable(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: true,
        }
    }

    /// Interest in both read and write readiness.
    pub fn all(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: true,
        }
    }

    /// No interest (the source stays registered but disarmed).
    pub fn none(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: false,
        }
    }
}

/// A reusable buffer of events delivered by one [`Poller::wait`].
#[derive(Debug, Default)]
pub struct Events {
    inner: Vec<Event>,
}

impl Events {
    /// An empty buffer.
    pub fn new() -> Events {
        Events { inner: Vec::new() }
    }

    /// Iterates over the events of the last [`Poller::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.inner.iter().copied()
    }

    /// Drops all buffered events ([`Poller::wait`] does this itself).
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the last wait delivered no events.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

#[derive(Clone, Copy, Debug)]
struct Interest {
    key: usize,
    readable: bool,
    writable: bool,
}

/// A readiness poller over `poll(2)` with a self-pipe for wakeups.
///
/// Registration is keyed by file descriptor; `wait` snapshots the
/// interest set, issues one `poll(2)`, and reports ready sources as
/// [`Event`]s (clearing their interest — oneshot). [`Poller::notify`]
/// wakes a concurrent or future `wait` from any thread.
#[derive(Debug)]
pub struct Poller {
    interest: Mutex<BTreeMap<RawFd, Interest>>,
    notify_read: RawFd,
    notify_write: RawFd,
}

fn set_nonblocking_cloexec(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl(2) with F_SETFD/F_GETFL/F_SETFL takes no pointers;
    // an invalid `fd` yields EBADF, reported as an error below.
    unsafe {
        if sys::fcntl(fd, sys::F_SETFD, sys::FD_CLOEXEC) < 0 {
            return Err(io::Error::last_os_error());
        }
        let flags = sys::fcntl(fd, sys::F_GETFL, 0);
        if flags < 0 || sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) < 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

impl Poller {
    /// Creates a poller (allocates the notification pipe).
    ///
    /// # Errors
    ///
    /// Fails if the pipe cannot be created or configured.
    pub fn new() -> io::Result<Poller> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a live, writable array of exactly the two
        // c_ints pipe(2) fills.
        if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        let [read_end, write_end] = fds;
        for fd in [read_end, write_end] {
            if let Err(e) = set_nonblocking_cloexec(fd) {
                // SAFETY: both fds came from the successful pipe(2)
                // call above and are owned by nobody else yet.
                unsafe {
                    sys::close(read_end);
                    sys::close(write_end);
                }
                return Err(e);
            }
        }
        Ok(Poller {
            interest: Mutex::new(BTreeMap::new()),
            notify_read: read_end,
            notify_write: write_end,
        })
    }

    /// Registers a source with an initial interest.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::AlreadyExists`] if the source is
    /// already registered.
    pub fn add(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        let fd = source.as_raw_fd();
        let mut map = self.interest.lock().expect("poller lock poisoned");
        if map.contains_key(&fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "source already registered",
            ));
        }
        map.insert(
            fd,
            Interest {
                key: interest.key,
                readable: interest.readable,
                writable: interest.writable,
            },
        );
        Ok(())
    }

    /// Replaces a registered source's interest (the oneshot re-arm).
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::NotFound`] if the source was never
    /// added or was deleted.
    pub fn modify(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        let fd = source.as_raw_fd();
        let mut map = self.interest.lock().expect("poller lock poisoned");
        match map.get_mut(&fd) {
            Some(entry) => {
                *entry = Interest {
                    key: interest.key,
                    readable: interest.readable,
                    writable: interest.writable,
                };
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "source not registered",
            )),
        }
    }

    /// Deregisters a source. Events for it are no longer delivered
    /// (even ones pending inside a concurrent `wait`).
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::NotFound`] if the source was never
    /// added or was already deleted.
    pub fn delete(&self, source: &impl AsRawFd) -> io::Result<()> {
        let fd = source.as_raw_fd();
        let mut map = self.interest.lock().expect("poller lock poisoned");
        match map.remove(&fd) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "source not registered",
            )),
        }
    }

    /// Blocks until at least one armed source is ready, a
    /// [`Poller::notify`] arrives, or `timeout` expires (`None` waits
    /// indefinitely). Fills `events` with ready sources and clears
    /// their interest (oneshot). Returns the number of events; `0`
    /// means timeout or spurious wakeup.
    ///
    /// # Errors
    ///
    /// Propagates `poll(2)` failures other than `EINTR` (which is
    /// reported as a spurious zero-event wakeup).
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let mut fds: Vec<sys::PollFd> = Vec::with_capacity(8);
        fds.push(sys::PollFd {
            fd: self.notify_read,
            events: sys::POLLIN,
            revents: 0,
        });
        {
            let map = self.interest.lock().expect("poller lock poisoned");
            for (&fd, interest) in map.iter() {
                let mut mask = 0;
                if interest.readable {
                    mask |= sys::POLLIN;
                }
                if interest.writable {
                    mask |= sys::POLLOUT;
                }
                if mask != 0 {
                    fds.push(sys::PollFd {
                        fd,
                        events: mask,
                        revents: 0,
                    });
                }
            }
        }
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => i32::try_from(d.as_micros().div_ceil(1000)).unwrap_or(i32::MAX),
        };
        // SAFETY: `fds` is a live Vec of `fds.len()` PollFd entries,
        // mutably borrowed for the duration of the call; poll(2)
        // writes only within that range.
        let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(sys::EINTR) {
                return Ok(0); // signal: a legal spurious wakeup
            }
            return Err(err);
        }
        if fds[0].revents != 0 {
            self.drain_notifications();
        }
        let mut map = self.interest.lock().expect("poller lock poisoned");
        for pfd in &fds[1..] {
            if pfd.revents == 0 {
                continue;
            }
            // A source deleted (or re-registered) while poll ran is
            // simply not reported / reported against its current
            // interest; level-triggered poll re-reports real readiness
            // on the next wait, so nothing is lost.
            let Some(interest) = map.get_mut(&pfd.fd) else {
                continue;
            };
            let failed = pfd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
            let readable = interest.readable && (pfd.revents & sys::POLLIN != 0 || failed);
            let writable = interest.writable && (pfd.revents & sys::POLLOUT != 0 || failed);
            if readable || writable {
                events.inner.push(Event {
                    key: interest.key,
                    readable,
                    writable,
                });
                interest.readable = false; // oneshot: disarm until modify
                interest.writable = false;
            }
        }
        Ok(events.len())
    }

    /// Wakes one concurrent or future [`Poller::wait`] from any thread.
    ///
    /// # Errors
    ///
    /// Propagates pipe write failures (a full pipe is *not* a failure:
    /// a wakeup is already pending).
    pub fn notify(&self) -> io::Result<()> {
        let byte = [1u8];
        // SAFETY: `byte` is a live 1-byte buffer and `notify_write` is
        // the pipe fd this poller owns; write(2) reads exactly 1 byte.
        let rc = unsafe { sys::write(self.notify_write, byte.as_ptr().cast(), 1) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::WouldBlock {
                return Err(err);
            }
        }
        Ok(())
    }

    fn drain_notifications(&self) {
        let mut sink = [0u8; 64];
        loop {
            // SAFETY: `sink` is a live, writable buffer of the length
            // passed; `notify_read` is the pipe fd this poller owns.
            let rc = unsafe { sys::read(self.notify_read, sink.as_mut_ptr().cast(), sink.len()) };
            if rc <= 0 || (rc as usize) < sink.len() {
                break; // empty (EAGAIN), closed, or fully drained
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: the poller exclusively owns both pipe fds; after
        // drop nothing can use them again.
        unsafe {
            sys::close(self.notify_read);
            sys::close(self.notify_write);
        }
    }
}

/// Batched UDP datagram I/O over `sendmmsg(2)` / `recvmmsg(2)`
/// (extension over upstream `polling`).
///
/// Both types are reusable *batch tables*: preallocated `mmsghdr` /
/// `iovec` / sockaddr arrays that one syscall transfers many datagrams
/// through. The pointer tables are rebuilt from the current buffer
/// addresses on every call, so the types are safe to move between
/// construction and use (nothing is self-referential across calls).
///
/// A caller checks once, with
/// [`check_available`](mmsg::check_available), that the kernel lets it
/// use both syscalls.
pub mod mmsg {
    use super::sys;
    use std::io;
    use std::os::raw::c_uint;
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};
    use std::ops::Range;
    use std::os::unix::io::RawFd;
    use std::ptr;

    /// Bytes of the largest sockaddr the shim handles
    /// (`sockaddr_in6`, 28 bytes).
    const SOCKADDR_MAX: usize = 28;

    /// A raw sockaddr slot, aligned for in-place `sockaddr_in` /
    /// `sockaddr_in6` access (shared with [`crate::sock`]).
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    pub(crate) struct SockAddr {
        pub(crate) data: [u8; SOCKADDR_MAX],
        pub(crate) len: u32,
    }

    impl SockAddr {
        pub(crate) const ZERO: SockAddr = SockAddr {
            data: [0; SOCKADDR_MAX],
            len: 0,
        };

        /// Encodes `addr` into Linux `sockaddr_in` / `sockaddr_in6`
        /// wire layout (family native-endian, port big-endian).
        // All slice ranges are literal and within the SOCKADDR_MAX
        // (28-byte) array.
        pub(crate) fn encode(addr: SocketAddr) -> SockAddr {
            let mut s = SockAddr::ZERO;
            match addr {
                SocketAddr::V4(v4) => {
                    s.data[0..2].copy_from_slice(&sys::AF_INET.to_ne_bytes());
                    s.data[2..4].copy_from_slice(&v4.port().to_be_bytes());
                    s.data[4..8].copy_from_slice(&v4.ip().octets());
                    s.len = 16;
                }
                SocketAddr::V6(v6) => {
                    s.data[0..2].copy_from_slice(&sys::AF_INET6.to_ne_bytes());
                    s.data[2..4].copy_from_slice(&v6.port().to_be_bytes());
                    s.data[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
                    s.data[8..24].copy_from_slice(&v6.ip().octets());
                    s.data[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                    s.len = 28;
                }
            }
            s
        }

        /// Decodes a kernel-filled sockaddr; `None` for families the
        /// shim does not speak (the caller drops the datagram).
        fn decode(&self, namelen: u32) -> Option<SocketAddr> {
            let family = u16::from_ne_bytes([self.data[0], self.data[1]]);
            let port = u16::from_be_bytes([self.data[2], self.data[3]]);
            if family == sys::AF_INET && namelen >= 8 {
                let octets: [u8; 4] = self.data[4..8].try_into().ok()?;
                Some(SocketAddr::new(IpAddr::V4(Ipv4Addr::from(octets)), port))
            } else if family == sys::AF_INET6 && namelen >= 28 {
                let octets: [u8; 16] = self.data[8..24].try_into().ok()?;
                Some(SocketAddr::new(IpAddr::V6(Ipv6Addr::from(octets)), port))
            } else {
                None
            }
        }
    }

    fn map_errno(err: io::Error) -> io::Error {
        match err.raw_os_error() {
            Some(sys::EAGAIN) => io::Error::new(io::ErrorKind::WouldBlock, err),
            Some(sys::ENOSYS) => io::Error::new(io::ErrorKind::Unsupported, err),
            _ => err,
        }
    }

    /// Checks that `sendmmsg(2)` and `recvmmsg(2)` can be used on the
    /// datagram socket `fd`, by calling each once with zero messages
    /// (no datagram is sent or consumed).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`] where the kernel answers either
    /// call with `ENOSYS` (a seccomp filter can), otherwise the raw OS
    /// error of the first call that fails.
    pub fn check_available(fd: RawFd) -> io::Result<()> {
        // With `vlen == 0` neither call reads or writes the vector, so
        // a dangling, well-aligned pointer stands in for it.
        let msgvec = ptr::NonNull::<sys::MmsgHdr>::dangling().as_ptr();
        // SAFETY: a zero-length vector is never dereferenced.
        if unsafe { sys::sendmmsg(fd, msgvec, 0, sys::MSG_DONTWAIT) } < 0 {
            return Err(map_errno(io::Error::last_os_error()));
        }
        // SAFETY: as above; the null timeout is allowed.
        let rc = unsafe { sys::recvmmsg(fd, msgvec, 0, sys::MSG_DONTWAIT, ptr::null_mut()) };
        if rc < 0 {
            return Err(map_errno(io::Error::last_os_error()));
        }
        Ok(())
    }

    /// A reusable `sendmmsg(2)` batch table: many datagrams, each a
    /// contiguous slice of one caller-held arena, sent with one
    /// syscall.
    ///
    /// The arena and the `(destination, byte-range)` entries are passed
    /// per call; the table only holds the preallocated FFI arrays, so
    /// one `SendBatch` serves every flush of a socket's lifetime.
    pub struct SendBatch {
        addrs: Vec<SockAddr>,
        iovs: Vec<sys::IoVec>,
        hdrs: Vec<sys::MmsgHdr>,
        max: usize,
    }

    impl std::fmt::Debug for SendBatch {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("SendBatch").field("max", &self.max).finish()
        }
    }

    // SAFETY: the raw pointer tables (`iovs`, `hdrs`) alias only the
    // struct's own buffers and are rebuilt from scratch on every call,
    // so moving the table between threads between calls is sound.
    unsafe impl Send for SendBatch {}

    impl SendBatch {
        /// A table that sends at most `max` datagrams per syscall
        /// (callers chunk longer batches).
        pub fn new(max: usize) -> SendBatch {
            let max = max.max(1);
            SendBatch {
                addrs: Vec::with_capacity(max),
                iovs: Vec::with_capacity(max),
                hdrs: Vec::with_capacity(max),
                max,
            }
        }

        /// Maximum datagrams one [`SendBatch::send`] transfers.
        pub fn max_len(&self) -> usize {
            self.max
        }

        /// Sends `pkts` (up to [`SendBatch::max_len`] of them) in one
        /// `sendmmsg(2)`; each entry is a destination plus the byte
        /// range of its payload inside `arena`. Returns how many
        /// datagrams the kernel accepted — the *tail* (`pkts[n..]`)
        /// remains unsent and should be retried or resubmitted.
        ///
        /// An empty `pkts` is a no-op returning `Ok(0)`.
        ///
        /// # Errors
        ///
        /// `WouldBlock` if the socket's send buffer is full before the
        /// first datagram, [`io::ErrorKind::Unsupported`] if the kernel
        /// lacks the syscall, otherwise the raw OS error. An error
        /// always means *zero* datagrams of this call were sent.
        ///
        /// # Panics
        ///
        /// Panics if a range reaches outside `arena`.
        pub fn send(
            &mut self,
            fd: RawFd,
            arena: &[u8],
            pkts: &[(SocketAddr, Range<usize>)],
        ) -> io::Result<usize> {
            if pkts.is_empty() {
                return Ok(0);
            }
            let n = pkts.len().min(self.max);
            let vlen = c_uint::try_from(n).map_err(|_| io::ErrorKind::InvalidInput)?;
            self.addrs.clear();
            self.iovs.clear();
            self.hdrs.clear();
            for (to, range) in &pkts[..n] {
                self.addrs.push(SockAddr::encode(*to));
                self.iovs.push(sys::IoVec {
                    // sendmmsg never writes through iov_base; the cast
                    // to *mut is an FFI-signature formality.
                    iov_base: arena[range.clone()].as_ptr() as *mut _,
                    iov_len: range.len(),
                });
            }
            for i in 0..n {
                self.hdrs.push(sys::MmsgHdr {
                    msg_hdr: sys::MsgHdr {
                        msg_name: self.addrs[i].data.as_ptr() as *mut _,
                        msg_namelen: self.addrs[i].len,
                        msg_iov: &mut self.iovs[i],
                        msg_iovlen: 1,
                        msg_control: ptr::null_mut(),
                        msg_controllen: 0,
                        msg_flags: 0,
                    },
                    msg_len: 0,
                });
            }
            // SAFETY: `hdrs` holds exactly `n` entries whose name/iov
            // pointers were rebuilt just above from `self.addrs` /
            // `self.iovs` / the caller's arena, all of which outlive
            // the call; sendmmsg(2) only reads through them.
            let rc = unsafe { sys::sendmmsg(fd, self.hdrs.as_mut_ptr(), vlen, sys::MSG_DONTWAIT) };
            if rc < 0 {
                return Err(map_errno(io::Error::last_os_error()));
            }
            Ok(rc as usize)
        }
    }

    /// A reusable `recvmmsg(2)` receive ring: a preallocated block of
    /// fixed-size buffers that one syscall fills with up to a burst of
    /// datagrams, exposed afterwards as borrowed `(source, payload)`
    /// slices — no per-datagram allocation or copy.
    pub struct RecvRing {
        bufs: Vec<u8>,
        addrs: Vec<SockAddr>,
        hdrs: Vec<sys::MmsgHdr>,
        iovs: Vec<sys::IoVec>,
        slots: usize,
        slot_len: usize,
        filled: usize,
    }

    impl std::fmt::Debug for RecvRing {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("RecvRing")
                .field("slots", &self.slots)
                .field("slot_len", &self.slot_len)
                .field("filled", &self.filled)
                .finish()
        }
    }

    // SAFETY: same argument as [`SendBatch`] — no pointer survives
    // across calls, so the ring may move between threads between calls.
    unsafe impl Send for RecvRing {}

    impl RecvRing {
        /// A ring of `slots` buffers of `slot_len` bytes each (a
        /// datagram longer than `slot_len` is truncated and flagged —
        /// see [`RecvRing::truncated`]).
        pub fn new(slots: usize, slot_len: usize) -> RecvRing {
            let slots = slots.max(1);
            let slot_len = slot_len.max(1);
            RecvRing {
                bufs: vec![0u8; slots * slot_len],
                addrs: vec![SockAddr::ZERO; slots],
                hdrs: Vec::with_capacity(slots),
                iovs: Vec::with_capacity(slots),
                slots,
                slot_len,
                filled: 0,
            }
        }

        /// Number of buffer slots (the per-syscall burst bound).
        pub fn slots(&self) -> usize {
            self.slots
        }

        /// Receives up to [`RecvRing::slots`] datagrams in one
        /// `recvmmsg(2)`, replacing the previous burst. Returns how
        /// many slots were filled; read them back with
        /// [`RecvRing::datagram`].
        ///
        /// # Errors
        ///
        /// `WouldBlock` when the socket is drained,
        /// [`io::ErrorKind::Unsupported`] if the kernel lacks the
        /// syscall, otherwise the raw OS error.
        pub fn recv(&mut self, fd: RawFd) -> io::Result<usize> {
            self.filled = 0;
            let vlen = c_uint::try_from(self.slots).map_err(|_| io::ErrorKind::InvalidInput)?;
            let namelen = u32::try_from(SOCKADDR_MAX).map_err(|_| io::ErrorKind::InvalidInput)?;
            self.hdrs.clear();
            self.iovs.clear();
            for i in 0..self.slots {
                self.addrs[i] = SockAddr::ZERO;
                self.iovs.push(sys::IoVec {
                    iov_base: self.bufs[i * self.slot_len..].as_mut_ptr() as *mut _,
                    iov_len: self.slot_len,
                });
            }
            for i in 0..self.slots {
                self.hdrs.push(sys::MmsgHdr {
                    msg_hdr: sys::MsgHdr {
                        msg_name: self.addrs[i].data.as_mut_ptr() as *mut _,
                        msg_namelen: namelen,
                        msg_iov: &mut self.iovs[i],
                        msg_iovlen: 1,
                        msg_control: ptr::null_mut(),
                        msg_controllen: 0,
                        msg_flags: 0,
                    },
                    msg_len: 0,
                });
            }
            // SAFETY: `hdrs` holds exactly `slots` entries whose
            // name/iov pointers target `self.addrs` / `self.bufs`
            // slots that live (and stay unaliased) until the next
            // `recv` call; recvmmsg(2) writes only within the
            // advertised lengths.
            let rc = unsafe {
                sys::recvmmsg(
                    fd,
                    self.hdrs.as_mut_ptr(),
                    vlen,
                    sys::MSG_DONTWAIT,
                    ptr::null_mut(),
                )
            };
            if rc < 0 {
                return Err(map_errno(io::Error::last_os_error()));
            }
            self.filled = rc as usize;
            Ok(self.filled)
        }

        /// The `i`-th datagram of the last burst as a borrowed payload
        /// slice plus its source address. `None` past the filled count
        /// or for a source family the shim does not speak.
        pub fn datagram(&self, i: usize) -> Option<(SocketAddr, &[u8])> {
            if i >= self.filled {
                return None;
            }
            let hdr = &self.hdrs[i];
            let from = self.addrs[i].decode(hdr.msg_hdr.msg_namelen)?;
            let len = (hdr.msg_len as usize).min(self.slot_len);
            let start = i * self.slot_len;
            Some((from, &self.bufs[start..start + len]))
        }

        /// Whether the `i`-th datagram of the last burst was longer
        /// than a slot and lost its tail (`MSG_TRUNC`).
        pub fn truncated(&self, i: usize) -> bool {
            i < self.filled && self.hdrs[i].msg_hdr.msg_flags & sys::MSG_TRUNC != 0
        }
    }
}

/// Nonblocking TCP connect initiation (extension over upstream
/// `polling`): the one piece of stream setup std does not expose
/// without blocking. Kept here so every raw syscall in the workspace
/// lives in this shim (the `swim-lint` `ffi` rule enforces that).
pub mod sock {
    use super::{set_nonblocking_cloexec, sys};
    use crate::mmsg::SockAddr;
    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::os::raw::c_int;
    use std::os::unix::io::FromRawFd;

    /// Starts a nonblocking TCP connect to `to`. Returns the stream
    /// plus whether the connect already completed (loopback often
    /// does); if not, write readiness signals completion and
    /// [`TcpStream::take_error`] (`SO_ERROR`) reports the outcome.
    ///
    /// # Errors
    ///
    /// Fails if socket creation, nonblocking configuration, or the
    /// connect initiation itself fails with anything but
    /// `EINPROGRESS`.
    pub fn connect_stream(to: SocketAddr) -> io::Result<(TcpStream, bool)> {
        let family = match to {
            SocketAddr::V4(_) => c_int::from(sys::AF_INET),
            SocketAddr::V6(_) => c_int::from(sys::AF_INET6),
        };
        // SAFETY: socket(2) takes no pointers; any fd it returns is
        // owned here until handed to the TcpStream below.
        let fd = unsafe { sys::socket(family, sys::SOCK_STREAM, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        if let Err(err) = set_nonblocking_cloexec(fd) {
            // SAFETY: `fd` came from the successful socket(2) call
            // above and nothing else owns it.
            unsafe { sys::close(fd) };
            return Err(err);
        }
        let sa = SockAddr::encode(to);
        // SAFETY: `sa.data` is a live, properly aligned sockaddr
        // buffer of at least `sa.len` bytes (SockAddr::encode fills
        // the Linux sockaddr_in / sockaddr_in6 layout), and the
        // kernel only reads from it.
        let rc = unsafe { sys::connect(fd, sa.data.as_ptr().cast(), sa.len) };
        let connected = if rc == 0 {
            true
        } else {
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(sys::EINPROGRESS) {
                false
            } else {
                // SAFETY: as above — `fd` is owned and unshared.
                unsafe { sys::close(fd) };
                return Err(err);
            }
        };
        // SAFETY: `fd` is a freshly created, successfully configured
        // socket owned by nobody else; the TcpStream takes ownership
        // (and closes it on drop).
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        Ok((stream, connected))
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::io::{Read as _, Write as _};
        use std::net::TcpListener;

        #[test]
        fn connects_to_local_listener() {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind listener");
            let addr = listener.local_addr().expect("listener addr");
            let (mut stream, _connected) = connect_stream(addr).expect("initiate connect");
            let (mut accepted, _) = listener.accept().expect("accept");
            accepted.write_all(b"ok").expect("write");
            stream.set_nonblocking(false).expect("blocking mode");
            let mut buf = [0u8; 2];
            stream.read_exact(&mut buf).expect("read");
            assert_eq!(&buf, b"ok");
        }

        #[test]
        fn connect_to_dead_port_fails_eventually() {
            // Bind-then-drop gives a port with (very likely) no
            // listener; the failure may surface at initiation or via
            // SO_ERROR after write readiness.
            let addr = {
                let sock = TcpListener::bind("127.0.0.1:0").expect("bind probe");
                sock.local_addr().expect("probe addr")
            };
            match connect_stream(addr) {
                Err(_) => {}
                Ok((stream, _)) => {
                    // Completion is async: poll take_error briefly.
                    for _ in 0..200 {
                        if stream.take_error().expect("take_error").is_some() {
                            return;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    // Refused connects on loopback resolve fast;
                    // reaching here without an error is acceptable
                    // only if the peer actually accepted (it cannot).
                    panic!("connect to dropped port neither failed nor errored");
                }
            }
        }
    }
}
