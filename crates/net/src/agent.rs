//! A memberlist-style agent: the protocol core driven by real sockets.
//!
//! The agent is a thin I/O shell around the shared sans-I/O
//! [`Driver`] harness from `lifeguard-core` — the same harness the
//! deterministic simulator uses, so the protocol logic running here is
//! *identical* to the simulated one. [`Agent::start`] binds one UDP
//! socket and one TCP listener on the same port and hands them to a
//! single readiness-driven event-loop thread over the [`polling`]
//! poller: nonblocking accept/read/write state machines for TCP,
//! exact-deadline timer wakeups off the core's timer queue, batched
//! datagram I/O, no fixed-interval sleeps anywhere
//! (`crates/net/src/reactor.rs`).
//!
//! That thread is the only one that ever drives the protocol core.
//! [`Agent::join`], [`Agent::leave`] and [`Agent::update_meta`] queue
//! their [`Input`] for it and return; the read accessors
//! ([`Agent::members`], [`Agent::num_alive`], …) take the driver lock,
//! which guards memory only — the reactor stages every send while it
//! holds the lock and performs the I/O after releasing it, so a reader
//! never waits on a syscall.
//!
//! Membership conclusions are delivered on a channel as [`AgentEvent`]s.
//!
//! Shutdown is idempotent and [`Drop`] also performs it, joining the
//! event-loop thread — a dropped-without-`shutdown` agent does not leak
//! it.

use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, UdpSocket};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::Bytes;
use lifeguard_core::config::Config;
use lifeguard_core::driver::Driver;
use lifeguard_core::event::Event;
use lifeguard_core::member::{Member, MemberRef};
use lifeguard_core::node::{Input, SwimNode};
use lifeguard_core::time::Time;
use lifeguard_proto::{NodeAddr, NodeName, MAX_META_LEN};
use polling::Poller;

use crate::reactor::{Reactor, SendIo, SEND_BATCH};

/// A timestamped membership event from a running agent.
#[derive(Clone, Debug)]
pub struct AgentEvent {
    /// Agent-relative time the conclusion was reached.
    pub at: Time,
    /// The conclusion.
    pub event: Event,
}

/// Configuration for [`Agent::start`].
#[derive(Clone, Debug)]
pub struct AgentConfig {
    /// Unique node name.
    pub name: String,
    /// Address to bind (UDP and TCP, same port). Use port 0 to let the
    /// OS pick.
    pub bind: SocketAddr,
    /// Protocol configuration.
    pub protocol: Config,
    /// RNG seed for the protocol core. `0` (the default) means
    /// *unseeded*: [`Agent::start`] derives a fresh per-instance seed
    /// from system entropy, so a restarted agent never reuses the
    /// delta-sync epoch of its previous life (stale peer watermarks
    /// must be detected, not honoured). Set a nonzero seed for
    /// reproducible runs — and never reuse it across restarts of the
    /// same logical node.
    pub seed: u64,
}

impl AgentConfig {
    /// Localhost agent with an OS-assigned port.
    pub fn local(name: impl Into<String>) -> Self {
        AgentConfig {
            name: name.into(),
            bind: SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0),
            protocol: Config::lan().lifeguard(),
            seed: 0,
        }
    }

    /// Replaces the protocol configuration.
    pub fn protocol(mut self, protocol: Config) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Per-agent datagram I/O counters (lock-free; written by the reactor,
/// snapshotted by [`Agent::metrics`]). Dropped sends in
/// particular are *counted*, not just discarded: SWIM treats every
/// datagram as droppable, but an operator debugging a silent cluster
/// needs to see whether the drops happen locally or in the network.
#[derive(Debug, Default)]
pub(crate) struct IoCounters {
    /// `sendmmsg` calls issued, including ones that fail.
    pub(crate) send_syscalls: AtomicU64,
    /// `sendmmsg` flushes that transferred more than one datagram.
    pub(crate) sendmmsg_batches: AtomicU64,
    /// Datagrams the kernel accepted for sending.
    pub(crate) datagrams_sent: AtomicU64,
    /// Payload bytes of the datagrams the kernel accepted.
    pub(crate) datagram_bytes: AtomicU64,
    /// Datagrams dropped on a send error other than `WouldBlock`.
    pub(crate) send_errors: AtomicU64,
    /// Datagrams dropped because the socket's send buffer was full.
    pub(crate) would_block_drops: AtomicU64,
    /// `recvmmsg` calls issued, including ones that return
    /// `WouldBlock`.
    pub(crate) recv_syscalls: AtomicU64,
    /// Datagrams received.
    pub(crate) datagrams_received: AtomicU64,
    /// Received datagrams dropped because they overflowed a
    /// receive-ring slot (`MSG_TRUNC`).
    pub(crate) recv_truncations: AtomicU64,
    /// Stream messages handed to the stream transport.
    pub(crate) streams_sent: AtomicU64,
    /// Encoded message bytes of those stream sends (body, excluding
    /// the fixed frame header — the unit the sim telemetry counts).
    pub(crate) stream_bytes: AtomicU64,
    /// Reactor event-loop wakeups (poll returns).
    pub(crate) wakeups: AtomicU64,
}

impl IoCounters {
    /// The counters in the metrics plane's runtime-agnostic shape.
    pub(crate) fn io_snapshot(&self) -> lifeguard_metrics::IoSnapshot {
        lifeguard_metrics::IoSnapshot {
            send_syscalls: self.send_syscalls.load(Ordering::Relaxed),
            sendmmsg_batches: self.sendmmsg_batches.load(Ordering::Relaxed),
            datagrams_sent: self.datagrams_sent.load(Ordering::Relaxed),
            datagram_bytes: self.datagram_bytes.load(Ordering::Relaxed),
            send_errors: self.send_errors.load(Ordering::Relaxed),
            would_block_drops: self.would_block_drops.load(Ordering::Relaxed),
            recv_syscalls: self.recv_syscalls.load(Ordering::Relaxed),
            datagrams_received: self.datagrams_received.load(Ordering::Relaxed),
            recv_truncations: self.recv_truncations.load(Ordering::Relaxed),
            streams_sent: self.streams_sent.load(Ordering::Relaxed),
            stream_bytes: self.stream_bytes.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
        }
    }
}

/// A `std::sync::Mutex` whose `lock` recovers a poisoned guard: a thread
/// that panicked while holding it must not wedge every later reader.
/// `lock` stays one call returning the guard, so `driver.lock()` regions
/// read the same to swim-lint's `lock_discipline` as they do to a person.
pub(crate) struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub(crate) fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

pub(crate) struct Inner {
    /// Written by the reactor thread only; API threads lock it to read.
    /// It guards memory, never I/O.
    pub(crate) driver: Mutex<Driver>,
    pub(crate) udp: UdpSocket,
    pub(crate) advertised: NodeAddr,
    start: Instant,
    pub(crate) shutdown: AtomicBool,
    /// Inputs from API threads, driven by the reactor in arrival order.
    input_tx: Sender<Input>,
    /// The reactor's poller: API threads notify it after queueing an
    /// input or raising `shutdown`.
    pub(crate) poller: Arc<Poller>,
    pub(crate) counters: IoCounters,
}

impl Inner {
    pub(crate) fn now(&self) -> Time {
        Time::from_micros(u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX))
    }

    /// Queues one input for the reactor thread and wakes it.
    fn submit(&self, input: Input) {
        let _ = self.input_tx.send(input);
        let _ = self.poller.notify();
    }
}

/// A running group member over real UDP/TCP sockets.
///
/// Dropping the agent (or calling [`Agent::shutdown`]) stops it
/// *abruptly*, which peers will detect as a failure; call
/// [`Agent::leave`] first for a graceful departure.
///
/// An `Agent` is `Send` but not `Sync`: its [`Agent::events`] receiver
/// is a `std::sync::mpsc::Receiver`, which has one consumer. Move the
/// agent to the thread that uses it rather than sharing it.
pub struct Agent {
    inner: Arc<Inner>,
    /// The reactor's event-loop thread; taken by the first shutdown.
    thread: Mutex<Option<JoinHandle<()>>>,
    events_rx: Receiver<AgentEvent>,
}

impl Agent {
    /// Binds sockets, starts the protocol core and spawns the reactor
    /// thread.
    ///
    /// # Errors
    ///
    /// Fails if the protocol configuration is invalid or the node name
    /// is longer than the wire format carries
    /// ([`io::ErrorKind::InvalidInput`]), the UDP socket and TCP
    /// listener cannot be bound to the same address, or the poller
    /// cannot be created. Fails with [`io::ErrorKind::Unsupported`]
    /// where the kernel withholds `sendmmsg(2)` or `recvmmsg(2)` (a
    /// seccomp filter can): the reactor has no other datagram path.
    pub fn start(config: AgentConfig) -> io::Result<Agent> {
        let (reactor, events_rx) = Agent::bind(config)?;
        Ok(Agent::spawn(reactor, events_rx))
    }

    /// Everything [`Agent::start`] does short of spawning the reactor
    /// thread, so a failure returns `Err` instead of a running-but-deaf
    /// agent — and so in-crate tests can adjust the reactor, or drive it
    /// on their own thread, before [`Agent::spawn`].
    pub(crate) fn bind(config: AgentConfig) -> io::Result<(Reactor, Receiver<AgentEvent>)> {
        // Reject nonsense configs before touching the network.
        config
            .protocol
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        // Bind TCP first (possibly port 0), then UDP on the same port.
        let tcp = TcpListener::bind(config.bind)?;
        let addr = tcp.local_addr()?;
        let udp = UdpSocket::bind(addr)?;
        tcp.set_nonblocking(true)?;
        // The reactor reads the socket only when poll reports it
        // readable; recv must never block the loop.
        udp.set_nonblocking(true)?;
        polling::mmsg::check_available(udp.as_raw_fd())?;

        let advertised = NodeAddr::from(addr);
        let seed = if config.seed == 0 {
            // Unseeded: derive per-instance entropy. The protocol
            // core's delta-sync epoch is a pure function of the seed,
            // so a process that restarts with the same seed would keep
            // its epoch and peers would trust watermarks from its
            // previous life.
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .ok()
                .and_then(|d| u64::try_from(d.as_nanos()).ok())
                .unwrap_or(0);
            nanos ^ ((std::process::id() as u64) << 32) ^ (addr.port() as u64)
        } else {
            config.seed
        };
        let (events_tx, events_rx) = mpsc::channel();
        let (input_tx, input_rx) = mpsc::channel();
        let node = SwimNode::try_new(
            NodeName::from(config.name),
            advertised,
            config.protocol,
            seed,
        )
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        // Boot the core before it goes behind the lock; what that
        // stages is the reactor's first flush.
        let mut driver = Driver::new(node);
        let mut send_io = SendIo::new(SEND_BATCH);
        driver.start(Time::ZERO, &mut send_io);
        let inner = Arc::new(Inner {
            driver: Mutex::new(driver),
            udp,
            advertised,
            start: Instant::now(),
            shutdown: AtomicBool::new(false),
            input_tx,
            poller: Arc::new(Poller::new()?),
            counters: IoCounters::default(),
        });
        let reactor = Reactor::new(inner, tcp, input_rx, events_tx, send_io)?;
        Ok((reactor, events_rx))
    }

    /// Moves a bound reactor onto its event-loop thread.
    pub(crate) fn spawn(reactor: Reactor, events_rx: Receiver<AgentEvent>) -> Agent {
        let inner = Arc::clone(&reactor.inner);
        let thread = std::thread::spawn(move || reactor.run());
        Agent {
            inner,
            thread: Mutex::new(Some(thread)),
            events_rx,
        }
    }

    /// The agent's advertised address (bound UDP/TCP port).
    pub fn addr(&self) -> SocketAddr {
        self.inner.advertised.socket_addr()
    }

    /// The agent's node name.
    pub fn name(&self) -> NodeName {
        self.inner.driver.lock().node().name().clone()
    }

    /// Joins a cluster through the given seed addresses. Like every
    /// drive, the join is queued for the reactor thread and this call
    /// returns before it has run; [`Agent::shutdown`] still drives
    /// everything queued before it.
    pub fn join(&self, seeds: &[SocketAddr]) {
        let seeds: Vec<NodeAddr> = seeds.iter().map(|&s| NodeAddr::from(s)).collect();
        self.inner.submit(Input::Join { seeds });
    }

    /// Gracefully leaves the group (peers observe a leave, not a
    /// failure).
    pub fn leave(&self) {
        self.inner.submit(Input::Leave);
    }

    /// Replaces the local node's application metadata and gossips the
    /// change.
    ///
    /// # Errors
    ///
    /// Refuses a blob longer than [`MAX_META_LEN`] with
    /// [`io::ErrorKind::InvalidInput`]; nothing is queued.
    pub fn update_meta(&self, meta: Bytes) -> io::Result<()> {
        if meta.len() > MAX_META_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("metadata is {} bytes, limit {MAX_META_LEN}", meta.len()),
            ));
        }
        self.inner.submit(Input::UpdateMeta { meta });
        Ok(())
    }

    /// Snapshot of the membership table.
    pub fn members(&self) -> Vec<Member> {
        self.inner
            .driver
            .lock()
            .node()
            .members()
            .map(MemberRef::to_member)
            .collect()
    }

    /// Number of members believed alive (including self).
    pub fn num_alive(&self) -> usize {
        self.inner.driver.lock().node().num_alive()
    }

    /// Current Local Health Multiplier score.
    pub fn local_health(&self) -> u32 {
        self.inner.driver.lock().node().local_health()
    }

    /// The agent's full metrics export in the runtime-independent
    /// snapshot shape: the protocol core's deterministic metrics
    /// (probe RTT, suspicion lifetimes, LHM, anti-entropy volume)
    /// plus the reactor's transport counters (syscalls, batching, the
    /// three drop classes, event-loop wakeups). The same shape the
    /// sim's `Cluster::metrics_snapshot` returns, so socket and
    /// simulated runs aggregate through one `swim-metrics` pipeline.
    pub fn metrics(&self) -> lifeguard_metrics::Snapshot {
        let core = self.inner.driver.lock().metrics();
        lifeguard_metrics::Snapshot {
            core,
            io: self.inner.counters.io_snapshot(),
        }
    }

    /// The membership event channel (drain it with `try_iter`; it never
    /// needs to block).
    pub fn events(&self) -> &Receiver<AgentEvent> {
        &self.events_rx
    }

    /// Stops the agent abruptly (no leave message of its own) and joins
    /// its thread; inputs queued before the call are still driven and
    /// their datagrams sent, so `leave()` followed by `shutdown()` is a
    /// graceful exit. The read accessors keep working afterwards.
    /// Idempotent: the second and later calls (including the one
    /// [`Drop`] performs) are no-ops.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        let _ = self.inner.poller.notify();
        let thread = self.thread.lock().take();
        if let Some(thread) = thread {
            let _ = thread.join();
        }
    }
}

impl Drop for Agent {
    fn drop(&mut self) {
        // The notify ends the reactor's poll wait at once and nothing
        // on the loop blocks, so the join returns within one loop pass:
        // a dropped agent never leaks its thread.
        self.shutdown();
    }
}

impl std::fmt::Debug for Agent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Agent")
            .field("addr", &self.addr())
            .field("num_alive", &self.num_alive())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifeguard_core::driver::Sink;
    use std::time::Duration;

    /// A sped-up protocol config so socket tests finish in seconds.
    fn fast() -> Config {
        let mut cfg = Config::lan()
            .lifeguard()
            .with_probe_timing(Duration::from_millis(200), Duration::from_millis(100));
        cfg.gossip_interval = Duration::from_millis(50);
        cfg.suspicion_alpha = 3.0;
        cfg.suspicion_beta = 2.0;
        cfg.push_pull_interval = Some(Duration::from_secs(2));
        cfg
    }

    fn wait_for(deadline: Duration, mut check: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if check() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        false
    }

    #[test]
    fn three_agents_converge_over_localhost_reactor() {
        let start = |name: &str, seed: u64| {
            Agent::start(AgentConfig::local(name).protocol(fast()).seed(seed)).unwrap()
        };
        let (a, b, c) = (start("a", 1), start("b", 2), start("c", 3));
        b.join(&[a.addr()]);
        c.join(&[a.addr()]);
        assert!(
            wait_for(Duration::from_secs(10), || {
                a.num_alive() == 3 && b.num_alive() == 3 && c.num_alive() == 3
            }),
            "agents failed to converge: a={} b={} c={}",
            a.num_alive(),
            b.num_alive(),
            c.num_alive()
        );
        a.shutdown();
        b.shutdown();
        c.shutdown();
    }

    #[test]
    fn abrupt_shutdown_is_detected_as_failure() {
        let a = Agent::start(AgentConfig::local("a").protocol(fast()).seed(4)).unwrap();
        let b = Agent::start(AgentConfig::local("b").protocol(fast()).seed(5)).unwrap();
        b.join(&[a.addr()]);
        assert!(wait_for(Duration::from_secs(10), || a.num_alive() == 2
            && b.num_alive() == 2));
        b.shutdown();
        // Suspicion min = 3 * max(1, log10(2)) * 200ms = 600ms, max 1.2s.
        assert!(
            wait_for(Duration::from_secs(20), || {
                a.events().try_iter().any(|e| {
                    matches!(&e.event, Event::MemberFailed { name, .. } if name.as_str() == "b")
                }) || a
                    .members()
                    .iter()
                    .any(|m| m.name.as_str() == "b" && !m.is_live())
            }),
            "b's failure was never detected"
        );
        a.shutdown();
    }

    #[test]
    fn graceful_leave_is_not_a_failure() {
        let a = Agent::start(AgentConfig::local("a").protocol(fast()).seed(6)).unwrap();
        let b = Agent::start(AgentConfig::local("b").protocol(fast()).seed(7)).unwrap();
        b.join(&[a.addr()]);
        assert!(wait_for(Duration::from_secs(10), || a.num_alive() == 2));
        b.leave();
        assert!(
            wait_for(Duration::from_secs(10), || {
                a.events()
                    .try_iter()
                    .any(|e| matches!(&e.event, Event::MemberLeft { name } if name.as_str() == "b"))
            }),
            "leave event never observed"
        );
        b.shutdown();
        a.shutdown();
    }

    #[test]
    fn invalid_config_is_rejected_before_binding() {
        let mut bad = fast();
        bad.gossip_nodes = 0;
        let err = Agent::start(AgentConfig::local("x").protocol(bad)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn over_long_name_and_oversized_meta_are_refused() {
        let name = "n".repeat(usize::from(u16::MAX) + 1);
        let err = Agent::start(AgentConfig::local(&name).protocol(fast())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        let a = Agent::start(AgentConfig::local("a").protocol(fast()).seed(12)).unwrap();
        assert!(a.update_meta(Bytes::from(vec![1; MAX_META_LEN])).is_ok());
        let err = a.update_meta(Bytes::from(vec![1; MAX_META_LEN + 1])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        a.shutdown();
    }

    /// Inputs queued before `shutdown()` are driven and their datagrams
    /// flushed before the loop exits.
    #[test]
    fn leave_then_immediate_shutdown_is_seen_as_a_leave() {
        let a = Agent::start(AgentConfig::local("a").protocol(fast()).seed(10)).unwrap();
        let b = Agent::start(AgentConfig::local("b").protocol(fast()).seed(11)).unwrap();
        b.join(&[a.addr()]);
        assert!(wait_for(Duration::from_secs(10), || a.num_alive() == 2
            && b.num_alive() == 2));
        b.leave();
        b.shutdown();
        assert!(
            b.members()
                .iter()
                .any(|m| m.name.as_str() == "b" && !m.is_live()),
            "the queued leave was never driven"
        );
        let mut seen = Vec::new();
        assert!(
            wait_for(Duration::from_secs(10), || {
                seen.extend(a.events().try_iter().map(|e| e.event));
                seen.iter()
                    .any(|e| matches!(e, Event::MemberLeft { name } if name.as_str() == "b"))
            }),
            "leave event never observed: {seen:?}"
        );
        // Long enough for a crash to have been suspected and declared.
        std::thread::sleep(Duration::from_secs(2));
        seen.extend(a.events().try_iter().map(|e| e.event));
        assert!(
            !seen.iter().any(|e| matches!(e, Event::MemberFailed { .. })),
            "a graceful exit must not read as a failure: {seen:?}"
        );
        a.shutdown();
    }

    #[test]
    fn send_failures_are_counted_not_silent() {
        let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
        let counters = IoCounters::default();
        let mut io = SendIo::new(4);
        // Port 0 is never a valid destination: the kernel rejects the
        // send with EINVAL, which must land in `send_errors`.
        io.transmit(NodeAddr::new([127, 0, 0, 1], 0), b"doomed");
        io.flush(&udp, &counters);
        let io = counters.io_snapshot();
        assert_eq!(io.send_syscalls, 1);
        assert_eq!(io.send_errors, 1);
        assert_eq!(io.datagrams_sent, 0);
    }

    #[test]
    fn converged_pair_reports_io_activity_in_stats() {
        let a = Agent::start(AgentConfig::local("a").protocol(fast()).seed(41)).unwrap();
        let b = Agent::start(AgentConfig::local("b").protocol(fast()).seed(42)).unwrap();
        b.join(&[a.addr()]);
        // Membership can converge over the TCP push-pull before the
        // first UDP probe fires, so wait for the datagram counters
        // too, not just `num_alive`.
        let saw_udp = |agent: &Agent| {
            let io = agent.metrics().io;
            io.send_syscalls > 0
                && io.datagrams_sent > 0
                && io.recv_syscalls > 0
                && io.datagrams_received > 0
        };
        assert!(
            wait_for(Duration::from_secs(10), || a.num_alive() == 2
                && b.num_alive() == 2
                && saw_udp(&a)
                && saw_udp(&b)),
            "pair failed to converge with UDP activity: a={:?} b={:?}",
            a.metrics().io,
            b.metrics().io
        );
        for agent in [&a, &b] {
            let io = agent.metrics().io;
            assert_eq!(io.recv_truncations, 0, "{io:?}");
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn lock_is_infallible_after_panic() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the std mutex");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_joins_threads() {
        let a = Agent::start(AgentConfig::local("solo").protocol(fast()).seed(8)).unwrap();
        a.shutdown();
        a.shutdown(); // second call is a no-op
        assert!(a.thread.lock().is_none());
        drop(a); // drop after shutdown is fine too

        // Dropping without shutdown joins the thread (no leak, no
        // hang).
        let b = Agent::start(AgentConfig::local("solo2").protocol(fast()).seed(9)).unwrap();
        let start = Instant::now();
        drop(b);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "drop must join promptly"
        );
    }

    /// An attacker-sized length prefix is rejected without allocating:
    /// the agent stays healthy and still converges afterwards.
    #[test]
    fn oversized_stream_frame_is_rejected_not_buffered() {
        let a = Agent::start(AgentConfig::local("a").protocol(fast()).seed(31)).unwrap();
        // A hand-built frame header claiming a 1 GiB body, above the
        // 16 MiB `MAX_STREAM_FRAME`.
        let mut frame = Vec::new();
        frame.push(4u8);
        frame.extend_from_slice(&[127, 0, 0, 1]);
        frame.extend_from_slice(&9u16.to_be_bytes());
        frame.extend_from_slice(&(1u32 << 30).to_be_bytes());
        {
            use std::io::Write;
            let mut stream = std::net::TcpStream::connect(a.addr()).unwrap();
            stream.write_all(&frame).unwrap();
            // Keep the connection open briefly; the agent must drop it.
            std::thread::sleep(Duration::from_millis(100));
        }
        // The agent is still alive and functional.
        let b = Agent::start(AgentConfig::local("b").protocol(fast()).seed(32)).unwrap();
        b.join(&[a.addr()]);
        assert!(
            wait_for(Duration::from_secs(10), || a.num_alive() == 2
                && b.num_alive() == 2),
            "agent did not survive the oversized frame"
        );
        a.shutdown();
        b.shutdown();
    }
}
