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
//! # Reads queue behind inputs
//!
//! That thread owns the [`Driver`]; no other thread can reach it.
//! [`Agent::join`], [`Agent::leave`] and [`Agent::update_meta`] queue
//! their [`Input`] for it and return. The read accessors
//! ([`Agent::members`], [`Agent::num_alive`], …) queue a read on the
//! same channel and wait for its answer, which the reactor gives at the
//! top of its next loop pass, in arrival order with the inputs — so a
//! read sees every input this agent queued before it. After
//! [`Agent::shutdown`] reads answer from the driver the reactor thread
//! returned.
//!
//! Membership conclusions are recorded on that thread into an
//! [`EventLog`] that holds at most [`EVENT_LOG_CAP`] of them and counts
//! the rest; [`Agent::events`] is a read that takes the log, leaving an
//! empty one.
//!
//! Shutdown is idempotent and [`Drop`] also performs it, joining the
//! event-loop thread — a dropped-without-`shutdown` agent does not leak
//! it.

use std::cell::{OnceCell, RefCell};
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, UdpSocket};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::Bytes;
use lifeguard_core::config::Config;
use lifeguard_core::driver::Driver;
use lifeguard_core::event_log::EventLog;
use lifeguard_core::member::{Member, MemberRef};
use lifeguard_core::node::{Input, SwimNode};
use lifeguard_core::time::Time;
use lifeguard_proto::{NodeAddr, NodeName, MAX_META_LEN};
use polling::Poller;

use crate::reactor::{Reactor, SendIo, SEND_BATCH};

/// Most membership events an agent stores between two
/// [`Agent::events`] calls: 16 Ki events, about 330 KB of 20-byte
/// records. Past it, events are counted in [`EventLog::overflowed`] and
/// dropped, so an owner that never drains the log does not grow the
/// process.
pub const EVENT_LOG_CAP: usize = 1 << 14;

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

/// What API threads queue for the reactor thread, which takes each in
/// arrival order at the top of its next loop pass.
pub(crate) enum Command {
    /// An input to drive.
    Input(Input),
    /// A read of the driver and the event log; it sees every command
    /// queued before it.
    Read(Box<ReadFn>),
}

/// A read the reactor thread runs for an API thread.
type ReadFn = dyn FnOnce(&Driver, &mut EventLog) + Send;

/// What the reactor thread hands back at shutdown: the driver, and the
/// events not yet taken.
pub(crate) type Stopped = (Box<Driver>, EventLog);

pub(crate) struct Inner {
    pub(crate) udp: UdpSocket,
    pub(crate) advertised: NodeAddr,
    start: Instant,
    pub(crate) shutdown: AtomicBool,
    /// Inputs and reads from API threads, taken by the reactor in
    /// arrival order.
    input_tx: Sender<Command>,
    /// The reactor's poller: API threads notify it after queueing a
    /// command or raising `shutdown`.
    pub(crate) poller: Arc<Poller>,
    pub(crate) counters: IoCounters,
}

impl Inner {
    pub(crate) fn now(&self) -> Time {
        Time::from_micros(u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX))
    }

    /// Queues one command for the reactor thread and wakes it.
    fn submit(&self, command: Command) {
        let _ = self.input_tx.send(command);
        let _ = self.poller.notify();
    }
}

/// A running group member over real UDP/TCP sockets.
///
/// Dropping the agent (or calling [`Agent::shutdown`]) stops it
/// *abruptly*, which peers will detect as a failure; call
/// [`Agent::leave`] first for a graceful departure.
///
/// An `Agent` is `Send` but not `Sync`: its thread handle and what the
/// thread returns at shutdown sit in cells. Move the agent to the thread
/// that uses it rather than sharing it.
pub struct Agent {
    inner: Arc<Inner>,
    name: NodeName,
    /// The reactor's event-loop thread; taken by the first shutdown.
    thread: RefCell<Option<JoinHandle<Stopped>>>,
    /// The driver and event log the reactor thread returned at shutdown;
    /// reads answer from them from then on.
    stopped: OnceCell<(Box<Driver>, RefCell<EventLog>)>,
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
        Ok(Agent::spawn(Agent::bind(config)?))
    }

    /// Everything [`Agent::start`] does short of spawning the reactor
    /// thread, so a failure returns `Err` instead of a running-but-deaf
    /// agent — and so in-crate tests can adjust the reactor, or drive it
    /// on their own thread, before [`Agent::spawn`].
    pub(crate) fn bind(config: AgentConfig) -> io::Result<Reactor> {
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
        let (input_tx, input_rx) = mpsc::channel();
        let node = SwimNode::try_new(
            NodeName::from(config.name),
            advertised,
            config.protocol,
            seed,
        )
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        // Boot the core before handing it to the reactor; what that
        // stages is the reactor's first flush. Boxed: the driver is
        // ~17 KB, and moved by value it would be copied through both
        // threads' stack frames and sit inline in `Agent`.
        let mut driver = Box::new(Driver::new(node));
        let mut send_io = SendIo::new(SEND_BATCH);
        driver.start(Time::ZERO, &mut send_io);
        let inner = Arc::new(Inner {
            udp,
            advertised,
            start: Instant::now(),
            shutdown: AtomicBool::new(false),
            input_tx,
            poller: Arc::new(Poller::new()?),
            counters: IoCounters::default(),
        });
        Reactor::new(inner, driver, tcp, input_rx, send_io)
    }

    /// Moves a bound reactor onto its event-loop thread.
    pub(crate) fn spawn(reactor: Reactor) -> Agent {
        let inner = Arc::clone(&reactor.inner);
        let name = reactor.driver.node().name().clone();
        let thread = std::thread::spawn(move || reactor.run());
        Agent {
            inner,
            name,
            thread: RefCell::new(Some(thread)),
            stopped: OnceCell::new(),
        }
    }

    /// Runs `read` against the driver and the event log and returns its
    /// answer: on the reactor thread, after every command queued before
    /// it, or directly once shutdown has joined that thread. A reactor
    /// thread that died without shutdown (a panic) answers
    /// `R::default()`.
    fn read<R: Default + Send + 'static>(
        &self,
        read: impl FnOnce(&Driver, &mut EventLog) -> R + Send + 'static,
    ) -> R {
        if let Some((driver, log)) = self.stopped.get() {
            return read(driver, &mut log.borrow_mut());
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        self.inner
            .submit(Command::Read(Box::new(move |driver, log| {
                let _ = reply_tx.send(read(driver, log));
            })));
        reply_rx.recv().unwrap_or_default()
    }

    /// The agent's advertised address (bound UDP/TCP port).
    pub fn addr(&self) -> SocketAddr {
        self.inner.advertised.socket_addr()
    }

    /// The agent's node name.
    pub fn name(&self) -> NodeName {
        self.name.clone()
    }

    /// Joins a cluster through the given seed addresses. Like every
    /// drive, the join is queued for the reactor thread and this call
    /// returns before it has run; [`Agent::shutdown`] still drives
    /// everything queued before it.
    pub fn join(&self, seeds: &[SocketAddr]) {
        let seeds: Vec<NodeAddr> = seeds.iter().map(|&s| NodeAddr::from(s)).collect();
        self.inner.submit(Command::Input(Input::Join { seeds }));
    }

    /// Gracefully leaves the group (peers observe a leave, not a
    /// failure).
    pub fn leave(&self) {
        self.inner.submit(Command::Input(Input::Leave));
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
        self.inner
            .submit(Command::Input(Input::UpdateMeta { meta }));
        Ok(())
    }

    /// Snapshot of the membership table.
    pub fn members(&self) -> Vec<Member> {
        self.read(|driver, _| driver.node().members().map(MemberRef::to_member).collect())
    }

    /// Number of members believed alive (including self).
    pub fn num_alive(&self) -> usize {
        self.read(|driver, _| driver.node().num_alive())
    }

    /// Current Local Health Multiplier score.
    pub fn local_health(&self) -> u32 {
        self.read(|driver, _| driver.node().local_health())
    }

    /// The agent's full metrics export in the runtime-independent
    /// snapshot shape: the protocol core's deterministic metrics
    /// (probe RTT, suspicion lifetimes, LHM, anti-entropy volume)
    /// plus the reactor's transport counters (syscalls, batching, the
    /// three drop classes, event-loop wakeups). The same shape the
    /// sim's `Cluster::metrics_snapshot` returns, so socket and
    /// simulated runs compare field by field
    /// (`tests/sim_net_conformance.rs`).
    pub fn metrics(&self) -> lifeguard_metrics::Snapshot {
        let core = self.read(|driver, _| driver.metrics());
        lifeguard_metrics::Snapshot {
            core,
            io: self.inner.counters.io_snapshot(),
        }
    }

    /// Takes the membership conclusions recorded since the previous
    /// call, in order, each at the agent-relative time of the drive that
    /// reached it and as reporter 0; the agent keeps an empty log in its
    /// place, so what was taken is freed with the returned log. At most
    /// [`EVENT_LOG_CAP`] events are stored between two calls; the log's
    /// [`overflowed`](EventLog::overflowed) counts the ones after them.
    /// A read like [`Agent::members`]: it sees every input queued before
    /// it, and after [`Agent::shutdown`] it takes from the log the
    /// reactor thread returned.
    pub fn events(&self) -> EventLog {
        self.read(|_, log| std::mem::replace(log, EventLog::capped(EVENT_LOG_CAP)))
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
        let thread = self.thread.borrow_mut().take();
        if let Some(Ok((driver, log))) = thread.map(JoinHandle::join) {
            let _ = self.stopped.set((driver, RefCell::new(log)));
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
    use lifeguard_core::event::Event;
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
                a.members()
                    .iter()
                    .any(|m| m.name.as_str() == "b" && !m.is_live())
            }),
            "b's failure was never detected"
        );
        // The log outlives the reactor thread: the declaration is read
        // after shutdown.
        a.shutdown();
        let log = a.events();
        assert!(
            log.events().iter().any(|e| {
                matches!(&e.event, Event::MemberFailed { name, .. } if name.as_str() == "b")
            }),
            "no MemberFailed about b in {:?}",
            log.events().iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn graceful_leave_is_not_a_failure() {
        let a = Agent::start(AgentConfig::local("a").protocol(fast()).seed(6)).unwrap();
        let b = Agent::start(AgentConfig::local("b").protocol(fast()).seed(7)).unwrap();
        b.join(&[a.addr()]);
        assert!(wait_for(Duration::from_secs(10), || a.num_alive() == 2));
        b.leave();
        let mut seen = Vec::new();
        assert!(
            wait_for(Duration::from_secs(10), || {
                seen.extend(a.events().events());
                seen.iter()
                    .any(|e| matches!(&e.event, Event::MemberLeft { name } if name.as_str() == "b"))
            }),
            "leave event never observed: {seen:?}"
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
        let err = a
            .update_meta(Bytes::from(vec![1; MAX_META_LEN + 1]))
            .unwrap_err();
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
                seen.extend(a.events().events().into_iter().map(|e| e.event));
                seen.iter()
                    .any(|e| matches!(e, Event::MemberLeft { name } if name.as_str() == "b"))
            }),
            "leave event never observed: {seen:?}"
        );
        // Long enough for a crash to have been suspected and declared.
        std::thread::sleep(Duration::from_secs(2));
        seen.extend(a.events().events().into_iter().map(|e| e.event));
        assert!(
            !seen.iter().any(|e| matches!(e, Event::MemberFailed { .. })),
            "a graceful exit must not read as a failure: {seen:?}"
        );
        a.shutdown();
    }

    /// A read answers after every input queued before it, so an
    /// input's effect is visible at once: no sleep, no polling.
    #[test]
    fn reads_see_every_input_queued_before_them() {
        let a = Agent::start(AgentConfig::local("a").protocol(fast()).seed(13)).unwrap();
        let own = |a: &Agent| a.members().into_iter().find(|m| m.name.as_str() == "a");
        for i in 0..100u8 {
            a.update_meta(Bytes::from(vec![i])).unwrap();
            let meta = own(&a).map(|m| m.meta);
            assert_eq!(
                meta.as_deref(),
                Some(&[i][..]),
                "read ran ahead of update_meta #{i}"
            );
        }
        a.leave();
        assert!(
            own(&a).is_some_and(|m| !m.is_live()),
            "read ran ahead of leave"
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
    fn shutdown_is_idempotent_and_drop_joins_threads() {
        let a = Agent::start(AgentConfig::local("solo").protocol(fast()).seed(8)).unwrap();
        a.shutdown();
        a.shutdown(); // second call is a no-op
        assert!(a.thread.borrow().is_none());
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
