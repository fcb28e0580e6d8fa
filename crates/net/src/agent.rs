//! A memberlist-style agent: the protocol core driven by real sockets.
//!
//! The agent is a thin I/O shell around the shared sans-I/O
//! [`Driver`] harness from `lifeguard-core` — the same harness the
//! deterministic simulator uses, so the protocol logic running here is
//! *identical* to the simulated one. [`Agent::start`] binds one UDP
//! socket and one TCP listener on the same port and hands them to one
//! of two runtimes (see [`Runtime`]):
//!
//! * **[`Runtime::Reactor`]** (the default): a single readiness-driven
//!   event-loop thread over the [`polling`] poller — nonblocking
//!   accept/read/write state machines for TCP, exact-deadline timer
//!   wakeups off the core's timer wheel, no fixed-interval sleeps
//!   anywhere (`crates/net/src/reactor.rs`).
//! * **[`Runtime::Threaded`]**: the legacy four-thread layout (UDP
//!   reader blocking with a read timeout, poll-gated accept loop,
//!   deadline-chasing ticker, fixed stream-writer pool), kept during
//!   the migration and as a behavioural cross-check.
//!
//! UDP transmits happen inline from the driver's sink with zero copies:
//! the packet payload is borrowed straight from the protocol core's
//! scratch buffer into `send_to`.
//!
//! Membership conclusions are delivered on a channel as [`AgentEvent`]s.
//!
//! Shutdown is idempotent and [`Drop`] also performs it, joining every
//! spawned thread — a dropped-without-`shutdown` agent no longer leaks
//! its driver threads.

use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use lifeguard_core::config::Config;
use lifeguard_core::driver::{Driver, Sink};
use lifeguard_core::event::Event;
use lifeguard_core::member::Member;
use lifeguard_core::node::{Input, SwimNode};
use lifeguard_core::time::Time;
use lifeguard_proto::{Message, NodeAddr, NodeName};
use parking_lot::Mutex;
use polling::{Event as PollEvent, Events, Poller};

use crate::reactor::{self, Reactor};
use crate::transport;

/// A timestamped membership event from a running agent.
#[derive(Clone, Debug)]
pub struct AgentEvent {
    /// Agent-relative time the conclusion was reached.
    pub at: Time,
    /// The conclusion.
    pub event: Event,
}

/// Which I/O runtime drives the protocol core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Runtime {
    /// One readiness-driven event-loop thread (nonblocking sockets,
    /// poll-based wakeups, exact timer deadlines). The default.
    #[default]
    Reactor,
    /// The legacy blocking-thread layout: UDP reader, accept loop,
    /// ticker, and a fixed stream-writer pool. Kept for migration and
    /// as a cross-check; probe handling is readiness-gated too (no
    /// sleep-backoff quantisation), but tick precision is bounded by
    /// the ticker's 1 ms floor.
    Threaded,
}

/// Largest per-syscall batch the kernel accepts (`UIO_MAXIOV`): both
/// the sendmmsg flush size and the recvmmsg ring are capped here.
pub const MAX_IO_BATCH: usize = 1024;

/// Default sendmmsg flush size: packets deferred per burst before the
/// batch is handed to the kernel in one syscall.
pub const DEFAULT_SEND_BATCH: usize = 64;

/// Default recvmmsg ring slots: datagrams received per syscall.
pub const DEFAULT_RECV_BURST: usize = 16;

/// Default bound on datagrams drained per readiness event before the
/// reactor yields back to its loop (level-triggered readiness
/// re-reports anything left).
pub const DEFAULT_DATAGRAM_BURST: usize = 1024;

/// An invalid [`AgentConfig`] field, reported by
/// [`AgentConfig::validate`] (and by [`Agent::start`], wrapped in
/// [`io::ErrorKind::InvalidInput`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AgentConfigError {
    /// `io_batch.batch_size` is zero — a flush could never send.
    ZeroSendBatch,
    /// `io_batch.batch_size` exceeds [`MAX_IO_BATCH`] (`UIO_MAXIOV`:
    /// the kernel would truncate the batch).
    SendBatchTooLarge {
        /// The rejected value.
        got: usize,
    },
    /// `io_batch.recv_burst` is zero — a receive ring with no slots.
    ZeroRecvBurst,
    /// `io_batch.recv_burst` exceeds [`MAX_IO_BATCH`].
    RecvBurstTooLarge {
        /// The rejected value.
        got: usize,
    },
    /// `io_batch.max_burst` is zero — the reactor could never drain a
    /// readable socket.
    ZeroDatagramBurst,
}

impl std::fmt::Display for AgentConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgentConfigError::ZeroSendBatch => write!(f, "io_batch.batch_size must be at least 1"),
            AgentConfigError::SendBatchTooLarge { got } => write!(
                f,
                "io_batch.batch_size {got} exceeds the kernel bound {MAX_IO_BATCH} (UIO_MAXIOV)"
            ),
            AgentConfigError::ZeroRecvBurst => write!(f, "io_batch.recv_burst must be at least 1"),
            AgentConfigError::RecvBurstTooLarge { got } => write!(
                f,
                "io_batch.recv_burst {got} exceeds the kernel bound {MAX_IO_BATCH} (UIO_MAXIOV)"
            ),
            AgentConfigError::ZeroDatagramBurst => {
                write!(f, "io_batch.max_burst must be at least 1")
            }
        }
    }
}

impl std::error::Error for AgentConfigError {}

/// Batched-I/O tuning for the reactor runtime's UDP datapath.
///
/// With `batching` on (the default), the reactor defers the packets
/// each drive produces and flushes a whole burst with one
/// `sendmmsg(2)`, and drains inbound readiness through a preallocated
/// `recvmmsg(2)` ring instead of one `recv_from` (plus one payload
/// copy) per datagram. The wire behaviour is identical — batching
/// changes syscall counts, never packet contents or order.
///
/// [`Runtime::Threaded`] ignores everything except `max_burst`
/// (its blocking reader has no burst concept to bound); the flag
/// exists so the same config can A/B the two datapaths on the reactor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoBatchConfig {
    /// Use `sendmmsg`/`recvmmsg` on the reactor (default `true`).
    /// Kernels without the syscalls fall back to single-shot I/O
    /// automatically; this flag forces the fallback for comparison.
    pub batching: bool,
    /// Packets accumulated per send flush, in `1..=`[`MAX_IO_BATCH`]
    /// (default [`DEFAULT_SEND_BATCH`]). A burst larger than this is
    /// split across several syscalls; a batch of one degenerates to
    /// plain `send_to`.
    pub batch_size: usize,
    /// Receive-ring slots filled per `recvmmsg`, in
    /// `1..=`[`MAX_IO_BATCH`] (default [`DEFAULT_RECV_BURST`]). Each
    /// slot holds a full 64 KiB datagram, so memory is
    /// `recv_burst × 64 KiB` per agent.
    pub recv_burst: usize,
    /// Most datagrams drained per readiness event before the reactor
    /// yields back to its loop (default [`DEFAULT_DATAGRAM_BURST`];
    /// formerly the hardcoded `MAX_DATAGRAM_BURST`).
    pub max_burst: usize,
}

impl Default for IoBatchConfig {
    fn default() -> Self {
        IoBatchConfig {
            batching: true,
            batch_size: DEFAULT_SEND_BATCH,
            recv_burst: DEFAULT_RECV_BURST,
            max_burst: DEFAULT_DATAGRAM_BURST,
        }
    }
}

impl IoBatchConfig {
    /// Single-shot I/O (`batching: false`) with default bounds — the
    /// pre-batching datapath, kept addressable for A/B runs.
    pub fn single_shot() -> Self {
        IoBatchConfig {
            batching: false,
            ..IoBatchConfig::default()
        }
    }

    /// Checks every field against its documented range.
    ///
    /// # Errors
    ///
    /// The first violated bound, as a typed [`AgentConfigError`].
    pub fn validate(&self) -> Result<(), AgentConfigError> {
        if self.batch_size == 0 {
            return Err(AgentConfigError::ZeroSendBatch);
        }
        if self.batch_size > MAX_IO_BATCH {
            return Err(AgentConfigError::SendBatchTooLarge {
                got: self.batch_size,
            });
        }
        if self.recv_burst == 0 {
            return Err(AgentConfigError::ZeroRecvBurst);
        }
        if self.recv_burst > MAX_IO_BATCH {
            return Err(AgentConfigError::RecvBurstTooLarge {
                got: self.recv_burst,
            });
        }
        if self.max_burst == 0 {
            return Err(AgentConfigError::ZeroDatagramBurst);
        }
        Ok(())
    }
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
    /// The I/O runtime (defaults to [`Runtime::Reactor`]).
    pub runtime: Runtime,
    /// Largest accepted inbound stream frame body, in bytes (defaults
    /// to [`transport::MAX_STREAM_FRAME`]). Oversized length prefixes
    /// are rejected before any buffer is allocated for them.
    pub max_stream_frame: usize,
    /// Batched-I/O tuning for the reactor's UDP datapath (see
    /// [`IoBatchConfig`]; defaults to batching on).
    pub io_batch: IoBatchConfig,
}

impl AgentConfig {
    /// Localhost agent with an OS-assigned port.
    pub fn local(name: impl Into<String>) -> Self {
        AgentConfig {
            name: name.into(),
            bind: SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0),
            protocol: Config::lan().lifeguard(),
            seed: 0,
            runtime: Runtime::default(),
            max_stream_frame: transport::MAX_STREAM_FRAME,
            io_batch: IoBatchConfig::default(),
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

    /// Selects the I/O runtime.
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Sets the largest accepted inbound stream frame body, in bytes.
    pub fn max_stream_frame(mut self, bytes: usize) -> Self {
        self.max_stream_frame = bytes;
        self
    }

    /// Replaces the batched-I/O tuning.
    pub fn io_batch(mut self, io_batch: IoBatchConfig) -> Self {
        self.io_batch = io_batch;
        self
    }

    /// Checks the agent-level fields (the protocol [`Config`] has its
    /// own [`Config::validate`], which [`Agent::start`] also runs).
    ///
    /// # Errors
    ///
    /// The first violated bound, as a typed [`AgentConfigError`].
    pub fn validate(&self) -> Result<(), AgentConfigError> {
        self.io_batch.validate()
    }
}

/// An outbound stream message: destination plus the not-yet-encoded
/// message (framing happens off the driver lock — on a writer thread
/// in the threaded runtime, on the reactor loop in the reactor
/// runtime, in both cases never while a large push-pull would hold the
/// protocol core hostage).
pub(crate) type StreamJob = (SocketAddr, Message);

/// Writer threads in the threaded runtime's stream pool. Bounds the
/// damage of blocking connects to unreachable peers (each can stall one
/// writer for up to [`transport::STREAM_TIMEOUT`]) without reverting to
/// the seed's thread-spawn-per-send.
const STREAM_WRITERS: usize = 4;

/// How long the threaded runtime's loops sleep at most before
/// re-checking the shutdown flag.
const SHUTDOWN_POLL: Duration = Duration::from_millis(20);

/// Per-agent datagram I/O counters (lock-free; written by the sink and
/// runtime threads, snapshotted by [`Agent::stats`]). Dropped sends in
/// particular are *counted*, not just discarded: SWIM treats every
/// datagram as droppable, but an operator debugging a silent cluster
/// needs to see whether the drops happen locally or in the network.
#[derive(Debug, Default)]
pub(crate) struct IoCounters {
    /// Send syscalls issued (`send_to` and `sendmmsg` each count 1).
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
    /// Receive syscalls issued (`recv_from` and `recvmmsg` each
    /// count 1, including ones that return `WouldBlock`).
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
    /// Reactor event-loop wakeups (poll returns); zero under the
    /// threaded runtime.
    pub(crate) wakeups: AtomicU64,
}

impl IoCounters {
    /// The counters in the metrics plane's runtime-agnostic shape;
    /// [`IoStats`] is derived from this, not the other way round.
    fn io_snapshot(&self) -> lifeguard_metrics::IoSnapshot {
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

    fn snapshot(&self) -> IoStats {
        IoStats::from(self.io_snapshot())
    }
}

/// A snapshot of one agent's datagram I/O counters ([`Agent::stats`]).
///
/// `datagrams_sent / send_syscalls` is the send-side batching factor;
/// the three drop counters (`send_errors`, `would_block_drops`,
/// `recv_truncations`) expose datagrams that earlier versions discarded
/// silently.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Send syscalls issued (`send_to` and `sendmmsg` each count 1).
    pub send_syscalls: u64,
    /// `sendmmsg` flushes that transferred more than one datagram.
    pub sendmmsg_batches: u64,
    /// Datagrams the kernel accepted for sending.
    pub datagrams_sent: u64,
    /// Datagrams dropped on a send error other than `WouldBlock`.
    pub send_errors: u64,
    /// Datagrams dropped because the socket's send buffer was full.
    pub would_block_drops: u64,
    /// Receive syscalls issued (including `WouldBlock` probes).
    pub recv_syscalls: u64,
    /// Datagrams received.
    pub datagrams_received: u64,
    /// Received datagrams dropped as truncated (`MSG_TRUNC`).
    pub recv_truncations: u64,
}

impl From<lifeguard_metrics::IoSnapshot> for IoStats {
    fn from(s: lifeguard_metrics::IoSnapshot) -> IoStats {
        IoStats {
            send_syscalls: s.send_syscalls,
            sendmmsg_batches: s.sendmmsg_batches,
            datagrams_sent: s.datagrams_sent,
            send_errors: s.send_errors,
            would_block_drops: s.would_block_drops,
            recv_syscalls: s.recv_syscalls,
            datagrams_received: s.datagrams_received,
            recv_truncations: s.recv_truncations,
        }
    }
}

/// The agent's [`Sink`]: UDP transmits go straight to the socket
/// (borrowing the core's scratch buffer — no copy), stream messages are
/// queued for the stream writer (pool or reactor), events go to the
/// subscriber channel.
pub(crate) struct NetSink<'a> {
    pub(crate) udp: &'a UdpSocket,
    pub(crate) counters: &'a IoCounters,
    stream_tx: &'a Sender<StreamJob>,
    events_tx: &'a Sender<AgentEvent>,
    now: Time,
}

/// One counted `send_to`. Send errors — including `WouldBlock` from a
/// full send buffer on the reactor's nonblocking socket — drop the
/// datagram. That is the UDP contract the protocol is built for: SWIM
/// treats every datagram as droppable, and a full local buffer is
/// indistinguishable from loss in the network. The counters make the
/// drops observable. Shared between [`NetSink::transmit`] and the
/// reactor's batch-flush fallback paths.
pub(crate) fn send_counted(
    udp: &UdpSocket,
    counters: &IoCounters,
    to: SocketAddr,
    payload: &[u8],
) {
    counters.send_syscalls.fetch_add(1, Ordering::Relaxed);
    match udp.send_to(payload, to) {
        Ok(_) => {
            counters.datagrams_sent.fetch_add(1, Ordering::Relaxed);
            counters
                .datagram_bytes
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
        }
        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
            counters.would_block_drops.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            counters.send_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Sink for NetSink<'_> {
    fn transmit(&mut self, to: NodeAddr, payload: &[u8]) {
        send_counted(self.udp, self.counters, to.socket_addr(), payload);
    }

    fn stream(&mut self, to: NodeAddr, msg: Message) {
        // Hand the message over untouched: a push-pull carries the
        // whole membership table, and both its encoding and the
        // connect/write belong off the protocol path (the driver lock
        // is held while the sink runs). Counted here — the one point
        // both runtimes share — with the encoded body length, the same
        // unit the sim's telemetry records.
        self.counters.streams_sent.fetch_add(1, Ordering::Relaxed);
        self.counters.stream_bytes.fetch_add(
            lifeguard_proto::codec::encoded_len(&msg) as u64,
            Ordering::Relaxed,
        );
        let _ = self.stream_tx.send((to.socket_addr(), msg));
    }

    fn event(&mut self, event: Event) {
        let _ = self.events_tx.send(AgentEvent {
            at: self.now,
            event,
        });
    }
}

pub(crate) struct Inner {
    pub(crate) driver: Mutex<Driver>,
    pub(crate) udp: UdpSocket,
    pub(crate) advertised: NodeAddr,
    pub(crate) max_stream_frame: usize,
    start: Instant,
    pub(crate) shutdown: AtomicBool,
    events_tx: Sender<AgentEvent>,
    stream_tx: Sender<StreamJob>,
    /// The reactor runtime's poller (None under [`Runtime::Threaded`]):
    /// drives from API threads notify it so the event loop re-reads the
    /// next deadline and picks up queued stream jobs.
    poller: Option<Arc<Poller>>,
    /// Datagram batching knobs, frozen at start ([`AgentConfig::io_batch`]).
    pub(crate) io_batch: IoBatchConfig,
    pub(crate) counters: IoCounters,
}

impl Inner {
    pub(crate) fn now(&self) -> Time {
        Time::from_micros(self.start.elapsed().as_micros() as u64)
    }

    /// Builds the agent's [`Sink`] over its socket, channels and
    /// counters for one drive.
    pub(crate) fn sink(&self, now: Time) -> NetSink<'_> {
        NetSink {
            udp: &self.udp,
            counters: &self.counters,
            stream_tx: &self.stream_tx,
            events_tx: &self.events_tx,
            now,
        }
    }

    /// Feeds one input through the shared driver harness; the sink
    /// executes every effect against the real network before the driver
    /// lock is released.
    pub(crate) fn drive(&self, input: Input, now: Time) {
        {
            let mut driver = self.driver.lock();
            let mut sink = self.sink(now);
            // lint: allow(lock_discipline) — by design: effects are sent under the driver lock so network order matches protocol order; the UDP socket is non-blocking, so the send cannot park the lock holder
            let _ = driver.handle(input, now, &mut sink);
        }
        // The drive may have armed an earlier timer or queued a stream
        // job; wake the reactor so it re-plans. The reactor's own
        // drives skip this — its loop re-computes before every wait.
        if let Some(poller) = &self.poller {
            if !reactor::on_reactor_thread() {
                let _ = poller.notify();
            }
        }
    }
}

/// A running group member over real UDP/TCP sockets.
///
/// Dropping the agent (or calling [`Agent::shutdown`]) stops it
/// *abruptly*, which peers will detect as a failure; call
/// [`Agent::leave`] first for a graceful departure.
pub struct Agent {
    inner: Arc<Inner>,
    // bounded: filled once at startup with the runtime's fixed thread set, drained on shutdown
    threads: Mutex<Vec<JoinHandle<()>>>,
    events_rx: Receiver<AgentEvent>,
}

impl Agent {
    /// Binds sockets, starts the protocol core and spawns the runtime
    /// (one reactor thread, or the legacy thread set — see
    /// [`AgentConfig::runtime`]).
    ///
    /// # Errors
    ///
    /// Fails if the protocol configuration is invalid
    /// ([`io::ErrorKind::InvalidInput`]), the UDP socket and TCP
    /// listener cannot be bound to the same address, or the poller
    /// cannot be created.
    pub fn start(config: AgentConfig) -> io::Result<Agent> {
        // Reject nonsense configs before touching the network.
        config
            .protocol
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        // Bind TCP first (possibly port 0), then UDP on the same port.
        let tcp = TcpListener::bind(config.bind)?;
        let addr = tcp.local_addr()?;
        let udp = UdpSocket::bind(addr)?;
        tcp.set_nonblocking(true)?;
        match config.runtime {
            // The reactor reads the socket only when poll reports it
            // readable; recv must never block the loop.
            Runtime::Reactor => udp.set_nonblocking(true)?,
            // The threaded reader blocks *on the socket* — woken by
            // arrival, no sleep backoff — with a timeout only to
            // observe the shutdown flag.
            Runtime::Threaded => udp.set_read_timeout(Some(SHUTDOWN_POLL))?,
        }

        let advertised = NodeAddr::from(addr);
        let seed = if config.seed == 0 {
            // Unseeded: derive per-instance entropy. The protocol
            // core's delta-sync epoch is a pure function of the seed,
            // so a process that restarts with the same seed would keep
            // its epoch and peers would trust watermarks from its
            // previous life.
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            nanos ^ ((std::process::id() as u64) << 32) ^ (addr.port() as u64)
        } else {
            config.seed
        };
        // Built once, referenced twice: the clone below seeds the
        // reactor thread, the original lands in `Inner` for wakeups.
        let (poller, reactor_poller) = match config.runtime {
            Runtime::Reactor => {
                let p = Arc::new(Poller::new()?);
                (Some(Arc::clone(&p)), Some(p))
            }
            Runtime::Threaded => (None, None),
        };
        let (events_tx, events_rx) = unbounded();
        let (stream_tx, stream_rx) = unbounded::<StreamJob>();
        let node = SwimNode::new(
            NodeName::from(config.name),
            advertised,
            config.protocol,
            seed,
        );
        let inner = Arc::new(Inner {
            driver: Mutex::new(Driver::new(node)),
            udp,
            advertised,
            max_stream_frame: config.max_stream_frame,
            start: Instant::now(),
            shutdown: AtomicBool::new(false),
            events_tx,
            stream_tx,
            poller,
            io_batch: config.io_batch,
            counters: IoCounters::default(),
        });
        {
            let mut driver = inner.driver.lock();
            let mut sink = inner.sink(Time::ZERO);
            // lint: allow(lock_discipline) — by design: startup effects flush under the lock before any thread can observe the agent; the socket is non-blocking
            driver.start(Time::ZERO, &mut sink);
        }

        let threads = if let Some(poller) = reactor_poller {
            // Registration happens in `new`, before the thread
            // spawns: a failure here returns Err instead of a
            // running-but-deaf agent.
            let reactor = Reactor::new(Arc::clone(&inner), poller, tcp, stream_rx)?;
            vec![std::thread::spawn(move || reactor.run())]
        } else {
            Self::spawn_threaded(&inner, tcp, stream_rx)?
        };

        Ok(Agent {
            inner,
            threads: Mutex::new(threads),
            events_rx,
        })
    }

    /// The legacy runtime: UDP reader, accept loop, ticker and stream
    /// writer pool as separate blocking threads.
    fn spawn_threaded(
        inner: &Arc<Inner>,
        tcp: TcpListener,
        stream_rx: Receiver<StreamJob>,
    ) -> io::Result<Vec<JoinHandle<()>>> {
        // Everything fallible happens before the first spawn, so an
        // error cannot leak already-running threads out of a failed
        // `Agent::start`.
        let accept_poller = Poller::new()?;
        accept_poller.add(&tcp, PollEvent::readable(0))?;
        let mut threads = Vec::new();
        // Datagram loop: blocks on the socket itself (no sleep backoff,
        // so probe handling latency is arrival-driven, not quantised);
        // the read timeout exists only to observe the shutdown flag.
        {
            let inner = Arc::clone(inner);
            threads.push(std::thread::spawn(move || {
                let mut buf = vec![0u8; 65536];
                while !inner.shutdown.load(Ordering::Relaxed) {
                    let recv = inner.udp.recv_from(&mut buf);
                    inner
                        .counters
                        .recv_syscalls
                        .fetch_add(1, Ordering::Relaxed);
                    match recv {
                        Ok((len, from)) => {
                            inner
                                .counters
                                .datagrams_received
                                .fetch_add(1, Ordering::Relaxed);
                            let now = inner.now();
                            inner.drive(
                                Input::Datagram {
                                    from: NodeAddr::from(from),
                                    payload: Bytes::copy_from_slice(&buf[..len]),
                                },
                                now,
                            );
                        }
                        Err(ref e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut => {}
                        // Queued socket errors (ICMP port-unreachable
                        // from a dead peer) must not kill the reader —
                        // but a persistently erroring socket must not
                        // spin it either, so unexpected errors pay a
                        // short throttle.
                        Err(_) => std::thread::sleep(Duration::from_millis(1)),
                    }
                }
            }));
        }
        // Stream loop: the nonblocking accept is gated on real
        // listener readiness through the poller (the former fixed
        // 5 ms sleep backoff quantised TCP fallback-probe and
        // push-pull latency; a readiness wait does not).
        {
            let inner = Arc::clone(inner);
            threads.push(std::thread::spawn(move || {
                let mut events = Events::new();
                while !inner.shutdown.load(Ordering::Relaxed) {
                    match tcp.accept() {
                        Ok((mut stream, _)) => {
                            let _ = stream.set_read_timeout(Some(transport::STREAM_TIMEOUT));
                            if let Ok((from, msg)) = transport::read_frame_with_limit(
                                &mut stream,
                                inner.max_stream_frame,
                            ) {
                                let now = inner.now();
                                inner.drive(Input::Stream { from, msg }, now);
                            }
                        }
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                            let _ = accept_poller.modify(&tcp, PollEvent::readable(0));
                            let _ = accept_poller.wait(&mut events, Some(SHUTDOWN_POLL));
                        }
                        // Transient accept failures (ECONNABORTED on a
                        // reset backlog entry, EMFILE under fd
                        // pressure) must not kill the stream thread for
                        // the agent's lifetime — throttle and retry.
                        Err(_) => std::thread::sleep(Duration::from_millis(1)),
                    }
                }
            }));
        }
        // Ticker.
        {
            let inner = Arc::clone(inner);
            threads.push(std::thread::spawn(move || {
                while !inner.shutdown.load(Ordering::Relaxed) {
                    let now = inner.now();
                    let due = {
                        let driver = inner.driver.lock();
                        matches!(driver.next_deadline(), Some(wake) if wake <= now)
                    };
                    if due {
                        inner.drive(Input::Tick, now);
                    }
                    let next = inner.driver.lock().next_deadline();
                    let sleep = next
                        .map(|w| w.saturating_since(inner.now()))
                        .unwrap_or(SHUTDOWN_POLL)
                        .min(SHUTDOWN_POLL)
                        .max(Duration::from_millis(1));
                    std::thread::sleep(sleep);
                }
            }));
        }
        // Stream-writer pool: a few threads share the outbound queue
        // (replacing the former thread-spawn-per-send). Each job is
        // encoded and sent on the writer, so a slow or unreachable
        // destination stalls at most one writer for one stream timeout
        // while the others keep draining.
        for _ in 0..STREAM_WRITERS {
            let inner = Arc::clone(inner);
            let stream_rx = stream_rx.clone();
            threads.push(std::thread::spawn(move || {
                while !inner.shutdown.load(Ordering::Relaxed) {
                    // A timeout (or disconnect) just re-checks shutdown.
                    if let Ok((to, msg)) = stream_rx.recv_timeout(SHUTDOWN_POLL) {
                        let _ = transport::send_stream(to, inner.advertised, &msg);
                    }
                }
            }));
        }
        Ok(threads)
    }

    /// The agent's advertised address (bound UDP/TCP port).
    pub fn addr(&self) -> SocketAddr {
        self.inner.advertised.socket_addr()
    }

    /// The agent's node name.
    pub fn name(&self) -> NodeName {
        self.inner.driver.lock().node().name().clone()
    }

    /// Joins a cluster through the given seed addresses.
    pub fn join(&self, seeds: &[SocketAddr]) {
        let now = self.inner.now();
        let seeds: Vec<NodeAddr> = seeds.iter().map(|&s| NodeAddr::from(s)).collect();
        self.inner.drive(Input::Join { seeds }, now);
    }

    /// Gracefully leaves the group (peers observe a leave, not a
    /// failure).
    pub fn leave(&self) {
        let now = self.inner.now();
        self.inner.drive(Input::Leave, now);
    }

    /// Replaces the local node's application metadata and gossips the
    /// change.
    pub fn update_meta(&self, meta: Bytes) {
        let now = self.inner.now();
        self.inner.drive(Input::UpdateMeta { meta }, now);
    }

    /// Snapshot of the membership table.
    pub fn members(&self) -> Vec<Member> {
        self.inner.driver.lock().node().members().cloned().collect()
    }

    /// Number of members believed alive (including self).
    pub fn num_alive(&self) -> usize {
        self.inner.driver.lock().node().num_alive()
    }

    /// Current Local Health Multiplier score.
    pub fn local_health(&self) -> u32 {
        self.inner.driver.lock().node().local_health()
    }

    /// A snapshot of the agent's datagram I/O counters: syscalls,
    /// batching, and the three drop classes (send errors, full-buffer
    /// drops, receive truncations). A thin shim over the I/O half of
    /// [`Agent::metrics`], kept for existing callers.
    pub fn stats(&self) -> IoStats {
        self.inner.counters.snapshot()
    }

    /// The agent's full metrics export in the runtime-independent
    /// snapshot shape: the protocol core's deterministic metrics
    /// (probe RTT, suspicion lifetimes, LHM, anti-entropy volume)
    /// plus this runtime's transport counters — including reactor
    /// wakeups under [`Runtime::Reactor`]. The same shape the sim's
    /// `Cluster::metrics_snapshot` returns, so threaded, reactor and
    /// simulated runs aggregate through one `swim-metrics` pipeline.
    pub fn metrics(&self) -> lifeguard_metrics::Snapshot {
        let core = self.inner.driver.lock().metrics();
        lifeguard_metrics::Snapshot {
            core,
            io: self.inner.counters.io_snapshot(),
        }
    }

    /// The membership event channel.
    pub fn events(&self) -> &Receiver<AgentEvent> {
        &self.events_rx
    }

    /// Stops the agent abruptly (no leave message) and joins its
    /// threads. Idempotent: the second and later calls (including the
    /// one [`Drop`] performs) are no-ops.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        if let Some(poller) = &self.inner.poller {
            let _ = poller.notify();
        }
        let handles: Vec<JoinHandle<()>> = self.threads.lock().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
    }
}

impl Drop for Agent {
    fn drop(&mut self) {
        // Threads observe the flag within one poll interval (the
        // reactor is notified instantly); joining here guarantees a
        // dropped agent never leaks its driver threads. The bound: an
        // idle agent drops in at most tens of milliseconds, while a
        // threaded-runtime writer mid-send to an unreachable peer can
        // hold its join for up to one connect + write timeout
        // (2 × [`transport::STREAM_TIMEOUT`]) — a deliberate trade of
        // a bounded block for leak-freedom.
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

    fn converge_three(runtime: Runtime, seed_base: u64) {
        let a = Agent::start(
            AgentConfig::local("a")
                .protocol(fast())
                .seed(seed_base)
                .runtime(runtime),
        )
        .unwrap();
        let b = Agent::start(
            AgentConfig::local("b")
                .protocol(fast())
                .seed(seed_base + 1)
                .runtime(runtime),
        )
        .unwrap();
        let c = Agent::start(
            AgentConfig::local("c")
                .protocol(fast())
                .seed(seed_base + 2)
                .runtime(runtime),
        )
        .unwrap();
        b.join(&[a.addr()]);
        c.join(&[a.addr()]);
        assert!(
            wait_for(Duration::from_secs(10), || {
                a.num_alive() == 3 && b.num_alive() == 3 && c.num_alive() == 3
            }),
            "{runtime:?} agents failed to converge: a={} b={} c={}",
            a.num_alive(),
            b.num_alive(),
            c.num_alive()
        );
        a.shutdown();
        b.shutdown();
        c.shutdown();
    }

    #[test]
    fn three_agents_converge_over_localhost_reactor() {
        converge_three(Runtime::Reactor, 1);
    }

    #[test]
    fn three_agents_converge_over_localhost_threaded() {
        converge_three(Runtime::Threaded, 11);
    }

    #[test]
    fn mixed_runtimes_interoperate() {
        // The runtime is an I/O detail: a reactor agent and a threaded
        // agent speak the same protocol on the same wire.
        let a = Agent::start(
            AgentConfig::local("a")
                .protocol(fast())
                .seed(21)
                .runtime(Runtime::Reactor),
        )
        .unwrap();
        let b = Agent::start(
            AgentConfig::local("b")
                .protocol(fast())
                .seed(22)
                .runtime(Runtime::Threaded),
        )
        .unwrap();
        b.join(&[a.addr()]);
        assert!(
            wait_for(Duration::from_secs(10), || a.num_alive() == 2
                && b.num_alive() == 2),
            "mixed-runtime pair failed to converge"
        );
        a.shutdown();
        b.shutdown();
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
    fn io_batch_bounds_are_validated_with_typed_errors() {
        let cases = [
            (
                IoBatchConfig {
                    batch_size: 0,
                    ..IoBatchConfig::default()
                },
                AgentConfigError::ZeroSendBatch,
            ),
            (
                IoBatchConfig {
                    batch_size: MAX_IO_BATCH + 1,
                    ..IoBatchConfig::default()
                },
                AgentConfigError::SendBatchTooLarge {
                    got: MAX_IO_BATCH + 1,
                },
            ),
            (
                IoBatchConfig {
                    recv_burst: 0,
                    ..IoBatchConfig::default()
                },
                AgentConfigError::ZeroRecvBurst,
            ),
            (
                IoBatchConfig {
                    recv_burst: MAX_IO_BATCH + 1,
                    ..IoBatchConfig::default()
                },
                AgentConfigError::RecvBurstTooLarge {
                    got: MAX_IO_BATCH + 1,
                },
            ),
            (
                IoBatchConfig {
                    max_burst: 0,
                    ..IoBatchConfig::default()
                },
                AgentConfigError::ZeroDatagramBurst,
            ),
        ];
        for (io_batch, want) in cases {
            let cfg = AgentConfig::local("x").protocol(fast()).io_batch(io_batch);
            assert_eq!(cfg.validate(), Err(want), "{io_batch:?}");
            // And Agent::start refuses before binding anything.
            let err = Agent::start(cfg).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{io_batch:?}");
        }
        assert_eq!(IoBatchConfig::default().validate(), Ok(()));
        assert_eq!(IoBatchConfig::single_shot().validate(), Ok(()));
    }

    #[test]
    fn send_failures_are_counted_not_silent() {
        let (events_tx, _events_rx) = unbounded();
        let (stream_tx, _stream_rx) = unbounded();
        let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
        let counters = IoCounters::default();
        let mut sink = NetSink {
            udp: &udp,
            counters: &counters,
            stream_tx: &stream_tx,
            events_tx: &events_tx,
            now: Time::ZERO,
        };
        // Port 0 is never a valid destination: the kernel rejects the
        // send with EINVAL, which must land in `send_errors`.
        sink.transmit(NodeAddr::new([127, 0, 0, 1], 0), b"doomed");
        let stats = counters.snapshot();
        assert_eq!(stats.send_syscalls, 1);
        assert_eq!(stats.send_errors, 1);
        assert_eq!(stats.datagrams_sent, 0);
    }

    #[test]
    fn converged_pair_reports_io_activity_in_stats() {
        for runtime in [Runtime::Reactor, Runtime::Threaded] {
            let a = Agent::start(
                AgentConfig::local("a")
                    .protocol(fast())
                    .seed(41)
                    .runtime(runtime),
            )
            .unwrap();
            let b = Agent::start(
                AgentConfig::local("b")
                    .protocol(fast())
                    .seed(42)
                    .runtime(runtime),
            )
            .unwrap();
            b.join(&[a.addr()]);
            // Membership can converge over the TCP push-pull before
            // the first UDP probe fires, so wait for the datagram
            // counters too, not just `num_alive`.
            let saw_udp = |agent: &Agent| {
                let s = agent.stats();
                s.send_syscalls > 0
                    && s.datagrams_sent > 0
                    && s.recv_syscalls > 0
                    && s.datagrams_received > 0
            };
            assert!(
                wait_for(Duration::from_secs(10), || a.num_alive() == 2
                    && b.num_alive() == 2
                    && saw_udp(&a)
                    && saw_udp(&b)),
                "{runtime:?} pair failed to converge with UDP activity: a={:?} b={:?}",
                a.stats(),
                b.stats()
            );
            for agent in [&a, &b] {
                let stats = agent.stats();
                assert_eq!(stats.recv_truncations, 0, "{runtime:?}: {stats:?}");
            }
            a.shutdown();
            b.shutdown();
        }
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_joins_threads() {
        for runtime in [Runtime::Reactor, Runtime::Threaded] {
            let a = Agent::start(
                AgentConfig::local("solo")
                    .protocol(fast())
                    .seed(8)
                    .runtime(runtime),
            )
            .unwrap();
            a.shutdown();
            a.shutdown(); // second call is a no-op
            assert!(a.threads.lock().is_empty());
            drop(a); // drop after shutdown is fine too

            // Dropping without shutdown joins the threads (no leak, no
            // hang).
            let b = Agent::start(
                AgentConfig::local("solo2")
                    .protocol(fast())
                    .seed(9)
                    .runtime(runtime),
            )
            .unwrap();
            let start = Instant::now();
            drop(b);
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "{runtime:?} drop must join promptly"
            );
        }
    }

    /// An attacker-sized length prefix is rejected without allocating:
    /// the agent stays healthy and still converges afterwards.
    #[test]
    fn oversized_stream_frame_is_rejected_not_buffered() {
        let a = Agent::start(
            AgentConfig::local("a")
                .protocol(fast())
                .seed(31)
                .max_stream_frame(64 * 1024),
        )
        .unwrap();
        // A hand-built frame header claiming a 1 GiB body.
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
