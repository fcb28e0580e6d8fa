//! The readiness-driven reactor: one thread, zero sleeps.
//!
//! [`Reactor::run`] is the agent's whole runtime, a single event loop
//! over a [`polling::Poller`]:
//!
//! * the UDP socket and TCP listener are nonblocking and registered for
//!   read readiness;
//! * inbound TCP connections are nonblocking state machines — each owns
//!   a [`FrameDecoder`] accumulating its partial frame, so a slow
//!   sender stalls nothing;
//! * outbound stream messages are nonblocking connect-then-write state
//!   machines (`connect(2)` returns `EINPROGRESS`, write readiness
//!   completes the handshake, partial writes keep their cursor), so an
//!   unreachable peer consumes a connection-table slot, never a thread;
//! * the poll timeout is **exactly** the protocol core's
//!   [`next_deadline`](lifeguard_core::driver::Driver::next_deadline)
//!   (bounded by the earliest connection deadline), so timers fire on
//!   time instead of on a fixed cadence.
//!
//! Wakeup flow: the reactor thread is the only one that drives the
//! shared [`Driver`](lifeguard_core::driver::Driver). API threads
//! (`join`, `leave`, …) queue an [`Input`] and
//! [`notify`](polling::Poller::notify) the poller; the loop drives
//! queued inputs and due timers at the top of every pass and
//! re-computes its sleep bound before every wait.
//!
//! # Nothing is sent under the lock
//!
//! Every drive has two halves. While the driver guard is held, the
//! reactor's [`Sink`] ([`SendIo`]) only moves memory: each packet is
//! copied into the staging arena, stream messages and events are pushed
//! onto reactor-owned queues. Then the guard is dropped and the reactor
//! does the I/O: staged datagrams go out as one `sendmmsg(2)` per
//! [`SEND_BATCH`] chunk (a probe round's whole fan-out costs one
//! syscall instead of one per peer), events are forwarded to the
//! subscriber channel, and stream frames are encoded and connected at
//! the next loop pass. API threads reading through the lock therefore
//! never wait on a syscall.
//!
//! Receive is batched too: readiness drains through a preallocated
//! `recvmmsg(2)` ring of [`RECV_BURST`] slots, each filled slot handed
//! to the core as a borrowed slice (no per-datagram allocation), the
//! guard taken once per ring fill.
//!
//! These are the only datagram paths: a one-packet flush is a
//! one-entry `sendmmsg`, and [`Agent::start`](crate::Agent::start)
//! refuses to run where either syscall is unavailable.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::ops::Range;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lifeguard_core::driver::Sink;
use lifeguard_core::event::Event as ProtoEvent;
use lifeguard_core::node::Input;
use lifeguard_core::time::Time;
use lifeguard_proto::{Message, NodeAddr};
use polling::mmsg::{RecvRing, SendBatch};
use polling::{Event, Events, Poller};

use crate::agent::{AgentEvent, Inner, IoCounters};
use crate::transport::{self, FrameDecoder};

/// Registration key of the agent's UDP socket.
const KEY_UDP: usize = 0;
/// Registration key of the agent's TCP listener.
const KEY_LISTENER: usize = 1;
/// First key handed to a TCP connection (inbound or outbound).
const FIRST_CONN_KEY: usize = 2;

/// Packets handed to the kernel per `sendmmsg` flush; a longer staged
/// burst is split across several syscalls.
pub(crate) const SEND_BATCH: usize = 64;

/// Receive-ring slots filled per `recvmmsg`. Each slot holds a full
/// [`RECV_SLOT_LEN`] datagram, so the ring costs `RECV_BURST × 64 KiB`
/// per agent.
const RECV_BURST: usize = 16;

/// Most datagrams drained per readiness event before the reactor yields
/// back to its loop (level-triggered readiness re-reports anything
/// left).
const MAX_BURST: usize = 1024;

/// Bytes per receive-ring slot: the largest possible UDP datagram, so
/// `MSG_TRUNC` marks a malformed sender, never a short buffer.
const RECV_SLOT_LEN: usize = 65536;

/// Upper bound on tracked TCP connections (inbound + outbound). At the
/// cap the listener is disarmed — pending connections wait in the OS
/// backlog (or time out) instead of exhausting the process fd table,
/// and accepting resumes as soon as a slot frees.
const MAX_CONNS: usize = 1024;

/// The reactor's [`Sink`] — the only one in this crate — and the
/// staging it fills. While the driver guard is held it only moves
/// memory; [`SendIo::flush`] and the loop carry the effects out once
/// the guard is gone. Everything is reused across drives, so the steady
/// state allocates nothing.
pub(crate) struct SendIo {
    table: SendBatch,
    /// Payload bytes of the staged datagrams, back to back.
    // bounded: cleared every flush; holds at most one burst (the receive drain flushes at one send batch)
    arena: Vec<u8>,
    /// Destination and `arena` range of each staged datagram.
    // bounded: cleared every flush, like `arena`
    stage: Vec<(SocketAddr, Range<usize>)>,
    /// Stream messages awaiting the loop's connect step, not yet
    /// encoded: framing a large push-pull belongs after the guard too.
    // bounded: drained at the top of every loop pass
    streams: VecDeque<(SocketAddr, Message)>,
    /// Membership conclusions awaiting the subscriber channel.
    // bounded: drained after every drive
    events: Vec<ProtoEvent>,
}

impl Sink for SendIo {
    fn transmit(&mut self, to: NodeAddr, payload: &[u8]) {
        let start = self.arena.len();
        self.arena.extend_from_slice(payload);
        self.stage.push((to.socket_addr(), start..self.arena.len()));
    }

    fn stream(&mut self, to: NodeAddr, msg: Message) {
        self.streams.push_back((to.socket_addr(), msg));
    }

    fn event(&mut self, event: ProtoEvent) {
        self.events.push(event);
    }
}

impl SendIo {
    pub(crate) fn new(batch_size: usize) -> SendIo {
        SendIo {
            table: SendBatch::new(batch_size),
            arena: Vec::new(),
            stage: Vec::new(),
            streams: VecDeque::new(),
            events: Vec::new(),
        }
    }

    /// Sends the staged datagrams in order, one `sendmmsg` per
    /// [`SendBatch::max_len`] chunk, and empties the staging.
    pub(crate) fn flush(&mut self, udp: &UdpSocket, counters: &IoCounters) {
        let fd = udp.as_raw_fd();
        let mut unsent: &[(SocketAddr, Range<usize>)] = &self.stage;
        while !unsent.is_empty() {
            match self.table.send(fd, &self.arena, unsent) {
                // Defensive: a nonempty batch reports an error, never
                // zero sends.
                Ok(0) => break,
                Ok(n) => {
                    // `n` never exceeds the batch it reports on.
                    let (sent, rest) = unsent.split_at_checked(n).unwrap_or((unsent, &[]));
                    counters.send_syscalls.fetch_add(1, Ordering::Relaxed);
                    counters
                        .datagrams_sent
                        .fetch_add(sent.len() as u64, Ordering::Relaxed);
                    let bytes: usize = sent.iter().map(|(_, r)| r.len()).sum();
                    counters
                        .datagram_bytes
                        .fetch_add(bytes as u64, Ordering::Relaxed);
                    if n > 1 {
                        counters.sendmmsg_batches.fetch_add(1, Ordering::Relaxed);
                    }
                    unsent = rest;
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Full send buffer: drop the whole remainder. SWIM
                    // treats every datagram as droppable, and a full
                    // local buffer is indistinguishable from loss in
                    // the network; the counter makes the drops visible.
                    counters.send_syscalls.fetch_add(1, Ordering::Relaxed);
                    counters
                        .would_block_drops
                        .fetch_add(unsent.len() as u64, Ordering::Relaxed);
                    break;
                }
                Err(_) => {
                    // sendmmsg reports an error only when the *first*
                    // datagram of the batch fails; count and skip that
                    // head, retry the rest.
                    counters.send_syscalls.fetch_add(1, Ordering::Relaxed);
                    counters.send_errors.fetch_add(1, Ordering::Relaxed);
                    unsent = unsent.split_first().map_or(&[], |(_, rest)| rest);
                }
            }
        }
        self.stage.clear();
        self.arena.clear();
    }
}

/// One TCP connection the reactor is advancing.
enum Conn {
    /// An accepted connection delivering one inbound framed message.
    Inbound {
        stream: TcpStream,
        decoder: FrameDecoder,
        /// Wall-clock instant after which the connection is abandoned.
        deadline: Instant,
    },
    /// An in-progress outbound send: nonblocking connect, then the
    /// frame written as write readiness allows.
    Outbound {
        stream: TcpStream,
        frame: Vec<u8>,
        written: usize,
        /// Whether the nonblocking connect has completed.
        connected: bool,
        /// Wall-clock instant after which the connection is abandoned.
        deadline: Instant,
    },
}

impl Conn {
    fn stream(&self) -> &TcpStream {
        match self {
            Conn::Inbound { stream, .. } | Conn::Outbound { stream, .. } => stream,
        }
    }

    fn deadline(&self) -> Instant {
        match self {
            Conn::Inbound { deadline, .. } | Conn::Outbound { deadline, .. } => *deadline,
        }
    }
}

/// What to do with a connection after advancing its state machine.
enum Advance {
    /// Keep the connection registered with the given interest.
    Keep(Event),
    /// The connection is finished (or failed): deregister and drop.
    Done,
}

/// The single-threaded readiness loop behind every [`Agent`](crate::Agent).
pub(crate) struct Reactor {
    pub(crate) inner: Arc<Inner>,
    poller: Arc<Poller>,
    listener: TcpListener,
    /// Inputs queued by API threads (`join`, `leave`, `update_meta`).
    input_rx: Receiver<Input>,
    events_tx: Sender<AgentEvent>,
    // bounded: accepts are disarmed at MAX_CONNS, so the map never exceeds that cap plus in-flight outbound syncs
    conns: BTreeMap<usize, Conn>,
    next_key: usize,
    /// Whether the listener currently has read interest armed. It is
    /// disarmed at [`MAX_CONNS`] (backpressure) and after an accept
    /// failure like `EMFILE` (throttle: re-armed on the next loop pass
    /// instead of letting level-triggered readiness spin the loop).
    listener_armed: bool,
    pub(crate) send_io: SendIo,
    /// The `recvmmsg` ring every drain fills.
    recv_ring: RecvRing,
}

impl Reactor {
    /// Builds the reactor and registers the agent's long-lived sources
    /// with the poller — registration failures surface here, *before*
    /// the loop thread spawns, so [`Agent::start`](crate::Agent::start)
    /// can refuse to hand out a deaf agent. `send_io` arrives holding
    /// whatever booting the protocol core staged; it is flushed here.
    ///
    /// # Errors
    ///
    /// Propagates poller registration failures.
    pub(crate) fn new(
        inner: Arc<Inner>,
        listener: TcpListener,
        input_rx: Receiver<Input>,
        events_tx: Sender<AgentEvent>,
        send_io: SendIo,
    ) -> io::Result<Reactor> {
        let poller = Arc::clone(&inner.poller);
        poller.add(&inner.udp, Event::readable(KEY_UDP))?;
        poller.add(&listener, Event::readable(KEY_LISTENER))?;
        let mut reactor = Reactor {
            inner,
            poller,
            listener,
            input_rx,
            events_tx,
            conns: BTreeMap::new(),
            next_key: FIRST_CONN_KEY,
            listener_armed: true,
            send_io,
            recv_ring: RecvRing::new(RECV_BURST, RECV_SLOT_LEN),
        };
        reactor.flush(Time::ZERO);
        Ok(reactor)
    }

    /// Feeds one input through the driver. Its effects are staged while
    /// the guard is held and carried out after it is dropped.
    fn drive(&mut self, input: Input, now: Time) {
        {
            let mut driver = self.inner.driver.lock();
            let _ = driver.handle(input, now, &mut self.send_io);
        }
        self.flush(now);
    }

    /// The second half of every drive, run with the driver guard
    /// dropped: sends the staged datagrams and forwards the staged
    /// events. Staged stream messages wait for the loop's connect step.
    fn flush(&mut self, now: Time) {
        self.send_io.flush(&self.inner.udp, &self.inner.counters);
        for event in self.send_io.events.drain(..) {
            let _ = self.events_tx.send(AgentEvent { at: now, event });
        }
    }

    /// Runs the event loop until the agent's shutdown flag is raised.
    pub(crate) fn run(mut self) {
        let mut events = Events::new();
        loop {
            // Read the flag before the input queue: whatever an API
            // thread queued before raising it is driven below, so
            // `leave(); shutdown()` still says goodbye.
            let stopping = self.inner.shutdown.load(Ordering::Relaxed);
            // 1. Drive the inputs API threads queued, then fire due
            //    protocol timers (exact-deadline ticking).
            let now = self.inner.now();
            while let Ok(input) = self.input_rx.try_recv() {
                self.drive(input, now);
            }
            let due = {
                let driver = self.inner.driver.lock();
                matches!(driver.next_deadline(), Some(at) if at <= now)
            };
            if due {
                self.drive(Input::Tick, now);
            }
            // 2. Encode and start outbound connections for the stream
            //    messages staged so far — including the ones just above.
            while let Some((to, msg)) = self.send_io.streams.pop_front() {
                let counters = &self.inner.counters;
                counters.streams_sent.fetch_add(1, Ordering::Relaxed);
                // Counted as the encoded body length, the same unit the
                // sim's telemetry records.
                counters.stream_bytes.fetch_add(
                    lifeguard_proto::codec::encoded_len(&msg) as u64,
                    Ordering::Relaxed,
                );
                let frame = transport::encode_frame(self.inner.advertised, &msg);
                self.start_outbound(to, frame);
            }
            // 3. Abandon connections past their I/O deadline, then
            //    (re-)arm the listener if there is capacity for more.
            let wall = Instant::now();
            self.expire(wall);
            if !self.listener_armed && self.conns.len() < MAX_CONNS {
                self.listener_armed = self
                    .poller
                    .modify(&self.listener, Event::readable(KEY_LISTENER))
                    .is_ok();
            }
            if stopping {
                break;
            }
            // 4. Sleep exactly until the next timer or connection
            //    deadline; readiness or a notify ends the sleep early.
            let timeout = self.sleep_budget(wall);
            let _ = self.poller.wait(&mut events, timeout);
            // Every poll return is one loop wakeup — the number the
            // idle-efficiency story is gated on (timer-rate, not
            // spinning), exported via `Agent::metrics()`.
            self.inner.counters.wakeups.fetch_add(1, Ordering::Relaxed);
            // 5. Dispatch readiness.
            for event in events.iter() {
                match event.key {
                    KEY_UDP => self.drain_datagrams(),
                    KEY_LISTENER => self.drain_accepts(),
                    key => self.advance_conn(key),
                }
            }
        }
        let _ = self.poller.delete(&self.inner.udp);
        let _ = self.poller.delete(&self.listener);
        for (_, conn) in std::mem::take(&mut self.conns) {
            let _ = self.poller.delete(conn.stream());
        }
    }

    /// How long the poller may sleep: until the protocol core's next
    /// timer deadline or the earliest connection deadline, whichever
    /// comes first. `None` (sleep until readiness/notify) only when
    /// neither exists.
    fn sleep_budget(&self, wall: Instant) -> Option<Duration> {
        let now = self.inner.now();
        let timer = self
            .inner
            .driver
            .lock()
            .next_deadline()
            .map(|at| at.saturating_since(now));
        let conn = self
            .conns
            .values()
            .map(Conn::deadline)
            .min()
            .map(|at| at.saturating_duration_since(wall));
        match (timer, conn) {
            (Some(t), Some(c)) => Some(t.min(c)),
            (Some(t), None) => Some(t),
            (None, Some(c)) => Some(c),
            (None, None) => None,
        }
    }

    /// Drains the UDP socket through the `recvmmsg` ring and re-arms
    /// it. Each filled slot goes to the core as a borrowed slice (the
    /// node walks it as views and copies nothing out of a packet that
    /// changes nothing). The driver guard is taken once per ring fill,
    /// not once per datagram, and released for every flush: replies
    /// are staged under it and leave as `sendmmsg` batches after it.
    /// Queued socket errors (e.g. ICMP port-unreachable from a dead
    /// peer's address) are discarded without stalling the loop. The
    /// drain is bounded by [`MAX_BURST`] before yielding back to the
    /// loop; `poll` is level-triggered, so anything left is re-reported
    /// immediately.
    fn drain_datagrams(&mut self) {
        let fd = self.inner.udp.as_raw_fd();
        let mut drained = 0usize;
        while drained < MAX_BURST {
            let res = self.recv_ring.recv(fd);
            self.inner
                .counters
                .recv_syscalls
                .fetch_add(1, Ordering::Relaxed);
            let n = match res {
                Ok(n) => n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // A queued socket error was consumed; yield to the
                // loop (level-triggered readiness re-reports the rest).
                Err(_) => break,
            };
            if n == 0 {
                break;
            }
            drained += n;
            let now = self.inner.now();
            let mut i = 0;
            while i < n {
                {
                    let counters = &self.inner.counters;
                    let mut driver = self.inner.driver.lock();
                    // Mid-burst flush: once a datagram's replies fill a
                    // send batch, let go of the guard and send them,
                    // bounding the staging while replies accumulate.
                    while i < n && self.send_io.stage.len() < self.send_io.table.max_len() {
                        let slot = i;
                        i += 1;
                        if self.recv_ring.truncated(slot) {
                            // Bigger than a ring slot — only possible
                            // for a malformed sender (slots hold 64 KiB,
                            // the UDP maximum); count the drop and move
                            // on.
                            counters.recv_truncations.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        let Some((from, payload)) = self.recv_ring.datagram(slot) else {
                            continue;
                        };
                        counters.datagrams_received.fetch_add(1, Ordering::Relaxed);
                        let _ = driver.handle_datagram_slice(
                            NodeAddr::from(from),
                            payload,
                            now,
                            &mut self.send_io,
                        );
                    }
                }
                self.flush(now);
            }
            if n < self.recv_ring.slots() {
                break; // the socket is drained
            }
        }
        let _ = self
            .poller
            .modify(&self.inner.udp, Event::readable(KEY_UDP));
    }

    /// Accepts pending connections (up to [`MAX_CONNS`] tracked) and
    /// registers each as a nonblocking inbound frame reader. The
    /// listener is left disarmed at capacity or after an accept
    /// failure (e.g. fd exhaustion); the loop re-arms it once room
    /// frees, so pressure parks connections in the OS backlog instead
    /// of spinning the loop.
    fn drain_accepts(&mut self) {
        self.listener_armed = false;
        let mut rearm = true;
        loop {
            if self.conns.len() >= MAX_CONNS {
                rearm = false;
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let key = self.alloc_key();
                    if self.poller.add(&stream, Event::readable(key)).is_ok() {
                        self.conns.insert(
                            key,
                            Conn::Inbound {
                                stream,
                                decoder: FrameDecoder::new(),
                                deadline: Instant::now() + transport::STREAM_TIMEOUT,
                            },
                        );
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    rearm = false;
                    break;
                }
            }
        }
        if rearm {
            self.listener_armed = self
                .poller
                .modify(&self.listener, Event::readable(KEY_LISTENER))
                .is_ok();
        }
    }

    /// Begins one outbound framed send: nonblocking connect, register
    /// for write readiness. Connection failures are dropped silently —
    /// stream messages are best-effort — and so are jobs arriving while
    /// the connection table is at [`MAX_CONNS`] (e.g. a partition
    /// leaving hundreds of sends pending to unreachable peers must not
    /// exhaust the fd table; the protocol re-sends on its own cadence).
    fn start_outbound(&mut self, to: SocketAddr, frame: Vec<u8>) {
        if self.conns.len() >= MAX_CONNS {
            return;
        }
        let Ok((stream, connected)) = polling::sock::connect_stream(to) else {
            return;
        };
        if connected {
            let _ = stream.set_nodelay(true);
        }
        let key = self.alloc_key();
        if self.poller.add(&stream, Event::writable(key)).is_ok() {
            self.conns.insert(
                key,
                Conn::Outbound {
                    stream,
                    frame,
                    written: 0,
                    connected,
                    deadline: Instant::now() + transport::STREAM_TIMEOUT,
                },
            );
        }
    }

    /// Advances one connection's state machine after a readiness (or
    /// error) event on it.
    fn advance_conn(&mut self, key: usize) {
        let Some(mut conn) = self.conns.remove(&key) else {
            return; // stale event for a closed connection
        };
        let advance = match &mut conn {
            Conn::Inbound {
                stream, decoder, ..
            } => self.advance_inbound(key, stream, decoder),
            Conn::Outbound {
                stream,
                frame,
                written,
                connected,
                ..
            } => advance_outbound(key, stream, frame, written, connected),
        };
        match advance {
            Advance::Keep(interest) => {
                let _ = self.poller.modify(conn.stream(), interest);
                self.conns.insert(key, conn);
            }
            Advance::Done => {
                let _ = self.poller.delete(conn.stream());
            }
        }
    }

    /// Reads as much as the socket will give; a completed frame is fed
    /// to the driver and the connection closed (the protocol sends one
    /// frame per connection; replies travel on a fresh connection).
    fn advance_inbound(
        &mut self,
        key: usize,
        stream: &mut TcpStream,
        decoder: &mut FrameDecoder,
    ) -> Advance {
        let mut chunk = [0u8; 4096];
        loop {
            match decoder.decode() {
                Ok(Some((from, msg))) => {
                    let now = self.inner.now();
                    self.drive(Input::Stream { from, msg }, now);
                    return Advance::Done;
                }
                Ok(None) => {}
                Err(_) => return Advance::Done, // oversized or malformed
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Advance::Done, // EOF mid-frame
                Ok(n) => decoder.feed(chunk.get(..n).unwrap_or_default()),
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Advance::Keep(Event::readable(key));
                }
                Err(_) => return Advance::Done,
            }
        }
    }

    fn expire(&mut self, wall: Instant) {
        let expired: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.deadline() <= wall)
            .map(|(&key, _)| key)
            .collect();
        for key in expired {
            if let Some(conn) = self.conns.remove(&key) {
                let _ = self.poller.delete(conn.stream());
            }
        }
    }

    fn alloc_key(&mut self) -> usize {
        loop {
            let key = self.next_key;
            self.next_key = self.next_key.checked_add(1).unwrap_or(FIRST_CONN_KEY);
            if !self.conns.contains_key(&key) {
                return key;
            }
        }
    }
}

/// Finishes the nonblocking connect if needed, then writes as much of
/// the frame as the socket accepts.
fn advance_outbound(
    key: usize,
    stream: &mut TcpStream,
    frame: &[u8],
    written: &mut usize,
    connected: &mut bool,
) -> Advance {
    if !*connected {
        // Write readiness after EINPROGRESS: the connect finished,
        // successfully or not — SO_ERROR tells which.
        match stream.take_error() {
            Ok(None) => {
                *connected = true;
                let _ = stream.set_nodelay(true);
            }
            Ok(Some(_)) | Err(_) => return Advance::Done,
        }
    }
    while let Some(unsent) = frame.get(*written..).filter(|rest| !rest.is_empty()) {
        match stream.write(unsent) {
            Ok(0) => return Advance::Done,
            Ok(n) => *written += n,
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                return Advance::Keep(Event::writable(key));
            }
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Advance::Done,
        }
    }
    Advance::Done // frame fully written; drop closes the connection
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, AgentConfig};
    use lifeguard_proto::compound::{self, CompoundBuilder};
    use lifeguard_proto::{Ping, SeqNo};
    use std::net::TcpListener;

    /// A bound sender/receiver pair plus fresh counters for flush tests.
    fn flush_fixture() -> (UdpSocket, UdpSocket, IoCounters) {
        let udp = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        let peer = UdpSocket::bind("127.0.0.1:0").expect("bind peer");
        peer.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        (udp, peer, IoCounters::default())
    }

    /// Receives `n` datagrams and returns their payloads, sorted (UDP
    /// order is not guaranteed even on loopback).
    fn recv_all(peer: &UdpSocket, n: usize) -> Vec<Vec<u8>> {
        let mut buf = [0u8; 256];
        let mut got: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let (len, _) = peer.recv_from(&mut buf).expect("datagram arrives");
                buf[..len].to_vec()
            })
            .collect();
        got.sort();
        got
    }

    /// A one-packet flush is a one-entry `sendmmsg`: one syscall, and
    /// no batch (`sendmmsg_batches` counts only calls carrying more
    /// than one datagram).
    #[test]
    fn flush_of_one_packet_is_one_send_syscall_and_no_batch() {
        let (udp, peer, counters) = flush_fixture();
        let mut io = SendIo::new(4);
        let to = NodeAddr::from(peer.local_addr().expect("addr"));
        io.transmit(to, b"solo");
        io.flush(&udp, &counters);
        assert_eq!(recv_all(&peer, 1), vec![b"solo".to_vec()]);
        assert_eq!(counters.send_syscalls.load(Ordering::Relaxed), 1);
        assert_eq!(counters.sendmmsg_batches.load(Ordering::Relaxed), 0);
        assert_eq!(counters.datagrams_sent.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn flush_of_exactly_one_batch_is_one_syscall() {
        let (udp, peer, counters) = flush_fixture();
        let mut io = SendIo::new(4);
        let to = NodeAddr::from(peer.local_addr().expect("addr"));
        for byte in 0u8..4 {
            io.transmit(to, &[byte]);
        }
        io.flush(&udp, &counters);
        assert_eq!(
            recv_all(&peer, 4),
            vec![vec![0u8], vec![1], vec![2], vec![3]]
        );
        assert_eq!(counters.send_syscalls.load(Ordering::Relaxed), 1);
        assert_eq!(counters.sendmmsg_batches.load(Ordering::Relaxed), 1);
        assert_eq!(counters.datagrams_sent.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn flush_overflowing_the_batch_spills_into_a_second_syscall() {
        let (udp, peer, counters) = flush_fixture();
        let mut io = SendIo::new(4);
        let to = NodeAddr::from(peer.local_addr().expect("addr"));
        for byte in 0u8..5 {
            io.transmit(to, &[byte]);
        }
        io.flush(&udp, &counters);
        assert_eq!(
            recv_all(&peer, 5),
            vec![vec![0u8], vec![1], vec![2], vec![3], vec![4]]
        );
        // One full sendmmsg of 4, then the single-packet tail.
        assert_eq!(counters.send_syscalls.load(Ordering::Relaxed), 2);
        assert_eq!(counters.sendmmsg_batches.load(Ordering::Relaxed), 1);
        assert_eq!(counters.datagrams_sent.load(Ordering::Relaxed), 5);
    }

    /// One compound datagram from outside yields one reply per inner
    /// `Ping`, so a single ring fill can stage far more packets than one
    /// send batch: the drain must flush as soon as a datagram pushes the
    /// staging past the batch size, not once per ring fill.
    #[test]
    fn compound_burst_is_flushed_per_datagram_not_per_ring_fill() {
        const DATAGRAMS: u32 = 4;
        const PINGS_PER_DATAGRAM: u32 = 3;
        let (mut reactor, _events_rx) =
            Agent::bind(AgentConfig::local("hub").seed(61)).expect("bind");
        reactor.send_io = SendIo::new(2);
        reactor.recv_ring = RecvRing::new(DATAGRAMS as usize, RECV_SLOT_LEN);
        let hub = reactor.inner.advertised.socket_addr();
        let peer = UdpSocket::bind("127.0.0.1:0").expect("bind peer");
        peer.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let peer_addr = NodeAddr::from(peer.local_addr().expect("addr"));

        let mut builder = CompoundBuilder::new(1400);
        let mut packet = Vec::new();
        for d in 0..DATAGRAMS {
            for p in 0..PINGS_PER_DATAGRAM {
                assert!(builder.try_add_msg(&Message::Ping(Ping {
                    seq: SeqNo(d * PINGS_PER_DATAGRAM + p),
                    target: "hub".into(),
                    source: "peer".into(),
                    source_addr: peer_addr,
                })));
            }
            packet.clear();
            builder.finish_into(&mut packet).expect("three pings");
            peer.send_to(&packet, hub).expect("send burst");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let inner = Arc::clone(&reactor.inner);
        while inner.counters.io_snapshot().datagrams_received < u64::from(DATAGRAMS) {
            assert!(Instant::now() < deadline, "burst never arrived");
            reactor.drain_datagrams();
        }

        let mut acked = Vec::new();
        let mut buf = [0u8; 2048];
        while acked.len() < (DATAGRAMS * PINGS_PER_DATAGRAM) as usize {
            let (len, _) = peer.recv_from(&mut buf).expect("every ping is acked");
            for msg in compound::decode_packet(&buf[..len]).expect("valid reply") {
                if let Message::Ack(ack) = msg {
                    acked.push(ack.seq.0);
                }
            }
        }
        acked.sort_unstable();
        assert_eq!(acked, (0..DATAGRAMS * PINGS_PER_DATAGRAM).collect::<Vec<_>>());
        // Each datagram's three acks overflow the batch of two, so each
        // is flushed on its own as one sendmmsg of two plus a one-packet
        // tail. One flush per ring fill would instead send the twelve
        // acks as six sendmmsg pairs.
        let io = inner.counters.io_snapshot();
        assert_eq!(io.send_syscalls, 2 * u64::from(DATAGRAMS), "{io:?}");
        assert_eq!(io.sendmmsg_batches, u64::from(DATAGRAMS), "{io:?}");
        assert_eq!(io.datagrams_sent, u64::from(DATAGRAMS * PINGS_PER_DATAGRAM));
    }

    #[test]
    fn nonblocking_connect_reaches_a_loopback_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (stream, connected) = polling::sock::connect_stream(addr).expect("connect starts");
        // Whether it completed inline or is in progress, the listener
        // must observe the connection.
        let (_, peer) = listener.accept().expect("accept");
        if !connected {
            // Completion is observable as SO_ERROR == 0.
            let poller = Poller::new().expect("poller");
            poller.add(&stream, Event::writable(1)).expect("add");
            let mut events = Events::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert!(events.iter().any(|e| e.key == 1));
        }
        assert!(stream.take_error().expect("so_error").is_none());
        assert_eq!(peer.ip(), addr.ip());
    }

    #[test]
    fn nonblocking_connect_to_a_dead_port_reports_failure() {
        // Bind-then-drop guarantees the port is unused.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        match polling::sock::connect_stream(dead) {
            Err(_) => {} // refused inline
            Ok((stream, _)) => {
                let poller = Poller::new().expect("poller");
                poller.add(&stream, Event::writable(1)).expect("add");
                let mut events = Events::new();
                let _ = poller.wait(&mut events, Some(Duration::from_secs(5)));
                assert!(
                    stream.take_error().expect("so_error readable").is_some(),
                    "connect to a closed loopback port must fail"
                );
            }
        }
    }
}
