//! The event lane: every node's driver, the event queue, and the
//! per-window effect buffers.
//!
//! The lane processes events within a bounded time *window* — the
//! conservative-lookahead horizon of a classic discrete-event
//! simulation. Nothing a node does during a window can affect another
//! node inside the same window, because every cross-node effect (packet,
//! stream message, trace entry) travels through the network, whose
//! minimum latency is exactly the window length.
//!
//! A driver call's effects are therefore not applied on the spot but
//! buffered as [`Emission`]s and [`TraceRecord`]s, each stamped with a
//! canonical key `(time, node, per-node seq)`. After every window the
//! cluster sorts the buffers on that key and *commits* them: network RNG
//! draws, telemetry counters and trace appends all happen in commit
//! order. The canonical key depends only on simulated time and node
//! identity, so it — not the order events happened to pop in — defines
//! the run's RNG draw sequence.

use bytes::Bytes;
use lifeguard_core::driver::{Driver, OwnedOutput, Sink};
use lifeguard_core::event::Event;
use lifeguard_core::node::Input;
use lifeguard_proto::{codec, compound, Ack, Message, Nack, NodeAddr, NodeName};

use crate::clock::SimTime;
use crate::event_queue::EventQueue;

/// Shape of the simulated population.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Topology {
    /// Number of real (driver-backed) nodes: indices `0..real`.
    pub real: usize,
    /// Total roster size including phantom members: `real..total` are
    /// phantoms — table entries with no driver, answered by a canned
    /// responder at commit time.
    pub total: usize,
}

/// An event scheduled in the lane's queue.
pub(crate) enum LaneEvent {
    /// A node's next timer deadline fell due.
    Wake {
        /// Global index of the node.
        node: usize,
    },
    /// A datagram arrives.
    Datagram {
        /// Global index of the receiving node.
        to: usize,
        /// Sender address (used for ack routing).
        from: NodeAddr,
        /// Raw packet bytes.
        payload: Bytes,
    },
    /// A stream message arrives.
    Stream {
        /// Global index of the receiving node.
        to: usize,
        /// Sender's advertised address.
        from: NodeAddr,
        /// The decoded message.
        msg: Message,
    },
    /// An anomaly window opens.
    PauseStart {
        /// Global index of the paused node.
        node: usize,
        /// When the window closes.
        until: SimTime,
    },
    /// An anomaly window closes.
    PauseEnd {
        /// Global index of the resuming node.
        node: usize,
    },
}

/// One simulated node: its driver plus anomaly state.
pub(crate) struct NodeSlot {
    /// The protocol core behind the shared sans-I/O driver harness.
    pub driver: Driver,
    pub paused_until: Option<SimTime>,
    pub crashed: bool,
    pub wake_marker: Option<SimTime>,
    /// Sends generated while paused ("block immediately before
    /// sending"); flushed in order at the end of the anomaly.
    // bounded: drained at PauseEnd; holds at most one anomaly's worth of buffered sends
    pub outbox: Vec<OwnedOutput>,
    /// Monotonic stamp shared by this node's emissions and trace
    /// records: the third component of the canonical commit key.
    pub emit_seq: u64,
}

/// A cross-node effect captured during a window, delivered at commit.
pub(crate) struct Emission {
    /// When the sender produced it.
    pub at: SimTime,
    /// Global index of the sending node.
    pub from: usize,
    /// Per-sender monotonic stamp (ties on `at` commit in send order).
    pub seq: u64,
    pub kind: EmitKind,
}

/// What was emitted.
pub(crate) enum EmitKind {
    /// A datagram to a real (or unknown) address.
    Packet {
        to: NodeAddr,
        payload: Bytes,
    },
    /// A stream message to a real (or unknown) address. `len` is the
    /// encoded length, precomputed in the lane so telemetry accounting
    /// at commit costs nothing.
    Stream {
        to: NodeAddr,
        msg: Message,
        len: usize,
    },
    /// A datagram addressed to a phantom member. The lane already ran
    /// the canned responder; `replies` are the packets the phantom
    /// answers with (each takes two network legs: out and back).
    PhantomPacket {
        phantom: usize,
        len: usize,
        // bounded: at most one reply per decoded compound part of a single datagram
        replies: Vec<(NodeAddr, Bytes)>,
    },
    /// A stream message to a phantom member: counted, then dropped
    /// (phantoms have no stream endpoint; anti-entropy simply misses).
    PhantomStream {
        len: usize,
    },
}

/// A membership conclusion captured during a window, appended to the
/// trace at commit in canonical `(at, reporter, seq)` order.
pub(crate) struct TraceRecord {
    pub at: SimTime,
    pub reporter: usize,
    pub seq: u64,
    pub event: Event,
}

/// The lane: the cluster's nodes plus their event queue and effect
/// buffers.
#[derive(Default)]
pub(crate) struct Lane {
    pub queue: EventQueue<LaneEvent>,
    /// One slot per real node, indexed by global node index.
    // bounded: fixed at build time — one slot per real node, never grows
    pub slots: Vec<NodeSlot>,
    /// Effects buffered during the current window.
    // bounded: drained every window commit; holds one window's sends
    pub emissions: Vec<Emission>,
    /// Trace entries buffered during the current window.
    // bounded: drained every window commit; holds one window's conclusions
    pub records: Vec<TraceRecord>,
    /// The lane's local clock: the time of the event being dispatched,
    /// or the end of the last window the lane ran.
    pub now: SimTime,
}

impl Lane {
    /// Drains and dispatches every queued event with `at <= wend`, then
    /// parks the lane clock at the window end.
    pub fn run_window(&mut self, wend: SimTime, topo: Topology) {
        while let Some(at) = self.queue.peek_time() {
            if at > wend {
                break;
            }
            let (at, ev) = self.queue.pop().expect("peeked");
            debug_assert!(at >= self.now, "lane time went backwards");
            self.now = at;
            self.dispatch(ev, topo);
        }
        self.now = wend;
    }

    fn dispatch(&mut self, ev: LaneEvent, topo: Topology) {
        let now = self.now;
        match ev {
            LaneEvent::Wake { node } => {
                let slot = &mut self.slots[node];
                if slot.wake_marker != Some(now) {
                    return; // stale wake; a fresher one is queued
                }
                slot.wake_marker = None;
                if slot.crashed {
                    return;
                }
                // Timers run even during an anomaly: the paper's
                // instrumentation blocks only sends/receives, so the
                // agent's logic keeps evaluating wall-clock deadlines.
                // Sends it produces are captured in the outbox by the
                // sink.
                self.with_sink(node, topo, |driver, sink| driver.tick(now, sink));
                self.ensure_wake(node);
            }
            LaneEvent::Datagram { to, from, payload } => {
                let slot = &mut self.slots[to];
                if slot.crashed {
                    return;
                }
                if let Some(until) = slot.paused_until {
                    // Blocked on receive: queue for after the anomaly.
                    self.queue
                        .push(until, LaneEvent::Datagram { to, from, payload });
                    return;
                }
                // Zero-copy delivery: compound parts and blob fields
                // alias the datagram buffer. Malformed packets are
                // dropped, as a real deployment would.
                self.with_sink(to, topo, |driver, sink| {
                    let _ = driver.handle(Input::Datagram { from, payload }, now, sink);
                });
                self.ensure_wake(to);
            }
            LaneEvent::Stream { to, from, msg } => {
                let slot = &mut self.slots[to];
                if slot.crashed {
                    return;
                }
                if let Some(until) = slot.paused_until {
                    self.queue.push(until, LaneEvent::Stream { to, from, msg });
                    return;
                }
                self.with_sink(to, topo, |driver, sink| {
                    driver
                        .handle(Input::Stream { from, msg }, now, sink)
                        .expect("stream input is infallible");
                });
                self.ensure_wake(to);
            }
            LaneEvent::PauseStart { node, until } => {
                let slot = &mut self.slots[node];
                if !slot.crashed {
                    slot.paused_until = Some(until);
                    self.with_sink(node, topo, |driver, sink| {
                        driver
                            .handle(Input::IoBlocked { blocked: true }, now, sink)
                            .expect("io-blocked input is infallible");
                    });
                }
            }
            LaneEvent::PauseEnd { node } => {
                let slot = &mut self.slots[node];
                if slot.crashed {
                    return;
                }
                // Only clear if this PauseEnd matches the active window
                // (an overlapping manual pause may extend it).
                if slot.paused_until.is_some_and(|u| u <= now) {
                    slot.paused_until = None;
                    // "The blocked sends ... are unblocked": flush
                    // everything the node tried to send while paused,
                    // then let the node evaluate its postponed probe
                    // deadlines (which fail, raising suspicions) and any
                    // other due timers.
                    let outbox = std::mem::take(&mut slot.outbox);
                    self.with_sink(node, topo, |driver, sink| {
                        for held in outbox {
                            sink.dispatch_owned(held);
                        }
                        driver
                            .handle(Input::IoBlocked { blocked: false }, now, sink)
                            .expect("io-blocked input is infallible");
                        driver.tick(now, sink);
                    });
                    self.ensure_wake(node);
                }
            }
        }
    }

    /// Runs one driver call with a [`LaneSink`] assembled from split
    /// borrows of the lane's fields — the single place the shared
    /// driver harness attaches to the lane's effect buffers.
    pub fn with_sink<R>(
        &mut self,
        node: usize,
        topo: Topology,
        f: impl FnOnce(&mut Driver, &mut LaneSink<'_>) -> R,
    ) -> R {
        let now = self.now;
        let slot = &mut self.slots[node];
        let paused = slot.paused_until.is_some();
        let NodeSlot {
            driver,
            outbox,
            emit_seq,
            ..
        } = slot;
        let mut sink = LaneSink {
            node,
            now,
            paused,
            topo,
            outbox,
            seq: emit_seq,
            emissions: &mut self.emissions,
            records: &mut self.records,
        };
        f(driver, &mut sink)
    }

    /// Arms a wake event at the node's next timer deadline unless an
    /// earlier one is already queued.
    pub fn ensure_wake(&mut self, node: usize) {
        let now = self.now;
        let slot = &mut self.slots[node];
        if slot.crashed {
            return;
        }
        let Some(wake) = slot.driver.next_deadline() else {
            return;
        };
        let wake = wake.max(now);
        match slot.wake_marker {
            Some(existing) if existing <= wake => {}
            _ => {
                slot.wake_marker = Some(wake);
                self.queue.push(wake, LaneEvent::Wake { node });
            }
        }
    }
}

/// The lane's [`Sink`]: packets and stream messages become buffered
/// [`Emission`]s (or a paused node's outbox entries), membership events
/// become buffered [`TraceRecord`]s. Network, telemetry and trace are
/// only touched at commit.
pub(crate) struct LaneSink<'a> {
    node: usize,
    now: SimTime,
    paused: bool,
    topo: Topology,
    outbox: &'a mut Vec<OwnedOutput>,
    seq: &'a mut u64,
    emissions: &'a mut Vec<Emission>,
    records: &'a mut Vec<TraceRecord>,
}

impl LaneSink<'_> {
    fn stamp(&mut self) -> u64 {
        let s = *self.seq;
        *self.seq += 1;
        s
    }

    fn emit(&mut self, kind: EmitKind) {
        let seq = self.stamp();
        self.emissions.push(Emission {
            at: self.now,
            from: self.node,
            seq,
            kind,
        });
    }

    fn emit_packet(&mut self, to: NodeAddr, payload: Bytes) {
        let kind = match phantom_index(to, self.topo) {
            Some(phantom) => EmitKind::PhantomPacket {
                phantom,
                len: payload.len(),
                replies: phantom_replies(phantom, self.topo, &payload),
            },
            None => EmitKind::Packet { to, payload },
        };
        self.emit(kind);
    }

    fn emit_stream(&mut self, to: NodeAddr, msg: Message) {
        let len = codec::encoded_len(&msg);
        let kind = match phantom_index(to, self.topo) {
            Some(_) => EmitKind::PhantomStream { len },
            None => EmitKind::Stream { to, msg, len },
        };
        self.emit(kind);
    }

    /// Dispatches a previously captured (outbox) output as if it were
    /// produced now — used when a pause ends and the blocked sends are
    /// released.
    pub fn dispatch_owned(&mut self, output: OwnedOutput) {
        match output {
            OwnedOutput::Packet { to, payload } => self.emit_packet(to, payload),
            OwnedOutput::Stream { to, msg } => self.emit_stream(to, msg),
            OwnedOutput::Event(e) => self.event(e),
        }
    }
}

impl Sink for LaneSink<'_> {
    fn transmit(&mut self, to: NodeAddr, payload: &[u8]) {
        // A paused node blocks before sending: network effects are held
        // in its outbox until the anomaly ends. In-flight packets
        // outlive the borrow of the node's scratch, so both paths copy
        // the payload into an owned buffer.
        if self.paused {
            self.outbox.push(OwnedOutput::Packet {
                to,
                payload: Bytes::copy_from_slice(payload),
            });
        } else {
            self.emit_packet(to, Bytes::copy_from_slice(payload));
        }
    }

    fn stream(&mut self, to: NodeAddr, msg: Message) {
        if self.paused {
            self.outbox.push(OwnedOutput::Stream { to, msg });
        } else {
            self.emit_stream(to, msg);
        }
    }

    fn event(&mut self, event: Event) {
        // A paused node's membership conclusions are still logged (the
        // paper's analysis reads the agents' logs, which are written
        // regardless).
        let seq = self.stamp();
        self.records.push(TraceRecord {
            at: self.now,
            reporter: self.node,
            seq,
            event,
        });
    }
}

// ---------------------------------------------------------------------
// Phantom members
// ---------------------------------------------------------------------

/// Recovers a phantom member's index from its synthetic address, if the
/// address falls in the phantom range `real..total`.
fn phantom_index(to: NodeAddr, topo: Topology) -> Option<usize> {
    if topo.total == topo.real {
        return None; // no phantoms configured
    }
    if to.port() != crate::cluster::SIM_PORT {
        return None;
    }
    let std::net::IpAddr::V4(v4) = to.ip() else {
        return None;
    };
    let [a, b, c, d] = v4.octets();
    if a != 10 {
        return None;
    }
    let idx = ((b as usize) << 16) | ((c as usize) << 8) | d as usize;
    (topo.real..topo.total).contains(&idx).then_some(idx)
}

/// Parses `node-<i>` back to `i`.
fn node_index_of(name: &NodeName) -> Option<usize> {
    name.as_str().strip_prefix("node-")?.parse().ok()
}

/// The canned protocol behaviour of a phantom member: a permanently
/// healthy peer that answers probes and nothing else.
///
/// * `ping` naming the phantom → `ack` back to the prober.
/// * `ping-req` (indirect probe) → `ack` if the probe target is another
///   phantom (phantoms are always alive), else a `nack` when the origin
///   understands them: the *relay* is responsive even though it will not
///   actually probe a real target, which feeds the origin's Local Health
///   Multiplier exactly like a live relay that timed out.
/// * gossip / anti-entropy → consumed silently.
///
/// Replies are bare (non-compound) message encodings, which the receive
/// path accepts like any single-message datagram.
fn phantom_replies(phantom: usize, topo: Topology, payload: &[u8]) -> Vec<(NodeAddr, Bytes)> {
    let Ok(msgs) = compound::decode_packet(payload) else {
        return Vec::new(); // malformed packets are dropped, as real nodes drop them
    };
    let mut replies = Vec::new();
    for msg in msgs {
        match msg {
            Message::Ping(p) if node_index_of(&p.target) == Some(phantom) => {
                replies.push((
                    p.source_addr,
                    codec::encode_message(&Message::Ack(Ack { seq: p.seq })),
                ));
            }
            Message::IndirectPing(ip) => {
                let target_is_phantom = node_index_of(&ip.target)
                    .is_some_and(|t| (topo.real..topo.total).contains(&t));
                if target_is_phantom {
                    replies.push((
                        ip.source_addr,
                        codec::encode_message(&Message::Ack(Ack { seq: ip.seq })),
                    ));
                } else if ip.nack {
                    replies.push((
                        ip.source_addr,
                        codec::encode_message(&Message::Nack(Nack { seq: ip.seq })),
                    ));
                }
            }
            _ => {}
        }
    }
    replies
}
