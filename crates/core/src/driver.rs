//! The shared sans-I/O driver harness.
//!
//! Every runtime — the deterministic simulator, the real UDP/TCP agent,
//! examples, tests — drives a [`SwimNode`]
//! through the same [`Driver`]: feed an [`Input`], and the driver drains
//! the node's output queue into a runtime-supplied [`Sink`] (transmit,
//! stream and event callbacks) before returning. This is the one place
//! the input→poll→dispatch loop exists; runtimes only decide *how* to
//! carry each effect out, never *when* to poll.
//!
//! ```
//! use lifeguard_core::config::Config;
//! use lifeguard_core::driver::{Driver, OwnedOutput};
//! use lifeguard_core::node::{Input, SwimNode};
//! use lifeguard_core::time::Time;
//! use lifeguard_proto::NodeAddr;
//!
//! let node = SwimNode::new(
//!     "node-0".into(),
//!     NodeAddr::new([10, 0, 0, 1], 7946),
//!     Config::lan().lifeguard(),
//!     42,
//! );
//! let mut driver = Driver::new(node);
//! let mut sink: Vec<OwnedOutput> = Vec::new(); // Vec<OwnedOutput> is a Sink
//! driver.start(Time::ZERO, &mut sink);
//! driver
//!     .handle(Input::Tick, Time::ZERO, &mut sink)
//!     .expect("tick is infallible");
//! assert!(sink.is_empty()); // nothing to send until peers exist
//! assert!(driver.next_deadline().is_some());
//! ```

use bytes::Bytes;
use lifeguard_proto::{DecodeError, Message, NodeAddr};

use crate::event::Event;
use crate::node::{Input, Output, SwimNode};
use crate::time::Time;

/// Where a [`Driver`] dispatches the node's effects.
///
/// `transmit` receives the packet payload as a borrow of the node's
/// scratch buffer: a socket runtime can hand it straight to
/// `send_to` with zero copies; a runtime that must hold it (a simulated
/// in-flight packet, a paused node's outbox) copies it into an
/// [`OwnedOutput`].
pub trait Sink {
    /// Send one datagram.
    fn transmit(&mut self, to: NodeAddr, payload: &[u8]);
    /// Send one message over the reliable stream transport.
    fn stream(&mut self, to: NodeAddr, msg: Message);
    /// Deliver one membership conclusion to the application.
    fn event(&mut self, event: Event);

    /// Send many datagrams whose payloads are byte ranges of one
    /// arena — the flush of the driver's deferred-packet batch (see
    /// [`Driver::flush_deferred`]). A runtime with a gather-send
    /// (`sendmmsg(2)`) overrides this to transfer the whole batch in
    /// one syscall; the default preserves single-shot behaviour by
    /// forwarding each entry to [`Sink::transmit`] in order.
    fn transmit_batch(&mut self, arena: &[u8], packets: &[(NodeAddr, std::ops::Range<usize>)]) {
        for (to, range) in packets {
            self.transmit(*to, &arena[range.clone()]);
        }
    }
}

/// An owned copy of an [`Output`], for sinks that must hold effects past
/// the poll that produced them.
#[derive(Clone, Debug)]
pub enum OwnedOutput {
    /// A datagram, with the payload copied out of the node's scratch.
    Packet {
        /// Destination address.
        to: NodeAddr,
        /// Encoded packet bytes (owned).
        payload: Bytes,
    },
    /// A reliable-stream message.
    Stream {
        /// Destination address.
        to: NodeAddr,
        /// The message to deliver reliably.
        msg: Message,
    },
    /// A membership conclusion.
    Event(Event),
}

impl From<Output<'_>> for OwnedOutput {
    fn from(o: Output<'_>) -> OwnedOutput {
        match o {
            Output::Packet { to, payload } => OwnedOutput::Packet {
                to,
                payload: Bytes::copy_from_slice(payload),
            },
            Output::Stream { to, msg } => OwnedOutput::Stream { to, msg },
            Output::Event(e) => OwnedOutput::Event(e),
        }
    }
}

/// `Vec<OwnedOutput>` collects every effect — the sink used by tests and
/// by runtimes that buffer effects (e.g. a paused simulated node).
impl Sink for Vec<OwnedOutput> {
    fn transmit(&mut self, to: NodeAddr, payload: &[u8]) {
        self.push(OwnedOutput::Packet {
            to,
            payload: Bytes::copy_from_slice(payload),
        });
    }

    fn stream(&mut self, to: NodeAddr, msg: Message) {
        self.push(OwnedOutput::Stream { to, msg });
    }

    fn event(&mut self, event: Event) {
        self.push(OwnedOutput::Event(event));
    }
}

/// Owns the dispatch loop around one [`SwimNode`]: every input is fed
/// through [`Driver::handle`], and the resulting outputs are drained to
/// a [`Sink`] in order before the call returns, so no effect is ever
/// left queued between inputs.
#[derive(Debug)]
pub struct Driver {
    node: SwimNode,
    /// Packets deferred by the batching entry points
    /// ([`Driver::handle_deferring`]), as ranges into the node's
    /// scratch arena, awaiting [`Driver::flush_deferred`].
    // bounded: the runtime flushes whenever `deferred_packets()` reaches its batch size, so the vec stabilises at one burst
    deferred: Vec<(NodeAddr, std::ops::Range<usize>)>,
}

impl Driver {
    /// Wraps a node (started or not) in a driver.
    pub fn new(node: SwimNode) -> Driver {
        Driver {
            node,
            deferred: Vec::new(),
        }
    }

    /// Boots the node (see [`SwimNode::start`]) and drains any outputs.
    pub fn start(&mut self, now: Time, sink: &mut impl Sink) {
        self.node.start(now);
        self.drain(sink);
    }

    /// Feeds one input and dispatches every effect it produced to
    /// `sink`, in order.
    ///
    /// # Errors
    ///
    /// Propagates the [`DecodeError`] of a malformed
    /// [`Input::Datagram`]; the node's state is unchanged and nothing is
    /// dispatched in that case. Every other input is infallible.
    pub fn handle(
        &mut self,
        input: Input,
        now: Time,
        sink: &mut impl Sink,
    ) -> Result<(), DecodeError> {
        let res = self.node.handle_input(input, now);
        self.drain(sink);
        res
    }

    /// [`Driver::handle`] of an [`Input::Tick`]: fires all timers due at
    /// or before `now`. A no-op when nothing is due, so runtimes may
    /// call it on a coarse cadence.
    pub fn tick(&mut self, now: Time, sink: &mut impl Sink) {
        let res = self.handle(Input::Tick, now, sink);
        debug_invariant!(res.is_ok(), "tick is infallible");
    }

    /// [`Driver::handle`] of an [`Input::Join`]: the join sequence (a
    /// push-pull sync to each seed) goes out through `sink`.
    pub fn join(&mut self, seeds: Vec<NodeAddr>, now: Time, sink: &mut impl Sink) {
        let res = self.handle(Input::Join { seeds }, now, sink);
        debug_invariant!(res.is_ok(), "join is infallible");
    }

    /// [`Driver::handle`] of an [`Input::Leave`]: the leave sequence (a
    /// self-signed `dead` flushed to a few peers) goes out through
    /// `sink`.
    pub fn leave(&mut self, now: Time, sink: &mut impl Sink) {
        let res = self.handle(Input::Leave, now, sink);
        debug_invariant!(res.is_ok(), "leave is infallible");
    }

    /// [`Driver::handle`] for a *batching* runtime: stream and event
    /// effects still dispatch to `sink` immediately and in order, but
    /// packet sends accumulate in the driver's deferred batch (byte
    /// ranges into the node's scratch arena, which is held — kept
    /// valid — across further deferring inputs). The runtime flushes
    /// the accumulated burst with [`Driver::flush_deferred`], turning
    /// many per-packet sends into one gather-send.
    ///
    /// # Errors
    ///
    /// As [`Driver::handle`].
    pub fn handle_deferring(
        &mut self,
        input: Input,
        now: Time,
        sink: &mut impl Sink,
    ) -> Result<(), DecodeError> {
        let res = self.node.handle_input(input, now);
        self.drain_deferring(sink);
        res
    }

    /// [`Driver::handle_deferring`] of one received datagram handed in
    /// as a borrowed slice (see [`SwimNode::handle_datagram_slice`]):
    /// the batched receive path, where payloads live in the runtime's
    /// receive ring and are never copied into an owned buffer.
    ///
    /// # Errors
    ///
    /// As [`Driver::handle`].
    pub fn handle_datagram_slice_deferring(
        &mut self,
        from: NodeAddr,
        payload: &[u8],
        now: Time,
        sink: &mut impl Sink,
    ) -> Result<(), DecodeError> {
        let res = self.node.handle_datagram_slice(from, payload, now);
        self.drain_deferring(sink);
        res
    }

    /// Number of packets currently deferred (the runtime flushes when
    /// this reaches its batch size, bounding arena growth mid-burst).
    pub fn deferred_packets(&self) -> usize {
        self.deferred.len()
    }

    /// Hands the deferred batch to [`Sink::transmit_batch`] and
    /// releases the arena hold. Always safe to call; a flush with
    /// nothing deferred just releases the hold so the node can reclaim
    /// its scratch space.
    pub fn flush_deferred(&mut self, sink: &mut impl Sink) {
        if !self.deferred.is_empty() {
            sink.transmit_batch(self.node.packet_arena(), &self.deferred);
            self.deferred.clear();
        }
        self.node.release_arena();
    }

    /// When the runtime must next call [`Driver::tick`]: the wrapped
    /// node's exact next timer deadline (see
    /// [`SwimNode::next_deadline`]). A readiness-driven runtime passes
    /// it to its poller as the sleep bound, so timers fire on time
    /// without a fixed-interval tick thread.
    pub fn next_deadline(&self) -> Option<Time> {
        self.node.next_deadline()
    }

    /// Read access to the wrapped node.
    pub fn node(&self) -> &SwimNode {
        &self.node
    }

    /// The wrapped node's metrics snapshot (see [`SwimNode::metrics`]):
    /// the protocol half of the observability plane, which runtimes
    /// combine with their own transport counters into a full
    /// `lifeguard_metrics::Snapshot`.
    pub fn metrics(&self) -> lifeguard_metrics::CoreSnapshot {
        self.node.metrics()
    }

    /// Mutable access to the wrapped node, for non-driving calls
    /// (e.g. [`SwimNode::bootstrap_peers`]).
    pub fn node_mut(&mut self) -> &mut SwimNode {
        &mut self.node
    }

    /// Unwraps the node.
    pub fn into_node(self) -> SwimNode {
        self.node
    }

    fn drain(&mut self, sink: &mut impl Sink) {
        while let Some(output) = self.node.poll_output() {
            match output {
                Output::Packet { to, payload } => sink.transmit(to, payload),
                Output::Stream { to, msg } => sink.stream(to, msg),
                Output::Event(e) => sink.event(e),
            }
        }
    }

    fn drain_deferring(&mut self, sink: &mut impl Sink) {
        self.node.drain_split(&mut self.deferred, |output| match output {
            Output::Stream { to, msg } => sink.stream(to, msg),
            Output::Event(e) => sink.event(e),
            Output::Packet { .. } => debug_invariant!(false, "drain_split routes packets to the batch"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use bytes::Bytes;
    use lifeguard_proto::{codec, Alive, Incarnation, NodeAddr};

    fn addr(i: u8) -> NodeAddr {
        NodeAddr::new([10, 0, 0, i], 7946)
    }

    fn driver() -> Driver {
        Driver::new(SwimNode::new("local".into(), addr(1), Config::lan(), 1))
    }

    #[test]
    fn driver_dispatches_in_order_and_drains_fully() {
        let mut d = driver();
        let mut sink: Vec<OwnedOutput> = Vec::new();
        d.start(Time::ZERO, &mut sink);
        assert!(sink.is_empty());

        // An alive message produces a join event (and nothing pending).
        let alive = Message::Alive(Alive {
            incarnation: Incarnation(1),
            node: "p".into(),
            addr: addr(2),
            meta: Bytes::new(),
        });
        d.handle(
            Input::Datagram {
                from: addr(2),
                payload: codec::encode_message(&alive),
            },
            Time::from_secs(1),
            &mut sink,
        )
        .unwrap();
        assert!(sink
            .iter()
            .any(|o| matches!(o, OwnedOutput::Event(Event::MemberJoined { name }) if name.as_str() == "p")));
        assert!(!d.node().has_pending_output(), "handle must drain fully");
    }

    #[test]
    fn join_and_leave_sequence_through_sink() {
        let mut d = driver();
        let mut sink: Vec<OwnedOutput> = Vec::new();
        d.start(Time::ZERO, &mut sink);
        d.join(vec![addr(5)], Time::ZERO, &mut sink);
        assert!(matches!(
            sink.last(),
            Some(OwnedOutput::Stream { to, msg: Message::PushPull(pp) })
                if *to == addr(5) && pp.join && !pp.reply
        ));
        sink.clear();
        d.leave(Time::from_secs(1), &mut sink);
        assert!(d.node().has_left());
    }

    /// A sink that records how flushes arrive: which packets came
    /// through `transmit_batch` (and in what groups) vs single-shot
    /// `transmit`.
    #[derive(Default)]
    struct BatchRecorder {
        effects: Vec<OwnedOutput>,
        batches: Vec<usize>,
        singles: usize,
    }

    impl Sink for BatchRecorder {
        fn transmit(&mut self, to: NodeAddr, payload: &[u8]) {
            self.singles += 1;
            self.effects.push(OwnedOutput::Packet {
                to,
                payload: Bytes::copy_from_slice(payload),
            });
        }

        fn stream(&mut self, to: NodeAddr, msg: Message) {
            self.effects.push(OwnedOutput::Stream { to, msg });
        }

        fn event(&mut self, event: Event) {
            self.effects.push(OwnedOutput::Event(event));
        }

        fn transmit_batch(&mut self, arena: &[u8], packets: &[(NodeAddr, std::ops::Range<usize>)]) {
            self.batches.push(packets.len());
            for (to, range) in packets {
                self.effects.push(OwnedOutput::Packet {
                    to: *to,
                    payload: Bytes::copy_from_slice(&arena[range.clone()]),
                });
            }
        }
    }

    fn alive_datagram(name: &str, i: u8) -> Input {
        Input::Datagram {
            from: addr(i),
            payload: codec::encode_message(&Message::Alive(Alive {
                incarnation: Incarnation(1),
                node: name.into(),
                addr: addr(i),
                meta: Bytes::new(),
            })),
        }
    }

    /// Drives a node to the point where a tick produces packets: two
    /// live peers, then enough time for a probe round.
    fn packet_producing_driver() -> Driver {
        let mut d = driver();
        let mut sink: Vec<OwnedOutput> = Vec::new();
        d.start(Time::ZERO, &mut sink);
        d.handle(alive_datagram("p1", 2), Time::from_millis(10), &mut sink)
            .unwrap();
        d.handle(alive_datagram("p2", 3), Time::from_millis(20), &mut sink)
            .unwrap();
        d
    }

    #[test]
    fn deferring_handle_batches_packets_and_flush_matches_single_shot() {
        // Two identical drivers; one drained single-shot, one deferred.
        let mut plain = packet_producing_driver();
        let mut batched = packet_producing_driver();

        let mut plain_sink = BatchRecorder::default();
        let mut batch_sink = BatchRecorder::default();
        let t = Time::from_secs(2);
        plain.tick(t, &mut plain_sink);
        batched
            .handle_deferring(Input::Tick, t, &mut batch_sink)
            .unwrap();
        assert!(plain_sink.singles > 0, "the tick must produce packets");
        assert_eq!(batch_sink.singles, 0, "nothing sent before the flush");
        assert_eq!(
            batched.deferred_packets(),
            plain_sink.singles,
            "every packet of the burst is deferred"
        );

        batched.flush_deferred(&mut batch_sink);
        assert_eq!(batched.deferred_packets(), 0);
        assert_eq!(batch_sink.batches.iter().sum::<usize>(), plain_sink.singles);

        // Payload-for-payload identical effects, order preserved.
        let payloads = |s: &BatchRecorder| -> Vec<(NodeAddr, Bytes)> {
            s.effects
                .iter()
                .filter_map(|o| match o {
                    OwnedOutput::Packet { to, payload } => Some((*to, payload.clone())),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(payloads(&plain_sink), payloads(&batch_sink));
    }

    #[test]
    fn deferred_ranges_survive_inputs_between_drive_and_flush() {
        let mut d = packet_producing_driver();
        let mut sink = BatchRecorder::default();
        d.handle_deferring(Input::Tick, Time::from_secs(2), &mut sink)
            .unwrap();
        let first_burst = d.deferred_packets();
        assert!(first_burst > 0);
        // More inputs while the batch is held: the arena accumulates
        // instead of being reclaimed, so earlier ranges stay valid.
        d.handle_deferring(alive_datagram("p3", 4), Time::from_secs(2), &mut sink)
            .unwrap();
        d.handle_deferring(Input::Tick, Time::from_secs(4), &mut sink)
            .unwrap();
        assert!(d.deferred_packets() >= first_burst);
        d.flush_deferred(&mut sink);
        for o in &sink.effects {
            if let OwnedOutput::Packet { payload, .. } = o {
                assert!(!payload.is_empty(), "no range may dangle or go stale");
            }
        }
        // After the flush released the hold, the next drained input
        // reclaims the arena.
        d.handle(Input::Tick, Time::from_secs(6), &mut sink).unwrap();
        assert!(!d.node().has_pending_output());
    }

    #[test]
    fn flush_with_nothing_deferred_is_a_no_op_release() {
        let mut d = driver();
        let mut sink = BatchRecorder::default();
        d.start(Time::ZERO, &mut sink);
        d.flush_deferred(&mut sink);
        assert!(sink.batches.is_empty());
        assert_eq!(sink.singles, 0);
    }

    #[test]
    fn malformed_datagram_reports_error_and_dispatches_nothing() {
        let mut d = driver();
        let mut sink: Vec<OwnedOutput> = Vec::new();
        d.start(Time::ZERO, &mut sink);
        let res = d.handle(
            Input::Datagram {
                from: addr(2),
                payload: Bytes::copy_from_slice(&[250, 250]),
            },
            Time::ZERO,
            &mut sink,
        );
        assert!(res.is_err());
        assert!(sink.is_empty());
    }
}
