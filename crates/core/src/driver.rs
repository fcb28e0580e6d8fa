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
/// scratch buffer, valid for the call only: a runtime that sends later
/// (the socket agent's staging arena, a simulated in-flight packet, a
/// paused node's outbox) copies it out.
pub trait Sink {
    /// Send one datagram.
    fn transmit(&mut self, to: NodeAddr, payload: &[u8]);
    /// Send one message over the reliable stream transport.
    fn stream(&mut self, to: NodeAddr, msg: Message);
    /// Deliver one membership conclusion to the application.
    fn event(&mut self, event: Event);
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
}

impl Driver {
    /// Wraps a node (started or not) in a driver.
    pub fn new(node: SwimNode) -> Driver {
        Driver { node }
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
        debug_assert!(res.is_ok(), "tick is infallible");
    }

    /// [`Driver::handle`] of an [`Input::Join`]: the join sequence (a
    /// push-pull sync to each seed) goes out through `sink`.
    pub fn join(&mut self, seeds: Vec<NodeAddr>, now: Time, sink: &mut impl Sink) {
        let res = self.handle(Input::Join { seeds }, now, sink);
        debug_assert!(res.is_ok(), "join is infallible");
    }

    /// [`Driver::handle`] of an [`Input::Leave`]: the leave sequence (a
    /// self-signed `dead` flushed to a few peers) goes out through
    /// `sink`.
    pub fn leave(&mut self, now: Time, sink: &mut impl Sink) {
        let res = self.handle(Input::Leave, now, sink);
        debug_assert!(res.is_ok(), "leave is infallible");
    }

    /// [`Driver::handle`] of one received datagram handed in as a
    /// borrowed slice (see [`SwimNode::handle_datagram_slice`]): a
    /// socket runtime feeds its receive buffer directly, without
    /// copying the payload into an owned [`Input::Datagram`].
    ///
    /// # Errors
    ///
    /// As [`Driver::handle`].
    pub fn handle_datagram_slice(
        &mut self,
        from: NodeAddr,
        payload: &[u8],
        now: Time,
        sink: &mut impl Sink,
    ) -> Result<(), DecodeError> {
        let res = self.node.handle_datagram_slice(from, payload, now);
        self.drain(sink);
        res
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

    fn drain(&mut self, sink: &mut impl Sink) {
        while let Some(output) = self.node.poll_output() {
            match output {
                Output::Packet { to, payload } => sink.transmit(to, payload),
                Output::Stream { to, msg } => sink.stream(to, msg),
                Output::Event(e) => sink.event(e),
            }
        }
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

    /// One tick that gossips to several peers reaches the sink as one
    /// `transmit` per queued packet and destination, in the node's
    /// queue order, carrying exactly the bytes `poll_output` would have
    /// handed out.
    #[test]
    fn gossip_fan_out_is_one_transmit_per_destination_in_queue_order() {
        let warmed_up = || {
            let mut d = driver();
            let mut sink: Vec<OwnedOutput> = Vec::new();
            d.start(Time::ZERO, &mut sink);
            for (i, name) in ["p1", "p2", "p3"].into_iter().enumerate() {
                d.handle(
                    alive_datagram(name, 2 + i as u8),
                    Time::from_millis(10),
                    &mut sink,
                )
                .unwrap();
            }
            d
        };
        // The first gossip tick fans the three fresh `alive`s out.
        let t = Time::ZERO + Config::lan().gossip_interval;

        // Reference: the same input polled by hand, straight off the node.
        let mut by_hand = warmed_up();
        by_hand.node_mut().handle_input(Input::Tick, t).unwrap();
        let mut expected: Vec<(NodeAddr, Vec<u8>)> = Vec::new();
        while let Some(output) = by_hand.node_mut().poll_output() {
            if let Output::Packet { to, payload } = output {
                expected.push((to, payload.to_vec()));
            }
        }
        let mut destinations: Vec<NodeAddr> = expected.iter().map(|(to, _)| *to).collect();
        destinations.sort_unstable();
        destinations.dedup();
        assert_eq!(
            destinations,
            [addr(2), addr(3), addr(4)],
            "the tick must fan out"
        );

        let mut d = warmed_up();
        let mut sink: Vec<OwnedOutput> = Vec::new();
        d.handle(Input::Tick, t, &mut sink).unwrap();
        let transmitted: Vec<(NodeAddr, Vec<u8>)> = sink
            .iter()
            .filter_map(|o| match o {
                OwnedOutput::Packet { to, payload } => Some((*to, payload.to_vec())),
                _ => None,
            })
            .collect();
        assert_eq!(transmitted, expected);
        assert!(!d.node().has_pending_output());
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
