//! The node's output side: the queue [`SwimNode::poll_output`] drains,
//! the arena its packets live in, and the gossip that rides on them.
//!
//! [`Outbox`] owns one invariant: every queued packet is a byte range
//! of `scratch` that this file wrote, and `scratch` is only cleared by
//! [`Outbox::begin_input`] once the queue has drained — so a queued
//! range always resolves. Packet assembly (primary message, Buddy
//! System suspect, piggybacked broadcasts) and the gossip fan-out run
//! through the one reusable builder and target buffer, so steady-state
//! sending allocates nothing.
//!
//! [`SwimNode::poll_output`]: crate::node::SwimNode::poll_output

use std::collections::VecDeque;
use std::ops::Range;

use lifeguard_proto::compound::CompoundBuilder;
use lifeguard_proto::{Message, NodeAddr, DEFAULT_PACKET_BUDGET};
use rand::rngs::StdRng;

use crate::broadcast::BroadcastQueue;
use crate::event::Event;
use crate::member::MemberRef;
use crate::membership::{Membership, SamplePool};

/// An effect the runtime must carry out on behalf of the node, drained
/// via [`SwimNode::poll_output`](crate::node::SwimNode::poll_output).
///
/// Packet payloads borrow the node's internal scratch buffer and are
/// valid until the next `handle_input`/`poll_output` call; every
/// runtime sends later than that, so each copies the bytes out exactly
/// once — the socket agent into its staging arena, the simulator into
/// an [`OwnedOutput`](crate::driver::OwnedOutput) for its in-flight
/// queue or a paused node's outbox.
#[derive(Debug)]
pub enum Output<'a> {
    /// Send a datagram (already compound-encoded, within the MTU budget
    /// except for oversized single messages).
    Packet {
        /// Destination address.
        to: NodeAddr,
        /// Encoded packet bytes (borrowing the node's scratch buffer).
        payload: &'a [u8],
    },
    /// Send a message over the reliable stream transport (push-pull sync,
    /// fallback probe).
    Stream {
        /// Destination address.
        to: NodeAddr,
        /// The message to deliver reliably.
        msg: Message,
    },
    /// A membership conclusion for the application / metrics.
    Event(Event),
}

/// A queued effect. Packets are stored as ranges into the scratch
/// arena so enqueueing them allocates nothing in steady state.
#[derive(Debug)]
enum Queued {
    Packet { to: NodeAddr, range: Range<usize> },
    Stream { to: NodeAddr, msg: Message },
    Event(Event),
}

/// Queued effects, the packet arena and the broadcast queue.
#[derive(Debug)]
pub(crate) struct Outbox {
    /// Effects awaiting [`Outbox::next_output`].
    // bounded: the driver drains it fully after every input, so it holds at most one input's effects
    pending: VecDeque<Queued>,
    /// Arena for queued packet payloads.
    // bounded: cleared at the first input after a full drain, stabilises at the high-water burst size
    scratch: Vec<u8>,
    /// Reusable packet assembler, made for [`DEFAULT_PACKET_BUDGET`]
    /// (capacity persists across packets). Empty between calls: every
    /// method here that adds to it also finishes it.
    builder: CompoundBuilder,
    /// Reusable target-address buffer for gossip/probe fan-out.
    // bounded: cleared before each use, filled with ≤ max(indirect checks, gossip fan-out) addresses
    targets: Vec<NodeAddr>,
    /// The gossip queue every packet built here piggybacks from.
    pub(crate) broadcasts: BroadcastQueue,
}

impl Outbox {
    pub(crate) fn new() -> Self {
        Outbox {
            pending: VecDeque::new(),
            scratch: Vec::new(),
            builder: CompoundBuilder::new(DEFAULT_PACKET_BUDGET),
            targets: Vec::new(),
            broadcasts: BroadcastQueue::new(),
        }
    }

    /// Called at the start of every input: once the previous input's
    /// effects were all polled, nothing refers to the arena and it is
    /// reclaimed, so it stabilises at the high-water packet burst size.
    pub(crate) fn begin_input(&mut self) {
        if self.pending.is_empty() {
            self.scratch.clear();
        }
    }

    /// Pops the next queued effect. Zero allocations: a packet payload
    /// is the slice of the arena its range was recorded for.
    pub(crate) fn next_output(&mut self) -> Option<Output<'_>> {
        Some(match self.pending.pop_front()? {
            Queued::Packet { to, range } => Output::Packet {
                to,
                payload: self.scratch.get(range).unwrap_or_default(),
            },
            Queued::Stream { to, msg } => Output::Stream { to, msg },
            Queued::Event(e) => Output::Event(e),
        })
    }

    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    pub(crate) fn stream(&mut self, to: NodeAddr, msg: Message) {
        self.pending.push_back(Queued::Stream { to, msg });
    }

    pub(crate) fn event(&mut self, event: Event) {
        self.pending.push_back(Queued::Event(event));
    }

    /// Builds and queues one datagram: the primary message plus gossip
    /// piggyback, encoded straight into the arena — no allocation per
    /// packet in steady state. `buddy` is the Buddy System's suspect
    /// message about the ping's target (paper §IV-C): force-included
    /// first, and its subject excluded from the piggyback that follows.
    pub(crate) fn packet(
        &mut self,
        to: NodeAddr,
        primary: &Message,
        buddy: Option<&Message>,
        transmit_limit: u32,
    ) {
        let added = self.builder.try_add_msg(primary);
        debug_assert!(added, "primary message must fit");
        if let Some(suspect) = buddy {
            self.builder.try_add_msg(suspect);
        }
        let exclude = buddy.and_then(Message::gossip_subject);
        self.broadcasts
            .fill(&mut self.builder, transmit_limit, exclude);
        if let Some(range) = self.builder.finish_into(&mut self.scratch) {
            self.pending.push_back(Queued::Packet { to, range });
        }
    }

    /// Draws up to `k` members of `pool` passing `eligible` into the
    /// reusable target buffer and returns how many were drawn. O(k)
    /// expected when the filter rejects few members, even at 10k.
    pub(crate) fn pick_targets<'m>(
        &mut self,
        membership: &'m Membership,
        rng: &mut StdRng,
        pool: SamplePool,
        k: usize,
        eligible: impl FnMut(&MemberRef<'m>) -> bool,
    ) -> usize {
        self.targets.clear();
        let targets = &mut self.targets;
        membership.sample_pool_with(pool, k, rng, eligible, |m| targets.push(m.addr));
        self.targets.len()
    }

    /// [`Outbox::packet`] to each picked target in turn (each packet
    /// takes its own piggyback).
    pub(crate) fn packet_to_each_target(&mut self, primary: &Message, transmit_limit: u32) {
        let targets = std::mem::take(&mut self.targets);
        for &to in &targets {
            self.packet(to, primary, None, transmit_limit);
        }
        self.targets = targets;
    }

    /// One gossip-only packet to all picked targets: one encode pass,
    /// one arena slice, N queue entries referencing it — the shape a
    /// gather-send flushes as a single syscall — and the broadcast
    /// queue charges N transmissions in one fill.
    pub(crate) fn gossip_to_targets(&mut self, transmit_limit: u32) {
        if self.targets.is_empty() {
            return;
        }
        let copies = self.targets.len() as u32;
        self.broadcasts
            .fill_fanout(&mut self.builder, transmit_limit, None, copies);
        let pending = &mut self.pending;
        self.builder
            .finish_into_fanout(&mut self.scratch, &self.targets, |to, range| {
                pending.push_back(Queued::Packet { to, range });
            });
    }

    /// Every queued packet's range lies inside the arena, and no
    /// half-built packet is left in the builder.
    pub(crate) fn check_invariants(&self) {
        assert!(self.builder.is_empty(), "packet builder not finished");
        for q in &self.pending {
            if let Queued::Packet { range, .. } = q {
                assert!(
                    range.start <= range.end && range.end <= self.scratch.len(),
                    "queued packet {range:?} outside the {}-byte arena",
                    self.scratch.len()
                );
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn arena_capacity(&self) -> usize {
        self.scratch.capacity()
    }
}
