//! The SWIM + Lifeguard protocol state machine.
//!
//! [`SwimNode`] is **sans-io** in the `quinn-proto`/`str0m` sense: it
//! never reads a clock, opens a socket or sleeps. A runtime — the
//! simulator, the UDP/TCP agent, normally through the shared
//! [`Driver`](crate::driver::Driver) — feeds [`Input`]s to
//! [`SwimNode::handle_input`] (received datagrams as borrowed bytes to
//! [`SwimNode::handle_datagram_slice`]), drains [`Output`]s from
//! [`SwimNode::poll_output`] and sleeps until
//! [`SwimNode::next_deadline`]. All randomness comes from one seeded
//! RNG, so a cluster under a deterministic runtime is reproducible.
//!
//! This file routes: an input or a fired `Timer` goes to the part that
//! owns the state it touches — `Prober`, `Suspicions`, `AntiEntropy`,
//! `Outbox`, `BlockedIo`, [`Awareness`]; docs/ARCHITECTURE.md has the
//! owner map — and what the part returns is routed on. What a claim
//! about a member does to the table is decided here, by the one
//! `match` in `SwimNode::apply`, and nowhere else: gossip, push-pull
//! entries, failed probes and expired suspicions all go through it.

use std::time::Duration;

use bytes::Bytes;
use lifeguard_metrics::CoreSnapshot;
use lifeguard_proto::{
    compound, Ack, Alive, DatagramView, Dead, DecodeError, Incarnation, IndirectPing, MemberState,
    Message, Nack, NodeAddr, NodeName, Ping, PushNodeState, PushPullDelta, SeqNo, Suspect,
    MAX_META_LEN, MAX_NAME_LEN,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::awareness::{self, Awareness};
use crate::blocked_io::BlockedIo;
use crate::broadcast;
use crate::config::Config;
use crate::event::Event;
use crate::member::{Member, MemberRef};
use crate::membership::{MemberId, Membership, SamplePool, Vacant};
use crate::outbox::Outbox;
use crate::prober::{self, Acked, Prober};
use crate::suspicion::{Suspicion, Suspicions};
use crate::sync::{self, AntiEntropy, DeltaReply};
use crate::time::Time;
use crate::timer_wheel::{TimerKey, TimerWheel};

pub use crate::outbox::Output;

/// How long the gossip loop keeps choosing dead and left members as
/// targets, so they learn of their own fate quickly (memberlist LAN:
/// 30 s).
const GOSSIP_TO_THE_DEAD: Duration = Duration::from_secs(30);

/// One unit of work fed into the state machine via
/// [`SwimNode::handle_input`].
///
/// Every way a runtime can drive the protocol — network receive, timer
/// expiry, operator request — is an `Input`, so the simulator, the real
/// agent and the tests all exercise the exact same entry point.
#[derive(Clone, Debug)]
pub enum Input {
    /// A datagram arrived: [`SwimNode::handle_datagram_slice`] of
    /// `&payload`.
    Datagram {
        /// Sender address (used for ack routing).
        from: NodeAddr,
        /// The raw packet bytes.
        payload: Bytes,
    },
    /// A message arrived on the reliable stream transport (push-pull
    /// sync or fallback probe).
    Stream {
        /// Sender's advertised address (reply target).
        from: NodeAddr,
        /// The decoded message.
        msg: Message,
    },
    /// The wall clock reached [`SwimNode::next_deadline`]: fire all due
    /// internal timers (probe rounds, gossip ticks, suspicion expiries…).
    Tick,
    /// Initiate a join: push-pull with each seed over the stream
    /// transport.
    Join {
        /// Seed addresses to contact (the node's own address is skipped).
        seeds: Vec<NodeAddr>,
    },
    /// Leave the group gracefully (broadcasts a self-signed `dead`).
    Leave,
    /// Run one anti-entropy exchange with the named member right now
    /// (operator-triggered sync; the periodic `PushPullTick` uses the
    /// same path with a sampled peer). Delta or full per configuration
    /// and watermark state; a no-op for unknown names and self.
    Sync {
        /// The member to exchange state with.
        with: NodeName,
    },
    /// Message I/O became blocked/unblocked (anomaly injection, paper
    /// §V-D): while blocked, logic and deadlines keep running but each
    /// protocol loop executes at most one more iteration and the probe
    /// in flight is evaluated at unblock. The runtime must also
    /// withhold the node's sends and inbound messages for the duration.
    IoBlocked {
        /// The new blocked state.
        blocked: bool,
    },
    /// Replace the local node's application metadata and gossip the
    /// change (memberlist's `UpdateNode`). A blob longer than
    /// [`MAX_META_LEN`], or one offered after [`Input::Leave`], is
    /// refused: the node's state, incarnation and broadcast queue stay
    /// as they were.
    UpdateMeta {
        /// The new metadata blob.
        meta: Bytes,
    },
}

/// Internal timer kinds. Each is armed by one owner: `ProbeRound`, the
/// three loop ticks (`GossipTick` via [`GossipLoop`]) and `Reap` by this
/// file, the probe and relay deadlines by `Prober`, `SuspicionCheck` by
/// `Suspicions`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Timer {
    ProbeRound,
    ProbeTimeout { seq: SeqNo },
    ProbeRoundEnd { seq: SeqNo },
    GossipTick,
    PushPullTick,
    Reconnect,
    SuspicionCheck { id: MemberId },
    RelayNack { seq: SeqNo },
    RelayExpire { seq: SeqNo },
    Reap,
}

/// The dedicated gossip loop: ticking on its phase grid, or parked while
/// it has nothing to do, so an idle node does not wake to find nothing.
#[derive(Clone, Copy, Debug)]
enum GossipLoop {
    /// A `GossipTick` waits in the wheel under this key.
    Armed(TimerKey),
    /// No tick is armed; `next` is a point of the loop's phase grid.
    Parked { next: Time },
}

/// A claim about a member, as [`SwimNode::apply`] takes it: the state
/// asserted and what its carrier has. Only an alive carries the subject's
/// address and metadata. A suspect or dead carries its accuser, `None`
/// for this node; a dead whose accuser is its subject is a leave.
enum Claim<'a> {
    Alive(NodeAddr, &'a [u8]),
    Suspect(Option<&'a str>),
    Dead(Option<&'a str>),
}

/// A single group member's protocol instance.
///
/// # Example
///
/// ```
/// use lifeguard_core::config::Config;
/// use lifeguard_core::node::{Input, SwimNode};
/// use lifeguard_core::time::Time;
/// use lifeguard_proto::NodeAddr;
///
/// let mut node = SwimNode::new(
///     "node-0".into(),
///     NodeAddr::new([10, 0, 0, 1], 7946),
///     Config::lan().lifeguard(),
///     42,
/// );
/// node.start(Time::ZERO);
/// node.handle_input(Input::Tick, Time::ZERO).unwrap();
/// assert!(node.poll_output().is_none()); // nothing to send until peers exist
/// assert!(node.next_deadline().is_some()); // probe/gossip timers armed
/// ```
#[derive(Debug)]
pub struct SwimNode {
    config: Config,
    name: NodeName,
    addr: NodeAddr,
    incarnation: Incarnation,
    meta: Bytes,
    membership: Membership,
    timers: TimerWheel<Timer>,
    rng: StdRng,
    started: bool,
    left: bool,
    awareness: Awareness,
    prober: Prober,
    suspicions: Suspicions,
    sync: AntiEntropy,
    outbox: Outbox,
    blocked_io: BlockedIo,
    gossip: GossipLoop,
    /// Observability state: protocol activity counters, latency and
    /// lifetime histograms, flap and anti-entropy volume counters, and
    /// the queue-depth peak, recorded straight into the export shape.
    /// Counters are plain fields; each histogram keeps a 128-bucket
    /// inline window anchored on its first record and spills to all 976
    /// buckets on the heap, once, only when a value falls outside it.
    /// Recording therefore allocates at most once per histogram, which
    /// keeps the zero-alloc poll guarantee. It is fed only from
    /// `handle_input`, so the whole plane is deterministic under the sim
    /// clock. The live gauges (`lhm*`, `broadcast_queue_depth`) are
    /// filled in by [`SwimNode::metrics`].
    metrics: CoreSnapshot,
}

impl SwimNode {
    // Construction and the lifecycle inputs: start, bootstrap, join,
    // leave and metadata updates.

    /// Creates a node. Call [`SwimNode::start`] before driving it.
    ///
    /// `seed` fixes the node's private RNG stream (probe order, gossip
    /// fan-out choices); two nodes with the same seed and inputs behave
    /// identically.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`Config::validate`]; use
    /// [`SwimNode::try_new`] to handle invalid configurations
    /// gracefully.
    #[expect(
        clippy::panic,
        reason = "documented contract: `new` panics on an invalid config at construction time, \
                  never on wire input; `try_new` is the graceful path"
    )]
    pub fn new(name: NodeName, addr: NodeAddr, config: Config, seed: u64) -> Self {
        Self::try_new(name, addr, config, seed)
            .unwrap_or_else(|e| panic!("invalid SwimNode config: {e}"))
    }

    /// Fallible [`SwimNode::new`]: rejects invalid configurations with
    /// the typed [`ConfigError`](crate::config::ConfigError) instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns the first [`Config::validate`] violation, or
    /// [`ConfigError::NodeNameTooLong`](crate::config::ConfigError::NodeNameTooLong)
    /// for a `name` the wire format cannot carry.
    pub fn try_new(
        name: NodeName,
        addr: NodeAddr,
        config: Config,
        seed: u64,
    ) -> Result<Self, crate::config::ConfigError> {
        config.validate()?;
        if name.len() > MAX_NAME_LEN {
            return Err(crate::config::ConfigError::NodeNameTooLong);
        }
        Ok(SwimNode {
            awareness: Awareness::new(config.effective_awareness_max()),
            outbox: Outbox::new(),
            config,
            name,
            addr,
            incarnation: Incarnation::ZERO,
            meta: Bytes::new(),
            membership: Membership::new(),
            timers: TimerWheel::new(),
            rng: StdRng::seed_from_u64(seed),
            started: false,
            left: false,
            prober: Prober::default(),
            suspicions: Suspicions::default(),
            sync: AntiEntropy::new(seed),
            blocked_io: BlockedIo::default(),
            gossip: GossipLoop::Parked { next: Time::ZERO },
            metrics: CoreSnapshot::default(),
        })
    }

    /// Boots the node: registers itself as alive and arms the periodic
    /// timers. Must be called exactly once before any other driving call.
    /// Produces no outputs (there is nobody to talk to yet).
    ///
    /// # Panics
    ///
    /// Panics if the node was already started.
    // An `assert!` exception (pinned in tests/source_scan.rs): documented contract: the owner boots a node once (`Driver::start`), before any input; wire input never reaches `start`
    pub fn start(&mut self, now: Time) {
        assert!(!self.started, "start() called twice");
        self.started = true;
        let mut me = Member::new(self.name.clone(), self.addr, self.incarnation, now);
        me.meta = self.meta.clone();
        self.membership.upsert(me);

        // Randomize initial phases so a cluster booted in lock-step does
        // not probe in lock-step.
        let probe_phase = self.random_phase(self.config.probe_interval);
        self.timers.schedule(now + probe_phase, Timer::ProbeRound);
        let gossip_phase = self.random_phase(self.config.gossip_interval);
        let tick = self.timers.schedule(now + gossip_phase, Timer::GossipTick);
        self.gossip = GossipLoop::Armed(tick);
        if let Some(pp) = self.config.push_pull_interval {
            let pp_phase = self.random_phase(pp);
            self.timers
                .schedule(now + pp + pp_phase, Timer::PushPullTick);
        }
        if let Some(rc) = self.config.reconnect_interval {
            let rc_phase = self.random_phase(rc);
            self.timers.schedule(now + rc + rc_phase, Timer::Reconnect);
        }
        self.timers
            .schedule(now + self.config.dead_reclaim, Timer::Reap);
    }

    fn random_phase(&mut self, interval: std::time::Duration) -> std::time::Duration {
        let us = interval.as_micros().max(1) as u64;
        std::time::Duration::from_micros(self.rng.random_range(0..us))
    }

    /// Registers peers directly as alive members, bypassing the join
    /// protocol — the simulator's full-mesh bootstrap for large-cluster
    /// benchmarks. No gossip is enqueued and no events are emitted; the
    /// probe rotation absorbs all names with one bulk shuffle.
    pub fn bootstrap_peers(
        &mut self,
        peers: impl IntoIterator<Item = (NodeName, NodeAddr)>,
        now: Time,
    ) {
        debug_assert!(self.started, "bootstrap_peers() before start()");
        let peers = peers.into_iter();
        let expected = peers.size_hint().0;
        self.membership.reserve(expected);
        let mut fresh = Vec::with_capacity(expected);
        for (name, addr) in peers {
            if name == self.name {
                continue;
            }
            if let Err(vacant) = self.membership.lookup(name.as_str()) {
                let member = Member::new(name, addr, Incarnation::ZERO, now);
                fresh.push(self.membership.insert(vacant, member));
            }
        }
        self.prober.admit_all(fresh, &mut self.rng);
    }

    /// `Input::Join`: sends a push-pull sync (carrying our own record)
    /// to each seed address over the stream transport.
    fn join(&mut self, seeds: &[NodeAddr]) {
        debug_assert!(self.started, "join() before start()");
        let Some(me) = self.membership.get(&self.name) else {
            debug_assert!(false, "self is registered by start()");
            return;
        };
        let request = sync::join_request(me);
        for &to in seeds.iter().filter(|a| **a != self.addr) {
            self.outbox.stream(to, request.clone());
        }
    }

    /// `Input::Leave`: broadcasts a self-signed `dead` message
    /// (memberlist's leave semantics) and flushes it to a few peers
    /// immediately.
    fn leave(&mut self, now: Time) {
        if self.left {
            return;
        }
        self.left = true;
        self.outbox.broadcasts.enqueue(Message::Dead(Dead {
            incarnation: self.incarnation,
            node: self.name.clone(),
            from: self.name.clone(),
        }));
        self.membership
            .set_state(&self.name, MemberState::Left, now);
        self.gossip_once(now);
    }

    /// `Input::UpdateMeta`: the incarnation is bumped so the new
    /// `alive` message supersedes older state. An oversized blob is
    /// refused here, where it enters, so nothing this node encodes about
    /// itself can overflow the codec's 16-bit blob length. So is any
    /// blob once the node has left: a node that has left stays gone,
    /// and the `Alive` this would gossip (riding on the acks a departed
    /// node still sends) is a rejoin to every peer holding it `Left`.
    fn update_meta(&mut self, meta: Bytes, now: Time) {
        if meta.len() > MAX_META_LEN || self.left {
            return;
        }
        self.meta = meta;
        self.incarnation = self.incarnation.next();
        self.announce_alive(now);
    }

    /// The timer queue's exact next deadline: the earliest instant at
    /// which the runtime must feed the next [`Input::Tick`]. A
    /// readiness-driven runtime sleeps in `poll` for precisely
    /// `next_deadline() - now` instead of ticking on a fixed interval.
    pub fn next_deadline(&self) -> Option<Time> {
        self.timers.next_deadline()
    }

    /// Feeds one unit of work into the state machine. Effects are queued
    /// internally; drain them with [`SwimNode::poll_output`] before the
    /// next `handle_input` if packet payload validity matters (inputs
    /// never corrupt queued packets, but a fully drained queue lets the
    /// node reclaim its scratch buffer).
    ///
    /// # Errors
    ///
    /// [`Input::Datagram`] returns the [`DecodeError`] if the packet is
    /// malformed; the node's state is unchanged in that case (a real
    /// deployment just drops such packets). Every other input is
    /// infallible.
    pub fn handle_input(&mut self, input: Input, now: Time) -> Result<(), DecodeError> {
        self.outbox.begin_input();
        match input {
            Input::Datagram { from, payload } => {
                return self.handle_datagram_slice(from, &payload, now);
            }
            Input::Stream { from, msg } => self.handle_stream_msg(from, msg, now),
            Input::Tick => self.tick(now),
            Input::Join { seeds } => self.join(&seeds),
            Input::Leave => self.leave(now),
            Input::Sync { with } => self.sync_request(&with, now),
            Input::IoBlocked { blocked } => self.set_io_blocked(blocked, now),
            Input::UpdateMeta { meta } => self.update_meta(meta, now),
        }
        self.resume_gossip(now);
        Ok(())
    }

    /// Pops the next queued effect, or `None` when the node has nothing
    /// for the runtime to do. Zero allocations: packet payloads are
    /// slices of the node's scratch buffer.
    pub fn poll_output(&mut self) -> Option<Output<'_>> {
        self.outbox.next_output()
    }

    /// Whether [`SwimNode::poll_output`] has queued effects.
    pub fn has_pending_output(&self) -> bool {
        self.outbox.has_pending()
    }

    /// The one datagram path: what [`Input::Datagram`] runs, and what a
    /// socket runtime calls directly with its receive buffer. The packet
    /// is parsed once, into borrowed [`DatagramView`]s — the whole of it
    /// checked before the first is handled — so nothing is decoded into
    /// owned messages: a name becomes a [`NodeName`] only where a
    /// message changes state. Gossip that changes nothing allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// The [`DecodeError`] of a malformed packet; state is unchanged.
    pub fn handle_datagram_slice(
        &mut self,
        _from: NodeAddr,
        payload: &[u8],
        now: Time,
    ) -> Result<(), DecodeError> {
        self.outbox.begin_input();
        let started = self.started;
        compound::for_each_view(payload, |view| {
            if started {
                self.handle_view(view, now);
            }
        })?;
        self.resume_gossip(now);
        Ok(())
    }

    // The node's read-only surface: identity, the member table, the
    // metrics export and the cross-part invariant check.

    /// The local node's name.
    pub fn name(&self) -> &NodeName {
        &self.name
    }

    /// The local node's advertised address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// The local incarnation number.
    pub fn incarnation(&self) -> Incarnation {
        self.incarnation
    }

    /// The current Local Health Multiplier score (0 = healthy).
    pub fn local_health(&self) -> u32 {
        self.awareness.score()
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// All known members (including self and retained dead members).
    pub fn members(&self) -> impl Iterator<Item = MemberRef<'_>> {
        self.membership.iter()
    }

    /// Looks up a member record by name.
    pub fn member(&self, name: &NodeName) -> Option<MemberRef<'_>> {
        self.membership.get(name)
    }

    /// Number of members currently believed alive (including self).
    pub fn num_alive(&self) -> usize {
        self.membership.alive_count()
    }

    /// Whether the node has left the group.
    pub fn has_left(&self) -> bool {
        self.left
    }

    /// Whether message I/O is currently blocked (anomaly injection).
    pub fn is_io_blocked(&self) -> bool {
        self.blocked_io.is_blocked()
    }

    /// Number of gossip broadcasts waiting in the queue (introspection).
    pub fn pending_broadcasts(&self) -> usize {
        self.outbox.broadcasts.len()
    }

    /// The queued gossip broadcast about `subject`, if any, decoded from
    /// its wire bytes (test/debug introspection).
    pub fn queued_broadcast_for(&self, subject: &NodeName) -> Option<Message> {
        self.outbox.broadcasts.queued_for(subject)
    }

    /// Point-in-time metrics snapshot of the protocol plane: the
    /// protocol activity counters, the probe-RTT and suspicion-lifetime
    /// histograms, health/queue gauges and anti-entropy volume, in the
    /// runtime-independent [`CoreSnapshot`] shape. Everything here is
    /// recorded on the deterministic `handle_input` path, so for the
    /// same input trace every runtime reports the same snapshot.
    pub fn metrics(&self) -> CoreSnapshot {
        let depth = self.outbox.broadcasts.len() as u64;
        CoreSnapshot {
            lhm: u64::from(self.awareness.score()),
            lhm_peak: u64::from(self.awareness.peak()),
            lhm_max: u64::from(self.awareness.max()),
            broadcast_queue_depth: depth,
            broadcast_queue_peak: self.metrics.broadcast_queue_peak.max(depth),
            ..self.metrics.clone()
        }
    }

    /// Checks what each part of the node promises the others, and
    /// panics on the first violation (for tests and the simulator —
    /// call it between inputs): every suspicion has an armed expiry and
    /// `Suspect` members ↔ suspicions are one-to-one; the deadlines of
    /// the probe in flight and of relayed probes are armed or deferred
    /// by blocked I/O, never both; every queued packet lies inside the
    /// scratch arena, and the broadcast queue's slots, subject index and
    /// byte arena agree; every live member but this node is in the probe
    /// rotation exactly once; the gossip loop is armed with its tick in
    /// the wheel, or parked with nothing to do; plus the member table's
    /// and the timer queue's own structure checks.
    pub fn check_invariants(&self) {
        match self.gossip {
            GossipLoop::Armed(key) => assert!(
                self.timers.deadline_of(key).is_some(),
                "gossip loop armed without a tick"
            ),
            GossipLoop::Parked { .. } => assert!(
                !self.started || self.gossip_idle(),
                "gossip loop parked with work to do"
            ),
        }
        self.membership.check_invariants();
        self.timers.check_invariants();
        self.outbox.check_invariants();
        self.suspicions
            .check_invariants(&self.membership, &self.timers);
        self.prober
            .check_invariants(&self.membership, &self.name, &self.timers, &self.blocked_io);
    }

    /// [`Input::IoBlocked`]. Unblocking re-injects the postponed
    /// deadline timers (see `BlockedIo::release`) and drains everything
    /// due; the outputs of that catch-up are queued for polling.
    fn set_io_blocked(&mut self, blocked: bool, now: Time) {
        if self.blocked_io.set(blocked) && !blocked {
            self.blocked_io.release(&mut self.timers, &mut self.prober);
            self.tick(now);
        }
    }

    /// [`Input::Tick`]: fires all timers due at or before `now`.
    fn tick(&mut self, now: Time) {
        while let Some((at, timer)) = self.timers.pop_due(now) {
            self.fire(at, timer, now);
        }
    }

    /// [`Input::Stream`]: a message from the reliable stream transport.
    fn handle_stream_msg(&mut self, from: NodeAddr, msg: Message, now: Time) {
        // Same pre-start guard as the datagram path, plus post-leave: a
        // node that has not booted yet — or has left the group — must
        // not answer probes or anti-entropy exchanges.
        // Streams outlive datagrams (a TCP connection accepted before
        // `start` can deliver arbitrarily late), so without this guard a
        // pre-start push-pull could seed membership state that `start`
        // then clobbers.
        if !self.started || self.left {
            return;
        }
        match msg {
            // Fallback direct probe over TCP: reply in kind.
            Message::Ping(p) if p.target == self.name => {
                self.outbox.stream(from, Message::Ack(Ack { seq: p.seq }));
            }
            Message::Ack(a) => self.handle_ack(a.seq, now),
            Message::PushPull(pp) => {
                self.merge_remote_state(&pp.states, now);
                if !pp.reply {
                    self.outbox.stream(from, sync::full_reply(&self.membership));
                }
            }
            Message::PushPullDelta(d) => self.handle_push_pull_delta(from, &d, now),
            // Gossip over the stream transport is not part of the
            // protocol; ignore anything else.
            _ => {}
        }
    }

    /// One message of a received datagram. Names are still the packet's
    /// bytes here: a handler resolves the name it acts on once
    /// ([`Membership::lookup`]) and goes by [`MemberId`] from there.
    fn handle_view(&mut self, view: DatagramView<'_>, now: Time) {
        match view {
            DatagramView::Ping {
                seq,
                target,
                source_addr,
                ..
            } => {
                // memberlist drops pings addressed to a different node
                // name: they indicate a stale address mapping.
                if target == self.name.as_str() {
                    self.send_packet(source_addr, &Message::Ack(Ack { seq }), None);
                }
            }
            DatagramView::IndirectPing {
                seq,
                target,
                target_addr,
                nack,
                source_addr,
                ..
            } => self.handle_indirect_ping(seq, target, target_addr, nack, source_addr, now),
            DatagramView::Ack { seq } => self.handle_ack(seq, now),
            DatagramView::Nack { seq } => self.prober.nack(seq),
            DatagramView::Suspect {
                incarnation,
                node,
                from,
            } => self.apply(node, incarnation, Claim::Suspect(Some(from)), now),
            DatagramView::Alive {
                incarnation,
                node,
                addr,
                meta,
            } => self.apply(node, incarnation, Claim::Alive(addr, meta), now),
            DatagramView::Dead {
                incarnation,
                node,
                from,
            } => self.apply(node, incarnation, Claim::Dead(Some(from)), now),
        }
    }

    /// Relays an indirect probe. The target's name is resolved once:
    /// the stored name goes into the ping and the id to the Buddy
    /// System hook. A target this node has never heard of is pinged all
    /// the same, under a name made for the occasion.
    fn handle_indirect_ping(
        &mut self,
        origin_seq: SeqNo,
        target: &str,
        target_addr: NodeAddr,
        nack: bool,
        origin_addr: NodeAddr,
        now: Time,
    ) {
        let nack_after =
            crate::time::scale_duration(self.config.probe_timeout, prober::NACK_FRACTION);
        let seq = self.prober.relay(
            (origin_seq, origin_addr),
            nack.then_some(now + nack_after),
            now + self.config.probe_interval,
            &mut self.timers,
        );
        let (target, target_id) = match self.membership.lookup(target) {
            Ok((id, member)) => (member.name.clone(), Some(id)),
            Err(_) => (NodeName::from(target), None),
        };
        let ping = self.ping(seq, target);
        self.send_packet(target_addr, &ping, target_id);
    }

    fn handle_ack(&mut self, seq: SeqNo, now: Time) {
        match self
            .prober
            .ack(seq, now, &mut self.timers, &mut self.blocked_io)
        {
            Acked::Probe(rtt) => {
                self.metrics.probe_rtt.record_duration(rtt);
                // Successful probe: LHM −1 (paper §IV-A).
                self.awareness.apply_delta(awareness::PROBE_SUCCESS_DELTA);
            }
            Acked::Relay(seq, origin) => self.send_packet(origin, &Message::Ack(Ack { seq }), None),
            Acked::Nothing => {}
        }
    }

    /// A claim at `incarnation` about the member `node`: the one place
    /// the precedence rules decide (SWIM §4.2, Lifeguard §IV). Each arm
    /// of the `match` is a row of the table in docs/ARCHITECTURE.md
    /// ("Claims about a member") and calls one effect. Only an alive
    /// admits a member this node does not know.
    ///
    /// `node`, the accuser and the metadata are borrowed from whatever
    /// carried them — on the datagram path, the packet. The subject is
    /// resolved once, by one index probe; a claim that changes nothing
    /// (stale, repeated, about a member unknown or already gone) stops
    /// at an integer comparison, touches no name and allocates nothing.
    fn apply(&mut self, node: &str, incarnation: Incarnation, claim: Claim<'_>, now: Time) {
        use MemberState::{Alive, Suspect};
        // `None`: the claim is about this node.
        let subject = (node != self.name.as_str()).then(|| {
            let found = self.membership.lookup(node);
            found.map(|(id, m)| (id, m.state, m.incarnation))
        });
        // The arms, in order, are rows 1, 2, 3–4, 5, 6–8, 10–12, 9, 13,
        // 14–15, 16–17, 18–19 and 20 of the table.
        match (subject, claim) {
            // Our own incarnation is authoritative; a node that has left
            // stays gone, since its refutation would be a rejoin.
            (None, Claim::Alive(..)) => {}
            (None, _) if self.left => {}
            (None, _) => self.refute(incarnation, now),
            (Some(Err(vacant)), Claim::Alive(addr, meta)) => {
                self.admit_member(vacant, incarnation, node, addr, meta, now);
            }
            (Some(Err(_)), _) => {}
            // An alive overrides only at a strictly higher incarnation.
            (Some(Ok((id, _, held))), Claim::Alive(addr, meta)) if incarnation > held => {
                self.revive(id, incarnation, addr, meta, now);
            }
            (Some(Ok(_)), Claim::Alive(..)) => {}
            (Some(Ok((_, _, held))), _) if incarnation < held => {}
            (Some(Ok((id, Alive, _))), Claim::Suspect(from)) => {
                self.start_suspicion(id, incarnation, from, now);
            }
            (Some(Ok((id, Suspect, held))), Claim::Suspect(from)) => {
                self.confirm(id, incarnation, held, from);
            }
            (Some(Ok((id, Alive | Suspect, _))), Claim::Dead(from)) => {
                self.declare(id, incarnation, from, now);
            }
            // Dead and left members take nothing but a newer alive.
            (Some(Ok(_)), _) => {}
        }
    }

    /// An `alive` above the held incarnation: the member behind `id` is
    /// alive at `incarnation`, `addr` and `meta` — refuted if it was
    /// suspect, back if it was dead or had left. The stored name is
    /// reused, and so is the stored metadata when it is unchanged (the
    /// steady-state case), so an update allocates nothing.
    fn revive(
        &mut self,
        id: MemberId,
        incarnation: Incarnation,
        addr: NodeAddr,
        meta: &[u8],
        now: Time,
    ) {
        let Some(member) = self.membership.by_id(id) else {
            return;
        };
        let (old_state, name) = (member.state, member.name.clone());
        let meta = if member.meta.as_ref() == meta {
            member.meta.clone()
        } else {
            Bytes::copy_from_slice(meta)
        };
        self.membership.update_id(id, |m| {
            m.incarnation = incarnation;
            m.addr = addr;
            m.meta = meta.clone();
            m.set_state(MemberState::Alive, now);
        });
        // Refuted: the pending expiry is truly cancelled.
        self.end_suspicion(id, now);
        self.outbox
            .broadcasts
            .enqueue(alive(incarnation, name.clone(), addr, meta));
        match old_state {
            MemberState::Suspect | MemberState::Dead => {
                self.metrics.flaps += 1;
                self.outbox.event(Event::MemberRecovered { name });
            }
            MemberState::Left => self.outbox.event(Event::MemberJoined { name }),
            MemberState::Alive => {}
        }
    }

    /// The member `node`, which [`Membership::lookup`] just found absent,
    /// joins alive at `incarnation`: it goes into the table under the id
    /// that lookup's probe earned, into the probe rotation and, as an
    /// `alive`, into the broadcast queue. A new member costs one meta
    /// copy when it has metadata (a compact copy, never a slice of a
    /// receive buffer), and its name when that is too long to be inline.
    fn admit_member(
        &mut self,
        vacant: Vacant,
        incarnation: Incarnation,
        node: &str,
        addr: NodeAddr,
        meta: &[u8],
        now: Time,
    ) {
        let meta = Bytes::copy_from_slice(meta);
        let name = NodeName::from(node);
        let mut m = Member::new(name.clone(), addr, incarnation, now);
        m.meta = meta.clone();
        let id = self.membership.insert(vacant, m);
        self.prober.admit(id, &mut self.rng);
        self.outbox
            .broadcasts
            .enqueue(alive(incarnation, name.clone(), addr, meta));
        self.outbox.event(Event::MemberJoined { name });
    }

    /// Marks the alive member behind `id` suspect at `incarnation` and
    /// arms the (possibly dynamic) suspicion timer. This changes state,
    /// so the names become owned here: the subject's is the stored one,
    /// the accuser's too when it is a known member (this node, for
    /// `None`) — copies, or reference-count bumps for long names — and a
    /// fresh name only for an accuser this node has never seen.
    fn start_suspicion(
        &mut self,
        id: MemberId,
        incarnation: Incarnation,
        from: Option<&str>,
        now: Time,
    ) {
        let Some(node) = self.membership.by_id(id).map(|m| m.name.clone()) else {
            return;
        };
        let from = self
            .membership
            .owned_name(from.unwrap_or(self.name.as_str()));
        let n = self.membership.live_count();
        let min = self.config.suspicion_min(n);
        let max = self.config.suspicion_max(n);
        let k = self.config.effective_k();
        let sus = Suspicion::new(incarnation, from.clone(), k, min, max, now);
        self.metrics.suspicions_raised += 1;
        self.suspicions.raise(id, sus, &mut self.timers);
        self.membership.update_id(id, |m| {
            m.incarnation = incarnation;
            m.set_state(MemberState::Suspect, now);
        });
        self.outbox.broadcasts.enqueue(Message::Suspect(Suspect {
            incarnation,
            node: node.clone(),
            from: from.clone(),
        }));
        self.outbox
            .event(Event::MemberSuspected { name: node, from });
    }

    /// A further suspicion about the suspect member behind `id`, held at
    /// `held`: an independent confirmation (paper §IV-B). One of the
    /// first K new accusers is re-gossiped — the enqueue resets the
    /// transmit budget, giving (K+1)·λ·log n copies at most — and a
    /// higher incarnation is taken into the record; a repeat touches no
    /// name and allocates nothing.
    fn confirm(
        &mut self,
        id: MemberId,
        incarnation: Incarnation,
        held: Incarnation,
        from: Option<&str>,
    ) {
        let from = from.unwrap_or(self.name.as_str());
        let (members, timers) = (&self.membership, &mut self.timers);
        let regossip = self
            .suspicions
            .confirm(id, incarnation, from, members, timers);
        if let (Some(from), Some(member)) = (regossip.flatten(), self.membership.by_id(id)) {
            self.outbox.broadcasts.enqueue(Message::Suspect(Suspect {
                incarnation,
                node: member.name.clone(),
                from,
            }));
        }
        // A confirmation at the held incarnation must not rewrite the
        // record.
        if incarnation > held {
            self.membership
                .update_id(id, |m| m.incarnation = incarnation);
        }
    }

    /// The live member behind `id` is dead at `incarnation`: a failure
    /// declared by `from` — this node, for `None`, when its suspicion
    /// expired — or a graceful leave when `from` is the member itself.
    fn declare(&mut self, id: MemberId, incarnation: Incarnation, from: Option<&str>, now: Time) {
        let Some(node) = self.membership.by_id(id).map(|m| m.name.clone()) else {
            return;
        };
        let leave = from == Some(node.as_str());
        if from.is_none() {
            self.metrics.failures_declared += 1;
        }
        let (from, state) = if leave {
            (node.clone(), MemberState::Left)
        } else {
            let from = self
                .membership
                .owned_name(from.unwrap_or(self.name.as_str()));
            (from, MemberState::Dead)
        };
        self.membership.update_id(id, |m| {
            m.incarnation = incarnation;
            m.set_state(state, now);
        });
        self.end_suspicion(id, now);
        self.outbox.broadcasts.enqueue(Message::Dead(Dead {
            incarnation,
            node: node.clone(),
            from: from.clone(),
        }));
        self.outbox.event(if leave {
            Event::MemberLeft { name: node }
        } else {
            Event::MemberFailed {
                name: node,
                incarnation,
                from,
            }
        });
    }

    fn end_suspicion(&mut self, id: MemberId, now: Time) -> Option<Suspicion> {
        let lifetimes = &mut self.metrics.suspicion_lifetime;
        self.suspicions.end(id, now, &mut self.timers, lifetimes)
    }

    /// Writes the node's own record as `Alive` at its current
    /// incarnation and metadata, and gossips it.
    fn announce_alive(&mut self, now: Time) {
        let (incarnation, meta) = (self.incarnation, self.meta.clone());
        self.membership.update(&self.name, |me| {
            me.meta = meta.clone();
            me.incarnation = incarnation;
            me.set_state(MemberState::Alive, now);
        });
        self.outbox
            .broadcasts
            .enqueue(alive(incarnation, self.name.clone(), self.addr, meta));
    }

    /// Refutes a suspicion (or death declaration) about ourselves by
    /// taking a higher incarnation and gossiping it. Feeds the LHM (+1):
    /// being suspected means we were too slow to answer probes.
    fn refute(&mut self, accused_incarnation: Incarnation, now: Time) {
        // Old news (our incarnation already supersedes it) still
        // re-gossips our aliveness, to speed convergence.
        if accused_incarnation >= self.incarnation {
            self.incarnation = accused_incarnation.next();
        }
        self.metrics.refutations += 1;
        self.awareness.apply_delta(awareness::REFUTE_DELTA);
        self.announce_alive(now);
        self.outbox.event(Event::SelfRefuted {
            incarnation: self.incarnation,
        });
    }

    /// Merges a remote membership table, a full push-pull or a delta's
    /// entries, as memberlist's `mergeState` does: each entry is a claim
    /// through [`SwimNode::apply`]. `Alive` is an alive with the entry's
    /// address and metadata, the only entry that admits a member this
    /// node does not know; `Suspect` and `Dead` are a suspicion by this
    /// node (a remote `dead` is downgraded so the victim can refute);
    /// `Left` is a leave by the subject. In steady-state anti-entropy
    /// almost every entry changes nothing, so the merge allocates only
    /// for actual changes.
    fn merge_remote_state(&mut self, states: &[PushNodeState], now: Time) {
        for st in states {
            let node = st.name.as_str();
            let claim = match st.state {
                MemberState::Alive => Claim::Alive(st.addr, &st.meta[..]),
                MemberState::Suspect | MemberState::Dead => Claim::Suspect(None),
                MemberState::Left => Claim::Dead(Some(node)),
            };
            self.apply(node, st.incarnation, claim, now);
        }
    }

    /// Executes one fired timer. `at` is the timer's original deadline
    /// (used to defer it faithfully while I/O is blocked); `now` is the
    /// current wall-clock instant the handlers observe.
    fn fire(&mut self, at: Time, timer: Timer, now: Time) {
        if self.blocked_io.defer(at, timer) {
            return;
        }
        match timer {
            Timer::ProbeRound => self.probe_round(now),
            Timer::ProbeTimeout { seq } => self.probe_timeout(seq),
            Timer::ProbeRoundEnd { seq } => self.probe_round_end(seq, now),
            Timer::GossipTick | Timer::PushPullTick | Timer::Reconnect => {
                self.fire_loop(timer, now)
            }
            Timer::SuspicionCheck { id } => self.suspicion_check(id, now),
            Timer::RelayNack { seq } => {
                if let Some((seq, to)) = self.prober.relay_nack(seq) {
                    self.send_packet(to, &Message::Nack(Nack { seq }), None);
                }
            }
            Timer::RelayExpire { seq } => self.prober.relay_expire(seq, &mut self.timers),
            Timer::Reap => {
                self.timers
                    .schedule(now + self.config.dead_reclaim, Timer::Reap);
                let cutoff =
                    Time::ZERO + now.saturating_since(Time::ZERO + self.config.dead_reclaim);
                // O(retained dead): the reapable iterator walks the gone
                // pool only, never the whole table. A tick that reaps
                // nothing collects into an empty, unallocated `Vec`.
                let reaped: Vec<MemberId> = self
                    .membership
                    .reapable(cutoff)
                    .filter(|(_, m)| *m.name != self.name)
                    .map(|(id, _)| id)
                    .collect();
                if !reaped.is_empty() {
                    for &id in &reaped {
                        self.membership.remove_id(id);
                    }
                    // One pass over the rotation, before any insert can
                    // hand a reaped slot to a newcomer.
                    self.prober.forget_removed(&self.membership);
                }
                self.sync.prune(&self.membership, now);
            }
        }
    }

    /// One fire of a dedicated loop timer (gossip, push-pull,
    /// reconnect): re-arm it — or park the gossip loop when it has
    /// nothing to do — then run the iteration unless the node has left
    /// or the loop is stuck at a blocked send.
    fn fire_loop(&mut self, timer: Timer, now: Time) {
        let skip = self.left || self.blocked_io.loop_is_stuck(timer);
        let every = match timer {
            Timer::GossipTick => {
                let next = now + self.config.gossip_interval;
                self.gossip = if self.gossip_idle() {
                    GossipLoop::Parked { next }
                } else {
                    GossipLoop::Armed(self.timers.schedule(next, timer))
                };
                None
            }
            Timer::PushPullTick => self.config.push_pull_interval,
            _ => self.config.reconnect_interval,
        };
        if let Some(every) = every {
            self.timers.schedule(now + every, timer);
        }
        if skip {
            return;
        }
        match timer {
            Timer::GossipTick => self.gossip_once(now),
            Timer::PushPullTick => {
                let partner = self.sync.partner(
                    &self.membership,
                    &mut self.rng,
                    &self.config,
                    &self.name,
                    now,
                );
                if let Some((name, to)) = partner {
                    self.sync_with(&name, to, now);
                }
            }
            _ => {
                let request = sync::reconnect_request(&self.membership, &mut self.rng, &self.name);
                if let Some((to, msg)) = request {
                    self.outbox.stream(to, msg);
                }
            }
        }
    }

    /// Starts one failure-detector round (SWIM's protocol period).
    fn probe_round(&mut self, now: Time) {
        // LHA-Probe: the period itself is scaled by LHM+1 (paper §IV-A).
        let interval = self.awareness.scale(self.config.probe_interval);
        self.timers.schedule(now + interval, Timer::ProbeRound);
        if self.left {
            return;
        }
        let timeout = self.awareness.scale(self.config.probe_timeout);
        let round = self.prober.start_round(
            &self.membership,
            &mut self.rng,
            &mut self.timers,
            &self.name,
            now,
            (timeout, interval),
        );
        if let Some((seq, id, target, addr)) = round {
            self.metrics.probes_sent += 1;
            let ping = self.ping(seq, target);
            self.send_packet(addr, &ping, Some(id));
        }
    }

    /// Direct probe timed out: launch indirect probes and the stream
    /// fallback.
    fn probe_timeout(&mut self, seq: SeqNo) {
        let Some((target, target_addr)) = self.prober.timed_out(seq) else {
            return;
        };
        let nack = self.config.nack_enabled();
        // The filter only rejects self and the probe target, so the
        // draw stays O(k) even at 10k members.
        let (me, tgt) = (&self.name, &target);
        let sent = self.outbox.pick_targets(
            &self.membership,
            &mut self.rng,
            SamplePool::Live,
            prober::INDIRECT_CHECKS,
            |m| m.name != me && m.name != tgt,
        ) as u32;
        self.metrics.indirect_probes_sent += u64::from(sent);
        let req = Message::IndirectPing(IndirectPing {
            seq,
            target: target.clone(),
            target_addr,
            nack,
            source: self.name.clone(),
            source_addr: self.addr,
        });
        let limit = self.transmit_limit();
        self.outbox.packet_to_each_target(&req, limit);
        self.prober.expect_nacks(if nack { sent } else { 0 });
        if self.config.stream_fallback_probe {
            let ping = self.ping(seq, target);
            self.outbox.stream(target_addr, ping);
        }
    }

    /// End of the protocol period: settle the probe result.
    fn probe_round_end(&mut self, seq: SeqNo, now: Time) {
        let Some((target, missed_nacks)) = self.prober.round_end(seq, &mut self.timers) else {
            return;
        };
        self.metrics.probes_failed += 1;
        // The round failed: feed the LHM. Following memberlist: when we
        // had nack-capable peers, health feedback comes from missed
        // nacks; otherwise the failed probe itself counts (+1).
        self.awareness.apply_delta(match missed_nacks {
            Some(missed) => missed as i32 * awareness::MISSED_NACK_DELTA,
            None => awareness::PROBE_FAILED_DELTA,
        });
        // Routed like a gossiped suspicion, at the incarnation held: if
        // the target is already suspect, our failed probe is an
        // independent confirmation (re-gossiped under LHA-Suspicion). A
        // target reaped while its probe was in flight is nobody's
        // suspect.
        if let Some(held) = self.membership.get(&target).map(|m| m.incarnation) {
            self.apply(target.as_str(), held, Claim::Suspect(None), now);
        }
    }

    /// The suspicion deadline was reached: declare the failure, as a
    /// `dead` claim by this node at the incarnation the suspicion holds.
    /// A fire always means the *current* deadline truly expired (see
    /// `Suspicions`); there is no re-arm path and no fire-time staleness
    /// check.
    fn suspicion_check(&mut self, id: MemberId, now: Time) {
        let Some(sus) = self.end_suspicion(id, now) else {
            debug_assert!(false, "stale suspicion timer reached its handler");
            return;
        };
        debug_assert!(
            now >= sus.deadline(),
            "suspicion timer fired before its deadline"
        );
        if let Some(node) = self.membership.by_id(id).map(|m| m.name.clone()) {
            self.apply(node.as_str(), sus.incarnation(), Claim::Dead(None), now);
        }
    }

    /// One dedicated gossip tick: send queued broadcasts to up to
    /// `gossip_nodes` random live (or recently dead) members.
    fn gossip_once(&mut self, now: Time) {
        let depth = self.outbox.broadcasts.len();
        if depth == 0 {
            return;
        }
        // The queue is at its fullest right before a drain: fold the
        // level into the peak gauge here, once per gossip tick.
        self.metrics.broadcast_queue_peak = self.metrics.broadcast_queue_peak.max(depth as u64);
        let me = &self.name;
        self.outbox.pick_targets(
            &self.membership,
            &mut self.rng,
            SamplePool::All,
            self.config.gossip_nodes,
            |m| {
                m.name != me
                    && (m.is_live()
                        || (matches!(m.state, MemberState::Dead | MemberState::Left)
                            && now.saturating_since(m.state_change) <= GOSSIP_TO_THE_DEAD))
            },
        );
        self.outbox.gossip_to_targets(self.transmit_limit());
    }

    /// Whether the gossip loop has nothing to do: the node has left, or
    /// the queue is empty and no blocked iteration is there to spend.
    fn gossip_idle(&self) -> bool {
        self.left || (self.outbox.broadcasts.is_empty() && !self.blocked_io.is_blocked())
    }

    /// Runs at the end of every input: a parked gossip loop that has
    /// work again is armed at the first point of its own phase grid at
    /// or after `now` — where a loop that never parked would fire next.
    fn resume_gossip(&mut self, now: Time) {
        let GossipLoop::Parked { next } = self.gossip else {
            return;
        };
        if self.started && !self.gossip_idle() {
            let every = self.config.gossip_interval;
            let steps = now
                .saturating_since(next)
                .as_micros()
                .div_ceil(every.as_micros().max(1));
            let at = next + every.saturating_mul(u32::try_from(steps).unwrap_or(u32::MAX));
            self.gossip = GossipLoop::Armed(self.timers.schedule(at, Timer::GossipTick));
        }
    }

    /// [`Input::Sync`]: one exchange with a specific member.
    fn sync_request(&mut self, with: &NodeName, now: Time) {
        if !self.started || self.left || *with == self.name {
            return;
        }
        if let Some(m) = self.membership.get(with) {
            let (name, to) = (m.name.clone(), m.addr);
            self.sync_with(&name, to, now);
        }
    }

    /// Starts one anti-entropy exchange with `peer`.
    fn sync_with(&mut self, peer: &NodeName, to: NodeAddr, now: Time) {
        let request = self
            .sync
            .request(peer, &self.membership, &self.config, &self.name, now);
        self.send_sync(to, request);
    }

    /// Sends a request or delta reply `AntiEntropy` built, counted by
    /// kind: an incremental push-pull with its wire size, or a delta-sync
    /// fallback to full state (joins, reconnects and full *replies* are
    /// not full syncs and do not come through here).
    fn send_sync(&mut self, to: NodeAddr, msg: Message) {
        if let Message::PushPullDelta(_) = msg {
            let bytes = lifeguard_proto::codec::encoded_len(&msg) as u64;
            self.metrics.delta_syncs += 1;
            self.metrics.delta_sync_bytes = self.metrics.delta_sync_bytes.saturating_add(bytes);
        } else {
            self.metrics.full_sync_fallbacks += 1;
        }
        self.outbox.stream(to, msg);
    }

    /// A [`PushPullDelta`] arrived on the stream transport: its entries
    /// are merged like any other remote state; what goes back is
    /// `AntiEntropy`'s call.
    fn handle_push_pull_delta(&mut self, from_addr: NodeAddr, d: &PushPullDelta, now: Time) {
        if d.from == self.name {
            return; // a delta "from ourselves" is a routing error
        }
        // The merge ignores an accusation about a member this node does
        // not know; it must travel again, as it would in every full
        // exchange, so a delta that carries one is not acknowledged.
        let merged = d
            .entries
            .iter()
            .all(|e| e.state == MemberState::Alive || self.membership.get(&e.name).is_some());
        let reply = self
            .sync
            .receive(d, merged, &self.membership, &self.config, &self.name, now);
        self.merge_remote_state(&d.entries, now);
        match reply {
            DeltaReply::Delta(msg) => self.send_sync(from_addr, msg),
            DeltaReply::FullResync => {
                self.send_sync(from_addr, sync::full_request(&self.membership))
            }
            DeltaReply::Nothing => {}
        }
    }

    /// Queues one datagram: `primary` plus gossip piggyback. With
    /// `ping_target` set and the Buddy System on, a suspicion held
    /// about the target rides first (paper §IV-C).
    fn send_packet(&mut self, to: NodeAddr, primary: &Message, ping_target: Option<MemberId>) {
        let buddy = ping_target
            .filter(|_| self.config.lifeguard.buddy_system)
            .and_then(|id| self.suspicions.buddy(id, &self.membership, &self.name));
        self.outbox
            .packet(to, primary, buddy.as_ref(), self.transmit_limit());
    }

    fn transmit_limit(&self) -> u32 {
        broadcast::retransmit_limit(self.membership.live_count())
    }

    fn ping(&self, seq: SeqNo, target: NodeName) -> Message {
        Message::Ping(Ping {
            seq,
            target,
            source: self.name.clone(),
            source_addr: self.addr,
        })
    }
}

fn alive(incarnation: Incarnation, node: NodeName, addr: NodeAddr, meta: Bytes) -> Message {
    Message::Alive(Alive {
        incarnation,
        node,
        addr,
        meta,
    })
}

#[cfg(test)]
mod tests;
