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
//! about a member does to the table (`apply_alive`, `apply_suspect`,
//! `apply_dead`, `refute`, `merge_remote_state`) is decided here and
//! nowhere else.

use std::time::Duration;

use bytes::Bytes;
use lifeguard_metrics::CoreSnapshot;
use lifeguard_proto::{
    compound, Ack, Alive, DatagramView, Dead, DecodeError, Incarnation, IndirectPing, MemberState,
    Message, Nack, NodeAddr, NodeName, Ping, PushNodeState, PushPullDelta, SeqNo, Suspect,
};
use rand::rngs::StdRng;

use crate::awareness::{self, Awareness};
use crate::blocked_io::BlockedIo;
use crate::broadcast;
use crate::config::Config;
use crate::event::Event;
use crate::member::Member;
use crate::membership::{MemberId, Membership, SamplePool, Vacant};
use crate::outbox::Outbox;
use crate::prober::{self, Acked, Prober};
use crate::suspicion::{Suspicion, Suspicions};
use crate::sync::{self, AntiEntropy, DeltaReply};
use crate::time::Time;
use crate::timer_wheel::{TimerKey, TimerWheel};

mod inspect;
mod lifecycle;

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
    /// [`MAX_META_LEN`](lifeguard_proto::MAX_META_LEN), or one offered after [`Input::Leave`], is
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
    /// All fixed-size — recording is allocation-free, preserving the
    /// zero-alloc poll guarantee — and fed only from `handle_input`, so
    /// the whole plane is deterministic under the sim clock. The live
    /// gauges (`lhm*`, `broadcast_queue_depth`) are filled in by
    /// [`SwimNode::metrics`].
    metrics: CoreSnapshot,
}

impl SwimNode {
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

    /// [`Input::IoBlocked`]. Unblocking re-injects the postponed
    /// deadline timers (see `BlockedIo::release`) and drains everything
    /// due; the outputs of that catch-up are queued for polling.
    fn set_io_blocked(&mut self, blocked: bool, now: Time) {
        if self.blocked_io.set(blocked) && !blocked {
            self.blocked_io
                .release(&mut self.timers, &mut self.prober);
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
            } => {
                if node == self.name.as_str() {
                    self.accused(incarnation, now);
                } else if let Ok((id, _)) = self.membership.lookup(node) {
                    self.apply_suspect(incarnation, id, from, now);
                }
            }
            DatagramView::Alive {
                incarnation,
                node,
                addr,
                meta,
            } => self.apply_alive(incarnation, node, addr, meta, now),
            DatagramView::Dead {
                incarnation,
                node,
                from,
            } => {
                if node == self.name.as_str() {
                    self.accused(incarnation, now);
                } else if let Ok((id, _)) = self.membership.lookup(node) {
                    self.apply_dead(incarnation, id, from, now);
                }
            }
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
        match self.prober.ack(seq, now, &mut self.timers) {
            Acked::Probe(rtt) => {
                self.metrics.probe_rtt.record_duration(rtt);
                // Successful probe: LHM −1 (paper §IV-A).
                self.awareness.apply_delta(awareness::PROBE_SUCCESS_DELTA);
            }
            Acked::Relay(seq, origin) => self.send_packet(origin, &Message::Ack(Ack { seq }), None),
            Acked::Nothing => {}
        }
    }

    /// A `suspect` or `dead` about ourselves arrived by gossip.
    fn accused(&mut self, incarnation: Incarnation, now: Time) {
        // A node that has left stays gone: refuting would gossip an
        // `Alive` that peers holding it as `Left` accept as a rejoin.
        if !self.left {
            self.refute(incarnation, now);
        }
    }

    /// Processes a suspicion about the peer behind `id`, whether it
    /// arrived by gossip, by push-pull merge, or was raised by our own
    /// failed probe (memberlist's `suspectNode`). A suspicion about an
    /// already-suspected member counts as an independent confirmation.
    /// The precedence rules for `suspect` live here and nowhere else.
    ///
    /// `from` is the accuser's name as the caller holds it — packet
    /// bytes on the datagram path. It becomes an owned name only when
    /// the suspicion changes state (a new suspicion, or one of the first
    /// K new confirmers): a stale or superseded suspicion, and a repeat
    /// confirmation, touch no name and allocate nothing.
    fn apply_suspect(&mut self, incarnation: Incarnation, id: MemberId, from: &str, now: Time) {
        let Some(member) = self.membership.by_id(id) else {
            return;
        };
        if incarnation < member.incarnation {
            return; // stale
        }
        match member.state {
            MemberState::Dead | MemberState::Left => {}
            MemberState::Suspect => {
                let (members, timers) = (&self.membership, &mut self.timers);
                let Some(regossip) = self.suspicions.confirm(id, incarnation, from, members, timers)
                else {
                    return;
                };
                if let Some(from) = regossip {
                    // The enqueue resets the transmit budget, giving
                    // (K+1)·λ·log n max copies.
                    self.outbox.broadcasts.enqueue(Message::Suspect(Suspect {
                        incarnation,
                        node: member.name.clone(),
                        from,
                    }));
                }
                // The record changes only at a higher incarnation; a
                // confirmation at the held one must not rewrite it.
                if incarnation > member.incarnation {
                    self.membership
                        .update_id(id, |m| m.incarnation = incarnation);
                }
            }
            MemberState::Alive => {
                self.start_suspicion(id, incarnation, from, now);
            }
        }
    }

    /// An `alive` claim about `node`, from gossip or a push-pull merge;
    /// the precedence rules for `alive` live here and nowhere else.
    /// `node` and `meta` are borrowed from whatever carried them (on
    /// the datagram path, the packet), and the name index is probed
    /// once.
    ///
    /// Allocation discipline: a *genuinely new* member costs one meta
    /// copy when it has metadata (membership records are long-lived, so
    /// a compact copy is stored, never a slice of a receive buffer), and
    /// its name when that is too long to be inline. An *accepted* update
    /// to a known member reuses the stored name and — when the metadata
    /// is unchanged, the steady-state case — the stored meta `Bytes`
    /// too, so it performs no allocation at all. Stale duplicates return
    /// without touching anything.
    fn apply_alive(
        &mut self,
        incarnation: Incarnation,
        node: &str,
        addr: NodeAddr,
        meta: &[u8],
        now: Time,
    ) {
        if node == self.name.as_str() {
            // Someone is echoing our own alive message, or a name
            // conflict. Nothing to do: our own incarnation is
            // authoritative.
            return;
        }
        let (id, member) = match self.membership.lookup(node) {
            Ok(found) => found,
            Err(vacant) => {
                self.admit_member(vacant, incarnation, node, addr, meta, now);
                return;
            }
        };
        // An alive message only overrides suspect/dead at a strictly
        // higher incarnation (SWIM §4.2).
        if incarnation <= member.incarnation {
            return;
        }
        let old_state = member.state;
        // Reuse the stored name/meta instead of copying the borrowed
        // ones.
        let name = member.name.clone();
        let meta = if member.meta.as_ref() == meta {
            member.meta.clone()
        } else {
            Bytes::copy_from_slice(meta)
        };
        let updated = self.membership.update_id(id, |m| {
            m.incarnation = incarnation;
            m.addr = addr;
            m.meta = meta.clone();
            m.set_state(MemberState::Alive, now);
        });
        debug_assert!(updated.is_some(), "member present");
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
    /// `alive`, into the broadcast queue. Returns its id.
    fn admit_member(
        &mut self,
        vacant: Vacant,
        incarnation: Incarnation,
        node: &str,
        addr: NodeAddr,
        meta: &[u8],
        now: Time,
    ) -> MemberId {
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
        id
    }

    /// A `dead` claim about the peer behind `id` — a failure declared
    /// by `from`, or a graceful leave when `from` names the peer itself
    /// — from gossip or a push-pull `Left` entry. The precedence rules
    /// for `dead` live here and nowhere else: a claim at a stale
    /// incarnation, or about a member already gone, changes nothing and
    /// touches no name. Returns whether the member's state changed.
    fn apply_dead(
        &mut self,
        incarnation: Incarnation,
        id: MemberId,
        from: &str,
        now: Time,
    ) -> bool {
        let Some(member) = self.membership.by_id(id) else {
            return false;
        };
        let gone = matches!(member.state, MemberState::Dead | MemberState::Left);
        if incarnation < member.incarnation || gone {
            return false;
        }
        let node = member.name.clone();
        let is_leave = from == node.as_str();
        let (from, state) = if is_leave {
            (node.clone(), MemberState::Left)
        } else {
            (self.membership.owned_name(from), MemberState::Dead)
        };
        let updated = self.membership.update_id(id, |m| {
            m.incarnation = incarnation;
            m.set_state(state, now);
        });
        debug_assert!(updated.is_some(), "member present");
        self.end_suspicion(id, now);
        self.outbox.broadcasts.enqueue(Message::Dead(Dead {
            incarnation,
            node: node.clone(),
            from: from.clone(),
        }));
        self.outbox.event(if is_leave {
            Event::MemberLeft { name: node }
        } else {
            Event::MemberFailed {
                name: node,
                incarnation,
                from,
            }
        });
        true
    }

    /// Marks the member behind `id` suspect and arms the (possibly
    /// dynamic) suspicion timer. `from` is the accuser (ourselves on
    /// probe failure). This changes state, so the names become owned
    /// here: the subject's is the stored one, the accuser's too when it
    /// is a known member — copies, or reference-count bumps for long
    /// names — and a fresh name only for an accuser this node has never
    /// seen.
    fn start_suspicion(&mut self, id: MemberId, incarnation: Incarnation, from: &str, now: Time) {
        let Some(member) = self.membership.by_id(id) else {
            return;
        };
        if !matches!(member.state, MemberState::Alive) {
            return;
        }
        let node = member.name.clone();
        let from = self.membership.owned_name(from);
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

    /// Merges a remote membership table (push-pull). Remote `dead` claims
    /// are downgraded to suspicions so the victim can refute (memberlist
    /// behaviour); `left` is authoritative.
    ///
    /// Each entry goes through the handler its claim would have reached
    /// as gossip — `apply_alive`, `apply_suspect`, `apply_dead` — so an
    /// entry that cannot survive the merge (stale incarnation, or a
    /// state the local record already supersedes) is dropped there,
    /// before any name/meta clone or message construction. In
    /// steady-state anti-entropy almost every entry is such a no-op, so
    /// the merge allocates only for actual changes.
    fn merge_remote_state(&mut self, states: &[PushNodeState], now: Time) {
        let me = self.name.clone();
        for st in states {
            match st.state {
                MemberState::Alive => {
                    self.apply_alive(st.incarnation, st.name.as_str(), st.addr, &st.meta, now);
                }
                MemberState::Suspect | MemberState::Dead => {
                    if st.name == self.name {
                        self.refute(st.incarnation, now);
                        continue;
                    }
                    // Learn the member first if unknown (a suspect entry
                    // still carries a usable address).
                    let id = match self.membership.lookup(st.name.as_str()) {
                        Ok((id, _)) => id,
                        Err(vacant) => {
                            let (name, meta) = (st.name.as_str(), &st.meta);
                            self.admit_member(vacant, st.incarnation, name, st.addr, meta, now)
                        }
                    };
                    self.apply_suspect(st.incarnation, id, me.as_str(), now);
                }
                MemberState::Left => {
                    if st.name == self.name {
                        self.accused(st.incarnation, now);
                    } else if let Some(id) = self.membership.id_of(&st.name) {
                        self.apply_dead(st.incarnation, id, st.name.as_str(), now);
                    }
                }
            }
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
            Timer::GossipTick | Timer::PushPullTick | Timer::Reconnect => self.fire_loop(timer, now),
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
                let cutoff = Time::ZERO + now.saturating_since(Time::ZERO + self.config.dead_reclaim);
                // O(retained dead): the reapable iterator walks the gone
                // pool only, never the whole table.
                let names: Vec<NodeName> = self
                    .membership
                    .reapable(cutoff)
                    .filter(|m| *m.name != self.name)
                    .map(|m| m.name.clone())
                    .collect();
                for name in &names {
                    self.membership.remove(name);
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
                let partner =
                    self.sync
                        .partner(&self.membership, &mut self.rng, &self.config, &self.name, now);
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
        // A target reaped while its probe was in flight is nobody's
        // suspect.
        let Ok((target_id, member)) = self.membership.lookup(target.as_str()) else {
            return;
        };
        let incarnation = member.incarnation;
        // Routed through the same path as gossiped suspicions: if the
        // target is already suspect, our failed probe is an independent
        // confirmation (and is re-gossiped under LHA-Suspicion).
        let me = self.name.clone();
        self.apply_suspect(incarnation, target_id, me.as_str(), now);
    }

    /// The suspicion deadline was reached: declare the failure, by the
    /// rule any `dead` claim goes through — ours, at the incarnation the
    /// suspicion holds. A fire always means the *current* deadline truly
    /// expired (see `Suspicions`); there is no re-arm path and no
    /// fire-time staleness check.
    fn suspicion_check(&mut self, id: MemberId, now: Time) {
        let Some(sus) = self.end_suspicion(id, now) else {
            debug_assert!(false, "stale suspicion timer reached its handler");
            return;
        };
        debug_assert!(now >= sus.deadline(), "suspicion timer fired before its deadline");
        let me = self.name.clone();
        if self.apply_dead(sus.incarnation(), id, me.as_str(), now) {
            self.metrics.failures_declared += 1;
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
            let steps = now.saturating_since(next).as_micros().div_ceil(every.as_micros().max(1));
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
        let request = self.sync.request(peer, &self.membership, &self.config, &self.name, now);
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
        let reply = self.sync.receive(d, &self.membership, &self.config, &self.name, now);
        self.merge_remote_state(&d.entries, now);
        match reply {
            DeltaReply::Delta(msg) => self.send_sync(from_addr, msg),
            DeltaReply::FullResync => self.send_sync(from_addr, sync::full_request(&self.membership)),
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
