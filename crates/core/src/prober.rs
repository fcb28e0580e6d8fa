//! The failure detector's probe state: the round-robin rotation, the
//! one probe this node has in flight, and the indirect probes it is
//! relaying for others (SWIM §III-A, LHA-Probe's nacks in paper §IV-A).
//!
//! [`Prober`] owns the no-stale-fire rule for its timers. Every
//! `ProbeTimeout`, `ProbeRoundEnd` and `RelayNack` it arms is held by
//! key in the state it belongs to and truly cancelled when that state
//! is consumed, so a fire always finds its state; a timer deferred
//! while I/O is blocked is dropped from [`BlockedIo`] when an ack
//! consumes its state, and when blocked I/O re-injects one under a new
//! key, [`Prober::repoint`] is where the owning state learns it.

use std::collections::HashMap;
use std::time::Duration;

use lifeguard_proto::{NodeAddr, NodeName, SeqNo};
use rand::rngs::StdRng;

use crate::blocked_io::BlockedIo;
use crate::membership::{MemberId, Membership};
use crate::node::Timer;
use crate::probe_list::ProbeList;
use crate::time::Time;
use crate::timer_wheel::{TimerKey, TimerWheel};

/// Members enlisted for indirect probes when a direct probe times out
/// (SWIM's `k`; memberlist LAN: 3).
pub(crate) const INDIRECT_CHECKS: usize = 3;

/// Share of the probe timeout after which an enlisted helper whose
/// target is still silent sends the origin a `nack` (paper §IV-A: 80 %).
pub(crate) const NACK_FRACTION: f64 = 0.8;

/// State of the probe the local node currently has in flight.
#[derive(Clone, Debug)]
struct ProbeState {
    seq: SeqNo,
    target: NodeName,
    target_addr: NodeAddr,
    expected_nacks: u32,
    nacks_received: u32,
    /// When the direct ping left, for the probe-RTT histogram.
    started: Time,
    round_end: Time,
    /// Handle of the armed `ProbeTimeout`; cancelled when an ack
    /// completes the round, so the timer cannot fire stale.
    timeout_timer: TimerKey,
    /// Handle of the armed `ProbeRoundEnd`; cancelled on a timely ack.
    round_end_timer: TimerKey,
}

/// State kept while relaying an indirect probe for another node.
#[derive(Clone, Debug)]
struct RelayState {
    origin_seq: SeqNo,
    origin_addr: NodeAddr,
    acked: bool,
    /// Armed `RelayNack` handle (only when the origin asked for nacks);
    /// cancelled the moment the target's ack arrives.
    nack_timer: Option<TimerKey>,
}

/// What an ack turned out to answer.
#[derive(Debug)]
pub(crate) enum Acked {
    /// The probe in flight, in time: the round is over, after this
    /// round-trip time.
    Probe(Duration),
    /// A relayed probe: its origin (at the address) is owed an ack of
    /// its own sequence number.
    Relay(SeqNo, NodeAddr),
    /// Nothing outstanding (or the probe in flight, too late: the round
    /// fails at its end).
    Nothing,
}

/// Probe rotation, in-flight probe and relays of one node.
#[derive(Debug, Default)]
pub(crate) struct Prober {
    rotation: ProbeList,
    in_flight: Option<ProbeState>,
    // bounded: one entry per in-flight relayed indirect probe, each removed when its expiry timer fires
    relays: HashMap<SeqNo, RelayState>,
    seq: SeqNo,
}

impl Prober {
    fn next_seq(&mut self) -> SeqNo {
        self.seq = self.seq.next();
        self.seq
    }

    /// Adds a newly learned member to the rotation at a random position.
    pub(crate) fn admit(&mut self, id: MemberId, rng: &mut StdRng) {
        self.rotation.insert(id, rng);
    }

    /// Blanks the rotation entries of members just removed from
    /// `membership`, before their slots can be reused.
    pub(crate) fn forget_removed(&mut self, membership: &Membership) {
        self.rotation.forget_removed(membership);
    }

    /// Bulk [`Prober::admit`] with one shuffle (cluster bootstrap).
    pub(crate) fn admit_all(&mut self, ids: Vec<MemberId>, rng: &mut StdRng) {
        self.rotation.extend_shuffled(ids, rng);
    }

    /// Starts one failure-detector round unless the previous one is
    /// still in flight (possible after the interval shrank when the LHM
    /// recovered) or nobody is eligible: picks the next live target
    /// other than `me`, arms the round's two deadlines (`timeout` and
    /// `interval` from `now`) and returns whom to ping under which
    /// sequence number.
    pub(crate) fn start_round(
        &mut self,
        membership: &Membership,
        rng: &mut StdRng,
        timers: &mut TimerWheel<Timer>,
        me: &NodeName,
        now: Time,
        (timeout, interval): (Duration, Duration),
    ) -> Option<(SeqNo, MemberId, NodeName, NodeAddr)> {
        if self.in_flight.is_some() {
            return None;
        }
        let (id, member) = self
            .rotation
            .next_target(membership, rng, |m| m.name != me && m.is_live())?;
        let (target, addr) = (member.name.clone(), member.addr);
        let seq = self.next_seq();
        let timeout_timer = timers.schedule(now + timeout, Timer::ProbeTimeout { seq });
        let round_end_timer = timers.schedule(now + interval, Timer::ProbeRoundEnd { seq });
        self.in_flight = Some(ProbeState {
            seq,
            target: target.clone(),
            target_addr: addr,
            expected_nacks: 0,
            nacks_received: 0,
            started: now,
            round_end: now + interval,
            timeout_timer,
            round_end_timer,
        });
        Some((seq, id, target, addr))
    }

    /// `ProbeTimeout` fired: the target of the probe in flight, for the
    /// indirect probes. Generation-keyed cancellation (a timely ack
    /// unschedules the timer) makes a stale fire impossible; assert
    /// instead of guard.
    pub(crate) fn timed_out(&self, seq: SeqNo) -> Option<(NodeName, NodeAddr)> {
        let Some(p) = &self.in_flight else {
            debug_assert!(false, "probe timeout fired with no probe in flight");
            return None;
        };
        debug_assert_eq!(p.seq, seq, "stale probe timeout reached its handler");
        Some((p.target.clone(), p.target_addr))
    }

    /// Records how many nack-capable relays the probe in flight went to.
    pub(crate) fn expect_nacks(&mut self, relays: u32) {
        if let Some(p) = &mut self.in_flight {
            p.expected_nacks = relays;
        }
    }

    /// `ProbeRoundEnd` fired: a timely ack clears the probe, so the one
    /// still in flight failed. Returns its target and, when nack-capable
    /// relays were asked, how many of their nacks went missing.
    pub(crate) fn round_end(
        &mut self,
        seq: SeqNo,
        timers: &mut TimerWheel<Timer>,
    ) -> Option<(NodeName, Option<u32>)> {
        let Some(p) = self.in_flight.take() else {
            debug_assert!(false, "probe round end fired with no probe in flight");
            return None;
        };
        debug_assert_eq!(p.seq, seq, "stale probe round end reached its handler");
        // Unschedule the timeout in case it has not fired yet (possible
        // only when the timeout is configured beyond the interval).
        timers.cancel(p.timeout_timer);
        let missed =
            (p.expected_nacks > 0).then(|| p.expected_nacks.saturating_sub(p.nacks_received));
        Some((p.target, missed))
    }

    /// An ack for `seq` arrived at `now`.
    pub(crate) fn ack(
        &mut self,
        seq: SeqNo,
        now: Time,
        timers: &mut TimerWheel<Timer>,
        blocked: &mut BlockedIo,
    ) -> Acked {
        // Our own outstanding probe? A timely ack completes the round
        // immediately (memberlist's probeNode returns on the first ack);
        // a stale ack is ignored and the round fails at its end.
        if let Some(p) = self.in_flight.take_if(|p| p.seq == seq && now <= p.round_end) {
            // True cancellation: the round's remaining deadlines are
            // unscheduled, not left to fire stale — including one that
            // came due while I/O was blocked and waits for the unblock.
            timers.cancel(p.timeout_timer);
            timers.cancel(p.round_end_timer);
            blocked.cancel(Timer::ProbeTimeout { seq });
            blocked.cancel(Timer::ProbeRoundEnd { seq });
            return Acked::Probe(now.saturating_since(p.started));
        }
        if self.in_flight.as_ref().is_some_and(|p| p.seq == seq) {
            return Acked::Nothing;
        }
        // An indirect probe we are relaying: forward to the origin. The
        // ack is forwarded even after a nack was sent (paper footnote 5).
        match self.relays.get_mut(&seq) {
            Some(relay) if !relay.acked => {
                relay.acked = true;
                if let Some(key) = relay.nack_timer.take() {
                    timers.cancel(key);
                    blocked.cancel(Timer::RelayNack { seq });
                }
                Acked::Relay(relay.origin_seq, relay.origin_addr)
            }
            _ => Acked::Nothing,
        }
    }

    pub(crate) fn nack(&mut self, seq: SeqNo) {
        if let Some(p) = &mut self.in_flight {
            if p.seq == seq {
                p.nacks_received += 1;
            }
        }
    }

    /// Takes on an indirect probe for `origin_addr`: arms the nack (if
    /// the origin asked for one) and the expiry, and returns the
    /// sequence number to ping the target under.
    pub(crate) fn relay(
        &mut self,
        (origin_seq, origin_addr): (SeqNo, NodeAddr),
        nack_at: Option<Time>,
        expires: Time,
        timers: &mut TimerWheel<Timer>,
    ) -> SeqNo {
        let seq = self.next_seq();
        let nack_timer = nack_at.map(|at| timers.schedule(at, Timer::RelayNack { seq }));
        timers.schedule(expires, Timer::RelayExpire { seq });
        self.relays.insert(
            seq,
            RelayState {
                origin_seq,
                origin_addr,
                acked: false,
                nack_timer,
            },
        );
        seq
    }

    /// `RelayNack` fired: whom to send a nack of which probe. An ack
    /// (or the relay's expiry) cancels the timer, so a fire always
    /// means the target is still silent — no fire-time staleness check
    /// is needed.
    pub(crate) fn relay_nack(&mut self, seq: SeqNo) -> Option<(SeqNo, NodeAddr)> {
        let relay = self.relays.get_mut(&seq);
        debug_assert!(relay.is_some(), "stale relay-nack timer reached its handler");
        let relay = relay?;
        debug_assert!(!relay.acked, "nack timer outlived the target's ack");
        relay.nack_timer = None;
        Some((relay.origin_seq, relay.origin_addr))
    }

    /// `RelayExpire` fired: forget the relay.
    pub(crate) fn relay_expire(&mut self, seq: SeqNo, timers: &mut TimerWheel<Timer>) {
        let relay = self.relays.remove(&seq);
        debug_assert!(relay.is_some(), "stale relay-expire timer reached its handler");
        if let Some(key) = relay.and_then(|r| r.nack_timer) {
            // Pathological configs can place the nack after the expiry;
            // drop it with the relay state.
            timers.cancel(key);
        }
    }

    /// A deferred `timer` was re-injected into the wheel under `key`:
    /// re-point the state that owns it, so cancellation (a handler
    /// consuming the probe, a relay expiring) still truly unschedules
    /// it — the no-stale-fire invariant must hold through the refire
    /// path too.
    pub(crate) fn repoint(&mut self, timer: Timer, key: TimerKey) {
        match timer {
            Timer::ProbeTimeout { seq } => {
                if let Some(p) = self.in_flight.as_mut().filter(|p| p.seq == seq) {
                    p.timeout_timer = key;
                }
            }
            Timer::ProbeRoundEnd { seq } => {
                if let Some(p) = self.in_flight.as_mut().filter(|p| p.seq == seq) {
                    p.round_end_timer = key;
                }
            }
            Timer::RelayNack { seq } => {
                if let Some(relay) = self.relays.get_mut(&seq) {
                    relay.nack_timer = Some(key);
                }
            }
            _ => {}
        }
    }

    /// The rotation holds every live member other than `me` exactly
    /// once; the round end of a probe in flight and every relay's nack
    /// are armed in `timers` or deferred in `blocked`, never both, and
    /// a probe timeout not both (once fired it is neither); and every
    /// deferred probe deadline or nack belongs to state still held.
    pub(crate) fn check_invariants(
        &self,
        membership: &Membership,
        me: &NodeName,
        timers: &TimerWheel<Timer>,
        blocked: &BlockedIo,
    ) {
        self.rotation.check_invariants(membership, me);
        let armed = |key: TimerKey| timers.deadline_of(key).is_some();
        let armed_xor_deferred = |key: TimerKey, timer: Timer| {
            assert!(armed(key) != blocked.holds(timer), "{timer:?} not armed xor deferred");
        };
        if let Some(p) = &self.in_flight {
            armed_xor_deferred(p.round_end_timer, Timer::ProbeRoundEnd { seq: p.seq });
            let timeout = Timer::ProbeTimeout { seq: p.seq };
            assert!(
                !(armed(p.timeout_timer) && blocked.holds(timeout)),
                "{timeout:?} both armed and deferred"
            );
        }
        for (&seq, relay) in &self.relays {
            if let Some(key) = relay.nack_timer {
                armed_xor_deferred(key, Timer::RelayNack { seq });
            }
        }
        let in_flight = self.in_flight.as_ref().map(|p| p.seq);
        for timer in blocked.deferred() {
            let owned = match timer {
                Timer::ProbeTimeout { seq } | Timer::ProbeRoundEnd { seq } => {
                    in_flight == Some(seq)
                }
                Timer::RelayNack { seq } => {
                    self.relays.get(&seq).is_some_and(|r| r.nack_timer.is_some())
                }
                _ => true,
            };
            assert!(owned, "{timer:?} deferred for state already consumed");
        }
    }
}
