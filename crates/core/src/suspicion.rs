//! Suspicion timers (LHA-Suspicion).
//!
//! A suspicion starts with a timeout of `Max` and decays toward `Min` as
//! *independent* suspicions about the same member arrive (paper §IV-B):
//!
//! ```text
//! SuspicionTimeout = max(Min, Max − (Max − Min)·log(C + 1)/log(K + 1))
//! ```
//!
//! where `C` is the number of independent confirmations processed and `K`
//! is the number required to reach `Min`. With `K = 0` (plain SWIM) the
//! timeout is fixed at `Min` (`Min == Max` in that configuration).

use std::collections::HashMap;
use std::time::Duration;

use lifeguard_metrics::Histogram;
use lifeguard_proto::{Incarnation, MemberState, Message, NodeName, Suspect};

use crate::membership::{MemberId, Membership};
use crate::node::Timer;
use crate::time::Time;
use crate::timer_wheel::{TimerKey, TimerWheel};

/// Independent confirmations that drive a suspicion timeout down to
/// `Min` under LHA-Suspicion: the paper's `K = 3` (§IV-B). It also
/// bounds how many confirmations are re-gossiped.
pub const CONFIRMATIONS: u32 = 3;

/// State of one active suspicion held by the local node.
#[derive(Clone, Debug)]
pub struct Suspicion {
    /// Incarnation of the member the suspicion applies to.
    incarnation: Incarnation,
    /// Distinct members whose suspicions we have processed (the original
    /// accuser counts as the first), told apart by name content. At
    /// most k+1 names (k ≤ [`CONFIRMATIONS`]), so a scan beats hashing.
    // bounded: `confirm` stops pushing once k+1 confirmers are recorded (further names no longer change the timeout)
    confirmers: Vec<NodeName>,
    k: u32,
    min: Duration,
    max: Duration,
    start: Time,
}

impl Suspicion {
    /// Starts a suspicion raised by `from` at time `now`.
    ///
    /// `k` is the number of *further* independent suspicions needed to
    /// drive the timeout to `min`; `from` itself is recorded but does not
    /// count toward `k` (it is confirmation number zero).
    pub fn new(
        incarnation: Incarnation,
        from: NodeName,
        k: u32,
        min: Duration,
        max: Duration,
        now: Time,
    ) -> Self {
        Suspicion {
            incarnation,
            confirmers: vec![from],
            k,
            min,
            max,
            start: now,
        }
    }

    /// The incarnation under suspicion.
    pub fn incarnation(&self) -> Incarnation {
        self.incarnation
    }

    /// Number of independent confirmations processed so far, *excluding*
    /// the original accuser (the paper's `C`).
    pub fn confirmation_count(&self) -> u32 {
        (self.confirmers.len() as u32).saturating_sub(1)
    }

    /// When the suspicion started.
    pub fn started_at(&self) -> Time {
        self.start
    }

    /// Records an independent suspicion from `from`.
    ///
    /// Returns `true` when this is a *new* confirmer and the re-gossip
    /// budget (`K`) has not been exhausted — the caller should then
    /// re-gossip the suspect message (paper §IV-B: "the first K
    /// independent suspicions received about the same member are
    /// re-gossiped").
    pub fn confirm(&mut self, from: NodeName) -> bool {
        let admitted = self.admits(from.as_str());
        if admitted {
            self.confirmers.push(from);
        }
        admitted
    }

    /// Whether [`Suspicion::confirm`] would return `true` for `from`.
    /// Lets a caller holding only a borrowed name make the owned one
    /// just for an accuser that counts.
    pub fn admits(&self, from: &str) -> bool {
        self.confirmation_count() < self.k && self.confirmers.iter().all(|c| c.as_str() != from)
    }

    /// Raises the tracked incarnation (a fresh suspect message about a
    /// higher incarnation restarts precedence but keeps the timer).
    pub fn observe_incarnation(&mut self, incarnation: Incarnation) {
        if incarnation > self.incarnation {
            self.incarnation = incarnation;
        }
    }

    /// The current timeout duration given the confirmations so far.
    pub fn timeout(&self) -> Duration {
        suspicion_timeout(self.confirmation_count(), self.k, self.min, self.max)
    }

    /// The absolute deadline at which the suspicion becomes a failure
    /// declaration.
    pub fn deadline(&self) -> Time {
        self.start + self.timeout()
    }
}

/// The paper's timeout formula for `c` confirmations out of `k`, clamped
/// to `[min, max]`.
///
/// ```
/// use lifeguard_core::suspicion::suspicion_timeout;
/// use std::time::Duration;
///
/// let min = Duration::from_secs(10);
/// let max = Duration::from_secs(60);
/// assert_eq!(suspicion_timeout(0, 3, min, max), max);
/// assert_eq!(suspicion_timeout(3, 3, min, max), min);
/// assert!(suspicion_timeout(1, 3, min, max) < max);
/// ```
pub fn suspicion_timeout(c: u32, k: u32, min: Duration, max: Duration) -> Duration {
    if k == 0 || min >= max {
        return min;
    }
    let frac = ((c as f64) + 1.0).ln() / ((k as f64) + 1.0).ln();
    let span = max.as_secs_f64() - min.as_secs_f64();
    let t = max.as_secs_f64() - span * frac;
    let clamped = t.max(min.as_secs_f64());
    Duration::from_secs_f64(clamped)
}

/// A suspicion the local node currently holds, paired with the wheel
/// handle of its single `SuspicionCheck` timer.
#[derive(Debug)]
struct Active {
    sus: Suspicion,
    timer: TimerKey,
}

/// The suspicions the local node holds, one per `Suspect` member.
///
/// Owns the one-timer rule: each entry has exactly one armed
/// `SuspicionCheck`. Lifeguard's timeout shrinking reschedules that
/// timer in place and every way a suspicion ends goes through
/// [`Suspicions::end`], which cancels it — so there is never a stale
/// deadline in flight and a fire always means the *current* deadline
/// truly expired.
#[derive(Debug, Default)]
pub(crate) struct Suspicions {
    // bounded: one active suspicion per suspect member, cleared on confirm/refute/death — ≤ cluster size
    table: HashMap<MemberId, Active>,
}

impl Suspicions {
    /// Starts holding `sus` about `id` and arms its expiry.
    pub(crate) fn raise(&mut self, id: MemberId, sus: Suspicion, timers: &mut TimerWheel<Timer>) {
        let timer = timers.schedule(sus.deadline(), Timer::SuspicionCheck { id });
        self.table.insert(id, Active { sus, timer });
    }

    /// A further suspicion about `id`, at `incarnation`, from `from` —
    /// the accuser's name as the caller holds it (packet bytes on the
    /// datagram path). `None` when no suspicion about `id` is held.
    /// Otherwise the inner value is the accuser's owned name when it is
    /// one of the first K new confirmers, which LHA-Suspicion
    /// re-gossips (paper §IV-B); a repeat confirmation touches no name
    /// and allocates nothing. Either way the expiry is re-armed in place
    /// — at the shrunk deadline after a new confirmation, at the one
    /// already armed otherwise, since the timeout only moves with the
    /// count — and the superseded deadline can never fire. The re-arm
    /// takes a fresh insertion sequence either way, which orders timers
    /// that share an instant.
    pub(crate) fn confirm(
        &mut self,
        id: MemberId,
        incarnation: Incarnation,
        from: &str,
        membership: &Membership,
        timers: &mut TimerWheel<Timer>,
    ) -> Option<Option<NodeName>> {
        let active = self.table.get_mut(&id)?;
        active.sus.observe_incarnation(incarnation);
        let admitted = active.sus.admits(from).then(|| {
            let from = membership.owned_name(from);
            active.sus.confirm(from.clone());
            from
        });
        let deadline = match admitted {
            Some(_) => Some(active.sus.deadline()),
            None => timers.deadline_of(active.timer),
        };
        match deadline.and_then(|at| timers.reschedule(active.timer, at)) {
            Some(key) => active.timer = key,
            None => debug_assert!(false, "active suspicion lost its timer"),
        }
        Some(admitted)
    }

    /// Ends the suspicion about `id`, however it resolved — refuted,
    /// superseded by a death or leave, or expired: the entry goes, its
    /// timer is truly cancelled (a no-op when the expiry itself is what
    /// fired) and its lifetime is recorded.
    pub(crate) fn end(
        &mut self,
        id: MemberId,
        now: Time,
        timers: &mut TimerWheel<Timer>,
        lifetimes: &mut Histogram,
    ) -> Option<Suspicion> {
        let Active { sus, timer } = self.table.remove(&id)?;
        timers.cancel(timer);
        lifetimes.record_duration(now.saturating_since(sus.started_at()));
        Some(sus)
    }

    /// The Buddy System's payload (paper §IV-C): when `id` is
    /// suspected, the suspect message to put first in a ping to it, so
    /// its refutation starts immediately.
    pub(crate) fn buddy(
        &self,
        id: MemberId,
        membership: &Membership,
        me: &NodeName,
    ) -> Option<Message> {
        let (active, member) = (self.table.get(&id)?, membership.by_id(id)?);
        Some(Message::Suspect(Suspect {
            incarnation: active.sus.incarnation(),
            node: member.name.clone(),
            from: me.clone(),
        }))
    }

    /// `Suspect` members and entries are one-to-one, and every entry's
    /// expiry is armed.
    pub(crate) fn check_invariants(&self, membership: &Membership, timers: &TimerWheel<Timer>) {
        for (&id, active) in &self.table {
            let state = membership.by_id(id).map(|m| m.state);
            assert_eq!(state, Some(MemberState::Suspect), "suspicion about {id:?}");
            assert!(
                timers.deadline_of(active.timer).is_some(),
                "suspicion about {id:?} has no armed expiry"
            );
        }
        let suspects = membership
            .iter()
            .filter(|m| m.state == MemberState::Suspect);
        assert_eq!(suspects.count(), self.table.len(), "a suspect without a suspicion");
    }

    /// Confirmation counts of the held suspicions (test introspection).
    #[cfg(test)]
    pub(crate) fn confirmation_counts(&self) -> Vec<u32> {
        self.table
            .values()
            .map(|active| active.sus.confirmation_count())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIN: Duration = Duration::from_secs(10);
    const MAX: Duration = Duration::from_secs(60);

    #[test]
    fn timeout_starts_at_max_and_ends_at_min() {
        assert_eq!(suspicion_timeout(0, 3, MIN, MAX), MAX);
        assert_eq!(suspicion_timeout(3, 3, MIN, MAX), MIN);
        // Beyond k clamps to min.
        assert_eq!(suspicion_timeout(10, 3, MIN, MAX), MIN);
    }

    #[test]
    fn timeout_decays_logarithmically() {
        // Each successive confirmation shrinks the timeout by less.
        let t0 = suspicion_timeout(0, 3, MIN, MAX);
        let t1 = suspicion_timeout(1, 3, MIN, MAX);
        let t2 = suspicion_timeout(2, 3, MIN, MAX);
        let t3 = suspicion_timeout(3, 3, MIN, MAX);
        let d1 = t0 - t1;
        let d2 = t1 - t2;
        let d3 = t2 - t3;
        assert!(d1 > d2, "{d1:?} vs {d2:?}");
        assert!(d2 > d3, "{d2:?} vs {d3:?}");
    }

    #[test]
    fn timeout_hand_computed_value() {
        // C=1, K=3: max - (max-min)·ln(2)/ln(4) = 60 - 50·0.5 = 35 s.
        let t = suspicion_timeout(1, 3, MIN, MAX);
        assert!((t.as_secs_f64() - 35.0).abs() < 1e-9, "{t:?}");
    }

    #[test]
    fn k_zero_means_fixed_min() {
        assert_eq!(suspicion_timeout(0, 0, MIN, MAX), MIN);
        assert_eq!(suspicion_timeout(5, 0, MIN, MAX), MIN);
    }

    #[test]
    fn degenerate_min_equals_max() {
        assert_eq!(suspicion_timeout(0, 3, MIN, MIN), MIN);
    }

    #[test]
    fn confirm_counts_distinct_members_only() {
        let mut s = Suspicion::new(Incarnation(1), "a".into(), 3, MIN, MAX, Time::ZERO);
        assert_eq!(s.confirmation_count(), 0);
        // Original accuser never counts as a confirmation.
        assert!(!s.confirm("a".into()));
        assert_eq!(s.confirmation_count(), 0);

        assert!(s.confirm("b".into()));
        assert!(!s.confirm("b".into()), "duplicate must not re-gossip");
        assert_eq!(s.confirmation_count(), 1);

        assert!(s.confirm("c".into()));
        assert!(s.confirm("d".into()));
        assert_eq!(s.confirmation_count(), 3);
        // Budget exhausted.
        assert!(!s.confirm("e".into()));
        assert_eq!(s.confirmation_count(), 3);
    }

    /// The confirmer set, whatever holds it: the original accuser is
    /// confirmation zero, a name counts once however often and in
    /// whatever allocation it arrives, insertion stops at k+1 names, and
    /// `confirm` is `true` exactly for the first k new names.
    #[test]
    fn confirmer_set_semantics_are_pinned() {
        for k in [1u32, 3, 6] {
            let mut s = Suspicion::new(Incarnation(1), "origin".into(), k, MIN, MAX, Time::ZERO);
            assert_eq!(
                s.confirmation_count(),
                0,
                "the accuser is confirmation zero"
            );
            assert!(!s.admits("origin"));
            assert!(!s.confirm("origin".into()));
            assert_eq!(s.confirmation_count(), 0);
            let mut regossiped = 0;
            for i in 0..2 * k {
                let name = format!("wire-only-{i}");
                assert_eq!(s.admits(&name), i < k);
                // Two separately allocated copies of one name: the second
                // is the same accuser again.
                regossiped += u32::from(s.confirm(name.as_str().into()));
                assert!(!s.admits(&name));
                assert!(
                    !s.confirm(name.as_str().into()),
                    "same accuser twice counts once"
                );
                assert_eq!(s.confirmation_count(), (i + 1).min(k));
            }
            assert_eq!(regossiped, k, "true exactly for the first k new names");
            assert_eq!(s.confirmers.len() as u32, k + 1, "insertion stops at k+1");
        }
    }

    #[test]
    fn deadline_moves_earlier_with_confirmations() {
        let mut s = Suspicion::new(Incarnation(1), "a".into(), 3, MIN, MAX, Time::from_secs(100));
        let d0 = s.deadline();
        s.confirm("b".into());
        let d1 = s.deadline();
        assert!(d1 < d0);
        s.confirm("c".into());
        s.confirm("d".into());
        assert_eq!(s.deadline(), Time::from_secs(110)); // start + min
    }

    /// The expiry a held suspicion has armed: it moves earlier with each
    /// of the first K new accusers, lands on `start + min` with the K-th,
    /// and a repeat accuser leaves it where it is.
    #[test]
    fn only_new_accusers_move_the_armed_deadline() {
        let mut membership = Membership::new();
        let addr = lifeguard_proto::NodeAddr::new([10, 0, 0, 1], 7946);
        membership.upsert(crate::member::Member::new(
            "x".into(),
            addr,
            Incarnation(1),
            Time::ZERO,
        ));
        let id = membership.id_of(&"x".into()).unwrap();
        let mut timers = TimerWheel::new();
        let mut held = Suspicions::default();
        let start = Time::from_secs(100);
        let sus = Suspicion::new(Incarnation(1), "a".into(), 3, MIN, MAX, start);
        held.raise(id, sus, &mut timers);
        let armed = |held: &Suspicions, timers: &TimerWheel<Timer>| {
            timers.deadline_of(held.table[&id].timer).unwrap()
        };
        assert_eq!(armed(&held, &timers), start + MAX);

        let mut before = armed(&held, &timers);
        for from in ["a", "b", "a", "c", "b", "d"] {
            let admitted = held.confirm(id, Incarnation(1), from, &membership, &mut timers);
            let now = armed(&held, &timers);
            match admitted {
                Some(Some(name)) => {
                    assert_eq!(name.as_str(), from);
                    assert!(now < before, "{from} is new: the deadline moves earlier");
                }
                Some(None) => assert_eq!(now, before, "{from} again: the deadline stays"),
                None => panic!("the suspicion is held"),
            }
            before = now;
        }
        assert_eq!(
            before,
            start + MIN,
            "the K-th new accuser reaches the floor"
        );
        let admitted = held.confirm(id, Incarnation(1), "e", &membership, &mut timers);
        assert_eq!(admitted, Some(None), "past K nobody is admitted");
        assert_eq!(armed(&held, &timers), start + MIN);
    }

    #[test]
    fn observe_incarnation_only_raises() {
        let mut s = Suspicion::new(Incarnation(5), "a".into(), 3, MIN, MAX, Time::ZERO);
        s.observe_incarnation(Incarnation(3));
        assert_eq!(s.incarnation(), Incarnation(5));
        s.observe_incarnation(Incarnation(9));
        assert_eq!(s.incarnation(), Incarnation(9));
    }

    #[test]
    fn swim_config_has_fixed_deadline() {
        let mut s = Suspicion::new(Incarnation(1), "a".into(), 0, MIN, MIN, Time::ZERO);
        let d0 = s.deadline();
        assert!(!s.confirm("b".into()));
        assert_eq!(s.deadline(), d0);
        assert_eq!(d0, Time::ZERO + MIN);
    }
}
