//! Blocked message I/O (anomaly injection, paper §V-D: members "block
//! immediately before sending or after receiving any protocol
//! message").
//!
//! While blocked, the node's logic and wall-clock deadlines keep
//! running, but each protocol loop (gossip, push-pull, reconnect)
//! executes at most one more iteration — the one stuck at its blocked
//! send — and the deadlines of the probe in flight and of relayed
//! probes are postponed. [`BlockedIo`] owns that bookkeeping: a timer
//! it defers is consumed from the wheel and lives here, under its
//! original deadline, until [`BlockedIo::release`] re-injects it.

use crate::node::Timer;
use crate::prober::Prober;
use crate::time::Time;
use crate::timer_wheel::TimerWheel;

/// A timer that came due while message I/O was blocked and is re-fired
/// through the wheel at unblock, keyed by its original deadline.
#[derive(Clone, Copy, Debug)]
struct DeferredTimer {
    at: Time,
    timer: Timer,
}

/// Whether message I/O is blocked, and what waits for the unblock.
#[derive(Debug, Default)]
pub(crate) struct BlockedIo {
    blocked: bool,
    /// Loop timers that already executed their one blocked iteration.
    stuck_gossip: bool,
    stuck_push_pull: bool,
    stuck_reconnect: bool,
    /// Timers that came due while blocked and must re-fire on unblock,
    /// in original due order.
    // bounded: ≤ the live timer count — each deferred entry consumed a scheduled timer, and loop timers defer at most once (stuck_* flags)
    deferred: Vec<DeferredTimer>,
}

impl BlockedIo {
    pub(crate) fn is_blocked(&self) -> bool {
        self.blocked
    }

    /// Sets the blocked state; returns whether it changed.
    pub(crate) fn set(&mut self, blocked: bool) -> bool {
        let changed = blocked != self.blocked;
        self.blocked = blocked;
        changed
    }

    /// Takes a timer that fired (at deadline `at`) while blocked, if it
    /// is one whose evaluation must wait. The probe in flight when the
    /// block hit is evaluated when the loop unblocks: its deadlines
    /// were computed before the block, so the late evaluation fails the
    /// probe exactly as a real blocked agent does.
    ///
    /// Everything else runs on time. `ProbeRound` with a probe already
    /// in flight is a no-op (the loop is busy), which models the
    /// dropped ticker fires; the gossip / push-pull / reconnect loops
    /// limit themselves through [`BlockedIo::loop_is_stuck`]; suspicion
    /// expiry and reaping are pure local state + logging.
    pub(crate) fn defer(&mut self, at: Time, timer: Timer) -> bool {
        let waits = self.blocked
            && matches!(
                timer,
                Timer::ProbeTimeout { .. }
                    | Timer::ProbeRoundEnd { .. }
                    | Timer::RelayNack { .. }
                    | Timer::RelayExpire { .. }
            );
        if waits {
            self.deferred.push(DeferredTimer { at, timer });
        }
        waits
    }

    /// Whether the loop behind `timer` has to sit this fire out. These
    /// loops are single threads in memberlist, so while I/O is blocked
    /// only the iteration that blocks mid-send executes (the runtime
    /// captures its sends); the ticks that follow are dropped like
    /// missed ticker fires.
    pub(crate) fn loop_is_stuck(&mut self, timer: Timer) -> bool {
        let stuck = match timer {
            Timer::GossipTick => &mut self.stuck_gossip,
            Timer::PushPullTick => &mut self.stuck_push_pull,
            _ => &mut self.stuck_reconnect,
        };
        self.blocked && std::mem::replace(stuck, true)
    }

    /// Unblocked: frees the loops and re-injects the postponed timers
    /// into the wheel at their *original* deadlines, telling `prober`
    /// the new keys. The caller then drains everything due, so the
    /// catch-up interleaves them with timers armed while blocked in
    /// global (deadline, insertion) order — the stuck probe fails and
    /// raises a suspicion exactly like a real agent resuming after an
    /// anomaly, and nothing fires out of order relative to it.
    pub(crate) fn release(&mut self, timers: &mut TimerWheel<Timer>, prober: &mut Prober) {
        self.stuck_gossip = false;
        self.stuck_push_pull = false;
        self.stuck_reconnect = false;
        let mut deferred = std::mem::take(&mut self.deferred);
        // Stable by original deadline: exact ties keep deferral
        // (i.e. original firing) order — the deterministic tiebreak.
        deferred.sort_by_key(|d| d.at);
        for DeferredTimer { at, timer } in deferred {
            prober.repoint(timer, timers.schedule(at, timer));
        }
    }

    /// Drops `timer` if it is waiting here: the state it belongs to was
    /// consumed while I/O was blocked, so the unblock must not re-fire
    /// it.
    pub(crate) fn cancel(&mut self, timer: Timer) {
        self.deferred.retain(|d| d.timer != timer);
    }

    /// Whether `timer` is waiting here for the unblock.
    pub(crate) fn holds(&self, timer: Timer) -> bool {
        self.deferred.iter().any(|d| d.timer == timer)
    }

    /// The timers waiting here for the unblock.
    pub(crate) fn deferred(&self) -> impl Iterator<Item = Timer> + '_ {
        self.deferred.iter().map(|d| d.timer)
    }
}
