//! Timer queue: an indexed binary min-heap with generation-keyed
//! cancellation.
//!
//! [`TimerWheel`] is the one time-ordered structure in the workspace: the
//! protocol core's timers ([`crate::node::SwimNode`]) and the simulator's
//! event queue both run on it, so node and runtime agree on firing
//! semantics to the microsecond. The name is historical — it was a
//! hierarchical wheel once, and the benchmark pins the path.
//!
//! # Shape and costs
//!
//! A slab of `{gen, pos, payload}` slots plus one `Vec` of
//! `{deadline, seq, idx}` heap entries ordered by `(deadline, seq)`:
//! exact microsecond deadlines, insertion order among equal ones, and a
//! deadline already in the past simply sorts first. Every move inside
//! the heap records the new position in `slot.pos`, so a key reaches its
//! entry without a search: [`TimerWheel::next_deadline`] is O(1) and
//! every other operation O(log n) in the *live* timers.
//!
//! A heap is enough because n is small wherever this runs. Measured on
//! the benchmark's workloads, a node never holds more than 7 timers
//! among 2 000 quiet members (6 once its first gossip tick finds
//! nothing to send and the loop parks), 11 under churn at 512 and 59
//! under the paper's anomalies at 128, and the simulator's one queue
//! peaks near 7 600 events. A wheel's O(1) repays its levels, cascades and caches
//! only from tens of thousands of timers in one queue; nothing here does.
//!
//! [`schedule`](TimerWheel::schedule) returns a [`TimerKey`], a
//! `(slot index, generation)` pair. Firing, cancelling or rescheduling
//! bumps the generation and removes or re-keys the heap entry on the
//! spot, so an old key is inert and callers need no fire-time staleness
//! checks: a cancelled timer is *gone*, not merely flagged.
//!
//! ```
//! use lifeguard_core::timer_wheel::TimerWheel;
//! use lifeguard_core::time::Time;
//!
//! let mut wheel = TimerWheel::new();
//! let a = wheel.schedule(Time::from_millis(5), "a");
//! let _b = wheel.schedule(Time::from_millis(3), "b");
//! wheel.cancel(a);
//! assert_eq!(wheel.next_deadline(), Some(Time::from_millis(3)));
//! assert_eq!(wheel.pop_due(Time::from_millis(10)), Some((Time::from_millis(3), "b")));
//! assert_eq!(wheel.pop_due(Time::from_millis(10)), None); // "a" was truly cancelled
//! ```

use crate::time::Time;

/// Handle to a scheduled timer: slot index plus the generation it was
/// issued at. Copyable and inert once the timer fires, is cancelled, or
/// is rescheduled (all of which bump the generation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerKey {
    idx: u32,
    gen: u32,
}

/// One slab slot. `payload` is `None` while the slot is free; `gen` bumps
/// whenever the slot is consumed (fire/cancel/reschedule), killing
/// outstanding [`TimerKey`]s; `pos` is the live entry's heap position.
struct Slot<T> {
    gen: u32,
    pos: u32,
    payload: Option<T>,
}

/// One heap entry, small enough to move by copy. The derived order is
/// the firing order, so field order matters: `deadline`, then the
/// insertion sequence `seq` — the deterministic same-instant tiebreak,
/// unique, so `idx` (the timer's slab slot) never decides.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    deadline: Time,
    seq: u64,
    idx: u32,
}

/// A timer queue over payloads `T`. See the module docs.
pub struct TimerWheel<T> {
    // bounded: one slot per live timer (the node schedules O(1) timers per member and per in-flight probe), freed slots recycled via `free`
    slots: Vec<Slot<T>>,
    // bounded: ≤ |slots| — holds only currently-free slot indices
    free: Vec<u32>,
    /// Binary min-heap of [`Entry`], one per live timer.
    // bounded: ≤ |slots| — exactly one entry per live slot, removed on fire and cancel
    heap: Vec<Entry>,
    next_seq: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        TimerWheel {
            slots: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Number of live (scheduled, uncancelled, unfired) timers.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` to fire at `at` (which may already be in the
    /// past — it then fires on the next [`TimerWheel::pop_due`]).
    pub fn schedule(&mut self, at: Time, payload: T) -> TimerKey {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                gen: 0,
                pos: 0,
                payload: None,
            });
            (self.slots.len() - 1) as u32
        });
        let gen = self.slots.get_mut(idx as usize).map_or(0, |slot| {
            slot.payload = Some(payload);
            slot.gen
        });
        let entry = self.next_entry(at, idx);
        let pos = self.heap.len();
        self.heap.push(entry);
        self.settle(pos, entry);
        TimerKey { idx, gen }
    }

    /// A heap entry for slot `idx` under the next insertion sequence.
    fn next_entry(&mut self, deadline: Time, idx: u32) -> Entry {
        let seq = self.next_seq;
        self.next_seq += 1;
        Entry { deadline, seq, idx }
    }

    /// The live slot behind `key`, or `None` if the key is stale.
    fn live(&self, key: TimerKey) -> Option<&Slot<T>> {
        self.slots
            .get(key.idx as usize)
            .filter(|s| s.gen == key.gen && s.payload.is_some())
    }

    /// Cancels the timer behind `key`, returning its payload.
    ///
    /// Returns `None` if the key is stale — the timer already fired, was
    /// cancelled, or was rescheduled — in which case nothing changes.
    pub fn cancel(&mut self, key: TimerKey) -> Option<T> {
        let pos = self.live(key)?.pos as usize;
        self.remove_at(pos);
        self.release(key.idx)
    }

    /// Moves the timer behind `key` to deadline `at` without touching its
    /// payload, returning the replacement key.
    ///
    /// The old key (and any copy of it) is invalidated; the timer gets a
    /// fresh insertion sequence, so among timers sharing an exact
    /// deadline it fires as the newest. Returns `None` (and changes
    /// nothing) if the key is stale.
    pub fn reschedule(&mut self, key: TimerKey, at: Time) -> Option<TimerKey> {
        let pos = self.live(key)?.pos as usize;
        let slot = self.slots.get_mut(key.idx as usize)?;
        slot.gen = slot.gen.wrapping_add(1);
        let gen = slot.gen;
        let entry = self.next_entry(at, key.idx);
        self.settle(pos, entry);
        Some(TimerKey { idx: key.idx, gen })
    }

    /// The exact deadline behind `key`, or `None` if the key is stale.
    pub fn deadline_of(&self, key: TimerKey) -> Option<Time> {
        let pos = self.live(key)?.pos as usize;
        self.heap.get(pos).map(|e| e.deadline)
    }

    /// The exact deadline of the earliest pending timer.
    pub fn next_deadline(&self) -> Option<Time> {
        self.heap.first().map(|e| e.deadline)
    }

    /// Removes and returns the earliest timer with `deadline <= now`.
    /// Returns `None` once nothing (more) is due. Timers come out in
    /// `(deadline, insertion-seq)` order.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, T)> {
        let root = *self.heap.first()?;
        if root.deadline > now {
            return None;
        }
        self.remove_at(0);
        let payload = self.release(root.idx);
        debug_assert!(payload.is_some(), "live timer has a payload");
        payload.map(|p| (root.deadline, p))
    }

    /// [`TimerWheel::pop_due`] with no time bound: removes and returns
    /// the earliest pending timer (the discrete-event-queue operation).
    pub fn pop_earliest(&mut self) -> Option<(Time, T)> {
        self.pop_due(Time::from_micros(u64::MAX))
    }

    /// Frees slab slot `idx`, whose heap entry is already gone: takes
    /// the payload and bumps the generation so every key to it dies.
    fn release(&mut self, idx: u32) -> Option<T> {
        let slot = self.slots.get_mut(idx as usize)?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        slot.payload.take()
    }

    /// Removes the heap entry at `pos` by moving the last entry into the
    /// hole and restoring heap order around it.
    fn remove_at(&mut self, pos: usize) {
        let Some(last) = self.heap.pop() else { return };
        if pos < self.heap.len() {
            self.settle(pos, last);
        }
    }

    /// Stores `e` at heap position `pos` and records the position in
    /// `e`'s slot — the only place either is written.
    fn put(&mut self, pos: usize, e: Entry) {
        if let Some(h) = self.heap.get_mut(pos) {
            *h = e;
        }
        if let Some(slot) = self.slots.get_mut(e.idx as usize) {
            slot.pos = pos as u32;
        }
    }

    /// Places `e` where heap order wants it, starting from the hole at
    /// `pos` (whose current content is dead): parents larger than `e`
    /// move down into the hole, then children smaller than `e` move up.
    /// At most one of the two loops moves anything.
    fn settle(&mut self, mut pos: usize, e: Entry) {
        while pos > 0 {
            let up = (pos - 1) >> 1;
            match self.heap.get(up) {
                Some(&parent) if e < parent => self.put(pos, parent),
                _ => break,
            }
            pos = up;
        }
        while let Some(&left) = self.heap.get(2 * pos + 1) {
            let (down, child) = match self.heap.get(2 * pos + 2) {
                Some(&right) if right < left => (2 * pos + 2, right),
                _ => (2 * pos + 1, left),
            };
            if e <= child {
                break;
            }
            self.put(pos, child);
            pos = down;
        }
        self.put(pos, e);
    }

    /// Debug-only invariant check (used by the property tests): heap
    /// order (the root stands in as its own parent), slot ↔ entry
    /// positions, and each slot live or free exactly once.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut seen = vec![0u32; self.slots.len()];
        for (pos, e) in self.heap.iter().enumerate() {
            let parent = self.heap.get(pos.saturating_sub(1) >> 1);
            assert!(parent.is_some_and(|p| p <= e), "heap order broken at {pos}");
            let slot = self.slots.get(e.idx as usize);
            assert!(
                slot.is_some_and(|s| s.pos as usize == pos),
                "slot position out of sync at {pos}"
            );
            assert!(
                slot.is_some_and(|s| s.payload.is_some()),
                "live timer without a payload at {pos}"
            );
            if let Some(n) = seen.get_mut(e.idx as usize) {
                *n += 1;
            }
        }
        for &idx in &self.free {
            let slot = self.slots.get(idx as usize);
            assert!(
                slot.is_some_and(|s| s.payload.is_none()),
                "free slot {idx} is missing or has a payload"
            );
            if let Some(n) = seen.get_mut(idx as usize) {
                *n += 1;
            }
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "every slot is in the heap or on the free list, exactly once"
        );
    }
}

impl<T> std::fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("len", &self.len())
            .field("next", &self.next_deadline())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn drain_until<T>(w: &mut TimerWheel<T>, now: Time) -> Vec<(Time, T)> {
        let mut out = Vec::new();
        while let Some(fired) = w.pop_due(now) {
            out.push(fired);
        }
        out
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut w = TimerWheel::new();
        w.schedule(Time::from_millis(30), "c");
        w.schedule(Time::from_millis(10), "a");
        w.schedule(Time::from_millis(20), "b");
        let fired = drain_until(&mut w, Time::from_secs(1));
        assert_eq!(
            fired,
            vec![
                (Time::from_millis(10), "a"),
                (Time::from_millis(20), "b"),
                (Time::from_millis(30), "c"),
            ]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn same_instant_fires_in_insertion_order() {
        let mut w = TimerWheel::new();
        let t = Time::from_millis(7);
        for i in 0..100 {
            w.schedule(t, i);
        }
        let fired = drain_until(&mut w, t);
        assert_eq!(fired.len(), 100);
        for (i, (at, v)) in fired.iter().enumerate() {
            assert_eq!(*at, t);
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn sub_tick_deadlines_stay_exact() {
        // Two timers less than a millisecond apart must fire at their
        // exact µs deadlines, in order.
        let mut w = TimerWheel::new();
        let a = Time::from_micros(500);
        let b = Time::from_micros(700);
        w.schedule(b, "b");
        w.schedule(a, "a");
        assert_eq!(w.next_deadline(), Some(a));
        assert_eq!(w.pop_due(Time::from_micros(499)), None);
        assert_eq!(w.pop_due(a), Some((a, "a")));
        assert_eq!(w.next_deadline(), Some(b));
        assert_eq!(w.pop_due(Time::from_micros(699)), None);
        assert_eq!(w.pop_due(Time::from_secs(1)), Some((b, "b")));
    }

    #[test]
    fn cancel_prevents_fire_and_is_one_shot() {
        let mut w = TimerWheel::new();
        let k = w.schedule(Time::from_millis(5), 1);
        assert_eq!(w.len(), 1);
        assert_eq!(w.cancel(k), Some(1));
        assert_eq!(w.cancel(k), None, "second cancel must be a no-op");
        assert!(w.is_empty());
        assert_eq!(w.pop_due(Time::from_secs(10)), None);
    }

    #[test]
    fn stale_key_after_fire_is_inert() {
        let mut w = TimerWheel::new();
        let k = w.schedule(Time::from_millis(5), 1);
        assert_eq!(
            w.pop_due(Time::from_millis(5)),
            Some((Time::from_millis(5), 1))
        );
        assert_eq!(w.cancel(k), None);
        assert_eq!(w.reschedule(k, Time::from_secs(1)), None);
        assert_eq!(w.deadline_of(k), None);
        // The slab slot is reused for a new timer; the old key must not
        // alias it.
        let k2 = w.schedule(Time::from_millis(9), 2);
        assert_eq!(w.cancel(k), None);
        assert_eq!(w.deadline_of(k2), Some(Time::from_millis(9)));
    }

    #[test]
    fn reschedule_moves_deadline_both_ways() {
        let mut w = TimerWheel::new();
        let k = w.schedule(Time::from_secs(30), "x");
        // Pull a far timer close, then push it out again.
        let k = w.reschedule(k, Time::from_millis(2)).unwrap();
        assert_eq!(w.next_deadline(), Some(Time::from_millis(2)));
        let k = w.reschedule(k, Time::from_secs(90)).unwrap();
        assert_eq!(w.next_deadline(), Some(Time::from_secs(90)));
        assert_eq!(w.len(), 1);
        assert_eq!(w.cancel(k), Some("x"));
    }

    #[test]
    fn fires_across_level_boundaries() {
        // Deadlines from a millisecond to an hour apart, scheduled in
        // reverse, keep order.
        let mut w = TimerWheel::new();
        let deadlines = [
            Time::from_millis(1),
            Time::from_millis(64),
            Time::from_millis(70),
            Time::from_millis(4_500),
            Time::from_secs(270),
            Time::from_secs(3_600),
        ];
        for (i, &t) in deadlines.iter().enumerate().rev() {
            w.schedule(t, i);
        }
        let fired = drain_until(&mut w, Time::from_secs(4_000));
        let got: Vec<_> = fired.iter().map(|&(t, i)| (t, i)).collect();
        let want: Vec<_> = deadlines
            .iter()
            .copied()
            .enumerate()
            .map(|(i, t)| (t, i))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn far_future_beyond_top_level_parks_and_fires() {
        let mut w = TimerWheel::new();
        // ~900 days out.
        let far = Time::ZERO + Duration::from_secs(900 * 24 * 3600);
        w.schedule(far, "far");
        w.schedule(Time::from_secs(1), "near");
        assert_eq!(w.next_deadline(), Some(Time::from_secs(1)));
        assert_eq!(
            w.pop_due(Time::from_secs(2)),
            Some((Time::from_secs(1), "near"))
        );
        assert_eq!(w.pop_due(Time::from_secs(2)), None);
        assert_eq!(w.pop_earliest(), Some((far, "far")));
        assert!(w.is_empty());
    }

    #[test]
    fn past_deadline_fires_immediately() {
        let mut w = TimerWheel::new();
        // Fire a timer well past t=1 ms...
        w.schedule(Time::from_secs(5), "later");
        assert!(w.pop_due(Time::from_secs(5)).is_some());
        // ...then schedule into the past: it must still come out first.
        w.schedule(Time::from_millis(1), "past");
        w.schedule(Time::from_secs(10), "future");
        assert_eq!(w.next_deadline(), Some(Time::from_millis(1)));
        assert_eq!(
            w.pop_due(Time::from_secs(6)),
            Some((Time::from_millis(1), "past"))
        );
        assert_eq!(w.pop_due(Time::from_secs(6)), None);
    }

    #[test]
    fn cancelled_bucket_is_reclaimed() {
        let mut w = TimerWheel::new();
        let keys: Vec<_> = (0..1000)
            .map(|i| w.schedule(Time::from_millis(5), i))
            .collect();
        for k in keys {
            assert!(w.cancel(k).is_some());
        }
        assert!(w.is_empty());
        assert_eq!(w.pop_due(Time::from_secs(1)), None);
        // Every cancel removed its entry on the spot: the heap is empty,
        // every slot is free, and the slab is reused rather than grown.
        assert!(w.heap.is_empty());
        assert_eq!(w.free.len(), w.slots.len());
        w.check_invariants();
        for i in 0..1000 {
            w.schedule(Time::from_millis(5), i);
        }
        assert_eq!(w.slots.len(), 1000);
        w.check_invariants();
    }

    #[test]
    fn pop_earliest_is_a_fifo_for_equal_times() {
        let mut w = TimerWheel::new();
        w.schedule(Time::from_secs(2), "late");
        w.schedule(Time::from_secs(1), "early-1");
        w.schedule(Time::from_secs(1), "early-2");
        assert_eq!(w.pop_earliest().unwrap().1, "early-1");
        assert_eq!(w.pop_earliest().unwrap().1, "early-2");
        assert_eq!(w.pop_earliest().unwrap().1, "late");
        assert_eq!(w.pop_earliest(), None);
    }

    #[test]
    fn len_tracks_all_mutations() {
        let mut w = TimerWheel::new();
        assert!(w.is_empty());
        let a = w.schedule(Time::from_millis(1), 1);
        let b = w.schedule(Time::from_millis(2), 2);
        assert_eq!(w.len(), 2);
        w.cancel(a);
        assert_eq!(w.len(), 1);
        let b = w.reschedule(b, Time::from_millis(9)).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w.deadline_of(b), Some(Time::from_millis(9)));
        w.pop_due(Time::from_secs(1));
        assert!(w.is_empty());
    }
}
