//! Deterministic discrete-event queue.
//!
//! A thin wrapper over the protocol core's timer queue
//! ([`TimerWheel`], an indexed binary heap), so the simulator and
//! [`SwimNode`](lifeguard_core::node::SwimNode) share one
//! firing-semantics implementation: exact microsecond deadlines and
//! events at the same instant delivered in insertion order. Whole-cluster
//! simulations remain bit-for-bit reproducible for a given seed.

use lifeguard_core::timer_wheel::TimerWheel;

use crate::clock::SimTime;

/// A time-ordered event queue with deterministic tie-breaking.
///
/// ```
/// use lifeguard_sim::event_queue::EventQueue;
/// use lifeguard_sim::clock::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "late");
/// ```
pub struct EventQueue<E> {
    wheel: TimerWheel<E>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.wheel.schedule(at, event);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.wheel.pop_earliest()
    }

    /// Removes and returns the earliest event scheduled at or before `t`.
    pub(crate) fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        self.wheel.pop_due(t)
    }

    /// The time of the earliest scheduled event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.next_deadline()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 3);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(2), 2);
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(1), 1));
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(2), 2));
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(3), 3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        // Pushes interleaved with pops, some earlier than what is
        // already queued, must still come out in global time order.
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_secs(5), "d");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_millis(900), "b");
        q.push(SimTime::from_secs(2), "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
    }

    #[test]
    fn peek_and_len_track_state() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(5), ());
        q.push(SimTime::from_secs(4), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
    }
}
