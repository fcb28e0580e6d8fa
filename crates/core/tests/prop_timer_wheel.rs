//! Model-agreement property tests for the timer queue: it is driven
//! against a naive sorted-Vec reference model through randomized
//! schedule / cancel / reschedule / advance interleavings and must agree
//! on every fired timer, every next-deadline report and every length —
//! including same-instant ordering (insertion order) and deadlines from
//! sub-millisecond to a day apart — with its structural invariants
//! checked after every operation.

use std::collections::HashMap;

use proptest::prelude::*;

use lifeguard_core::time::Time;
use lifeguard_core::timer_wheel::{TimerKey, TimerWheel};

/// The reference model: a flat vector of `(deadline µs, order, id)`.
/// Firing order is `(deadline, order)` — exactly the contract a
/// `BinaryHeap<(Time, u64)>` of lazily-invalidated entries provides,
/// minus the staleness: cancelled entries are really removed.
#[derive(Default)]
struct NaiveTimers {
    entries: Vec<(u64, u64, u32)>,
    order: u64,
}

impl NaiveTimers {
    fn schedule(&mut self, at: u64, id: u32) {
        self.entries.push((at, self.order, id));
        self.order += 1;
    }

    fn cancel(&mut self, id: u32) -> bool {
        match self.entries.iter().position(|&(_, _, i)| i == id) {
            Some(pos) => {
                self.entries.remove(pos);
                true
            }
            None => false,
        }
    }

    fn reschedule(&mut self, id: u32, at: u64) -> bool {
        // The wheel gives a rescheduled timer a fresh insertion order;
        // mirror that.
        if self.cancel(id) {
            self.schedule(at, id);
            true
        } else {
            false
        }
    }

    fn next_deadline(&self) -> Option<u64> {
        self.entries.iter().min_by_key(|&&(at, ord, _)| (at, ord)).map(|&(at, _, _)| at)
    }

    fn pop_due(&mut self, now: u64) -> Option<(u64, u32)> {
        let pos = self
            .entries
            .iter()
            .enumerate()
            .filter(|&(_, &(at, _, _))| at <= now)
            .min_by_key(|&(_, &(at, ord, _))| (at, ord))
            .map(|(pos, _)| pos)?;
        let (at, _, id) = self.entries.remove(pos);
        Some((at, id))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Turns a raw delay seed into a span over six orders of magnitude,
/// from same-instant collisions to the far future.
fn shaped_delay(kind: u8, raw: u64) -> u64 {
    match kind % 6 {
        0 => 0,                                  // same instant
        1 => raw % 1_024,                        // inside one millisecond
        2 => raw % 70_000,                       // tens of milliseconds
        3 => raw % 5_000_000,                    // seconds
        4 => raw % 300_000_000,                  // minutes
        _ => raw % 100_000_000_000,              // far future (~28 h)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The wheel agrees with the sorted-Vec model on every operation.
    #[test]
    fn wheel_matches_naive_model(
        ops in proptest::collection::vec(
            (0u8..8, 0u8..6, any::<u64>(), 0u8..64),
            1..250,
        )
    ) {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        let mut model = NaiveTimers::default();
        // Live handles: (id, key, deadline µs). Parallel to the model.
        let mut live: Vec<(u32, TimerKey, u64)> = Vec::new();
        let mut next_id: u32 = 0;
        let mut now: u64 = 0;

        for (op, kind, raw, pick) in ops {
            match op {
                // Schedule (weighted heaviest).
                0..=2 => {
                    let at = now + shaped_delay(kind, raw);
                    let id = next_id;
                    next_id += 1;
                    let key = wheel.schedule(Time::from_micros(at), id);
                    model.schedule(at, id);
                    live.push((id, key, at));
                    prop_assert_eq!(wheel.deadline_of(key), Some(Time::from_micros(at)));
                }
                // Cancel a live timer.
                3 => {
                    if live.is_empty() {
                        continue;
                    }
                    let pos = pick as usize % live.len();
                    let (id, key, _) = live.swap_remove(pos);
                    prop_assert_eq!(wheel.cancel(key), Some(id));
                    prop_assert!(model.cancel(id));
                    // A second cancel through the same key is inert.
                    prop_assert_eq!(wheel.cancel(key), None);
                }
                // Reschedule a live timer (both directions).
                4 => {
                    if live.is_empty() {
                        continue;
                    }
                    let pos = pick as usize % live.len();
                    let (id, key, _) = live[pos];
                    let at = now + shaped_delay(kind, raw);
                    let new_key = wheel.reschedule(key, Time::from_micros(at));
                    prop_assert!(new_key.is_some());
                    prop_assert!(model.reschedule(id, at));
                    // The old key died with the reschedule.
                    prop_assert_eq!(wheel.cancel(key), None);
                    live[pos] = (id, new_key.unwrap(), at);
                }
                // Cancel through a deliberately stale key.
                5 => {
                    if live.is_empty() {
                        continue;
                    }
                    let pos = pick as usize % live.len();
                    let (id, key, at) = live[pos];
                    let new_key = wheel.reschedule(key, Time::from_micros(at)).unwrap();
                    prop_assert!(model.reschedule(id, at));
                    live[pos] = (id, new_key, at);
                    prop_assert_eq!(wheel.cancel(key), None, "stale key must stay dead");
                }
                // Advance time and drain everything due, comparing fires
                // one by one.
                _ => {
                    now += shaped_delay(kind, raw);
                    let t = Time::from_micros(now);
                    loop {
                        let expected = model.pop_due(now);
                        let got = wheel.pop_due(t);
                        prop_assert_eq!(
                            got.map(|(at, id)| (at.as_micros(), id)),
                            expected,
                            "divergence at now={}", now
                        );
                        match expected {
                            Some((_, id)) => live.retain(|&(i, _, _)| i != id),
                            None => break,
                        }
                    }
                }
            }
            wheel.check_invariants();
            prop_assert_eq!(wheel.len(), model.len());
            prop_assert_eq!(
                wheel.next_deadline().map(Time::as_micros),
                model.next_deadline()
            );
        }

        // Final full drain must agree to the last timer.
        loop {
            let expected = model.pop_due(u64::MAX);
            let got = wheel.pop_earliest();
            wheel.check_invariants();
            prop_assert_eq!(got.map(|(at, id)| (at.as_micros(), id)), expected);
            if expected.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }

    /// The shape the program runs at: a node holds at most a few dozen
    /// timers and mostly moves them. At most 64 live timers; most
    /// operations reschedule one — picked by heap position, root and
    /// last leaf included — to before the current minimum, past the
    /// current maximum, or onto another timer's exact deadline.
    #[test]
    fn small_population_reschedule_heavy_matches_model(
        ops in proptest::collection::vec((0u8..10, 0u8..4, any::<u64>(), 0u8..64), 1..400)
    ) {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        let mut model = NaiveTimers::default();
        let mut keys: HashMap<u32, TimerKey> = HashMap::new();
        let mut next_id: u32 = 0;
        let mut now: u64 = 1_000_000;

        for (op, dir, raw, pick) in ops {
            // Live timers in firing order: index 0 is the heap's root,
            // the last one is some leaf.
            let mut order = model.entries.clone();
            order.sort_by_key(|&(at, ord, _)| (at, ord));
            match op {
                0..=1 if keys.len() < 64 => {
                    let at = now + raw % 10_000_000;
                    let id = next_id;
                    next_id += 1;
                    keys.insert(id, wheel.schedule(Time::from_micros(at), id));
                    model.schedule(at, id);
                }
                2 => {
                    now += raw % 2_000_000;
                    while let Some((at, id)) = model.pop_due(now) {
                        let got = wheel.pop_due(Time::from_micros(now));
                        prop_assert_eq!(got, Some((Time::from_micros(at), id)));
                        keys.remove(&id);
                    }
                    prop_assert_eq!(wheel.pop_due(Time::from_micros(now)), None);
                }
                _ if !order.is_empty() => {
                    let (first, last) = (order[0].0, order[order.len() - 1].0);
                    let (_, _, id) = match pick % 4 {
                        0 => order[0],
                        1 => order[order.len() - 1],
                        _ => order[pick as usize % order.len()],
                    };
                    let at = match dir {
                        0 => first.saturating_sub(raw % 1_000),   // to (or before) the root
                        1 => last + raw % 1_000,                  // to the last leaf
                        2 => order[raw as usize % order.len()].0, // onto an exact tie
                        _ => now + raw % 10_000_000,
                    };
                    let key = keys.remove(&id).expect("every model entry has a key");
                    if op == 3 {
                        prop_assert_eq!(wheel.cancel(key), Some(id));
                        prop_assert!(model.cancel(id));
                    } else {
                        let new_key = wheel.reschedule(key, Time::from_micros(at));
                        prop_assert!(new_key.is_some());
                        prop_assert!(model.reschedule(id, at));
                        prop_assert_eq!(wheel.reschedule(key, Time::ZERO), None);
                        let new_key = new_key.unwrap();
                        prop_assert_eq!(wheel.deadline_of(new_key), Some(Time::from_micros(at)));
                        keys.insert(id, new_key);
                    }
                }
                _ => {}
            }
            wheel.check_invariants();
            prop_assert_eq!(wheel.len(), model.len());
            prop_assert_eq!(
                wheel.next_deadline().map(Time::as_micros),
                model.next_deadline()
            );
        }

        while let Some((at, id)) = model.pop_due(u64::MAX) {
            prop_assert_eq!(wheel.pop_earliest(), Some((Time::from_micros(at), id)));
            wheel.check_invariants();
        }
        prop_assert!(wheel.is_empty());
    }

    /// Same-tick ordering: any interleaving of schedules onto the same
    /// few instants fires in exact insertion order per instant.
    #[test]
    fn same_tick_ordering_is_insertion_order(
        slots in proptest::collection::vec(0u8..4, 1..120)
    ) {
        let mut wheel = TimerWheel::new();
        let base = 5_000u64;
        let mut expected: Vec<(u64, usize)> = Vec::new();
        for (i, s) in slots.iter().enumerate() {
            // Four deadlines inside two adjacent ticks (tick = 1024 µs).
            let at = base + [0u64, 500, 1_100, 1_600][*s as usize % 4];
            wheel.schedule(Time::from_micros(at), i);
            expected.push((at, i));
        }
        expected.sort_by_key(|&(at, i)| (at, i));
        let mut got = Vec::new();
        while let Some((at, i)) = wheel.pop_due(Time::from_micros(base + 2_000)) {
            got.push((at.as_micros(), i));
        }
        prop_assert_eq!(got, expected);
    }
}
