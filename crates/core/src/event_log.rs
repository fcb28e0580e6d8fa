//! The event log: membership conclusions with their times and
//! reporters, in the order they were reached.
//!
//! Both runtimes write one through their [`Sink`](crate::driver::Sink).
//! The simulator's log (`Cluster::trace`) holds every node's
//! conclusions and is uncapped; the experiment harness reduces its
//! failure declarations ([`EventLog::failures`]) to the paper's metrics
//! in one pass: false positives (failure events about healthy members),
//! first-detection latency and full-dissemination latency. The socket
//! agent records its own node's conclusions (reporter 0) into a log
//! [capped](EventLog::capped) at a fixed number of events, which
//! `Agent::events` hands out whole and replaces with an empty one.
//!
//! # Layout
//!
//! A join storm alone records n·(n − 1) events, so a log stores each
//! event as one fixed-width 20-byte record instead of an [`Event`]
//! (40 bytes: up to two 16-byte names and an incarnation):
//!
//! | bytes | field |
//! |---|---|
//! | 0–7 | the time in microseconds, as two `u32` words (so the record is 4-aligned) |
//! | 8–11 | the kind in the top byte, the reporter's index in the low 24 bits |
//! | 12–15 | the subject's name id; `SelfRefuted`: the incarnation's low word |
//! | 16–19 | the accuser's (`from`) name id; `SelfRefuted`: the incarnation's high word; else 0 |
//!
//! A name id indexes the log's name table, which holds every name once
//! in a `Vec` and finds one's id in a `HashMap`. `MemberFailed`'s
//! incarnation goes to a side column in record order. Records fill fixed
//! chunks of 1 024 records, so growing the log never copies it.
//! [`EventLog::events`] decodes the records back into [`TraceEvent`]s
//! equal to the recorded ones; [`EventLog::failures`] hands out names
//! borrowed from the table.
//!
//! # Refusals
//!
//! [`EventLog::record`] never panics. An event it cannot store is
//! counted in [`EventLog::overflowed`] and dropped: one that arrives
//! when a capped log is full, one whose reporter is 2²⁴ or more, and one
//! that would add a 2³²nd distinct name.

use std::collections::hash_map::{Entry, HashMap};

use lifeguard_proto::{Incarnation, NodeName};

use crate::event::Event;
use crate::time::Time;

/// One recorded membership event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the conclusion was reached.
    pub at: Time,
    /// Index of the node that reached it.
    pub reporter: usize,
    /// The conclusion.
    pub event: Event,
}

/// Records per chunk: a chunk is 20 KiB, and a log holds at most one
/// partly filled chunk.
const CHUNK: usize = 1024;

/// The low 24 bits of a record's head word: the reporter.
const REPORTER_MASK: u32 = (1 << 24) - 1;

/// Kinds, in the head word's top byte.
const JOINED: u32 = 0;
const SUSPECTED: u32 = 1;
const FAILED: u32 = 2;
const LEFT: u32 = 3;
const RECOVERED: u32 = 4;
const SELF_REFUTED: u32 = 5;

/// One event in 20 bytes (see the module docs).
#[derive(Clone, Copy, Debug)]
struct Record {
    at: [u32; 2],
    head: u32,
    subject: u32,
    accuser: u32,
}

impl Record {
    fn at(&self) -> Time {
        let [lo, hi] = self.at;
        Time::from_micros(u64::from(hi) << 32 | u64::from(lo))
    }

    fn kind(&self) -> u32 {
        self.head >> 24
    }

    fn reporter(&self) -> usize {
        (self.head & REPORTER_MASK) as usize
    }
}

/// Splits a `u64` into its low and high words.
fn words(v: u64) -> [u32; 2] {
    [v as u32, (v >> 32) as u32]
}

/// Membership events in the order they were recorded (non-decreasing
/// time), at most a cap of them.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    /// Full chunks of `CHUNK` records, then the one being filled.
    chunks: Vec<Vec<Record>>,
    /// The incarnation of each `MemberFailed`, in record order.
    failed: Vec<Incarnation>,
    names: Names,
    /// Most events stored; `None` for an uncapped log.
    cap: Option<usize>,
    /// Events counted and dropped instead of stored.
    overflowed: u64,
}

impl EventLog {
    /// Bytes one recorded event takes in the log, side columns aside.
    pub const RECORD_BYTES: usize = std::mem::size_of::<Record>();

    /// Creates an empty, uncapped log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Creates an empty log that stores at most `cap` events; it counts
    /// the ones after those in [`EventLog::overflowed`].
    pub fn capped(cap: usize) -> Self {
        EventLog {
            cap: Some(cap),
            ..EventLog::default()
        }
    }

    /// Appends an event, or counts it in [`EventLog::overflowed`] if the
    /// log cannot store it (see the module docs).
    pub fn record(&mut self, at: Time, reporter: usize, event: Event) {
        debug_assert!(
            self.chunks
                .last()
                .and_then(|c| c.last())
                .is_none_or(|r| r.at() <= at),
            "events must be recorded in time order"
        );
        // The cap is checked first, so that a full log interns no name.
        let full = self.cap.is_some_and(|cap| self.len() >= cap);
        if full || self.store(at, reporter, event).is_none() {
            self.overflowed += 1;
        }
    }

    /// Stores an event; `None` if its reporter or a new name has no id.
    fn store(&mut self, at: Time, reporter: usize, event: Event) -> Option<()> {
        let reporter = u32::try_from(reporter)
            .ok()
            .filter(|&r| r <= REPORTER_MASK)?;
        let names = &mut self.names;
        let (kind, subject, accuser) = match event {
            Event::MemberJoined { name } => (JOINED, names.intern(name)?, 0),
            Event::MemberSuspected { name, from } => {
                (SUSPECTED, names.intern(name)?, names.intern(from)?)
            }
            Event::MemberFailed {
                name,
                incarnation,
                from,
            } => {
                let ids = (FAILED, names.intern(name)?, names.intern(from)?);
                self.failed.push(incarnation);
                ids
            }
            Event::MemberLeft { name } => (LEFT, names.intern(name)?, 0),
            Event::MemberRecovered { name } => (RECOVERED, names.intern(name)?, 0),
            Event::SelfRefuted { incarnation } => {
                let [lo, hi] = words(incarnation.0);
                (SELF_REFUTED, lo, hi)
            }
        };
        let record = Record {
            at: words(at.as_micros()),
            head: kind << 24 | reporter,
            subject,
            accuser,
        };
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(record),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(record);
                self.chunks.push(chunk);
            }
        }
        Some(())
    }

    /// All recorded events in time order.
    pub fn events(&self) -> Events<'_> {
        Events { log: self }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Events counted instead of stored: past the cap, or refused (see
    /// the module docs).
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// All failure declarations (`MemberFailed`), as
    /// `(time, reporter, subject)`.
    pub fn failures(&self) -> impl Iterator<Item = (Time, usize, &NodeName)> {
        (self.chunks.iter().flatten())
            .filter(|r| r.kind() == FAILED)
            .filter_map(|r| Some((r.at(), r.reporter(), self.names.get(r.subject)?)))
    }
}

/// A borrowed view of an [`EventLog`]'s events ([`EventLog::events`]):
/// it decodes each record into the [`TraceEvent`] that was recorded.
#[derive(Clone, Copy, Debug)]
pub struct Events<'a> {
    log: &'a EventLog,
}

impl<'a> Events<'a> {
    /// The events in time order.
    pub fn iter(&self) -> Iter<'a> {
        Iter {
            records: self.log.chunks.iter().flatten(),
            failed: self.log.failed.iter(),
            names: &self.log.names,
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Whether there is none.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }
}

impl<'a> IntoIterator for Events<'a> {
    type Item = TraceEvent;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Events<'a> {
    type Item = TraceEvent;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The iterator of [`Events`].
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    records: std::iter::Flatten<std::slice::Iter<'a, Vec<Record>>>,
    /// `MemberFailed` incarnations not yet handed out.
    failed: std::slice::Iter<'a, Incarnation>,
    names: &'a Names,
}

impl Iter<'_> {
    /// The event `r` holds; `None` if a name id is not in the table,
    /// which `record` never writes.
    fn decode(&mut self, r: &Record) -> Option<Event> {
        let name = || self.names.get(r.subject).cloned();
        let from = || self.names.get(r.accuser).cloned();
        Some(match r.kind() {
            JOINED => Event::MemberJoined { name: name()? },
            SUSPECTED => Event::MemberSuspected {
                name: name()?,
                from: from()?,
            },
            FAILED => {
                // Taken first, so the column stays in step with the
                // records even if a name were missing.
                let incarnation = self.failed.next().copied().unwrap_or_default();
                Event::MemberFailed {
                    name: name()?,
                    incarnation,
                    from: from()?,
                }
            }
            LEFT => Event::MemberLeft { name: name()? },
            RECOVERED => Event::MemberRecovered { name: name()? },
            _ => Event::SelfRefuted {
                incarnation: Incarnation(u64::from(r.accuser) << 32 | u64::from(r.subject)),
            },
        })
    }
}

impl Iterator for Iter<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        loop {
            let r = self.records.next()?;
            if let Some(event) = self.decode(r) {
                return Some(TraceEvent {
                    at: r.at(),
                    reporter: r.reporter(),
                    event,
                });
            }
        }
    }
}

/// A log's name table: each distinct name once, its id its position.
#[derive(Clone, Debug, Default)]
struct Names {
    names: Vec<NodeName>,
    ids: HashMap<NodeName, u32>,
}

impl Names {
    fn get(&self, id: u32) -> Option<&NodeName> {
        self.names.get(id as usize)
    }

    /// The id of `name`, which is added if it is new; `None` if the
    /// table already holds 2³² names.
    fn intern(&mut self, name: NodeName) -> Option<u32> {
        match self.ids.entry(name) {
            Entry::Occupied(id) => Some(*id.get()),
            Entry::Vacant(slot) => {
                let id = u32::try_from(self.names.len()).ok()?;
                self.names.push(slot.key().clone());
                Some(*slot.insert(id))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_failure_events_are_ignored_by_failures() {
        let mut t = EventLog::new();
        t.record(
            Time::from_secs(1),
            0,
            Event::MemberSuspected {
                name: "x".into(),
                from: "a".into(),
            },
        );
        assert_eq!(t.failures().count(), 0);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let suspected = t
            .events()
            .iter()
            .filter(|e| matches!(e.event, Event::MemberSuspected { .. }));
        assert_eq!(suspected.count(), 1);
    }

    #[test]
    fn chunks_fill_before_the_next_one_starts() {
        let mut t = EventLog::new();
        for i in 0..2 * CHUNK + 1 {
            let name = format!("node-{}", i % 300);
            t.record(
                Time::from_micros(i as u64),
                i % 7,
                Event::MemberJoined { name: name.into() },
            );
        }
        assert_eq!(t.len(), 2 * CHUNK + 1);
        assert_eq!(t.chunks.len(), 3);
        assert!(t.chunks.iter().all(|c| c.capacity() == CHUNK));
        assert_eq!(t.names.names.len(), 300);
        assert_eq!(t.names.ids.len(), 300);
        let last = t.events().iter().last().expect("recorded");
        assert_eq!(last.reporter, (2 * CHUNK) % 7);
        assert_eq!(last.event.subject().map(NodeName::as_str), Some("node-248"));
    }

    /// A reporter past 24 bits and an event past the cap are counted,
    /// not stored, and a full log interns no new name.
    #[test]
    fn refused_events_are_counted_not_stored() {
        let joined = |name: &str| Event::MemberJoined { name: name.into() };
        let mut t = EventLog::capped(2);
        t.record(Time::ZERO, 1 << 24, joined("too-far"));
        t.record(Time::ZERO, (1 << 24) - 1, joined("a"));
        t.record(Time::ZERO, 0, joined("b"));
        t.record(Time::ZERO, 0, joined("c"));
        assert_eq!((t.len(), t.overflowed()), (2, 2));
        assert_eq!(t.names.names.len(), 2, "only stored events intern names");
        let reporters: Vec<usize> = t.events().iter().map(|e| e.reporter).collect();
        assert_eq!(reporters, [(1 << 24) - 1, 0]);
    }
}
