//! Event traces: everything every node concluded, with timestamps.
//!
//! The experiment harness reduces a trace's failure declarations
//! ([`Trace::failures`]) to the paper's metrics in one pass: false
//! positives (failure events about healthy members), first-detection
//! latency and full-dissemination latency.
//!
//! # Layout
//!
//! A join storm alone records n·(n − 1) events, so a trace stores each
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
//! A name id indexes the trace's name table, which holds every name once
//! in a `Vec` and finds one's id in a `HashMap`. `MemberFailed`'s
//! incarnation goes to a side column in record order. Records fill fixed
//! chunks of 1 024 records, so growing the log never copies it.
//! [`Trace::events`] decodes the records back into [`TraceEvent`]s equal
//! to the recorded ones; [`Trace::failures`] hands out names borrowed
//! from the table.

use std::collections::hash_map::{Entry, HashMap};

use lifeguard_core::event::Event;
use lifeguard_proto::{Incarnation, NodeName};

use crate::clock::SimTime;

/// One recorded membership event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the conclusion was reached.
    pub at: SimTime,
    /// Index of the node that reached it.
    pub reporter: usize,
    /// The conclusion.
    pub event: Event,
}

/// Records per chunk: a chunk is 20 KiB, and a trace holds at most one
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
    fn at(&self) -> SimTime {
        let [lo, hi] = self.at;
        SimTime::from_micros(u64::from(hi) << 32 | u64::from(lo))
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

/// The full event trace of one simulation run.
///
/// Events are recorded in simulation order (non-decreasing time).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Full chunks of `CHUNK` records, then the one being filled.
    chunks: Vec<Vec<Record>>,
    /// The incarnation of each `MemberFailed`, in record order.
    failed: Vec<Incarnation>,
    names: Names,
}

impl Trace {
    /// Bytes one recorded event takes in the log, side columns aside.
    pub const RECORD_BYTES: usize = std::mem::size_of::<Record>();

    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics if `reporter` is 2²⁴ or more (a cluster has at most 2²⁴
    /// nodes).
    pub fn record(&mut self, at: SimTime, reporter: usize, event: Event) {
        debug_assert!(
            self.chunks
                .last()
                .and_then(|c| c.last())
                .is_none_or(|r| r.at() <= at),
            "trace must be recorded in time order"
        );
        let reporter = u32::try_from(reporter)
            .ok()
            .filter(|&r| r <= REPORTER_MASK)
            .expect("reporter index below 2^24");
        let names = &mut self.names;
        let (kind, subject, accuser) = match event {
            Event::MemberJoined { name } => (JOINED, names.intern(name), 0),
            Event::MemberSuspected { name, from } => {
                (SUSPECTED, names.intern(name), names.intern(from))
            }
            Event::MemberFailed {
                name,
                incarnation,
                from,
            } => {
                self.failed.push(incarnation);
                (FAILED, names.intern(name), names.intern(from))
            }
            Event::MemberLeft { name } => (LEFT, names.intern(name), 0),
            Event::MemberRecovered { name } => (RECOVERED, names.intern(name), 0),
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
    }

    /// All recorded events in time order.
    pub fn events(&self) -> Events<'_> {
        Events { trace: self }
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

    /// All failure declarations (`MemberFailed`), as
    /// `(time, reporter, subject)`.
    pub fn failures(&self) -> impl Iterator<Item = (SimTime, usize, &NodeName)> {
        (self.chunks.iter().flatten())
            .filter(|r| r.kind() == FAILED)
            .map(|r| (r.at(), r.reporter(), self.names.name(r.subject)))
    }
}

/// A borrowed view of a [`Trace`]'s events ([`Trace::events`]): it
/// decodes each record into the [`TraceEvent`] that was recorded.
#[derive(Clone, Copy, Debug)]
pub struct Events<'a> {
    trace: &'a Trace,
}

impl<'a> Events<'a> {
    /// The events in time order.
    pub fn iter(&self) -> Iter<'a> {
        Iter {
            records: self.trace.chunks.iter().flatten(),
            failed: self.trace.failed.iter(),
            names: &self.trace.names,
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether there is none.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
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

impl Iterator for Iter<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        let r = self.records.next()?;
        let name = || self.names.name(r.subject).clone();
        let from = || self.names.name(r.accuser).clone();
        let event = match r.kind() {
            JOINED => Event::MemberJoined { name: name() },
            SUSPECTED => Event::MemberSuspected {
                name: name(),
                from: from(),
            },
            FAILED => Event::MemberFailed {
                name: name(),
                incarnation: self.failed.next().copied().unwrap_or_default(),
                from: from(),
            },
            LEFT => Event::MemberLeft { name: name() },
            RECOVERED => Event::MemberRecovered { name: name() },
            _ => Event::SelfRefuted {
                incarnation: Incarnation(u64::from(r.accuser) << 32 | u64::from(r.subject)),
            },
        };
        Some(TraceEvent {
            at: r.at(),
            reporter: r.reporter(),
            event,
        })
    }
}

/// A trace's name table: each distinct name once, its id its position.
#[derive(Clone, Debug, Default)]
struct Names {
    names: Vec<NodeName>,
    ids: HashMap<NodeName, u32>,
}

impl Names {
    fn name(&self, id: u32) -> &NodeName {
        &self.names[id as usize]
    }

    /// The id of `name`, which is added if it is new.
    fn intern(&mut self, name: NodeName) -> u32 {
        match self.ids.entry(name) {
            Entry::Occupied(id) => *id.get(),
            Entry::Vacant(slot) => {
                let id = u32::try_from(self.names.len()).expect("fewer than 2^32 distinct names");
                self.names.push(slot.key().clone());
                *slot.insert(id)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_failure_events_are_ignored_by_failures() {
        let mut t = Trace::new();
        t.record(
            SimTime::from_secs(1),
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
        let mut t = Trace::new();
        for i in 0..2 * CHUNK + 1 {
            let name = format!("node-{}", i % 300);
            t.record(
                SimTime::from_micros(i as u64),
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
}
