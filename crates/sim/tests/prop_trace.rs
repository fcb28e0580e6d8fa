//! Model-agreement property tests for the event trace: a `Trace` fed a
//! random sequence over all six `Event` variants must hand back, event
//! by event, what a plain `Vec<TraceEvent>` holds, and its `failures()`
//! must list the failure declarations that vector holds. Names run from
//! 1 to 40 bytes, on both sides of `NodeName::INLINE_LEN`, each drawn
//! again and again from a per-case pool; reporters reach 2²⁴ − 1,
//! incarnations `u64::MAX`, and times pass 2³² µs.

use proptest::prelude::*;

use lifeguard_core::event::Event;
use lifeguard_proto::{Incarnation, NodeName};
use lifeguard_sim::clock::SimTime;
use lifeguard_sim::trace::{Trace, TraceEvent};

/// The largest reporter index a trace holds.
const MAX_REPORTER: usize = (1 << 24) - 1;

fn reporter(raw: u32) -> usize {
    match raw % 4 {
        0 => MAX_REPORTER,
        1 => (raw >> 8) as usize & MAX_REPORTER,
        _ => (raw >> 8) as usize % 16,
    }
}

fn incarnation(raw: u64) -> Incarnation {
    Incarnation(match raw % 4 {
        0 => u64::MAX,
        1 => 0,
        2 => raw,
        _ => raw % 100,
    })
}

/// A step in microseconds, from none to days, so times pass 2³² µs.
fn time_step(raw: u64) -> u64 {
    match raw % 4 {
        0 => 0,
        1 => (raw >> 2) % 1_000,
        2 => (raw >> 2) % 10_000_000_000,
        _ => (raw >> 2) % (1 << 36),
    }
}

fn event(kind: u8, name: NodeName, from: NodeName, incarnation: Incarnation) -> Event {
    match kind {
        0 => Event::MemberJoined { name },
        1 => Event::MemberSuspected { name, from },
        2 => Event::MemberFailed {
            name,
            incarnation,
            from,
        },
        3 => Event::MemberLeft { name },
        4 => Event::MemberRecovered { name },
        _ => Event::SelfRefuted { incarnation },
    }
}

/// The reference model's `failures()`.
fn failures(reference: &[TraceEvent]) -> impl Iterator<Item = (SimTime, usize, &NodeName)> {
    reference.iter().filter_map(|e| match &e.event {
        Event::MemberFailed { name, .. } => Some((e.at, e.reporter, name)),
        _ => None,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The trace agrees with a plain vector of the recorded events.
    /// Each step: the kind, subject and accuser picks into the name
    /// pool, then raw draws for the reporter, the incarnation and the
    /// time step.
    #[test]
    fn trace_matches_vec_model(
        pool in proptest::collection::vec("[a-z0-9.-]{1,40}", 1..24),
        steps in proptest::collection::vec(
            (0u8..6, any::<u16>(), any::<u16>(), any::<u32>(), any::<u64>(), any::<u64>()),
            0..2500,
        ),
    ) {
        let pool: Vec<NodeName> = pool.iter().map(|s| NodeName::from(s.as_str())).collect();
        let mut trace = Trace::new();
        let mut reference: Vec<TraceEvent> = Vec::new();
        let mut now = 0u64;
        for &(kind, subject, accuser, raw_reporter, raw_incarnation, raw_step) in &steps {
            now += time_step(raw_step);
            let name = pool[usize::from(subject) % pool.len()].clone();
            let from = pool[usize::from(accuser) % pool.len()].clone();
            let e = TraceEvent {
                at: SimTime::from_micros(now),
                reporter: reporter(raw_reporter),
                event: event(kind, name, from, incarnation(raw_incarnation)),
            };
            trace.record(e.at, e.reporter, e.event.clone());
            reference.push(e);
        }

        // The events, one by one, through both forms of iteration.
        let events = trace.events();
        prop_assert_eq!(events.len(), reference.len());
        prop_assert_eq!(trace.len(), reference.len());
        prop_assert_eq!(trace.is_empty(), reference.is_empty());
        for (i, (got, want)) in events.iter().zip(&reference).enumerate() {
            prop_assert_eq!(&got, want, "event {}", i);
        }
        prop_assert_eq!(events.into_iter().count(), reference.len());
        // The failure declarations alone, in order.
        prop_assert!(trace.failures().eq(failures(&reference)));
    }
}

/// A recorded event costs 20 bytes in the log: a `u64` time, a word
/// holding the kind and the reporter, and two `u32` name ids.
#[test]
fn a_record_is_twenty_bytes() {
    assert_eq!(Trace::RECORD_BYTES, 20);
}
