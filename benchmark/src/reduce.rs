//! Reduces an event trace to the paper's outcome quantities: false
//! positives, first-detection latency and full-dissemination latency.
//! The benchmark's own reduction, independent of `crates/experiments`.

use crate::api::{Conclusion, TraceRecord};

/// A member that really was impaired (crashed or paused) from `start_us` on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Impaired {
    pub node: usize,
    pub start_us: u64,
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Reduction {
    /// Failure declarations about never-impaired members, by any reporter.
    pub fp_events: u64,
    /// Per impaired member: µs from failure start to the first declaration
    /// by a healthy member; `None` if no healthy member ever declared it.
    pub first_detect_us: Vec<Option<u64>>,
    /// Per impaired member: µs from failure start until every healthy
    /// member had declared it; `None` if some never did.
    pub full_dissem_us: Vec<Option<u64>>,
}

/// `records` must be in time order (the trace is); events after
/// `until_us` are ignored. Healthy members are those of `0..n` not
/// listed in `impaired`.
pub fn reduce(
    records: impl IntoIterator<Item = TraceRecord>,
    n: usize,
    impaired: &[Impaired],
    until_us: u64,
) -> Reduction {
    let mut slot_of = vec![None; n];
    for (slot, imp) in impaired.iter().enumerate() {
        slot_of[imp.node] = Some(slot);
    }
    let healthy = n - impaired.len();
    let mut out = Reduction {
        fp_events: 0,
        first_detect_us: vec![None; impaired.len()],
        full_dissem_us: vec![None; impaired.len()],
    };
    let mut declared = vec![false; impaired.len() * n];
    let mut declared_count = vec![0usize; impaired.len()];
    for r in records {
        if r.at_us > until_us {
            break;
        }
        let (Conclusion::Failed, Some(subject)) = (r.kind, r.subject) else {
            continue;
        };
        let Some(slot) = slot_of.get(subject).copied().flatten() else {
            out.fp_events += 1;
            continue;
        };
        let reporter_healthy = slot_of.get(r.reporter).is_some_and(Option::is_none);
        let start = impaired[slot].start_us;
        if !reporter_healthy || r.at_us < start || declared[slot * n + r.reporter] {
            continue;
        }
        declared[slot * n + r.reporter] = true;
        declared_count[slot] += 1;
        out.first_detect_us[slot].get_or_insert(r.at_us - start);
        if declared_count[slot] == healthy {
            out.full_dissem_us[slot] = Some(r.at_us - start);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failed(at_us: u64, reporter: usize, subject: usize) -> TraceRecord {
        TraceRecord {
            at_us,
            reporter,
            kind: Conclusion::Failed,
            subject: Some(subject),
        }
    }

    #[test]
    fn synthetic_trace_reduces_to_fp_detect_and_dissemination() {
        // Nodes 0..5; node 4 crashes at t=10 s, node 3 at t=20 s.
        let impaired = [
            Impaired {
                node: 4,
                start_us: 10_000_000,
            },
            Impaired {
                node: 3,
                start_us: 20_000_000,
            },
        ];
        let trace = vec![
            // Before its crash: a declaration about node 4 does not count as detection.
            failed(5_000_000, 0, 4),
            // A suspicion is not a failure declaration.
            TraceRecord {
                at_us: 11_000_000,
                reporter: 1,
                kind: Conclusion::Suspected,
                subject: Some(4),
            },
            // An impaired reporter does not count.
            failed(12_000_000, 3, 4),
            failed(13_000_000, 1, 4),
            // A false positive: node 2 was never impaired.
            failed(14_000_000, 0, 2),
            failed(15_000_000, 1, 4), // repeat by the same reporter
            failed(16_000_000, 0, 4),
            failed(18_500_000, 2, 4), // every healthy member (0, 1, 2) has now declared node 4
            failed(25_000_000, 0, 3),
            failed(26_000_000, 1, 3), // node 2 never declares node 3
            failed(99_000_000, 2, 3), // after `until`
        ];
        let r = reduce(trace, 5, &impaired, 60_000_000);
        assert_eq!(r.fp_events, 1);
        assert_eq!(r.first_detect_us, vec![Some(3_000_000), Some(5_000_000)]);
        assert_eq!(r.full_dissem_us, vec![Some(8_500_000), None]);
    }

    #[test]
    fn empty_trace_detects_nothing() {
        let r = reduce(
            Vec::new(),
            3,
            &[Impaired {
                node: 1,
                start_us: 0,
            }],
            u64::MAX,
        );
        assert_eq!(
            r,
            Reduction {
                fp_events: 0,
                first_detect_us: vec![None],
                full_dissem_us: vec![None]
            }
        );
    }
}
