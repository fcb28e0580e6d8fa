//! The benchmark's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! it makes into each layer, into a buffer allocated before the run;
//! they are written out once when the run ends. A disabled recorder
//! (the untraced run) costs one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per run; later ones are counted as dropped, never grown
/// into, so recording does not allocate while the workload runs.
const CAPACITY: usize = 400_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Segment index or ping sequence number: spans of one request share it.
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a span set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { CAPACITY } else { 0 }),
            open: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span (or bare, when tracing is off).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u32,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Sets the request of the innermost open span, for callers that
    /// learn it only while the span runs.
    pub fn tag(&mut self, request: u32) {
        if let Some(&id) = self.open.last() {
            self.spans[id as usize].request = request;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations in ns of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// The span file: every span plus the per-name self-time table.
    pub fn to_json(&self, workload: &str, stamp_json: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 4096);
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"stamp\": {stamp_json}, \"dropped\": {}, \"self_time\": {{",
            self.dropped
        );
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"workload\": \"{workload}\", \"request\": {}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A span's self time is its duration minus the part of that interval
/// its child spans cover. Children of one parent never overlap here
/// (one recording thread), so the covered part is the sum of their
/// durations.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[s.id as usize]);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, None, "segment", 0, 1_000),
            span(1, Some(0), "sim.run_for", 100, 400),
            span(2, Some(1), "inner", 150, 250),
            span(3, Some(0), "sim.run_for", 500, 900),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["segment"],
            NameTotals {
                count: 1,
                total_ns: 1_000,
                self_ns: 300
            }
        );
        assert_eq!(
            t["sim.run_for"],
            NameTotals {
                count: 2,
                total_ns: 700,
                self_ns: 600
            }
        );
        assert_eq!(
            t["inner"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 100
            }
        );
    }

    #[test]
    fn recorder_nests_and_links_parents() {
        let mut rec = Recorder::new(true);
        rec.span("outer", 7, |rec| {
            rec.span("inner", 7, |_| ());
            rec.span("inner", 8, |_| ());
        });
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert_eq!(s[2].request, 8);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let json = rec.to_json("w", "{}");
        assert!(json.contains("\"name\": \"inner\"") && json.contains("\"self_time\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", 0, |_| 5), 5);
        assert!(rec.spans().is_empty());
    }
}
