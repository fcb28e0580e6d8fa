//! What one workload run hands back: metric values by registered name,
//! correctness checks, and the attempted/failed operation counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry::{self, MetricDef};
use crate::span::Recorder;
use crate::stats::Summary;

#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub value: f64,
    /// Samples behind the value (segments, detections, pings…).
    pub samples: usize,
    /// Quartile distance as a share of the median, where there are
    /// enough samples.
    pub spread: Option<f64>,
    /// The highest percentile the sample count supports, if any.
    pub tail: Option<(f64, f64)>,
}

#[derive(Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// One invocation's inputs and everything it produces.
pub struct Run {
    pub seed: u64,
    /// The measuring budget; workloads size their work from it.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: smaller inputs, one set-up; output never comparable.
    pub quick: bool,
    pub rec: Recorder,
    values: BTreeMap<&'static str, Value>,
    pub checks: Vec<Check>,
    /// Free-form lines printed under the table (per-segment values…).
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV of trace + member tables + counters (simulator workloads).
    pub fingerprint: Option<u64>,
}

impl Run {
    pub fn new(seed: u64, seconds: f64, trace: bool, quick: bool) -> Run {
        Run {
            seed,
            seconds,
            trace,
            quick,
            rec: Recorder::new(trace),
            values: BTreeMap::new(),
            checks: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            fingerprint: None,
        }
    }

    fn def(name: &str) -> &'static MetricDef {
        registry::find(name).unwrap_or_else(|| panic!("metric {name} is not in the registry"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.set_n(name, value, 1);
    }

    pub fn set_n(&mut self, name: &str, value: f64, samples: usize) {
        self.values.insert(
            Self::def(name).name,
            Value {
                value,
                samples,
                spread: None,
                tail: None,
            },
        );
    }

    /// Records a summary's median, scaled into the metric's unit.
    pub fn set_summary(&mut self, name: &str, s: &Summary, scale: f64) {
        self.values.insert(
            Self::def(name).name,
            Value {
                value: s.median * scale,
                samples: s.samples,
                spread: s.spread,
                tail: s.tail.map(|(p, v)| (p, v * scale)),
            },
        );
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// Fails the run unless the row `name` was reported and reads at most
    /// `limit`.
    pub fn check_at_most(&mut self, name: &'static str, limit: f64) {
        let value = self.values.get(name).map(|v| v.value);
        self.check(
            name,
            value.is_some_and(|v| v <= limit),
            format!("{value:?}, limit {limit}"),
        );
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The table a person reads: every value with unit, sample count and
    /// spread, then the checks.
    pub fn print_table(&self, workload: &str) {
        println!(
            "== {workload} (seed {}, {} s, trace {}{}) ==",
            self.seed,
            self.seconds,
            self.trace as u8,
            if self.quick {
                ", QUICK: not comparable"
            } else {
                ""
            }
        );
        if let Some(w) = registry::WORKLOADS.iter().find(|w| w.name == workload) {
            println!("why: {}", w.why);
        }
        println!(
            "{:<36} {:>16} {:<7} {:<6} {:>8} {:>9}  tail",
            "metric", "value", "unit", "better", "samples", "spread"
        );
        let ordered = registry::END_TO_END
            .iter()
            .chain(registry::PER_LAYER.iter());
        for def in ordered {
            let Some(v) = self.values.get(def.name) else {
                continue;
            };
            let spread = v
                .spread
                .map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            let tail = v
                .tail
                .map_or(String::new(), |(p, t)| format!("p{p}={t:.4}"));
            let bound = def
                .bound
                .map_or(String::new(), |b| format!(" [bound {:.0}%]", b * 100.0));
            println!(
                "{:<36} {:>16.4} {:<7} {:<6} {:>8} {:>9}  {tail}{bound}",
                def.name,
                v.value,
                def.unit,
                def.better.as_str(),
                v.samples,
                spread
            );
        }
        for note in &self.notes {
            println!("note {note}");
        }
        for c in &self.checks {
            println!(
                "check {:<34} {}  {}",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            );
        }
        if let Some(fp) = self.fingerprint {
            println!("fingerprint {fp:016x}");
        }
        println!("attempted {} failed {}", self.attempted, self.failed);
    }

    /// The result line: every end-to-end metric untraced, every per-layer
    /// metric traced. A per-layer row this workload does not execute
    /// reads 0; a missing end-to-end value is a bug in the workload.
    pub fn result_json(&self) -> String {
        let mut metrics = String::new();
        let defs: &[MetricDef] = if self.trace {
            &registry::PER_LAYER
        } else {
            &registry::END_TO_END
        };
        for (i, def) in defs.iter().enumerate() {
            let value = match self.values.get(def.name) {
                Some(v) => v.value,
                None if self.trace => 0.0,
                None => panic!("workload did not report end-to-end metric {}", def.name),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(value),
                def.unit
            );
        }
        let quick = if self.quick { ", \"quick\": true" } else { "" };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}{quick}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A finite JSON number with all its digits (`NaN`/`inf` would not parse).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_result_has_exactly_the_end_to_end_metrics() {
        let mut run = Run::new(1, 1.0, false, false);
        for def in &registry::END_TO_END {
            run.set(def.name, 1.5);
        }
        run.set("sim.converge_s", 8.0);
        run.attempted = 10;
        let json = run.result_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!json.contains("sim.converge_s") && !json.contains("quick"));
        assert_eq!(
            json.matches("\"value\"").count(),
            registry::END_TO_END.len()
        );
        run.check("x", false, "boom");
        run.quick = true;
        assert!(
            run.result_json().starts_with("{\"correct\": false")
                && run.result_json().ends_with("\"quick\": true}")
        );
    }

    #[test]
    fn limit_checks_need_the_row_and_hold_it_to_the_limit() {
        let mut run = Run::new(1, 1.0, false, false);
        run.check_at_most("detector.detect_p50_s", 13.5);
        assert!(!run.correct(), "a row that was never reported fails");
        let mut run = Run::new(1, 1.0, false, false);
        run.set("detector.detect_p50_s", 13.5);
        run.check_at_most("detector.detect_p50_s", 13.5);
        assert!(run.correct());
        run.set("detector.dissem_p50_s", 14.01);
        run.check_at_most("detector.dissem_p50_s", 14.0);
        assert!(!run.correct());
    }

    #[test]
    fn traced_result_has_every_per_layer_metric_and_zero_for_unexecuted_layers() {
        let mut run = Run::new(1, 1.0, true, false);
        run.set("proto.decode_packet_ns", 120.25);
        let json = run.result_json();
        assert_eq!(json.matches("\"value\"").count(), registry::PER_LAYER.len());
        assert!(json.contains("\"proto.decode_packet_ns\": {\"value\": 120.25, \"unit\": \"ns\"}"));
        assert!(json.contains("\"net.idle_wakeups_per_s\": {\"value\": 0, \"unit\": \"1/s\"}"));
        assert!(!json.contains("\"setup_s\""));
    }
}
