//! Run-level aggregation: merging per-node [`Snapshot`]s and
//! rendering the text dashboard / JSON report of the `swim-metrics`
//! binary.

use std::fmt::Write as _;

use crate::snapshot::Snapshot;

/// Per-node snapshots of one run plus their merged totals.
#[derive(Clone, Debug, Default)]
pub struct Aggregate {
    nodes: Vec<(String, Snapshot)>,
    merged: Snapshot,
}

impl Aggregate {
    /// An empty aggregate.
    pub fn new() -> Aggregate {
        Aggregate::default()
    }

    /// Folds one node's snapshot in. Counters and histograms sum;
    /// level gauges keep the worst value across nodes (an aggregate
    /// LHM of 3 means *some* node degraded that far).
    pub fn add(&mut self, name: &str, snap: Snapshot) {
        let m = &mut self.merged.core;
        let c = &snap.core;
        m.lhm = m.lhm.max(c.lhm);
        m.lhm_peak = m.lhm_peak.max(c.lhm_peak);
        m.lhm_max = m.lhm_max.max(c.lhm_max);
        m.probes_sent = m.probes_sent.saturating_add(c.probes_sent);
        m.probes_failed = m.probes_failed.saturating_add(c.probes_failed);
        m.indirect_probes_sent = m.indirect_probes_sent.saturating_add(c.indirect_probes_sent);
        m.suspicions_raised = m.suspicions_raised.saturating_add(c.suspicions_raised);
        m.refutations = m.refutations.saturating_add(c.refutations);
        m.failures_declared = m.failures_declared.saturating_add(c.failures_declared);
        m.flaps = m.flaps.saturating_add(c.flaps);
        m.broadcast_queue_depth = m.broadcast_queue_depth.saturating_add(c.broadcast_queue_depth);
        m.broadcast_queue_peak = m.broadcast_queue_peak.max(c.broadcast_queue_peak);
        m.delta_syncs = m.delta_syncs.saturating_add(c.delta_syncs);
        m.delta_sync_bytes = m.delta_sync_bytes.saturating_add(c.delta_sync_bytes);
        m.full_sync_fallbacks = m.full_sync_fallbacks.saturating_add(c.full_sync_fallbacks);
        m.probe_rtt.merge(&c.probe_rtt);
        m.suspicion_lifetime.merge(&c.suspicion_lifetime);
        let mi = &mut self.merged.io;
        let i = &snap.io;
        mi.send_syscalls = mi.send_syscalls.saturating_add(i.send_syscalls);
        mi.sendmmsg_batches = mi.sendmmsg_batches.saturating_add(i.sendmmsg_batches);
        mi.datagrams_sent = mi.datagrams_sent.saturating_add(i.datagrams_sent);
        mi.datagram_bytes = mi.datagram_bytes.saturating_add(i.datagram_bytes);
        mi.send_errors = mi.send_errors.saturating_add(i.send_errors);
        mi.would_block_drops = mi.would_block_drops.saturating_add(i.would_block_drops);
        mi.recv_syscalls = mi.recv_syscalls.saturating_add(i.recv_syscalls);
        mi.datagrams_received = mi.datagrams_received.saturating_add(i.datagrams_received);
        mi.recv_truncations = mi.recv_truncations.saturating_add(i.recv_truncations);
        mi.streams_sent = mi.streams_sent.saturating_add(i.streams_sent);
        mi.stream_bytes = mi.stream_bytes.saturating_add(i.stream_bytes);
        mi.wakeups = mi.wakeups.saturating_add(i.wakeups);
        self.nodes.push((name.to_string(), snap));
    }

    /// Number of nodes folded in.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether anything was folded in.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The merged totals.
    pub fn merged(&self) -> &Snapshot {
        &self.merged
    }

    /// The per-node snapshots in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = (&str, &Snapshot)> {
        self.nodes.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// The human-readable run dashboard.
    pub fn dashboard(&self) -> String {
        let mut out = String::with_capacity(2048);
        let c = &self.merged.core;
        let io = &self.merged.io;
        let _ = writeln!(out, "swim-metrics · {} node(s)", self.nodes.len());
        let _ = writeln!(
            out,
            "  health      lhm now {} / peak {} (ceiling {})",
            c.lhm, c.lhm_peak, c.lhm_max
        );
        let _ = writeln!(
            out,
            "  probing     {} sent · {} failed · {} indirect",
            c.probes_sent, c.probes_failed, c.indirect_probes_sent
        );
        let _ = writeln!(out, "  probe rtt   {}", hist_line(&c.probe_rtt));
        let _ = writeln!(
            out,
            "  suspicion   {} raised · {} refuted-by-target · {} declared dead · {} flaps",
            c.suspicions_raised, c.refutations, c.failures_declared, c.flaps
        );
        let _ = writeln!(out, "  susp life   {}", hist_line(&c.suspicion_lifetime));
        let _ = writeln!(
            out,
            "  anti-entropy {} delta msgs ({} B) · {} full-state exchanges",
            c.delta_syncs, c.delta_sync_bytes, c.full_sync_fallbacks
        );
        let _ = writeln!(
            out,
            "  broadcast q {} queued · peak {}",
            c.broadcast_queue_depth, c.broadcast_queue_peak
        );
        let _ = writeln!(
            out,
            "  io          {} dgrams out ({} B, {} syscalls, {} mmsg batches) · {} in · {} streams ({} B) · {} wakeups",
            io.datagrams_sent,
            io.datagram_bytes,
            io.send_syscalls,
            io.sendmmsg_batches,
            io.datagrams_received,
            io.streams_sent,
            io.stream_bytes,
            io.wakeups
        );
        if io.send_errors + io.would_block_drops + io.recv_truncations > 0 {
            let _ = writeln!(
                out,
                "  io errors   {} send errors · {} would-block drops · {} truncations",
                io.send_errors, io.would_block_drops, io.recv_truncations
            );
        }
        if !self.nodes.is_empty() {
            let _ = writeln!(
                out,
                "  {:<18} {:>4} {:>8} {:>7} {:>5} {:>5} {:>9}",
                "node", "lhm", "probes", "failed", "susp", "flaps", "dgrams"
            );
            for (name, s) in &self.nodes {
                let _ = writeln!(
                    out,
                    "  {:<18} {:>4} {:>8} {:>7} {:>5} {:>5} {:>9}",
                    truncate(name, 18),
                    s.core.lhm,
                    s.core.probes_sent,
                    s.core.probes_failed,
                    s.core.suspicions_raised,
                    s.core.flaps,
                    s.io.datagrams_sent
                );
            }
        }
        out
    }

    /// The aggregate as JSON: `{"nodes": {...}, "total": {...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        self.write_json(&mut out);
        out
    }

    /// Writes the aggregate JSON object into `out`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"nodes\":{");
        for (i, (name, snap)) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(out, name);
            out.push_str("\":");
            snap.write_json(out);
        }
        out.push_str("},\"total\":");
        self.merged.write_json(out);
        out.push('}');
    }
}

/// One-line histogram summary for the dashboard.
fn hist_line(h: &crate::Histogram) -> String {
    match (h.quantile(50.0), h.quantile(99.0)) {
        (Some(p50), Some(p99)) => format!(
            "n={} p50={:.1}ms p99={:.1}ms max={:.1}ms",
            h.count(),
            p50 / 1000.0,
            p99 / 1000.0,
            h.max() as f64 / 1000.0
        ),
        _ => "n=0".to_string(),
    }
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((idx, _)) => &s[..idx],
        None => s,
    }
}

/// Minimal JSON string escaping (node names are operator-chosen).
fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let mut a = Aggregate::new();
        let mut s1 = Snapshot::default();
        s1.core.lhm = 1;
        s1.core.probes_sent = 10;
        s1.core.probe_rtt.record(1000);
        let mut s2 = Snapshot::default();
        s2.core.lhm = 3;
        s2.core.probes_sent = 5;
        s2.io.wakeups = 9;
        a.add("n1", s1);
        a.add("n2", s2);
        assert_eq!(a.len(), 2);
        assert_eq!(a.merged().core.lhm, 3);
        assert_eq!(a.merged().core.probes_sent, 15);
        assert_eq!(a.merged().core.probe_rtt.count(), 1);
        assert_eq!(a.merged().io.wakeups, 9);
    }

    #[test]
    fn dashboard_and_json_render() {
        let mut a = Aggregate::new();
        let mut s = Snapshot::default();
        s.core.probes_sent = 42;
        a.add("node-\"x\"", s);
        let dash = a.dashboard();
        assert!(dash.contains("42 sent"));
        let json = a.to_json();
        assert!(json.contains("\"node-\\\"x\\\"\""));
        assert!(json.contains("\"total\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
