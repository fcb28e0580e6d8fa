//! Every workload and metric the benchmark knows, by name.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! below fails when the two drift apart.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics carry the share of the parent's median by which
    /// they may worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn low(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn high(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "steady-2k",
        why: "2000 all-real nodes, full mesh, no faults: footprint-, timer- and simulator-bound, bare ping/ack packets, empty broadcast queue; reads only",
    },
    WorkloadDef {
        name: "churn-512",
        why: "512 nodes join through node-0, then metadata updates and crashes: the same membership, broadcast and codec layers used for writes, full gossip packets, push-pull, suspicion on real failures",
    },
    WorkloadDef {
        name: "anomaly-128",
        why: "the paper's 128-node cluster under Interval and Threshold anomalies with 0.5% loss: tiny tables, so suspicion, LHM, nack and timer reschedule dominate; carries the paper's outcome metrics",
    },
    WorkloadDef {
        name: "net-hub-1k",
        why: "one reactor agent with 1000 members on real loopback sockets serving 32 outstanding pings from one scripted peer: only net::reactor, the polling shim and syscalls do the work",
    },
];

/// One *op* is the unit of served work: a simulated node-second on the
/// simulator workloads, one answered ping on `net-hub-1k`.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", 0.25),
    e2e("host_us_per_op", "us", 0.25),
    e2e("cpu_us_per_op", "us", 0.25),
    e2e("peak_rss_mb", "MB", 0.20),
    e2e("msgs_per_op", "msg/op", 0.05),
    e2e("bytes_per_op", "B/op", 0.10),
];

pub const PER_LAYER: [MetricDef; 83] = [
    // The detector's outcome rows: what the issue listed end to end but
    // which exist on some workloads only (see README, "Demoted"). They
    // repeat exactly for a seed, and the workloads check them against
    // limits.
    low("sim.converge_s", "s"),
    low("detector.detect_p50_s", "s"),
    low("detector.detect_p90_s", "s"),
    low("detector.dissem_p50_s", "s"),
    low("detector.fp_events", "count"),
    low("detector.fp_events_seed_sd", "count"),
    // proto (codec, compound)
    low("proto.decode_ns_per_msg", "ns"),
    low("proto.decode_packet_ns", "ns"),
    low("proto.encode_packet_ns", "ns"),
    low("proto.msgs_per_packet", "count"),
    low("proto.packet_bytes_p50", "B"),
    low("proto.pushpull_encode_us", "us"),
    low("proto.pushpull_decode_us", "us"),
    // core::membership
    low("membership.get_ns", "ns"),
    low("membership.update_ns", "ns"),
    low("membership.upsert_ns", "ns"),
    low("membership.sample3_ns", "ns"),
    low("membership.changed_since_ns", "ns"),
    low("membership.bytes_per_entry", "B"),
    // core::broadcast
    low("broadcast.enqueue_ns", "ns"),
    low("broadcast.fill_ns", "ns"),
    high("broadcast.fill_msgs", "count"),
    low("broadcast.depth_peak", "count"),
    // core::timer_wheel
    low("timer.schedule_ns", "ns"),
    low("timer.cancel_ns", "ns"),
    low("timer.reschedule_ns", "ns"),
    low("timer.pop_due_ns", "ns"),
    // core::node + core::driver
    low("node.handle_ping_ns", "ns"),
    low("node.handle_ack_ns", "ns"),
    low("node.handle_gossip_fresh_ns", "ns"),
    low("node.handle_gossip_dup_ns", "ns"),
    low("node.tick_ns", "ns"),
    low("node.merge_pushpull_us", "us"),
    low("node.allocs_per_handle", "count"),
    // core::{suspicion, awareness, probe_list}
    low("detector.probes_sent", "count"),
    low("detector.probes_failed", "count"),
    low("detector.indirect_sent", "count"),
    low("detector.suspicions_raised", "count"),
    low("detector.refutations", "count"),
    low("detector.failures_declared", "count"),
    low("detector.flaps", "count"),
    low("detector.lhm_peak", "count"),
    low("detector.suspicion_lifetime_p50_s", "s"),
    low("detector.probe_rtt_p50_ms", "ms"),
    // core anti-entropy
    low("sync.delta_count", "count"),
    low("sync.delta_bytes", "B"),
    low("sync.full_fallbacks", "count"),
    // sim (cluster, lanes, event_queue, network, trace)
    low("sim.slice_ms_p50", "ms"),
    low("sim.slice_ms_p99", "ms"),
    low("sim.host_us_per_datagram", "us"),
    low("sim.build_cpu_s", "s"),
    low("sim.event_queue_push_pop_ns", "ns"),
    low("sim.network_draw_ns", "ns"),
    low("sim.trace_events", "count"),
    low("sim.snapshot_all_ms", "ms"),
    low("sim.cpu_user_ms_per_sim_s", "ms"),
    // net (agent, reactor, transport, polling shim)
    low("net.rtt_w1_p50_us", "us"),
    low("net.rtt_w1_p99_us", "us"),
    low("net.rtt_w32_p50_us", "us"),
    low("net.rtt_w32_p99_us", "us"),
    low("net.send_syscalls_per_ack", "count"),
    low("net.recv_syscalls_per_ack", "count"),
    low("net.wakeups_per_ack", "count"),
    high("net.datagrams_per_send_syscall", "count"),
    low("net.idle_wakeups_per_s", "1/s"),
    low("net.inject_ms", "ms"),
    low("net.frame_decode_us", "us"),
    low("net.metrics_call_us", "us"),
    low("net.generator_cpu_us_per_ack", "us"),
    high("net.agent_busy_share", "%"),
    // metrics
    low("metrics.hist_record_ns", "ns"),
    low("metrics.snapshot_encode_us", "us"),
    low("metrics.snapshot_decode_us", "us"),
    // reference (SWIM on shared seeds) and the harness itself
    low("ref.swim.fp_events", "count"),
    low("ref.swim.detect_p50_s", "s"),
    low("ref.swim.msgs_per_node_s", "1/s"),
    low("ref.fp_pct_of_swim", "%"),
    low("ref.detect_overhead_pct", "%"),
    low("ref.msg_overhead_pct", "%"),
    low("trace.overhead_pct", "%"),
    low("trace.spans", "count"),
    // Work the measured part did, the base of every per-op ratio.
    high("harness.ops", "count"),
    high("harness.measured_s", "s"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// A name starts with a letter or digit and is made of at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let body = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(body)
}

/// A unit is made of at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn name_rule_accepts_and_rejects() {
        for ok in [
            "setup_s",
            "steady-2k",
            "proto.decode_ns_per_msg",
            "2k",
            "A-b.c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            "-lead",
            ".lead",
            "_lead",
            "has space",
            "slash/no",
            "pct%",
            "é",
            &too_long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("msg/op") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit("seventeen-letters"));
    }

    #[test]
    fn registry_names_are_valid_and_used_once() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()) && PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is written by hand to the driver's contract; this
    /// keeps it equal to what the program prints.
    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let flat: String = file.split_whitespace().collect();
        for w in &WORKLOADS {
            let why: String = w.why.split_whitespace().collect();
            assert!(
                flat.contains(&format!("{{\"name\":\"{}\",\"why\":\"{why}\"}}", w.name)),
                "{}",
                w.name
            );
        }
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.unwrap()
            );
            assert!(flat.contains(&entry), "{entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(flat.contains(&entry), "{entry}");
        }
        let listed = flat.matches("{\"name\":").count();
        assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }
}
