//! The four workloads and what they share: timed segments and the
//! end-to-end rows every workload reports.

pub mod anomaly;
pub mod churn;
pub mod nethub;
pub mod steady;

use std::time::Instant;

use crate::api::Totals;
use crate::host;
use crate::report::Run;
use crate::rig::Shape;
use crate::stats;

/// Equal pieces of the measured part of a run. Every host-time metric is
/// a median over segments, because identical work on this kind of host
/// varies by tens of percent from one second to the next.
#[derive(Default)]
pub struct Segments {
    /// Ops (simulated node-seconds, or answered pings) done per segment.
    pub ops: Vec<f64>,
    pub wall_s: Vec<f64>,
    /// CPU time of the program's threads (not the load generator's).
    pub cpu_s: Vec<f64>,
    /// Whether the segment ran under spans (traced runs alternate, so
    /// the untraced half stays comparable and the other half prices the
    /// tracing).
    pub traced: Vec<bool>,
}

impl Segments {
    pub fn push(&mut self, ops: f64, wall_s: f64, cpu_s: f64, traced: bool) {
        self.ops.push(ops);
        self.wall_s.push(wall_s);
        self.cpu_s.push(cpu_s);
        self.traced.push(traced);
    }

    fn per_op_us(&self, times: &[f64], traced: bool) -> Vec<f64> {
        (0..times.len())
            .filter(|&i| self.traced[i] == traced && self.ops[i] > 0.0)
            .map(|i| times[i] / self.ops[i] * 1e6)
            .collect()
    }
}

/// Wall and calling-thread CPU seconds of `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu = host::thread_cpu_ns();
    let wall = Instant::now();
    let out = f();
    let wall_s = wall.elapsed().as_secs_f64();
    (out, wall_s, (host::thread_cpu_ns() - cpu) as f64 / 1e9)
}

/// Whether segment `index` of a run is recorded under spans.
pub fn traced_segment(run: &Run, index: usize) -> bool {
    run.trace && index % 2 == 1
}

/// What the program sent during the measured part.
#[derive(Clone, Copy, Debug, Default)]
pub struct Traffic {
    /// Datagrams plus stream messages.
    pub msgs: u64,
    /// Datagram plus stream bytes.
    pub bytes: u64,
    pub datagrams: u64,
    pub datagram_bytes: u64,
}

impl Traffic {
    pub fn between(before: &Totals, after: &Totals) -> Traffic {
        Traffic {
            msgs: after.messages() - before.messages(),
            bytes: after.bytes() - before.bytes(),
            datagrams: after.datagrams - before.datagrams,
            datagram_bytes: after.datagram_bytes - before.datagram_bytes,
        }
    }

    pub fn plus(self, other: Traffic) -> Traffic {
        Traffic {
            msgs: self.msgs + other.msgs,
            bytes: self.bytes + other.bytes,
            datagrams: self.datagrams + other.datagrams,
            datagram_bytes: self.datagram_bytes + other.datagram_bytes,
        }
    }

    pub fn mean_datagram_bytes(&self) -> f64 {
        self.datagram_bytes as f64 / self.datagrams.max(1) as f64
    }
}

/// Reports the six end-to-end rows from what every workload measures:
/// set-up samples, segments, and the messages and bytes the program sent
/// while doing `ops` ops.
pub fn report_end_to_end(
    run: &mut Run,
    setup_s: &[f64],
    segments: &Segments,
    sent: &Traffic,
    ops: f64,
) {
    let setup = stats::summarize(setup_s).expect("at least one set-up");
    run.set_summary("setup_s", &setup, 1.0);
    let wall =
        stats::summarize(&segments.per_op_us(&segments.wall_s, false)).expect("untraced segments");
    let cpu =
        stats::summarize(&segments.per_op_us(&segments.cpu_s, false)).expect("untraced segments");
    run.set_summary("host_us_per_op", &wall, 1.0);
    run.set_summary("cpu_us_per_op", &cpu, 1.0);
    run.set("peak_rss_mb", host::peak_rss_mb());
    run.set("msgs_per_op", sent.msgs as f64 / ops);
    run.set("bytes_per_op", sent.bytes as f64 / ops);
    run.set("harness.ops", ops);
    run.set("harness.measured_s", segments.wall_s.iter().sum());
    if let Some(traced) = stats::median(&segments.per_op_us(&segments.wall_s, true)) {
        run.set("trace.overhead_pct", (traced / wall.median - 1.0) * 100.0);
    }
    let per_segment: Vec<String> = segments
        .per_op_us(&segments.wall_s, false)
        .iter()
        .map(|us| format!("{us:.3}"))
        .collect();
    run.notes.push(format!(
        "host_us_per_op by untraced segment: {}",
        per_segment.join(" ")
    ));
    let per_setup: Vec<String> = setup_s.iter().map(|s| format!("{s:.5}")).collect();
    run.notes
        .push(format!("setup_s by set-up: {}", per_setup.join(" ")));
}

/// A simulator workload's report: the end-to-end rows with a simulated
/// node-second as the op, the `sim.*` rows from the same measurements,
/// and the rig's shape.
pub fn report_simulated(
    run: &mut Run,
    nodes: usize,
    setup_s: &[f64],
    segments: &Segments,
    sent: &Traffic,
    sim_s: f64,
) -> Shape {
    let ops = nodes as f64 * sim_s;
    report_end_to_end(run, setup_s, segments, sent, ops);
    let measured_s: f64 = segments.wall_s.iter().sum();
    run.set(
        "sim.host_us_per_datagram",
        measured_s * 1e6 / sent.datagrams.max(1) as f64,
    );
    // One `sim.run_for` span per simulated second of the traced segments.
    let slices: Vec<f64> = run
        .rec
        .durations("sim.run_for")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    if let Some(s) = stats::summarize(&slices) {
        run.set_summary("sim.slice_ms_p50", &s, 1.0);
        run.set_n(
            "sim.slice_ms_p99",
            stats::percentile(&slices, 99.0).unwrap_or(0.0),
            s.samples,
        );
    }
    Shape {
        roster: nodes,
        datagram_bytes: sent.mean_datagram_bytes(),
        datagrams_per_node_s: sent.datagrams as f64 / ops,
    }
}

/// The detector, anti-entropy and queue-depth rows: counter deltas over
/// the measured part, at the same boundary as the end-to-end rows.
pub fn report_counters(run: &mut Run, before: &Totals, after: &Totals) {
    let d = |a: u64, b: u64| (a - b) as f64;
    run.set(
        "detector.probes_sent",
        d(after.probes_sent, before.probes_sent),
    );
    run.set(
        "detector.probes_failed",
        d(after.probes_failed, before.probes_failed),
    );
    run.set(
        "detector.indirect_sent",
        d(after.indirect_sent, before.indirect_sent),
    );
    run.set(
        "detector.suspicions_raised",
        d(after.suspicions_raised, before.suspicions_raised),
    );
    run.set(
        "detector.refutations",
        d(after.refutations, before.refutations),
    );
    run.set(
        "detector.failures_declared",
        d(after.failures_declared, before.failures_declared),
    );
    run.set("detector.flaps", d(after.flaps, before.flaps));
    run.set("detector.lhm_peak", after.lhm_peak as f64);
    run.set(
        "detector.suspicion_lifetime_p50_s",
        after.suspicion_lifetime_p50_s(),
    );
    run.set("detector.probe_rtt_p50_ms", after.probe_rtt_p50_ms());
    run.set("sync.delta_count", d(after.delta_syncs, before.delta_syncs));
    run.set(
        "sync.delta_bytes",
        d(after.delta_sync_bytes, before.delta_sync_bytes),
    );
    run.set(
        "sync.full_fallbacks",
        d(after.full_sync_fallbacks, before.full_sync_fallbacks),
    );
    run.set("broadcast.depth_peak", after.broadcast_depth_peak as f64);
}

/// Seeds drawn from the run seed: stream `k` of run `seed`.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    // SplitMix64 finaliser: nearby seeds give unrelated streams.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
