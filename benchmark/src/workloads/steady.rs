//! `steady-2k`: 2000 all-real nodes in a full mesh on a loss-free
//! loopback network, nothing failing.
//!
//! Why: four million table entries (~1.1 GB) make it footprint-, timer-
//! and simulator-bound; packets are bare pings and acks and the broadcast
//! queue is empty, so the membership and broadcast layers are only read.
//! An optimisation of the write path must leave this workload unchanged.

use crate::api::{ClusterSpec, Conclusion, Protocol, SimCluster};
use crate::host;
use crate::report::Run;
use crate::rig::Shape;
use crate::workloads::{
    report_counters, report_simulated, timed, traced_segment, Segments, Traffic,
};

const NODES: usize = 2000;
/// `--quick` halves the cluster (a quarter of the tables): a smoke run
/// of the same code paths, never comparable.
const QUICK_NODES: usize = 1000;
const SEGMENTS: usize = 10;
/// Simulated seconds per segment and per second of measuring budget:
/// at ~22 host ms per simulated second the ten segments fill the budget.
/// (Deliberately not a multiple of the 30 s push-pull period at the
/// default budget, so the sync count depends on the seeded timer phases.)
const SIM_S_PER_BUDGET_S: f64 = 4.4;
/// Anti-entropy starts cold: until every node has its warm delta-sync
/// partners (~225 simulated s) exchanges are full-state and the work
/// per simulated second falls steadily. Measuring starts after that.
const WARM_UP_SIM_S: u64 = 225;

pub fn run(run: &mut Run) -> Shape {
    let nodes = if run.quick { QUICK_NODES } else { NODES };
    let spec = ClusterSpec {
        n: nodes,
        protocol: Protocol::Lifeguard,
        seed: run.seed,
        full_mesh: true,
        datagram_loss: 0.0,
        anomalies: Vec::new(),
    };
    // Set-up: the build is page-fault bound and its first repetition in a
    // process is the slowest, so it is repeated and the median reported.
    let builds = if run.quick { 1 } else { 5 };
    let mut setup_s = Vec::new();
    let mut cluster = None;
    for rep in 0..builds {
        drop(cluster.take());
        let (built, wall_s, cpu_s) =
            timed(|| run.rec.span("sim.build", rep, |_| SimCluster::build(&spec)));
        setup_s.push(wall_s);
        run.set("sim.build_cpu_s", cpu_s);
        cluster = Some(built);
    }
    let mut cluster = cluster.expect("at least one build");

    let warm_up = if run.quick { 20 } else { WARM_UP_SIM_S };
    run.rec.span("sim.warm_up", 0, |_| {
        cluster.run_for_us(warm_up * 1_000_000)
    });

    let seg_sim_s = ((SIM_S_PER_BUDGET_S * run.seconds).round() as u64).max(1);
    let (before, _, snapshot_s) = timed(|| {
        run.rec
            .span("sim.metrics_snapshot", 0, |_| cluster.totals())
    });
    let user_ms = host::process_user_ms();
    let mut segments = Segments::default();
    for seg in 0..SEGMENTS {
        let traced = traced_segment(run, seg);
        let ((), wall_s, cpu_s) = timed(|| {
            run.rec.span("segment", seg as u32, |rec| {
                if traced {
                    for _ in 0..seg_sim_s {
                        rec.span("sim.run_for", seg as u32, |_| cluster.run_for_us(1_000_000));
                    }
                } else {
                    cluster.run_for_us(seg_sim_s * 1_000_000);
                }
            })
        });
        segments.push((nodes as u64 * seg_sim_s) as f64, wall_s, cpu_s, traced);
    }
    let user_ms = host::process_user_ms() - user_ms;
    let after = cluster.totals();

    let sim_s = (SEGMENTS as u64 * seg_sim_s) as f64;
    run.attempted = after.probes_sent - before.probes_sent;
    run.failed = after.probes_failed - before.probes_failed;
    let sent = Traffic::between(&before, &after);
    let shape = report_simulated(run, nodes, &setup_s, &segments, &sent, sim_s);
    report_counters(run, &before, &after);
    run.set("sim.snapshot_all_ms", snapshot_s * 1e3);
    run.set("sim.cpu_user_ms_per_sim_s", user_ms / sim_s);
    run.set("sim.trace_events", cluster.trace_len() as f64);

    let fp_events = run.rec.span("trace.reduce", 0, |_| {
        cluster
            .trace_records()
            .filter(|r| r.kind == Conclusion::Failed)
            .count()
    });
    run.set("detector.fp_events", fp_events as f64);
    run.check(
        "converged",
        cluster.all_count_alive(0..nodes, nodes),
        format!("every node counts {nodes} alive members"),
    );
    run.check(
        "fp_events == 0",
        fp_events == 0,
        format!("{fp_events} failure declarations with nothing failing"),
    );
    run.check(
        "no probe round without ack",
        run.failed == 0,
        format!("{} of {} probe rounds failed", run.failed, run.attempted),
    );
    run.fingerprint = Some(cluster.fingerprint());
    shape
}
