//! `net-hub-1k`: one default reactor agent holding 1000 members, all of
//! them played by the benchmark's single UDP socket, serving a closed
//! loop of 32 outstanding pings from one generator thread. Traffic
//! crosses the host's loopback interface, never a real link.
//!
//! Why: the only workload where `net::reactor`, the polling shim and
//! system calls do the work and the protocol core does almost none.
//! Two threads in total — the generator and the agent's reactor — which
//! is this host's `nproc`.

use std::io;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::api::{self, HubAgent, Message, NodeAddr, NodeName, Totals};
use crate::host;
use crate::peer::Peer;
use crate::report::Run;
use crate::rig::Shape;
use crate::stats;
use crate::workloads::{
    derive_seed, report_counters, report_end_to_end, timed, traced_segment, Segments, Traffic,
};

const MEMBERS: usize = 1000;
const WINDOW: usize = 32;
const SEGMENTS: usize = 10;
/// Served before every segment's clock starts, on that segment's fresh agent.
const WARM_UP: Duration = Duration::from_millis(100);
const INJECT_LIMIT: Duration = Duration::from_secs(10);
const META_BYTES: usize = 8;
/// Share of the measuring budget spent at window 1, and again idle, for
/// the per-layer rows of a traced run.
const SIDE_PHASE_SHARE: f64 = 0.2;
const RTT_SAMPLES: usize = 4_000_000;

/// The membership the agent is handed: seeded names' metadata, every
/// address the peer's socket.
fn roster(peer: &Peer, seed: u64) -> Message {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 3));
    api::push_pull_reply((0..MEMBERS).map(|i| {
        let meta: Vec<u8> = (0..META_BYTES).map(|_| rng.random()).collect();
        (
            NodeName::from(format!("m{i:04}")),
            peer.addr(),
            1,
            Bytes::from(meta),
        )
    }))
}

/// One set-up: starts an agent, injects the roster through one push-pull
/// reply and returns once the agent counts everyone alive, with the wall
/// seconds that took. The wait polls without sleeping: the whole set-up
/// is ~1.5 ms, and a sleep's granularity would be most of the reading.
fn set_up(
    run: &mut Run,
    sender: NodeAddr,
    roster: &Message,
    rep: u32,
) -> io::Result<(HubAgent, f64)> {
    let (agent, wall_s, _) = timed(|| -> io::Result<HubAgent> {
        let agent = run.rec.span("net.start", rep, |_| {
            HubAgent::start(derive_seed(run.seed, 4))
        })?;
        let begun = Instant::now();
        run.rec.span("net.inject", rep, |_| -> io::Result<()> {
            agent.send_stream(sender, roster)?;
            while agent.num_alive() < MEMBERS + 1 {
                if begun.elapsed() > INJECT_LIMIT {
                    return Err(io::Error::other(format!(
                        "injection stalled at {} members",
                        agent.num_alive()
                    )));
                }
                thread::yield_now();
            }
            Ok(())
        })?;
        Ok(agent)
    });
    Ok((agent?, wall_s))
}

/// What is wrong with segment `seg`'s agent, unless it counts everyone
/// alive at LHM 0.
fn complaint(agent: &HubAgent, seg: usize) -> Option<String> {
    let (alive, (_, lhm)) = (agent.num_alive(), agent.totals());
    (alive != MEMBERS + 1 || lhm != 0).then(|| format!("agent {seg}: {alive} alive, LHM {lhm}"))
}

/// Reports the median and p99 of millions of round trips from one sort.
fn report_rtt(run: &mut Run, p50_row: &str, p99_row: &str, rtt_ns: &mut [u32]) {
    rtt_ns.sort_unstable();
    let at = |p: f64| {
        let rank = (p / 100.0 * rtt_ns.len().saturating_sub(1) as f64).round() as usize;
        rtt_ns.get(rank).map_or(0.0, |&ns| f64::from(ns) / 1e3)
    };
    run.set_n(p50_row, at(50.0), rtt_ns.len());
    run.set_n(p99_row, at(99.0), rtt_ns.len());
}

pub fn run(run: &mut Run) -> io::Result<Shape> {
    let mut peer = Peer::bind()?;
    let roster = roster(&peer, run.seed);
    let mut rtt_w32 = Vec::with_capacity(if run.trace { RTT_SAMPLES } else { 0 });
    let segment = Duration::from_secs_f64(run.seconds / SEGMENTS as f64);
    let mut setup_s = Vec::new();
    let mut segments = Segments::default();
    let mut traffic = Traffic::default();
    // Counters of every agent from its start, for the detector rows.
    let mut lifetime = Totals::default();
    let (mut sent, mut lost, mut generator_cpu_s, mut agent_cpu_s) = (0, 0, 0.0, 0.0);
    let (mut send_syscalls, mut recv_syscalls, mut wakeups) = (0, 0, 0);
    let mut unhealthy = Vec::new();
    // Every segment serves from a fresh agent, so the set-up is sampled
    // all through the run and not in one burst that a slow spell of the
    // host covers whole.
    let mut agent: Option<HubAgent> = None;
    for seg in 0..SEGMENTS {
        if let Some(previous) = agent.take() {
            previous.shutdown();
        }
        let (fresh, wall_s) = set_up(run, peer.addr(), &roster, seg as u32)?;
        setup_s.push(wall_s);
        peer.attach(fresh.addr(), fresh.name());
        peer.serve(WARM_UP, WINDOW, &mut run.rec, false, None)?;

        let traced = traced_segment(run, seg);
        let (before, _) = fresh.totals();
        let agent_cpu = host::other_threads_cpu_ns();
        let (served, wall_s, gen_cpu_s) = timed(|| {
            run.rec.span("segment", seg as u32, |rec| {
                peer.serve(
                    segment,
                    WINDOW,
                    rec,
                    traced,
                    run.trace.then_some(&mut rtt_w32),
                )
            })
        });
        let served = served?;
        let cpu_s = (host::other_threads_cpu_ns() - agent_cpu) as f64 / 1e9;
        segments.push(served.acks as f64, wall_s, cpu_s, traced);
        sent += served.sent;
        lost += served.lost;
        generator_cpu_s += gen_cpu_s;
        agent_cpu_s += cpu_s;

        let (after, _) = fresh.totals();
        traffic = traffic.plus(Traffic::between(&before, &after));
        send_syscalls += after.send_syscalls - before.send_syscalls;
        recv_syscalls += after.recv_syscalls - before.recv_syscalls;
        wakeups += after.wakeups - before.wakeups;
        fresh.add_totals(&mut lifetime);
        unhealthy.extend(complaint(&fresh, seg));
        agent = Some(fresh);
    }
    let agent = agent.expect("at least one segment");

    let acks: f64 = segments.ops.iter().sum();
    let measured_s: f64 = segments.wall_s.iter().sum();
    run.attempted = sent;
    run.failed = lost;
    report_end_to_end(run, &setup_s, &segments, &traffic, acks.max(1.0));
    report_counters(run, &Totals::default(), &lifetime);
    if let Some(ms) = stats::median(&run.rec.durations("net.inject")) {
        run.set_n("net.inject_ms", ms / 1e6, SEGMENTS);
    }
    run.set(
        "net.generator_cpu_us_per_ack",
        generator_cpu_s * 1e6 / acks.max(1.0),
    );
    run.set("net.agent_busy_share", agent_cpu_s / measured_s * 100.0);
    run.set(
        "net.send_syscalls_per_ack",
        send_syscalls as f64 / acks.max(1.0),
    );
    run.set(
        "net.recv_syscalls_per_ack",
        recv_syscalls as f64 / acks.max(1.0),
    );
    run.set("net.wakeups_per_ack", wakeups as f64 / acks.max(1.0));
    run.set(
        "net.datagrams_per_send_syscall",
        traffic.datagrams as f64 / send_syscalls.max(1) as f64,
    );

    if run.trace {
        report_rtt(
            run,
            "net.rtt_w32_p50_us",
            "net.rtt_w32_p99_us",
            &mut rtt_w32,
        );
        // One ping outstanding: the latency of a lone probe. Bimodal from
        // one invocation to the next (scheduler placement), so never a gate.
        let side = Duration::from_secs_f64(run.seconds * SIDE_PHASE_SHARE);
        let mut rtt_w1 = Vec::with_capacity(RTT_SAMPLES / 8);
        let served = run.rec.span("net.window_1", 0, |rec| {
            peer.serve(side, 1, rec, true, Some(&mut rtt_w1))
        })?;
        lost += served.lost;
        report_rtt(run, "net.rtt_w1_p50_us", "net.rtt_w1_p99_us", &mut rtt_w1);
        // Idle: the peer only answers the agent's own probes.
        let (idle_before, _) = agent.totals();
        let begun = Instant::now();
        run.rec
            .span("net.idle", 0, |rec| peer.serve(side, 0, rec, false, None))?;
        let (idle_after, _) = agent.totals();
        run.set(
            "net.idle_wakeups_per_s",
            (idle_after.wakeups - idle_before.wakeups) as f64 / begun.elapsed().as_secs_f64(),
        );

        let calls: Vec<f64> = (0..32)
            .map(|_| timed(|| run.rec.span("net.metrics", 0, |_| agent.totals())).1 * 1e6)
            .collect();
        run.set_n(
            "net.metrics_call_us",
            stats::median(&calls).unwrap_or(0.0),
            calls.len(),
        );
        let frame = api::encode_frame(peer.addr(), &roster);
        let decodes: Vec<f64> = (0..32)
            .map(|_| {
                timed(|| {
                    run.rec
                        .span("net.frame_decode", 0, |_| api::decode_frame(&frame))
                })
                .1 * 1e6
            })
            .collect();
        run.set_n(
            "net.frame_decode_us",
            stats::median(&decodes).unwrap_or(0.0),
            decodes.len(),
        );
    }

    // Once more after the side phases of a traced run.
    unhealthy.extend(complaint(&agent, SEGMENTS - 1));
    agent.shutdown();
    run.check(
        "every agent ended with 1001 alive at LHM 0",
        unhealthy.is_empty(),
        unhealthy.join("; "),
    );
    run.check(
        "no unanswered ping",
        lost == 0,
        format!("{lost} of {sent} pings unanswered within 500 ms"),
    );
    Ok(Shape {
        roster: MEMBERS,
        datagram_bytes: traffic.mean_datagram_bytes(),
        // The agent is only ever pinged: no gossip share to mimic.
        datagrams_per_node_s: 1.0,
    })
}
