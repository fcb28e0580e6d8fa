//! Gates on the agent's reactor over real loopback sockets: probe
//! round-trip latency, poll syscalls per probe, send batching at a
//! 1000-member fan-out and the idle wakeup rate (under two per probe
//! interval: an idle agent's gossip loop is parked).
//!
//! The workload is the failure detector's hottest wire interaction: a
//! peer sends a direct `Ping` to a running [`Agent`]'s UDP port and
//! waits for the `Ack`; the single event loop is woken by poll
//! readiness and must not quantise the round trip. Every count is the
//! measured agent's own (`Agent::metrics().io`). The peers receive into
//! buffers one byte longer than `DEFAULT_PACKET_BUDGET`, and every
//! datagram the agent sends them must fit the budget; no datagram they
//! send the agent overflows its receive ring (`recv_truncations` 0).

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lifeguard_core::config::Config;
use lifeguard_net::agent::{Agent, AgentConfig};
use lifeguard_net::transport;
use lifeguard_proto::{
    codec, Incarnation, MemberState, Message, NodeAddr, Ping, PushNodeState, PushPull, SeqNo,
    DEFAULT_PACKET_BUDGET,
};

/// Probe timing fast enough that the agent's own timers stay busy
/// during the measurement (the realistic case: RTTs are measured on a
/// node that is concurrently probing and gossiping).
fn probe_config() -> Config {
    let mut cfg = Config::lan()
        .lifeguard()
        .with_probe_timing(Duration::from_millis(200), Duration::from_millis(100));
    cfg.gossip_interval = Duration::from_millis(50);
    cfg
}

/// A running agent plus the scripted peer that pings it.
struct ProbeHarness {
    agent: Agent,
    peer: UdpSocket,
    peer_addr: NodeAddr,
    buf: Vec<u8>,
    seq: u32,
}

impl ProbeHarness {
    fn start() -> ProbeHarness {
        let agent = Agent::start(
            AgentConfig::local("target")
                .protocol(probe_config())
                .seed(1),
        )
        .expect("start agent");
        let peer = UdpSocket::bind("127.0.0.1:0").expect("bind peer");
        peer.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let peer_addr = NodeAddr::from(peer.local_addr().expect("peer addr"));
        ProbeHarness {
            agent,
            peer,
            peer_addr,
            buf: vec![0u8; DEFAULT_PACKET_BUDGET + 1],
            seq: 0,
        }
    }

    /// One probe round trip: send `Ping`, block until the matching
    /// `Ack` comes back. Panics if the agent never answers.
    fn round_trip(&mut self) -> Duration {
        self.seq += 1;
        let ping = Message::Ping(Ping {
            seq: SeqNo(self.seq),
            target: self.agent.name(),
            source: "gate-peer".into(),
            source_addr: self.peer_addr,
        });
        let encoded = codec::encode_message(&ping);
        let start = Instant::now();
        self.peer
            .send_to(&encoded, self.agent.addr())
            .expect("send ping");
        loop {
            let (len, _) = self.peer.recv_from(&mut self.buf).expect("ack within 2s");
            assert!(len <= DEFAULT_PACKET_BUDGET, "a {len}-byte datagram");
            if let Ok(Message::Ack(ack)) = codec::decode_message(&self.buf[..len]) {
                if ack.seq == SeqNo(self.seq) {
                    return start.elapsed();
                }
            }
        }
    }
}

fn median(samples: &mut [Duration]) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// Fan-out members injected into the hub agent for the batching
/// measurement (the paper-scale cluster the probe round addresses).
const FANOUT_MEMBERS: usize = 1000;
/// Loopback sockets the fake members' addresses map onto (real bound
/// destinations, so sends exercise the full kernel path).
const FANOUT_SINKS: usize = 8;
/// Counter-sampling window for the datagrams-per-syscall rate.
const FANOUT_WINDOW: Duration = Duration::from_secs(2);

/// The fan-out workload config: a wide gossip fan-out (32 targets per
/// 50 ms gossip tick) over fast probe rounds, with the stream paths
/// (push-pull, reconnect, TCP fallback probe) disabled so every wire
/// interaction is a UDP datagram.
fn fanout_config() -> Config {
    let mut cfg = probe_config();
    cfg.gossip_nodes = 32;
    cfg.push_pull_interval = None;
    cfg.reconnect_interval = None;
    cfg.stream_fallback_probe = false;
    cfg
}

/// One fan-out run's measured send batching.
struct FanoutMeasure {
    datagrams_per_send_syscall: f64,
    sendmmsg_batches: u64,
    recv_truncations: u64,
}

/// Takes every datagram queued at `sinks` and returns how many there
/// were, asserting that each fits the packet budget.
fn drain_sinks(sinks: &[UdpSocket]) -> usize {
    let mut buf = vec![0u8; DEFAULT_PACKET_BUDGET + 1];
    let mut datagrams = 0;
    for sink in sinks {
        sink.set_nonblocking(true).expect("nonblocking sink");
        while let Ok((len, _)) = sink.recv_from(&mut buf) {
            assert!(len <= DEFAULT_PACKET_BUDGET, "a {len}-byte datagram");
            datagrams += 1;
        }
    }
    datagrams
}

/// Starts a hub agent, injects [`FANOUT_MEMBERS`] members (addresses
/// spread over real loopback sink sockets) through one push-pull reply,
/// then samples the per-agent I/O counters over [`FANOUT_WINDOW`].
fn measure_fanout(sinks: &[UdpSocket]) -> FanoutMeasure {
    let agent = Agent::start(AgentConfig::local("hub").protocol(fanout_config()).seed(99))
        .expect("start hub agent");

    // Inject the membership in one shot: a push-pull *reply* merges
    // silently (no counter-reply), exactly as a join answer would.
    let states: Vec<PushNodeState> = (0..FANOUT_MEMBERS)
        .map(|i| PushNodeState {
            name: format!("m{i:04}").into(),
            addr: NodeAddr::from(sinks[i % sinks.len()].local_addr().expect("sink addr")),
            incarnation: Incarnation(1),
            state: MemberState::Alive,
            meta: Bytes::new(),
        })
        .collect();
    let from = NodeAddr::from(sinks[0].local_addr().expect("sink addr"));
    transport::send_stream(
        agent.addr(),
        from,
        &Message::PushPull(PushPull {
            join: false,
            reply: true,
            states,
        }),
    )
    .expect("inject fan-out membership");
    let inject_deadline = Instant::now() + Duration::from_secs(10);
    while agent.num_alive() < FANOUT_MEMBERS && Instant::now() < inject_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        agent.num_alive() >= FANOUT_MEMBERS,
        "membership injection stalled at {} of {FANOUT_MEMBERS}",
        agent.num_alive()
    );

    // Let the probe/gossip cadence reach steady state, then sample.
    std::thread::sleep(Duration::from_millis(500));
    let before = agent.metrics().io;
    std::thread::sleep(FANOUT_WINDOW);
    let after = agent.metrics().io;
    agent.shutdown();
    assert!(drain_sinks(sinks) > 0, "the fan-out reached no sink");

    let send_syscalls = after.send_syscalls - before.send_syscalls;
    let datagrams = after.datagrams_sent - before.datagrams_sent;
    FanoutMeasure {
        datagrams_per_send_syscall: if send_syscalls == 0 {
            0.0
        } else {
            datagrams as f64 / send_syscalls as f64
        },
        sendmmsg_batches: after.sendmmsg_batches - before.sendmmsg_batches,
        recv_truncations: after.recv_truncations,
    }
}

#[test]
fn reactor_holds_its_latency_wakeup_and_batching_gates() {
    const WARMUP: usize = 20;
    const SAMPLES: usize = 200;

    let mut reactor = ProbeHarness::start();
    for _ in 0..WARMUP {
        reactor.round_trip();
    }
    let polls_before = reactor.agent.metrics().io.wakeups;
    let mut samples: Vec<Duration> = (0..SAMPLES).map(|_| reactor.round_trip()).collect();
    let polls = reactor.agent.metrics().io.wakeups - polls_before;
    let rtt_median = median(&mut samples);
    let polls_per_probe = polls as f64 / SAMPLES as f64;
    eprintln!("reactor/rtt: median {rtt_median:?}, {polls_per_probe:.2} polls/probe");

    // Nothing on the probe path may sleep-quantise: a readiness wakeup
    // is orders of magnitude below any fixed-interval backoff.
    assert!(
        rtt_median < Duration::from_millis(1),
        "reactor probe RTT {rtt_median:?} suggests a fixed-interval sleep on the wire path"
    );
    // The loop must wake a bounded number of times per probe (readiness
    // + its own timers), not busy-poll.
    assert!(
        polls_per_probe < 16.0,
        "reactor issued {polls} polls over {SAMPLES} probes — busy loop?"
    );

    // The batching gate: a 1000-member fan-out drives wide gossip
    // bursts; sendmmsg must carry them several datagrams per syscall.
    let sinks: Vec<UdpSocket> = (0..FANOUT_SINKS)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind sink"))
        .collect();
    let fanout = measure_fanout(&sinks);
    eprintln!(
        "reactor/fanout ({FANOUT_MEMBERS} members): {:.1} datagrams/send syscall, {} sendmmsg batches",
        fanout.datagrams_per_send_syscall, fanout.sendmmsg_batches,
    );
    assert!(
        fanout.sendmmsg_batches > 0,
        "fan-out never issued a multi-datagram sendmmsg — batching is not engaging"
    );
    assert!(
        fanout.datagrams_per_send_syscall >= 4.0,
        "sendmmsg batching must carry ≥4 datagrams per send syscall at the fan-out, got {:.1}",
        fanout.datagrams_per_send_syscall,
    );

    // Idle wakeups: the first reactor has no peers and nothing to
    // gossip, so its gossip loop is parked and it wakes for its probe
    // rounds only: fewer than two wakeups per probe interval.
    let idle_window = Duration::from_millis(500);
    let polls_before = reactor.agent.metrics().io.wakeups;
    std::thread::sleep(idle_window);
    let idle_polls = reactor.agent.metrics().io.wakeups - polls_before;
    let idle_rate = idle_polls as f64 / idle_window.as_secs_f64();
    let idle_limit = 2.0 / probe_config().probe_interval.as_secs_f64();
    eprintln!("reactor/idle: {idle_rate:.0} poll wakeups/s (limit {idle_limit:.0})");
    assert!(
        idle_rate < idle_limit,
        "idle reactor woke {idle_rate:.0}×/s — an idle agent must sleep to its next probe round"
    );

    assert_eq!(fanout.recv_truncations, 0, "the fan-out agent");
    assert_eq!(reactor.agent.metrics().io.recv_truncations, 0);
    reactor.agent.shutdown();
}
