//! Sim-vs-net conformance: one scripted input trace — join, acked probe
//! rounds, suspicion, refutation, peer leave, own leave — is driven
//! through the shared sans-I/O `Driver` twice:
//!
//! * against the **simulator clock** (virtual time, a `Vec<OwnedOutput>`
//!   sink, the test playing the scripted peer inline), and
//! * against a **loopback `Agent`** (real UDP/TCP sockets driven by the
//!   single readiness-driven event loop on the wall clock),
//!
//! asserting both runs produce identical membership-state transitions
//! and the same `Event` sequence. This is the property the paper's
//! methodology rests on: the protocol logic observed in simulation is
//! the logic deployed on the network.
//!
//! The observability plane conforms too: both runs also capture the
//! core's metrics snapshot, and the subset that does not depend on
//! wall-clock scheduling (suspicion/refutation/failure/flap counts,
//! anti-entropy message counts, the LHM ceiling) must be identical.

use std::net::{TcpListener, UdpSocket};
use std::time::{Duration, Instant};

use bytes::Bytes;
use lifeguard::core::config::Config;
use lifeguard::core::driver::{Driver, OwnedOutput};
use lifeguard::core::event::Event;
use lifeguard::core::node::{Input, SwimNode};
use lifeguard::core::time::Time;
use lifeguard::metrics::{CoreSnapshot, Snapshot};
use lifeguard::net::agent::{Agent, AgentConfig};
use lifeguard::net::transport;
use lifeguard::proto::{
    codec, compound, Ack, Alive, Dead, Incarnation, MemberState, Message, NodeAddr, PushPull,
    PushNodeState,
};

const PEER: &str = "peer-b";
/// Direct probes the peer acks before going silent.
const ACKS_BEFORE_SILENCE: usize = 3;

/// The protocol configuration under test: fast probe/gossip timing so
/// the whole trace fits in a few seconds of wall clock, periodic
/// push-pull/reconnect and the stream fallback probe disabled so the
/// only stream traffic is the join itself.
fn conformance_config() -> Config {
    let mut cfg = Config::lan()
        .lifeguard()
        .with_probe_timing(Duration::from_millis(200), Duration::from_millis(100));
    cfg.gossip_interval = Duration::from_millis(50);
    cfg.suspicion_alpha = 3.0;
    cfg.suspicion_beta = 2.0;
    cfg.push_pull_interval = None;
    cfg.reconnect_interval = None;
    cfg.stream_fallback_probe = false;
    cfg
}

/// One observed membership transition: the event kind about the peer
/// plus the peer's membership state immediately after it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Observed {
    Joined(MemberState),
    Suspected(MemberState),
    Recovered(MemberState),
    Left(MemberState),
}

/// The trace every conforming run must produce.
fn expected() -> Vec<Observed> {
    vec![
        Observed::Joined(MemberState::Alive),
        Observed::Suspected(MemberState::Suspect),
        Observed::Recovered(MemberState::Alive),
        Observed::Left(MemberState::Left),
    ]
}

fn classify(event: &Event, peer_state: MemberState) -> Option<Observed> {
    match event {
        Event::MemberJoined { name } if name.as_str() == PEER => {
            Some(Observed::Joined(peer_state))
        }
        Event::MemberSuspected { name, .. } if name.as_str() == PEER => {
            Some(Observed::Suspected(peer_state))
        }
        Event::MemberRecovered { name } if name.as_str() == PEER => {
            Some(Observed::Recovered(peer_state))
        }
        Event::MemberLeft { name } if name.as_str() == PEER => Some(Observed::Left(peer_state)),
        Event::MemberFailed { name, .. } if name.as_str() == PEER => {
            panic!("peer must refute before the suspicion expires")
        }
        _ => None,
    }
}

/// The scripted peer's reaction to one decoded message from the node
/// under test, shared verbatim by the sim and net harnesses.
struct PeerScript {
    acks_sent: usize,
    refuted: bool,
}

impl PeerScript {
    fn new() -> PeerScript {
        PeerScript {
            acks_sent: 0,
            refuted: false,
        }
    }

    /// Whether the peer currently answers direct probes: it acks the
    /// first [`ACKS_BEFORE_SILENCE`] pings, goes silent until it has
    /// refuted the resulting suspicion, then answers again.
    fn acking(&self) -> bool {
        self.acks_sent < ACKS_BEFORE_SILENCE || self.refuted
    }

    /// Datagram messages the peer sends back for one received message.
    fn on_datagram_msg(&mut self, msg: &Message) -> Option<Message> {
        match msg {
            Message::Ping(p) if p.target.as_str() == PEER && self.acking() => {
                self.acks_sent += 1;
                Some(Message::Ack(Ack { seq: p.seq }))
            }
            _ => None,
        }
    }

    /// The peer's refutation (sent when the node under test suspects
    /// it).
    fn refute(&mut self, peer_addr: NodeAddr) -> Message {
        self.refuted = true;
        Message::Alive(Alive {
            incarnation: Incarnation(2),
            node: PEER.into(),
            addr: peer_addr,
            meta: Bytes::new(),
        })
    }

    /// The peer's graceful leave (sent once the refutation was
    /// observed).
    fn leave(&self) -> Message {
        Message::Dead(Dead {
            incarnation: Incarnation(2),
            node: PEER.into(),
            from: PEER.into(),
        })
    }

    /// The push-pull reply to the node's join.
    fn join_reply(&self, peer_addr: NodeAddr) -> Message {
        Message::PushPull(PushPull {
            join: false,
            reply: true,
            states: vec![PushNodeState {
                name: PEER.into(),
                addr: peer_addr,
                incarnation: Incarnation(1),
                state: MemberState::Alive,
                meta: Bytes::new(),
            }],
        })
    }
}

/// The part of a core metrics snapshot that is a pure function of the
/// scripted trace, independent of how fast wall-clock time moved:
/// exactly one suspicion is raised and resolved by the peer's
/// refutation (one flap), nothing is ever declared failed, no
/// anti-entropy rounds run (push-pull and reconnect are disabled), and
/// the LHM ceiling comes from the config. Probe and RTT counts are
/// excluded — they scale with elapsed wall time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct DeterministicCore {
    suspicions_raised: u64,
    refutations: u64,
    failures_declared: u64,
    flaps: u64,
    suspicion_lifetimes_recorded: u64,
    delta_syncs: u64,
    full_sync_fallbacks: u64,
    lhm_max: u64,
}

fn deterministic_subset(c: &CoreSnapshot) -> DeterministicCore {
    DeterministicCore {
        suspicions_raised: c.suspicions_raised,
        refutations: c.refutations,
        failures_declared: c.failures_declared,
        flaps: c.flaps,
        suspicion_lifetimes_recorded: c.suspicion_lifetime.count(),
        delta_syncs: c.delta_syncs,
        full_sync_fallbacks: c.full_sync_fallbacks,
        lhm_max: c.lhm_max,
    }
}

/// Runs the trace against the simulator clock: the driver is ticked in
/// virtual time and the scripted peer answers inline with a fixed 2 ms
/// delivery delay.
fn run_sim_trace() -> (Vec<Observed>, CoreSnapshot) {
    let alpha_addr = NodeAddr::new([10, 0, 0, 1], 7946);
    let peer_addr = NodeAddr::new([10, 0, 0, 2], 7946);
    let mut driver = Driver::new(SwimNode::new(
        "alpha".into(),
        alpha_addr,
        conformance_config(),
        7,
    ));
    let mut script = PeerScript::new();
    let mut observed = Vec::new();
    // Messages in flight from the peer to alpha: (deliver_at, input).
    let mut inbound: Vec<(Time, Input)> = Vec::new();
    let delay = Duration::from_millis(2);

    let mut sink: Vec<OwnedOutput> = Vec::new();
    driver.start(Time::ZERO, &mut sink);
    driver.join(vec![peer_addr], Time::ZERO, &mut sink);

    let deadline = Time::from_secs(60);
    let mut now = Time::ZERO;
    while observed.len() < expected().len() && now < deadline {
        // React to everything alpha produced.
        for output in sink.drain(..) {
            match output {
                OwnedOutput::Stream { to, msg } => {
                    assert_eq!(to, peer_addr, "only the peer is addressable");
                    if matches!(&msg, Message::PushPull(pp) if pp.join) {
                        inbound.push((
                            now + delay,
                            Input::Stream {
                                from: peer_addr,
                                msg: script.join_reply(peer_addr),
                            },
                        ));
                    }
                }
                OwnedOutput::Packet { to, payload } => {
                    if to != peer_addr {
                        continue;
                    }
                    for msg in compound::decode_packet(&payload).expect("valid packet") {
                        if let Some(reply) = script.on_datagram_msg(&msg) {
                            inbound.push((
                                now + delay,
                                Input::Datagram {
                                    from: peer_addr,
                                    payload: codec::encode_message(&reply),
                                },
                            ));
                        }
                    }
                }
                OwnedOutput::Event(event) => {
                    let state = driver
                        .node()
                        .member(&PEER.into())
                        .map(|m| m.state)
                        .expect("peer is known once events about it flow");
                    if let Some(obs) = classify(&event, state) {
                        // The script reacts to alpha's conclusions just
                        // like the real peer reacts to incoming gossip.
                        match obs {
                            Observed::Suspected(_) => inbound.push((
                                now + delay,
                                Input::Datagram {
                                    from: peer_addr,
                                    payload: codec::encode_message(&script.refute(peer_addr)),
                                },
                            )),
                            Observed::Recovered(_) => inbound.push((
                                now + delay,
                                Input::Datagram {
                                    from: peer_addr,
                                    payload: codec::encode_message(&script.leave()),
                                },
                            )),
                            _ => {}
                        }
                        observed.push(obs);
                    }
                }
            }
        }
        // Advance virtual time to the next inbound delivery or timer.
        inbound.sort_by_key(|(at, _)| *at);
        let next_delivery = inbound.first().map(|(at, _)| *at);
        let next_wake = driver.next_deadline();
        let next = match (next_delivery, next_wake) {
            (Some(d), Some(w)) => d.min(w),
            (Some(d), None) => d,
            (None, Some(w)) => w,
            (None, None) => break,
        };
        now = next.max(now);
        if next_delivery.is_some_and(|d| d <= now) {
            let (_, input) = inbound.remove(0);
            driver
                .handle(input, now, &mut sink)
                .expect("scripted inputs are well-formed");
        } else {
            driver.tick(now, &mut sink);
        }
    }

    // Snapshot before the leave so all runs capture at the same point
    // in the scripted trace.
    let snapshot = driver.metrics();
    // Final step of the trace: alpha leaves.
    driver.leave(now, &mut sink);
    assert!(driver.node().has_left());
    (observed, snapshot)
}

/// Runs the same trace against a loopback [`Agent`]: real sockets, the
/// agent's own wall-clock scheduling, the scripted peer bound to a real
/// UDP socket + TCP listener on one port.
fn run_net_trace() -> (Vec<Observed>, Snapshot) {
    // The peer binds TCP first and UDP on the same port, like an agent.
    let peer_tcp = TcpListener::bind("127.0.0.1:0").expect("bind peer tcp");
    let peer_sock = peer_tcp.local_addr().expect("peer addr");
    let peer_udp = UdpSocket::bind(peer_sock).expect("bind peer udp");
    peer_udp
        .set_read_timeout(Some(Duration::from_millis(5)))
        .expect("set timeout");
    peer_tcp.set_nonblocking(true).expect("nonblocking");
    let peer_addr = NodeAddr::from(peer_sock);

    let alpha = Agent::start(
        AgentConfig::local("alpha")
            .protocol(conformance_config())
            .seed(7),
    )
    .expect("start agent");
    let alpha_sock = alpha.addr();
    alpha.join(&[peer_sock]);

    let mut script = PeerScript::new();
    let mut observed = Vec::new();
    let mut buf = vec![0u8; 65536];
    let deadline = Instant::now() + Duration::from_secs(30);

    while observed.len() < expected().len() && Instant::now() < deadline {
        // Answer the join push-pull arriving on the peer's TCP listener.
        if let Ok((mut stream, _)) = peer_tcp.accept() {
            let _ = stream.set_read_timeout(Some(transport::STREAM_TIMEOUT));
            if let Ok((from, Message::PushPull(pp))) = transport::read_frame(&mut stream) {
                if pp.join {
                    let _ = transport::send_stream(
                        from.socket_addr(),
                        peer_addr,
                        &script.join_reply(peer_addr),
                    );
                }
            }
        }
        // Answer probes arriving on the peer's UDP socket.
        if let Ok((len, _)) = peer_udp.recv_from(&mut buf) {
            if let Ok(msgs) = compound::decode_packet(&buf[..len]) {
                for msg in msgs {
                    if let Some(reply) = script.on_datagram_msg(&msg) {
                        let _ = peer_udp
                            .send_to(&codec::encode_message(&reply), alpha_sock);
                    }
                }
            }
        }
        // React to alpha's conclusions exactly as the sim script does.
        for agent_event in alpha.events().try_iter() {
            let state = alpha
                .members()
                .iter()
                .find(|m| m.name.as_str() == PEER)
                .map(|m| m.state)
                .expect("peer is known once events about it flow");
            if let Some(obs) = classify(&agent_event.event, state) {
                match obs {
                    Observed::Suspected(_) => {
                        let refute = script.refute(peer_addr);
                        let _ = peer_udp.send_to(&codec::encode_message(&refute), alpha_sock);
                    }
                    Observed::Recovered(_) => {
                        let leave = script.leave();
                        let _ = peer_udp.send_to(&codec::encode_message(&leave), alpha_sock);
                    }
                    _ => {}
                }
                observed.push(obs);
            }
        }
    }

    // Snapshot before the leave, matching the sim run's capture point.
    let snapshot = alpha.metrics();
    // The leave is queued for the reactor thread; `shutdown` drives
    // everything queued before it, and reads keep working afterwards.
    alpha.leave();
    alpha.shutdown();
    let left = alpha
        .members()
        .iter()
        .any(|m| m.name.as_str() == "alpha" && m.state == MemberState::Left);
    assert!(left, "agent must record its own leave");
    (observed, snapshot)
}

/// The headline conformance assertion: the simulator clock and the
/// socket agent, driving the same core through the same `Driver`,
/// observe the identical trace.
#[test]
fn sim_and_net_observe_identical_trace() {
    let (sim, sim_core) = run_sim_trace();
    assert_eq!(
        sim,
        expected(),
        "simulator-clock run diverged from the scripted trace"
    );
    let (net, net_snap) = run_net_trace();
    assert_eq!(
        net,
        expected(),
        "loopback-agent run diverged from the scripted trace"
    );
    assert_eq!(sim, net, "sim and net traces must match");

    // The metrics plane observed the identical protocol history: the
    // schedule-independent core counters agree across both runs.
    let want = DeterministicCore {
        suspicions_raised: 1,
        refutations: 0, // the *peer* refutes; alpha never refutes itself
        failures_declared: 0,
        flaps: 1,
        suspicion_lifetimes_recorded: 1,
        delta_syncs: 0,
        full_sync_fallbacks: 0,
        lhm_max: u64::from(conformance_config().effective_awareness_max()),
    };
    assert_eq!(deterministic_subset(&sim_core), want, "sim metrics");
    assert_eq!(deterministic_subset(&net_snap.core), want, "net metrics");

    // Wall-clock-dependent metrics are only sanity-checked: the agent
    // probed the peer and recorded RTTs for the acked probes.
    assert!(net_snap.core.probes_sent > 0, "no probes recorded");
    assert!(
        net_snap.core.probe_rtt.count() >= ACKS_BEFORE_SILENCE as u64,
        "acked probes must record RTTs"
    );
    assert!(net_snap.io.datagrams_sent > 0, "no datagrams counted");
    assert!(
        net_snap.io.datagram_bytes > net_snap.io.datagrams_sent,
        "datagram bytes must exceed datagram count"
    );
    assert!(net_snap.io.streams_sent > 0, "the join stream counts");
    assert!(net_snap.io.wakeups > 0, "reactor never woke");
}
