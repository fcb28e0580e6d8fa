//! The one place the benchmark touches the repository.
//!
//! Every repository function the benchmark calls is called (or, for the
//! layer rig's direct replays, re-exported) here, and the list is pinned
//! in `README.md` — a later PR that deletes or renames an entry point
//! knows from this file alone what the benchmark needs. Workloads see
//! only the benchmark-owned types defined below.
//!
//! Limited to entry points the runtimes themselves use:
//! `ClusterBuilder` / `Cluster::{run_for, apply, trace, metrics_snapshot,
//! node, converged, now}`, `Driver::{start, handle, tick, next_deadline,
//! metrics}`, `SwimNode::bootstrap_peers`, `encode_message_into`,
//! `decode_packet_shared`, `CompoundBuilder`, `Agent::{start, addr,
//! metrics, num_alive, shutdown}` and `transport::send_stream`.

use std::io;
use std::net::SocketAddr;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use lifeguard_core::config::Config;
use lifeguard_core::driver::{Driver, Sink};
use lifeguard_core::event::Event;
use lifeguard_core::node::{Input, SwimNode};
use lifeguard_core::time::Time;
use lifeguard_metrics::{CoreSnapshot, Histogram, IoSnapshot};
use lifeguard_net::agent::{Agent, AgentConfig};
use lifeguard_net::transport;
use lifeguard_proto::{codec, compound, DecodeError};
use lifeguard_proto::{Ack, Alive, Incarnation, MemberState, Ping, PushNodeState, PushPull, SeqNo};
use lifeguard_sim::anomaly::AnomalySpec;
use lifeguard_sim::cluster::{Cluster, ClusterBuilder, SimAction};
use lifeguard_sim::network::NetworkConfig;

pub use lifeguard_proto::{Message, NodeAddr, NodeName};

/// The types the layer rig replays through directly, one module per
/// layer. The rig calls: `CompoundBuilder::{new, try_add_msg, finish_into}`;
/// `Membership::{new, upsert, get, update, sample, changed_since,
/// update_seq}`; `BroadcastQueue::{new, enqueue, fill, len}`;
/// `TimerWheel::{new, schedule, cancel, reschedule, pop_due}`;
/// `EventQueue::{new, push, pop}`; `Network::{new, datagram}`;
/// `Histogram::{new, record}`; `Snapshot::{encode, decode}`.
pub mod layers {
    pub use lifeguard_core::broadcast::BroadcastQueue;
    pub use lifeguard_core::member::Member;
    pub use lifeguard_core::membership::Membership;
    pub use lifeguard_core::time::Time;
    pub use lifeguard_core::timer_wheel::TimerWheel;
    pub use lifeguard_metrics::{Histogram, Snapshot};
    pub use lifeguard_proto::compound::CompoundBuilder;
    pub use lifeguard_proto::Incarnation;
    pub use lifeguard_sim::event_queue::EventQueue;
    pub use lifeguard_sim::network::{Network, NetworkConfig};
}

/// Datagram byte budget of the default configuration.
pub const PACKET_BUDGET: usize = lifeguard_proto::DEFAULT_PACKET_BUDGET;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// `Config::lan().lifeguard()`: every Lifeguard component on.
    Lifeguard,
    /// `Config::lan().swim()`: the paper's baseline.
    Swim,
}

impl Protocol {
    fn config(self) -> Config {
        match self {
            Protocol::Lifeguard => Config::lan().lifeguard(),
            Protocol::Swim => Config::lan().swim(),
        }
    }
}

/// A pause schedule for one node, in simulated milliseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Anomaly {
    Threshold {
        start_ms: u64,
        duration_ms: u64,
    },
    Interval {
        start_ms: u64,
        duration_ms: u64,
        interval_ms: u64,
        until_ms: u64,
    },
}

impl Anomaly {
    fn spec(self) -> AnomalySpec {
        match self {
            Anomaly::Threshold {
                start_ms,
                duration_ms,
            } => AnomalySpec::Threshold {
                start: Time::from_millis(start_ms),
                duration: Duration::from_millis(duration_ms),
            },
            Anomaly::Interval {
                start_ms,
                duration_ms,
                interval_ms,
                until_ms,
            } => AnomalySpec::Interval {
                start: Time::from_millis(start_ms),
                duration: Duration::from_millis(duration_ms),
                interval: Duration::from_millis(interval_ms),
                until: Time::from_millis(until_ms),
            },
        }
    }

    /// The pause windows `[start, end)` in simulated µs.
    pub fn windows_us(self) -> Vec<(u64, u64)> {
        self.spec()
            .windows(0)
            .iter()
            .map(|w| (w.start.as_micros(), w.end.as_micros()))
            .collect()
    }
}

pub struct ClusterSpec {
    pub n: usize,
    pub protocol: Protocol,
    pub seed: u64,
    /// `true`: every node starts knowing every peer. `false`: nodes 1…
    /// join through `node-0`.
    pub full_mesh: bool,
    /// Datagram loss probability on the loopback network model.
    pub datagram_loss: f64,
    /// One shared schedule applied to each listed node.
    pub anomalies: Vec<(usize, Anomaly)>,
}

/// Counter totals over every node of a cluster (or one agent): the core's
/// `CoreSnapshot` and the runtime's `IoSnapshot`, summed.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    pub datagrams: u64,
    pub datagram_bytes: u64,
    pub streams: u64,
    pub stream_bytes: u64,
    pub probes_sent: u64,
    pub probes_failed: u64,
    pub indirect_sent: u64,
    pub suspicions_raised: u64,
    pub refutations: u64,
    pub failures_declared: u64,
    pub flaps: u64,
    pub lhm_peak: u64,
    pub broadcast_depth_peak: u64,
    pub delta_syncs: u64,
    pub delta_sync_bytes: u64,
    pub full_sync_fallbacks: u64,
    pub send_syscalls: u64,
    pub recv_syscalls: u64,
    pub wakeups: u64,
    probe_rtt: Histogram,
    suspicion_lifetime: Histogram,
}

impl Totals {
    fn add(&mut self, core: &CoreSnapshot, io: &IoSnapshot) {
        self.datagrams += io.datagrams_sent;
        self.datagram_bytes += io.datagram_bytes;
        self.streams += io.streams_sent;
        self.stream_bytes += io.stream_bytes;
        self.send_syscalls += io.send_syscalls;
        self.recv_syscalls += io.recv_syscalls;
        self.wakeups += io.wakeups;
        self.probes_sent += core.probes_sent;
        self.probes_failed += core.probes_failed;
        self.indirect_sent += core.indirect_probes_sent;
        self.suspicions_raised += core.suspicions_raised;
        self.refutations += core.refutations;
        self.failures_declared += core.failures_declared;
        self.flaps += core.flaps;
        self.lhm_peak = self.lhm_peak.max(core.lhm_peak);
        self.broadcast_depth_peak = self.broadcast_depth_peak.max(core.broadcast_queue_peak);
        self.delta_syncs += core.delta_syncs;
        self.delta_sync_bytes += core.delta_sync_bytes;
        self.full_sync_fallbacks += core.full_sync_fallbacks;
        self.probe_rtt.merge(&core.probe_rtt);
        self.suspicion_lifetime.merge(&core.suspicion_lifetime);
    }

    pub fn messages(&self) -> u64 {
        self.datagrams + self.streams
    }

    pub fn bytes(&self) -> u64 {
        self.datagram_bytes + self.stream_bytes
    }

    /// Median probe round trip over every node, in ms.
    pub fn probe_rtt_p50_ms(&self) -> f64 {
        self.probe_rtt.quantile(50.0).map_or(0.0, |us| us / 1e3)
    }

    /// Median lifetime of a suspicion over every node, in s.
    pub fn suspicion_lifetime_p50_s(&self) -> f64 {
        self.suspicion_lifetime
            .quantile(50.0)
            .map_or(0.0, |us| us / 1e6)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Conclusion {
    Joined,
    Suspected,
    Failed,
    Left,
    Recovered,
    SelfRefuted,
}

/// One trace event in benchmark-owned form: node `reporter` concluded
/// `kind` about node `subject` at simulated µs `at_us`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    pub at_us: u64,
    pub reporter: usize,
    pub kind: Conclusion,
    pub subject: Option<usize>,
}

fn node_index(name: &NodeName) -> Option<usize> {
    name.as_str().strip_prefix("node-")?.parse().ok()
}

fn trace_record(at: Time, reporter: usize, event: &Event) -> TraceRecord {
    let kind = match event {
        Event::MemberJoined { .. } => Conclusion::Joined,
        Event::MemberSuspected { .. } => Conclusion::Suspected,
        Event::MemberFailed { .. } => Conclusion::Failed,
        Event::MemberLeft { .. } => Conclusion::Left,
        Event::MemberRecovered { .. } => Conclusion::Recovered,
        Event::SelfRefuted { .. } => Conclusion::SelfRefuted,
    };
    TraceRecord {
        at_us: at.as_micros(),
        reporter,
        kind,
        subject: event.subject().and_then(node_index),
    }
}

/// How one node sees another.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct View {
    pub alive: bool,
    pub dead: bool,
    pub incarnation: u64,
    pub meta: Bytes,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A simulated cluster behind benchmark-owned types.
pub struct SimCluster {
    inner: Cluster,
}

impl SimCluster {
    /// Builds the cluster at simulated time zero (single-threaded
    /// simulator, default `workers` and `shards`).
    pub fn build(spec: &ClusterSpec) -> SimCluster {
        let network = NetworkConfig {
            datagram_loss: spec.datagram_loss,
            ..NetworkConfig::loopback()
        };
        let mut builder = ClusterBuilder::new(spec.n)
            .config(spec.protocol.config())
            .seed(spec.seed)
            .full_mesh(spec.full_mesh)
            .network(network);
        for &(node, anomaly) in &spec.anomalies {
            builder = builder.anomaly(node, anomaly.spec());
        }
        SimCluster {
            inner: builder.build(),
        }
    }

    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn now_us(&self) -> u64 {
        self.inner.now().as_micros()
    }

    pub fn run_for_us(&mut self, us: u64) {
        self.inner.run_for(Duration::from_micros(us));
    }

    /// Runs up to simulated µs `t_us` (no-op when already past it).
    pub fn run_to_us(&mut self, t_us: u64) {
        self.run_for_us(t_us.saturating_sub(self.now_us()));
    }

    pub fn crash(&mut self, node: usize) {
        self.inner.apply(SimAction::Crash { node });
    }

    pub fn update_meta(&mut self, node: usize, meta: Bytes) {
        self.inner.apply(SimAction::UpdateMeta { node, meta });
    }

    /// Adds `metrics_snapshot(i)` of every node to `acc` (several runs
    /// may share one accumulator).
    pub fn add_totals(&self, acc: &mut Totals) {
        for i in 0..self.len() {
            let snap = self.inner.metrics_snapshot(i);
            acc.add(&snap.core, &snap.io);
        }
    }

    pub fn totals(&self) -> Totals {
        let mut t = Totals::default();
        self.add_totals(&mut t);
        t
    }

    /// Whether every node in `live` counts exactly `expect_alive` alive
    /// members: O(n), unlike `converged`.
    pub fn all_count_alive(
        &self,
        live: impl IntoIterator<Item = usize>,
        expect_alive: usize,
    ) -> bool {
        live.into_iter()
            .all(|i| self.inner.node(i).num_alive() == expect_alive)
    }

    /// `Cluster::converged`: every functioning node sees every other
    /// functioning node alive. O(n²) name lookups.
    pub fn converged(&self) -> bool {
        self.inner.converged()
    }

    pub fn incarnation(&self, node: usize) -> u64 {
        self.inner.node(node).incarnation().get()
    }

    /// How node `viewer` sees node `subject`, if it knows it at all.
    pub fn view(&self, viewer: usize, subject: usize) -> Option<View> {
        let m = self.inner.node(viewer).member(&Cluster::name_of(subject))?;
        Some(View {
            alive: m.state == MemberState::Alive,
            dead: m.state == MemberState::Dead,
            incarnation: m.incarnation.get(),
            meta: m.meta.clone(),
        })
    }

    pub fn trace_len(&self) -> usize {
        self.inner.trace().len()
    }

    pub fn trace_records(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        self.inner
            .trace()
            .events()
            .iter()
            .map(|e| trace_record(e.at, e.reporter, &e.event))
    }

    /// FNV-1a over the whole trace, every node's member table and every
    /// node's transmit counters: two runs of one seed must agree to the
    /// last bit. Table entries are combined order-independently within a
    /// node, so map iteration order cannot leak in.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for r in self.trace_records() {
            h = fnv(h, &r.at_us.to_le_bytes());
            h = fnv(h, &(r.reporter as u64).to_le_bytes());
            h = fnv(h, &[r.kind as u8]);
            h = fnv(h, &(r.subject.map_or(u64::MAX, |s| s as u64)).to_le_bytes());
        }
        for i in 0..self.len() {
            let mut table = 0u64;
            for m in self.inner.node(i).members() {
                let mut e = fnv(FNV_OFFSET, m.name.as_str().as_bytes());
                e = fnv(e, &[m.state.as_u8()]);
                e = fnv(e, &m.incarnation.get().to_le_bytes());
                e = fnv(e, &m.meta);
                table = table.wrapping_add(e);
            }
            h = fnv(h, &table.to_le_bytes());
            let io = self.inner.metrics_snapshot(i).io;
            for v in [
                io.datagrams_sent,
                io.datagram_bytes,
                io.streams_sent,
                io.stream_bytes,
            ] {
                h = fnv(h, &v.to_le_bytes());
            }
        }
        h
    }
}

// ---------------------------------------------------------------------
// Messages the benchmark generates (its inputs to the program).
// ---------------------------------------------------------------------

pub fn sim_addr(i: usize) -> NodeAddr {
    Cluster::addr_for(i)
}

pub fn sim_name(i: usize) -> NodeName {
    Cluster::name_of(i)
}

pub fn ping(seq: u32, target: NodeName, source: NodeName, source_addr: NodeAddr) -> Message {
    Message::Ping(Ping {
        seq: SeqNo(seq),
        target,
        source,
        source_addr,
    })
}

pub fn ack(seq: u32) -> Message {
    Message::Ack(Ack { seq: SeqNo(seq) })
}

pub fn alive(node: NodeName, addr: NodeAddr, incarnation: u64, meta: Bytes) -> Message {
    Message::Alive(Alive {
        incarnation: Incarnation(incarnation),
        node,
        addr,
        meta,
    })
}

/// A full-state push-pull *reply*: the receiver merges it silently, as
/// it would a join answer.
pub fn push_pull_reply(
    members: impl IntoIterator<Item = (NodeName, NodeAddr, u64, Bytes)>,
) -> Message {
    Message::PushPull(PushPull {
        join: false,
        reply: true,
        states: members
            .into_iter()
            .map(|(name, addr, incarnation, meta)| PushNodeState {
                name,
                addr,
                incarnation: Incarnation(incarnation),
                state: MemberState::Alive,
                meta,
            })
            .collect(),
    })
}

/// `codec::encode_message_into`: appends `msg`, returns bytes written.
pub fn encode_message_into(msg: &Message, buf: &mut BytesMut) -> usize {
    codec::encode_message_into(msg, buf)
}

pub fn encode_message(msg: &Message) -> Bytes {
    let mut buf = BytesMut::new();
    codec::encode_message_into(msg, &mut buf);
    buf.freeze()
}

/// `compound::decode_packet_shared`: a datagram may be one bare message
/// or a compound packet of several.
pub fn decode_packet(packet: &Bytes) -> Result<Vec<Message>, DecodeError> {
    compound::decode_packet_shared(packet)
}

/// What a decoded message means to the scripted peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerView {
    /// An answer to ping `seq`.
    Ack(u32),
    /// A probe that wants ack `seq` back.
    Ping(u32),
    Other,
}

pub fn peer_view(msg: &Message) -> PeerView {
    match msg {
        Message::Ack(a) => PeerView::Ack(a.seq.get()),
        Message::Ping(p) => PeerView::Ping(p.seq.get()),
        _ => PeerView::Other,
    }
}

// ---------------------------------------------------------------------
// One driver owned by the benchmark: the layer rig's hub.
// ---------------------------------------------------------------------

/// Keeps every packet the hub sends and counts the rest.
#[derive(Default)]
pub struct Capture {
    pub packets: Vec<(NodeAddr, Bytes)>,
    pub streams: u64,
    pub events: u64,
}

impl Sink for Capture {
    fn transmit(&mut self, to: NodeAddr, payload: &[u8]) {
        self.packets.push((to, Bytes::copy_from_slice(payload)));
    }

    fn stream(&mut self, _to: NodeAddr, _msg: Message) {
        self.streams += 1;
    }

    fn event(&mut self, _event: Event) {
        self.events += 1;
    }
}

/// A `Driver` + `Sink` holding a workload's roster, driven from outside.
pub struct Hub {
    driver: Driver,
    pub sink: Capture,
}

impl Hub {
    /// A started Lifeguard node named `hub` that knows `node-0 …
    /// node-{roster-1}` (via `SwimNode::bootstrap_peers`).
    pub fn new(roster: usize, seed: u64) -> Hub {
        let node = SwimNode::new(
            "hub".into(),
            NodeAddr::new([10, 255, 255, 254], 7946),
            Protocol::Lifeguard.config(),
            seed,
        );
        let mut hub = Hub {
            driver: Driver::new(node),
            sink: Capture::default(),
        };
        hub.driver.start(Time::ZERO, &mut hub.sink);
        let peers = (0..roster).map(|i| (sim_name(i), sim_addr(i)));
        hub.driver.node_mut().bootstrap_peers(peers, Time::ZERO);
        hub
    }

    pub fn name(&self) -> NodeName {
        self.driver.node().name().clone()
    }

    pub fn handle_datagram(
        &mut self,
        from: NodeAddr,
        payload: Bytes,
        now_us: u64,
    ) -> Result<(), DecodeError> {
        self.driver.handle(
            Input::Datagram { from, payload },
            Time::from_micros(now_us),
            &mut self.sink,
        )
    }

    pub fn handle_stream(&mut self, from: NodeAddr, msg: Message, now_us: u64) {
        let res = self.driver.handle(
            Input::Stream { from, msg },
            Time::from_micros(now_us),
            &mut self.sink,
        );
        debug_assert!(res.is_ok(), "stream input is infallible");
    }

    pub fn tick(&mut self, now_us: u64) {
        self.driver.tick(Time::from_micros(now_us), &mut self.sink);
    }

    pub fn next_deadline_us(&self) -> Option<u64> {
        self.driver.next_deadline().map(Time::as_micros)
    }

    /// The hub's `CoreSnapshot` with empty I/O counters, for the metrics
    /// layer's encode/decode rows.
    pub fn snapshot(&self) -> lifeguard_metrics::Snapshot {
        lifeguard_metrics::Snapshot {
            core: self.driver.metrics(),
            io: IoSnapshot::default(),
        }
    }

    pub fn num_alive(&self) -> usize {
        self.driver.node().num_alive()
    }
}

// ---------------------------------------------------------------------
// One real agent on loopback sockets.
// ---------------------------------------------------------------------

/// A default reactor `Agent` (default batching, `Config::lan().lifeguard()`).
pub struct HubAgent {
    agent: Agent,
}

impl HubAgent {
    pub fn start(seed: u64) -> io::Result<HubAgent> {
        // Seed 0 would mean "draw from system entropy".
        let agent = Agent::start(AgentConfig::local("hub").seed(seed | 1))?;
        Ok(HubAgent { agent })
    }

    pub fn addr(&self) -> SocketAddr {
        self.agent.addr()
    }

    pub fn name(&self) -> NodeName {
        self.agent.name()
    }

    /// Hands the agent one message over the stream transport, as a peer
    /// at `sender` would (`transport::send_stream`).
    pub fn send_stream(&self, sender: NodeAddr, msg: &Message) -> io::Result<()> {
        transport::send_stream(self.agent.addr(), sender, msg)
            .map_err(|e| io::Error::other(e.to_string()))
    }

    pub fn num_alive(&self) -> usize {
        self.agent.num_alive()
    }

    /// Adds `Agent::metrics()` to `acc`; returns the current LHM score.
    pub fn add_totals(&self, acc: &mut Totals) -> u64 {
        let snap = self.agent.metrics();
        acc.add(&snap.core, &snap.io);
        snap.core.lhm
    }

    /// `Agent::metrics()` as totals, plus the current LHM score.
    pub fn totals(&self) -> (Totals, u64) {
        let mut t = Totals::default();
        let lhm = self.add_totals(&mut t);
        (t, lhm)
    }

    pub fn shutdown(&self) {
        self.agent.shutdown();
    }
}

/// One stream frame carrying `msg` (`transport::encode_frame`).
pub fn encode_frame(sender: NodeAddr, msg: &Message) -> Vec<u8> {
    transport::encode_frame(sender, msg)
}

/// Decodes one frame the way the agent's connection handler does
/// (`transport::FrameDecoder`); whether a whole message came out.
pub fn decode_frame(frame: &[u8]) -> bool {
    let mut decoder = transport::FrameDecoder::new();
    decoder.feed(frame);
    matches!(decoder.decode(), Ok(Some(_)))
}
