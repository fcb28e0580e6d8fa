//! The simulated cluster: N protocol nodes + network + fault injection.
//!
//! Reproduces the paper's experiment environment (§V-E): many agents on
//! one machine's loopback interface, with message send/receive *blocked*
//! at selected nodes for controlled periods. A paused node's inbound
//! messages and timers are queued and processed the moment it resumes —
//! exactly the observable behaviour of a process starved of CPU.
//!
//! A cluster is built from a [`Schedule`] and a protocol [`Config`].
//! Every fault, scheduled or injected by hand, reaches its node through
//! [`Cluster::apply`]; a scheduled one once every event due at or before
//! its instant has run ([`crate::schedule`]).
//!
//! # Execution model: one event loop
//!
//! The cluster owns every node's driver and one [`EventQueue`].
//! [`Cluster::run_until`] pops events in the queue's `(time, insertion)`
//! order and dispatches each to its node. Whatever the node does in
//! response takes effect *at emission*: a send is counted, its address
//! resolved, the network's verdict drawn (the only RNG draw on the
//! delivery path) and the arrival pushed onto the queue; a membership
//! conclusion is appended to the trace. The sends of a paused node go to
//! its outbox instead and are released in order when the pause ends.
//!
//! A node's timers reach the loop as one `Wake` at its next deadline,
//! re-armed after every driver call; a wake whose deadline was cancelled
//! or moved later re-arms without calling the driver. An idle member
//! wakes about twice per probe round, its gossip loop parked;
//! [`Cluster::dispatched`] counts the events by kind, a deterministic
//! measure of the work.
//!
//! The whole simulation is deterministic for a given schedule and
//! config: node RNGs, network jitter and event ordering are all derived
//! from [`Schedule::seed`].

use std::iter::Peekable;
use std::net::IpAddr;
use std::time::Duration;
use std::vec;

use bytes::Bytes;
use lifeguard_core::config::Config;
use lifeguard_core::driver::{Driver, OwnedOutput, Sink};
use lifeguard_core::event::Event;
use lifeguard_core::node::{Input, SwimNode};
use lifeguard_metrics::IoSnapshot;
use lifeguard_proto::{codec, Message, NodeAddr, NodeName};

use crate::anomaly::AnomalySpec;
use crate::clock::{SimDuration, SimTime};
use crate::event_queue::EventQueue;
use crate::network::{Delivery, Network, NetworkConfig};
use crate::schedule::Schedule;
use crate::trace::Trace;

/// UDP/TCP port every simulated member listens on.
const SIM_PORT: u16 = 7946;

/// An action injected into a running simulation.
#[derive(Clone, Debug, PartialEq)]
pub enum SimAction {
    /// Hard-kill a node: it stops processing forever (true failure).
    Crash {
        /// Index of the node to crash.
        node: usize,
    },
    /// Pause a node (anomaly) for `duration` from the current instant.
    Pause {
        /// Index of the node to pause.
        node: usize,
        /// How long the node blocks.
        duration: Duration,
    },
    /// Make a node leave the group gracefully.
    Leave {
        /// Index of the leaving node.
        node: usize,
    },
    /// Replace a node's application metadata (controlled membership
    /// churn: bumps the incarnation and gossips the change, without the
    /// failure-detector side effects of a pause or crash).
    UpdateMeta {
        /// Index of the node whose metadata changes.
        node: usize,
        /// The new metadata blob.
        meta: Bytes,
    },
    /// Sever connectivity between two nodes (both directions).
    Partition {
        /// One side.
        a: usize,
        /// Other side.
        b: usize,
    },
    /// Remove all partitions.
    HealPartitions,
}

impl SimAction {
    /// The nodes the action names.
    fn nodes(&self) -> [Option<usize>; 2] {
        match *self {
            SimAction::Crash { node }
            | SimAction::Pause { node, .. }
            | SimAction::Leave { node }
            | SimAction::UpdateMeta { node, .. } => [Some(node), None],
            SimAction::Partition { a, b } => [Some(a), Some(b)],
            SimAction::HealPartitions => [None, None],
        }
    }
}

/// Configures and builds a [`Cluster`]: a [`Schedule`] plus the
/// protocol configuration, set piece by piece.
#[derive(Clone, Debug)]
pub struct ClusterBuilder {
    schedule: Schedule,
    config: Config,
}

impl ClusterBuilder {
    /// A cluster of `n` nodes named `node-0 … node-{n-1}`, with `node-0`
    /// acting as the join seed.
    pub fn new(n: usize) -> Self {
        ClusterBuilder {
            schedule: Schedule::new(n),
            config: Config::lan(),
        }
    }

    /// Sets [`Schedule::full_mesh`].
    pub fn full_mesh(mut self, enabled: bool) -> Self {
        self.schedule.full_mesh = enabled;
        self
    }

    /// Protocol configuration used by every node.
    pub fn config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Master seed for all randomness in the run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.schedule.seed = seed;
        self
    }

    /// Network latency/loss model.
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.schedule.network = network;
        self
    }

    /// Adds one node's anomaly windows as `Pause` faults
    /// ([`Schedule::anomaly`]).
    pub fn anomaly(mut self, node: usize, spec: AnomalySpec) -> Self {
        self.schedule = self.schedule.anomaly(node, spec);
        self
    }

    /// Builds the cluster at simulated time zero ([`Cluster::new`]).
    pub fn build(self) -> Cluster {
        Cluster::new(&self.schedule, &self.config)
    }
}

/// An event scheduled in the cluster's queue.
enum SimEvent {
    /// A node's next timer deadline fell due.
    Wake { node: usize },
    /// A datagram arrives at node `to`; `from` is the sender's address
    /// (used for ack routing). The payload is one allocation cut to
    /// the packet's length.
    Datagram {
        to: usize,
        from: NodeAddr,
        payload: Box<[u8]>,
    },
    /// A stream message arrives at node `to`.
    Stream {
        to: usize,
        from: NodeAddr,
        msg: Message,
    },
    /// An anomaly window on `node` closes.
    PauseEnd { node: usize },
}

/// One simulated node: its driver plus anomaly state.
struct NodeSlot {
    /// The protocol core behind the shared sans-I/O driver harness.
    driver: Driver,
    paused_until: Option<SimTime>,
    crashed: bool,
    wake_marker: Option<SimTime>,
    /// Sends generated while paused ("block immediately before
    /// sending"); released in order at the end of the anomaly.
    // bounded: drained at PauseEnd; holds at most one anomaly's worth of buffered sends
    outbox: Vec<OwnedOutput>,
}

/// A running simulated cluster.
pub struct Cluster {
    /// One slot per node, indexed by node index.
    // bounded: fixed at build time — one slot per node, never grows
    slots: Vec<NodeSlot>,
    queue: EventQueue<SimEvent>,
    network: Network,
    now: SimTime,
    trace: Trace,
    /// Per-node transmit accounting (a compound packet counts as one
    /// datagram, as Consul's telemetry does for the paper's Table VI).
    // bounded: fixed at build time — one entry per node, never grows
    io: Vec<IoSnapshot>,
    dispatched: Dispatched,
    /// The schedule's faults not yet applied, in time order.
    faults: Peekable<vec::IntoIter<(SimTime, SimAction)>>,
}

/// The events [`Cluster::run_until`] has dispatched, by kind: the same
/// counts for the same seed, however the run is sliced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Dispatched {
    /// Node wakes, superseded ones included.
    pub wakes: u64,
    /// Datagram arrivals, re-deliveries after a pause included.
    pub datagrams: u64,
    /// Stream arrivals, likewise.
    pub streams: u64,
    /// Anomaly window ends. (A window's start is a fault, which
    /// [`Cluster::run_until`] applies, not a dispatched event.)
    pub pauses: u64,
}

impl Cluster {
    /// Builds `schedule`'s cluster at simulated time zero, every node
    /// running `config`: every node is started, and nodes 1… send a join
    /// push-pull to `node-0` unless the schedule starts a full mesh.
    ///
    /// # Panics
    ///
    /// Panics if the schedule has no node or more than 2²⁴, if a fault
    /// names a node outside it, or if its faults are out of time order.
    pub fn new(schedule: &Schedule, config: &Config) -> Cluster {
        let n = schedule.n;
        assert!(n >= 1, "cluster needs at least one node");
        assert!(n <= 1 << 24, "address scheme supports 2^24 members");
        for (_, action) in &schedule.faults {
            for node in action.nodes().into_iter().flatten() {
                assert!(node < n, "fault node out of range");
            }
        }
        assert!(
            schedule.faults.is_sorted_by_key(|&(at, _)| at),
            "schedule faults out of time order"
        );
        let mut slots = Vec::with_capacity(n);
        for i in 0..n {
            let addr = Cluster::addr_for(i);
            // Distinct, seed-derived RNG stream per node.
            let node_seed = schedule
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64 + 1);
            let node = SwimNode::new(Cluster::name_of(i), addr, config.clone(), node_seed);
            slots.push(NodeSlot {
                driver: Driver::new(node),
                paused_until: None,
                crashed: false,
                wake_marker: None,
                outbox: Vec::new(),
            });
        }
        let mut cluster = Cluster {
            slots,
            queue: EventQueue::new(),
            network: Network::new(
                schedule.network.clone(),
                schedule.seed.wrapping_add(0x00C0_FFEE),
            ),
            now: SimTime::ZERO,
            trace: Trace::new(),
            io: vec![IoSnapshot::default(); n],
            dispatched: Dispatched::default(),
            faults: schedule.faults.clone().into_iter().peekable(),
        };
        // Boot + join (or direct full-mesh bootstrap).
        let seed_addr = Cluster::addr_for(0);
        let roster: Vec<(NodeName, NodeAddr)> = if schedule.full_mesh {
            (0..n)
                .map(|i| (Cluster::name_of(i), Cluster::addr_for(i)))
                .collect()
        } else {
            Vec::new()
        };
        for i in 0..n {
            cluster.with_sink(i, |driver, sink| {
                driver.start(SimTime::ZERO, sink);
                if schedule.full_mesh {
                    let roster = roster.iter().cloned();
                    driver.node_mut().bootstrap_peers(roster, SimTime::ZERO);
                } else if i > 0 {
                    driver.join(vec![seed_addr], SimTime::ZERO, sink);
                }
            });
        }
        cluster
    }

    /// The synthetic address of node `i` (10.x.y.z encodes `i` in the
    /// low 24 bits, supporting rosters beyond 2¹⁶ members).
    pub fn addr_for(i: usize) -> NodeAddr {
        NodeAddr::new([10, (i >> 16) as u8, (i >> 8) as u8, i as u8], SIM_PORT)
    }

    /// The node behind `addr` in a cluster of `n`: the inverse of
    /// [`Cluster::addr_for`], `None` for an address outside the cluster.
    fn index_of(addr: NodeAddr, n: usize) -> Option<usize> {
        let IpAddr::V4(ip) = addr.ip() else {
            return None;
        };
        let i = usize::try_from(u32::from(ip) & 0x00FF_FFFF).ok()?;
        (i < n && Cluster::addr_for(i) == addr).then_some(i)
    }

    /// The name of node `i`.
    pub fn name_of(i: usize) -> NodeName {
        NodeName::from(format!("node-{i}"))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cluster is empty (never true after building).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to a node's protocol state.
    pub fn node(&self, i: usize) -> &SwimNode {
        self.slots[i].driver.node()
    }

    /// The recorded event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Node `i`'s metrics export in the runtime-independent snapshot
    /// shape: the core's deterministic protocol metrics plus the sim
    /// network's transmit accounting folded into the I/O section —
    /// the same struct the net agent returns from `Agent::metrics()`,
    /// so sim and real runs compare field by field.
    pub fn metrics_snapshot(&self, i: usize) -> lifeguard_metrics::Snapshot {
        lifeguard_metrics::Snapshot {
            core: self.slots[i].driver.metrics(),
            io: self.io[i],
        }
    }

    /// Whether node `i` is currently inside an anomaly window.
    pub fn is_paused(&self, i: usize) -> bool {
        self.slots[i].paused_until.is_some()
    }

    /// The events dispatched so far, by kind.
    pub fn dispatched(&self) -> Dispatched {
        self.dispatched
    }

    /// Runs the simulation until simulated time `t`: pops every event
    /// due by then in queue order and dispatches it. A scheduled fault
    /// applies once every event due at or before its instant has run,
    /// faults at one instant in schedule order.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some((at, action)) = self.faults.next_if(|(at, _)| *at <= t) {
            self.drain(at);
            self.apply(action);
        }
        self.drain(t);
    }

    /// Dispatches every event due by `t` and moves the clock to `t`.
    fn drain(&mut self, t: SimTime) {
        while let Some((at, ev)) = self.queue.pop_due(t) {
            debug_assert!(at >= self.now, "simulated time went backwards");
            self.now = at;
            self.dispatch(ev);
        }
        self.now = self.now.max(t);
    }

    /// Runs the simulation for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Injects an action at the current instant.
    pub fn apply(&mut self, action: SimAction) {
        let now = self.now;
        // A crashed node is gone: it can no longer leave, update its
        // metadata or stall, and above all it sends nothing.
        if let SimAction::Pause { node, .. }
        | SimAction::Leave { node }
        | SimAction::UpdateMeta { node, .. } = &action
        {
            if self.slots[*node].crashed {
                return;
            }
        }
        match action {
            SimAction::Crash { node } => {
                self.slots[node].crashed = true;
            }
            SimAction::Pause { node, duration } => {
                // Blocked until `until`, or until the end of the pause
                // already in force if that is later.
                let until = now + duration;
                let slot = &mut self.slots[node];
                slot.paused_until = slot.paused_until.max(Some(until));
                self.with_sink(node, |driver, sink| {
                    driver
                        .handle(Input::IoBlocked { blocked: true }, now, sink)
                        .expect("io-blocked input is infallible");
                });
                self.queue.push(until, SimEvent::PauseEnd { node });
            }
            SimAction::Leave { node } => {
                self.with_sink(node, |driver, sink| driver.leave(now, sink));
            }
            SimAction::UpdateMeta { node, meta } => {
                self.with_sink(node, |driver, sink| {
                    driver
                        .handle(Input::UpdateMeta { meta }, now, sink)
                        .expect("update-meta input is infallible");
                });
            }
            SimAction::Partition { a, b } => {
                self.network.set_partitioned(a, b, true);
            }
            SimAction::HealPartitions => {
                self.network.heal_all();
            }
        }
    }

    /// Whether every functioning (non-crashed, non-left) node sees every
    /// other functioning node as alive.
    pub fn converged(&self) -> bool {
        let participants: Vec<usize> = (0..self.len())
            .filter(|&i| !self.slots[i].crashed && !self.node(i).has_left())
            .collect();
        let names: Vec<NodeName> = participants.iter().map(|&j| Self::name_of(j)).collect();
        for &i in &participants {
            for (&j, name) in participants.iter().zip(&names) {
                if i == j {
                    continue;
                }
                match self.node(i).member(name) {
                    Some(m) if m.state == lifeguard_proto::MemberState::Alive => {}
                    _ => return false,
                }
            }
        }
        true
    }

    /// Indices of nodes that consider `name` alive right now.
    pub fn nodes_seeing_alive(&self, name: &str) -> Vec<usize> {
        let name = NodeName::from(name);
        (0..self.len())
            .filter(|&i| {
                self.node(i)
                    .member(&name)
                    .map(|m| m.state == lifeguard_proto::MemberState::Alive)
                    .unwrap_or(false)
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ev: SimEvent) {
        let now = self.now;
        let d = &mut self.dispatched;
        let (node, count) = match &ev {
            SimEvent::Wake { node } => (*node, &mut d.wakes),
            SimEvent::Datagram { to, .. } => (*to, &mut d.datagrams),
            SimEvent::Stream { to, .. } => (*to, &mut d.streams),
            SimEvent::PauseEnd { node } => (*node, &mut d.pauses),
        };
        *count += 1;
        let slot = &mut self.slots[node];
        if slot.crashed {
            return;
        }
        match ev {
            SimEvent::Wake { .. } => {
                if slot.wake_marker != Some(now) {
                    return; // stale wake; a fresher one is queued
                }
                slot.wake_marker = None;
                // The deadline this wake was queued for was cancelled or
                // moved later: a tick would fire nothing, and between
                // inputs the parked gossip loop has nothing to resume,
                // so only the wake is re-armed.
                if slot.driver.next_deadline().is_none_or(|at| at > now) {
                    self.arm_wake(node);
                    return;
                }
                // Timers run even during an anomaly: the paper's
                // instrumentation blocks only sends/receives, so the
                // agent's logic keeps evaluating wall-clock deadlines.
                // Sends it produces are captured in the outbox by the
                // sink.
                self.with_sink(node, |driver, sink| driver.tick(now, sink));
            }
            SimEvent::Datagram { to, from, payload } => {
                if let Some(until) = slot.paused_until {
                    // Blocked on receive: queue for after the anomaly.
                    self.queue
                        .push(until, SimEvent::Datagram { to, from, payload });
                    return;
                }
                // The node reads the datagram as borrowed views.
                // Malformed packets are dropped, as a real deployment
                // would.
                self.with_sink(to, |driver, sink| {
                    let _ = driver.handle_datagram_slice(from, &payload, now, sink);
                });
            }
            SimEvent::Stream { to, from, msg } => {
                if let Some(until) = slot.paused_until {
                    self.queue.push(until, SimEvent::Stream { to, from, msg });
                    return;
                }
                self.with_sink(to, |driver, sink| {
                    driver
                        .handle(Input::Stream { from, msg }, now, sink)
                        .expect("stream input is infallible");
                });
            }
            SimEvent::PauseEnd { .. } => {
                // Only clear if this PauseEnd closes the active pause (an
                // overlapping one may end later).
                if slot.paused_until.is_some_and(|u| u <= now) {
                    slot.paused_until = None;
                    // "The blocked sends ... are unblocked": release
                    // everything the node tried to send while paused,
                    // then let the node evaluate its postponed probe
                    // deadlines (which fail, raising suspicions) and any
                    // other due timers.
                    let outbox = std::mem::take(&mut slot.outbox);
                    self.with_sink(node, |driver, sink| {
                        for held in outbox {
                            sink.release(held);
                        }
                        driver
                            .handle(Input::IoBlocked { blocked: false }, now, sink)
                            .expect("io-blocked input is infallible");
                        driver.tick(now, sink);
                    });
                }
            }
        }
    }

    /// Runs driver calls of `node` at the cluster clock against a
    /// [`SimSink`] of split borrows of the cluster's fields, then queues
    /// a wake at the node's next deadline, which any call can move.
    fn with_sink(&mut self, node: usize, f: impl FnOnce(&mut Driver, &mut SimSink<'_>)) {
        let n = self.slots.len();
        let slot = &mut self.slots[node];
        let mut sink = SimSink {
            node,
            n,
            now: self.now,
            paused: slot.paused_until.is_some(),
            outbox: &mut slot.outbox,
            queue: &mut self.queue,
            network: &mut self.network,
            io: &mut self.io[node],
            trace: &mut self.trace,
        };
        f(&mut slot.driver, &mut sink);
        self.arm_wake(node);
    }

    /// Queues a wake at `node`'s next deadline unless one at or before
    /// it is queued already.
    fn arm_wake(&mut self, node: usize) {
        let slot = &mut self.slots[node];
        let next = slot.driver.next_deadline().map(|at| at.max(self.now));
        if let Some(wake) = next.filter(|&at| slot.wake_marker.is_none_or(|queued| queued > at)) {
            slot.wake_marker = Some(wake);
            self.queue.push(wake, SimEvent::Wake { node });
        }
    }
}

/// The simulator's [`Sink`]: every effect of a driver call is applied as
/// it is emitted. A send is counted, its destination looked up, the
/// network's verdict taken and the arrival pushed onto the event queue;
/// a membership event is appended to the trace. While the node is paused
/// its sends go to the outbox instead.
struct SimSink<'a> {
    node: usize,
    n: usize,
    now: SimTime,
    paused: bool,
    outbox: &'a mut Vec<OwnedOutput>,
    queue: &'a mut EventQueue<SimEvent>,
    network: &'a mut Network,
    io: &'a mut IoSnapshot,
    trace: &'a mut Trace,
}

impl SimSink<'_> {
    /// Counts a datagram and, unless the network drops it, queues its
    /// arrival with a copy of `payload`.
    fn send_packet(&mut self, to: NodeAddr, payload: &[u8]) {
        self.io.datagrams_sent += 1;
        self.io.datagram_bytes += payload.len() as u64;
        let Some(to_idx) = Cluster::index_of(to, self.n) else {
            return; // address outside the simulation
        };
        if let Delivery::Deliver(delay) = self.network.datagram(self.node, to_idx) {
            self.queue.push(
                self.now + delay,
                SimEvent::Datagram {
                    to: to_idx,
                    from: Cluster::addr_for(self.node),
                    payload: payload.into(),
                },
            );
        }
    }

    fn send_stream(&mut self, to: NodeAddr, msg: Message) {
        self.io.streams_sent += 1;
        self.io.stream_bytes += codec::encoded_len(&msg) as u64;
        let Some(to_idx) = Cluster::index_of(to, self.n) else {
            return;
        };
        if let Delivery::Deliver(delay) = self.network.stream(self.node, to_idx) {
            self.queue.push(
                self.now + delay,
                SimEvent::Stream {
                    to: to_idx,
                    from: Cluster::addr_for(self.node),
                    msg,
                },
            );
        }
    }

    /// Applies an output held in the outbox as if it were produced now —
    /// used when a pause ends and the blocked sends are released.
    fn release(&mut self, held: OwnedOutput) {
        match held {
            OwnedOutput::Packet { to, payload } => self.send_packet(to, &payload),
            OwnedOutput::Stream { to, msg } => self.send_stream(to, msg),
            OwnedOutput::Event(e) => self.event(e),
        }
    }
}

impl Sink for SimSink<'_> {
    fn transmit(&mut self, to: NodeAddr, payload: &[u8]) {
        // A paused node blocks before sending: network effects are held
        // in its outbox until the anomaly ends. Held and in-flight
        // packets outlive the borrow of the node's scratch, so both
        // paths copy the payload out.
        if self.paused {
            let payload = Bytes::copy_from_slice(payload);
            self.outbox.push(OwnedOutput::Packet { to, payload });
        } else {
            self.send_packet(to, payload);
        }
    }

    fn stream(&mut self, to: NodeAddr, msg: Message) {
        if self.paused {
            self.outbox.push(OwnedOutput::Stream { to, msg });
        } else {
            self.send_stream(to, msg);
        }
    }

    fn event(&mut self, event: Event) {
        // A paused node's membership conclusions are still logged (the
        // paper's analysis reads the agents' logs, which are written
        // regardless).
        self.trace.record(self.now, self.node, event);
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("n", &self.len())
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .field("trace_len", &self.trace.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifeguard_core::event::Event;

    #[test]
    fn five_node_cluster_converges() {
        let mut c = ClusterBuilder::new(5).seed(1).build();
        c.run_for(SimDuration::from_secs(15));
        assert!(c.converged(), "cluster failed to converge in 15 s");
        for i in 0..5 {
            assert_eq!(c.node(i).num_alive(), 5);
        }
    }

    #[test]
    fn crashed_node_is_detected_and_disseminated() {
        let mut c = ClusterBuilder::new(8).seed(2).build();
        c.run_for(SimDuration::from_secs(15));
        assert!(c.converged());
        c.apply(SimAction::Crash { node: 7 });
        c.run_for(SimDuration::from_secs(40));
        let declared_by = |r: usize| {
            c.trace()
                .failures()
                .any(|(_, by, s)| by == r && s.as_str() == "node-7")
        };
        assert!((0..8).any(declared_by), "crash never detected");
        // Everyone else eventually declares it failed.
        assert!((0..7).all(declared_by));
    }

    #[test]
    fn short_pause_does_not_kill_a_node_with_lifeguard() {
        let mut c = ClusterBuilder::new(8)
            .seed(3)
            .config(Config::lan().lifeguard())
            .build();
        c.run_for(SimDuration::from_secs(15));
        c.apply(SimAction::Pause {
            node: 3,
            duration: Duration::from_millis(1500),
        });
        c.run_for(SimDuration::from_secs(30));
        // A 1.5 s pause may raise suspicions but must never produce a
        // failure declaration about the paused (healthy) node.
        assert!(!c.trace().failures().any(|(_, _, s)| s.as_str() == "node-3"));
        assert!(c.nodes_seeing_alive("node-3").len() == 8);
    }

    #[test]
    fn leave_is_not_a_failure() {
        let mut c = ClusterBuilder::new(5).seed(4).build();
        c.run_for(SimDuration::from_secs(15));
        c.apply(SimAction::Leave { node: 4 });
        c.run_for(SimDuration::from_secs(20));
        assert!(!c.trace().failures().any(|(_, _, s)| s.as_str() == "node-4"));
        let leaves = c
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(&e.event, Event::MemberLeft { name } if name.as_str() == "node-4"))
            .count();
        assert!(leaves >= 4, "peers must observe the graceful leave");
    }

    #[test]
    fn determinism_same_seed_same_trace_and_telemetry() {
        let run = |seed: u64| {
            let mut c = ClusterBuilder::new(6).seed(seed).build();
            c.run_for(SimDuration::from_secs(10));
            c.apply(SimAction::Crash { node: 5 });
            c.run_for(SimDuration::from_secs(30));
            let events: Vec<String> = c
                .trace()
                .events()
                .iter()
                .map(|e| format!("{:?}/{}/{:?}", e.at, e.reporter, e.event))
                .collect();
            let io: Vec<_> = (0..c.len()).map(|i| c.metrics_snapshot(i).io).collect();
            (events, io)
        };
        let (ea, ta) = run(77);
        let (eb, tb) = run(77);
        assert_eq!(ea, eb);
        assert_eq!(ta, tb);
        let (ec, _) = run(78);
        assert_ne!(ea, ec, "different seeds should differ");
    }

    #[test]
    fn partition_heals_via_push_pull() {
        let mut c = ClusterBuilder::new(4).seed(5).build();
        c.run_for(SimDuration::from_secs(15));
        // Fully isolate node 3.
        for i in 0..3 {
            c.apply(SimAction::Partition { a: i, b: 3 });
        }
        c.run_for(SimDuration::from_secs(40));
        // The majority side declared node-3 failed.
        assert!(c.trace().failures().any(|(_, _, s)| s.as_str() == "node-3"));
        c.apply(SimAction::HealPartitions);
        // After healing, Serf-style reconnect push-pulls re-merge the
        // sides: node-3 refutes and everyone sees it alive again.
        let mut recovered = false;
        for _ in 0..30 {
            c.run_for(SimDuration::from_secs(5));
            if c.nodes_seeing_alive("node-3").len() == 4 && c.converged() {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "partition did not heal within 150 s");
    }

    #[test]
    fn telemetry_counts_grow_with_time() {
        let mut c = ClusterBuilder::new(4).seed(6).build();
        c.run_for(SimDuration::from_secs(5));
        let totals = |c: &Cluster| {
            let io = (0..c.len()).map(|i| c.metrics_snapshot(i).io);
            io.fold((0, 0), |(msgs, bytes), s| {
                (
                    msgs + s.datagrams_sent + s.streams_sent,
                    bytes + s.datagram_bytes + s.stream_bytes,
                )
            })
        };
        let early = totals(&c);
        c.run_for(SimDuration::from_secs(5));
        let late = totals(&c);
        assert!(late.0 > early.0);
        assert!(late.1 > early.1);
    }

    #[test]
    fn anomaly_schedule_pauses_and_resumes() {
        let mut c = ClusterBuilder::new(4)
            .seed(7)
            .anomaly(
                2,
                AnomalySpec::Threshold {
                    start: SimTime::from_secs(10),
                    duration: Duration::from_secs(2),
                },
            )
            .build();
        c.run_until(SimTime::from_secs(11));
        assert!(c.is_paused(2));
        c.run_until(SimTime::from_secs(13));
        assert!(!c.is_paused(2));
    }

    #[test]
    fn overlapping_pauses_end_at_the_later_end() {
        // Node 2 has a scheduled window 10–12 s; a manual pause overlaps it.
        let build = || {
            ClusterBuilder::new(4)
                .seed(8)
                .anomaly(
                    2,
                    AnomalySpec::Threshold {
                        start: SimTime::from_secs(10),
                        duration: Duration::from_secs(2),
                    },
                )
                .build()
        };

        // A 3 s pause applied at 9.5 s outlasts the window: the node
        // stays blocked until 12.5 s, not until the window's end.
        let mut c = build();
        c.run_until(SimTime::from_millis(9_500));
        c.apply(SimAction::Pause {
            node: 2,
            duration: Duration::from_secs(3),
        });
        c.run_until(SimTime::from_millis(12_200));
        assert!(
            c.is_paused(2),
            "the window's end cut the manual pause short"
        );
        c.run_until(SimTime::from_millis(12_600));
        assert!(!c.is_paused(2));

        // The other way round: a short manual pause inside the window
        // must not end the window early.
        let mut c = build();
        c.run_until(SimTime::from_millis(10_500));
        c.apply(SimAction::Pause {
            node: 2,
            duration: Duration::from_millis(500),
        });
        c.run_until(SimTime::from_millis(11_500));
        assert!(
            c.is_paused(2),
            "the manual pause's end cut the window short"
        );
        c.run_until(SimTime::from_millis(12_100));
        assert!(!c.is_paused(2));
    }

    #[test]
    fn a_scheduled_fault_lands_after_the_events_due_at_its_instant() {
        // `t` is node 2's next wake after 10 s: what that wake sends
        // goes out before a pause scheduled at `t` blocks the node.
        let schedule = Schedule {
            seed: 10,
            ..Schedule::new(4)
        };
        let mut script = Cluster::new(&schedule, &Config::lan());
        script.run_until(SimTime::from_secs(10));
        let t = script
            .node(2)
            .next_deadline()
            .expect("a started node has timers");
        let before = script.metrics_snapshot(2).io;
        script.run_until(t);
        let sent = script.metrics_snapshot(2).io;
        assert_ne!(sent, before, "node 2's wake at {t:?} sent nothing");

        let pause = SimAction::Pause {
            node: 2,
            duration: Duration::from_secs(1),
        };
        let mut scheduled = Cluster::new(&schedule.at(t, pause), &Config::lan());
        scheduled.run_until(t);
        assert!(scheduled.is_paused(2));
        assert_eq!(scheduled.metrics_snapshot(2).io, sent);
    }

    #[test]
    fn zero_latency_network_runs_and_converges() {
        // Arrivals land in the same microsecond they were sent in; the
        // loop has no minimum-latency assumption to violate.
        let network = NetworkConfig {
            datagram_latency: Duration::ZERO,
            datagram_jitter: Duration::ZERO,
            datagram_loss: 0.0,
            stream_latency: Duration::ZERO,
            stream_jitter: Duration::ZERO,
        };
        let mut c = ClusterBuilder::new(6).seed(9).network(network).build();
        c.run_for(SimDuration::from_secs(15));
        assert!(c.converged(), "cluster failed to converge in 15 s");
        c.apply(SimAction::Crash { node: 5 });
        c.run_for(SimDuration::from_secs(40));
        assert!(c.trace().failures().any(|(_, _, s)| s.as_str() == "node-5"));
    }

    #[test]
    fn idle_full_mesh_wakes_about_twice_per_node_second() {
        // A quiet full mesh has nothing to gossip: a member wakes for
        // its probe round and for the probe timeout its ack cancelled,
        // not for gossip ticks that find the queue empty.
        let n = 64;
        let mut c = ClusterBuilder::new(n)
            .seed(1)
            .config(Config::lan().lifeguard())
            .full_mesh(true)
            .build();
        c.run_for(SimDuration::from_secs(2));
        let before = c.dispatched();
        let secs = 10;
        c.run_for(SimDuration::from_secs(secs));
        let after = c.dispatched();
        let per_node_s = |count: u64| count as f64 / (n as f64 * secs as f64);
        let wakes = per_node_s(after.wakes - before.wakes);
        let datagrams = per_node_s(after.datagrams - before.datagrams);
        assert!(wakes <= 2.5, "{wakes:.2} wakes per node-second");
        // Every probe is a ping and its ack.
        assert!(
            (1.9..=2.1).contains(&datagrams),
            "{datagrams:.2} datagrams per node-second"
        );
        assert_eq!(after.pauses, 0);
    }
}
