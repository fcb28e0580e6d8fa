//! The simulated cluster: N protocol nodes + network + anomaly injection.
//!
//! Reproduces the paper's experiment environment (§V-E): many agents on
//! one machine's loopback interface, with message send/receive *blocked*
//! at selected nodes for controlled periods. A paused node's inbound
//! messages and timers are queued and processed the moment it resumes —
//! exactly the observable behaviour of a process starved of CPU.
//!
//! # Execution model: windows and canonical commits
//!
//! Every node's driver and the one event queue live in the event lane
//! (the private `lane` module). The simulation advances in bounded
//! *windows* no longer than the network's minimum one-way latency:
//! nothing a node sends inside a window can arrive inside the same
//! window. Cross-node effects are buffered and *committed* between
//! windows in the canonical order `(time, sending node, per-node
//! sequence)`; network RNG draws, telemetry and trace appends all happen
//! at commit. That order is what fixes the network RNG's draw sequence,
//! so every pinned trace and fingerprint depends on it.
//!
//! The whole simulation is deterministic for a given
//! [`ClusterBuilder::seed`]: node RNGs, network jitter and event ordering
//! are all derived from it.
//!
//! # Phantom members
//!
//! Large-scale slices (tens of thousands of members) cannot afford a
//! full driver per member. [`ClusterBuilder::phantom_members`] extends
//! the roster with *phantoms*: members that exist in every real node's
//! tables but are simulated by a canned responder that acks probes and
//! swallows gossip. Real protocol work (tables, sampling, gossip fan-out,
//! probe scheduling) runs against the full roster size while memory and
//! CPU stay proportional to the real-node count.

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;
use lifeguard_core::config::Config;
use lifeguard_core::driver::Driver;
use lifeguard_core::node::{Input, SwimNode};
use lifeguard_proto::{NodeAddr, NodeName};

use crate::anomaly::AnomalySpec;
use crate::clock::{SimDuration, SimTime};
use crate::lane::{EmitKind, Lane, LaneEvent, LaneSink, NodeSlot, Topology};
use crate::network::{Delivery, Network, NetworkConfig};
use crate::telemetry::Telemetry;
use crate::trace::Trace;

/// UDP/TCP port every simulated member listens on.
pub(crate) const SIM_PORT: u16 = 7946;

/// An action injected into a running simulation.
#[derive(Clone, Debug)]
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

/// Configures and builds a [`Cluster`].
#[derive(Clone, Debug)]
pub struct ClusterBuilder {
    n: usize,
    config: Config,
    seed: u64,
    network: NetworkConfig,
    anomalies: Vec<(usize, AnomalySpec)>,
    full_mesh: bool,
    phantoms: usize,
}

impl ClusterBuilder {
    /// A cluster of `n` nodes named `node-0 … node-{n-1}`, with `node-0`
    /// acting as the join seed.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "cluster needs at least one node");
        ClusterBuilder {
            n,
            config: Config::lan(),
            seed: 0,
            network: NetworkConfig::loopback(),
            anomalies: Vec::new(),
            full_mesh: false,
            phantoms: 0,
        }
    }

    /// Starts every node with full knowledge of every peer instead of
    /// joining through `node-0`. Skips the O(n²) join/push-pull flood, so
    /// large-cluster benchmarks measure steady-state protocol cost
    /// rather than bootstrap traffic.
    pub fn full_mesh(mut self, enabled: bool) -> Self {
        self.full_mesh = enabled;
        self
    }

    /// Protocol configuration used by every node.
    pub fn config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Master seed for all randomness in the run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Network latency/loss model.
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Adds an anomaly schedule for one node.
    pub fn anomaly(mut self, node: usize, spec: AnomalySpec) -> Self {
        assert!(node < self.n, "anomaly node out of range");
        self.anomalies.push((node, spec));
        self
    }

    /// Extends the roster with `phantoms` phantom members (indices
    /// `n..n + phantoms`): table entries answered by a canned prober-side
    /// responder instead of a full protocol instance. Requires
    /// [`full_mesh`](Self::full_mesh) bootstrap, since phantoms cannot
    /// execute a join handshake.
    pub fn phantom_members(mut self, phantoms: usize) -> Self {
        self.phantoms = phantoms;
        self
    }

    /// Builds the cluster at simulated time zero: every node is started,
    /// and nodes 1… send a join push-pull to `node-0`.
    pub fn build(self) -> Cluster {
        let n = self.n;
        let total = n + self.phantoms;
        assert!(
            self.phantoms == 0 || self.full_mesh,
            "phantom members require full_mesh bootstrap"
        );
        assert!(total <= 1 << 24, "address scheme supports 2^24 members");
        let topo = Topology { real: n, total };
        // The conservative-lookahead horizon: nothing crosses the
        // network faster than the minimum one-way latency, so a window
        // of that length is causally closed.
        let horizon_us = self
            .network
            .datagram_latency
            .min(self.network.stream_latency)
            .as_micros() as u64;
        let mut lane = Lane::default();
        let mut addr_to_idx = HashMap::with_capacity(n);
        for i in 0..n {
            let name = NodeName::from(format!("node-{i}"));
            let addr = Cluster::addr_for(i);
            addr_to_idx.insert(addr, i);
            // Distinct, seed-derived RNG stream per node.
            let node_seed = self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64 + 1);
            let node = SwimNode::new(name, addr, self.config.clone(), node_seed);
            lane.slots.push(NodeSlot {
                driver: Driver::new(node),
                paused_until: None,
                crashed: false,
                wake_marker: None,
                outbox: Vec::new(),
                emit_seq: 0,
            });
        }
        let mut cluster = Cluster {
            lane,
            network: Network::new(self.network, self.seed.wrapping_add(0x00C0_FFEE)),
            addr_to_idx,
            now: SimTime::ZERO,
            trace: Trace::new(),
            telemetry: Telemetry::new(n),
            topo,
            horizon_us,
        };
        // Boot + join (or direct full-mesh bootstrap). Phantom members
        // appear in the bootstrap roster like any other peer.
        let seed_addr = Cluster::addr_for(0);
        let roster: Vec<(NodeName, NodeAddr)> = if self.full_mesh {
            (0..total)
                .map(|i| (Cluster::name_of(i), Cluster::addr_for(i)))
                .collect()
        } else {
            Vec::new()
        };
        for i in 0..n {
            cluster.with_sink(i, |driver, sink| driver.start(SimTime::ZERO, sink));
            if self.full_mesh {
                cluster.slot_mut(i).driver.node_mut().bootstrap_peers(
                    roster.iter().cloned(),
                    SimTime::ZERO,
                );
            } else if i > 0 {
                cluster.with_sink(i, |driver, sink| {
                    driver.join(vec![seed_addr], SimTime::ZERO, sink);
                });
            }
            cluster.ensure_wake(i);
        }
        // Schedule anomaly windows.
        for (node, spec) in &self.anomalies {
            let wseed = self.seed.wrapping_add(0xA0_0000 + *node as u64);
            let queue = &mut cluster.lane.queue;
            for w in spec.windows(wseed) {
                queue.push(
                    w.start,
                    LaneEvent::PauseStart {
                        node: *node,
                        until: w.end,
                    },
                );
                queue.push(w.end, LaneEvent::PauseEnd { node: *node });
            }
        }
        cluster
    }
}

/// A running simulated cluster.
pub struct Cluster {
    lane: Lane,
    network: Network,
    addr_to_idx: HashMap<NodeAddr, usize>,
    now: SimTime,
    trace: Trace,
    telemetry: Telemetry,
    topo: Topology,
    /// Window length: the network's minimum one-way latency, in µs.
    horizon_us: u64,
}

impl Cluster {
    /// The synthetic address of node `i` (10.x.y.z encodes `i` in the
    /// low 24 bits, supporting rosters beyond 2¹⁶ members).
    pub fn addr_for(i: usize) -> NodeAddr {
        NodeAddr::new(
            [10, (i >> 16) as u8, (i >> 8) as u8, i as u8],
            SIM_PORT,
        )
    }

    /// The name of node `i`.
    pub fn name_of(i: usize) -> NodeName {
        NodeName::from(format!("node-{i}"))
    }

    /// Number of real (driver-backed) nodes.
    pub fn len(&self) -> usize {
        self.topo.real
    }

    /// Whether the cluster is empty (never true after building).
    pub fn is_empty(&self) -> bool {
        self.topo.real == 0
    }

    /// Total roster size including phantom members.
    pub fn total_members(&self) -> usize {
        self.topo.total
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to a node's protocol state.
    pub fn node(&self, i: usize) -> &SwimNode {
        self.slot(i).driver.node()
    }

    /// The recorded event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The message/byte counters.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Node `i`'s metrics export in the runtime-independent snapshot
    /// shape: the core's deterministic protocol metrics plus the sim
    /// network's transmit accounting folded into the I/O section —
    /// the same struct the net agent returns from `Agent::metrics()`,
    /// so sim and real runs aggregate identically.
    pub fn metrics_snapshot(&self, i: usize) -> lifeguard_metrics::Snapshot {
        let t = self.telemetry.node(i);
        lifeguard_metrics::Snapshot {
            core: self.slot(i).driver.metrics(),
            io: lifeguard_metrics::IoSnapshot {
                datagrams_sent: t.datagrams_sent,
                datagram_bytes: t.datagram_bytes,
                streams_sent: t.streams_sent,
                stream_bytes: t.stream_bytes,
                ..Default::default()
            },
        }
    }

    /// Whether node `i` is currently inside an anomaly window.
    pub fn is_paused(&self, i: usize) -> bool {
        self.slot(i).paused_until.is_some()
    }

    /// Whether node `i` was crashed.
    pub fn is_crashed(&self, i: usize) -> bool {
        self.slot(i).crashed
    }

    /// Runs the simulation until simulated time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        let topo = self.topo;
        while let Some(base) = self.lane.queue.peek_time() {
            if base > t {
                break;
            }
            let wend = Self::window_end(base, self.horizon_us, t);
            self.lane.run_window(wend, topo);
            self.now = wend;
            self.commit_window();
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Runs the simulation for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Injects an action at the current instant.
    pub fn apply(&mut self, action: SimAction) {
        match action {
            SimAction::Crash { node } => {
                self.slot_mut(node).crashed = true;
            }
            SimAction::Pause { node, duration } => {
                let until = self.now + duration;
                self.slot_mut(node).paused_until = Some(until);
                let now = self.now;
                self.with_sink(node, |driver, sink| {
                    driver
                        .handle(Input::IoBlocked { blocked: true }, now, sink)
                        .expect("io-blocked input is infallible");
                });
                self.lane.queue.push(until, LaneEvent::PauseEnd { node });
            }
            SimAction::Leave { node } => {
                let now = self.now;
                self.with_sink(node, |driver, sink| driver.leave(now, sink));
                self.ensure_wake(node);
            }
            SimAction::UpdateMeta { node, meta } => {
                let now = self.now;
                self.with_sink(node, |driver, sink| {
                    driver
                        .handle(Input::UpdateMeta { meta }, now, sink)
                        .expect("update-meta input is infallible");
                });
                self.ensure_wake(node);
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
            .filter(|&i| !self.slot(i).crashed && !self.slot(i).driver.node().has_left())
            .collect();
        for &i in &participants {
            for &j in &participants {
                if i == j {
                    continue;
                }
                let name = Self::name_of(j);
                match self.slot(i).driver.node().member(&name) {
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
                self.slot(i)
                    .driver
                    .node()
                    .member(&name)
                    .map(|m| m.state == lifeguard_proto::MemberState::Alive)
                    .unwrap_or(false)
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn slot(&self, i: usize) -> &NodeSlot {
        &self.lane.slots[i]
    }

    fn slot_mut(&mut self, i: usize) -> &mut NodeSlot {
        &mut self.lane.slots[i]
    }

    /// End of the window opening at `base`: one µs short of the horizon
    /// (a delivery drawn at `base` lands at `base + horizon` at the
    /// earliest, strictly after the window), clipped to the run target.
    fn window_end(base: SimTime, horizon_us: u64, t: SimTime) -> SimTime {
        let w = base.as_micros() + horizon_us.saturating_sub(1);
        SimTime::from_micros(w.min(t.as_micros()))
    }

    /// Runs one driver call against the lane's sink at the cluster
    /// clock, then immediately commits the buffered effects — the path
    /// for build-time boots and injected actions, which happen between
    /// windows.
    fn with_sink<R>(
        &mut self,
        node: usize,
        f: impl FnOnce(&mut Driver, &mut LaneSink<'_>) -> R,
    ) -> R {
        self.lane.now = self.now;
        let r = self.lane.with_sink(node, self.topo, f);
        self.commit_window();
        r
    }

    /// Arms a wake event at the node's next timer deadline unless an
    /// earlier one is already queued.
    fn ensure_wake(&mut self, node: usize) {
        self.lane.now = self.now;
        self.lane.ensure_wake(node);
    }

    /// Sorts the effects the lane buffered into the canonical
    /// `(time, sender, per-sender seq)` order and applies them: telemetry
    /// counters, network verdicts (the only RNG draws in the delivery
    /// path) and arrival events, then trace appends in
    /// `(time, reporter, seq)` order. This is the serialisation point
    /// that fixes the network RNG's draw order.
    fn commit_window(&mut self) {
        let Cluster {
            lane,
            network,
            addr_to_idx,
            telemetry,
            trace,
            ..
        } = self;
        lane.emissions.sort_unstable_by_key(|e| (e.at, e.from, e.seq));
        lane.records.sort_unstable_by_key(|r| (r.at, r.reporter, r.seq));
        for em in lane.emissions.drain(..) {
            let from_addr = Cluster::addr_for(em.from);
            match em.kind {
                EmitKind::Packet { to, payload } => {
                    telemetry.record_datagram(em.from, payload.len());
                    let Some(&to_idx) = addr_to_idx.get(&to) else {
                        continue; // address outside the simulation
                    };
                    if let Delivery::Deliver(delay) = network.datagram(em.from, to_idx) {
                        lane.queue.push(
                            em.at + delay,
                            LaneEvent::Datagram {
                                to: to_idx,
                                from: from_addr,
                                payload,
                            },
                        );
                    }
                }
                EmitKind::Stream { to, msg, len } => {
                    telemetry.record_stream(em.from, len);
                    let Some(&to_idx) = addr_to_idx.get(&to) else {
                        continue;
                    };
                    if let Delivery::Deliver(delay) = network.stream(em.from, to_idx) {
                        lane.queue.push(
                            em.at + delay,
                            LaneEvent::Stream {
                                to: to_idx,
                                from: from_addr,
                                msg,
                            },
                        );
                    }
                }
                EmitKind::PhantomPacket {
                    phantom,
                    len,
                    replies,
                } => {
                    telemetry.record_datagram(em.from, len);
                    // Outbound leg to the phantom; each canned reply then
                    // takes its own return leg. Phantom sends are not
                    // telemetered — telemetry tracks real nodes only.
                    if let Delivery::Deliver(out) = network.datagram(em.from, phantom) {
                        let phantom_addr = Cluster::addr_for(phantom);
                        for (reply_to, payload) in replies {
                            let Some(&to_idx) = addr_to_idx.get(&reply_to) else {
                                continue;
                            };
                            if let Delivery::Deliver(back) = network.datagram(phantom, to_idx) {
                                lane.queue.push(
                                    em.at + out + back,
                                    LaneEvent::Datagram {
                                        to: to_idx,
                                        from: phantom_addr,
                                        payload,
                                    },
                                );
                            }
                        }
                    }
                }
                EmitKind::PhantomStream { len } => {
                    // Counted like any send, then dropped: phantoms have no
                    // stream endpoint, so anti-entropy with them is a no-op.
                    telemetry.record_stream(em.from, len);
                }
            }
        }
        for r in lane.records.drain(..) {
            trace.record(r.at, r.reporter, r.event);
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("n", &self.topo.real)
            .field("phantoms", &(self.topo.total - self.topo.real))
            .field("now", &self.now)
            .field("pending_events", &self.lane.queue.len())
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
        let detect = c.trace().first_failure_detection("node-7");
        assert!(detect.is_some(), "crash never detected");
        // Everyone else eventually declares it failed.
        let healthy: Vec<usize> = (0..7).collect();
        assert!(c.trace().full_dissemination("node-7", &healthy).is_some());
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
        assert_eq!(c.trace().first_failure_detection("node-3"), None);
        assert!(c.nodes_seeing_alive("node-3").len() == 8);
    }

    #[test]
    fn leave_is_not_a_failure() {
        let mut c = ClusterBuilder::new(5).seed(4).build();
        c.run_for(SimDuration::from_secs(15));
        c.apply(SimAction::Leave { node: 4 });
        c.run_for(SimDuration::from_secs(20));
        assert_eq!(c.trace().first_failure_detection("node-4"), None);
        let leaves = c
            .trace()
            .count(|e| matches!(&e.event, Event::MemberLeft { name } if name.as_str() == "node-4"));
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
            (events, c.telemetry().total())
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
        assert!(c.trace().first_failure_detection("node-3").is_some());
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
        let early = c.telemetry().total();
        c.run_for(SimDuration::from_secs(5));
        let late = c.telemetry().total();
        assert!(late.messages() > early.messages());
        assert!(late.bytes() > early.bytes());
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
    fn phantom_members_are_seen_alive_and_stay_alive() {
        // 4 real nodes + 60 phantoms: every real node should hold the
        // full roster as alive and keep it that way (phantoms always
        // ack probes), without ever declaring a phantom failed.
        let mut c = ClusterBuilder::new(4)
            .seed(11)
            .full_mesh(true)
            .phantom_members(60)
            .build();
        c.run_for(SimDuration::from_secs(30));
        for i in 0..4 {
            assert_eq!(c.node(i).num_alive(), 64, "node {i} lost roster members");
        }
        let phantom_failures = c.trace().count(|e| {
            matches!(&e.event, Event::MemberFailed { name, .. }
                if name.as_str().strip_prefix("node-")
                    .and_then(|s| s.parse::<usize>().ok())
                    .is_some_and(|idx| idx >= 4))
        });
        assert_eq!(phantom_failures, 0, "phantoms must never be declared failed");
    }
}
