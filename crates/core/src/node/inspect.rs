//! The node's read-only surface: identity, the member table, the
//! metrics export and the cross-part invariant check.

use lifeguard_metrics::CoreSnapshot;
use lifeguard_proto::{Incarnation, Message, NodeAddr, NodeName};

use super::{GossipLoop, SwimNode};
use crate::config::Config;
use crate::member::MemberRef;

impl SwimNode {
    /// The local node's name.
    pub fn name(&self) -> &NodeName {
        &self.name
    }

    /// The local node's advertised address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// The local incarnation number.
    pub fn incarnation(&self) -> Incarnation {
        self.incarnation
    }

    /// The current Local Health Multiplier score (0 = healthy).
    pub fn local_health(&self) -> u32 {
        self.awareness.score()
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// All known members (including self and retained dead members).
    pub fn members(&self) -> impl Iterator<Item = MemberRef<'_>> {
        self.membership.iter()
    }

    /// Looks up a member record by name.
    pub fn member(&self, name: &NodeName) -> Option<MemberRef<'_>> {
        self.membership.get(name)
    }

    /// Number of members currently believed alive (including self).
    pub fn num_alive(&self) -> usize {
        self.membership.alive_count()
    }

    /// Number of live members (alive + suspect, including self).
    pub fn num_live(&self) -> usize {
        self.membership.live_count()
    }

    /// Whether the node has left the group.
    pub fn has_left(&self) -> bool {
        self.left
    }

    /// Whether message I/O is currently blocked (anomaly injection).
    pub fn is_io_blocked(&self) -> bool {
        self.blocked_io.is_blocked()
    }

    /// Number of gossip broadcasts waiting in the queue (introspection).
    pub fn pending_broadcasts(&self) -> usize {
        self.outbox.broadcasts.len()
    }

    /// The queued gossip broadcast about `subject`, if any (test/debug
    /// introspection).
    pub fn queued_broadcast_for(&self, subject: &NodeName) -> Option<&Message> {
        self.outbox.broadcasts.queued_for(subject)
    }

    /// Point-in-time metrics snapshot of the protocol plane: the
    /// protocol activity counters, the probe-RTT and suspicion-lifetime
    /// histograms, health/queue gauges and anti-entropy volume, in the
    /// runtime-independent [`CoreSnapshot`] shape. Everything here is
    /// recorded on the deterministic `handle_input` path, so for the
    /// same input trace every runtime reports the same snapshot.
    pub fn metrics(&self) -> CoreSnapshot {
        let depth = self.outbox.broadcasts.len() as u64;
        CoreSnapshot {
            lhm: u64::from(self.awareness.score()),
            lhm_peak: u64::from(self.awareness.peak()),
            lhm_max: u64::from(self.awareness.max()),
            broadcast_queue_depth: depth,
            broadcast_queue_peak: self.metrics.broadcast_queue_peak.max(depth),
            ..self.metrics.clone()
        }
    }

    /// Checks what each part of the node promises the others, and
    /// panics on the first violation (for tests and the simulator —
    /// call it between inputs): every suspicion has an armed expiry and
    /// `Suspect` members ↔ suspicions are one-to-one; the deadlines of
    /// the probe in flight and of relayed probes are armed or deferred
    /// by blocked I/O, never both; every queued packet lies inside the
    /// scratch arena; every live member but this node is in the probe
    /// rotation exactly once; the gossip loop is armed with its tick in
    /// the wheel, or parked with nothing to do; plus the member table's
    /// and the timer queue's own structure checks.
    pub fn check_invariants(&self) {
        match self.gossip {
            GossipLoop::Armed(key) => assert!(
                self.timers.deadline_of(key).is_some(),
                "gossip loop armed without a tick"
            ),
            GossipLoop::Parked { .. } => assert!(
                !self.started || self.gossip_idle(),
                "gossip loop parked with work to do"
            ),
        }
        self.membership.check_invariants();
        self.timers.check_invariants();
        self.outbox.check_invariants();
        self.suspicions
            .check_invariants(&self.membership, &self.timers);
        self.prober
            .check_invariants(&self.membership, &self.name, &self.timers, &self.blocked_io);
    }
}
