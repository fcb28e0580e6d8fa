//! Construction and the lifecycle inputs: start, bootstrap, join,
//! leave and metadata updates.

use bytes::Bytes;
use lifeguard_metrics::CoreSnapshot;
use lifeguard_proto::{Dead, Incarnation, MemberState, Message, NodeAddr, NodeName, MAX_META_LEN};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::{GossipLoop, SwimNode, Timer};
use crate::awareness::Awareness;
use crate::blocked_io::BlockedIo;
use crate::config::Config;
use crate::member::Member;
use crate::membership::Membership;
use crate::outbox::Outbox;
use crate::prober::Prober;
use crate::suspicion::Suspicions;
use crate::sync::{self, AntiEntropy};
use crate::time::Time;
use crate::timer_wheel::TimerWheel;

impl SwimNode {
    /// Creates a node. Call [`SwimNode::start`] before driving it.
    ///
    /// `seed` fixes the node's private RNG stream (probe order, gossip
    /// fan-out choices); two nodes with the same seed and inputs behave
    /// identically.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`Config::validate`]; use
    /// [`SwimNode::try_new`] to handle invalid configurations
    /// gracefully.
    #[expect(
        clippy::panic,
        reason = "documented contract: `new` panics on an invalid config at construction time, \
                  never on wire input; `try_new` is the graceful path"
    )]
    pub fn new(name: NodeName, addr: NodeAddr, config: Config, seed: u64) -> Self {
        Self::try_new(name, addr, config, seed)
            .unwrap_or_else(|e| panic!("invalid SwimNode config: {e}"))
    }

    /// Fallible [`SwimNode::new`]: rejects invalid configurations with
    /// the typed [`ConfigError`](crate::config::ConfigError) instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns the first [`Config::validate`] violation, or
    /// [`ConfigError::NodeNameTooLong`](crate::config::ConfigError::NodeNameTooLong)
    /// for a `name` the wire format cannot carry.
    pub fn try_new(
        name: NodeName,
        addr: NodeAddr,
        config: Config,
        seed: u64,
    ) -> Result<Self, crate::config::ConfigError> {
        config.validate()?;
        if name.len() > usize::from(u16::MAX) {
            return Err(crate::config::ConfigError::NodeNameTooLong);
        }
        Ok(SwimNode {
            awareness: Awareness::new(config.effective_awareness_max()),
            outbox: Outbox::new(),
            config,
            name,
            addr,
            incarnation: Incarnation::ZERO,
            meta: Bytes::new(),
            membership: Membership::new(),
            timers: TimerWheel::new(),
            rng: StdRng::seed_from_u64(seed),
            started: false,
            left: false,
            prober: Prober::default(),
            suspicions: Suspicions::default(),
            sync: AntiEntropy::new(seed),
            blocked_io: BlockedIo::default(),
            gossip: GossipLoop::Parked { next: Time::ZERO },
            metrics: CoreSnapshot::default(),
        })
    }

    /// Boots the node: registers itself as alive and arms the periodic
    /// timers. Must be called exactly once before any other driving call.
    /// Produces no outputs (there is nobody to talk to yet).
    ///
    /// # Panics
    ///
    /// Panics if the node was already started.
    // lint: allow(panic_path) — documented contract: the owner boots a node once (`Driver::start`), before any input; wire input never reaches `start`
    pub fn start(&mut self, now: Time) {
        assert!(!self.started, "start() called twice");
        self.started = true;
        let mut me = Member::new(self.name.clone(), self.addr, self.incarnation, now);
        me.meta = self.meta.clone();
        self.membership.upsert(me);

        // Randomize initial phases so a cluster booted in lock-step does
        // not probe in lock-step.
        let probe_phase = self.random_phase(self.config.probe_interval);
        self.timers.schedule(now + probe_phase, Timer::ProbeRound);
        let gossip_phase = self.random_phase(self.config.gossip_interval);
        let tick = self.timers.schedule(now + gossip_phase, Timer::GossipTick);
        self.gossip = GossipLoop::Armed(tick);
        if let Some(pp) = self.config.push_pull_interval {
            let pp_phase = self.random_phase(pp);
            self.timers
                .schedule(now + pp + pp_phase, Timer::PushPullTick);
        }
        if let Some(rc) = self.config.reconnect_interval {
            let rc_phase = self.random_phase(rc);
            self.timers.schedule(now + rc + rc_phase, Timer::Reconnect);
        }
        self.timers
            .schedule(now + self.config.dead_reclaim, Timer::Reap);
    }

    fn random_phase(&mut self, interval: std::time::Duration) -> std::time::Duration {
        let us = interval.as_micros().max(1) as u64;
        std::time::Duration::from_micros(self.rng.random_range(0..us))
    }

    /// Registers peers directly as alive members, bypassing the join
    /// protocol — the simulator's full-mesh bootstrap for large-cluster
    /// benchmarks. No gossip is enqueued and no events are emitted; the
    /// probe rotation absorbs all names with one bulk shuffle.
    pub fn bootstrap_peers(
        &mut self,
        peers: impl IntoIterator<Item = (NodeName, NodeAddr)>,
        now: Time,
    ) {
        debug_assert!(self.started, "bootstrap_peers() before start()");
        let peers = peers.into_iter();
        let expected = peers.size_hint().0;
        self.membership.reserve(expected);
        let mut fresh = Vec::with_capacity(expected);
        for (name, addr) in peers {
            if name == self.name {
                continue;
            }
            if let Err(vacant) = self.membership.lookup(name.as_str()) {
                let member = Member::new(name, addr, Incarnation::ZERO, now);
                fresh.push(self.membership.insert(vacant, member));
            }
        }
        self.prober.admit_all(fresh, &mut self.rng);
    }

    /// `Input::Join`: sends a push-pull sync (carrying our own record)
    /// to each seed address over the stream transport.
    pub(super) fn join(&mut self, seeds: &[NodeAddr]) {
        debug_assert!(self.started, "join() before start()");
        let Some(me) = self.membership.get(&self.name) else {
            debug_assert!(false, "self is registered by start()");
            return;
        };
        let request = sync::join_request(me);
        for &to in seeds.iter().filter(|a| **a != self.addr) {
            self.outbox.stream(to, request.clone());
        }
    }

    /// `Input::Leave`: broadcasts a self-signed `dead` message
    /// (memberlist's leave semantics) and flushes it to a few peers
    /// immediately.
    pub(super) fn leave(&mut self, now: Time) {
        if self.left {
            return;
        }
        self.left = true;
        self.outbox.broadcasts.enqueue(Message::Dead(Dead {
            incarnation: self.incarnation,
            node: self.name.clone(),
            from: self.name.clone(),
        }));
        self.membership.set_state(&self.name, MemberState::Left, now);
        self.gossip_once(now);
    }

    /// `Input::UpdateMeta`: the incarnation is bumped so the new
    /// `alive` message supersedes older state. An oversized blob is
    /// refused here, where it enters, so nothing this node encodes about
    /// itself can overflow the codec's 16-bit blob length. So is any
    /// blob once the node has left: a node that has left stays gone,
    /// and the `Alive` this would gossip (riding on the acks a departed
    /// node still sends) is a rejoin to every peer holding it `Left`.
    pub(super) fn update_meta(&mut self, meta: Bytes, now: Time) {
        if meta.len() > MAX_META_LEN || self.left {
            return;
        }
        self.meta = meta;
        self.incarnation = self.incarnation.next();
        self.announce_alive(now);
    }
}
