//! Anti-entropy: which state a push-pull exchange carries.
//!
//! [`AntiEntropy`] owns the delta-sync watermarks and the two rules
//! that let an exchange send less than the table (PR 20), each with
//! its safety argument next to the code: a delta reply omits what the
//! request proved ([`collect_unproved`]), and a reconnect carries one
//! record ([`reconnect_request`]). It decides *what* travels; the node
//! merges what arrives through its ordinary precedence rules and
//! sends what this module built.

use std::collections::HashMap;
use std::time::Duration;

use lifeguard_proto::{
    Incarnation, MemberState, Message, NodeAddr, NodeName, PushNodeState, PushPull, PushPullDelta,
};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::config::Config;
use crate::member::MemberRef;
use crate::membership::{Membership, SamplePool};
use crate::time::Time;

/// How long a per-peer delta watermark stays trustworthy: if the last
/// exchange with the chosen peer is older than this, the node discards
/// the watermark and falls back to a full sync. At least as long as any
/// `push_pull_interval` delta sync runs with
/// ([`Config::validate`] checks it).
pub(crate) const DELTA_SYNC_HORIZON: Duration = Duration::from_secs(300);

/// Warm sync partners a node aims to keep. Once this many peers hold
/// fresh watermarks, periodic push-pull picks among them (cheap
/// deltas); below it, a random peer is chosen, cold-starting a new
/// pairing with a full-size exchange.
pub(crate) const DELTA_SYNC_PARTNERS: usize = 3;

/// Delta-sync bookkeeping for one peer.
///
/// Watermarks are conservative by construction: `remote_seen` advances
/// only after the peer's entries were merged locally, and `local_acked`
/// advances only on the peer's own `since` claims, so a dropped message
/// can cause re-sending but never a missed update.
#[derive(Clone, Copy, Debug)]
struct PeerSync {
    /// The peer instance (epoch) these watermarks refer to; a changed
    /// epoch invalidates them wholesale.
    peer_epoch: u64,
    /// Highest peer update-seq merged locally — sent as `since`.
    remote_seen: u64,
    /// Highest local update-seq the peer has confirmed merging — the
    /// lower bound of the next delta this node sends it.
    local_acked: u64,
    /// When a delta message from this peer was last processed; past the
    /// [`DELTA_SYNC_HORIZON`] the watermarks are discarded.
    last_exchange: Time,
}

/// What to send back for a received [`PushPullDelta`], once its entries
/// have been merged.
#[derive(Debug)]
pub(crate) enum DeltaReply {
    /// Nothing: the delta was itself a reply.
    Nothing,
    /// This delta (built *before* the merge, so freshly accepted
    /// entries are not echoed straight back).
    Delta(Message),
    /// The watermark could not be served: a [`full_request`], built
    /// after the merge.
    FullResync,
}

/// This instance's epoch and its per-peer watermarks.
#[derive(Debug)]
pub(crate) struct AntiEntropy {
    /// This instance's id for delta-sync watermarks: seq values this
    /// node hands out are only meaningful together with this epoch, so
    /// a restarted peer can never mis-apply watermarks from a previous
    /// life.
    epoch: u64,
    /// Per-peer delta-sync watermarks (pruned on reap and past the
    /// configured horizon).
    // bounded: retained only for members still in the roster (pruned on reap), so ≤ cluster size
    peers: HashMap<NodeName, PeerSync>,
}

impl AntiEntropy {
    /// The epoch is seed-derived (so runs stay reproducible) without
    /// consuming the protocol RNG stream, and never zero
    /// (`since_epoch == 0` means "unknown" on the wire). Runtime
    /// contract: a restarted node must be given a fresh seed
    /// (`Agent::start` derives one from entropy when unseeded) so it
    /// gets a fresh epoch — that is what invalidates stale peer
    /// watermarks. Even under an epoch collision, a `since = 0` request
    /// is always served from scratch, so the failure mode is
    /// re-sending, not data loss.
    pub(crate) fn new(seed: u64) -> Self {
        AntiEntropy {
            epoch: (seed ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9) | 1,
            peers: HashMap::new(),
        }
    }

    /// The peer for one periodic exchange: warm-partner selection. Once
    /// at least [`DELTA_SYNC_PARTNERS`] peers hold fresh watermarks, the
    /// node keeps syncing among them (every exchange is an O(churn)
    /// delta); otherwise it explores a random alive peer, cold-starting
    /// a new pairing with one full-size exchange. Inbound exchanges
    /// warm pairings too, so the partner graph stays connected and
    /// mixes.
    pub(crate) fn partner(
        &self,
        membership: &Membership,
        rng: &mut StdRng,
        config: &Config,
        me: &NodeName,
        now: Time,
    ) -> Option<(NodeName, NodeAddr)> {
        if config.delta_sync {
            let mut warm: Vec<(NodeName, NodeAddr)> = self
                .peers
                .iter()
                .filter(|(_, ps)| now.saturating_since(ps.last_exchange) <= DELTA_SYNC_HORIZON)
                .filter_map(|(name, _)| {
                    let m = membership.get(name)?;
                    (m.state == MemberState::Alive).then(|| (m.name.clone(), m.addr))
                })
                .collect();
            if warm.len() >= DELTA_SYNC_PARTNERS {
                // HashMap iteration order is not deterministic; sort so
                // the seeded draw below is reproducible. (The partner
                // count is positive, so the drawn range is non-empty.)
                warm.sort_by(|a, b| a.0.cmp(&b.0));
                let drawn = rng.random_range(0..warm.len());
                return warm.into_iter().nth(drawn);
            }
        }
        let mut peer = None;
        membership.sample_pool_with(
            SamplePool::Live,
            1,
            rng,
            |m| m.name != me && m.state == MemberState::Alive,
            |m| peer = Some((m.name.clone(), m.addr)),
        );
        peer
    }

    /// The request that starts one exchange with `peer`: an incremental
    /// [`PushPullDelta`] against the stored watermarks when delta sync
    /// is enabled and the watermarks are fresh, a full [`PushPull`]
    /// otherwise (delta sync disabled, or watermark stale past
    /// [`DELTA_SYNC_HORIZON`]). A peer without watermarks gets a
    /// `since = 0` delta — semantically a full exchange that also
    /// bootstraps the watermarks for the rounds after it.
    pub(crate) fn request(
        &mut self,
        peer: &NodeName,
        membership: &Membership,
        config: &Config,
        me: &NodeName,
        now: Time,
    ) -> Message {
        if !config.delta_sync {
            return full_request(membership);
        }
        let held = self.peers.get(peer);
        if held.is_some_and(|ps| now.saturating_since(ps.last_exchange) > DELTA_SYNC_HORIZON) {
            // Watermark stale past the horizon: distrust it, resync in
            // full, and let fresh watermarks re-form.
            self.peers.remove(peer);
            return full_request(membership);
        }
        let (since, since_epoch, local_acked) = match held {
            Some(ps) => (ps.remote_seen, ps.peer_epoch, ps.local_acked),
            None => (0, 0, 0),
        };
        Message::PushPullDelta(PushPullDelta {
            from: me.clone(),
            epoch: self.epoch,
            since_epoch,
            since,
            seq: membership.update_seq(),
            reply: false,
            entries: collect_changed(membership, local_acked),
        })
    }

    /// A [`PushPullDelta`] arrived on the stream transport.
    ///
    /// Watermark protocol: the peer's `since` (validated against our
    /// `epoch`) tells us how much of *our* state it has merged, and
    /// doubles as the ack that advances `local_acked`; its `seq` covers
    /// the attached entries, advancing `remote_seen` (recorded here, up
    /// front: the caller's merge never touches the watermarks).
    pub(crate) fn receive(
        &mut self,
        d: &PushPullDelta,
        membership: &Membership,
        config: &Config,
        me: &NodeName,
        now: Time,
    ) -> DeltaReply {
        // `since = 0` asks to be served from scratch and is always
        // honoured; a non-zero watermark must match this instance.
        let servable = config.delta_sync
            && (d.since == 0 || (d.since_epoch == self.epoch && d.since <= membership.update_seq()));
        if !servable {
            // The remote's watermark refers to a version we cannot
            // serve (we restarted, or delta sync is disabled here).
            // Its entries are still ordinary membership facts — the
            // caller merges them — then a full exchange follows.
            // `reply: false` on it solicits the peer's full state in
            // return, so both sides resync from scratch and fresh
            // watermarks re-form on the next delta round.
            self.peers.remove(&d.from);
            return if d.reply {
                DeltaReply::Nothing
            } else {
                DeltaReply::FullResync
            };
        }
        let fresh = PeerSync {
            peer_epoch: d.epoch,
            remote_seen: 0,
            local_acked: 0,
            last_exchange: now,
        };
        let entry = self.peers.entry(d.from.clone()).or_insert(fresh);
        if entry.peer_epoch != d.epoch {
            // The peer restarted: every watermark for its previous
            // instance is void.
            *entry = fresh;
        }
        if d.since == 0 {
            // An explicit serve-from-scratch request overrides any
            // stored ack: the peer is telling us it has merged nothing
            // of ours, and its claim must win even if epoch detection
            // failed to notice a restart (re-sending is always safe;
            // trusting a stale ack never is).
            entry.local_acked = 0;
        } else {
            entry.local_acked = entry.local_acked.max(d.since);
        }
        entry.last_exchange = now;
        entry.remote_seen = entry.remote_seen.max(d.seq);
        if d.reply {
            return DeltaReply::Nothing;
        }
        DeltaReply::Delta(Message::PushPullDelta(PushPullDelta {
            from: me.clone(),
            epoch: self.epoch,
            since_epoch: d.epoch,
            since: d.seq,
            seq: membership.update_seq(),
            reply: true,
            entries: collect_unproved(membership, entry.local_acked, &d.entries),
        }))
    }

    /// Watermarks ride the member table's retention policy: entries for
    /// reaped members or past the trust horizon are dropped, bounding
    /// the map by the live roster.
    pub(crate) fn prune(&mut self, membership: &Membership, now: Time) {
        self.peers.retain(|name, ps| {
            membership.get(name).is_some()
                && now.saturating_since(ps.last_exchange) <= DELTA_SYNC_HORIZON
        });
    }
}

/// Members changed after `since` in push-pull wire form, newest
/// first. O(changed) via the membership change list.
pub(crate) fn collect_changed(membership: &Membership, since: u64) -> Vec<PushNodeState> {
    membership
        .changed_since(since)
        .map(MemberRef::to_push_state)
        .collect()
}

/// The entries of a delta *reply*: [`collect_changed`] minus every
/// `Alive` entry the request proved, i.e. carried itself as `Alive` at
/// an incarnation ≥ ours. An alive claim only wins at a strictly higher
/// incarnation and the requester's incarnation for a name never
/// decreases, so merging such an entry could not change the requester.
/// `Suspect`, `Dead` and `Left` entries always travel: their merge is a
/// confirmation, not a no-op.
fn collect_unproved(
    membership: &Membership,
    since: u64,
    request: &[PushNodeState],
) -> Vec<PushNodeState> {
    // Only an `Alive` entry can be proved: a feed without one goes
    // out whole, and no proof map is built.
    let any_alive = membership
        .changed_since(since)
        .any(|m| m.state == MemberState::Alive);
    if !any_alive {
        return collect_changed(membership, since);
    }
    // Sized up front: the request of a first exchange carries the
    // peer's whole table, and growing to that by rehashing showed
    // as ~5 % of a 2000-node run.
    let mut proved: HashMap<&NodeName, Incarnation> = HashMap::with_capacity(request.len());
    proved.extend(
        request
            .iter()
            .filter(|e| e.state == MemberState::Alive)
            .map(|e| (&e.name, e.incarnation)),
    );
    membership
        .changed_since(since)
        .filter(|m| {
            m.state != MemberState::Alive
                || proved.get(m.name).is_none_or(|&inc| inc < m.incarnation)
        })
        .map(MemberRef::to_push_state)
        .collect()
}

fn push_pull(join: bool, reply: bool, states: Vec<PushNodeState>) -> Message {
    Message::PushPull(PushPull {
        join,
        reply,
        states,
    })
}

/// The whole table in push-pull wire form.
fn full_table(membership: &Membership) -> Vec<PushNodeState> {
    membership.iter().map(MemberRef::to_push_state).collect()
}

/// The answer to a full [`PushPull`] request: the whole table.
pub(crate) fn full_reply(membership: &Membership) -> Message {
    push_pull(false, true, full_table(membership))
}

/// A full-state push-pull request: the delta-sync fallback (delta sync
/// disabled, watermark stale past the horizon, unservable watermark).
pub(crate) fn full_request(membership: &Membership) -> Message {
    push_pull(false, false, full_table(membership))
}

/// A join: a push-pull request carrying the joiner's own record.
pub(crate) fn join_request(me: MemberRef<'_>) -> Message {
    push_pull(true, false, vec![me.to_push_state()])
}

/// One Serf-style reconnect attempt at a random member believed dead,
/// so partitioned sub-groups re-merge automatically once connectivity
/// is restored. The push-pull request carries one record — the target's
/// own, `Dead` at the incarnation we hold — and means "refute, and tell
/// us what you know": a live target refutes and answers with its full
/// table, a crashed one cost one record instead of the whole table. Not
/// a full sync, and not counted as one. The record is built here, never
/// on an answer: state pushed into a member believed dead must be built
/// before it wakes (docs/ARCHITECTURE.md, "Anti-entropy").
pub(crate) fn reconnect_request(
    membership: &Membership,
    rng: &mut StdRng,
    me: &NodeName,
) -> Option<(NodeAddr, Message)> {
    let mut target = None;
    membership.sample_pool_with(
        SamplePool::Gone,
        1,
        rng,
        |m| m.name != me && m.state == MemberState::Dead,
        |m| target = Some((m.addr, push_pull(false, false, vec![m.to_push_state()]))),
    );
    target
}
