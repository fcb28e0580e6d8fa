//! SWIM / Lifeguard protocol messages.

use bytes::Bytes;

use crate::types::{Incarnation, MemberState, NodeAddr, NodeName, SeqNo};

/// A direct liveness probe (SWIM `ping`).
///
/// `target` lets the receiver detect probes that were routed to a freshly
/// restarted process with a different name (memberlist behaviour); `source`
/// and `source_addr` let the receiver learn about the prober.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ping {
    /// Correlates the eventual [`Ack`].
    pub seq: SeqNo,
    /// Name of the node being probed.
    pub target: NodeName,
    /// Name of the probing node.
    pub source: NodeName,
    /// Address of the probing node.
    pub source_addr: NodeAddr,
}

/// A request to probe `target` on behalf of `source` (SWIM `ping-req`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IndirectPing {
    /// Correlates the eventual [`Ack`] or [`Nack`] back to the origin.
    pub seq: SeqNo,
    /// Name of the node to probe.
    pub target: NodeName,
    /// Address of the node to probe.
    pub target_addr: NodeAddr,
    /// Whether the origin understands [`Nack`] responses (Lifeguard
    /// LHA-Probe extension; always true between Lifeguard peers).
    pub nack: bool,
    /// Name of the originating prober.
    pub source: NodeName,
    /// Address of the originating prober.
    pub source_addr: NodeAddr,
}

/// Acknowledgement of a [`Ping`] or a successfully relayed indirect probe.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ack {
    /// Sequence number of the probe being acknowledged.
    pub seq: SeqNo,
}

/// Negative acknowledgement of an [`IndirectPing`] (Lifeguard extension).
///
/// Sent by an intermediary at 80% of the probe timeout when it has not yet
/// received an `ack` from the target. Tells the origin that the
/// *intermediary* is responsive even though the target may not be, feeding
/// the origin's Local Health Multiplier.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Nack {
    /// Sequence number of the indirect probe.
    pub seq: SeqNo,
}

/// Gossip: `node` is suspected of having failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Suspect {
    /// Incarnation of `node` the suspicion applies to.
    pub incarnation: Incarnation,
    /// The suspected member.
    pub node: NodeName,
    /// The member that raised (or independently confirmed) the suspicion.
    pub from: NodeName,
}

/// Gossip: `node` is alive at `incarnation` (join announcement or
/// suspicion refutation).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Alive {
    /// The member's current incarnation.
    pub incarnation: Incarnation,
    /// The member this message is about.
    pub node: NodeName,
    /// Where the member can be reached.
    pub addr: NodeAddr,
    /// Opaque application metadata carried with the membership entry.
    pub meta: Bytes,
}

/// Gossip: `node` was declared failed (memberlist renames SWIM's
/// `confirm` to `dead`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Dead {
    /// Incarnation of `node` the declaration applies to.
    pub incarnation: Incarnation,
    /// The member declared dead.
    pub node: NodeName,
    /// The member that declared it (equal to `node` for graceful leave).
    pub from: NodeName,
}

/// One member's knowledge about one node, exchanged during push-pull
/// anti-entropy sync.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PushNodeState {
    /// Node the entry describes.
    pub name: NodeName,
    /// Last known address.
    pub addr: NodeAddr,
    /// Last known incarnation.
    pub incarnation: Incarnation,
    /// Last known state.
    pub state: MemberState,
    /// Application metadata.
    pub meta: Bytes,
}

/// Full state exchange (memberlist anti-entropy, over the stream
/// transport).
///
/// A joining node sends `join = true`; the receiver replies with its own
/// `PushPull` with `reply = true`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PushPull {
    /// Whether this exchange is part of a join.
    pub join: bool,
    /// Whether this message is the response half of the exchange.
    pub reply: bool,
    /// The sender's full membership table (including dead entries still
    /// within the retention window).
    pub states: Vec<PushNodeState>,
}

/// Incremental state exchange (delta anti-entropy, over the stream
/// transport).
///
/// Instead of the full membership table, the sender ships only the
/// members whose record changed since the watermark the receiver last
/// confirmed. Watermarks are expressed in the *producing node's* private
/// update-sequence space and are only meaningful for one instance of
/// that node, identified by `epoch`: a receiver that cannot honour
/// `since` (it restarted, or delta sync is disabled) falls back to a
/// full [`PushPull`] exchange.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PushPullDelta {
    /// Name of the sending node (watermark bookkeeping is per peer).
    pub from: NodeName,
    /// Instance id of the sender; its `seq` values are scoped to it.
    pub epoch: u64,
    /// Instance id of the *receiver* that `since` refers to. The
    /// receiver must answer with a full exchange if this is not its
    /// current epoch.
    pub since_epoch: u64,
    /// Highest receiver update-seq the sender has already merged: "I
    /// have your state through `since`; send me what changed after it."
    /// Doubles as the acknowledgement that lets the receiver advance its
    /// own sent-state watermark for the sender.
    pub since: u64,
    /// The sender's current update-seq; `entries` bring the receiver's
    /// knowledge of the sender up to this point.
    pub seq: u64,
    /// Whether this message is the response half of the exchange.
    pub reply: bool,
    /// Members whose record changed after the sender's sent-state
    /// watermark for the receiver.
    pub entries: Vec<PushNodeState>,
}

/// Any protocol message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Message {
    /// Direct probe.
    Ping(Ping),
    /// Indirect probe request.
    IndirectPing(IndirectPing),
    /// Probe acknowledgement.
    Ack(Ack),
    /// Negative acknowledgement (Lifeguard).
    Nack(Nack),
    /// Suspicion gossip.
    Suspect(Suspect),
    /// Liveness gossip.
    Alive(Alive),
    /// Failure gossip.
    Dead(Dead),
    /// Anti-entropy state sync.
    PushPull(PushPull),
    /// Incremental anti-entropy state sync.
    PushPullDelta(PushPullDelta),
}

/// One datagram message as a borrowed view of the packet it arrived
/// in: the seven kinds that travel by datagram, field for field what
/// [`Message`] holds, with names as `&str` and metadata as `&[u8]`
/// slices of the receive buffer. `Copy`; decoding one allocates
/// nothing (see [`compound::for_each_view`](crate::compound::for_each_view)).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DatagramView<'a> {
    /// [`Ping`]
    Ping {
        /// See [`Ping::seq`].
        seq: SeqNo,
        /// See [`Ping::target`].
        target: &'a str,
        /// See [`Ping::source`].
        source: &'a str,
        /// See [`Ping::source_addr`].
        source_addr: NodeAddr,
    },
    /// [`IndirectPing`]
    IndirectPing {
        /// See [`IndirectPing::seq`].
        seq: SeqNo,
        /// See [`IndirectPing::target`].
        target: &'a str,
        /// See [`IndirectPing::target_addr`].
        target_addr: NodeAddr,
        /// See [`IndirectPing::nack`].
        nack: bool,
        /// See [`IndirectPing::source`].
        source: &'a str,
        /// See [`IndirectPing::source_addr`].
        source_addr: NodeAddr,
    },
    /// [`Ack`]
    Ack {
        /// See [`Ack::seq`].
        seq: SeqNo,
    },
    /// [`Nack`]
    Nack {
        /// See [`Nack::seq`].
        seq: SeqNo,
    },
    /// [`Suspect`]
    Suspect {
        /// See [`Suspect::incarnation`].
        incarnation: Incarnation,
        /// See [`Suspect::node`].
        node: &'a str,
        /// See [`Suspect::from`].
        from: &'a str,
    },
    /// [`Alive`]
    Alive {
        /// See [`Alive::incarnation`].
        incarnation: Incarnation,
        /// See [`Alive::node`].
        node: &'a str,
        /// See [`Alive::addr`].
        addr: NodeAddr,
        /// See [`Alive::meta`].
        meta: &'a [u8],
    },
    /// [`Dead`]
    Dead {
        /// See [`Dead::incarnation`].
        incarnation: Incarnation,
        /// See [`Dead::node`].
        node: &'a str,
        /// See [`Dead::from`].
        from: &'a str,
    },
}

/// Discriminant of a [`Message`], used for telemetry and wire tags.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MessageKind {
    /// [`Ping`]
    Ping,
    /// [`IndirectPing`]
    IndirectPing,
    /// [`Ack`]
    Ack,
    /// [`Nack`]
    Nack,
    /// [`Suspect`]
    Suspect,
    /// [`Alive`]
    Alive,
    /// [`Dead`]
    Dead,
    /// [`PushPull`]
    PushPull,
    /// [`PushPullDelta`]
    PushPullDelta,
}

impl MessageKind {
    /// All message kinds, in wire-tag order.
    pub const ALL: [MessageKind; 9] = [
        MessageKind::Ping,
        MessageKind::IndirectPing,
        MessageKind::Ack,
        MessageKind::Nack,
        MessageKind::Suspect,
        MessageKind::Alive,
        MessageKind::Dead,
        MessageKind::PushPull,
        MessageKind::PushPullDelta,
    ];

    /// Stable index (= wire tag) of the kind.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            MessageKind::Ping => "ping",
            MessageKind::IndirectPing => "ping-req",
            MessageKind::Ack => "ack",
            MessageKind::Nack => "nack",
            MessageKind::Suspect => "suspect",
            MessageKind::Alive => "alive",
            MessageKind::Dead => "dead",
            MessageKind::PushPull => "push-pull",
            MessageKind::PushPullDelta => "push-pull-delta",
        }
    }
}

impl Message {
    /// The kind discriminant of this message.
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::Ping(_) => MessageKind::Ping,
            Message::IndirectPing(_) => MessageKind::IndirectPing,
            Message::Ack(_) => MessageKind::Ack,
            Message::Nack(_) => MessageKind::Nack,
            Message::Suspect(_) => MessageKind::Suspect,
            Message::Alive(_) => MessageKind::Alive,
            Message::Dead(_) => MessageKind::Dead,
            Message::PushPull(_) => MessageKind::PushPull,
            Message::PushPullDelta(_) => MessageKind::PushPullDelta,
        }
    }

    /// Whether the message is membership gossip (eligible for
    /// piggybacking on failure-detector packets).
    pub fn is_gossip(&self) -> bool {
        matches!(
            self,
            Message::Suspect(_) | Message::Alive(_) | Message::Dead(_)
        )
    }

    /// The member name a gossip message is about, if any.
    pub fn gossip_subject(&self) -> Option<&NodeName> {
        match self {
            Message::Suspect(s) => Some(&s.node),
            Message::Alive(a) => Some(&a.node),
            Message::Dead(d) => Some(&d.node),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> NodeName {
        NodeName::from(s)
    }

    #[test]
    fn message_kind_mapping() {
        let m = Message::Ack(Ack { seq: SeqNo(1) });
        assert_eq!(m.kind(), MessageKind::Ack);
        assert_eq!(m.kind().name(), "ack");
        assert!(!m.is_gossip());
    }

    #[test]
    fn gossip_subject_extraction() {
        let s = Message::Suspect(Suspect {
            incarnation: Incarnation(1),
            node: name("x"),
            from: name("y"),
        });
        assert!(s.is_gossip());
        assert_eq!(s.gossip_subject(), Some(&name("x")));

        let p = Message::Ping(Ping {
            seq: SeqNo(0),
            target: name("x"),
            source: name("y"),
            source_addr: NodeAddr::new([127, 0, 0, 1], 1),
        });
        assert_eq!(p.gossip_subject(), None);
    }

    #[test]
    fn kind_indices_are_dense_and_ordered() {
        for (i, k) in MessageKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
