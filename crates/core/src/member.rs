//! Per-member records.

use bytes::Bytes;
use lifeguard_proto::{Incarnation, MemberState, NodeAddr, NodeName, PushNodeState};

use crate::time::Time;

/// Everything the local node knows about one group member, as an owned
/// record: what goes into [`Membership::upsert`], what
/// [`Membership::update`] hands its closure, and what a snapshot outside
/// the table holds. Reads of the table yield a [`MemberRef`] instead.
///
/// [`Membership::upsert`]: crate::membership::Membership::upsert
/// [`Membership::update`]: crate::membership::Membership::update
#[derive(Clone, Debug)]
pub struct Member {
    /// The member's unique name.
    pub name: NodeName,
    /// The member's last known address.
    pub addr: NodeAddr,
    /// The member's last known incarnation.
    pub incarnation: Incarnation,
    /// The member's state as believed locally.
    pub state: MemberState,
    /// When `state` last changed (local clock).
    pub state_change: Time,
    /// Opaque application metadata from the member's `alive` messages.
    pub meta: Bytes,
    /// Value of the owning [`Membership`](crate::membership::Membership)
    /// table's update sequence when this record last changed — the
    /// watermark delta push-pull filters on. Local bookkeeping only,
    /// never on the wire; stamped by the table, not by callers.
    pub updated_seq: u64,
}

impl Member {
    /// Creates a new alive member record.
    pub fn new(name: NodeName, addr: NodeAddr, incarnation: Incarnation, now: Time) -> Self {
        Member {
            name,
            addr,
            incarnation,
            state: MemberState::Alive,
            state_change: now,
            meta: Bytes::new(),
            updated_seq: 0,
        }
    }

    /// Transitions to `state` at `now`, recording the change time only if
    /// the state actually changed.
    pub fn set_state(&mut self, state: MemberState, now: Time) {
        if self.state != state {
            self.state = state;
            self.state_change = now;
        }
    }

    /// Whether the member participates in probing and gossip fan-out.
    pub fn is_live(&self) -> bool {
        self.state.is_live()
    }

    /// Converts to the push-pull wire representation.
    pub fn to_push_state(&self) -> PushNodeState {
        PushNodeState {
            name: self.name.clone(),
            addr: self.addr,
            incarnation: self.incarnation,
            state: self.state,
            meta: self.meta.clone(),
        }
    }
}

/// A read-only view of one member record inside a
/// [`Membership`](crate::membership::Membership) table: the fields of
/// [`Member`] under the same names, the scalar ones copied, `name` and
/// `meta` borrowed from the table. `Copy`, at most 64 bytes.
#[derive(Clone, Copy, Debug)]
pub struct MemberRef<'a> {
    /// The member's unique name.
    pub name: &'a NodeName,
    /// The member's last known address.
    pub addr: NodeAddr,
    /// The member's last known incarnation.
    pub incarnation: Incarnation,
    /// The member's state as believed locally.
    pub state: MemberState,
    /// When `state` last changed (local clock).
    pub state_change: Time,
    /// Opaque application metadata from the member's `alive` messages;
    /// one shared empty buffer for every member that has none.
    pub meta: &'a Bytes,
    /// See [`Member::updated_seq`].
    pub updated_seq: u64,
}

impl MemberRef<'_> {
    /// Whether the member participates in probing and gossip fan-out.
    pub fn is_live(&self) -> bool {
        self.state.is_live()
    }

    /// Converts to the push-pull wire representation.
    pub fn to_push_state(self) -> PushNodeState {
        PushNodeState {
            name: self.name.clone(),
            addr: self.addr,
            incarnation: self.incarnation,
            state: self.state,
            meta: self.meta.clone(),
        }
    }

    /// An owned copy of the record.
    pub fn to_member(self) -> Member {
        Member {
            name: self.name.clone(),
            addr: self.addr,
            incarnation: self.incarnation,
            state: self.state,
            state_change: self.state_change,
            meta: self.meta.clone(),
            updated_seq: self.updated_seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member() -> Member {
        Member::new(
            "a".into(),
            NodeAddr::new([10, 0, 0, 1], 7946),
            Incarnation(3),
            Time::from_secs(1),
        )
    }

    #[test]
    fn new_member_is_alive() {
        let m = member();
        assert_eq!(m.state, MemberState::Alive);
        assert!(m.is_live());
        assert_eq!(m.state_change, Time::from_secs(1));
    }

    #[test]
    fn set_state_records_change_time_once() {
        let mut m = member();
        m.set_state(MemberState::Suspect, Time::from_secs(5));
        assert_eq!(m.state_change, Time::from_secs(5));
        // Same state again: change time untouched.
        m.set_state(MemberState::Suspect, Time::from_secs(9));
        assert_eq!(m.state_change, Time::from_secs(5));
        m.set_state(MemberState::Dead, Time::from_secs(9));
        assert_eq!(m.state_change, Time::from_secs(9));
        assert!(!m.is_live());
    }

    #[test]
    fn push_state_roundtrip_fields() {
        let m = member();
        let ps = m.to_push_state();
        assert_eq!(ps.name, m.name);
        assert_eq!(ps.addr, m.addr);
        assert_eq!(ps.incarnation, m.incarnation);
        assert_eq!(ps.state, m.state);
    }
}
