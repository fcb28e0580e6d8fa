//! Checked-in naive baselines for the hot-path benchmarks.
//!
//! These reproduce the pre-optimisation (seed) data-structure designs
//! verbatim so `benches/micro.rs` can measure the indexed
//! [`lifeguard_core::membership::Membership`] and bucketed
//! [`lifeguard_core::broadcast::BroadcastQueue`] against the exact
//! algorithms they replaced:
//!
//! * [`NaiveMembership`] — `BTreeMap<NodeName, Member>`; `live_count` is
//!   a full O(n) scan and `sample` filter-collects all n members into a
//!   candidate `Vec` before a partial Fisher–Yates.
//! * [`NaiveBroadcastQueue`] — flat `Vec`; every enqueue runs an O(n)
//!   `retain` to invalidate the subject and every `fill` sorts the whole
//!   queue (O(n log n)) and finishes with another full `retain`.
//!
//! They are *reference models*, not production code: the property tests
//! in `lifeguard-core` also compare the optimised structures against
//! equivalent models for behavioural agreement.

use std::collections::BTreeMap;

use bytes::Bytes;
use lifeguard_core::member::Member;
use lifeguard_core::time::Time;
use lifeguard_proto::compound::CompoundBuilder;
use lifeguard_proto::{codec, MemberState, Message, NodeName};
use rand::{Rng, RngExt};

/// The seed's `Membership`: ordered map, full scans for counts and
/// sampling.
#[derive(Clone, Debug, Default)]
pub struct NaiveMembership {
    members: BTreeMap<NodeName, Member>,
}

impl NaiveMembership {
    /// Creates an empty table.
    pub fn new() -> Self {
        NaiveMembership::default()
    }

    /// Number of known members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// O(n) live count, as the seed computed on every suspicion start
    /// and transmit-limit evaluation.
    pub fn live_count(&self) -> usize {
        self.members.values().filter(|m| m.is_live()).count()
    }

    /// O(n) alive count.
    pub fn alive_count(&self) -> usize {
        self.members
            .values()
            .filter(|m| m.state == MemberState::Alive)
            .count()
    }

    /// Lookup by name (O(log n)).
    pub fn get(&self, name: &NodeName) -> Option<&Member> {
        self.members.get(name)
    }

    /// Insert or replace.
    pub fn upsert(&mut self, member: Member) -> Option<Member> {
        self.members.insert(member.name.clone(), member)
    }

    /// Remove a record.
    pub fn remove(&mut self, name: &NodeName) -> Option<Member> {
        self.members.remove(name)
    }

    /// Transitions a member's state.
    pub fn set_state(&mut self, name: &NodeName, state: MemberState, now: Time) -> bool {
        match self.members.get_mut(name) {
            Some(m) => {
                m.set_state(state, now);
                true
            }
            None => false,
        }
    }

    /// All records in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Member> {
        self.members.values()
    }

    /// The seed's sampler: filter-collect all n members, then partial
    /// Fisher–Yates — O(n) time and an O(n) allocation per call.
    pub fn sample<R: Rng>(
        &self,
        k: usize,
        rng: &mut R,
        mut filter: impl FnMut(&Member) -> bool,
    ) -> Vec<&Member> {
        let mut candidates: Vec<&Member> = self.members.values().filter(|m| filter(m)).collect();
        let n = candidates.len();
        let take = k.min(n);
        for i in 0..take {
            let j = rng.random_range(i..n);
            candidates.swap(i, j);
        }
        candidates.truncate(take);
        candidates
    }
}

#[derive(Clone, Debug)]
struct NaiveQueued {
    subject: NodeName,
    encoded: Bytes,
    transmits: u32,
    id: u64,
}

/// The seed's `BroadcastQueue`: flat vector, O(n) invalidation per
/// enqueue, full sort per fill.
#[derive(Clone, Debug, Default)]
pub struct NaiveBroadcastQueue {
    items: Vec<NaiveQueued>,
    next_id: u64,
}

impl NaiveBroadcastQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        NaiveBroadcastQueue::default()
    }

    /// Number of queued broadcasts.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Enqueue with O(n) invalidation `retain`.
    pub fn enqueue(&mut self, msg: Message) {
        let Some(subject) = msg.gossip_subject().cloned() else {
            return;
        };
        self.items.retain(|q| q.subject != subject);
        let encoded = codec::encode_message(&msg);
        let id = self.next_id;
        self.next_id += 1;
        self.items.push(NaiveQueued {
            subject,
            encoded,
            transmits: 0,
            id,
        });
    }

    /// Fill with a full O(n log n) sort and trailing O(n) retain.
    pub fn fill(
        &mut self,
        builder: &mut CompoundBuilder,
        transmit_limit: u32,
        exclude: Option<&NodeName>,
    ) {
        let mut order: Vec<usize> = (0..self.items.len()).collect();
        order.sort_by_key(|&i| (self.items[i].transmits, u64::MAX - self.items[i].id));

        let mut used: Vec<usize> = Vec::new();
        for i in order {
            if let Some(ex) = exclude {
                if &self.items[i].subject == ex {
                    continue;
                }
            }
            if builder.remaining() < self.items[i].encoded.len() {
                continue;
            }
            if builder.try_add_bytes(&self.items[i].encoded) {
                used.push(i);
            }
        }
        for &i in &used {
            self.items[i].transmits += 1;
        }
        self.items.retain(|q| q.transmits < transmit_limit);
    }
}

// ---------------------------------------------------------------------
// Seed output-collection baseline
// ---------------------------------------------------------------------

use lifeguard_core::driver::OwnedOutput;
use lifeguard_core::node::SwimNode;

/// The seed's `Vec<Output>` driving surface, emulated over the poll
/// API: every driving call allocated a fresh `Vec` and materialised
/// every packet as an owned `Bytes` (the old `CompoundBuilder::finish`
/// froze a fresh buffer per packet; `OwnedOutput::from` performs the
/// same per-packet copy). `benches/driver.rs` measures the
/// allocation-free `poll_output` drain against this exact shape.
pub fn collect_outputs_vec(node: &mut SwimNode) -> Vec<OwnedOutput> {
    let mut out = Vec::new();
    while let Some(output) = node.poll_output() {
        out.push(OwnedOutput::from(output));
    }
    out
}
