//! Transmit-limited gossip queue.
//!
//! Gossip messages (`alive`, `suspect`, `dead`) are disseminated by
//! piggybacking on failure-detector packets and on dedicated gossip
//! ticks. Each broadcast is (re)transmitted up to `λ·⌈log10(n + 1)⌉`
//! times. Selection prefers messages that have been transmitted *fewer*
//! times (SWIM §III: "updates that have been shared less times are
//! preferred"); ties prefer newer broadcasts.
//!
//! A new broadcast about a node **invalidates** any queued broadcast
//! about the same node — gossip about a member is totally ordered by
//! incarnation precedence, so the superseded message must not keep
//! circulating. This is also how LHA-Suspicion's re-gossip bound arises:
//! each of the first `K` independent suspicions re-enqueues the suspect
//! message (resetting its transmit count), so at most `(K + 1)·λ·log n`
//! copies are ever sent (paper §IV-B).
//!
//! # Incremental selection
//!
//! The seed implementation kept a flat `Vec`, ran an O(n) `retain` on
//! every enqueue to invalidate the subject's older broadcast, and
//! re-sorted the whole queue (O(n log n)) for every packet filled. This
//! version keeps the entries in a `HashMap` keyed by a monotonically
//! increasing id, an O(1) `HashMap<NodeName, id>` invalidation index,
//! and a lazy max-heap ordered by the selection key
//! `(fewest transmits, newest id)`:
//!
//! * [`BroadcastQueue::enqueue`] (and the invalidation it implies) is
//!   O(1) map work plus one amortized-O(1) heap push — invalidated
//!   entries are *not* touched in the heap; their stale heap items are
//!   discarded when they eventually surface.
//! * [`BroadcastQueue::fill`] pops in selection order and does
//!   O(selected + skipped) work per packet instead of sorting all n
//!   queued broadcasts; a running lower bound of the smallest encoded
//!   message lets it stop as soon as nothing else can fit.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use bytes::Bytes;
use lifeguard_proto::compound::{CompoundBuilder, MAX_COMPOUND_PARTS};
use lifeguard_proto::{codec, Message, NodeName};

/// One queued gossip broadcast.
#[derive(Clone, Debug)]
struct QueuedBroadcast {
    /// The member the message is about (invalidation key).
    subject: NodeName,
    /// The decoded message (kept for the Buddy System and debugging).
    msg: Message,
    /// Pre-encoded wire bytes.
    encoded: Bytes,
    /// How many times this broadcast has been transmitted.
    transmits: u32,
}

/// Heap item: `(Reverse(transmits), id)` under max-heap order pops the
/// least-transmitted entry first, newest (largest id) on ties — the
/// exact selection key the seed obtained by sorting. Ids are unique, so
/// the order is total.
type HeapItem = (Reverse<u32>, u64);

/// The gossip broadcast queue of one node.
#[derive(Clone, Debug)]
pub struct BroadcastQueue {
    /// Live entries by id. An id missing here but still in the heap is a
    /// stale heap item (invalidated or re-prioritised) and is dropped
    /// when it surfaces.
    // bounded: one live entry per subject member — enqueueing about a known subject retires its predecessor, so |entries| ≤ cluster size
    entries: HashMap<u64, QueuedBroadcast>,
    /// The current broadcast id per subject (invalidation index).
    // bounded: one key per subject member, unlinked on retire — ≤ cluster size
    by_subject: HashMap<NodeName, u64>,
    /// Selection order with lazy deletion.
    // bounded: ≤ |entries| live items plus stale items, which surfacing pops drop; compaction caps stale growth at 2:1
    heap: BinaryHeap<HeapItem>,
    /// Monotonic enqueue stamp; larger = newer.
    next_id: u64,
    /// Lower bound on the smallest encoded entry currently queued
    /// (reset when the queue empties); lets `fill` stop early.
    min_len: usize,
    /// The transmit limit seen by the previous `fill`; a shrink (the
    /// cluster got smaller) triggers an eager purge of over-limit
    /// entries, matching the seed's retire-every-fill semantics even
    /// when a fill exits before popping them.
    last_limit: u32,
}

impl Default for BroadcastQueue {
    fn default() -> Self {
        BroadcastQueue {
            entries: HashMap::new(),
            by_subject: HashMap::new(),
            heap: BinaryHeap::new(),
            next_id: 0,
            min_len: usize::MAX,
            last_limit: 0,
        }
    }
}

impl BroadcastQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BroadcastQueue::default()
    }

    /// Number of queued broadcasts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue has nothing to gossip.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Enqueues a gossip message, invalidating any queued broadcast about
    /// the same member. Amortized O(1).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `msg` is not a gossip message.
    pub fn enqueue(&mut self, msg: Message) {
        debug_assert!(msg.is_gossip(), "only gossip messages are broadcast");
        let Some(subject) = msg.gossip_subject().cloned() else {
            return;
        };
        let encoded = codec::encode_message(&msg);
        if self.entries.is_empty() {
            self.min_len = usize::MAX;
        }
        self.min_len = self.min_len.min(encoded.len());
        let id = self.next_id;
        self.next_id += 1;
        if let Some(old) = self.by_subject.insert(subject.clone(), id) {
            // The superseded broadcast stops existing now; its heap item
            // is discarded lazily when it surfaces.
            self.entries.remove(&old);
        }
        self.entries.insert(
            id,
            QueuedBroadcast {
                subject,
                msg,
                encoded,
                transmits: 0,
            },
        );
        self.heap.push((Reverse(0), id));
        // Stale items (from invalidations of rarely-selected subjects)
        // are normally discarded as they surface, but sustained churn
        // can strand them below fresher entries forever; compact once
        // they outnumber live entries 2:1.
        if self.heap.len() > 2 * self.entries.len() + 16 {
            self.heap = self
                .entries
                .iter()
                .map(|(&id, e)| (Reverse(e.transmits), id))
                .collect();
        }
    }

    /// The queued message about `subject`, if any (used by tests and
    /// introspection). O(1).
    pub fn queued_for(&self, subject: &NodeName) -> Option<&Message> {
        let id = self.by_subject.get(subject)?;
        self.entries.get(id).map(|q| &q.msg)
    }

    /// Fills `builder` with as many queued broadcasts as fit, preferring
    /// least-transmitted (ties: newest). Each selected broadcast's
    /// transmit count is incremented; broadcasts that reach
    /// `transmit_limit` are retired from the queue.
    ///
    /// `exclude` skips broadcasts about one member (used by the Buddy
    /// System, which has already force-included that member's suspect
    /// message).
    pub fn fill(
        &mut self,
        builder: &mut CompoundBuilder,
        transmit_limit: u32,
        exclude: Option<&NodeName>,
    ) {
        self.fill_fanout(builder, transmit_limit, exclude, 1);
    }

    /// [`BroadcastQueue::fill`] for a packet that will be sent to
    /// `copies` destinations at once (the batched gossip fan-out: one
    /// encode pass, one packet, N recipients). Each selected broadcast
    /// is charged `copies` transmissions — the same aggregate
    /// accounting as `copies` separate fills — so the
    /// `λ·⌈log10(n + 1)⌉` dissemination bound is preserved. A broadcast
    /// within `copies` of the limit still goes to all `copies`
    /// recipients and is then retired, overshooting its bound by at
    /// most `copies − 1` sends on its final fan-out.
    pub fn fill_fanout(
        &mut self,
        builder: &mut CompoundBuilder,
        transmit_limit: u32,
        exclude: Option<&NodeName>,
        copies: u32,
    ) {
        let copies = copies.max(1);
        if transmit_limit < self.last_limit {
            // O(n), but only on the rare downward log10(n) boundary
            // crossing; over-limit entries surfacing during normal
            // fills are retired lazily in `pop_valid`.
            let over: Vec<u64> = self
                .entries
                .iter()
                .filter(|(_, e)| e.transmits >= transmit_limit)
                .map(|(&id, _)| id)
                .collect();
            for id in over {
                self.retire(id);
            }
        }
        self.last_limit = transmit_limit;
        // Entries selected this fill are re-queued only after the loop,
        // so no broadcast is packed twice into one packet.
        let mut requeue: Vec<HeapItem> = Vec::new();
        while let Some((Reverse(transmits), id)) = self.pop_valid(transmit_limit) {
            let Some(entry) = self.entries.get_mut(&id) else {
                continue; // unreachable: pop_valid just validated it
            };
            if builder.len() >= MAX_COMPOUND_PARTS {
                requeue.push((Reverse(transmits), id));
                break;
            }
            if exclude.is_some_and(|ex| &entry.subject == ex) {
                requeue.push((Reverse(transmits), id));
                continue;
            }
            if entry.encoded.len() > builder.remaining() {
                requeue.push((Reverse(transmits), id));
                if builder.remaining() < self.min_len {
                    break; // nothing queued can be smaller
                }
                continue;
            }
            if builder.try_add_bytes(&entry.encoded) {
                let after = transmits + copies;
                if after >= transmit_limit {
                    self.retire(id);
                } else {
                    entry.transmits = after;
                    requeue.push((Reverse(after), id));
                }
            } else {
                requeue.push((Reverse(transmits), id));
            }
        }
        self.heap.extend(requeue);
    }

    /// Removes every queued broadcast (used on shutdown).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.by_subject.clear();
        self.heap.clear();
        self.min_len = usize::MAX;
        self.last_limit = 0;
    }

    /// Pops stale/over-limit heap items until the top is a live,
    /// correctly-prioritised entry, and pops and returns that item.
    /// Over-limit entries found on the way are retired (the limit
    /// shrank below their transmit count).
    fn pop_valid(&mut self, transmit_limit: u32) -> Option<HeapItem> {
        loop {
            let (Reverse(transmits), id) = self.heap.pop()?;
            match self.entries.get(&id) {
                // Invalidated: drop the stale item.
                None => {}
                // Re-prioritised: a fresher item exists.
                Some(e) if e.transmits != transmits => {}
                Some(_) if transmits >= transmit_limit => self.retire(id),
                Some(_) => return Some((Reverse(transmits), id)),
            }
        }
    }

    fn retire(&mut self, id: u64) {
        if let Some(entry) = self.entries.remove(&id) {
            // Only unlink the subject if it still points at this entry
            // (a newer broadcast may have replaced it already).
            if self.by_subject.get(&entry.subject) == Some(&id) {
                self.by_subject.remove(&entry.subject);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifeguard_proto::compound::decode_packet;
    use lifeguard_proto::{Alive, Incarnation, NodeAddr, Suspect};

    /// Finishes `b` into a fresh buffer of its own.
    fn finish(b: &mut CompoundBuilder) -> Option<Vec<u8>> {
        let mut packet = Vec::new();
        b.finish_into(&mut packet).map(|_| packet)
    }

    fn suspect(node: &str, from: &str, inc: u64) -> Message {
        Message::Suspect(Suspect {
            incarnation: Incarnation(inc),
            node: node.into(),
            from: from.into(),
        })
    }

    fn alive(node: &str, inc: u64) -> Message {
        Message::Alive(Alive {
            incarnation: Incarnation(inc),
            node: node.into(),
            addr: NodeAddr::new([10, 0, 0, 1], 1),
            meta: Bytes::new(),
        })
    }

    #[test]
    fn fill_fanout_charges_copies_per_selection() {
        let mut q = BroadcastQueue::new();
        q.enqueue(alive("n", 1));
        // Limit 6, 4 copies: the first fan-out leaves the broadcast at
        // 4 transmits; the second reaches 8 ≥ 6 and retires it.
        let mut b = CompoundBuilder::new(1400);
        q.fill_fanout(&mut b, 6, None, 4);
        assert!(finish(&mut b).is_some());
        assert_eq!(q.len(), 1);
        let mut b = CompoundBuilder::new(1400);
        q.fill_fanout(&mut b, 6, None, 4);
        assert!(finish(&mut b).is_some());
        assert!(q.is_empty(), "retired once the aggregate count hit the limit");
    }

    #[test]
    fn fill_is_fill_fanout_of_one_copy() {
        let (mut a, mut b) = (BroadcastQueue::new(), BroadcastQueue::new());
        a.enqueue(suspect("s", "from", 1));
        b.enqueue(suspect("s", "from", 1));
        for _ in 0..3 {
            let mut ba = CompoundBuilder::new(1400);
            let mut bb = CompoundBuilder::new(1400);
            a.fill(&mut ba, 3, None);
            b.fill_fanout(&mut bb, 3, None, 1);
            assert_eq!(finish(&mut ba), finish(&mut bb));
        }
        assert!(a.is_empty() && b.is_empty());
    }

    fn drain(q: &mut BroadcastQueue, limit: u32) -> Vec<Message> {
        let mut out = Vec::new();
        loop {
            let mut b = CompoundBuilder::new(1400);
            q.fill(&mut b, limit, None);
            match finish(&mut b) {
                None => break,
                Some(packet) => out.extend(decode_packet(&packet).unwrap()),
            }
            if out.len() > 10_000 {
                panic!("queue never drains");
            }
        }
        out
    }

    #[test]
    fn enqueue_and_fill_roundtrip() {
        let mut q = BroadcastQueue::new();
        q.enqueue(alive("a", 1));
        assert_eq!(q.len(), 1);
        let msgs = drain(&mut q, 1);
        assert_eq!(msgs, vec![alive("a", 1)]);
        assert!(q.is_empty());
    }

    #[test]
    fn transmit_limit_retires_broadcasts() {
        let mut q = BroadcastQueue::new();
        q.enqueue(alive("a", 1));
        let msgs = drain(&mut q, 5);
        assert_eq!(msgs.len(), 5, "broadcast sent exactly λ·log n times");
    }

    #[test]
    fn newer_message_about_same_node_invalidates_queued() {
        let mut q = BroadcastQueue::new();
        q.enqueue(suspect("a", "x", 1));
        q.enqueue(alive("a", 2));
        assert_eq!(q.len(), 1);
        assert_eq!(q.queued_for(&"a".into()), Some(&alive("a", 2)));
        let msgs = drain(&mut q, 1);
        assert_eq!(msgs, vec![alive("a", 2)]);
    }

    #[test]
    fn least_transmitted_is_preferred() {
        let mut q = BroadcastQueue::new();
        q.enqueue(alive("a", 1));
        // Transmit "a" once.
        let mut b = CompoundBuilder::new(1400);
        q.fill(&mut b, 10, None);
        assert_eq!(b.len(), 1);

        q.enqueue(alive("b", 1));
        // Tiny budget fits only one message: must pick the fresh "b".
        let one = codec::encode_message(&alive("b", 1)).len();
        let mut b = CompoundBuilder::new(one);
        q.fill(&mut b, 10, None);
        let packet = finish(&mut b).unwrap();
        let msgs = decode_packet(&packet).unwrap();
        assert_eq!(msgs, vec![alive("b", 1)]);
    }

    #[test]
    fn ties_prefer_newer_broadcasts() {
        let mut q = BroadcastQueue::new();
        q.enqueue(alive("old", 1));
        q.enqueue(alive("new", 1));
        let one = codec::encode_message(&alive("new", 1)).len();
        let mut b = CompoundBuilder::new(one);
        q.fill(&mut b, 10, None);
        let msgs = decode_packet(&finish(&mut b).unwrap()).unwrap();
        assert_eq!(msgs, vec![alive("new", 1)]);
    }

    /// Regression for the bucketed selection order: one message per
    /// packet, the full drain sequence must be least-transmitted first
    /// and newest first within a transmit-count class, with invalidation
    /// and retirement folded in.
    #[test]
    fn selection_order_is_least_transmitted_then_newest() {
        let mut q = BroadcastQueue::new();
        // "a" transmitted twice, "b" once, then fresh "c", "d".
        q.enqueue(alive("a", 1));
        for _ in 0..2 {
            let mut b = CompoundBuilder::new(1400);
            q.fill(&mut b, 10, None);
        }
        q.enqueue(alive("b", 1));
        let mut b = CompoundBuilder::new(1400);
        q.fill(&mut b, 10, None); // sends b (0 transmits) and a (2)
        assert_eq!(b.len(), 2);
        q.enqueue(alive("c", 1));
        q.enqueue(alive("d", 1));

        // Now: a=3, b=1, c=0, d=0. A single roomy fill must pack the
        // parts in selection order: transmit classes ascending, newest
        // id first within a class.
        let mut b = CompoundBuilder::new(1400);
        q.fill(&mut b, 10, None);
        let msgs = decode_packet(&finish(&mut b).unwrap()).unwrap();
        let order: Vec<&str> = msgs
            .iter()
            .map(|m| match m {
                Message::Alive(a) => a.node.as_str(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, vec!["d", "c", "b", "a"]);
    }

    #[test]
    fn shrinking_transmit_limit_retires_over_limit_entries() {
        let mut q = BroadcastQueue::new();
        q.enqueue(alive("a", 1));
        for _ in 0..3 {
            let mut b = CompoundBuilder::new(1400);
            q.fill(&mut b, 10, None);
        }
        // "a" now has 3 transmits; with the limit shrunk to 2 it must be
        // retired without being sent again.
        q.enqueue(alive("b", 1));
        let mut b = CompoundBuilder::new(1400);
        q.fill(&mut b, 2, None);
        let msgs = decode_packet(&finish(&mut b).unwrap()).unwrap();
        assert_eq!(msgs, vec![alive("b", 1)]);
        assert_eq!(q.len(), 1, "over-limit entry retired");
        assert!(q.queued_for(&"a".into()).is_none());
    }

    #[test]
    fn shrinking_limit_purges_even_when_fill_exits_early() {
        let mut q = BroadcastQueue::new();
        q.enqueue(alive("a", 1));
        for _ in 0..3 {
            let mut b = CompoundBuilder::new(1400);
            q.fill(&mut b, 10, None);
        }
        // A fill too small to pack anything (fresh "b" doesn't fit, and
        // over-limit "a" is below it in the heap) must still retire "a"
        // when the limit has shrunk below its transmit count.
        q.enqueue(alive("b", 1));
        let mut b = CompoundBuilder::new(4);
        q.fill(&mut b, 2, None);
        assert!(finish(&mut b).is_none() || q.queued_for(&"b".into()).is_some());
        assert!(q.queued_for(&"a".into()).is_none(), "over-limit entry lingered");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn exclude_skips_subject() {
        let mut q = BroadcastQueue::new();
        q.enqueue(suspect("a", "x", 1));
        q.enqueue(alive("b", 1));
        let mut b = CompoundBuilder::new(1400);
        q.fill(&mut b, 10, Some(&"a".into()));
        let msgs = decode_packet(&finish(&mut b).unwrap()).unwrap();
        assert_eq!(msgs, vec![alive("b", 1)]);
    }

    #[test]
    fn re_enqueue_resets_transmit_count() {
        // LHA-Suspicion re-gossip: enqueueing a fresh suspect about the
        // same node restarts its λ·log n budget, giving (K+1)·λ·log n max.
        let mut q = BroadcastQueue::new();
        q.enqueue(suspect("a", "x", 1));
        let first = drain(&mut q, 3);
        assert_eq!(first.len(), 3);
        q.enqueue(suspect("a", "y", 1));
        let second = drain(&mut q, 3);
        assert_eq!(second.len(), 3);
        assert_eq!(second[0], suspect("a", "y", 1));
    }

    #[test]
    fn fill_respects_packet_budget() {
        let mut q = BroadcastQueue::new();
        for i in 0..50 {
            q.enqueue(alive(&format!("node-{i}"), 1));
        }
        let mut b = CompoundBuilder::new(200);
        q.fill(&mut b, 10, None);
        let packet = finish(&mut b).unwrap();
        assert!(packet.len() <= 200);
        assert!(decode_packet(&packet).unwrap().len() >= 2);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = BroadcastQueue::new();
        q.enqueue(alive("a", 1));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_invalidation_and_retirement() {
        let mut q = BroadcastQueue::new();
        for i in 0..20 {
            q.enqueue(alive(&format!("node-{i}"), 1));
        }
        assert_eq!(q.len(), 20);
        for i in 0..20 {
            q.enqueue(suspect(&format!("node-{i}"), "x", 2));
        }
        assert_eq!(q.len(), 20, "re-broadcasts invalidate, not add");
        let msgs = drain(&mut q, 2);
        assert_eq!(msgs.len(), 40, "each entry sent exactly limit times");
        assert!(q.is_empty());
    }
}
