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
//! version keeps the entries in a slab (`Vec` + free list) whose slots
//! keep their encode buffer, an O(1) `HashMap<NodeName, slot>`
//! invalidation index, and a lazy max-heap ordered by the selection key
//! `(fewest transmits, newest id)`, `id` being a monotonically
//! increasing enqueue stamp:
//!
//! * [`BroadcastQueue::enqueue`] about a subject already queued
//!   overwrites that subject's slot in place — new stamp, message
//!   encoded into the slot's buffer — and otherwise takes a free slot;
//!   either way one amortized-O(1) heap push. Invalidated entries are
//!   *not* touched in the heap; a heap item carries the stamp it was
//!   pushed under, and one whose slot now holds another stamp (or
//!   nothing) is discarded when it eventually surfaces.
//! * [`BroadcastQueue::fill`] pops in selection order and does
//!   O(selected + skipped) work per packet instead of sorting all n
//!   queued broadcasts; a running lower bound of the smallest encoded
//!   message lets it stop as soon as nothing else can fit.
//!
//! In steady state neither allocates: slots, their buffers, the heap
//! and the re-queue list are all reused.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use bytes::BytesMut;
use lifeguard_proto::compound::{CompoundBuilder, MAX_COMPOUND_PARTS};
use lifeguard_proto::{codec, Message, NodeName};

/// The gossip retransmission multiplier λ (memberlist LAN: 4).
pub const RETRANSMIT_MULT: u32 = 4;

/// Gossip retransmit limit for a group of `n` members:
/// `λ·⌈log10(n + 1)⌉`.
pub fn retransmit_limit(n: usize) -> u32 {
    let log = ((n + 1) as f64).log10().ceil() as u32;
    RETRANSMIT_MULT * log.max(1)
}

/// One slab slot: a queued gossip broadcast, or a vacancy that keeps
/// its encode buffer for the next one.
#[derive(Clone, Debug)]
struct Slot {
    /// Enqueue stamp of the broadcast held (or last held) here.
    id: u64,
    /// The decoded message (kept for the Buddy System and debugging);
    /// its gossip subject is the invalidation key. `None` while the
    /// slot is on the free list.
    msg: Option<Message>,
    /// Pre-encoded wire bytes of `msg`.
    encoded: BytesMut,
    /// How many times this broadcast has been transmitted.
    transmits: u32,
}

/// Heap item `(Reverse(transmits), id, slot)`: max-heap order pops the
/// least-transmitted entry first, newest (largest id) on ties — the
/// exact selection key the seed obtained by sorting. Ids are unique, so
/// the order is total and the slot index never decides it.
type HeapItem = (Reverse<u32>, u64, u32);

/// The gossip broadcast queue of one node.
#[derive(Clone, Debug)]
pub struct BroadcastQueue {
    /// The slab. A heap item whose slot is vacant, or holds another id
    /// or transmit count, is stale (invalidated or re-prioritised) and
    /// is dropped when it surfaces.
    // bounded: one live slot per subject member — enqueueing about a known subject overwrites its slot — plus vacancies recycled via `free`, so ≤ peak queue depth ≤ cluster size
    slots: Vec<Slot>,
    // bounded: ≤ |slots| — holds only currently-vacant slot indices
    free: Vec<u32>,
    /// Number of occupied slots.
    live: usize,
    /// The slot of the queued broadcast per subject (invalidation index).
    // bounded: one key per subject member, unlinked on retire — ≤ cluster size
    by_subject: HashMap<NodeName, u32>,
    /// Selection order with lazy deletion.
    // bounded: ≤ `live` items plus stale items, which surfacing pops drop; compaction caps stale growth at 2:1
    heap: BinaryHeap<HeapItem>,
    /// Items popped by the running `fill`, pushed back when it ends.
    // bounded: cleared by every `fill_fanout`, which pops each live entry at most once — ≤ `live`
    requeue: Vec<HeapItem>,
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
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            by_subject: HashMap::new(),
            heap: BinaryHeap::new(),
            requeue: Vec::new(),
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
        self.live
    }

    /// Whether the queue has nothing to gossip.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Enqueues a gossip message, invalidating any queued broadcast about
    /// the same member. Amortized O(1).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `msg` is not a gossip message.
    pub fn enqueue(&mut self, msg: Message) {
        debug_assert!(msg.is_gossip(), "only gossip messages are broadcast");
        let Some(subject) = msg.gossip_subject() else {
            return;
        };
        if self.live == 0 {
            self.min_len = usize::MAX;
        }
        let index = match self.by_subject.get(subject) {
            // The superseded broadcast stops existing now: its slot is
            // overwritten, and its heap item is discarded lazily when
            // it surfaces under the old id.
            Some(&index) => index,
            None => {
                let index = self.free.pop().unwrap_or_else(|| {
                    self.slots.push(Slot {
                        id: 0,
                        msg: None,
                        encoded: BytesMut::new(),
                        transmits: 0,
                    });
                    (self.slots.len() - 1) as u32
                });
                self.by_subject.insert(subject.clone(), index);
                self.live += 1;
                index
            }
        };
        let id = self.next_id;
        self.next_id += 1;
        let Some(slot) = self.slots.get_mut(index as usize) else {
            debug_assert!(false, "subject index points outside the slab");
            return;
        };
        slot.id = id;
        slot.transmits = 0;
        slot.encoded.clear();
        codec::encode_message_into(&msg, &mut slot.encoded);
        self.min_len = self.min_len.min(slot.encoded.len());
        slot.msg = Some(msg);
        self.heap.push((Reverse(0), id, index));
        // Stale items (from invalidations of rarely-selected subjects)
        // are normally discarded as they surface, but sustained churn
        // can strand them below fresher entries forever; compact once
        // they outnumber live entries 2:1.
        if self.heap.len() > 2 * self.live + 16 {
            self.heap.clear();
            self.heap.extend(
                (0u32..)
                    .zip(&self.slots)
                    .filter(|(_, slot)| slot.msg.is_some())
                    .map(|(index, slot)| (Reverse(slot.transmits), slot.id, index)),
            );
        }
    }

    /// The queued message about `subject`, if any (used by tests and
    /// introspection). O(1).
    pub fn queued_for(&self, subject: &NodeName) -> Option<&Message> {
        let index = self.by_subject.get(subject)?;
        self.slots.get(*index as usize)?.msg.as_ref()
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
            for index in 0..self.slots.len() {
                if self
                    .slots
                    .get(index)
                    .is_some_and(|s| s.transmits >= transmit_limit)
                {
                    self.retire(index as u32);
                }
            }
        }
        self.last_limit = transmit_limit;
        // Entries selected this fill are re-queued only after the loop,
        // so no broadcast is packed twice into one packet.
        self.requeue.clear();
        while let Some((Reverse(transmits), id, index)) = self.pop_valid(transmit_limit) {
            let Some(entry) = self.slots.get_mut(index as usize) else {
                continue; // unreachable: pop_valid just validated it
            };
            if builder.len() >= MAX_COMPOUND_PARTS {
                self.requeue.push((Reverse(transmits), id, index));
                break;
            }
            let subject = entry.msg.as_ref().and_then(Message::gossip_subject);
            if exclude.is_some() && subject == exclude {
                self.requeue.push((Reverse(transmits), id, index));
                continue;
            }
            if entry.encoded.len() > builder.remaining() {
                self.requeue.push((Reverse(transmits), id, index));
                if builder.remaining() < self.min_len {
                    break; // nothing queued can be smaller
                }
                continue;
            }
            if builder.try_add_bytes(&entry.encoded) {
                let after = transmits + copies;
                if after >= transmit_limit {
                    self.retire(index);
                } else {
                    entry.transmits = after;
                    self.requeue.push((Reverse(after), id, index));
                }
            } else {
                self.requeue.push((Reverse(transmits), id, index));
            }
        }
        self.heap.extend(self.requeue.iter().copied());
    }

    /// Removes every queued broadcast (used on shutdown).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.live = 0;
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
            let (Reverse(transmits), id, index) = self.heap.pop()?;
            let Some(slot) = self.slots.get(index as usize) else {
                continue;
            };
            // Invalidated (the slot was vacated or overwritten) or
            // re-prioritised (a fresher item exists): drop the stale
            // item.
            if slot.msg.is_none() || slot.id != id || slot.transmits != transmits {
                continue;
            }
            if transmits >= transmit_limit {
                self.retire(index);
                continue;
            }
            return Some((Reverse(transmits), id, index));
        }
    }

    /// Vacates slot `index`, keeping its buffer. A live slot is the one
    /// its subject points at (a newer broadcast about that subject
    /// overwrites it rather than taking another), so the subject is
    /// unlinked with it.
    fn retire(&mut self, index: u32) {
        let Some(msg) = self
            .slots
            .get_mut(index as usize)
            .and_then(|s| s.msg.take())
        else {
            return;
        };
        if let Some(subject) = msg.gossip_subject() {
            self.by_subject.remove(subject);
        }
        self.live -= 1;
        self.free.push(index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lifeguard_proto::compound::decode_packet;
    use lifeguard_proto::{Alive, Incarnation, NodeAddr, Suspect};

    #[test]
    fn retransmit_limit_grows_logarithmically() {
        assert_eq!(retransmit_limit(9), 4); // ceil(log10(10)) = 1
        assert_eq!(retransmit_limit(128), 4 * 3); // ceil(log10(129)) = 3
        assert!(retransmit_limit(0) >= 4);
    }

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
