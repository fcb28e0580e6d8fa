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
//! version keeps the entries in a slab (`Vec` + free list), an O(1)
//! subject → slot invalidation index, and `order`: every live slot once,
//! sorted by the selection key `(fewest transmits, newest id)` with the
//! best last, `id` being a monotonically increasing enqueue stamp. A key
//! is read from the slot itself, so `order` never holds a stale entry:
//!
//! * [`BroadcastQueue::enqueue`] about a subject already queued takes
//!   that subject's slot out of `order` by binary search on its old key
//!   and overwrites the slot in place — new stamp, new encoding — and
//!   otherwise takes a free slot. Either way the slot is pushed onto the
//!   end of `order`: a new broadcast has no transmits and the newest
//!   stamp, so it is always the best.
//! * [`BroadcastQueue::fill`] first retires the broadcasts a shrunk
//!   limit left at or over it, a prefix of `order`, as more transmits
//!   sort first. It then takes from the end of `order` and does
//!   O(selected + skipped) work per packet instead of sorting all n
//!   queued broadcasts; a running lower bound of the smallest encoded
//!   message lets it stop as soon as nothing else can fit. What it
//!   passed over keeps its place at the end, and what it packed, one
//!   transmission further, is merged back in place.
//!
//! A gossip fan-out is one fill per target
//! (`Outbox::gossip_to_targets`), as memberlist's per-target
//! `getBroadcasts`, so a broadcast is sent exactly its limit.
//!
//! # One byte arena
//!
//! A queued broadcast is its wire encoding. A slot holds only its
//! stamp, transmit count and the byte range of its encoding in one
//! arena the queue owns: no decoded `Message`, no buffer per slot and
//! no name. `alive`, `suspect` and `dead` all encode their subject at
//! the same place, so the subject is read from the encoding
//! ([`codec::gossip_subject`]) wherever the queue needs it, and
//! [`BroadcastQueue::queued_for`] decodes from the arena. The
//! invalidation index is the member table's kind of name index
//! (`crate::name_index`): 8-byte `(tag, slot)` buckets whose tag hits
//! are confirmed against the subject in the arena. An
//! enqueue appends its encoding, or writes it over the superseded one
//! when it fits there; a superseded encoding it did not fit in, and a
//! retired broadcast's, stay behind as garbage. Once the garbage
//! outweighs the live bytes by more than a small floor, the enqueue
//! compacts in place: `order`, sorted by arena offset, gives the
//! encodings in arena order, each slides down over the garbage, and
//! `order` is sorted back; no slot moves, so the subject index is
//! untouched. That is O(queue log queue) work paid for by more garbage
//! bytes than live ones, so the arena stays within twice the live bytes
//! plus the floor. A compaction also gives back capacity beyond twice
//! the live bytes and the floor, so a queue that shrank does not keep
//! the arena it grew. The arena is cleared when the queue empties, so a
//! drained queue refills from offset 0.
//!
//! In steady state neither enqueue nor fill allocates: the slab, the
//! arena, `order` and the packed list are all reused, and compaction
//! works inside them. A join storm queues a broadcast about every
//! member at once; so that a node does not keep that capacity for good,
//! a `fill` that leaves the queue empty clears the slab, the free list
//! and `order`, and shrinks every buffer to `DRAINED_FLOOR` entries and
//! the arena to `ARENA_FLOOR` bytes (the rule the outbox applies to its
//! drained effect queue).

use std::cmp::Reverse;
use std::ops::Range;

use bytes::BytesMut;
use lifeguard_proto::compound::{CompoundBuilder, MAX_COMPOUND_PARTS};
use lifeguard_proto::{codec, Message, NodeName};

use crate::name_index::NameIndex;

/// The gossip retransmission multiplier λ (memberlist LAN: 4).
pub const RETRANSMIT_MULT: u32 = 4;

/// Garbage bytes the arena may hold beyond its live bytes before an
/// enqueue compacts it, so a small queue with a few overwrites never
/// compacts.
const GARBAGE_FLOOR: usize = 1024;

/// Entries a drained queue keeps capacity for in its slab, free list,
/// selection order, packed list and subject index: a few updates at a
/// time queue and drain without allocating, and a join storm's capacity
/// goes back.
const DRAINED_FLOOR: usize = 32;

/// Arena bytes a drained queue keeps: [`DRAINED_FLOOR`] encodings of up
/// to 64 bytes (an `alive` without metadata is about 35).
const ARENA_FLOOR: usize = DRAINED_FLOOR * 64;

/// Gossip retransmit limit for a group of `n` members:
/// `λ·⌈log10(n + 1)⌉`.
pub fn retransmit_limit(n: usize) -> u32 {
    let log = ((n + 1) as f64).log10().ceil() as u32;
    RETRANSMIT_MULT * log.max(1)
}

/// One slab slot: a queued gossip broadcast, or a vacancy.
#[derive(Clone, Debug)]
struct Slot {
    /// Enqueue stamp of the broadcast held (or last held) here.
    id: u64,
    /// How many times this broadcast has been transmitted.
    transmits: u32,
    /// The broadcast's wire encoding is `arena[start..end]`; an empty
    /// range marks a vacancy on the free list (an encoding is never
    /// empty). `u32` offsets keep a slot at 24 bytes: the arena holds
    /// at most one encoding per member plus as much garbage.
    start: u32,
    end: u32,
}

impl Slot {
    fn range(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    fn len(&self) -> usize {
        self.range().len()
    }

    /// Whether the slot holds a broadcast.
    fn is_live(&self) -> bool {
        self.start < self.end
    }
}

/// The selection key of slot `index`, `(Reverse(transmits), id)`:
/// ascending keys run from the most transmitted, oldest broadcast to
/// the least transmitted, newest one — the seed's sort order reversed.
/// Ids are unique, so the order is total.
fn key(slots: &[Slot], index: u32) -> (Reverse<u32>, u64) {
    slots
        .get(index as usize)
        .map_or((Reverse(u32::MAX), 0), |s| (Reverse(s.transmits), s.id))
}

/// The gossip broadcast queue of one node.
#[derive(Clone, Debug)]
pub struct BroadcastQueue {
    /// The slab.
    // bounded: one live slot per subject member — enqueueing about a known subject overwrites its slot — plus vacancies recycled via `free`, so ≤ peak queue depth ≤ cluster size; cleared and shrunk to DRAINED_FLOOR when a fill drains the queue
    slots: Vec<Slot>,
    // bounded: ≤ |slots| — holds only currently-vacant slot indices; cleared with the slab
    free: Vec<u32>,
    /// Number of occupied slots.
    live: usize,
    /// The slot of the queued broadcast per subject (invalidation index).
    // bounded: one bucket per subject member, unlinked on retire, at load ≤ ¾ — ≤ 8/3 × cluster size; cut to DRAINED_FLOOR's buckets when a fill drains the queue
    by_subject: NameIndex,
    /// The wire encodings of the queued broadcasts, each a slot's range,
    /// and `garbage` bytes no slot refers to.
    // bounded: length ≤ 2 × live bytes + GARBAGE_FLOOR after every enqueue (compaction), capacity ≤ 2 × (live bytes + GARBAGE_FLOOR) after every compaction; cleared when the queue empties and cut to ARENA_FLOOR when a fill drains it
    arena: BytesMut,
    /// Bytes of `arena` left behind by overwritten or retired broadcasts.
    garbage: usize,
    /// Every live slot once, in strictly ascending [`key`] order: the
    /// broadcast the next fill takes first is last.
    // bounded: exactly `live` entries — ≤ peak queue depth ≤ cluster size; cleared and shrunk to DRAINED_FLOOR when a fill drains the queue
    order: Vec<u32>,
    /// The slots the running `fill` packed, best first, under their new
    /// transmit counts, for it to merge back into `order`.
    // bounded: emptied after every fill, which packs at most MAX_COMPOUND_PARTS broadcasts
    packed: Vec<u32>,
    /// Monotonic enqueue stamp; larger = newer.
    next_id: u64,
    /// Lower bound on the smallest encoded entry currently queued
    /// (reset when the queue empties); lets `fill` stop early.
    min_len: usize,
}

impl Default for BroadcastQueue {
    fn default() -> Self {
        BroadcastQueue {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            by_subject: NameIndex::new(),
            arena: BytesMut::new(),
            garbage: 0,
            order: Vec::new(),
            packed: Vec::new(),
            next_id: 0,
            min_len: usize::MAX,
        }
    }
}

impl BroadcastQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BroadcastQueue::default()
    }

    /// A queue whose subject index gives every name the tag `tag`, so
    /// that every subject collides and only the subject bytes in the
    /// arena tell them apart. A test hook: a queue built from it does
    /// O(queue) work per lookup.
    #[doc(hidden)]
    pub fn with_fixed_tag(tag: u32) -> Self {
        BroadcastQueue {
            by_subject: NameIndex::with_fixed_tag(tag),
            ..BroadcastQueue::default()
        }
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
    /// the same member. A push onto the selection order; an overwrite
    /// also takes the superseded entry out of it, an O(log n) search and
    /// a shift of the entries above it; plus a share of the compaction
    /// the garbage it leaves behind pays for.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `msg` is not a gossip message.
    pub fn enqueue(&mut self, msg: Message) {
        debug_assert!(msg.is_gossip(), "only gossip messages are broadcast");
        let Some(subject) = msg.gossip_subject() else {
            return;
        };
        let subject = subject.as_str().as_bytes();
        let tag = self.by_subject.tag(subject);
        let index = match self.find_tagged(tag, subject) {
            Some((_, index)) => {
                let old = key(&self.slots, index);
                match self
                    .order
                    .binary_search_by(|&i| key(&self.slots, i).cmp(&old))
                {
                    Ok(at) => {
                        self.order.remove(at);
                    }
                    Err(_) => debug_assert!(false, "queued slot {index} missing from the order"),
                }
                index
            }
            None => {
                let index = self.free.pop().unwrap_or_else(|| {
                    self.slots.push(Slot {
                        id: 0,
                        transmits: 0,
                        start: 0,
                        end: 0,
                    });
                    (self.slots.len() - 1) as u32
                });
                self.live += 1;
                self.by_subject.insert(tag, index, self.live);
                index
            }
        };
        let id = self.next_id;
        self.next_id += 1;
        let Some(slot) = self.slots.get_mut(index as usize) else {
            debug_assert!(false, "subject index points outside the slab");
            return;
        };
        // The superseded broadcast stops existing now: its encoding is
        // overwritten in place when the new one fits, and otherwise left
        // behind as garbage.
        let old = slot.range();
        let start = self.arena.len();
        codec::encode_message_into(&msg, &mut self.arena);
        let len = self.arena.len() - start;
        if !old.is_empty() && len <= old.len() {
            slide_down(&mut self.arena, start..start + len, old.start);
            self.arena.truncate(start);
            self.garbage += old.len() - len;
            slot.start = old.start as u32;
        } else {
            self.garbage += old.len();
            slot.start = start as u32;
        }
        slot.end = slot.start + len as u32;
        slot.id = id;
        slot.transmits = 0;
        self.min_len = self.min_len.min(len);
        self.order.push(index);
        if self.garbage > self.arena.len() - self.garbage + GARBAGE_FLOOR {
            self.compact();
        }
    }

    /// The queued message about `subject`, if any, decoded from its wire
    /// bytes (used by tests and introspection). O(message size).
    pub fn queued_for(&self, subject: &NodeName) -> Option<Message> {
        let (_, index) = self.find(subject.as_str().as_bytes())?;
        let slot = self.slots.get(index as usize)?;
        codec::decode_message(self.arena.get(slot.range())?).ok()
    }

    /// `(index bucket, slot)` of the broadcast queued about `subject`.
    fn find(&self, subject: &[u8]) -> Option<(usize, u32)> {
        self.find_tagged(self.by_subject.tag(subject), subject)
    }

    /// [`BroadcastQueue::find`] for a subject whose tag is computed: the
    /// subject in the slot's encoding decides every tag hit.
    fn find_tagged(&self, tag: u32, subject: &[u8]) -> Option<(usize, u32)> {
        self.by_subject
            .find(tag, |index| self.subject_of(index) == Some(subject))
    }

    /// The subject of the broadcast in slot `index`, read from its
    /// encoding; `None` for a vacant slot.
    fn subject_of(&self, index: u32) -> Option<&[u8]> {
        let slot = self.slots.get(index as usize).filter(|s| s.is_live())?;
        codec::gossip_subject(self.arena.get(slot.range())?)
    }

    /// Fills `builder` with as many queued broadcasts as fit, preferring
    /// least-transmitted (ties: newest). Each selected broadcast's
    /// transmit count is incremented; broadcasts that reach
    /// `transmit_limit` are retired from the queue, as are those a
    /// smaller limit than the last fill's leaves at or over it.
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
        // More transmits sort first, so what a shrunk limit (the cluster
        // got smaller) left at or over it is a prefix of `order`.
        let slots = &self.slots;
        let over = self.order.partition_point(|&index| {
            slots
                .get(index as usize)
                .is_some_and(|s| s.transmits >= transmit_limit)
        });
        let mut order = std::mem::take(&mut self.order);
        for index in order.drain(..over) {
            self.retire(index);
        }
        self.order = order;
        // No enqueue runs during the fill, so the excluded subject keeps
        // its slot until it retires, and after that `order` no longer
        // names the slot.
        let exclude = exclude
            .and_then(|name| self.find(name.as_str().as_bytes()))
            .map(|(_, index)| index);
        // Taken from the end of `order`: what the fill passed over is
        // written back down from the top, so `order[top..]` keeps it in
        // ascending order, and `order[next..top]` is what it packed or
        // retired.
        let mut top = self.order.len();
        let mut next = top;
        while let Some(&index) = next.checked_sub(1).and_then(|at| self.order.get(at)) {
            if builder.len() >= MAX_COMPOUND_PARTS {
                break;
            }
            next -= 1;
            let Some(entry) = self.slots.get_mut(index as usize) else {
                continue; // unreachable: `order` names live slots only
            };
            let packs = exclude != Some(index)
                && entry.len() <= builder.remaining()
                && builder.try_add_bytes(self.arena.get(entry.range()).unwrap_or_default());
            if packs {
                entry.transmits += 1;
                if entry.transmits >= transmit_limit {
                    self.retire(index);
                } else {
                    self.packed.push(index);
                }
                continue;
            }
            top -= 1;
            if let Some(passed) = self.order.get_mut(top) {
                *passed = index;
            }
            if builder.remaining() < self.min_len {
                break; // nothing queued can be smaller
            }
        }
        self.order.drain(next..top);
        self.merge_packed();
        // An empty slab means nothing was queued since the last release,
        // so the common fill of an idle queue skips it.
        if self.live == 0 && !self.slots.is_empty() {
            self.release();
        }
    }

    /// Merges `packed`, best first, into `order`, best last, in place
    /// from the back. Each packed slot gained one transmission, which
    /// keeps their order among themselves.
    fn merge_packed(&mut self) {
        let mut read = self.order.len();
        self.order.resize(read + self.packed.len(), 0);
        let mut write = self.order.len();
        for &index in &self.packed {
            let packed = key(&self.slots, index);
            // Every entry better than `index` moves up past it.
            while let Some(&better) = read
                .checked_sub(1)
                .and_then(|at| self.order.get(at))
                .filter(|&&i| key(&self.slots, i) > packed)
            {
                read -= 1;
                write -= 1;
                if let Some(slot) = self.order.get_mut(write) {
                    *slot = better;
                }
            }
            write -= 1;
            if let Some(slot) = self.order.get_mut(write) {
                *slot = index;
            }
        }
        self.packed.clear();
    }

    /// Gives back the capacity a burst left an empty queue. Every slot
    /// is vacant, so the slab, the free list and `order` are cleared
    /// (slot indices restart at 0) and each buffer keeps at most its
    /// floor.
    fn release(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.order.clear();
        self.slots.shrink_to(DRAINED_FLOOR);
        self.free.shrink_to(DRAINED_FLOOR);
        self.order.shrink_to(DRAINED_FLOOR);
        self.packed.shrink_to(DRAINED_FLOOR);
        self.by_subject.release(DRAINED_FLOOR);
        if self.arena.capacity() > ARENA_FLOOR {
            self.arena = BytesMut::with_capacity(ARENA_FLOOR);
        }
    }

    /// Each buffer's capacity and the most a drained queue may keep.
    #[cfg(test)]
    fn capacities(&self) -> [(&'static str, usize, usize); 6] {
        let index_floor = NameIndex::released_len(DRAINED_FLOOR);
        [
            ("slots", self.slots.capacity(), DRAINED_FLOOR),
            ("free", self.free.capacity(), DRAINED_FLOOR),
            ("order", self.order.capacity(), DRAINED_FLOOR),
            ("packed", self.packed.capacity(), DRAINED_FLOOR),
            ("by_subject", self.by_subject.capacity(), index_floor),
            ("arena", self.arena.capacity(), ARENA_FLOOR),
        ]
    }

    /// Vacates slot `index`; its bytes become garbage. A live slot is
    /// the one its subject points at (a newer broadcast about that
    /// subject overwrites it rather than taking another), so the
    /// subject, read from the slot's encoding, is unlinked with it. The
    /// caller takes the slot out of `order`. The last retirement clears
    /// the arena.
    fn retire(&mut self, index: u32) {
        let Some(subject) = self.subject_of(index) else {
            return;
        };
        let tag = self.by_subject.tag(subject);
        match self.by_subject.find(tag, |slot| slot == index) {
            Some((bucket, _)) => self.by_subject.remove(bucket),
            None => debug_assert!(false, "live slot {index} missing from the subject index"),
        }
        let Some(slot) = self.slots.get_mut(index as usize) else {
            return;
        };
        self.garbage += slot.len();
        slot.end = slot.start;
        self.live -= 1;
        self.free.push(index);
        if self.live == 0 {
            self.arena.clear();
            self.garbage = 0;
            self.min_len = usize::MAX;
        }
    }

    /// Slides every live encoding down over the garbage, without
    /// allocating and without moving a slot. `order` names each live
    /// slot once, so sorted by the slots' offsets it lists the live
    /// encodings in arena order: each then moves towards offset 0 and
    /// never over one not yet moved. `order` is then sorted back.
    ///
    /// The arena keeps room for twice its live bytes plus twice the
    /// floor, so the next compaction runs before it regrows, and the
    /// capacity a larger queue grew is given back.
    fn compact(&mut self) {
        let slots = &self.slots;
        self.order
            .sort_unstable_by_key(|&index| slots.get(index as usize).map(|s| s.start));
        let mut len = 0;
        for &index in &self.order {
            let Some(slot) = self.slots.get_mut(index as usize) else {
                continue;
            };
            let from = slot.range();
            slide_down(&mut self.arena, from.clone(), len);
            slot.start = len as u32;
            len += from.len();
            slot.end = len as u32;
        }
        self.arena.truncate(len);
        self.garbage = 0;
        let room = 2 * (len + GARBAGE_FLOOR);
        if self.arena.capacity() > room {
            let mut arena = BytesMut::with_capacity(room);
            arena.extend_from_slice(&self.arena);
            self.arena = arena;
        }
        let slots = &self.slots;
        self.order.sort_unstable_by_key(|&index| key(slots, index));
    }

    /// Checks the queue's bookkeeping against its contents: the live
    /// count, the selection order, the subject index, the arena's live
    /// ranges and garbage count, and the `min_len` bound. O(n log n);
    /// for tests and `SwimNode::check_invariants`.
    ///
    /// # Panics
    ///
    /// Panics, naming the broken invariant, if any of them fails.
    pub fn check_invariants(&self) {
        let mut ranges: Vec<Range<usize>> = self
            .slots
            .iter()
            .filter(|slot| slot.is_live())
            .map(Slot::range)
            .collect();
        assert_eq!(ranges.len(), self.live, "live count ≠ occupied slots");
        assert!(self.packed.is_empty(), "a fill left packed slots unmerged");
        // As many entries as live slots, each live and each key above
        // the one before it: every live slot exactly once, in order.
        assert_eq!(self.order.len(), self.live, "order length ≠ live count");
        for &index in &self.order {
            assert!(
                self.slots.get(index as usize).is_some_and(Slot::is_live),
                "order names vacant slot {index}"
            );
        }
        for pair in self.order.windows(2) {
            if let [a, b] = *pair {
                assert!(
                    key(&self.slots, a) < key(&self.slots, b),
                    "order is not strictly ascending at slots {a}, {b}"
                );
            }
        }
        for index in (0u32..)
            .zip(&self.slots)
            .filter(|(_, s)| s.is_live())
            .map(|(i, _)| i)
        {
            assert!(
                self.subject_of(index).is_some(),
                "slot {index} holds no gossip encoding"
            );
        }
        // One bucket per live slot, each found by its own subject: no
        // two live slots share a subject.
        self.by_subject
            .check_invariants(self.live, |index| self.subject_of(index));
        ranges.sort_by_key(|r| r.start);
        let mut end = 0;
        for r in &ranges {
            assert!(
                r.start >= end,
                "live range {r:?} overlaps the one before it"
            );
            assert!(
                r.start <= r.end && r.end <= self.arena.len(),
                "live range {r:?} outside the {}-byte arena",
                self.arena.len()
            );
            assert!(
                self.min_len <= r.len(),
                "min_len {} exceeds the live length {}",
                self.min_len,
                r.len()
            );
            end = r.end;
        }
        let live_bytes: usize = ranges.iter().map(ExactSizeIterator::len).sum();
        assert_eq!(
            live_bytes + self.garbage,
            self.arena.len(),
            "live bytes plus garbage ≠ arena length"
        );
    }
}

/// Moves the bytes of `from` down to start at offset `to` (`to ≤
/// from.start`), in chunks no longer than the distance moved so a chunk's
/// source and destination never overlap, through checked accesses only.
fn slide_down(arena: &mut [u8], from: Range<usize>, to: usize) {
    let Some(distance) = from.start.checked_sub(to).filter(|&d| d > 0) else {
        return;
    };
    let mut at = from.start;
    while at < from.end {
        let n = distance.min(from.end - at);
        let Some((head, tail)) = arena.split_at_mut_checked(at) else {
            return;
        };
        let (Some(dst), Some(src)) = (
            head.get_mut(at - distance..at - distance + n),
            tail.get(..n),
        ) else {
            return;
        };
        for (d, s) in dst.iter_mut().zip(src) {
            *d = *s;
        }
        at += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lifeguard_proto::compound::decode_packet;
    use lifeguard_proto::{Alive, Dead, Incarnation, NodeAddr, Suspect};

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

    fn dead(node: &str, inc: u64) -> Message {
        Message::Dead(Dead {
            incarnation: Incarnation(inc),
            node: node.into(),
            from: "x".into(),
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
        assert_eq!(q.queued_for(&"a".into()), Some(alive("a", 2)));
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
        // over-limit "a" sorts before it) must still retire "a"
        // when the limit has shrunk below its transmit count.
        q.enqueue(alive("b", 1));
        let mut b = CompoundBuilder::new(4);
        q.fill(&mut b, 2, None);
        assert!(finish(&mut b).is_none() || q.queued_for(&"b".into()).is_some());
        assert!(
            q.queued_for(&"a".into()).is_none(),
            "over-limit entry lingered"
        );
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

    /// Overwrites alone never retire anything, so only compaction keeps
    /// the arena from growing: each subject alternates between an
    /// `alive` and a shorter `suspect`, so half the overwrites fit in
    /// place and half leave their bytes behind.
    #[test]
    fn overwrite_storm_keeps_the_arena_bounded() {
        let storm = |i: u64| {
            let node = format!("node-{}", i % 10);
            if (i / 10).is_multiple_of(2) {
                alive(&node, i)
            } else {
                suspect(&node, "x", i)
            }
        };
        let mut q = BroadcastQueue::new();
        for i in 0..10_000u64 {
            q.enqueue(storm(i));
            q.check_invariants();
            for latest in i.saturating_sub(9)..=i {
                let subject = format!("node-{}", latest % 10).as_str().into();
                assert_eq!(q.queued_for(&subject), Some(storm(latest)));
            }
            let live_bytes = q.arena.len() - q.garbage;
            assert!(
                q.arena.len() <= 2 * live_bytes + GARBAGE_FLOOR,
                "arena {} B for {live_bytes} live bytes",
                q.arena.len()
            );
        }
        assert_eq!(q.len(), 10);
        let last: Vec<Message> = (9_990..10_000u64).rev().map(storm).collect();
        assert_eq!(
            drain(&mut q, 1),
            last,
            "each subject's last message, newest first"
        );
    }

    /// A join storm's 511 `alive`s grow every buffer far past its
    /// floor; the fill that drains the queue gives that back.
    #[test]
    fn a_drained_join_storm_gives_back_its_capacity() {
        let mut q = BroadcastQueue::new();
        for i in 0..511 {
            q.enqueue(alive(&format!("node-{i}"), 1));
        }
        // The free list and the packed list grow while the queue drains.
        for (name, capacity, floor) in q.capacities() {
            if !matches!(name, "free" | "packed") {
                assert!(
                    capacity > floor,
                    "{name}: the storm grew it to {capacity} only"
                );
            }
        }
        let limit = retransmit_limit(512);
        assert_eq!(drain(&mut q, limit).len(), 511 * limit as usize);
        assert!(q.is_empty());
        for (name, capacity, floor) in q.capacities() {
            assert!(capacity <= floor, "{name}: {capacity} kept, floor {floor}");
        }
        q.check_invariants();
        // The drained queue works as a fresh one.
        q.enqueue(suspect("a", "x", 3));
        q.check_invariants();
        assert_eq!(drain(&mut q, 2), vec![suspect("a", "x", 3); 2]);
    }

    /// A queue pays for each broadcast in its slot, so the slot holds
    /// no name: the subject is read from the encoding.
    #[test]
    fn slot_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<Slot>(), 24);
    }

    /// Every subject on one tag whose home is the last bucket: the index
    /// tells subjects apart by the names in the arena alone, and its
    /// probe runs and backward shifts cross the wrap.
    #[test]
    fn colliding_subjects_are_told_apart_by_name() {
        let mut q = BroadcastQueue::with_fixed_tag(u32::MAX);
        // Names that are prefixes of one another, and one too long to be
        // inline.
        let long = "a-name-longer-than-sixteen-bytes";
        for name in ["a", "ab", long] {
            q.enqueue(alive(name, 1));
            q.check_invariants();
        }
        // Slots 0, 1, 2 in one run from the last of 4 buckets.
        assert_eq!(q.by_subject.bucket_count(), 4);
        let buckets = |q: &BroadcastQueue| [3, 0, 1, 2].map(|b| q.by_subject.slot_at(b));
        assert_eq!(buckets(&q), [Some(0), Some(1), Some(2), None]);

        // An overwrite finds its own subject's slot, not the first hit.
        q.enqueue(suspect("ab", "x", 2));
        q.check_invariants();
        assert_eq!(q.len(), 3);
        assert_eq!(q.queued_for(&"a".into()), Some(alive("a", 1)));
        assert_eq!(q.queued_for(&"ab".into()), Some(suspect("ab", "x", 2)));
        assert_eq!(q.queued_for(&long.into()), Some(alive(long, 1)));
        assert_eq!(q.queued_for(&"b".into()), None);

        // Excluding "ab" skips "ab" only; the fill retires the other two
        // at limit 1, newest first: the hole left at the last bucket
        // pulls "ab" back across the wrap to its home.
        let mut b = CompoundBuilder::new(1400);
        q.fill(&mut b, 1, Some(&"ab".into()));
        let msgs = decode_packet(&finish(&mut b).unwrap()).unwrap();
        assert_eq!(msgs, vec![alive(long, 1), alive("a", 1)]);
        q.check_invariants();
        assert_eq!(buckets(&q), [Some(1), None, None, None]);
        assert_eq!(q.queued_for(&"a".into()), None);
        assert_eq!(q.queued_for(&"ab".into()), Some(suspect("ab", "x", 2)));

        // A retired subject comes back in a free slot beside the one
        // still queued.
        q.enqueue(dead("a", 3));
        q.check_invariants();
        assert_eq!(q.queued_for(&"a".into()), Some(dead("a", 3)));
        assert_eq!(q.queued_for(&"ab".into()), Some(suspect("ab", "x", 2)));
        assert_eq!(drain(&mut q, 1), vec![dead("a", 3), suspect("ab", "x", 2)]);
    }

    #[test]
    fn a_drained_queue_refills_from_offset_zero() {
        let mut q = BroadcastQueue::new();
        for i in 0..5 {
            q.enqueue(alive(&format!("node-{i}"), 1));
        }
        drain(&mut q, 2);
        assert!(q.is_empty());
        assert_eq!(q.arena.len(), 0, "the last retirement clears the arena");
        q.enqueue(suspect("a", "x", 3));
        q.check_invariants();
        assert_eq!(
            q.arena.len(),
            codec::encode_message(&suspect("a", "x", 3)).len()
        );
        assert_eq!(q.queued_for(&"a".into()), Some(suspect("a", "x", 3)));
    }
}
