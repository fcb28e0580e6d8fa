//! An open-addressed index from names to `u32` slot ids that stores no
//! name.
//!
//! Two owners keep one each: the member table ([`crate::membership`])
//! maps a member's name to its record's slot, and the broadcast queue
//! ([`crate::broadcast`]) a gossip subject to the slot of its queued
//! broadcast. Both already hold the name in the slot, so a bucket is
//! 8 bytes — 32 bits of the name's hash (the *tag*) and the slot id —
//! and a lookup confirms a tag hit by asking its owner whether that
//! slot holds the name.
//!
//! * **Tags** are SipHash under a per-instance random key, because
//!   names arrive from the network and a fixed key would let a sender
//!   pick names that share a probe run.
//! * **Homes** are the tag scaled to the length by a multiply-shift
//!   (`tag · len >> 32`), so any length works and growth re-homes
//!   entries from their tags without hashing a name again.
//! * **Load** stays ≤ ¾: [`NameIndex::reserve`] sizes the index to
//!   exactly ⌈4n/3⌉ buckets for a bulk load, and an index growing one
//!   entry at a time doubles (from 2 buckets) when the load would pass
//!   ¾.
//! * **Deletion** is backward shift: the later buckets of the probe
//!   run move back into the hole unless that would put one before its
//!   home, so lookups need no tombstones. Probe runs and shift
//!   distances wrap at the length.

use std::hash::{BuildHasher, Hasher, RandomState};

/// "No slot": the slot id of an empty bucket. Never a valid slot id — an
/// owner cannot hold `u32::MAX` entries.
const NIL: u32 = u32::MAX;

/// One bucket; `slot == NIL` marks it empty.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    tag: u32,
    slot: u32,
}

const EMPTY: Bucket = Bucket { tag: 0, slot: NIL };

/// The name index of one owner; see the module docs.
#[derive(Clone, Debug)]
pub(crate) struct NameIndex {
    /// Any length, wrapped at its end.
    // bounded: ≤ max(⌈4/3 × reserved entries⌉, 8/3 × peak entry count) buckets — grown only by `reserve` (exact) and `grow` (doubling), to keep load ≤ ¾, and cut by `release`
    buckets: Vec<Bucket>,
    hasher: RandomState,
    /// Test hook: every name gets this tag, so every probe collides.
    fixed_tag: Option<u32>,
}

impl NameIndex {
    pub(crate) fn new() -> Self {
        NameIndex {
            buckets: Vec::new(),
            hasher: RandomState::new(),
            fixed_tag: None,
        }
    }

    /// An index whose every name gets the tag `tag`: all entries share
    /// one probe run, so only the owner's name check tells them apart.
    pub(crate) fn with_fixed_tag(tag: u32) -> Self {
        NameIndex {
            fixed_tag: Some(tag),
            ..NameIndex::new()
        }
    }

    /// The tag of `name`: the low 32 bits of its keyed hash. Takes bytes,
    /// since the broadcast queue reads its subjects from wire encodings,
    /// and hashes them as `str`'s `Hash` does (the bytes, then `0xff`),
    /// so a member name costs what hashing its `&str` did.
    pub(crate) fn tag(&self, name: &[u8]) -> u32 {
        if let Some(tag) = self.fixed_tag {
            return tag;
        }
        let mut hasher = self.hasher.build_hasher();
        hasher.write(name);
        hasher.write_u8(0xff);
        hasher.finish() as u32
    }

    /// Number of buckets.
    #[cfg(test)]
    pub(crate) fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Buckets allocated.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buckets.capacity()
    }

    /// The home bucket of `tag`: the tag scaled to the index length by
    /// a multiply-shift, so any length works and homes keep the tags'
    /// order. (An empty index never probes.)
    #[inline]
    fn home(&self, tag: u32) -> usize {
        ((u64::from(tag) * self.buckets.len() as u64) >> 32) as usize
    }

    /// The bucket after `i`, wrapping at the end of the index.
    #[inline]
    fn next(&self, i: usize) -> usize {
        if i + 1 >= self.buckets.len() {
            0
        } else {
            i + 1
        }
    }

    fn bucket(&self, i: usize) -> Bucket {
        self.buckets.get(i).copied().unwrap_or(EMPTY)
    }

    fn set(&mut self, i: usize, bucket: Bucket) {
        if let Some(b) = self.buckets.get_mut(i) {
            *b = bucket;
        }
    }

    /// `(bucket position, slot id)` of the entry tagged `tag` whose slot
    /// `holds` confirms. Probes from the tag's home bucket to the first
    /// empty one (load ≤ ¾ guarantees there is one; the loop bound does
    /// not rely on it). Tags are 32 bits of a hash: equal tags are not
    /// yet equal names, so `holds` — the owner's check that the slot
    /// holds the name looked up — decides every tag hit.
    #[inline]
    pub(crate) fn find(
        &self,
        tag: u32,
        mut holds: impl FnMut(u32) -> bool,
    ) -> Option<(usize, u32)> {
        let mut i = self.home(tag);
        for _ in 0..self.buckets.len() {
            let b = self.bucket(i);
            if b.slot == NIL {
                return None;
            }
            if b.tag == tag && holds(b.slot) {
                return Some((i, b.slot));
            }
            i = self.next(i);
        }
        None
    }

    /// Adds `slot` under `tag` for a name known to be absent, `entries`
    /// being the entry count with it: first grows the index if that
    /// count would put the load above ¾.
    pub(crate) fn insert(&mut self, tag: u32, slot: u32, entries: usize) {
        self.grow(entries);
        self.place(Bucket { tag, slot });
    }

    /// Empties bucket `hole` (a position [`NameIndex::find`] returned)
    /// and closes the gap by backward shift.
    pub(crate) fn remove(&mut self, mut hole: usize) {
        let len = self.buckets.len();
        // Steps from `from` forward to `to`, wrapping at the end.
        let dist = |from: usize, to: usize| {
            if to >= from {
                to - from
            } else {
                to + len - from
            }
        };
        let mut j = hole;
        for _ in 0..len {
            j = self.next(j);
            let b = self.bucket(j);
            if b.slot == NIL {
                break;
            }
            // `b` may move to `hole` iff the hole is not before its home.
            if dist(self.home(b.tag), j) >= dist(hole, j) {
                self.set(hole, b);
                hole = j;
            }
        }
        self.set(hole, EMPTY);
    }

    /// Sizes the index to exactly ⌈4/3 · `entries`⌉ buckets unless it is
    /// already that large: a bulk load's final size at load ≤ ¾.
    pub(crate) fn reserve(&mut self, entries: usize) {
        let want = (4 * entries).div_ceil(3);
        if want > self.buckets.len() {
            self.resize(want);
        }
    }

    /// Doubles the index (from 2 buckets) until `entries` entries keep
    /// the load ≤ ¾ — growth one entry at a time.
    fn grow(&mut self, entries: usize) {
        if 4 * entries <= 3 * self.buckets.len() {
            return;
        }
        self.resize(Self::grown_len(self.buckets.len(), entries));
    }

    /// The length doubling from `len` (at least 1) reaches once
    /// `entries` entries fit at load ≤ ¾.
    fn grown_len(len: usize, entries: usize) -> usize {
        let mut want = len.max(1);
        while 4 * entries > 3 * want {
            want *= 2;
        }
        want
    }

    /// Moves every bucket into a fresh index of `len` buckets, re-homed
    /// from its tag; no name is hashed again.
    fn resize(&mut self, len: usize) {
        let old = std::mem::replace(&mut self.buckets, vec![EMPTY; len]);
        for b in old {
            if b.slot != NIL {
                self.place(b);
            }
        }
    }

    /// Puts `bucket` in the first empty bucket at or after its home.
    fn place(&mut self, bucket: Bucket) {
        let mut i = self.home(bucket.tag);
        for _ in 0..self.buckets.len() {
            if self.bucket(i).slot == NIL {
                self.set(i, bucket);
                return;
            }
            i = self.next(i);
        }
        debug_assert!(false, "name index full");
    }

    /// Gives back what an emptied index grew beyond the buckets that
    /// `entries` entries reach by doubling; the buckets it keeps are
    /// all empty, so it is a valid empty index of that length.
    pub(crate) fn release(&mut self, entries: usize) {
        debug_assert!(
            self.buckets.iter().all(|b| b.slot == NIL),
            "release() of an index that still has entries"
        );
        let keep = Self::grown_len(1, entries);
        if self.buckets.len() > keep {
            self.buckets.truncate(keep);
            self.buckets.shrink_to(keep);
        }
    }

    /// The bucket count a drained index keeps for `entries` entries
    /// ([`NameIndex::release`]).
    #[cfg(test)]
    pub(crate) fn released_len(entries: usize) -> usize {
        Self::grown_len(1, entries)
    }

    /// The slot id in bucket `i`, `None` for an empty bucket.
    #[cfg(test)]
    pub(crate) fn slot_at(&self, i: usize) -> Option<u32> {
        self.buckets
            .get(i)
            .map(|b| b.slot)
            .filter(|&slot| slot != NIL)
    }

    /// Checks the index against its owner, which holds `entries` entries
    /// and names slot `s` `name_of(s)` (`None` for a vacant slot): load
    /// ≤ ¾, one bucket per entry, each on a held slot under that slot's
    /// name's tag and the first bucket a probe for that name confirms.
    /// O(entries · run length); for the owners' `check_invariants`.
    ///
    /// # Panics
    ///
    /// Panics, naming the broken invariant, if any of them fails.
    pub(crate) fn check_invariants<'a>(
        &self,
        entries: usize,
        name_of: impl Fn(u32) -> Option<&'a [u8]>,
    ) {
        assert!(4 * entries <= 3 * self.buckets.len(), "index load above ¾");
        let mut full = 0;
        for (i, b) in self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| b.slot != NIL)
        {
            full += 1;
            let name = name_of(b.slot);
            assert!(name.is_some(), "index points at a vacant slot");
            let Some(name) = name else { continue };
            assert_eq!(b.tag, self.tag(name), "bucket tag out of sync");
            assert_eq!(
                self.find(b.tag, |slot| name_of(slot) == Some(name)),
                Some((i, b.slot)),
                "probing for a name must end at its bucket"
            );
        }
        assert_eq!(full, entries, "index out of sync");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// An owner of the index: slot ids into a slab of names with a free
    /// list, as the member table and the broadcast queue keep them.
    struct Owner {
        index: NameIndex,
        names: Vec<Option<String>>,
        free: Vec<u32>,
        len: usize,
    }

    impl Owner {
        fn new(index: NameIndex) -> Self {
            Owner {
                index,
                names: Vec::new(),
                free: Vec::new(),
                len: 0,
            }
        }

        fn find(&self, name: &str) -> Option<(usize, u32)> {
            let tag = self.index.tag(name.as_bytes());
            self.index.find(tag, |slot| {
                self.names.get(slot as usize).and_then(Option::as_deref) == Some(name)
            })
        }

        /// The slot holding `name`, taken when it is new.
        fn insert(&mut self, name: &str) -> u32 {
            if let Some((_, slot)) = self.find(name) {
                return slot;
            }
            let slot = self.free.pop().unwrap_or_else(|| {
                self.names.push(None);
                (self.names.len() - 1) as u32
            });
            self.names[slot as usize] = Some(name.to_owned());
            self.len += 1;
            self.index
                .insert(self.index.tag(name.as_bytes()), slot, self.len);
            slot
        }

        fn remove(&mut self, name: &str) -> Option<u32> {
            let (bucket, slot) = self.find(name)?;
            self.index.remove(bucket);
            self.names[slot as usize] = None;
            self.free.push(slot);
            self.len -= 1;
            Some(slot)
        }

        fn check(&self) {
            let names = &self.names;
            self.index.check_invariants(self.len, |slot| {
                names.get(slot as usize)?.as_deref().map(str::as_bytes)
            });
        }
    }

    /// Both owners pay one bucket per entry at load ≤ ¾.
    #[test]
    fn bucket_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<Bucket>(), 8);
    }

    #[test]
    fn a_tag_hashes_a_name_as_its_str_does() {
        let index = NameIndex::new();
        for name in ["", "node-1", "a-name-longer-than-sixteen-bytes"] {
            assert_eq!(
                index.tag(name.as_bytes()),
                index.hasher.hash_one(name) as u32
            );
        }
    }

    #[test]
    fn a_released_index_keeps_the_buckets_its_floor_grows_to() {
        let mut owner = Owner::new(NameIndex::new());
        let names: Vec<String> = (0..500).map(|i| format!("n-{i}")).collect();
        for name in &names {
            owner.insert(name);
        }
        assert_eq!(owner.index.bucket_count(), 1024);
        for name in &names {
            owner.remove(name);
        }
        owner.index.release(32);
        assert_eq!(owner.index.bucket_count(), NameIndex::released_len(32));
        assert_eq!(
            NameIndex::released_len(32),
            64,
            "doubling from 2 holds 32 in 64"
        );
        assert!(owner.index.capacity() <= 64);
        owner.check();
        // The released index works as a fresh one.
        for name in &names[..40] {
            owner.insert(name);
        }
        owner.check();
        assert_eq!(owner.index.bucket_count(), 64);
    }

    /// One step against the index and its `HashMap` model.
    #[derive(Clone, Debug)]
    enum IndexOp {
        Insert(usize),
        Remove(usize),
    }

    fn index_op() -> impl Strategy<Value = IndexOp> {
        // 40 names: enough entries to grow the index several times,
        // few enough that removals and re-inserts keep reusing slots.
        prop_oneof![
            (0..40usize).prop_map(IndexOp::Insert),
            (0..40usize).prop_map(IndexOp::Insert),
            (0..40usize).prop_map(IndexOp::Remove),
        ]
    }

    proptest! {
        /// The index against a `HashMap<String, slot>` model over
        /// sequences that force growth, slot reuse and backward-shift
        /// deletion — with real hashes, and with every name on one tag
        /// so that each lookup walks a run of colliding buckets and the
        /// owner's name check alone decides.
        #[test]
        fn name_index_matches_hashmap_model(
            ops in proptest::collection::vec(index_op(), 1..300),
            collide in any::<bool>(),
            reserve in (any::<bool>(), 1..60usize),
        ) {
            let (reserved, k) = reserve;
            let mut owner = Owner::new(if collide {
                NameIndex::with_fixed_tag(0xdead_beef)
            } else {
                NameIndex::new()
            });
            if reserved {
                // Start some cases from an index of exactly ⌈4k/3⌉
                // buckets, never a power of two: where that would be
                // one (k = 1, 3, 6, 12, 24, 48), k + 1 is not.
                let k = if (4 * k).div_ceil(3).is_power_of_two() { k + 1 } else { k };
                owner.index.reserve(k);
                prop_assert!(!owner.index.bucket_count().is_power_of_two());
            }
            let mut model: HashMap<String, u32> = HashMap::new();
            // 2 to 19 bytes, names that agree in their first 17 bytes
            // among them, so that only a full comparison tells them
            // apart.
            let name = |node: usize| format!("n{}", "x".repeat(4 * (node % 5))) + &node.to_string();
            for op in &ops {
                match *op {
                    IndexOp::Insert(node) => {
                        let slot = owner.insert(&name(node));
                        let expect = *model.entry(name(node)).or_insert(slot);
                        prop_assert_eq!(slot, expect);
                    }
                    IndexOp::Remove(node) => {
                        prop_assert_eq!(owner.remove(&name(node)), model.remove(&name(node)));
                    }
                }
                owner.check();
                prop_assert_eq!(owner.len, model.len());
                for node in 0..40 {
                    let got = owner.find(&name(node)).map(|(_, slot)| slot);
                    prop_assert_eq!(got, model.get(&name(node)).copied());
                }
            }
        }
    }
}
