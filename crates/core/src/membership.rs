//! The local membership table.
//!
//! Stores one [`Member`] record per known node and provides the random
//! sampling primitives the protocol needs (indirect-probe helpers, gossip
//! fan-out targets). Incarnation-precedence *decisions* live in the node
//! state machine; this module only stores facts.
//!
//! # Layout
//!
//! Records live in one slab (`Vec<Option<Slot>>` + free list) addressed
//! through a `HashMap<NodeName, slot>` name index, so lookups are O(1).
//! Two dense slot-id vectors partition the table by liveness class —
//! `live` (alive | suspect) and `gone` (dead | left) — and an `alive`
//! counter tracks the strictly alive subset. That makes
//! [`Membership::live_count`] / [`Membership::alive_count`] O(1) (they
//! are invoked on every suspicion start and every transmit-limit
//! computation), and lets [`Membership::sample`] run a *lazy* partial
//! Fisher–Yates over a pool's dense positions: O(inspected) ≈ O(k) work
//! and no O(n) candidate `Vec` per call.
//!
//! # Observable orders
//!
//! Every order the API exposes is a function of the operation history
//! alone: [`Membership::iter`] walks pool order, sampling draws against
//! pool positions, and [`Membership::changed_since`] walks the change
//! log — one `(update seq, slot)` entry per stamp, superseded entries
//! skipped on read and dropped by amortised compaction — newest first.
//! None of them depends on `HashMap` iteration order, so a seeded run is
//! reproducible.
//!
//! Because the pools are derived from member state, state changes must
//! go through the table ([`Membership::update`] or
//! [`Membership::set_state`]); there is deliberately no `get_mut`.

use std::collections::{HashMap, VecDeque};

use lifeguard_proto::{MemberState, NodeName};
use rand::{Rng, RngExt};

use crate::member::Member;
use crate::time::Time;

/// Which liveness pool a sampling call draws from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SamplePool {
    /// Alive and suspect members (failure-detector participants).
    Live,
    /// Dead and left members still retained in the table.
    Gone,
    /// Every known member.
    All,
}

#[derive(Clone, Debug)]
struct Slot {
    member: Member,
    /// Position of this record's slot id inside its pool vector.
    pos: usize,
}

/// The membership table of a single node.
///
/// The local node itself is stored in the table (as memberlist does), so
/// `n` counts include self.
#[derive(Clone, Debug, Default)]
pub struct Membership {
    // bounded: one slot per member (dead members are reaped after the retention horizon), freed slots are recycled via `free`
    slots: Vec<Option<Slot>>,
    // bounded: ≤ |slots| — holds only currently-empty slot ids
    free: Vec<u32>,
    // bounded: one key per member, removed on reap
    index: HashMap<NodeName, u32>,
    /// The change log: `(seq, slot id)` in ascending-seq order, one
    /// *live* entry per member. Stale entries are skipped on read and
    /// dropped by amortised compaction.
    // bounded: compaction in `stamp` keeps len ≤ max(64, 2 × member count)
    log: VecDeque<(u64, u32)>,
    /// Dense slot ids of alive | suspect members.
    // bounded: ≤ cluster size — one id per live member
    live: Vec<u32>,
    /// Dense slot ids of dead | left members.
    // bounded: ≤ cluster size — one id per retained dead/left member, drained by reaping
    gone: Vec<u32>,
    /// Number of members in state `Alive` exactly.
    alive: usize,
    /// Monotonically increasing sequence, bumped once per observable
    /// record change ([`Membership::update_seq`]).
    update_seq: u64,
}

impl Membership {
    /// Creates an empty table.
    pub fn new() -> Self {
        Membership::default()
    }

    /// Reserves room for `additional` more members, so a bulk load
    /// (the simulator's full-mesh bootstrap) grows each structure once
    /// instead of rehashing and reallocating its way up.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
        self.index.reserve(additional);
        self.log.reserve(additional);
        self.live.reserve(additional);
    }

    /// Number of known members in any state (including dead ones still
    /// retained). O(1).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of live (alive or suspect) members, the `n` used for
    /// suspicion timeouts and retransmit limits. O(1).
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Number of members currently believed alive (not suspect). O(1).
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// Looks up a member by name. O(1).
    pub fn get(&self, name: &NodeName) -> Option<&Member> {
        let &id = self.index.get(name)?;
        Some(&self.slot(id)?.member)
    }

    /// The table's current update sequence: the stamp of the most
    /// recent record change. Strictly monotonic per observable change,
    /// never reused, local to this table instance. O(1).
    pub fn update_seq(&self) -> u64 {
        self.update_seq
    }

    /// Change-log entries currently retained — the live cursor set plus
    /// stale entries not yet compacted away. Lazy compaction keeps this
    /// O(members) regardless of how many stamps churn has issued;
    /// property tests assert that bound. O(1).
    pub fn retained_log_len(&self) -> usize {
        self.log.len()
    }

    /// Members whose record changed after `since` (in this table's own
    /// sequence space), newest first. O(changed): one walk of the change
    /// log from its tail, skipping superseded entries, so steady-state
    /// delta generation never touches the unchanged bulk of the table.
    ///
    /// `changed_since(0)` visits every member — a fresh watermark
    /// degenerates to a full-state exchange, which is what makes delta
    /// sync safe to bootstrap from nothing.
    pub fn changed_since(&self, since: u64) -> impl Iterator<Item = &Member> {
        self.log
            .iter()
            .rev()
            .take_while(move |&&(seq, _)| seq > since)
            .filter_map(|&(seq, id)| {
                // A missing slot is a removed member; a different seq
                // means the member was re-stamped later. Both are stale.
                let member = &self.slot(id)?.member;
                (member.updated_seq == seq).then_some(member)
            })
    }

    /// Mutates the member named `name` through `f`, keeping the state
    /// counters and liveness pools consistent with whatever `f` changed.
    /// Returns `None` (without running `f`) if the member is unknown.
    ///
    /// This replaces the seed's `get_mut`: handing out `&mut Member`
    /// would let callers flip `state` behind the indexes' back.
    ///
    /// `f` must not change `member.name` — it is the index key. Use
    /// [`Membership::remove`] + [`Membership::upsert`] to rename.
    pub fn update<T>(&mut self, name: &NodeName, f: impl FnOnce(&mut Member) -> T) -> Option<T> {
        let &id = self.index.get(name)?;
        debug_invariant!(self.slot(id).is_some(), "membership index points at an empty slot");
        let slot = self.slot_mut(id)?;
        let before = slot.member.state;
        // Snapshot for change-stamping. The meta clone (a refcount
        // bump) keeps the old buffer alive across `f`, so an equal
        // pointer + length afterwards *proves* the buffer is unchanged
        // (`Bytes` is immutable and the allocator cannot have reused a
        // block that is still live). Only when the buffer genuinely
        // changed do we pay a content comparison — the borrowed alive
        // path reuses the stored buffer for unchanged metadata, so the
        // steady state stays on the pointer fast path.
        let before_key = (slot.member.state, slot.member.incarnation, slot.member.addr);
        let before_meta = slot.member.meta.clone();
        let out = f(&mut slot.member);
        let after = slot.member.state;
        let after_key = (slot.member.state, slot.member.incarnation, slot.member.addr);
        let after_meta = &slot.member.meta;
        let same_buffer = before_meta.len() == after_meta.len()
            && std::ptr::eq(before_meta.as_ref().as_ptr(), after_meta.as_ref().as_ptr());
        let meta_changed = !same_buffer && before_meta.as_ref() != after_meta.as_ref();
        debug_assert!(
            self.slot(id).is_some_and(|s| &s.member.name == name),
            "update() must not change the member's name (index key)"
        );
        self.reconcile(id, before, after);
        if before_key != after_key || meta_changed {
            self.stamp(id);
        }
        Some(out)
    }

    /// Transitions `name` to `state` at `now` (no-op timestamps for
    /// same-state transitions, per [`Member::set_state`]). Returns
    /// whether the member exists.
    pub fn set_state(&mut self, name: &NodeName, state: MemberState, now: Time) -> bool {
        self.update(name, |m| m.set_state(state, now)).is_some()
    }

    /// Inserts or replaces a member record. Returns the previous record.
    /// Always counts as a record change for [`Membership::changed_since`].
    pub fn upsert(&mut self, member: Member) -> Option<Member> {
        if let Some(id) = self.index.get(&member.name).copied() {
            debug_invariant!(self.slot(id).is_some(), "membership index points at an empty slot");
            if let Some(slot) = self.slot_mut(id) {
                let before = slot.member.state;
                let after = member.state;
                let prev = std::mem::replace(&mut slot.member, member);
                self.reconcile(id, before, after);
                self.stamp(id);
                return Some(prev);
            }
            // Index pointed at an empty slot (table bug, unreachable in
            // debug builds): fall through to a fresh insert, which
            // overwrites the stale index entry and heals the table.
        }
        let name = member.name.clone();
        let state = member.state;
        let id = match self.free.pop() {
            Some(id) => {
                debug_invariant!((id as usize) < self.slots.len(), "free-list id out of bounds");
                // lint: allow(panic_path) — free-list ids come from `remove`, which only ever pushes in-bounds slot ids
                self.slots[id as usize] = Some(Slot { member, pos: 0 });
                id
            }
            None => {
                self.slots.push(Some(Slot { member, pos: 0 }));
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(name, id);
        self.pool_push(id, state);
        if state == MemberState::Alive {
            self.alive += 1;
        }
        self.stamp(id);
        None
    }

    /// Removes a member record entirely (dead-node reaping). O(1).
    pub fn remove(&mut self, name: &NodeName) -> Option<Member> {
        let id = self.index.remove(name)?;
        debug_invariant!(self.slot(id).is_some(), "membership index points at an empty slot");
        let state = self.slot(id)?.member.state;
        self.pool_remove(id, state);
        if state == MemberState::Alive {
            self.alive -= 1;
        }
        let slot = self.slots.get_mut(id as usize)?.take()?;
        self.free.push(id);
        Some(slot.member)
    }

    /// Iterates over all member records in pool order (live members
    /// first, then retained dead/left). The order is deterministic for a
    /// given operation history; it is otherwise unspecified.
    pub fn iter(&self) -> impl Iterator<Item = &Member> {
        self.live
            .iter()
            .chain(self.gone.iter())
            .filter_map(|&id| self.slot(id).map(|s| &s.member))
    }

    /// Members that have been dead/left since before `reap_before` and
    /// can be forgotten.
    ///
    /// Iterates the `gone` pool only, so the cost is O(retained dead),
    /// not O(n); collect the names before calling
    /// [`Membership::remove`].
    pub fn reapable(&self, reap_before: Time) -> impl Iterator<Item = &Member> {
        self.gone
            .iter()
            .filter_map(|&id| self.slot(id).map(|s| &s.member))
            .filter(move |m| m.state_change < reap_before)
    }

    /// Selects up to `k` distinct random members satisfying `filter`,
    /// uniformly among the members that satisfy it.
    ///
    /// Equivalent to a partial Fisher–Yates shuffle over the whole
    /// table, evaluated lazily: positions are materialised only as they
    /// are inspected, so the call does O(inspected) work — O(k) when the
    /// filter rejects few members — instead of filter-collecting all n
    /// members first.
    pub fn sample<R: Rng>(
        &self,
        k: usize,
        rng: &mut R,
        filter: impl FnMut(&Member) -> bool,
    ) -> Vec<&Member> {
        self.sample_pool(SamplePool::All, k, rng, filter)
    }

    /// [`Membership::sample`] restricted to one liveness pool, so
    /// callers that only want live (or only retained-dead) members never
    /// pay for the other class.
    pub fn sample_pool<R: Rng>(
        &self,
        pool: SamplePool,
        k: usize,
        rng: &mut R,
        filter: impl FnMut(&Member) -> bool,
    ) -> Vec<&Member> {
        let mut picked = Vec::new();
        self.sample_pool_with(pool, k, rng, filter, |m| picked.push(m));
        picked
    }

    /// Visitor form of [`Membership::sample_pool`]: each drawn member is
    /// passed to `visit` instead of being collected, so hot callers (the
    /// node's gossip/probe target selection) can copy the one field they
    /// need into a reusable buffer without allocating a `Vec<&Member>`
    /// per call.
    pub fn sample_pool_with<'a, R: Rng>(
        &'a self,
        pool: SamplePool,
        k: usize,
        rng: &mut R,
        mut filter: impl FnMut(&Member) -> bool,
        mut visit: impl FnMut(&'a Member),
    ) {
        let n = match pool {
            SamplePool::Live => self.live.len(),
            SamplePool::Gone => self.gone.len(),
            SamplePool::All => self.live.len() + self.gone.len(),
        };
        if k == 0 || n == 0 {
            return;
        }
        // Lazy Fisher–Yates: `moved` records the positions whose value
        // differs from the identity permutation. Scanning a uniform
        // random permutation and keeping the first k filter-passing
        // members draws a uniform k-subset of the eligible members, in
        // uniform order — the same distribution as filtering first and
        // shuffling after, without building the O(n) candidate vector.
        let mut moved: HashMap<usize, usize> = HashMap::new();
        let mut picked = 0;
        let mut i = 0;
        while i < n && picked < k {
            let j = rng.random_range(i..n);
            let vj = moved.get(&j).copied().unwrap_or(j);
            let vi = moved.get(&i).copied().unwrap_or(i);
            moved.insert(j, vi);
            debug_invariant!(self.pool_member(pool, vj).is_some(), "pool position out of bounds");
            if let Some(member) = self.pool_member(pool, vj) {
                if filter(member) {
                    picked += 1;
                    visit(member);
                }
            }
            i += 1;
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The occupied slot `id`. The name index and the pool vectors only
    /// ever store ids of occupied slots, so a `None` here is a table
    /// bug — `debug_invariant!`-checked at each use site.
    fn slot(&self, id: u32) -> Option<&Slot> {
        self.slots.get(id as usize)?.as_ref()
    }

    fn slot_mut(&mut self, id: u32) -> Option<&mut Slot> {
        self.slots.get_mut(id as usize)?.as_mut()
    }

    /// Assigns the next update-seq to slot `id` and logs the change.
    /// The log entry this supersedes (if any) becomes stale and is
    /// dropped lazily; compaction keeps the log within 2× the member
    /// count, so the amortised cost per change stays O(1).
    fn stamp(&mut self, id: u32) {
        self.update_seq += 1;
        let seq = self.update_seq;
        debug_invariant!(self.slot(id).is_some(), "stamp() on an empty slot");
        if let Some(slot) = self.slot_mut(id) {
            slot.member.updated_seq = seq;
        }
        self.log.push_back((seq, id));
        if self.log.len() > 64 && self.log.len() > 2 * self.index.len() {
            let slots = &self.slots;
            self.log.retain(|&(seq, id)| {
                slots
                    .get(id as usize)
                    .and_then(|s| s.as_ref())
                    .is_some_and(|s| s.member.updated_seq == seq)
            });
        }
    }

    /// The member at virtual position `v` of a pool (All concatenates
    /// live then gone). `None` for an out-of-pool position.
    fn pool_member(&self, pool: SamplePool, v: usize) -> Option<&Member> {
        let id = match pool {
            SamplePool::Live => *self.live.get(v)?,
            SamplePool::Gone => *self.gone.get(v)?,
            SamplePool::All => {
                if v < self.live.len() {
                    *self.live.get(v)?
                } else {
                    *self.gone.get(v - self.live.len())?
                }
            }
        };
        Some(&self.slot(id)?.member)
    }

    /// Moves slot `id` between pools / adjusts counters after its state
    /// changed from `before` to `after`. O(1).
    fn reconcile(&mut self, id: u32, before: MemberState, after: MemberState) {
        if before.is_live() != after.is_live() {
            self.pool_remove(id, before);
            self.pool_push(id, after);
        }
        match (before == MemberState::Alive, after == MemberState::Alive) {
            (false, true) => self.alive += 1,
            (true, false) => self.alive -= 1,
            _ => {}
        }
    }

    fn pool_push(&mut self, id: u32, state: MemberState) {
        let pool = if state.is_live() {
            &mut self.live
        } else {
            &mut self.gone
        };
        pool.push(id);
        let pos = pool.len() - 1;
        debug_invariant!(self.slot(id).is_some(), "pool_push() on an empty slot");
        if let Some(slot) = self.slot_mut(id) {
            slot.pos = pos;
        }
    }

    fn pool_remove(&mut self, id: u32, state: MemberState) {
        let Some(pos) = self.slot(id).map(|s| s.pos) else {
            debug_invariant!(false, "pool_remove() on an empty slot");
            return;
        };
        let pool = if state.is_live() {
            &mut self.live
        } else {
            &mut self.gone
        };
        debug_invariant!(pool.get(pos) == Some(&id), "pool position out of sync");
        if pos < pool.len() {
            // lint: allow(panic_path) — `pos < pool.len()` checked on the line above
            pool.swap_remove(pos);
        }
        if let Some(&swapped) = pool.get(pos) {
            if let Some(slot) = self.slot_mut(swapped) {
                slot.pos = pos;
            }
        }
    }

    /// Debug-only invariant check: counters, pools, and the change log
    /// agree with a full recomputation (used by the property tests).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let live_scan = self.iter().filter(|m| m.is_live()).count();
        let alive_scan = self
            .iter()
            .filter(|m| m.state == MemberState::Alive)
            .count();
        let gone_scan = self.iter().count() - live_scan;
        assert_eq!(self.live.len(), live_scan, "live pool out of sync");
        assert_eq!(self.gone.len(), gone_scan, "gone pool out of sync");
        assert_eq!(self.alive, alive_scan, "alive counter out of sync");
        assert_eq!(self.index.len(), live_scan + gone_scan, "index out of sync");
        for (name, &id) in &self.index {
            let slot = self.slot(id);
            assert!(slot.is_some(), "index points at an empty slot");
            let Some(slot) = slot else { continue };
            assert_eq!(&slot.member.name, name, "index points at wrong slot");
            let pool = if slot.member.state.is_live() {
                &self.live
            } else {
                &self.gone
            };
            assert_eq!(pool[slot.pos], id, "pool position out of sync");
        }
        // Change-log invariants: ascending seqs bounded by the counter,
        // and exactly one live log entry per member (so `changed_since`
        // is complete at any watermark, including 0).
        let mut prev = 0;
        let mut live_entries = 0;
        for &(seq, id) in &self.log {
            assert!(seq > prev, "log seqs must be strictly ascending");
            assert!(seq <= self.update_seq, "log seq beyond counter");
            prev = seq;
            if self.slot(id).is_some_and(|s| s.member.updated_seq == seq) {
                live_entries += 1;
            }
        }
        assert_eq!(
            live_entries,
            self.index.len(),
            "each member must have exactly one live log entry"
        );
        assert_eq!(
            self.changed_since(0).count(),
            self.index.len(),
            "changed_since(0) must visit every member"
        );
        // The change feed must be strictly newest-first.
        let mut last = u64::MAX;
        for m in self.changed_since(0) {
            assert!(m.updated_seq < last, "change feed out of order");
            last = m.updated_seq;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifeguard_proto::{Incarnation, NodeAddr};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn addr(i: u8) -> NodeAddr {
        NodeAddr::new([10, 0, 0, i], 7946)
    }

    fn table(n: u8) -> Membership {
        let mut t = Membership::new();
        for i in 0..n {
            t.upsert(Member::new(
                format!("node-{i}").into(),
                addr(i),
                Incarnation(0),
                Time::ZERO,
            ));
        }
        t
    }

    #[test]
    fn counts_track_states() {
        let mut t = table(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.live_count(), 5);
        assert_eq!(t.alive_count(), 5);

        t.set_state(&"node-0".into(), MemberState::Suspect, Time::from_secs(1));
        assert_eq!(t.live_count(), 5);
        assert_eq!(t.alive_count(), 4);

        t.set_state(&"node-1".into(), MemberState::Dead, Time::from_secs(1));
        assert_eq!(t.live_count(), 4);
        assert_eq!(t.len(), 5, "dead members are retained");
        t.check_invariants();
    }

    #[test]
    fn update_keeps_counters_in_sync() {
        let mut t = table(3);
        let out = t.update(&"node-2".into(), |m| {
            m.incarnation = Incarnation(9);
            m.set_state(MemberState::Suspect, Time::from_secs(2));
            m.incarnation
        });
        assert_eq!(out, Some(Incarnation(9)));
        assert_eq!(t.alive_count(), 2);
        assert_eq!(t.live_count(), 3);
        assert!(t.update(&"missing".into(), |_| ()).is_none());
        t.check_invariants();
    }

    #[test]
    fn upsert_replaces_and_returns_previous() {
        let mut t = table(1);
        let prev = t.upsert(Member::new(
            "node-0".into(),
            addr(9),
            Incarnation(7),
            Time::ZERO,
        ));
        assert_eq!(prev.unwrap().incarnation, Incarnation(0));
        assert_eq!(t.get(&"node-0".into()).unwrap().incarnation, Incarnation(7));
        assert_eq!(t.len(), 1);
        t.check_invariants();
    }

    #[test]
    fn upsert_over_dead_member_restores_liveness_pools() {
        let mut t = table(2);
        t.set_state(&"node-0".into(), MemberState::Dead, Time::from_secs(1));
        assert_eq!(t.live_count(), 1);
        t.upsert(Member::new(
            "node-0".into(),
            addr(0),
            Incarnation(2),
            Time::from_secs(2),
        ));
        assert_eq!(t.live_count(), 2);
        assert_eq!(t.alive_count(), 2);
        t.check_invariants();
    }

    #[test]
    fn remove_recycles_slots() {
        let mut t = table(4);
        assert!(t.remove(&"node-1".into()).is_some());
        assert!(t.remove(&"node-1".into()).is_none());
        assert_eq!(t.len(), 3);
        t.upsert(Member::new(
            "node-9".into(),
            addr(9),
            Incarnation(0),
            Time::ZERO,
        ));
        assert_eq!(t.len(), 4);
        assert_eq!(t.live_count(), 4);
        t.check_invariants();
    }

    #[test]
    fn sample_respects_filter_and_k() {
        let t = table(10);
        let mut rng = StdRng::seed_from_u64(42);
        let picked = t.sample(3, &mut rng, |m| m.name.as_str() != "node-0");
        assert_eq!(picked.len(), 3);
        assert!(picked.iter().all(|m| m.name.as_str() != "node-0"));
        // Distinct members.
        let mut names: Vec<_> = picked.iter().map(|m| m.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn sample_with_k_larger_than_population() {
        let t = table(2);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(t.sample(10, &mut rng, |_| true).len(), 2);
        assert_eq!(t.sample(10, &mut rng, |_| false).len(), 0);
    }

    #[test]
    fn sample_is_deterministic_for_seed() {
        let t = table(20);
        let a: Vec<_> = t
            .sample(5, &mut StdRng::seed_from_u64(7), |_| true)
            .iter()
            .map(|m| m.name.clone())
            .collect();
        let b: Vec<_> = t
            .sample(5, &mut StdRng::seed_from_u64(7), |_| true)
            .iter()
            .map(|m| m.name.clone())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let t = table(10);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = HashMap::new();
        for _ in 0..5000 {
            for m in t.sample(1, &mut rng, |_| true) {
                *hits.entry(m.name.clone()).or_insert(0u32) += 1;
            }
        }
        // Each of the 10 members should get ~500 of 5000 draws.
        for (name, count) in &hits {
            assert!(
                (350..650).contains(count),
                "{name} drawn {count} times, expected ~500"
            );
        }
    }

    #[test]
    fn sample_pool_separates_liveness_classes() {
        let mut t = table(6);
        t.set_state(&"node-0".into(), MemberState::Dead, Time::from_secs(1));
        t.set_state(&"node-1".into(), MemberState::Left, Time::from_secs(1));
        t.set_state(&"node-2".into(), MemberState::Suspect, Time::from_secs(1));
        let mut rng = StdRng::seed_from_u64(5);
        let live = t.sample_pool(SamplePool::Live, 10, &mut rng, |_| true);
        assert_eq!(live.len(), 4);
        assert!(live.iter().all(|m| m.is_live()));
        let gone = t.sample_pool(SamplePool::Gone, 10, &mut rng, |_| true);
        assert_eq!(gone.len(), 2);
        assert!(gone.iter().all(|m| !m.is_live()));
        let all = t.sample_pool(SamplePool::All, 10, &mut rng, |_| true);
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn changed_since_tracks_only_observable_changes() {
        let mut t = table(4);
        let base = t.update_seq();
        assert_eq!(t.changed_since(0).count(), 4, "inserts are changes");
        assert_eq!(t.changed_since(base).count(), 0);

        // A state change stamps exactly the touched member.
        t.set_state(&"node-1".into(), MemberState::Suspect, Time::from_secs(1));
        let changed: Vec<_> = t.changed_since(base).map(|m| m.name.clone()).collect();
        assert_eq!(changed, vec![NodeName::from("node-1")]);

        // A no-op update (nothing observable changed) does not stamp.
        let mid = t.update_seq();
        t.update(&"node-2".into(), |_m| {});
        t.set_state(&"node-1".into(), MemberState::Suspect, Time::from_secs(2));
        assert_eq!(t.update_seq(), mid);
        assert_eq!(t.changed_since(mid).count(), 0);

        // Incarnation and address changes stamp.
        t.update(&"node-2".into(), |m| m.incarnation = Incarnation(5));
        t.update(&"node-3".into(), |m| m.addr = addr(99));
        assert_eq!(t.changed_since(mid).count(), 2);

        // Re-touching a member keeps exactly one live entry for it.
        t.update(&"node-2".into(), |m| m.incarnation = Incarnation(6));
        assert_eq!(t.changed_since(mid).count(), 2);
        assert_eq!(t.changed_since(0).count(), 4);
        t.check_invariants();
    }

    #[test]
    fn changed_since_survives_removal_slot_reuse_and_compaction() {
        let mut t = table(8);
        // Churn hard enough to trigger compaction (log > 2 * members).
        for round in 0..40u64 {
            let i = (round % 8) as usize;
            let name = NodeName::from(format!("node-{i}"));
            if round % 11 == 3 {
                t.remove(&name);
                t.upsert(Member::new(name, addr(i as u8), Incarnation(round), Time::ZERO));
            } else {
                t.update(&name, |m| m.incarnation = Incarnation(100 + round));
            }
            t.check_invariants();
        }
        assert_eq!(t.changed_since(0).count(), 8);
        // The newest change is visible at the tightest watermark.
        let before = t.update_seq();
        t.set_state(&"node-0".into(), MemberState::Dead, Time::from_secs(1));
        let changed: Vec<_> = t.changed_since(before).map(|m| m.name.clone()).collect();
        assert_eq!(changed, vec![NodeName::from("node-0")]);
    }

    #[test]
    fn reapable_finds_old_dead_members() {
        let mut t = table(3);
        t.set_state(&"node-0".into(), MemberState::Dead, Time::from_secs(10));
        t.set_state(&"node-1".into(), MemberState::Left, Time::from_secs(50));
        let reap: Vec<NodeName> = t
            .reapable(Time::from_secs(30))
            .map(|m| m.name.clone())
            .collect();
        assert_eq!(reap, vec![NodeName::from("node-0")]);
        t.remove(&"node-0".into());
        assert_eq!(t.len(), 2);
        t.check_invariants();
    }

    #[test]
    fn changed_since_is_newest_first() {
        let mut t = table(32);
        let base = t.update_seq();
        for i in (0..32u8).rev() {
            t.update(&format!("node-{i}").into(), |m| {
                m.incarnation = Incarnation(u64::from(i) + 1)
            });
        }
        let feed: Vec<NodeName> = t.changed_since(base).map(|m| m.name.clone()).collect();
        let expect: Vec<NodeName> = (0..32u8).map(|i| format!("node-{i}").into()).collect();
        assert_eq!(feed, expect, "newest-first means last-touched first");
        t.check_invariants();
    }
}
