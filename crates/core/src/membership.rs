//! The local membership table.
//!
//! Stores one member record per known node and provides the random
//! sampling primitives the protocol needs (indirect-probe helpers, gossip
//! fan-out targets). Incarnation-precedence *decisions* live in the node
//! state machine; this module only stores facts.
//!
//! # Layout
//!
//! Records live in one slab (`Vec<Slot>` + free list); everything else
//! refers to a record by its `u32` slot id. Every node holds one record
//! per member, so a cluster pays for the record n² times: a slot is 80
//! bytes — the 16-byte name (its bytes, for a name of at most
//! [`NodeName::INLINE_LEN`] bytes; a pointer to them for a longer one),
//! address, incarnation, state, state-change time, update seq, and the
//! four `u32` links below — and nothing else lives in it.
//!
//! * **Metadata column** — one `Vec<Bytes>` indexed by slot id, beside
//!   the slab. It stays *empty* until the first non-empty blob is
//!   stored and is kept exactly `slots.len()` long from then on, so a
//!   group that never uses metadata pays nothing for it and one that
//!   does pays one `Bytes` per slot. A vacated slot clears its cell.
//! * **Views** — reads yield a [`MemberRef`]: the record's scalar
//!   fields copied, its name and metadata borrowed (members without a
//!   cell share one empty `Bytes`). Writes take and return the owned
//!   [`Member`]; [`Membership::update`] assembles one from the slot and
//!   its cell, hands it to the closure and stores it back.
//! * **Name index** — one open-addressed `Vec` of `(tag, slot id)`
//!   buckets: linear probing, load ≤ ½, power-of-two growth,
//!   backward-shift deletion. The tag is 32 bits of the name's hash
//!   under a per-table random key (names arrive from the network); its
//!   low bits are the home bucket, so growth and deletion re-home
//!   entries without rehashing. The index stores no name: a tag hit is
//!   always verified against the name in the record, which for an
//!   inline name reads the slot the lookup returns anyway. A lookup
//!   that misses hands back the tag ([`Vacant`]), so
//!   [`Membership::insert`] adds a new member for that one probe.
//! * **Liveness pools** — two dense slot-id vectors, `live` (alive |
//!   suspect) and `gone` (dead | left), plus an `alive` counter. That
//!   makes [`Membership::live_count`] / [`Membership::alive_count`] O(1)
//!   (they are invoked on every suspicion start and every
//!   transmit-limit computation), and lets [`Membership::sample`] run a
//!   *lazy* partial Fisher–Yates over a pool's dense positions:
//!   O(inspected) ≈ O(k) work and no O(n) candidate `Vec` per call.
//! * **Change list** — `older`/`newer` links threaded through the
//!   slots, in stamp order. A stamp moves the record to the `newest`
//!   end, a removal unlinks it, so the list holds exactly one entry per
//!   member by construction.
//! * **Generations** — each slot counts its removals, and a
//!   [`MemberId`] carries the count it was issued under, so an id goes
//!   stale when its member is removed even if the slot is reused.
//!
//! # Observable orders
//!
//! Every order the API exposes is a function of the operation history
//! alone: [`Membership::iter`] walks pool order, sampling draws against
//! pool positions, and [`Membership::changed_since`] walks the change
//! list newest first. None of them depends on where the name index put
//! a bucket (the only place the random hash key shows), so a seeded run
//! is reproducible.
//!
//! Because the pools are derived from member state, state changes must
//! go through the table ([`Membership::update`] or
//! [`Membership::set_state`]); there is deliberately no `get_mut`.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};

use bytes::Bytes;
use lifeguard_proto::{Incarnation, MemberState, NodeAddr, NodeName};
use rand::{Rng, RngExt};

use crate::member::{Member, MemberRef};
use crate::time::Time;

/// What [`MemberRef::meta`] borrows for a member without a cell in the
/// metadata column.
static NO_META: Bytes = Bytes::new();

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

/// A handle to one member record of one [`Membership`] table, resolved
/// by [`Membership::by_id`] without touching the name index. It stops
/// resolving once the member is removed, even if another member (or the
/// same name, rejoining) later occupies the slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemberId {
    slot: u32,
    gen: u32,
}

/// A name [`Membership::lookup`] found absent: its hash tag, kept so
/// that [`Membership::insert`] adds the name without hashing it again.
/// Good only until the table next changes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Vacant {
    tag: u32,
}

/// "No slot": list ends, empty index buckets. Never a valid slot id —
/// a table cannot hold `u32::MAX` records.
const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Slot {
    /// `None` while the slot sits on the free list (the other record
    /// fields are then stale).
    name: Option<NodeName>,
    addr: NodeAddr,
    incarnation: Incarnation,
    state: MemberState,
    state_change: Time,
    updated_seq: u64,
    /// Position of this slot's id inside its pool vector.
    pos: u32,
    /// Change-list neighbours: the slots stamped directly after and
    /// before this one (`NIL` at the ends).
    newer: u32,
    older: u32,
    /// Number of times this slot has been vacated.
    gen: u32,
}

/// One name-index bucket; `slot == NIL` marks it empty.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    tag: u32,
    slot: u32,
}

const EMPTY: Bucket = Bucket { tag: 0, slot: NIL };

/// The membership table of a single node.
///
/// The local node itself is stored in the table (as memberlist does), so
/// `n` counts include self.
#[derive(Clone, Debug)]
pub struct Membership {
    // bounded: one slot per member at peak (dead members are reaped after the retention horizon), vacated slots are recycled via `free`
    slots: Vec<Slot>,
    // bounded: ≤ |slots| — holds only currently-vacant slot ids
    free: Vec<u32>,
    /// The metadata column: empty, or one cell per slot.
    // bounded: ≤ |slots| cells, each a blob the node accepted (≤ u16::MAX bytes by the codec's length word)
    meta: Vec<Bytes>,
    /// The name index; length zero or a power of two.
    // bounded: ≤ 2 × next_pow2(peak member count) buckets — grown only by `index_reserve`, to keep load ≤ ½
    index: Vec<Bucket>,
    hasher: RandomState,
    /// Test hook: every name hashes to this tag, so every probe collides.
    #[cfg(test)]
    fixed_tag: Option<u32>,
    /// Ends of the change list (`NIL` when the table is empty).
    oldest: u32,
    newest: u32,
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

impl Default for Membership {
    fn default() -> Self {
        Membership::new()
    }
}

impl Membership {
    /// Creates an empty table.
    pub fn new() -> Self {
        Membership {
            slots: Vec::new(),
            free: Vec::new(),
            meta: Vec::new(),
            index: Vec::new(),
            hasher: RandomState::new(),
            #[cfg(test)]
            fixed_tag: None,
            oldest: NIL,
            newest: NIL,
            live: Vec::new(),
            gone: Vec::new(),
            alive: 0,
            update_seq: 0,
        }
    }

    /// A table whose every name gets the tag `tag`: all members share
    /// one probe run, so only name verification tells them apart.
    #[cfg(test)]
    fn with_fixed_tag(tag: u32) -> Self {
        Membership {
            fixed_tag: Some(tag),
            ..Membership::new()
        }
    }

    /// Reserves room for `additional` more members, so a bulk load
    /// (the simulator's full-mesh bootstrap) grows each structure once
    /// instead of re-homing and reallocating its way up.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
        if !self.meta.is_empty() {
            self.meta.reserve(additional);
        }
        self.index_reserve(self.len() + additional);
        self.live.reserve(additional);
    }

    /// Number of known members in any state (including dead ones still
    /// retained). O(1).
    pub fn len(&self) -> usize {
        self.live.len() + self.gone.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    #[inline]
    pub fn get(&self, name: &NodeName) -> Option<MemberRef<'_>> {
        self.lookup(name.as_str()).ok().map(|(_, member)| member)
    }

    /// The handle of the member named `name`, valid until that member is
    /// removed. O(1).
    pub fn id_of(&self, name: &NodeName) -> Option<MemberId> {
        self.lookup(name.as_str()).ok().map(|(id, _)| id)
    }

    /// Resolves a name as the wire carries it: the member's handle and
    /// its record from one probe of the name index. Everything after
    /// this goes by the handle ([`Membership::by_id`],
    /// [`Membership::update_id`]) and hashes nothing. For a name the
    /// table does not hold, the [`Vacant`] that lets
    /// [`Membership::insert`] add it without hashing it again. O(1).
    ///
    /// # Errors
    ///
    /// [`Vacant`] when no member has this name.
    #[inline]
    pub fn lookup(&self, name: &str) -> Result<(MemberId, MemberRef<'_>), Vacant> {
        let tag = self.tag(name);
        let found = self.find_tagged(tag, name).and_then(|(_, slot)| {
            let gen = self.slots.get(slot as usize)?.gen;
            Some((MemberId { slot, gen }, self.member(slot)?))
        });
        found.ok_or(Vacant { tag })
    }

    /// Adds a member whose name [`Membership::lookup`] just found
    /// absent, and returns its handle: the new member costs that one
    /// probe and no second hash. `vacant` must come from the lookup of
    /// `member.name` with no change to the table since. Counts as a
    /// record change for [`Membership::changed_since`].
    pub fn insert(&mut self, vacant: Vacant, member: Member) -> MemberId {
        debug_assert_eq!(
            vacant.tag,
            self.tag(member.name.as_str()),
            "vacant of another name"
        );
        debug_assert!(
            self.find_tagged(vacant.tag, member.name.as_str()).is_none(),
            "insert() of a present name"
        );
        let state = member.state;
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                // Vacant until `put` below fills it in; the record
                // fields only need *a* value here.
                self.slots.push(Slot {
                    name: None,
                    addr: member.addr,
                    incarnation: member.incarnation,
                    state,
                    state_change: member.state_change,
                    updated_seq: 0,
                    pos: 0,
                    newer: NIL,
                    older: NIL,
                    gen: 0,
                });
                if !self.meta.is_empty() {
                    self.meta.push(Bytes::new());
                }
                (self.slots.len() - 1) as u32
            }
        };
        self.put(id, member);
        self.index_reserve(self.len() + 1);
        self.index_insert(Bucket {
            tag: vacant.tag,
            slot: id,
        });
        self.pool_push(id, state);
        if state == MemberState::Alive {
            self.alive += 1;
        }
        self.stamp(id);
        let gen = self.slots.get(id as usize).map_or(0, |slot| slot.gen);
        MemberId { slot: id, gen }
    }

    /// An owned name for one the caller holds borrowed — an accuser's,
    /// from a packet — made because a message is about to change state:
    /// the table's own when it names a known member (a copy, or a shared
    /// pointer for a name too long to be inline), a fresh one only for a
    /// name this node has never seen.
    pub(crate) fn owned_name(&self, name: &str) -> NodeName {
        match self.lookup(name) {
            Ok((_, member)) => member.name.clone(),
            Err(_) => NodeName::from(name),
        }
    }

    /// Resolves a handle from [`Membership::id_of`]: one slab access, no
    /// hashing. `None` once the member has been removed.
    #[inline]
    pub fn by_id(&self, id: MemberId) -> Option<MemberRef<'_>> {
        if self.slots.get(id.slot as usize)?.gen != id.gen {
            return None;
        }
        self.member(id.slot)
    }

    /// The table's current update sequence: the stamp of the most
    /// recent record change. Strictly monotonic per observable change,
    /// never reused, local to this table instance. O(1).
    pub fn update_seq(&self) -> u64 {
        self.update_seq
    }

    /// Entries on the change list, counted by walking it — always
    /// [`Membership::len`], whatever the churn, which is what the
    /// property tests assert. O(n); diagnostics only.
    pub fn retained_log_len(&self) -> usize {
        self.changed_since(0).count()
    }

    /// Members whose record changed after `since` (in this table's own
    /// sequence space), newest first. O(changed): one walk of the change
    /// list from its newest end, so steady-state delta generation never
    /// touches the unchanged bulk of the table.
    ///
    /// `changed_since(0)` visits every member — a fresh watermark
    /// degenerates to a full-state exchange, which is what makes delta
    /// sync safe to bootstrap from nothing.
    pub fn changed_since(&self, since: u64) -> impl Iterator<Item = MemberRef<'_>> {
        let mut cursor = self.newest;
        std::iter::from_fn(move || {
            let slot = self.slots.get(cursor as usize)?;
            if slot.updated_seq <= since {
                return None;
            }
            let member = self.member(cursor)?;
            cursor = slot.older;
            Some(member)
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
    /// [`Membership::remove`] + [`Membership::upsert`] to rename. The
    /// record is moved out of its slot for the duration of `f` and
    /// stored back after it, so `f` must not panic.
    pub fn update<T>(&mut self, name: &NodeName, f: impl FnOnce(&mut Member) -> T) -> Option<T> {
        let (_, slot) = self.find(name.as_str())?;
        self.update_slot(slot, f)
    }

    /// [`Membership::update`] of the member behind `id`, without
    /// touching the name index. `None` (without running `f`) once the
    /// member has been removed.
    pub fn update_id<T>(&mut self, id: MemberId, f: impl FnOnce(&mut Member) -> T) -> Option<T> {
        if self.slots.get(id.slot as usize)?.gen != id.gen {
            return None;
        }
        self.update_slot(id.slot, f)
    }

    fn update_slot<T>(&mut self, id: u32, f: impl FnOnce(&mut Member) -> T) -> Option<T> {
        let mut member = self.take(id)?;
        let before = member.state;
        // Snapshot for change-stamping. The meta clone (a refcount
        // bump) keeps the old buffer alive across `f`, so an equal
        // pointer + length afterwards *proves* the buffer is unchanged
        // (`Bytes` is immutable and the allocator cannot have reused a
        // block that is still live). Only when the buffer genuinely
        // changed do we pay a content comparison — the borrowed alive
        // path reuses the stored buffer for unchanged metadata, so the
        // steady state stays on the pointer fast path.
        let before_key = (member.state, member.incarnation, member.addr);
        let before_meta = member.meta.clone();
        let before_name = cfg!(debug_assertions).then(|| member.name.clone());
        let out = f(&mut member);
        let after = member.state;
        let after_key = (member.state, member.incarnation, member.addr);
        let after_meta = &member.meta;
        let same_buffer = before_meta.len() == after_meta.len()
            && std::ptr::eq(before_meta.as_ref().as_ptr(), after_meta.as_ref().as_ptr());
        let meta_changed = !same_buffer && before_meta.as_ref() != after_meta.as_ref();
        debug_assert!(
            before_name.is_none_or(|name| name == member.name),
            "update() must not change the member's name (index key)"
        );
        self.put(id, member);
        self.reconcile(id, before, after);
        if before_key != after_key || meta_changed {
            self.unlink(id);
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
        let tag = self.tag(member.name.as_str());
        let Some((_, id)) = self.find_tagged(tag, member.name.as_str()) else {
            self.insert(Vacant { tag }, member);
            return None;
        };
        let state = member.state;
        let prev = self.take(id)?;
        self.put(id, member);
        self.reconcile(id, prev.state, state);
        self.unlink(id);
        self.stamp(id);
        Some(prev)
    }

    /// Removes a member record entirely (dead-node reaping). O(1).
    /// Every [`MemberId`] issued for it stops resolving.
    pub fn remove(&mut self, name: &NodeName) -> Option<Member> {
        let (bucket, id) = self.find(name.as_str())?;
        let member = self.take(id)?;
        self.index_remove(bucket);
        self.pool_remove(id, member.state);
        if member.state == MemberState::Alive {
            self.alive -= 1;
        }
        self.unlink(id);
        let slot = self.slots.get_mut(id as usize)?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id);
        Some(member)
    }

    /// Iterates over all member records in pool order (live members
    /// first, then retained dead/left). The order is deterministic for a
    /// given operation history; it is otherwise unspecified.
    pub fn iter(&self) -> impl Iterator<Item = MemberRef<'_>> {
        self.live
            .iter()
            .chain(self.gone.iter())
            .filter_map(|&id| self.member(id))
    }

    /// Members that have been dead/left since before `reap_before` and
    /// can be forgotten.
    ///
    /// Iterates the `gone` pool only, so the cost is O(retained dead),
    /// not O(n); collect the names before calling
    /// [`Membership::remove`].
    pub fn reapable(&self, reap_before: Time) -> impl Iterator<Item = MemberRef<'_>> {
        self.gone
            .iter()
            .filter_map(|&id| self.member(id))
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
        filter: impl FnMut(&MemberRef<'_>) -> bool,
    ) -> Vec<MemberRef<'_>> {
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
        filter: impl FnMut(&MemberRef<'_>) -> bool,
    ) -> Vec<MemberRef<'_>> {
        let mut picked = Vec::new();
        self.sample_pool_with(pool, k, rng, filter, |m| picked.push(m));
        picked
    }

    /// Visitor form of [`Membership::sample_pool`]: each drawn member is
    /// passed to `visit` instead of being collected, so hot callers (the
    /// node's gossip/probe target selection) can copy the one field they
    /// need into a reusable buffer without allocating a `Vec` per call.
    pub fn sample_pool_with<'a, R: Rng>(
        &'a self,
        pool: SamplePool,
        k: usize,
        rng: &mut R,
        mut filter: impl FnMut(&MemberRef<'a>) -> bool,
        mut visit: impl FnMut(MemberRef<'a>),
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
        let mut moved = Displaced::new();
        let mut picked = 0;
        let mut i = 0;
        while i < n && picked < k {
            let j = rng.random_range(i..n);
            let vj = moved.get(j);
            // Position i is never read again, so `j == i` records nothing.
            if j != i {
                moved.set(j, moved.get(i));
            }
            debug_assert!(
                self.pool_member(pool, vj).is_some(),
                "pool position out of bounds"
            );
            if let Some(member) = self.pool_member(pool, vj) {
                if filter(&member) {
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

    /// The record in slot `id`. The name index, the pool vectors and the
    /// change list only ever hold ids of occupied slots, so a `None`
    /// here is a table bug — `debug_assert!`-checked at each use site.
    ///
    /// `#[inline]` here, on the accessors built on it and on the lookup
    /// under them: a view is assembled to be taken apart again at the
    /// call site, where the fields nobody reads cost nothing. Out of
    /// line — as a non-generic function is from another crate — each
    /// call stores all 64 bytes, and `find` returns through memory too.
    #[inline]
    fn member(&self, id: u32) -> Option<MemberRef<'_>> {
        let slot = self.slots.get(id as usize)?;
        Some(MemberRef {
            name: slot.name.as_ref()?,
            addr: slot.addr,
            incarnation: slot.incarnation,
            state: slot.state,
            state_change: slot.state_change,
            meta: self.meta.get(id as usize).unwrap_or(&NO_META),
            updated_seq: slot.updated_seq,
        })
    }

    /// Moves the record out of slot `id`, leaving the slot vacant and
    /// its metadata cell empty. Indexes are untouched: the caller either
    /// [`Membership::put`]s a record back or finishes the removal.
    fn take(&mut self, id: u32) -> Option<Member> {
        let slot = self.slots.get_mut(id as usize)?;
        Some(Member {
            name: slot.name.take()?,
            addr: slot.addr,
            incarnation: slot.incarnation,
            state: slot.state,
            state_change: slot.state_change,
            meta: self
                .meta
                .get_mut(id as usize)
                .map(std::mem::take)
                .unwrap_or_default(),
            updated_seq: slot.updated_seq,
        })
    }

    /// Stores `member` in slot `id`. The first non-empty blob any member
    /// brings is what materialises the metadata column.
    fn put(&mut self, id: u32, member: Member) {
        let Some(slot) = self.slots.get_mut(id as usize) else {
            debug_assert!(false, "put() into an unknown slot");
            return;
        };
        slot.name = Some(member.name);
        slot.addr = member.addr;
        slot.incarnation = member.incarnation;
        slot.state = member.state;
        slot.state_change = member.state_change;
        slot.updated_seq = member.updated_seq;
        if self.meta.is_empty() {
            if member.meta.is_empty() {
                return;
            }
            self.meta.resize(self.slots.len(), Bytes::new());
        }
        if let Some(cell) = self.meta.get_mut(id as usize) {
            *cell = member.meta;
        }
    }

    /// The name stored in slot `id` (`None` for a vacant slot).
    fn name_of(&self, id: u32) -> Option<&NodeName> {
        self.slots.get(id as usize)?.name.as_ref()
    }

    fn tag(&self, name: &str) -> u32 {
        #[cfg(test)]
        if let Some(tag) = self.fixed_tag {
            return tag;
        }
        self.hasher.hash_one(name) as u32
    }

    /// `index.len() - 1`; ANDing with it wraps a bucket position because
    /// the length is a power of two. (An empty index never probes.)
    fn mask(&self) -> usize {
        self.index.len().wrapping_sub(1)
    }

    fn bucket(&self, i: usize) -> Bucket {
        self.index.get(i).copied().unwrap_or(EMPTY)
    }

    fn set_bucket(&mut self, i: usize, bucket: Bucket) {
        if let Some(b) = self.index.get_mut(i) {
            *b = bucket;
        }
    }

    /// `(bucket position, slot id)` of the member named `name`.
    #[inline]
    fn find(&self, name: &str) -> Option<(usize, u32)> {
        self.find_tagged(self.tag(name), name)
    }

    /// [`Membership::find`] for a name whose tag is already computed.
    /// Probes from the tag's home bucket to the first empty one (load
    /// ≤ ½ guarantees there is one; the loop bound does not rely on it).
    #[inline]
    fn find_tagged(&self, tag: u32, name: &str) -> Option<(usize, u32)> {
        let mask = self.mask();
        let mut i = tag as usize & mask;
        for _ in 0..self.index.len() {
            let b = self.bucket(i);
            if b.slot == NIL {
                return None;
            }
            // Tags are 32 bits of a hash: equal tags are not yet equal
            // names, so the stored name decides.
            if b.tag == tag && self.name_of(b.slot).is_some_and(|n| n.as_str() == name) {
                return Some((i, b.slot));
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Grows the index so `members` entries keep the load ≤ ½. Buckets
    /// are re-homed from their tags; no name is hashed again.
    fn index_reserve(&mut self, members: usize) {
        let want = (2 * members).next_power_of_two();
        if want <= self.index.len() {
            return;
        }
        let old = std::mem::replace(&mut self.index, vec![EMPTY; want]);
        for b in old {
            if b.slot != NIL {
                self.index_insert(b);
            }
        }
    }

    /// Places `bucket` (a name known to be absent) in the first empty
    /// bucket at or after its home.
    fn index_insert(&mut self, bucket: Bucket) {
        let mask = self.mask();
        let mut i = bucket.tag as usize & mask;
        for _ in 0..self.index.len() {
            if self.bucket(i).slot == NIL {
                self.set_bucket(i, bucket);
                return;
            }
            i = (i + 1) & mask;
        }
        debug_assert!(false, "name index full");
    }

    /// Empties bucket `hole` and closes the gap (backward-shift
    /// deletion): each later bucket of the probe run moves back into the
    /// hole unless that would put it before its home, so lookups never
    /// need tombstones.
    fn index_remove(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut j = hole;
        for _ in 0..self.index.len() {
            j = (j + 1) & mask;
            let b = self.bucket(j);
            if b.slot == NIL {
                break;
            }
            let home = b.tag as usize & mask;
            // Cyclic distances from `b`'s home: it may move to `hole`
            // iff the hole is not before its home.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.set_bucket(hole, b);
                hole = j;
            }
        }
        self.set_bucket(hole, EMPTY);
    }

    /// Takes slot `id` off the change list.
    fn unlink(&mut self, id: u32) {
        let Some((older, newer)) = self.slots.get(id as usize).map(|s| (s.older, s.newer)) else {
            debug_assert!(false, "unlink() of an unknown slot");
            return;
        };
        match self.slots.get_mut(older as usize) {
            Some(s) => s.newer = newer,
            None => self.oldest = newer,
        }
        match self.slots.get_mut(newer as usize) {
            Some(s) => s.older = older,
            None => self.newest = older,
        }
    }

    /// Assigns the next update-seq to the record in slot `id` and puts
    /// the slot — not currently on the change list — at its newest end.
    fn stamp(&mut self, id: u32) {
        self.update_seq += 1;
        let seq = self.update_seq;
        let older = self.newest;
        let Some(slot) = self.slots.get_mut(id as usize) else {
            debug_assert!(false, "stamp() of an unknown slot");
            return;
        };
        debug_assert!(slot.name.is_some(), "stamp() on a vacant slot");
        slot.updated_seq = seq;
        slot.older = older;
        slot.newer = NIL;
        match self.slots.get_mut(older as usize) {
            Some(s) => s.newer = id,
            None => self.oldest = id,
        }
        self.newest = id;
    }

    /// The member at virtual position `v` of a pool (All concatenates
    /// live then gone). `None` for an out-of-pool position.
    #[inline]
    fn pool_member(&self, pool: SamplePool, v: usize) -> Option<MemberRef<'_>> {
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
        self.member(id)
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
        let pos = (pool.len() - 1) as u32;
        debug_assert!(self.name_of(id).is_some(), "pool_push() on a vacant slot");
        if let Some(slot) = self.slots.get_mut(id as usize) {
            slot.pos = pos;
        }
    }

    /// Swap-remove of slot `id` from its pool: the pool's last id takes
    /// over the vacated position.
    fn pool_remove(&mut self, id: u32, state: MemberState) {
        let Some(pos) = self.slots.get(id as usize).map(|s| s.pos) else {
            debug_assert!(false, "pool_remove() of an unknown slot");
            return;
        };
        let pool = if state.is_live() {
            &mut self.live
        } else {
            &mut self.gone
        };
        debug_assert!(
            pool.get(pos as usize) == Some(&id),
            "pool position out of sync"
        );
        let Some(last) = pool.pop() else { return };
        // `None` when `id` itself was the last entry.
        if let Some(entry) = pool.get_mut(pos as usize) {
            *entry = last;
            if let Some(slot) = self.slots.get_mut(last as usize) {
                slot.pos = pos;
            }
        }
    }

    /// Debug-only invariant check: counters, pools, the name index and
    /// the change list agree with a full recomputation (used by the
    /// property tests).
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
        let occupied = self.slots.iter().filter(|s| s.name.is_some()).count();
        assert_eq!(occupied, self.len(), "occupied slots out of sync");
        assert_eq!(
            occupied + self.free.len(),
            self.slots.len(),
            "free list out of sync"
        );
        assert!(
            self.meta.is_empty() || self.meta.len() == self.slots.len(),
            "metadata column neither empty nor one cell per slot"
        );
        for (slot, cell) in self.slots.iter().zip(&self.meta) {
            assert!(
                slot.name.is_some() || cell.is_empty(),
                "vacant slot kept its metadata"
            );
        }

        // Name index: a power-of-two table at load ≤ ½ holding exactly
        // one bucket per member, each reachable by probing for its name.
        assert!(self.index.is_empty() || self.index.len().is_power_of_two());
        assert!(2 * self.len() <= self.index.len(), "index load above ½");
        let mut buckets = 0;
        for (i, b) in self.index.iter().enumerate().filter(|(_, b)| b.slot != NIL) {
            buckets += 1;
            let slot = self.slots.get(b.slot as usize);
            let member = self.member(b.slot);
            assert!(member.is_some(), "index points at a vacant slot");
            let (Some(slot), Some(member)) = (slot, member) else {
                continue;
            };
            assert_eq!(
                b.tag,
                self.tag(member.name.as_str()),
                "bucket tag out of sync"
            );
            assert_eq!(
                self.find(member.name.as_str()),
                Some((i, b.slot)),
                "probing for a name must end at its bucket"
            );
            let pool = if member.state.is_live() {
                &self.live
            } else {
                &self.gone
            };
            assert_eq!(
                pool.get(slot.pos as usize),
                Some(&b.slot),
                "pool position out of sync"
            );
        }
        assert_eq!(buckets, self.len(), "index out of sync");

        // Change list, oldest → newest: strictly ascending seqs bounded
        // by the counter, `older`/`newer` mutual, exactly one entry per
        // member (so `changed_since` is complete at any watermark,
        // including 0).
        let (mut prev_id, mut prev_seq, mut entries) = (NIL, 0, 0);
        let mut cursor = self.oldest;
        while let Some(slot) = self.slots.get(cursor as usize) {
            assert!(slot.name.is_some(), "change list holds a vacant slot");
            let seq = slot.updated_seq;
            assert!(
                seq > prev_seq,
                "change-list seqs must be strictly ascending"
            );
            assert!(seq <= self.update_seq, "change-list seq beyond counter");
            assert_eq!(slot.older, prev_id, "older link does not mirror newer");
            entries += 1;
            assert!(entries <= self.len(), "change list longer than the table");
            (prev_id, prev_seq) = (cursor, seq);
            cursor = slot.newer;
        }
        assert_eq!(cursor, NIL, "change list leaves the slab");
        assert_eq!(prev_id, self.newest, "newest end out of sync");
        assert_eq!(
            entries,
            self.len(),
            "each member must be on the change list once"
        );
        // And newest → oldest, through the public feed: the same
        // entries, strictly descending.
        assert_eq!(
            self.changed_since(0).count(),
            self.len(),
            "changed_since(0) must visit every member"
        );
        let mut last = u64::MAX;
        for m in self.changed_since(0) {
            assert!(m.updated_seq < last, "change feed out of order");
            last = m.updated_seq;
        }
    }
}

/// The positions a lazy Fisher–Yates pass has displaced from the
/// identity permutation, as `(position, value)` pairs. A sampling call
/// displaces about one position per member inspected, so the pairs sit
/// in a fixed inline array scanned linearly — no allocation, no hashing.
struct Displaced {
    inline: [(usize, usize); Displaced::INLINE],
    len: usize,
    /// Takes over past [`Displaced::INLINE`] pairs — a filter rejecting
    /// most of a large pool — where a linear scan per draw would make
    /// the call quadratic in the members inspected.
    spill: Option<HashMap<usize, usize>>,
}

impl Displaced {
    const INLINE: usize = 16;

    fn new() -> Self {
        Displaced {
            inline: [(0, 0); Displaced::INLINE],
            len: 0,
            spill: None,
        }
    }

    /// The value at `pos`: its override, else `pos` itself.
    fn get(&self, pos: usize) -> usize {
        if let Some(spill) = &self.spill {
            return spill.get(&pos).copied().unwrap_or(pos);
        }
        self.inline
            .iter()
            .take(self.len)
            .find(|e| e.0 == pos)
            .map_or(pos, |e| e.1)
    }

    fn set(&mut self, pos: usize, value: usize) {
        if let Some(spill) = &mut self.spill {
            spill.insert(pos, value);
            return;
        }
        if let Some(e) = self.inline.iter_mut().take(self.len).find(|e| e.0 == pos) {
            e.1 = value;
            return;
        }
        match self.inline.get_mut(self.len) {
            Some(e) => {
                *e = (pos, value);
                self.len += 1;
            }
            None => {
                let mut spill: HashMap<usize, usize> = self.inline.iter().copied().collect();
                spill.insert(pos, value);
                self.spill = Some(spill);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifeguard_proto::{Incarnation, NodeAddr};
    use proptest::prelude::*;
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
        // Many more stamps than members, across removals and slot reuse.
        for round in 0..40u64 {
            let i = (round % 8) as usize;
            let name = NodeName::from(format!("node-{i}"));
            if round % 11 == 3 {
                t.remove(&name);
                t.upsert(Member::new(
                    name,
                    addr(i as u8),
                    Incarnation(round),
                    Time::ZERO,
                ));
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

    #[test]
    fn member_id_goes_stale_on_remove_even_when_the_slot_is_reused() {
        let mut t = table(3);
        let name = NodeName::from("node-1");
        let id = t.id_of(&name).unwrap();
        assert_eq!(*t.by_id(id).unwrap().name, name);
        // Updates and re-upserts keep the record in place: same id.
        t.update(&name, |m| m.incarnation = Incarnation(4));
        t.upsert(Member::new(
            name.clone(),
            addr(1),
            Incarnation(5),
            Time::ZERO,
        ));
        assert_eq!(t.id_of(&name), Some(id));

        t.remove(&name);
        assert!(t.by_id(id).is_none(), "vacant slot");
        assert!(t.id_of(&name).is_none());
        // The free list hands the same slot to the next newcomer...
        t.upsert(Member::new(
            "node-9".into(),
            addr(9),
            Incarnation(0),
            Time::ZERO,
        ));
        let reused = t.id_of(&"node-9".into()).unwrap();
        assert_eq!(reused.slot, id.slot);
        assert!(t.by_id(id).is_none(), "slot reused by another member");
        // ...and to the same name rejoining.
        t.remove(&"node-9".into());
        t.upsert(Member::new(
            name.clone(),
            addr(1),
            Incarnation(6),
            Time::ZERO,
        ));
        assert_eq!(t.id_of(&name).unwrap().slot, id.slot);
        assert!(t.by_id(id).is_none(), "slot reused by the same name");
        t.check_invariants();
    }

    #[test]
    fn insert_after_a_missed_lookup_returns_the_new_members_id() {
        let mut t = table(3);
        let before = t.update_seq();
        for name in ["node-7", "a-name-longer-than-inline"] {
            let Err(vacant) = t.lookup(name) else {
                panic!("{name} is not a member yet");
            };
            let id = t.insert(
                vacant,
                Member::new(name.into(), addr(7), Incarnation(2), Time::ZERO),
            );
            assert_eq!(t.id_of(&name.into()), Some(id));
            assert_eq!(t.by_id(id).map(|m| m.incarnation), Some(Incarnation(2)));
            t.check_invariants();
        }
        assert_eq!(t.changed_since(before).count(), 2, "inserts are changes");
        assert_eq!(t.live_count(), 5);
    }

    /// A layout regression costs n² bytes in the simulator (every node
    /// holds the full roster), so it fails here first.
    #[test]
    fn record_layout_is_pinned() {
        assert!(std::mem::size_of::<Slot>() <= 80);
        // The name is inline in the slot, and a vacant slot's `None`
        // costs it no byte.
        assert_eq!(std::mem::size_of::<NodeName>(), 16);
        assert_eq!(std::mem::size_of::<Option<NodeName>>(), 16);
        assert!(std::mem::size_of::<NodeAddr>() <= 20);
        assert!(std::mem::size_of::<MemberRef<'_>>() <= 64);
        assert_eq!(std::mem::size_of::<Bucket>(), 8);
        assert_eq!(std::mem::size_of::<MemberId>(), 8);
    }

    #[test]
    fn sampling_past_the_inline_displacement_list_keeps_the_permutation() {
        // A filter that rejects everything inspects — and displaces —
        // the whole pool: far more than `Displaced::INLINE` positions.
        // Every member must still be drawn exactly once.
        let t = table(200);
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = Vec::new();
        let picked = t.sample(1, &mut rng, |m| {
            seen.push(m.name.clone());
            false
        });
        assert!(picked.is_empty());
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 200);
    }

    /// One step against the table and its `HashMap` model.
    #[derive(Clone, Debug)]
    enum IndexOp {
        Upsert { node: usize, inc: u64 },
        Update { node: usize },
        Remove { node: usize },
    }

    fn index_op() -> impl Strategy<Value = IndexOp> {
        // 40 names: enough members to grow the index several times,
        // few enough that removals and re-upserts keep reusing slots.
        prop_oneof![
            (0..40usize, 0u64..8).prop_map(|(node, inc)| IndexOp::Upsert { node, inc }),
            (0..40usize, 0u64..8).prop_map(|(node, inc)| IndexOp::Upsert { node, inc }),
            (0..40usize).prop_map(|node| IndexOp::Update { node }),
            (0..40usize).prop_map(|node| IndexOp::Remove { node }),
        ]
    }

    proptest! {
        /// The name index against a `HashMap<String, _>` model over
        /// sequences that force growth, slot reuse and backward-shift
        /// deletion — with real hashes, and with every name on one tag
        /// so that each lookup walks a run of colliding buckets and the
        /// stored name alone decides.
        #[test]
        fn name_index_matches_hashmap_model(
            ops in proptest::collection::vec(index_op(), 1..300),
            collide in any::<bool>(),
        ) {
            let mut t = if collide {
                Membership::with_fixed_tag(0xdead_beef)
            } else {
                Membership::new()
            };
            let mut model: HashMap<String, u64> = HashMap::new();
            // 2 to 19 bytes: inline names and shared ones (over 14
            // bytes), and shared names that agree in their first 17
            // bytes, so that only a full comparison tells them apart.
            let name = |node: usize| format!("n{}", "x".repeat(4 * (node % 5))) + &node.to_string();
            for op in &ops {
                match *op {
                    IndexOp::Upsert { node, inc } => {
                        let m = Member::new(name(node).into(), addr(node as u8), Incarnation(inc), Time::ZERO);
                        let prev = t.upsert(m).map(|m| m.incarnation.0);
                        prop_assert_eq!(prev, model.insert(name(node), inc));
                    }
                    IndexOp::Update { node } => {
                        let out = t.update(&name(node).into(), |m| {
                            m.incarnation = Incarnation(m.incarnation.0 + 1);
                            m.incarnation.0
                        });
                        let expect = model.get_mut(&name(node)).map(|inc| {
                            *inc += 1;
                            *inc
                        });
                        prop_assert_eq!(out, expect);
                    }
                    IndexOp::Remove { node } => {
                        let gone = t.remove(&name(node).into()).map(|m| m.incarnation.0);
                        prop_assert_eq!(gone, model.remove(&name(node)));
                    }
                }
                t.check_invariants();
                prop_assert_eq!(t.len(), model.len());
                for node in 0..40 {
                    let key = NodeName::from(name(node));
                    let got = t.get(&key).map(|m| (m.name.as_str().to_owned(), m.incarnation.0));
                    let expect = model.get(&name(node)).map(|&inc| (name(node), inc));
                    prop_assert_eq!(got, expect);
                    let by_id = t.id_of(&key).and_then(|id| t.by_id(id)).map(|m| m.name.clone());
                    prop_assert_eq!(by_id, t.get(&key).map(|m| m.name.clone()));
                }
            }
        }
    }
}
