//! Round-robin probe target selection.
//!
//! SWIM's refinement over pure random probing: each member walks its
//! member list in round-robin order so worst-case first-detection time is
//! bounded, but the list order is random and *new members are inserted at
//! random positions*, so the expected detection time matches the random
//! scheme (paper §III-A).
//!
//! The rotation holds bare 4-byte slot ids, one per member per node. A
//! slot is reused once its member is removed, so the removal must reach
//! the rotation before the next insert: [`ProbeList::forget_removed`]
//! turns each removed member's entry into a tombstone in one pass, and
//! a tombstone is dropped when the cursor reaches it, the way an id of
//! a removed member would be. The rotation's length, and with it every
//! random draw, is what it would be with generation-checked ids.

use lifeguard_proto::NodeName;
use rand::{Rng, RngExt};

use crate::member::MemberRef;
use crate::membership::{MemberId, Membership, NIL};

/// The local node's probe rotation.
#[derive(Clone, Debug, Default)]
pub struct ProbeList {
    // bounded: ≤ cluster size live slot ids plus tombstones of removed members, each dropped when the cursor reaches it
    order: Vec<u32>,
    next: usize,
}

impl ProbeList {
    /// Creates an empty rotation.
    pub fn new() -> Self {
        ProbeList::default()
    }

    /// Number of entries in the rotation (members and tombstones alike;
    /// tombstones are dropped lazily during [`ProbeList::next_target`]).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the rotation is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Inserts a newly discovered member at a random position, per SWIM.
    /// Positions at or before the cursor are shifted so the new member is
    /// visited within the current sweep where possible.
    pub fn insert<R: Rng>(&mut self, id: MemberId, rng: &mut R) {
        let pos = rng.random_range(0..=self.order.len());
        self.order.insert(pos, id.slot());
        if pos < self.next {
            self.next += 1;
        }
    }

    /// Bulk insertion for cluster bootstrap: appends all ids and
    /// reshuffles once (O(total)), instead of one O(n) positional insert
    /// per member. Restarts the sweep.
    pub fn extend_shuffled<R: Rng>(
        &mut self,
        ids: impl IntoIterator<Item = MemberId>,
        rng: &mut R,
    ) {
        self.order.extend(ids.into_iter().map(MemberId::slot));
        self.reshuffle(rng);
    }

    /// Turns the entry of every member removed from `membership` since
    /// the last call into a tombstone, in one pass. Call it after
    /// removals and before the table's next insert, which may reuse a
    /// vacated slot; a removal it misses would hand the slot's next
    /// member a second entry.
    pub fn forget_removed(&mut self, membership: &Membership) {
        for slot in &mut self.order {
            if *slot != NIL && !membership.occupied(*slot) {
                *slot = NIL;
            }
        }
    }

    /// Picks the next probe target: advances round-robin, skipping
    /// members for which `eligible` is false and dropping tombstones —
    /// the member was removed; if it has rejoined since, it is in the
    /// rotation under its new entry. Reshuffles at the end of each
    /// sweep.
    ///
    /// Returns the target with its current id, or `None` when no
    /// eligible member exists.
    pub fn next_target<'m, R: Rng>(
        &mut self,
        membership: &'m Membership,
        rng: &mut R,
        mut eligible: impl FnMut(&MemberRef<'m>) -> bool,
    ) -> Option<(MemberId, MemberRef<'m>)> {
        // One full sweep plus one reshuffle is enough to visit every
        // candidate; two sweeps bounds the loop even with removals.
        let mut inspected = 0;
        let limit = self.order.len().saturating_mul(2).max(1);
        while inspected < limit {
            let Some(&slot) = self.order.get(self.next) else {
                if self.order.is_empty() {
                    return None;
                }
                self.reshuffle(rng);
                continue;
            };
            inspected += 1;
            let Some((id, member)) = membership.at_slot(slot) else {
                // A tombstone: drop it from the rotation without advancing.
                self.order.remove(self.next);
                continue;
            };
            self.next += 1;
            if eligible(&member) {
                return Some((id, member));
            }
        }
        None
    }

    /// Every entry but a tombstone names an occupied slot, every live
    /// member other than `me` is in the rotation, and no member is in
    /// it twice.
    #[doc(hidden)]
    pub fn check_invariants(&self, membership: &Membership, me: &NodeName) {
        let mut listed = std::collections::HashSet::new();
        for &slot in self.order.iter().filter(|&&slot| slot != NIL) {
            assert!(
                membership.occupied(slot),
                "slot {slot} is in the probe rotation but vacant"
            );
            assert!(listed.insert(slot), "slot {slot} is in the probe rotation twice");
        }
        for m in membership.iter().filter(|m| m.is_live() && m.name != me) {
            assert!(
                membership.id_of(m.name).is_some_and(|id| listed.contains(&id.slot())),
                "live member {} is not in the probe rotation",
                m.name
            );
        }
    }

    /// Fisher–Yates reshuffle, restarting the sweep.
    fn reshuffle<R: Rng>(&mut self, rng: &mut R) {
        let n = self.order.len();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            self.order.swap(i, j);
        }
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::member::Member;
    use crate::time::Time;
    use lifeguard_proto::{Incarnation, NodeAddr, NodeName};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// Adds `name` to the table and, under its fresh id, to the rotation
    /// — what the node does when it learns of a member.
    fn join(membership: &mut Membership, list: &mut ProbeList, rng: &mut StdRng, name: &str) {
        let name = NodeName::from(name);
        membership.upsert(Member::new(
            name.clone(),
            NodeAddr::new([10, 0, 0, 1], 1),
            Incarnation(0),
            Time::ZERO,
        ));
        list.insert(membership.id_of(&name).unwrap(), rng);
    }

    /// Removes `name` from the table and blanks its entry — what the
    /// node's reap does.
    fn reap(membership: &mut Membership, list: &mut ProbeList, name: &str) {
        membership.remove(&name.into()).unwrap();
        list.forget_removed(membership);
    }

    fn setup(n: usize) -> (Membership, ProbeList, StdRng) {
        let mut membership = Membership::new();
        let mut list = ProbeList::new();
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..n {
            join(&mut membership, &mut list, &mut rng, &format!("node-{i}"));
        }
        (membership, list, rng)
    }

    #[test]
    fn visits_every_member_each_sweep() {
        let (membership, mut list, mut rng) = setup(8);
        for sweep in 0..5 {
            let mut seen = Vec::new();
            for _ in 0..8 {
                let t = list.next_target(&membership, &mut rng, |_| true).unwrap().1;
                seen.push(t.name.clone());
            }
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), 8, "sweep {sweep} revisited a member");
        }
    }

    #[test]
    fn skips_ineligible_members() {
        let (membership, mut list, mut rng) = setup(4);
        for _ in 0..20 {
            let t = list
                .next_target(&membership, &mut rng, |m| m.name.as_str() != "node-2")
                .unwrap()
                .1;
            assert_ne!(t.name.as_str(), "node-2");
        }
    }

    #[test]
    fn returns_none_when_nothing_eligible() {
        let (membership, mut list, mut rng) = setup(4);
        assert!(list.next_target(&membership, &mut rng, |_| false).is_none());
        let (_, mut empty, mut rng2) = setup(0);
        let empty_membership = Membership::new();
        assert!(empty
            .next_target(&empty_membership, &mut rng2, |_| true)
            .is_none());
    }

    #[test]
    fn drops_members_removed_from_membership() {
        let (mut membership, mut list, mut rng) = setup(4);
        reap(&mut membership, &mut list, "node-1");
        let mut seen = Vec::new();
        for _ in 0..3 {
            let t = list.next_target(&membership, &mut rng, |_| true).unwrap().1;
            seen.push(t.name.as_str().to_owned());
        }
        assert!(!seen.contains(&"node-1".to_owned()));
        assert_eq!(list.len(), 3);
    }

    /// A member reaped and re-added into its old slot before the cursor
    /// reaches the old entry must not be in the rotation twice: the old
    /// entry is a tombstone and is dropped when reached. (With names in
    /// the rotation the old entry resolved again and stayed for good;
    /// with bare slot ids and no tombstone it would resolve to the
    /// rejoined member.)
    #[test]
    fn rejoin_after_removal_is_probed_once_per_sweep() {
        let (mut membership, mut list, mut rng) = setup(10);
        let slot = membership.id_of(&"node-2".into()).unwrap().slot();
        reap(&mut membership, &mut list, "node-2");
        join(&mut membership, &mut list, &mut rng, "node-2");
        assert_eq!(
            membership.id_of(&"node-2".into()).unwrap().slot(),
            slot,
            "the rejoin reused the slot"
        );
        assert_eq!(list.order.iter().filter(|&&s| s == slot).count(), 1);
        assert_eq!(list.order.iter().filter(|&&s| s == NIL).count(), 1);
        list.check_invariants(&membership, &"me".into());
        // Two sweeps are enough for the cursor to pass every old entry.
        for _ in 0..20 {
            list.next_target(&membership, &mut rng, |_| true).unwrap();
        }
        assert_eq!(list.len(), 10, "the tombstone is gone");
        for sweep in 0..3 {
            let mut hits = 0;
            for _ in 0..10 {
                let t = list.next_target(&membership, &mut rng, |_| true).unwrap().1;
                hits += usize::from(t.name.as_str() == "node-2");
            }
            assert_eq!(hits, 1, "sweep {sweep} probed node-2 {hits} times");
        }
    }

    /// The tombstone sits ahead of the cursor, mid-sweep, when the
    /// rejoin takes the slot back: the cursor must drop it, not probe
    /// the rejoined member through it as well.
    #[test]
    fn a_slot_reused_before_the_cursor_reaches_its_tombstone_is_probed_once() {
        let (mut membership, mut list, mut rng) = setup(10);
        for _ in 0..3 {
            list.next_target(&membership, &mut rng, |_| true).unwrap();
        }
        let ahead = *list.order.get(list.next + 2).unwrap();
        let name = membership.at_slot(ahead).unwrap().1.name.clone();
        reap(&mut membership, &mut list, name.as_str());
        join(&mut membership, &mut list, &mut rng, name.as_str());
        assert_eq!(membership.id_of(&name).unwrap().slot(), ahead, "slot reused");
        let mut hits = 0;
        while list.next < list.order.len() {
            let t = list.next_target(&membership, &mut rng, |_| true).unwrap().1;
            hits += usize::from(*t.name == name);
        }
        assert!(hits <= 1, "probed {hits} times in the sweep it rejoined in");
        assert_eq!(list.len(), 10, "the tombstone was dropped");
        for sweep in 0..3 {
            let mut hits = 0;
            for _ in 0..10 {
                let t = list.next_target(&membership, &mut rng, |_| true).unwrap().1;
                hits += usize::from(*t.name == name);
            }
            assert_eq!(hits, 1, "sweep {sweep} probed {name} {hits} times");
        }
        list.check_invariants(&membership, &"me".into());
    }

    #[test]
    fn insertion_positions_are_spread_randomly() {
        // Insert a marker node into many fresh lists and check its
        // position is not always the same (random insertion per SWIM).
        let mut positions = HashMap::new();
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut membership = Membership::new();
            let mut list = ProbeList::new();
            for i in 0..9 {
                join(&mut membership, &mut list, &mut rng, &format!("node-{i}"));
            }
            join(&mut membership, &mut list, &mut rng, "marker");
            let marker = membership.id_of(&"marker".into()).unwrap();
            let pos = list.order.iter().position(|&slot| slot == marker.slot()).unwrap();
            *positions.entry(pos).or_insert(0) += 1;
        }
        assert!(
            positions.len() > 3,
            "marker always inserted at the same few positions: {positions:?}"
        );
    }

    #[test]
    fn worst_case_first_visit_is_bounded() {
        // Round-robin guarantees any member is probed within one sweep
        // after the current one (SWIM's bounded-detection refinement).
        let (membership, mut list, mut rng) = setup(16);
        for _ in 0..3 {
            let mut gap = 0;
            let mut found = false;
            for _ in 0..32 {
                gap += 1;
                let t = list.next_target(&membership, &mut rng, |_| true).unwrap().1;
                if t.name.as_str() == "node-7" {
                    found = true;
                    break;
                }
            }
            assert!(found, "node-7 not visited within two sweeps (gap {gap})");
        }
    }
}
