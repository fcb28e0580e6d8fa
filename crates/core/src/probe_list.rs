//! Round-robin probe target selection.
//!
//! SWIM's refinement over pure random probing: each member walks its
//! member list in round-robin order so worst-case first-detection time is
//! bounded, but the list order is random and *new members are inserted at
//! random positions*, so the expected detection time matches the random
//! scheme (paper §III-A).

use lifeguard_proto::NodeName;
use rand::{Rng, RngExt};

use crate::member::MemberRef;
use crate::membership::{MemberId, Membership};

/// The local node's probe rotation.
#[derive(Clone, Debug, Default)]
pub struct ProbeList {
    // bounded: ≤ cluster size live ids plus stale ones, compacted lazily when stale entries are skipped during selection
    order: Vec<MemberId>,
    next: usize,
}

impl ProbeList {
    /// Creates an empty rotation.
    pub fn new() -> Self {
        ProbeList::default()
    }

    /// Number of ids in the rotation (live and stale entries alike;
    /// stale entries are skipped lazily during [`ProbeList::next_target`]).
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
        self.order.insert(pos, id);
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
        self.order.extend(ids);
        self.reshuffle(rng);
    }

    /// Picks the next probe target: advances round-robin, skipping
    /// members for which `eligible` is false and dropping ids that no
    /// longer resolve in `membership` — the member was removed; if it
    /// has rejoined since, it is in the rotation under its new id.
    /// Reshuffles at the end of each sweep.
    ///
    /// Returns the target with the id it sits under in the rotation, or
    /// `None` when no eligible member exists.
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
            let Some(&id) = self.order.get(self.next) else {
                if self.order.is_empty() {
                    return None;
                }
                self.reshuffle(rng);
                continue;
            };
            inspected += 1;
            let Some(member) = membership.by_id(id) else {
                // Member was reaped: drop from rotation without advancing.
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

    /// Every live member other than `me` is in the rotation, and no
    /// member is in it twice (ids of removed members may linger until a
    /// sweep drops them).
    pub(crate) fn check_invariants(&self, membership: &Membership, me: &NodeName) {
        let mut listed = std::collections::HashSet::new();
        for id in self.order.iter().filter(|&&id| membership.by_id(id).is_some()) {
            assert!(listed.insert(*id), "{id:?} is in the probe rotation twice");
        }
        for m in membership.iter().filter(|m| m.is_live() && m.name != me) {
            assert!(
                membership.id_of(m.name).is_some_and(|id| listed.contains(&id)),
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
        membership.remove(&"node-1".into());
        let mut seen = Vec::new();
        for _ in 0..3 {
            let t = list.next_target(&membership, &mut rng, |_| true).unwrap().1;
            seen.push(t.name.as_str().to_owned());
        }
        assert!(!seen.contains(&"node-1".to_owned()));
        assert_eq!(list.len(), 3);
    }

    /// A member reaped and re-added before the cursor reaches its old
    /// entry must not be in the rotation twice: the old entry's id is
    /// stale and is dropped when reached. (With names in the rotation
    /// the old entry resolved again and stayed for good.)
    #[test]
    fn rejoin_after_removal_is_probed_once_per_sweep() {
        let (mut membership, mut list, mut rng) = setup(10);
        membership.remove(&"node-2".into());
        join(&mut membership, &mut list, &mut rng, "node-2");
        // Two sweeps are enough for the cursor to pass every old entry.
        for _ in 0..20 {
            list.next_target(&membership, &mut rng, |_| true).unwrap();
        }
        assert_eq!(list.len(), 10, "the stale entry is gone");
        for sweep in 0..3 {
            let mut hits = 0;
            for _ in 0..10 {
                let t = list.next_target(&membership, &mut rng, |_| true).unwrap().1;
                hits += usize::from(t.name.as_str() == "node-2");
            }
            assert_eq!(hits, 1, "sweep {sweep} probed node-2 {hits} times");
        }
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
            let pos = list.order.iter().position(|&id| id == marker).unwrap();
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
