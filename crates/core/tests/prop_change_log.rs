//! Property tests for the membership change list under sustained churn.
//!
//! The change list backs delta anti-entropy (`changed_since`): the table
//! threads its records on a list in stamp order, and the feed must
//! always return exactly the members changed after a cursor, newest
//! first. Two properties matter at scale:
//!
//! 1. **Correctness under churn**: any interleaving of upserts, state
//!    flips, metadata updates and removals leaves the table's invariants
//!    intact and yields the same `changed_since` feed as a flat reference
//!    rebuilt from the op list alone.
//! 2. **The list is one entry per member, not O(history)**: sustained
//!    churn — many updates per member — re-links a record instead of
//!    adding an entry, so a `changed_since` scan is proportional to
//!    actual change volume, never to the total number of stamps ever
//!    issued.

use proptest::prelude::*;

use lifeguard_core::member::Member;
use lifeguard_core::membership::Membership;
use lifeguard_core::time::Time;
use lifeguard_proto::{Incarnation, MemberState, NodeAddr, NodeName};

fn name(i: usize) -> NodeName {
    NodeName::from(format!("churn-{i}"))
}

fn member(i: usize, inc: u64) -> Member {
    Member::new(
        name(i),
        NodeAddr::new([10, 1, (i >> 8) as u8, i as u8], 7946),
        Incarnation(inc),
        Time::ZERO,
    )
}

/// One churn step against one membership table.
#[derive(Clone, Debug)]
enum Op {
    Upsert { node: usize, inc: u64 },
    Flip { node: usize, state: MemberState },
    Touch { node: usize },
    Remove { node: usize },
}

fn op_strategy(pool: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..pool, 0u64..4).prop_map(|(node, inc)| Op::Upsert { node, inc }),
        (
            0..pool,
            prop_oneof![
                Just(MemberState::Alive),
                Just(MemberState::Suspect),
                Just(MemberState::Dead),
            ]
        )
            .prop_map(|(node, state)| Op::Flip { node, state }),
        (0..pool).prop_map(|node| Op::Touch { node }),
        // Upserts outnumber removals three-to-one structurally (via the
        // variants above), keeping the table populated under churn.
        (0..pool).prop_map(|node| Op::Remove { node }),
    ]
}

fn apply(m: &mut Membership, op: &Op) {
    match op {
        Op::Upsert { node, inc } => {
            m.upsert(member(*node, *inc));
        }
        Op::Flip { node, state } => {
            m.set_state(&name(*node), *state, Time::from_secs(1));
        }
        Op::Touch { node } => {
            m.update(&name(*node), |mb| {
                mb.incarnation = Incarnation(mb.incarnation.0 + 1);
            });
        }
        Op::Remove { node } => {
            m.remove(&name(*node));
        }
    }
}

/// Flat reference for the change feed: one `(name, state, seq)` row per
/// member in ascending-seq order, maintained from the op list alone (it
/// never looks at a `Membership`).
#[derive(Default)]
struct FlatLog {
    rows: Vec<(NodeName, MemberState, u64)>,
    seq: u64,
}

impl FlatLog {
    fn apply(&mut self, op: &Op) {
        let (Op::Upsert { node, .. }
        | Op::Flip { node, .. }
        | Op::Touch { node }
        | Op::Remove { node }) = op;
        let node = name(*node);
        let pos = self.rows.iter().position(|r| r.0 == node);
        // The state the member is re-stamped with; `None` when the op
        // changes nothing observable (unknown member, same-state flip)
        // or removes the member.
        let restamped = match (op, pos) {
            (Op::Upsert { .. }, _) => Some(MemberState::Alive),
            (Op::Flip { state, .. }, Some(i)) if self.rows[i].1 != *state => Some(*state),
            (Op::Touch { .. }, Some(i)) => Some(self.rows[i].1),
            _ => None,
        };
        if let Some(i) = pos {
            if restamped.is_some() || matches!(op, Op::Remove { .. }) {
                self.rows.remove(i);
            }
        }
        if let Some(state) = restamped {
            self.seq += 1;
            self.rows.push((node, state, self.seq));
        }
    }

    /// The expected `changed_since(0)` feed: newest first.
    fn feed(&self) -> Vec<(NodeName, u64)> {
        self.rows
            .iter()
            .rev()
            .map(|(n, _, seq)| (n.clone(), *seq))
            .collect()
    }
}

proptest! {
    /// Sustained churn: correctness against the flat reference and
    /// boundedness of the change log.
    #[test]
    fn change_log_stays_correct_and_compact_under_churn(
        ops in proptest::collection::vec(op_strategy(48), 1..400),
        cursor_frac in 0.0f64..1.0,
    ) {
        let mut m = Membership::new();
        let mut flat = FlatLog::default();
        for op in &ops {
            apply(&mut m, op);
            flat.apply(op);
            // Invariants hold mid-churn, not just at the end.
            m.check_invariants();
        }

        let reference = flat.feed();
        let feed: Vec<(NodeName, u64)> = m
            .changed_since(0)
            .map(|mb| (mb.name.clone(), mb.updated_seq))
            .collect();
        prop_assert_eq!(&feed, &reference);
        prop_assert_eq!(m.update_seq(), flat.seq);

        // Newest-first, one entry per member, covering everything.
        prop_assert!(feed.windows(2).all(|w| w[0].1 > w[1].1));
        prop_assert_eq!(feed.len(), m.len());

        // A mid-stream cursor returns exactly the strictly-newer slice.
        let cursor = (m.update_seq() as f64 * cursor_frac) as u64;
        let newer: Vec<u64> = m.changed_since(cursor).map(|mb| mb.updated_seq).collect();
        let expect: Vec<u64> = reference
            .iter()
            .map(|(_, seq)| *seq)
            .filter(|&seq| seq > cursor)
            .collect();
        prop_assert_eq!(newer, expect);

        // Exactly one retained entry per member, even though the churn
        // issued `update_seq()` stamps in total.
        prop_assert_eq!(
            m.retained_log_len(),
            m.len(),
            "change list out of step with the table (stamps {})",
            m.update_seq(),
        );
    }
}

/// Deterministic worst case: hammer a tiny member set with far more
/// updates than members and check the list never grows with history
/// length.
#[test]
fn log_length_is_independent_of_history_length() {
    let mut m = Membership::new();
    for i in 0..8 {
        m.upsert(member(i, 0));
    }
    for round in 0..2000u64 {
        for i in 0..8 {
            m.update(&name(i), |mb| {
                mb.incarnation = Incarnation(mb.incarnation.0 + 1);
            });
        }
        if round == 100 {
            assert_eq!(m.retained_log_len(), 8);
        }
    }
    m.check_invariants();
    assert_eq!(m.retained_log_len(), 8);
    // The feed still reflects exactly the live members.
    assert_eq!(m.changed_since(0).count(), 8);
}
