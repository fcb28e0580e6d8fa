//! Property tests for the protocol core's data structures and
//! invariants.

use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;

use lifeguard_core::awareness::Awareness;
use lifeguard_core::broadcast::BroadcastQueue;
use lifeguard_core::config::Config;
use lifeguard_core::member::Member;
use lifeguard_core::membership::Membership;
use lifeguard_core::suspicion::{suspicion_timeout, Suspicion};
use lifeguard_core::time::Time;
use lifeguard_proto::compound::{decode_packet, CompoundBuilder};
use lifeguard_proto::{Alive, Incarnation, Message, NodeAddr, Suspect};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Finishes `b` into a fresh buffer of its own.
fn finish(b: &mut CompoundBuilder) -> Option<Vec<u8>> {
    let mut packet = Vec::new();
    b.finish_into(&mut packet).map(|_| packet)
}

fn alive_msg(node: &str, inc: u64) -> Message {
    Message::Alive(Alive {
        incarnation: Incarnation(inc),
        node: node.into(),
        addr: NodeAddr::new([10, 0, 0, 1], 7946),
        meta: Bytes::new(),
    })
}

proptest! {
    /// The LHM never leaves [0, S] under any delta sequence, and scaled
    /// durations are always base·(score+1).
    #[test]
    fn awareness_stays_in_bounds(
        max in 0u32..32,
        deltas in proptest::collection::vec(-4i32..=4, 0..200),
    ) {
        let mut a = Awareness::new(max);
        for d in deltas {
            let score = a.apply_delta(d);
            prop_assert!(score <= max);
            prop_assert_eq!(score, a.score());
            let scaled = a.scale(Duration::from_millis(100));
            prop_assert_eq!(scaled, Duration::from_millis(100) * (score + 1));
        }
    }

    /// The suspicion timeout is monotonically non-increasing in the
    /// number of confirmations and always clamped to [min, max].
    #[test]
    fn suspicion_timeout_monotone_and_clamped(
        k in 0u32..10,
        min_ms in 100u64..20_000,
        span_ms in 0u64..120_000,
    ) {
        let min = Duration::from_millis(min_ms);
        let max = Duration::from_millis(min_ms + span_ms);
        let mut prev = None;
        for c in 0..=(k + 3) {
            let t = suspicion_timeout(c, k, min, max);
            prop_assert!(t >= min.mul_f64(0.999), "below min: {t:?} < {min:?}");
            prop_assert!(t <= max.mul_f64(1.001), "above max: {t:?} > {max:?}");
            if let Some(p) = prev {
                prop_assert!(t <= p, "not monotone at c={c}");
            }
            prev = Some(t);
        }
        // Exactly min at c >= k.
        if k > 0 && max > min {
            let at_k = suspicion_timeout(k, k, min, max);
            prop_assert!((at_k.as_secs_f64() - min.as_secs_f64()).abs() < 1e-6);
        }
    }

    /// Confirmations from arbitrary name sequences never exceed K and
    /// the deadline never moves later.
    #[test]
    fn suspicion_confirmations_bounded(
        k in 0u32..6,
        names in proptest::collection::vec("[a-f]{1,2}", 0..40),
    ) {
        let min = Duration::from_secs(5);
        let max = Duration::from_secs(30);
        let mut s = Suspicion::new(Incarnation(1), "origin".into(), k, min, max, Time::ZERO);
        let mut regossiped = 0;
        let mut prev_deadline = s.deadline();
        for n in names {
            if s.confirm(n.as_str().into()) {
                regossiped += 1;
            }
            prop_assert!(s.confirmation_count() <= k);
            prop_assert!(s.deadline() <= prev_deadline);
            prev_deadline = s.deadline();
        }
        prop_assert!(regossiped <= k as usize);
    }

    /// The broadcast queue never holds two entries about the same member
    /// and drains completely under any fill pattern.
    #[test]
    fn broadcast_queue_invalidates_and_drains(
        ops in proptest::collection::vec((0u8..8, 0u64..5), 1..100),
        limit in 1u32..6,
    ) {
        let mut q = BroadcastQueue::new();
        let mut subjects = std::collections::HashSet::new();
        for (node, inc) in &ops {
            let name = format!("node-{node}");
            q.enqueue(alive_msg(&name, *inc));
            subjects.insert(name);
            prop_assert!(q.len() <= subjects.len());
        }
        // Drain: every fill makes progress until empty.
        let mut rounds = 0;
        while !q.is_empty() {
            let mut b = CompoundBuilder::new(1400);
            q.fill(&mut b, limit, None);
            if let Some(p) = finish(&mut b) {
                prop_assert!(!decode_packet(&p).unwrap().is_empty());
            }
            rounds += 1;
            prop_assert!(rounds < 10_000, "queue failed to drain");
        }
    }

    /// The suspicion min/max formulas respect their config relations for
    /// any cluster size.
    #[test]
    fn config_suspicion_bounds_relate(n in 1usize..10_000) {
        let swim = Config::lan();
        prop_assert_eq!(swim.suspicion_min(n), swim.suspicion_max(n));
        let lg = Config::lan().lifeguard();
        let min = lg.suspicion_min(n);
        let max = lg.suspicion_max(n);
        prop_assert!(max >= min);
        let ratio = max.as_secs_f64() / min.as_secs_f64();
        prop_assert!((ratio - 6.0).abs() < 1e-6);
        // Monotone in n.
        prop_assert!(lg.suspicion_min(n + 1) >= min);
    }

    /// Membership sampling returns distinct members matching the filter,
    /// never more than requested or available.
    #[test]
    fn membership_sample_is_sound(
        n in 0usize..64,
        k in 0usize..80,
        seed in any::<u64>(),
        banned in 0usize..64,
    ) {
        let mut table = Membership::new();
        for i in 0..n {
            table.upsert(Member::new(
                format!("node-{i}").into(),
                NodeAddr::new([10, 0, 0, i as u8], 7946),
                Incarnation(0),
                Time::ZERO,
            ));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let banned_name = format!("node-{banned}");
        let picked = table.sample(k, &mut rng, |m| m.name.as_str() != banned_name);
        let eligible = n - usize::from(banned < n);
        prop_assert!(picked.len() <= k);
        prop_assert!(picked.len() <= eligible);
        if k >= eligible {
            prop_assert_eq!(picked.len(), eligible);
        }
        let mut names: Vec<_> = picked.iter().map(|m| m.name.clone()).collect();
        names.sort();
        names.dedup();
        prop_assert_eq!(names.len(), picked.len(), "duplicates in sample");
    }
}

/// Model-agreement checks: the indexed `Membership` and the heap-based
/// `BroadcastQueue` must behave exactly like the naive designs they
/// replaced (full-scan counters; flat vector with sort-per-fill) under
/// arbitrary operation sequences.
mod model_agreement {
    use super::*;
    use lifeguard_core::membership::SamplePool;
    use lifeguard_proto::{MemberState, NodeName};
    use std::collections::BTreeMap;
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

    fn member(node: u8, inc: u64) -> Member {
        let mut m = Member::new(
            format!("node-{node}").into(),
            NodeAddr::new([10, 0, 0, node], 7946),
            Incarnation(inc),
            Time::ZERO,
        );
        m.meta = Bytes::new();
        m
    }

    /// An address drawn from `code`: IPv4 (stored inline in the
    /// table), IPv6 (in its column) or v4-mapped IPv6 (which must stay
    /// IPv6, not collapse to the IPv4 address it maps).
    fn addr_of(code: u8, inc: u64) -> NodeAddr {
        let b = inc as u8;
        let ip: IpAddr = match code % 3 {
            0 => Ipv4Addr::new(10, 1, code, b).into(),
            1 => Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, code.into(), b.into()).into(),
            _ => Ipv4Addr::new(10, 1, code, b).to_ipv6_mapped().into(),
        };
        NodeAddr::from(SocketAddr::new(ip, 7000 + u16::from(b)))
    }

    fn state_of(code: u8) -> MemberState {
        match code % 4 {
            0 => MemberState::Alive,
            1 => MemberState::Suspect,
            2 => MemberState::Dead,
            _ => MemberState::Left,
        }
    }

    proptest! {
        /// Counters, pools, iteration, addresses and metadata of the
        /// indexed table always match a naive `BTreeMap` model driven by
        /// the same operations, and the internal invariants hold after
        /// every step. Metadata lives in a column beside the records, so
        /// the steps that set, clear and vacate it are checked for leaks
        /// (a reused slot showing the previous member's blob) and
        /// losses, and for how they stamp the change list. IPv6 octets
        /// live in a column too, so members move between IPv4, IPv6 and
        /// v4-mapped IPv6 addresses.
        #[test]
        fn membership_matches_naive_model(
            // Twelve names: few enough that most cases set a member's
            // metadata and later remove that same member.
            ops in proptest::collection::vec((0u8..8, 0u8..12, 0u8..8, 0u64..5), 1..120),
        ) {
            let mut indexed = Membership::new();
            let mut model: BTreeMap<NodeName, Member> = BTreeMap::new();
            for (op, node, code, inc) in ops {
                let name: NodeName = format!("node-{node}").into();
                match op {
                    0 => {
                        let m = member(node, inc);
                        indexed.upsert(m.clone());
                        model.insert(name.clone(), m);
                    }
                    1 => {
                        let state = state_of(code);
                        let t = Time::from_secs(inc);
                        indexed.set_state(&name, state, t);
                        if let Some(m) = model.get_mut(&name) {
                            m.set_state(state, t);
                        }
                    }
                    2 => {
                        let a = indexed.remove(&name).map(|m| (m.name, m.meta));
                        let b = model.remove(&name).map(|m| (m.name, m.meta));
                        prop_assert_eq!(a, b);
                    }
                    3 => {
                        let got = indexed
                            .update(&name, |m| {
                                m.incarnation = Incarnation(inc);
                                m.set_state(state_of(code), Time::from_secs(inc));
                            })
                            .is_some();
                        if let Some(m) = model.get_mut(&name) {
                            m.incarnation = Incarnation(inc);
                            m.set_state(state_of(code), Time::from_secs(inc));
                            prop_assert!(got);
                        } else {
                            prop_assert!(!got);
                        }
                    }
                    4 | 5 => {
                        // Set (4) or clear (5) the metadata and nothing
                        // else: a record change exactly when the bytes
                        // differ, whatever buffer they arrive in.
                        let blob = if op == 4 {
                            Bytes::from(vec![code; 1 + inc as usize])
                        } else {
                            Bytes::new()
                        };
                        let before = indexed.update_seq();
                        let got = indexed.update(&name, |m| m.meta = blob.clone()).is_some();
                        prop_assert_eq!(got, model.contains_key(&name));
                        if let Some(m) = model.get_mut(&name) {
                            if m.meta == blob {
                                prop_assert_eq!(indexed.update_seq(), before);
                            } else {
                                prop_assert_eq!(indexed.update_seq(), before + 1);
                                let front = indexed.changed_since(before).map(|m| m.name.clone());
                                prop_assert_eq!(front.collect::<Vec<_>>(), vec![name.clone()]);
                            }
                            m.meta = blob;
                        }
                    }
                    7 => {
                        let addr = addr_of(code, inc);
                        let got = indexed.update(&name, |m| m.addr = addr).is_some();
                        prop_assert_eq!(got, model.contains_key(&name));
                        if let Some(m) = model.get_mut(&name) {
                            m.addr = addr;
                        }
                    }
                    _ => {
                        // Remove, then let a newcomer without metadata
                        // take the vacated slot (the free list is LIFO).
                        let gone = indexed.remove(&name).map(|m| m.meta);
                        prop_assert_eq!(gone, model.remove(&name).map(|m| m.meta));
                        let newcomer = member(node.wrapping_add(100 + code), inc);
                        if !model.contains_key(&newcomer.name) {
                            indexed.upsert(newcomer.clone());
                            let seen = indexed.get(&newcomer.name).map(|m| m.meta.clone());
                            prop_assert_eq!(seen, Some(Bytes::new()));
                            model.insert(newcomer.name.clone(), newcomer);
                        }
                    }
                }
                // Counters must equal full recomputed scans of the model.
                prop_assert_eq!(indexed.len(), model.len());
                prop_assert_eq!(
                    indexed.live_count(),
                    model.values().filter(|m| m.is_live()).count()
                );
                prop_assert_eq!(
                    indexed.alive_count(),
                    model.values().filter(|m| m.state == MemberState::Alive).count()
                );
                for (name, m) in &model {
                    let meta = indexed.get(name).map(|m| m.meta.clone());
                    prop_assert_eq!(meta.as_ref(), Some(&m.meta), "metadata of {}", name);
                    let addr = indexed.get(name).map(|m| m.addr);
                    prop_assert_eq!(addr, Some(m.addr), "address of {}", name);
                }
                indexed.check_invariants();
            }
            // Same final contents (order-independent).
            type Row = (NodeName, u8, Incarnation, NodeAddr, Bytes);
            let mut a: Vec<Row> = indexed
                .iter()
                .map(|m| (m.name.clone(), m.state.as_u8(), m.incarnation, m.addr, m.meta.clone()))
                .collect();
            a.sort();
            let b: Vec<Row> = model
                .values()
                .map(|m| (m.name.clone(), m.state.as_u8(), m.incarnation, m.addr, m.meta.clone()))
                .collect();
            prop_assert_eq!(a, b);
        }

        /// Pool-restricted sampling only returns members of that pool,
        /// respects the filter, never duplicates, and returns exactly
        /// min(k, eligible) members.
        #[test]
        fn membership_pool_sampling_is_sound(
            states in proptest::collection::vec(0u8..4, 1..48),
            k in 0usize..60,
            seed in any::<u64>(),
            banned in 0u8..48,
        ) {
            let mut table = Membership::new();
            for (i, &code) in states.iter().enumerate() {
                let mut m = member(i as u8, 0);
                m.set_state(state_of(code), Time::from_secs(1));
                table.upsert(m);
            }
            let banned_name: NodeName = format!("node-{banned}").into();
            let mut rng = StdRng::seed_from_u64(seed);
            for (pool, want_live) in [
                (SamplePool::Live, Some(true)),
                (SamplePool::Gone, Some(false)),
                (SamplePool::All, None),
            ] {
                let picked = table.sample_pool(pool, k, &mut rng, |m| *m.name != banned_name);
                let eligible = table
                    .iter()
                    .filter(|m| want_live.is_none_or(|w| m.is_live() == w))
                    .filter(|m| *m.name != banned_name)
                    .count();
                prop_assert_eq!(picked.len(), k.min(eligible));
                if let Some(w) = want_live {
                    prop_assert!(picked.iter().all(|m| m.is_live() == w));
                }
                prop_assert!(picked.iter().all(|m| *m.name != banned_name));
                let mut names: Vec<_> = picked.iter().map(|m| m.name.clone()).collect();
                names.sort();
                names.dedup();
                prop_assert_eq!(names.len(), picked.len(), "duplicates in pool sample");
            }
        }
    }

    /// The seed's broadcast queue design, kept as an executable
    /// reference model: flat vector, O(n) invalidation on enqueue, full
    /// sort per fill.
    #[derive(Default)]
    struct NaiveQueue {
        items: Vec<(NodeName, Message, Bytes, u32, u64)>,
        next_id: u64,
    }

    impl NaiveQueue {
        fn enqueue(&mut self, msg: Message) {
            let subject = msg.gossip_subject().cloned().unwrap();
            self.items.retain(|(s, ..)| s != &subject);
            let encoded = lifeguard_proto::codec::encode_message(&msg);
            let id = self.next_id;
            self.next_id += 1;
            self.items.push((subject, msg, encoded, 0, id));
        }

        fn queued_for(&self, subject: &NodeName) -> Option<Message> {
            self.items
                .iter()
                .find(|(s, ..)| s == subject)
                .map(|(_, m, ..)| m.clone())
        }

        fn fill(&mut self, builder: &mut CompoundBuilder, limit: u32, exclude: Option<&NodeName>) {
            let mut order: Vec<usize> = (0..self.items.len()).collect();
            order.sort_by_key(|&i| (self.items[i].3, u64::MAX - self.items[i].4));
            let mut used = Vec::new();
            for i in order {
                if exclude == Some(&self.items[i].0) {
                    continue;
                }
                if builder.remaining() < self.items[i].2.len() {
                    continue;
                }
                if builder.try_add_bytes(&self.items[i].2) {
                    used.push(i);
                }
            }
            for &i in &used {
                self.items[i].3 += 1;
            }
            self.items.retain(|(.., t, _id)| {
                let _ = _id;
                *t < limit
            });
        }
    }

    proptest! {
        /// Under any interleaving of enqueues, bursts of overwrites and
        /// fills (varying packet budgets, limits and exclusions), the
        /// heap-based queue emits the exact same packets as the naive
        /// sort-per-fill model, agrees on the queue contents afterwards,
        /// and keeps its own bookkeeping (arena compaction included).
        /// Half the cases put every subject on one index tag, so that
        /// only the subjects read from the arena tell them apart.
        #[test]
        fn broadcast_queue_matches_naive_model(
            ops in proptest::collection::vec((0u8..6, 0u8..10, 0u64..4), 1..80),
            limit in 1u32..6,
            collide in any::<bool>(),
        ) {
            let mut fast = if collide {
                BroadcastQueue::with_fixed_tag(0xdead_beef)
            } else {
                BroadcastQueue::new()
            };
            let mut naive = NaiveQueue::default();
            for (op, node, inc) in ops {
                match op {
                    0 | 1 => {
                        let msg = alive_msg(&format!("node-{node}"), inc);
                        fast.enqueue(msg.clone());
                        naive.enqueue(msg);
                    }
                    2 => {
                        let msg = Message::Suspect(Suspect {
                            incarnation: Incarnation(inc),
                            node: format!("node-{node}").into(),
                            from: "accuser".into(),
                        });
                        fast.enqueue(msg.clone());
                        naive.enqueue(msg);
                    }
                    5 => {
                        // One subject overwritten 40 times, alternating
                        // an `alive` carrying 64 bytes of metadata with a
                        // shorter `suspect`: half fit in place, half
                        // leave garbage, over 1 KiB of it per burst, so
                        // the arena compacts.
                        for step in 0..40u64 {
                            let name = format!("node-{node}");
                            let msg = if step.is_multiple_of(2) {
                                Message::Alive(Alive {
                                    incarnation: Incarnation(inc + step),
                                    node: name.as_str().into(),
                                    addr: NodeAddr::new([10, 0, 0, 1], 7946),
                                    meta: Bytes::from(vec![node; 64]),
                                })
                            } else {
                                Message::Suspect(Suspect {
                                    incarnation: Incarnation(inc + step),
                                    node: name.into(),
                                    from: "accuser".into(),
                                })
                            };
                            fast.enqueue(msg.clone());
                            naive.enqueue(msg);
                        }
                    }
                    op => {
                        // Budget 60 forces skip paths; 1400 drains freely.
                        let budget = if op == 3 { 60 } else { 1400 };
                        let exclude: Option<NodeName> =
                            (node % 3 == 0).then(|| format!("node-{}", node / 2).into());
                        let mut fb = CompoundBuilder::new(budget);
                        fast.fill(&mut fb, limit, exclude.as_ref());
                        let mut nb = CompoundBuilder::new(budget);
                        naive.fill(&mut nb, limit, exclude.as_ref());
                        let fp = finish(&mut fb).map(|p| decode_packet(&p).unwrap());
                        let np = finish(&mut nb).map(|p| decode_packet(&p).unwrap());
                        prop_assert_eq!(fp, np, "fill diverged from model");
                    }
                }
                fast.check_invariants();
                prop_assert_eq!(fast.len(), naive.items.len());
                for node in 0..10u8 {
                    let name: NodeName = format!("node-{node}").into();
                    prop_assert_eq!(fast.queued_for(&name), naive.queued_for(&name));
                }
            }
        }
    }
}

/// Incarnation-precedence model check: applying alive/suspect messages
/// about one member in any order converges to the same final state on
/// every node that saw all of them (eventual agreement modulo dead
/// declarations, which are sticky).
mod precedence {
    use super::*;
    use lifeguard_core::node::{Input, SwimNode};
    use lifeguard_proto::codec;

    fn feed_node(node: &mut SwimNode, from: NodeAddr, msg: Message, now: Time) {
        node.handle_input(
            Input::Datagram {
                from,
                payload: codec::encode_message(&msg),
            },
            now,
        )
        .expect("well-formed test message");
        while node.poll_output().is_some() {}
    }

    fn fresh_node(seed: u64) -> SwimNode {
        let mut node = SwimNode::new(
            "local".into(),
            NodeAddr::new([10, 0, 0, 99], 7946),
            Config::lan(),
            seed,
        );
        node.start(Time::ZERO);
        node
    }

    proptest! {
        /// For any interleaving of alive(inc) and suspect(inc) messages
        /// about one peer, the node ends with the record of the highest
        /// incarnation it saw, and an alive at incarnation i never
        /// overrides a suspect at incarnation >= i.
        #[test]
        fn alive_suspect_precedence(
            msgs in proptest::collection::vec((any::<bool>(), 0u64..6), 1..30),
        ) {
            let mut node = fresh_node(1);
            let from = NodeAddr::new([10, 0, 0, 2], 7946);
            // Register the subject first.
            feed_node(&mut node, from, alive_msg("p", 0), Time::ZERO);

            let mut model_inc = 0u64;
            let mut model_suspect = false;
            for (i, (is_alive, inc)) in msgs.iter().enumerate() {
                let t = Time::from_millis(i as u64 + 1);
                if *is_alive {
                    feed_node(&mut node, from, alive_msg("p", *inc), t);
                    if *inc > model_inc {
                        model_inc = *inc;
                        model_suspect = false;
                    }
                } else {
                    feed_node(&mut node,
                        from,
                        Message::Suspect(Suspect {
                            incarnation: Incarnation(*inc),
                            node: "p".into(),
                            from: "accuser".into(),
                        }),
                        t,
                    );
                    if *inc >= model_inc && !model_suspect {
                        model_inc = *inc;
                        model_suspect = true;
                    } else if model_suspect && *inc > model_inc {
                        model_inc = *inc;
                    }
                }
            }
            let member = node.member(&"p".into()).expect("present");
            prop_assert_eq!(member.incarnation, Incarnation(model_inc));
            let is_suspect = member.state == lifeguard_proto::MemberState::Suspect;
            prop_assert_eq!(is_suspect, model_suspect);
        }
    }
}

/// The probe rotation against the design it replaced: a rotation of
/// generation-checked [`MemberId`]s, in which a removed member's entry
/// goes stale by itself. The slot-id rotation must pick the same
/// targets and make the same random draws, down to the last one.
mod rotation_reference {
    use super::*;
    use lifeguard_core::member::MemberRef;
    use lifeguard_core::membership::MemberId;
    use lifeguard_core::probe_list::ProbeList;
    use lifeguard_proto::NodeName;
    use rand::{Rng, RngExt};

    /// The `MemberId`-keyed rotation, as it was before tombstones.
    #[derive(Default)]
    struct IdRotation {
        order: Vec<MemberId>,
        next: usize,
    }

    impl IdRotation {
        fn insert<R: Rng>(&mut self, id: MemberId, rng: &mut R) {
            let pos = rng.random_range(0..=self.order.len());
            self.order.insert(pos, id);
            if pos < self.next {
                self.next += 1;
            }
        }

        fn extend_shuffled<R: Rng>(
            &mut self,
            ids: impl IntoIterator<Item = MemberId>,
            rng: &mut R,
        ) {
            self.order.extend(ids);
            self.reshuffle(rng);
        }

        fn next_target<'m, R: Rng>(
            &mut self,
            membership: &'m Membership,
            rng: &mut R,
            mut eligible: impl FnMut(&MemberRef<'m>) -> bool,
        ) -> Option<(MemberId, MemberRef<'m>)> {
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

        fn reshuffle<R: Rng>(&mut self, rng: &mut R) {
            let n = self.order.len();
            for i in (1..n).rev() {
                let j = rng.random_range(0..=i);
                self.order.swap(i, j);
            }
            self.next = 0;
        }
    }

    /// `k`'s member: the incarnation is `k`, which the eligibility
    /// filters read.
    fn newcomer(k: u64) -> Member {
        Member::new(
            format!("m-{k}").into(),
            NodeAddr::new([10, 0, (k >> 8) as u8, k as u8], 7946),
            Incarnation(k),
            Time::ZERO,
        )
    }

    proptest! {
        /// Admit, reap (blanking the slot rotation), rejoin into the
        /// slot just vacated, bulk-admit and pick targets under random
        /// eligibility filters, the model and the slot rotation in
        /// lockstep from one seed: the same target at every step and
        /// the same next draw from both generators at the end.
        #[test]
        fn slot_rotation_matches_the_id_rotation(
            seed in any::<u64>(),
            ops in proptest::collection::vec((0u8..8, any::<u64>()), 1..200),
        ) {
            let mut table = Membership::new();
            let mut model = IdRotation::default();
            let mut rotation = ProbeList::new();
            let (mut model_rng, mut rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut present: Vec<u64> = Vec::new();
            let mut reaped: Vec<u64> = Vec::new();
            let mut next_k = 0u64;
            let me = NodeName::from("me");
            for (op, arg) in ops {
                match op {
                    // Admit a newcomer.
                    0 | 1 => {
                        let id = table.insert(table.lookup(&format!("m-{next_k}")).unwrap_err(), newcomer(next_k));
                        present.push(next_k);
                        next_k += 1;
                        model.insert(id, &mut model_rng);
                        rotation.insert(id, &mut rng);
                    }
                    // Reap one member.
                    2 if !present.is_empty() => {
                        #[allow(clippy::disallowed_methods, reason = "the index is reduced modulo the non-empty length")]
                        let k = present.swap_remove(arg as usize % present.len());
                        let id = table.id_of(&format!("m-{k}").into()).unwrap();
                        table.remove_id(id).unwrap();
                        rotation.forget_removed(&table);
                        reaped.push(k);
                    }
                    // A reaped member rejoins, into the slot the most
                    // recent removal vacated unless an admission took it.
                    3 if !reaped.is_empty() => {
                        #[allow(clippy::disallowed_methods, reason = "the index is reduced modulo the non-empty length")]
                        let k = reaped.swap_remove(arg as usize % reaped.len());
                        let id = table.insert(table.lookup(&format!("m-{k}")).unwrap_err(), newcomer(k));
                        present.push(k);
                        model.insert(id, &mut model_rng);
                        rotation.insert(id, &mut rng);
                    }
                    // Bulk admission of up to seven newcomers.
                    4 => {
                        let ids: Vec<MemberId> = (0..arg % 8)
                            .map(|_| {
                                let k = next_k;
                                next_k += 1;
                                present.push(k);
                                table.insert(table.lookup(&format!("m-{k}")).unwrap_err(), newcomer(k))
                            })
                            .collect();
                        model.extend_shuffled(ids.iter().copied(), &mut model_rng);
                        rotation.extend_shuffled(ids, &mut rng);
                    }
                    // Pick a target among the members whose incarnation
                    // picks a set bit of `arg` (all, none or some).
                    _ => {
                        let mask = match op {
                            5 => u64::MAX,
                            6 => arg & (arg >> 7),
                            _ => arg,
                        };
                        let eligible = |m: &MemberRef<'_>| (mask >> (m.incarnation.0 % 64)) & 1 == 1;
                        let want = model
                            .next_target(&table, &mut model_rng, eligible)
                            .map(|(id, m)| (id, m.name.clone()));
                        let got = rotation
                            .next_target(&table, &mut rng, eligible)
                            .map(|(id, m)| (id, m.name.clone()));
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(rotation.len(), model.order.len());
                rotation.check_invariants(&table, &me);
            }
            prop_assert_eq!(rng.next_u64(), model_rng.next_u64());
        }
    }
}
