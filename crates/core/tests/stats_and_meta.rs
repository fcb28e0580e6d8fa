//! Tests for the node's activity counters and metadata updates.

mod common;

use bytes::Bytes;
use common::*;
use lifeguard_core::config::Config;
use lifeguard_core::node::{Input, SwimNode};
use lifeguard_core::time::Time;
use lifeguard_proto::{
    codec, Ack, Alive, Incarnation, MemberState, Message, Ping, SeqNo, Suspect, MAX_META_LEN,
};

#[test]
fn stats_track_probe_lifecycle() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    let m = n.metrics();
    assert_eq!(
        [
            m.probes_sent,
            m.probes_failed,
            m.indirect_probes_sent,
            m.suspicions_raised,
            m.refutations,
            m.failures_declared
        ],
        [0; 6]
    );
    // Unanswered probes: each round fails, fans out indirect probes
    // (none available with a single suspect peer, so indirect stays 0
    // until more peers exist), raises one suspicion, then declares.
    run_until(&mut n, Time::from_secs(20));
    let stats = n.metrics();
    assert!(stats.probes_sent >= 1, "{stats:?}");
    assert!(stats.probes_failed >= 1, "{stats:?}");
    assert!(stats.suspicions_raised >= 1, "{stats:?}");
    assert!(stats.failures_declared >= 1, "{stats:?}");
    assert_eq!(stats.refutations, 0);
}

#[test]
fn stats_count_indirect_probes_and_refutations() {
    let mut n = new_node(Config::lan().lifeguard());
    for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
        add_peer(&mut n, name, i as u8 + 2, Time::from_secs(1));
    }
    run_until(&mut n, Time::from_secs(4));
    assert!(
        n.metrics().indirect_probes_sent >= 1,
        "failed probes with peers available must fan out: {:?}",
        n.metrics()
    );
    let inc = n.incarnation();
    feed(
        &mut n,
        addr(2),
        Message::Suspect(Suspect {
            incarnation: inc,
            node: "local".into(),
            from: "a".into(),
        }),
        Time::from_secs(5),
    );
    assert_eq!(n.metrics().refutations, 1);
}

#[test]
fn update_meta_bumps_incarnation_and_gossips() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    let inc_before = n.incarnation();
    n.handle_input(
        Input::UpdateMeta {
            meta: Bytes::from_static(b"v2"),
        },
        Time::from_secs(2),
    )
    .unwrap();
    drain(&mut n);
    assert!(n.incarnation() > inc_before);
    let queued = n.queued_broadcast_for(&"local".into());
    match queued {
        Some(Message::Alive(a)) => {
            assert_eq!(a.meta.as_ref(), b"v2");
            assert_eq!(a.incarnation, n.incarnation());
        }
        other => panic!("expected queued alive about self, got {other:?}"),
    }
    let me = n.member(&"local".into()).unwrap();
    assert_eq!(me.meta.as_ref(), b"v2");
}

/// A blob longer than `MAX_META_LEN` is refused where it enters, so the
/// node's gossip about itself and every push-pull frame carrying its
/// record stay inside the codec's `u16::MAX` length bound, which peers
/// check.
#[test]
fn oversized_update_meta_is_refused_and_self_gossip_still_decodes() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    let update = |n: &mut SwimNode, meta: Vec<u8>, at: u64| {
        n.handle_input(Input::UpdateMeta { meta: meta.into() }, Time::from_secs(at))
            .unwrap();
        drain(n);
    };
    update(&mut n, vec![7; MAX_META_LEN], 2);
    let inc = n.incarnation();
    update(&mut n, vec![9; MAX_META_LEN + 1], 3);
    update(&mut n, vec![9; 70_000], 4);

    assert_eq!(n.incarnation(), inc);
    assert_eq!(
        n.member(&"local".into()).unwrap().meta.as_ref(),
        [7; MAX_META_LEN]
    );
    let queued = n
        .queued_broadcast_for(&"local".into())
        .expect("alive about self still queued");
    assert_eq!(
        codec::decode_message(&codec::encode_message(&queued)),
        Ok(queued)
    );
}

/// A node that has left stays gone: a metadata update after `Leave`
/// must not bump the incarnation and queue an `Alive` that rides out on
/// the acks the departed node still sends — every peer holding it `Left`
/// at the lower incarnation would take that as a rejoin.
#[test]
fn update_meta_after_leave_is_refused_and_acks_carry_no_alive() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    input(&mut n, Input::Leave, Time::from_secs(2));
    let inc = n.incarnation();
    let meta = Bytes::from_static(b"role=db");
    input(&mut n, Input::UpdateMeta { meta }, Time::from_secs(3));
    assert_eq!(
        n.incarnation(),
        inc,
        "a departed node took a new incarnation"
    );
    let me = n.member(&"local".into()).unwrap();
    assert_eq!((me.state, me.meta.as_ref()), (MemberState::Left, &b""[..]));

    let ping = Message::Ping(Ping {
        seq: SeqNo(7),
        target: "local".into(),
        source: "p".into(),
        source_addr: addr(2),
    });
    let acks = packets(&feed(&mut n, addr(2), ping, Time::from_secs(4)));
    assert_eq!(acks.len(), 1, "a departed node still acks");
    assert_eq!(acks[0].1[0], Message::Ack(Ack { seq: SeqNo(7) }));
    for msg in &acks[0].1 {
        assert!(
            !matches!(msg, Message::Alive(a) if a.node.as_str() == "local"),
            "ack piggybacks a rejoin: {msg:?}"
        );
    }
    n.check_invariants();
}

#[test]
fn meta_update_propagates_to_peer_view() {
    // Peer applies the alive message carrying new meta.
    let mut observer = new_node(Config::lan());
    add_peer(&mut observer, "p", 2, Time::from_secs(1));
    feed(
        &mut observer,
        addr(2),
        Message::Alive(Alive {
            incarnation: Incarnation(2),
            node: "p".into(),
            addr: addr(2),
            meta: Bytes::from_static(b"role=db"),
        }),
        Time::from_secs(2),
    );
    assert_eq!(
        observer.member(&"p".into()).unwrap().meta.as_ref(),
        b"role=db"
    );
}
