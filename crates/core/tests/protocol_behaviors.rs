//! Behavioural tests of memberlist-layer features: push-pull replies,
//! dead-member retention/reaping, gossip-to-the-dead, reconnect, and
//! indirect-probe plumbing end to end across two nodes.

mod common;

use std::time::Duration;

use bytes::Bytes;
use common::*;
use lifeguard_core::config::Config;
use lifeguard_core::driver::OwnedOutput;
use lifeguard_core::node::{Input, SwimNode};
use lifeguard_core::time::Time;
use lifeguard_proto::{
    compound, Ack, Alive, Dead, Incarnation, MemberState, Message, PushPull, Suspect,
};

#[test]
fn push_pull_reply_contains_full_table_including_dead() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "alive-peer", 2, Time::from_secs(1));
    add_peer(&mut n, "dead-peer", 3, Time::from_secs(1));
    feed(&mut n, 
        addr(4),
        Message::Dead(Dead {
            incarnation: Incarnation(1),
            node: "dead-peer".into(),
            from: "accuser".into(),
        }),
        Time::from_secs(2),
    );
    let out = feed_stream(&mut n, 
        addr(9),
        Message::PushPull(PushPull {
            join: true,
            reply: false,
            states: vec![],
        }),
        Time::from_secs(3),
    );
    let reply = out
        .iter()
        .find_map(|o| match o {
            OwnedOutput::Stream {
                msg: Message::PushPull(pp),
                ..
            } if pp.reply => Some(pp),
            _ => None,
        })
        .expect("push-pull must be answered");
    let names: Vec<&str> = reply.states.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"local"));
    assert!(names.contains(&"alive-peer"));
    assert!(
        names.contains(&"dead-peer"),
        "dead members are retained and shared via push-pull"
    );
    let dead = reply
        .states
        .iter()
        .find(|s| s.name.as_str() == "dead-peer")
        .unwrap();
    assert_eq!(dead.state, MemberState::Dead);
}

#[test]
fn dead_members_are_reaped_after_retention() {
    let mut cfg = Config::lan();
    cfg.dead_reclaim = Duration::from_secs(10);
    let mut n = new_node(cfg);
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    feed(&mut n, 
        addr(3),
        Message::Dead(Dead {
            incarnation: Incarnation(1),
            node: "p".into(),
            from: "accuser".into(),
        }),
        Time::from_secs(2),
    );
    assert!(n.member(&"p".into()).is_some());
    // Reap timer runs every `dead_reclaim`; after the retention window
    // the record disappears.
    run_until(&mut n, Time::from_secs(31));
    assert!(
        n.member(&"p".into()).is_none(),
        "dead member must be reaped after retention"
    );
}

#[test]
fn gossip_reaches_recently_dead_members() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "dead-peer", 2, Time::from_secs(1));
    add_peer(&mut n, "other", 3, Time::from_secs(1));
    let t = Time::from_secs(2);
    feed(&mut n, 
        addr(3),
        Message::Dead(Dead {
            incarnation: Incarnation(1),
            node: "dead-peer".into(),
            from: "accuser".into(),
        }),
        t,
    );
    // The dead broadcast is in the queue; gossip ticks may target the
    // dead member itself for the 30 s dead-gossip window.
    let out = run_until(&mut n, t + Duration::from_secs(10));
    let gossiped_to_dead = out.iter().any(|o| match o {
        OwnedOutput::Packet { to, .. } => *to == addr(2),
        _ => false,
    });
    assert!(
        gossiped_to_dead,
        "gossip must keep flowing to recently dead members"
    );
}

#[test]
fn reconnect_push_pulls_a_dead_member() {
    let mut cfg = Config::lan();
    cfg.reconnect_interval = Some(Duration::from_secs(5));
    cfg.push_pull_interval = None; // isolate the reconnect path
    let mut n = new_node(cfg);
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    feed(&mut n, 
        addr(3),
        Message::Dead(Dead {
            incarnation: Incarnation(1),
            node: "p".into(),
            from: "accuser".into(),
        }),
        Time::from_secs(2),
    );
    let out = run_until(&mut n, Time::from_secs(20));
    let reconnects: Vec<&PushPull> = out
        .iter()
        .filter_map(|o| match o {
            OwnedOutput::Stream {
                to,
                msg: Message::PushPull(pp),
            } if *to == addr(2) => Some(pp),
            _ => None,
        })
        .collect();
    assert!(
        !reconnects.is_empty(),
        "reconnect must push-pull the dead member"
    );
    // One record, not the table: the target's own, as we hold it. A
    // live target refutes it and answers with everything it knows.
    for pp in reconnects {
        assert!(!pp.reply && !pp.join);
        assert_eq!(pp.states.len(), 1, "a reconnect carries one record");
        let held = &pp.states[0];
        assert_eq!(held.name.as_str(), "p");
        assert_eq!(held.state, MemberState::Dead);
        assert_eq!(held.incarnation, Incarnation(1));
    }
    assert_eq!(
        n.metrics().full_sync_fallbacks,
        0,
        "a reconnect is not a full sync"
    );
}

/// Drives two real `SwimNode`s against each other (no simulator): an
/// indirect probe round-trip through a relay node, end to end.
#[test]
fn indirect_probe_roundtrip_between_nodes() {
    let now = Time::from_secs(1);
    let mut origin = SwimNode::new("origin".into(), addr(1), Config::lan().lifeguard(), 1);
    origin.start(Time::ZERO);
    let mut relay = SwimNode::new("relay".into(), addr(2), Config::lan().lifeguard(), 2);
    relay.start(Time::ZERO);
    let mut target = SwimNode::new("target".into(), addr(3), Config::lan().lifeguard(), 3);
    target.start(Time::ZERO);

    // Everyone knows everyone.
    for (n, others) in [
        (&mut origin, [("relay", 2u8), ("target", 3u8)]),
        (&mut relay, [("origin", 1), ("target", 3)]),
        (&mut target, [("origin", 1), ("relay", 2)]),
    ] {
        for (name, i) in others {
            add_peer(n, name, i, now);
        }
    }

    // Origin sends an indirect ping request to relay about target.
    let req = Message::IndirectPing(lifeguard_proto::IndirectPing {
        seq: lifeguard_proto::SeqNo(77),
        target: "target".into(),
        target_addr: addr(3),
        nack: true,
        source: "origin".into(),
        source_addr: addr(1),
    });
    let relay_out = feed(&mut relay, addr(1), req, now);

    // Relay pings target.
    let (to, packet) = relay_out
        .iter()
        .find_map(|o| match o {
            OwnedOutput::Packet { to, payload } => Some((*to, payload.clone())),
            _ => None,
        })
        .expect("relay must ping the target");
    assert_eq!(to, addr(3));

    // Target handles the ping and acks back to relay.
    let mut target_out = Vec::new();
    for msg in compound::decode_packet(&packet).unwrap() {
        target_out.extend(feed(&mut target, addr(2), msg, now + Duration::from_millis(1)));
    }
    let (to, packet) = target_out
        .iter()
        .find_map(|o| match o {
            OwnedOutput::Packet { to, payload } => Some((*to, payload.clone())),
            _ => None,
        })
        .expect("target must ack");
    assert_eq!(to, addr(2));

    // Relay forwards the ack to origin with the origin's sequence number.
    let mut relay_fwd = Vec::new();
    for msg in compound::decode_packet(&packet).unwrap() {
        relay_fwd.extend(feed(&mut relay, addr(3), msg, now + Duration::from_millis(2)));
    }
    let forwarded = relay_fwd
        .iter()
        .find_map(|o| match o {
            OwnedOutput::Packet { to, payload } => Some((*to, payload.clone())),
            _ => None,
        })
        .expect("relay must forward the ack");
    assert_eq!(forwarded.0, addr(1));
    let msgs = compound::decode_packet(&forwarded.1).unwrap();
    assert!(msgs
        .iter()
        .any(|m| matches!(m, Message::Ack(a) if a.seq == lifeguard_proto::SeqNo(77))));
}

/// A suspect about an unknown member is ignored; a dead about an
/// unknown member is ignored (no panic, no phantom records).
#[test]
fn gossip_about_unknown_members_is_ignored() {
    let mut n = new_node(Config::lan());
    let before = n.members().count();
    feed(&mut n, 
        addr(2),
        Message::Suspect(Suspect {
            incarnation: Incarnation(5),
            node: "ghost".into(),
            from: "accuser".into(),
        }),
        Time::from_secs(1),
    );
    feed(&mut n, 
        addr(2),
        Message::Dead(Dead {
            incarnation: Incarnation(5),
            node: "ghost".into(),
            from: "accuser".into(),
        }),
        Time::from_secs(1),
    );
    assert_eq!(n.members().count(), before);
    assert!(n.member(&"ghost".into()).is_none());
}

/// Left nodes do not probe, gossip or push-pull.
#[test]
fn left_node_goes_quiet() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    n.handle_input(Input::Leave, Time::from_secs(2)).unwrap();
    let leave_out = drain(&mut n);
    assert!(!leave_out.is_empty(), "leave gossips the departure");
    // After the leave flush, the node stays quiet: no pings.
    let out = run_until(&mut n, Time::from_secs(30));
    let pings = out
        .iter()
        .filter_map(|o| match o {
            OwnedOutput::Packet { payload, .. } => compound::decode_packet(payload).ok(),
            _ => None,
        })
        .flatten()
        .filter(|m| matches!(m, Message::Ping(_)))
        .count();
    assert_eq!(pings, 0, "a departed node must not probe");
}

/// Steps `n` through its timers up to `until`, answering every direct
/// ping on the target's behalf, and returns the ping targets in order.
fn run_acking_pings(n: &mut SwimNode, until: Time) -> Vec<String> {
    let mut probed = Vec::new();
    while let Some(wake) = n.next_deadline().filter(|&wake| wake <= until) {
        for o in tick(n, wake) {
            let OwnedOutput::Packet { to, payload } = o else {
                continue;
            };
            for msg in compound::decode_packet(&payload).unwrap() {
                if let Message::Ping(ping) = msg {
                    probed.push(ping.target.as_str().to_owned());
                    feed(n, to, Message::Ack(Ack { seq: ping.seq }), wake);
                }
            }
        }
    }
    probed
}

/// Restart after reap: a member that is declared dead, reaped after
/// `dead_reclaim`, and then rejoins at a higher incarnation before the
/// probe cursor has passed its old rotation entry must be probed once
/// per sweep — not twice, from then on, as it was while the rotation
/// held names (the old entry resolved again as soon as the name was
/// back in the table).
#[test]
fn member_rejoining_after_reap_is_probed_once_per_sweep() {
    const PEERS: u8 = 8;
    let mut cfg = Config::lan();
    cfg.dead_reclaim = Duration::from_secs(10);
    cfg.push_pull_interval = None;
    let mut n = new_node(cfg);
    for i in 0..PEERS {
        add_peer(&mut n, &format!("p{i}"), 10 + i, Time::from_secs(1));
    }
    feed(
        &mut n,
        addr(10),
        Message::Dead(Dead {
            incarnation: Incarnation(1),
            node: "p3".into(),
            from: "accuser".into(),
        }),
        Time::from_secs(2),
    );
    // The reap timer fires every `dead_reclaim`; the second firing finds
    // p3 dead for longer than that.
    let reaped_at = Time::from_secs(20);
    run_acking_pings(&mut n, reaped_at);
    assert!(n.member(&"p3".into()).is_none(), "p3 must have been reaped");
    feed(
        &mut n,
        addr(13),
        Message::Alive(Alive {
            incarnation: Incarnation(2),
            node: "p3".into(),
            addr: addr(13),
            meta: Bytes::new(),
        }),
        reaped_at,
    );
    assert_eq!(
        n.member(&"p3".into()).map(|m| m.state),
        Some(MemberState::Alive)
    );

    // One probe per second; ten sweeps of eight members.
    let probed = run_acking_pings(&mut n, reaped_at + Duration::from_secs(80));
    let rounds = probed.len();
    let hits = probed.iter().filter(|t| t.as_str() == "p3").count();
    assert!(rounds >= 72, "expected about 80 probe rounds, saw {rounds}");
    assert!(
        hits * usize::from(PEERS) <= rounds + usize::from(PEERS),
        "p3 probed {hits} times in {rounds} rounds of an {PEERS}-member rotation"
    );
}
