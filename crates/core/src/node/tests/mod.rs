//! Unit tests of the node on the shared kit
//! (`crates/core/tests/common`). All but three are black-box; they stay
//! unit tests so their names in the suite do not change.

#[path = "../../../tests/common/mod.rs"]
mod common;

use std::time::Duration;

use bytes::Bytes;
use common::*;
use lifeguard_proto::{
    Ack, Alive, Dead, IndirectPing, Ping, PushNodeState, PushPull, PushPullDelta, Suspect,
};

use super::*;
use crate::config::LifeguardConfig;
use crate::driver::OwnedOutput;

fn events(outputs: &[OwnedOutput]) -> Vec<&Event> {
    outputs
        .iter()
        .filter_map(|o| match o {
            OwnedOutput::Event(e) => Some(e),
            _ => None,
        })
        .collect()
}

#[test]
fn start_arms_timers() {
    let n = new_node(Config::lan());
    assert!(n.next_deadline().is_some());
    assert_eq!(n.num_alive(), 1);
    assert_eq!(n.incarnation(), Incarnation::ZERO);
}

#[test]
#[should_panic(expected = "start() called twice")]
fn double_start_panics() {
    let mut n = new_node(Config::lan());
    n.start(Time::ZERO);
}

#[test]
fn ping_is_acked_to_source() {
    let mut n = new_node(Config::lan());
    let out = feed(&mut n, 
        addr(2),
        Message::Ping(Ping {
            seq: SeqNo(7),
            target: "local".into(),
            source: "peer".into(),
            source_addr: addr(2),
        }),
        Time::from_secs(1),
    );
    let pkts = packets(&out);
    assert_eq!(pkts.len(), 1);
    assert_eq!(pkts[0].0, addr(2));
    assert_eq!(pkts[0].1[0], Message::Ack(Ack { seq: SeqNo(7) }));
}

#[test]
fn misaddressed_ping_is_dropped() {
    let mut n = new_node(Config::lan());
    let out = feed(&mut n, 
        addr(2),
        Message::Ping(Ping {
            seq: SeqNo(7),
            target: "someone-else".into(),
            source: "peer".into(),
            source_addr: addr(2),
        }),
        Time::from_secs(1),
    );
    assert!(packets(&out).is_empty());
}

#[test]
fn alive_message_adds_member() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "peer-1", 2, Time::from_secs(1));
    assert_eq!(n.num_alive(), 2);
    let m = n.member(&"peer-1".into()).unwrap();
    assert_eq!(m.state, MemberState::Alive);
    assert_eq!(m.incarnation, Incarnation(1));
    // The alive message is re-gossiped.
    assert!(n.pending_broadcasts() > 0);
}

#[test]
fn stale_alive_does_not_override_suspect() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    let out = feed(&mut n, 
        addr(3),
        Message::Suspect(Suspect {
            incarnation: Incarnation(1),
            node: "p".into(),
            from: "accuser".into(),
        }),
        Time::from_secs(2),
    );
    assert!(events(&out)
        .iter()
        .any(|e| matches!(e, Event::MemberSuspected { .. })));
    assert_eq!(n.member(&"p".into()).unwrap().state, MemberState::Suspect);

    // Alive at the same incarnation must NOT clear the suspicion.
    let out = feed(&mut n, 
        addr(2),
        Message::Alive(Alive {
            incarnation: Incarnation(1),
            node: "p".into(),
            addr: addr(2),
            meta: Bytes::new(),
        }),
        Time::from_secs(3),
    );
    assert!(events(&out).is_empty());
    assert_eq!(n.member(&"p".into()).unwrap().state, MemberState::Suspect);

    // Alive at a higher incarnation refutes it.
    let out = feed(&mut n, 
        addr(2),
        Message::Alive(Alive {
            incarnation: Incarnation(2),
            node: "p".into(),
            addr: addr(2),
            meta: Bytes::new(),
        }),
        Time::from_secs(4),
    );
    assert!(events(&out)
        .iter()
        .any(|e| matches!(e, Event::MemberRecovered { .. })));
    assert_eq!(n.member(&"p".into()).unwrap().state, MemberState::Alive);
}

#[test]
fn suspect_about_self_is_refuted() {
    let mut n = new_node(Config::lan().lifeguard());
    let health_before = n.local_health();
    let out = feed(&mut n, 
        addr(2),
        Message::Suspect(Suspect {
            incarnation: Incarnation::ZERO,
            node: "local".into(),
            from: "accuser".into(),
        }),
        Time::from_secs(1),
    );
    assert!(n.incarnation() > Incarnation::ZERO);
    assert!(events(&out)
        .iter()
        .any(|e| matches!(e, Event::SelfRefuted { .. })));
    // Refutation costs local health (+1).
    assert_eq!(n.local_health(), health_before + 1);
    // An alive broadcast is queued.
    assert!(n.pending_broadcasts() > 0);
}

#[test]
fn dead_about_self_is_refuted() {
    let mut n = new_node(Config::lan());
    let out = feed(&mut n, 
        addr(2),
        Message::Dead(Dead {
            incarnation: Incarnation(3),
            node: "local".into(),
            from: "accuser".into(),
        }),
        Time::from_secs(1),
    );
    assert_eq!(n.incarnation(), Incarnation(4));
    assert!(events(&out)
        .iter()
        .any(|e| matches!(e, Event::SelfRefuted { .. })));
}

#[test]
fn suspicion_expires_to_dead_with_fixed_swim_timeout() {
    let mut n = new_node(Config::lan()); // SWIM: α=5, β(eff)=1
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    feed(&mut n, 
        addr(3),
        Message::Suspect(Suspect {
            incarnation: Incarnation(1),
            node: "p".into(),
            from: "accuser".into(),
        }),
        Time::from_secs(2),
    );
    // n = 2 live ⇒ min = 5·max(1, log10(2))·1 s = 5 s.
    let out = run_until(&mut n, Time::from_secs(2) + Duration::from_millis(5001));
    let fails: Vec<_> = events(&out)
        .into_iter()
        .filter(|e| e.is_failure())
        .collect();
    assert_eq!(fails.len(), 1);
    assert_eq!(n.member(&"p".into()).unwrap().state, MemberState::Dead);
}

#[test]
fn lha_suspicion_starts_at_max_and_confirmations_shorten_it() {
    let mut n = new_node(Config::lan().lifeguard());
    for (i, name) in ["p", "a", "b", "c"].iter().enumerate() {
        add_peer(&mut n, name, i as u8 + 2, Time::from_secs(1));
    }
    let t0 = Time::from_secs(2);
    feed(&mut n, 
        addr(9),
        Message::Suspect(Suspect {
            incarnation: Incarnation(1),
            node: "p".into(),
            from: "a".into(),
        }),
        t0,
    );
    // n = 5 live ⇒ min = 5 s, max = 30 s. No confirmations: not dead
    // at min + ε.
    let out = run_until(&mut n, t0 + Duration::from_millis(5500));
    assert!(events(&out).iter().all(|e| !e.is_failure()));
    assert_eq!(n.member(&"p".into()).unwrap().state, MemberState::Suspect);

    // Three independent confirmations drive the deadline to min,
    // which has already passed → immediate failure on next tick.
    for from in ["b", "c", "local-other"] {
        feed(&mut n, 
            addr(9),
            Message::Suspect(Suspect {
                incarnation: Incarnation(1),
                node: "p".into(),
                from: from.into(),
            }),
            t0 + Duration::from_millis(5600),
        );
    }
    let out = run_until(&mut n, t0 + Duration::from_millis(5700));
    assert!(events(&out).iter().any(|e| e.is_failure()));
}

#[test]
fn independent_suspicions_are_regossiped_at_most_k_times() {
    let mut n = new_node(Config::lan().lifeguard());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    feed(&mut n, 
        addr(3),
        Message::Suspect(Suspect {
            incarnation: Incarnation(1),
            node: "p".into(),
            from: "a".into(),
        }),
        Time::from_secs(2),
    );
    // Queue currently holds the initial suspect broadcast.
    let mut regossiped = 0;
    for from in ["b", "c", "d", "e", "f"] {
        let before = n.pending_broadcasts();
        feed(&mut n, 
            addr(3),
            Message::Suspect(Suspect {
                incarnation: Incarnation(1),
                node: "p".into(),
                from: from.into(),
            }),
            Time::from_secs(3),
        );
        // Re-gossip replaces the queued suspect (same subject), so
        // the queue length is unchanged; detect via queued message.
        if n.pending_broadcasts() == before {
            if let Some(Message::Suspect(s)) = n.queued_broadcast_for(&"p".into()) {
                if s.from == NodeName::from(from) {
                    regossiped += 1;
                }
            }
        }
    }
    assert_eq!(regossiped, 3, "exactly K=3 confirmations re-gossiped");
}

/// An accuser the table does not know — a name seen only on the
/// wire — is a confirmer like any other: counted once, re-gossiped
/// once, however often its suspicion arrives.
#[test]
fn unknown_accuser_counts_once_and_is_regossiped_once() {
    let mut n = new_node(Config::lan().lifeguard());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    add_peer(&mut n, "a", 3, Time::from_secs(1));
    let suspect_p = |n: &mut SwimNode, from: &str| {
        feed(
            n,
            addr(3),
            Message::Suspect(Suspect {
                incarnation: Incarnation(1),
                node: "p".into(),
                from: from.into(),
            }),
            Time::from_secs(2),
        );
        let confirmations = n.suspicions.confirmation_counts();
        let queued_from = match n.queued_broadcast_for(&"p".into()) {
            Some(Message::Suspect(s)) => s.from.clone(),
            other => panic!("expected a queued suspect, found {other:?}"),
        };
        (confirmations, queued_from)
    };
    assert_eq!(suspect_p(&mut n, "a"), (vec![0], "a".into()));
    assert!(n.member(&"ghost".into()).is_none());
    assert_eq!(suspect_p(&mut n, "ghost"), (vec![1], "ghost".into()));
    assert_eq!(suspect_p(&mut n, "a"), (vec![1], "ghost".into()));
    // The same ghost again, after another confirmer took the queue
    // slot: not counted, and not put back.
    assert_eq!(suspect_p(&mut n, "local"), (vec![2], "local".into()));
    assert_eq!(suspect_p(&mut n, "ghost"), (vec![2], "local".into()));
    assert!(
        n.member(&"ghost".into()).is_none(),
        "an accuser is not a member"
    );
}

#[test]
fn probe_failure_raises_suspicion_and_lhm() {
    let mut n = new_node(Config::lan().lifeguard());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    // Run past a whole probe round with no responses: the probe
    // fails (no ack, no nacks possible with one peer).
    let out = run_until(&mut n, Time::from_secs(4));
    let suspected = events(&out)
        .iter()
        .any(|e| matches!(e, Event::MemberSuspected { name, .. } if name.as_str() == "p"));
    assert!(suspected, "unanswered probe must raise a suspicion");
    assert!(n.local_health() >= 1, "failed probe must cost local health");
}

#[test]
fn acked_probe_improves_lhm() {
    let mut n = new_node(Config::lan().lifeguard());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    // Push LHM up first.
    feed(&mut n, 
        addr(2),
        Message::Suspect(Suspect {
            incarnation: Incarnation::ZERO,
            node: "local".into(),
            from: "p".into(),
        }),
        Time::from_secs(1),
    );
    let health = n.local_health();
    assert!(health > 0);

    // Find the ping the probe round sends and ack it in time.
    let mut acked = false;
    for _ in 0..50 {
        let wake = n.next_deadline().unwrap();
        let out = tick(&mut n, wake);
        for (to, msgs) in packets(&out) {
            for m in msgs {
                if let Message::Ping(p) = m {
                    assert_eq!(to, addr(2));
                    feed(&mut n, 
                        addr(2),
                        Message::Ack(Ack { seq: p.seq }),
                        wake + Duration::from_millis(1),
                    );
                    acked = true;
                }
            }
        }
        if acked {
            break;
        }
    }
    assert!(acked, "probe round never sent a ping");
    assert_eq!(n.local_health(), health - 1);
}

/// Runs `n` until its LHM moves, which here only the end of a failed
/// probe round does: the target never answers, and the first `nackers`
/// helpers enlisted for indirect probes send a nack. Returns how many
/// helpers were enlisted and the LHM's change.
fn failed_round(n: &mut SwimNode, nackers: usize) -> (usize, i64) {
    let before = i64::from(n.local_health());
    let mut enlisted = 0;
    for _ in 0..100 {
        let wake = n.next_deadline().unwrap();
        let helpers: Vec<_> = packets(&tick(n, wake))
            .into_iter()
            .filter_map(|(to, msgs)| {
                msgs.iter().find_map(|m| match m {
                    Message::IndirectPing(req) => Some((to, req.seq)),
                    _ => None,
                })
            })
            .collect();
        enlisted += helpers.len();
        for &(helper, seq) in helpers.iter().take(nackers) {
            feed(n, helper, Message::Nack(Nack { seq }), wake);
        }
        let after = i64::from(n.local_health());
        if after != before {
            return (enlisted, after - before);
        }
    }
    panic!("no probe round failed within 100 timer fires");
}

/// The LHM's penalties (paper §IV-A): a failed round costs +1 per nack
/// its enlisted helpers failed to send, a failed round with no helper
/// to ask +1, and a refute +1.
#[test]
fn lhm_counts_missed_nacks_failed_probes_and_refutes() {
    // Four peers: whichever is probed, the other three are enlisted.
    let mut n = new_node(Config::lan().lifeguard());
    for i in 2..6u8 {
        add_peer(&mut n, &format!("p{i}"), i, Time::from_secs(1));
    }
    assert_eq!(
        failed_round(&mut n, 1),
        (3, 2),
        "three helpers, one nack: two missed nacks"
    );
    let (inc, now) = (n.incarnation(), n.next_deadline().unwrap());
    let accusation = Suspect {
        incarnation: inc,
        node: "local".into(),
        from: "p2".into(),
    };
    feed(&mut n, addr(2), Message::Suspect(accusation), now);
    assert_eq!(n.local_health(), 3, "a refute costs one");

    // One peer: nobody to enlist, so the failed probe itself counts.
    let mut n = new_node(Config::lan().lifeguard());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    assert_eq!(failed_round(&mut n, 0), (0, 1));
}

#[test]
fn indirect_ping_is_relayed_and_ack_forwarded() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "target", 3, Time::from_secs(1));
    let out = feed(&mut n, 
        addr(2),
        Message::IndirectPing(IndirectPing {
            seq: SeqNo(99),
            target: "target".into(),
            target_addr: addr(3),
            nack: true,
            source: "origin".into(),
            source_addr: addr(2),
        }),
        Time::from_secs(1),
    );
    let pkts = packets(&out);
    assert_eq!(pkts.len(), 1);
    assert_eq!(pkts[0].0, addr(3));
    let relayed_seq = match &pkts[0].1[0] {
        Message::Ping(p) => {
            assert_eq!(p.target.as_str(), "target");
            p.seq
        }
        other => panic!("expected relayed ping, got {other:?}"),
    };

    // Target acks → the ack is forwarded to the origin with the
    // origin's sequence number.
    let out = feed(&mut n, 
        addr(3),
        Message::Ack(Ack { seq: relayed_seq }),
        Time::from_secs(1) + Duration::from_millis(10),
    );
    let pkts = packets(&out);
    assert_eq!(pkts.len(), 1);
    assert_eq!(pkts[0].0, addr(2));
    assert_eq!(pkts[0].1[0], Message::Ack(Ack { seq: SeqNo(99) }));
}

#[test]
fn relay_sends_nack_at_deadline_when_target_silent() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "target", 3, Time::from_secs(1));
    feed(&mut n, 
        addr(2),
        Message::IndirectPing(IndirectPing {
            seq: SeqNo(99),
            target: "target".into(),
            target_addr: addr(3),
            nack: true,
            source: "origin".into(),
            source_addr: addr(2),
        }),
        Time::from_secs(1),
    );
    // 80% of the 500 ms probe timeout = 400 ms.
    let out = run_until(&mut n, Time::from_secs(1) + Duration::from_millis(401));
    let nacks: Vec<_> = packets(&out)
        .into_iter()
        .filter(|(to, msgs)| {
            *to == addr(2) && msgs.iter().any(|m| matches!(m, Message::Nack(k) if k.seq == SeqNo(99)))
        })
        .collect();
    assert_eq!(nacks.len(), 1);
}

#[test]
fn leave_broadcasts_self_signed_dead() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    n.handle_input(Input::Leave, Time::from_secs(2)).unwrap();
    let out = drain(&mut n);
    assert!(n.has_left());
    let mut saw_leave = false;
    for (_, msgs) in packets(&out) {
        for m in msgs {
            if let Message::Dead(d) = m {
                assert_eq!(d.node, d.from);
                saw_leave = true;
            }
        }
    }
    assert!(saw_leave, "leave must gossip a self-signed dead message");
}

/// Regression: peers were probing the node when it left and it still
/// acks pings, so a `Suspect` about itself is likely to arrive. It
/// must not refute — that resurrected it at every peer.
#[test]
fn left_node_does_not_refute_a_suspicion_about_itself() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    n.handle_input(Input::Leave, Time::from_secs(2)).unwrap();
    drain(&mut n);
    let incarnation = n.incarnation();
    let queued = n.queued_broadcast_for(&"local".into()).cloned();
    let out = feed(
        &mut n,
        addr(2),
        Message::Suspect(Suspect {
            incarnation,
            node: "local".into(),
            from: "p".into(),
        }),
        Time::from_secs(3),
    );
    assert_eq!(n.member(&"local".into()).unwrap().state, MemberState::Left);
    assert_eq!(n.incarnation(), incarnation);
    assert!(!events(&out)
        .iter()
        .any(|e| matches!(e, Event::SelfRefuted { .. })));
    // Nothing new is queued about ourselves — only the leave's own
    // `Dead`, if it is still being gossiped.
    assert!(!matches!(queued, Some(Message::Alive(_))));
    assert_eq!(n.queued_broadcast_for(&"local".into()), queued.as_ref());
}

#[test]
fn peer_leave_emits_member_left() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    let out = feed(&mut n, 
        addr(2),
        Message::Dead(Dead {
            incarnation: Incarnation(1),
            node: "p".into(),
            from: "p".into(),
        }),
        Time::from_secs(2),
    );
    assert!(events(&out)
        .iter()
        .any(|e| matches!(e, Event::MemberLeft { .. })));
    assert_eq!(n.member(&"p".into()).unwrap().state, MemberState::Left);
}

#[test]
fn push_pull_merge_downgrades_dead_to_suspect() {
    let mut n = new_node(Config::lan());
    let states = vec![
        PushNodeState {
            name: "p".into(),
            addr: addr(2),
            incarnation: Incarnation(1),
            state: MemberState::Dead,
            meta: Bytes::new(),
        },
    ];
    let out = feed_stream(
        &mut n,
        addr(2),
        Message::PushPull(PushPull {
            join: true,
            reply: false,
            states,
        }),
        Time::from_secs(1),
    );
    // Dead entries are merged as suspicions so the victim can refute.
    assert_eq!(n.member(&"p".into()).unwrap().state, MemberState::Suspect);
    // And the exchange is answered.
    assert!(out
        .iter()
        .any(|o| matches!(o, OwnedOutput::Stream { msg: Message::PushPull(pp), .. } if pp.reply)));
}

#[test]
fn stream_ping_gets_stream_ack() {
    let mut n = new_node(Config::lan());
    let out = feed_stream(
        &mut n,
        addr(2),
        Message::Ping(Ping {
            seq: SeqNo(5),
            target: "local".into(),
            source: "peer".into(),
            source_addr: addr(2),
        }),
        Time::from_secs(1),
    );
    assert!(matches!(
        &out[0],
        OwnedOutput::Stream { msg: Message::Ack(a), .. } if a.seq == SeqNo(5)
    ));
}

#[test]
fn buddy_system_includes_suspect_in_ping_to_suspected() {
    let mut cfg = Config::lan();
    cfg.lifeguard = LifeguardConfig::buddy_system_only();
    let mut n = new_node(cfg);
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    feed(&mut n, 
        addr(3),
        Message::Suspect(Suspect {
            incarnation: Incarnation(1),
            node: "p".into(),
            from: "accuser".into(),
        }),
        Time::from_secs(2),
    );
    // Drain the broadcast queue completely so only the buddy hook
    // could possibly attach the suspicion.
    while n.pending_broadcasts() > 0 {
        let wake = n.next_deadline().unwrap();
        tick(&mut n, wake);
    }
    // Probe rounds target "p" (the only peer): the ping must carry
    // the suspect message about "p".
    let mut saw_buddy = false;
    for _ in 0..100 {
        let Some(wake) = n.next_deadline() else { break };
        if wake > Time::from_secs(60) {
            break;
        }
        let out = tick(&mut n, wake);
        for (to, msgs) in packets(&out) {
            let has_ping = msgs.iter().any(
                |m| matches!(m, Message::Ping(p) if p.target.as_str() == "p"),
            );
            if has_ping && to == addr(2) {
                let has_suspect = msgs.iter().any(
                    |m| matches!(m, Message::Suspect(s) if s.node.as_str() == "p"),
                );
                if has_suspect {
                    saw_buddy = true;
                }
            }
        }
        if saw_buddy {
            break;
        }
    }
    assert!(
        saw_buddy,
        "buddy system must attach the suspicion to pings of the suspected member"
    );
}

#[test]
fn join_sends_push_pull_to_seeds() {
    let mut n = new_node(Config::lan());
    n.handle_input(
        Input::Join {
            seeds: vec![addr(5), addr(1)],
        },
        Time::ZERO,
    )
    .unwrap();
    let out = drain(&mut n);
    // addr(1) is ourselves and is skipped.
    assert_eq!(out.len(), 1);
    assert!(matches!(
        &out[0],
        OwnedOutput::Stream { to, msg: Message::PushPull(pp) } if *to == addr(5) && pp.join && !pp.reply
    ));
}

#[test]
fn datagram_decode_error_is_propagated() {
    let mut n = new_node(Config::lan());
    assert!(n
        .handle_input(
            Input::Datagram {
                from: addr(2),
                payload: Bytes::copy_from_slice(&[250, 250]),
            },
            Time::ZERO,
        )
        .is_err());
}

/// A datagram of `msgs` in compound framing, plus `tail` as a last
/// part when given.
fn compound_packet(msgs: &[Message], tail: Option<&[u8]>) -> Bytes {
    let mut builder = lifeguard_proto::compound::CompoundBuilder::new(usize::MAX);
    for msg in msgs {
        assert!(builder.try_add_msg(msg));
    }
    if let Some(tail) = tail {
        assert!(builder.try_add_bytes(tail));
    }
    let mut packet = Vec::new();
    builder.finish_into(&mut packet).unwrap();
    Bytes::from(packet)
}

/// A datagram is checked whole before any part acts: when only its
/// last part is malformed, the ping, the newcomer and the accusation
/// before it change nothing and send nothing.
#[test]
fn packet_with_a_malformed_last_part_changes_nothing() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    let now = Time::from_secs(2);
    // A stray ack changes no state and leaves the send buffer empty.
    feed(&mut n, addr(2), Message::Ack(Ack { seq: SeqNo(99) }), now);
    let before = format!("{n:?}");
    let packet = compound_packet(
        &[
            Message::Ping(Ping {
                seq: SeqNo(7),
                target: "local".into(),
                source: "p".into(),
                source_addr: addr(2),
            }),
            Message::Alive(Alive {
                incarnation: Incarnation(1),
                node: "newcomer".into(),
                addr: addr(3),
                meta: Bytes::new(),
            }),
            Message::Suspect(Suspect {
                incarnation: Incarnation(1),
                node: "p".into(),
                from: "newcomer".into(),
            }),
        ],
        Some(&[42]),
    );
    let refused = n.handle_input(
        Input::Datagram {
            from: addr(2),
            payload: packet,
        },
        now,
    );
    assert_eq!(refused, Err(DecodeError::UnknownTag(42)));
    assert_eq!(format!("{n:?}"), before, "node state moved");
    assert!(drain(&mut n).is_empty(), "a refused packet sent something");
}

/// Every part of a packet with as many parts as the count byte allows
/// is handled, in packet order, names of both forms alike.
#[test]
fn compound_packet_of_the_most_parts_is_handled_part_by_part() {
    use lifeguard_proto::compound::MAX_COMPOUND_PARTS;
    let mut n = new_node(Config::lan());
    let names: Vec<String> = (0..MAX_COMPOUND_PARTS)
        .map(|i| match i % 2 {
            0 => format!("peer-{i}"),
            _ => format!("a-longer-peer-name-{i}"),
        })
        .collect();
    let alives: Vec<Message> = names
        .iter()
        .map(|name| {
            Message::Alive(Alive {
                incarnation: Incarnation(1),
                node: name.as_str().into(),
                addr: addr(2),
                meta: Bytes::new(),
            })
        })
        .collect();
    let packet = compound_packet(&alives, None);
    let out = input(
        &mut n,
        Input::Datagram {
            from: addr(2),
            payload: packet,
        },
        Time::from_secs(1),
    );
    assert_eq!(n.num_alive(), 1 + MAX_COMPOUND_PARTS);
    let joined: Vec<&str> = events(&out)
        .into_iter()
        .filter_map(|e| match e {
            Event::MemberJoined { name } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(joined, names);
}

#[test]
fn invalid_config_is_rejected_at_construction() {
    let mut cfg = Config::lan();
    cfg.gossip_nodes = 0;
    assert_eq!(
        SwimNode::try_new("x".into(), addr(1), cfg, 1).err(),
        Some(crate::config::ConfigError::EmptyGossipFanout)
    );
}

#[test]
fn name_the_wire_format_cannot_carry_is_rejected_at_construction() {
    let longest = "n".repeat(usize::from(u16::MAX));
    assert!(SwimNode::try_new(longest.as_str().into(), addr(1), Config::lan(), 1).is_ok());
    let too_long = longest + "n";
    assert_eq!(
        SwimNode::try_new(too_long.as_str().into(), addr(1), Config::lan(), 1).err(),
        Some(crate::config::ConfigError::NodeNameTooLong)
    );
}

#[test]
#[should_panic(expected = "invalid SwimNode config")]
fn invalid_config_panics_in_new() {
    let mut cfg = Config::lan();
    cfg.probe_interval = Duration::ZERO;
    let _ = SwimNode::new("x".into(), addr(1), cfg, 1);
}

#[test]
fn accepted_alive_for_known_member_reuses_stored_meta() {
    let mut n = new_node(Config::lan());
    let meta = Bytes::from_static(b"role=db");
    feed(
        &mut n,
        addr(2),
        Message::Alive(Alive {
            incarnation: Incarnation(1),
            node: "p".into(),
            addr: addr(2),
            meta: meta.clone(),
        }),
        Time::from_secs(1),
    );
    // Higher incarnation, identical meta: the stored record keeps
    // its bytes and the state refresh is accepted.
    feed(
        &mut n,
        addr(2),
        Message::Alive(Alive {
            incarnation: Incarnation(2),
            node: "p".into(),
            addr: addr(2),
            meta: meta.clone(),
        }),
        Time::from_secs(2),
    );
    let m = n.member(&"p".into()).unwrap();
    assert_eq!(m.incarnation, Incarnation(2));
    assert_eq!(m.meta.as_ref(), b"role=db");
    // Changed meta is still picked up.
    feed(
        &mut n,
        addr(2),
        Message::Alive(Alive {
            incarnation: Incarnation(3),
            node: "p".into(),
            addr: addr(2),
            meta: Bytes::from_static(b"role=web"),
        }),
        Time::from_secs(3),
    );
    assert_eq!(n.member(&"p".into()).unwrap().meta.as_ref(), b"role=web");
}

/// Registers a real peer node in `n`'s table at the incarnation the
/// peer actually holds (0), so cross-node table comparisons line up.
fn add_real_peer(n: &mut SwimNode, name: &str, i: u8, now: Time) {
    feed(
        n,
        addr(i),
        Message::Alive(Alive {
            incarnation: Incarnation::ZERO,
            node: name.into(),
            addr: addr(i),
            meta: Bytes::new(),
        }),
        now,
    );
}

fn stream_msgs(outputs: &[OwnedOutput]) -> Vec<(NodeAddr, Message)> {
    outputs
        .iter()
        .filter_map(|o| match o {
            OwnedOutput::Stream { to, msg } => Some((*to, msg.clone())),
            _ => None,
        })
        .collect()
}

/// `(name, addr, incarnation, state, meta)` of every member, sorted —
/// the comparable essence of a membership table.
fn table_of(n: &SwimNode) -> Vec<(String, String, u64, u8, Vec<u8>)> {
    let mut rows: Vec<_> = n
        .members()
        .map(|m| {
            (
                m.name.as_str().to_owned(),
                format!("{:?}", m.addr),
                m.incarnation.0,
                m.state.as_u8(),
                m.meta.as_ref().to_vec(),
            )
        })
        .collect();
    rows.sort();
    rows
}

/// Regression (stream-path guard): before `start`, stream messages
/// must be dropped exactly like datagrams — no replies, no state.
#[test]
fn pre_start_stream_messages_are_dropped() {
    let mut n = SwimNode::new("local".into(), addr(1), Config::lan(), 1);
    let states = vec![PushNodeState {
        name: "ghost".into(),
        addr: addr(7),
        incarnation: Incarnation(1),
        state: MemberState::Alive,
        meta: Bytes::new(),
    }];
    n.handle_input(
        Input::Stream {
            from: addr(9),
            msg: Message::PushPull(PushPull {
                join: true,
                reply: false,
                states,
            }),
        },
        Time::ZERO,
    )
    .unwrap();
    n.handle_input(
        Input::Stream {
            from: addr(9),
            msg: Message::Ping(Ping {
                seq: SeqNo(3),
                target: "local".into(),
                source: "peer".into(),
                source_addr: addr(9),
            }),
        },
        Time::ZERO,
    )
    .unwrap();
    assert!(drain(&mut n).is_empty(), "pre-start stream must produce nothing");
    assert!(n.member(&"ghost".into()).is_none(), "pre-start merge must not happen");
    assert_eq!(n.members().count(), 0);
}

/// Regression (stream-path guard): after a graceful leave, stream
/// messages are dropped too — no acks, no anti-entropy answers.
#[test]
fn post_leave_stream_messages_are_dropped() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    n.handle_input(Input::Leave, Time::from_secs(2)).unwrap();
    drain(&mut n);
    let out = feed_stream(
        &mut n,
        addr(2),
        Message::Ping(Ping {
            seq: SeqNo(5),
            target: "local".into(),
            source: "p".into(),
            source_addr: addr(2),
        }),
        Time::from_secs(3),
    );
    assert!(out.is_empty(), "a left node must not ack stream probes");
    let out = feed_stream(
        &mut n,
        addr(2),
        Message::PushPull(PushPull {
            join: false,
            reply: false,
            states: vec![PushNodeState {
                name: "ghost".into(),
                addr: addr(7),
                incarnation: Incarnation(1),
                state: MemberState::Alive,
                meta: Bytes::new(),
            }],
        }),
        Time::from_secs(3),
    );
    assert!(out.is_empty(), "a left node must not answer push-pull");
    assert!(n.member(&"ghost".into()).is_none());
}

/// Regression: a remote `Left` entry about a member we never knew
/// must be dropped, not resurrected through the learn-then-apply
/// path `Suspect`/`Dead` entries use.
#[test]
fn remote_left_entry_for_unknown_member_is_not_resurrected() {
    let mut n = new_node(Config::lan());
    let out = feed_stream(
        &mut n,
        addr(9),
        Message::PushPull(PushPull {
            join: false,
            reply: true, // response half: no counter-reply expected
            states: vec![PushNodeState {
                name: "ghost".into(),
                addr: addr(7),
                incarnation: Incarnation(5),
                state: MemberState::Left,
                meta: Bytes::new(),
            }],
        }),
        Time::from_secs(1),
    );
    assert!(out.is_empty(), "a left-unknown entry must produce no effects");
    assert!(n.member(&"ghost".into()).is_none(), "member must not be learned");
    assert!(
        n.queued_broadcast_for(&"ghost".into()).is_none(),
        "nothing about the ghost may be gossiped"
    );
    // Contrast: a Suspect entry for an unknown member *is* learned
    // (memberlist behaviour), pinning that the two paths differ.
    feed_stream(
        &mut n,
        addr(9),
        Message::PushPull(PushPull {
            join: false,
            reply: true,
            states: vec![PushNodeState {
                name: "sus".into(),
                addr: addr(8),
                incarnation: Incarnation(1),
                state: MemberState::Suspect,
                meta: Bytes::new(),
            }],
        }),
        Time::from_secs(1),
    );
    assert_eq!(n.member(&"sus".into()).unwrap().state, MemberState::Suspect);
}

/// A delta arriving by datagram is dropped like a full push-pull.
#[test]
fn push_pull_delta_by_datagram_is_dropped() {
    let mut n = new_node(Config::lan());
    let out = feed(
        &mut n,
        addr(9),
        Message::PushPullDelta(PushPullDelta {
            from: "peer".into(),
            epoch: 7,
            since_epoch: 0,
            since: 0,
            seq: 3,
            reply: false,
            entries: vec![PushNodeState {
                name: "ghost".into(),
                addr: addr(7),
                incarnation: Incarnation(1),
                state: MemberState::Alive,
                meta: Bytes::new(),
            }],
        }),
        Time::from_secs(1),
    );
    assert!(out.is_empty());
    assert!(n.member(&"ghost".into()).is_none());
}

/// End-to-end delta exchange between two real nodes: the first
/// exchange bootstraps (full-equivalent), the second carries only
/// the churn, and a dropped reply is retransmitted — never lost.
#[test]
fn delta_exchange_converges_and_second_round_is_incremental() {
    let now = Time::from_secs(1);
    let mut a = new_node(Config::lan()); // "local" at addr(1)
    let mut b = SwimNode::new("remote".into(), addr(2), Config::lan(), 2);
    b.start(Time::ZERO);
    for (i, p) in ["p1", "p2", "p3"].iter().enumerate() {
        add_peer(&mut a, p, 10 + i as u8, now);
    }
    add_real_peer(&mut a, "remote", 2, now);

    // Round 1: cold watermarks → the delta is full-equivalent.
    a.handle_input(Input::Sync { with: "remote".into() }, now).unwrap();
    let req = stream_msgs(&drain(&mut a));
    assert_eq!(req.len(), 1);
    assert_eq!(req[0].0, addr(2));
    let Message::PushPullDelta(d) = &req[0].1 else {
        panic!("expected delta, got {:?}", req[0].1)
    };
    assert_eq!(d.since, 0, "first exchange starts from scratch");
    assert_eq!(d.entries.len(), 5, "cold delta carries the full table");
    let reply = stream_msgs(&feed_stream(&mut b, addr(1), req[0].1.clone(), now));
    assert_eq!(reply.len(), 1);
    assert!(
        matches!(&reply[0].1, Message::PushPullDelta(r) if r.reply && r.since > 0),
        "reply must ack the initiator's seq"
    );
    feed_stream(&mut a, addr(2), reply[0].1.clone(), now);
    assert_eq!(table_of(&a), table_of(&b), "one exchange must converge both tables");

    // Churn one member on A only.
    add_peer(&mut a, "p9", 99, now + Duration::from_secs(1));

    // Round 2: only the churned entry travels.
    let t2 = now + Duration::from_secs(2);
    a.handle_input(Input::Sync { with: "remote".into() }, t2).unwrap();
    let req2 = stream_msgs(&drain(&mut a));
    let Message::PushPullDelta(d2) = &req2[0].1 else { panic!() };
    assert!(d2.since > 0, "watermark must be warm now");
    assert_eq!(d2.entries.len(), 1, "delta must carry only the churn");
    assert_eq!(d2.entries[0].name.as_str(), "p9");
    // Drop B's reply: A must not advance its ack watermark…
    let reply2 = stream_msgs(&feed_stream(&mut b, addr(1), req2[0].1.clone(), t2));
    assert_eq!(reply2.len(), 1);
    assert_eq!(table_of(&a), table_of(&b), "request half alone already syncs A→B");

    // …so round 3 retransmits the unacked churn entry.
    let t3 = t2 + Duration::from_secs(1);
    a.handle_input(Input::Sync { with: "remote".into() }, t3).unwrap();
    let req3 = stream_msgs(&drain(&mut a));
    let Message::PushPullDelta(d3) = &req3[0].1 else { panic!() };
    assert_eq!(
        d3.entries.len(),
        1,
        "an unacked entry must be resent after a dropped reply"
    );
    assert_eq!(d3.entries[0].name.as_str(), "p9");

    // Deliver the round-3 pair fully: the ack finally lands and
    // round 4 is empty.
    let reply3 = stream_msgs(&feed_stream(&mut b, addr(1), req3[0].1.clone(), t3));
    feed_stream(&mut a, addr(2), reply3[0].1.clone(), t3);
    let t4 = t3 + Duration::from_secs(1);
    a.handle_input(Input::Sync { with: "remote".into() }, t4).unwrap();
    let req4 = stream_msgs(&drain(&mut a));
    let Message::PushPullDelta(d4) = &req4[0].1 else { panic!() };
    assert_eq!(d4.entries.len(), 0, "steady state sends an empty delta");
    assert_eq!(table_of(&a), table_of(&b));
}

/// A delta reply leaves out exactly the `Alive` entries the request
/// itself carried at an incarnation ≥ the responder's; everything
/// else travels, and the exchange ends where an unfiltered one does.
#[test]
fn delta_reply_omits_only_alive_entries_the_request_proved() {
    let now = Time::from_secs(1);
    let alive = |name: &str, i: u8, inc: u64| {
        Message::Alive(Alive {
            incarnation: Incarnation(inc),
            node: name.into(),
            addr: addr(i),
            meta: Bytes::new(),
        })
    };
    let dead = |node: &str, from: &str| {
        Message::Dead(Dead {
            incarnation: Incarnation(1),
            node: node.into(),
            from: from.into(),
        })
    };
    // One cold exchange local → remote. With `filtered` off, the
    // reply delivered to the requester is swapped for the one the
    // responder would have sent without the rule.
    let run = |filtered: bool| {
        let mut a = new_node(Config::lan());
        let mut b = SwimNode::new("remote".into(), addr(2), Config::lan(), 2);
        b.start(Time::ZERO);
        add_real_peer(&mut a, "remote", 2, now);
        add_real_peer(&mut b, "local", 1, now);
        // What the request will carry, all `Alive`…
        for (name, i, inc) in [
            ("eq", 10, 1),
            ("hi", 11, 3),
            ("lo", 12, 1),
            ("sus", 13, 1),
            ("dead", 14, 1),
            ("left", 15, 1),
        ] {
            feed(&mut a, addr(i), alive(name, i, inc), now);
        }
        // …against what the responder holds.
        for (name, i, inc) in [
            ("eq", 10, 1),
            ("hi", 11, 1),
            ("lo", 12, 5),
            ("sus", 13, 1),
            ("dead", 14, 1),
            ("left", 15, 1),
            ("only-b", 16, 1),
        ] {
            feed(&mut b, addr(i), alive(name, i, inc), now);
        }
        let suspect = Message::Suspect(Suspect {
            incarnation: Incarnation(1),
            node: "sus".into(),
            from: "accuser".into(),
        });
        feed(&mut b, addr(9), suspect, now);
        feed(&mut b, addr(9), dead("dead", "accuser"), now);
        feed(&mut b, addr(9), dead("left", "left"), now);

        let sync = Input::Sync {
            with: "remote".into(),
        };
        a.handle_input(sync, now).unwrap();
        let req = stream_msgs(&drain(&mut a));
        let unfiltered = crate::sync::collect_changed(&b.membership, 0);
        let reply = stream_msgs(&feed_stream(&mut b, addr(1), req[0].1.clone(), now));
        let Message::PushPullDelta(mut r) = reply[0].1.clone() else {
            panic!("expected delta reply, got {:?}", reply[0].1)
        };
        let mut sent: Vec<&str> = r.entries.iter().map(|e| e.name.as_str()).collect();
        sent.sort_unstable();
        // Omitted: `eq` (equal incarnation), `hi` (the request is
        // ahead) and the two ends' own records, both proved too.
        assert_eq!(sent, ["dead", "left", "lo", "only-b", "sus"]);
        assert_eq!(unfiltered.len(), 9);
        if !filtered {
            r.entries = unfiltered;
        }
        let effects = feed_stream(&mut a, addr(2), Message::PushPullDelta(r), now);
        (table_of(&a), table_of(&b), format!("{effects:?}"))
    };
    assert_eq!(run(true), run(false));
}

/// A peer that restarted (new epoch) answers a stale-watermark delta
/// with a full exchange, and both sides converge from scratch.
#[test]
fn delta_to_restarted_peer_falls_back_to_full_sync() {
    let now = Time::from_secs(1);
    let mut a = new_node(Config::lan());
    let mut b = SwimNode::new("remote".into(), addr(2), Config::lan(), 2);
    b.start(Time::ZERO);
    add_real_peer(&mut a, "remote", 2, now);
    add_peer(&mut a, "p1", 11, now);

    // Warm the pairing.
    a.handle_input(Input::Sync { with: "remote".into() }, now).unwrap();
    let req = stream_msgs(&drain(&mut a));
    let reply = stream_msgs(&feed_stream(&mut b, addr(1), req[0].1.clone(), now));
    feed_stream(&mut a, addr(2), reply[0].1.clone(), now);

    // "Restart" B: same name and address, new seed → new epoch.
    let mut b2 = SwimNode::new("remote".into(), addr(2), Config::lan(), 777);
    b2.start(Time::ZERO);

    // A's next delta carries a watermark the new instance can't
    // serve: B2 answers with a full push-pull request, and A's full
    // reply completes the bidirectional resync.
    let t2 = now + Duration::from_secs(1);
    a.handle_input(Input::Sync { with: "remote".into() }, t2).unwrap();
    let req2 = stream_msgs(&drain(&mut a));
    assert!(
        matches!(&req2[0].1, Message::PushPullDelta(d) if d.since > 0),
        "warm watermark expected"
    );
    let fallback = stream_msgs(&feed_stream(&mut b2, addr(1), req2[0].1.clone(), t2));
    assert!(
        matches!(&fallback[0].1, Message::PushPull(pp) if !pp.reply),
        "unservable watermark must trigger a full exchange, got {:?}",
        fallback[0].1
    );
    let full_reply = stream_msgs(&feed_stream(&mut a, addr(2), fallback[0].1.clone(), t2));
    assert!(matches!(&full_reply[0].1, Message::PushPull(pp) if pp.reply));
    feed_stream(&mut b2, addr(1), full_reply[0].1.clone(), t2);
    assert_eq!(table_of(&a), table_of(&b2), "full fallback must converge");
}

/// Even when epoch detection cannot notice a restart (the peer
/// came back with the same seed and thus the same epoch), an
/// explicit `since = 0` request overrides the stored ack and is
/// served from scratch — the stale watermark may cost re-sending,
/// never missed entries.
#[test]
fn since_zero_overrides_stale_ack_after_same_epoch_restart() {
    let now = Time::from_secs(1);
    let mut a = new_node(Config::lan());
    let mut b = SwimNode::new("remote".into(), addr(2), Config::lan(), 2);
    b.start(Time::ZERO);
    add_real_peer(&mut a, "remote", 2, now);
    add_peer(&mut a, "p1", 11, now);

    // Warm exchange: A ends up holding local_acked > 0 for B.
    a.handle_input(Input::Sync { with: "remote".into() }, now).unwrap();
    let req = stream_msgs(&drain(&mut a));
    let reply = stream_msgs(&feed_stream(&mut b, addr(1), req[0].1.clone(), now));
    feed_stream(&mut a, addr(2), reply[0].1.clone(), now);

    // "Restart" B with the SAME seed: identical epoch, empty table.
    let mut b2 = SwimNode::new("remote".into(), addr(2), Config::lan(), 2);
    b2.start(Time::ZERO);
    add_real_peer(&mut b2, "local", 1, now);

    // B2's cold request (since = 0) must be answered with A's full
    // table, not just the entries after A's stale ack for old-B.
    let t2 = now + Duration::from_secs(1);
    b2.handle_input(Input::Sync { with: "local".into() }, t2).unwrap();
    let req2 = stream_msgs(&drain(&mut b2));
    let Message::PushPullDelta(d) = &req2[0].1 else { panic!() };
    assert_eq!(d.since, 0);
    let reply2 = stream_msgs(&feed_stream(&mut a, addr(2), req2[0].1.clone(), t2));
    let Message::PushPullDelta(r) = &reply2[0].1 else {
        panic!("expected delta reply, got {:?}", reply2[0].1)
    };
    // From scratch means every member the request did not prove: A
    // holds `local`, `remote` and `p1`, and B2's request carried the
    // first two as `Alive` at the incarnation A holds them.
    let unproved: Vec<&str> = r.entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(
        unproved,
        ["p1"],
        "a since = 0 request must be served from scratch"
    );
    feed_stream(&mut b2, addr(1), reply2[0].1.clone(), t2);
    assert_eq!(table_of(&a), table_of(&b2));
}

/// With delta sync disabled the periodic exchange is the classic
/// full push-pull.
#[test]
fn sync_with_delta_disabled_sends_full_push_pull() {
    let mut cfg = Config::lan();
    cfg.delta_sync = false;
    let mut n = new_node(cfg);
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    n.handle_input(Input::Sync { with: "p".into() }, Time::from_secs(2))
        .unwrap();
    let out = stream_msgs(&drain(&mut n));
    assert!(matches!(&out[0].1, Message::PushPull(pp) if !pp.reply && !pp.join));
}

#[test]
fn poll_output_reclaims_scratch_after_full_drain() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    // Produce some packets (gossip ticks), drain fully, repeat: the
    // scratch arena must not grow without bound.
    let mut high_water = 0;
    for s in 2..30u64 {
        run_until(&mut n, Time::from_secs(s));
        assert!(!n.has_pending_output());
        high_water = high_water.max(n.outbox.arena_capacity());
    }
    assert_eq!(n.outbox.arena_capacity(), high_water);
    assert!(
        high_water <= 16 * lifeguard_proto::DEFAULT_PACKET_BUDGET,
        "scratch arena grew unexpectedly: {high_water}"
    );
}

/// A started node holding `peers` from a bootstrap: nothing queued to
/// gossip about them.
fn idle_node(peers: &[(&str, u8)]) -> SwimNode {
    let mut n = new_node(Config::lan().lifeguard());
    let roster = peers.iter().map(|&(name, i)| (NodeName::from(name), addr(i)));
    n.bootstrap_peers(roster, Time::ZERO);
    n
}

#[test]
fn idle_gossip_loop_parks_until_the_next_probe_round() {
    let mut n = idle_node(&[("p", 2), ("q", 3)]);
    let (gossip, probe) = (n.config().gossip_interval, n.config().probe_interval);
    assert!(probe >= gossip * 3);
    // One probe round (acked) and five gossip intervals with an empty
    // queue: the loop ran once, found nothing to send and parked.
    let sent = run_acked(&mut n, Time::ZERO + probe);
    assert!(sent.iter().all(|(_, msgs)| !is_gossip(msgs)));
    let last_probe = sent.last().map(|&(at, _)| at);
    assert!(last_probe.is_some(), "a probe round must have run");
    assert!(matches!(n.gossip, GossipLoop::Parked { .. }));
    assert_eq!(
        n.next_deadline(),
        last_probe.map(|at| at + probe),
        "the next wake must be the probe round's, not a gossip tick's"
    );
    n.check_invariants();
}

#[test]
fn update_while_parked_gossips_on_the_original_phase_grid() {
    let mut n = idle_node(&[("p", 2), ("q", 3)]);
    let every = n.config().gossip_interval;
    let update = |n: &mut SwimNode, meta: &'static [u8], at: Time| {
        input(n, Input::UpdateMeta { meta: Bytes::from_static(meta) }, at);
    };
    // The first update is sent by the loop's first tick, which shows
    // its phase; the queue then drains and the loop parks.
    update(&mut n, b"v1", Time::ZERO);
    let sent = run_acked(&mut n, Time::from_secs(2));
    let phase = sent.iter().find(|(_, msgs)| is_gossip(msgs)).map(|&(at, _)| at);
    let phase = phase.expect("the first update is gossiped");
    assert!(phase < Time::ZERO + every);
    assert_eq!(n.pending_broadcasts(), 0);
    assert!(matches!(n.gossip, GossipLoop::Parked { .. }));

    // A second update a third of an interval past a grid point: its
    // first gossip packet leaves at the next point of the same grid.
    let at = phase + every * 10 + every / 3;
    run_acked(&mut n, at);
    update(&mut n, b"v2", at);
    n.check_invariants();
    let sent = run_acked(&mut n, at + every * 2);
    let first = sent.iter().find(|(_, msgs)| is_gossip(msgs)).map(|&(at, _)| at);
    assert_eq!(first, Some(phase + every * 11));
}
