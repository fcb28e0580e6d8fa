//! Tests of the anomaly (blocked message I/O) semantics of `SwimNode`
//! (paper §V-D): logic and deadlines keep running, loops execute at most
//! one blocked iteration, and the stuck probe fails at unblock time.
//!
//! Driven entirely through the sans-I/O surface: `Input`s in,
//! `poll_output` drained after every input.

mod common;

use std::time::Duration;

use bytes::Bytes;
use common::*;
use lifeguard_core::config::Config;
use lifeguard_core::driver::OwnedOutput;
use lifeguard_core::event::Event;
use lifeguard_core::node::{Input, SwimNode};
use lifeguard_core::time::Time;
use lifeguard_proto::{compound, Ack, Incarnation, Message, Suspect};

fn set_blocked(n: &mut SwimNode, blocked: bool, now: Time) -> Vec<OwnedOutput> {
    n.handle_input(Input::IoBlocked { blocked }, now)
        .expect("io-blocked input is infallible");
    drain(n)
}

fn count_pings(outputs: &[OwnedOutput]) -> usize {
    outputs
        .iter()
        .filter_map(|o| match o {
            OwnedOutput::Packet { payload, .. } => compound::decode_packet(payload).ok(),
            _ => None,
        })
        .flatten()
        .filter(|m| matches!(m, Message::Ping(_)))
        .count()
}

#[test]
fn blocked_probe_loop_sends_at_most_one_ping() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    // Let a couple of normal rounds pass (they fail, no acks — that's
    // fine, we only count pings here).
    run_until(&mut n, Time::from_secs(3));

    let t_block = Time::from_secs(3);
    set_blocked(&mut n, true, t_block);
    // Over 10 blocked seconds, exactly one probe-round ping may be
    // produced (the stuck one); a healthy loop would have sent ~10.
    let out = run_until(&mut n, t_block + Duration::from_secs(10));
    assert!(
        count_pings(&out) <= 1,
        "blocked probe loop sent {} pings",
        count_pings(&out)
    );
    n.check_invariants();
}

#[test]
fn stuck_probe_fails_and_suspects_at_unblock() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    // Drive until a probe ping is in flight, then block immediately —
    // this pins the "stuck mid-probe" shape regardless of the node's
    // randomized probe phase.
    let mut t = Time::from_secs(1);
    let mut probe_in_flight = false;
    while !probe_in_flight {
        let wake = n.next_deadline().expect("probe timers armed");
        t = wake;
        probe_in_flight = count_pings(&tick(&mut n, wake)) > 0;
    }
    let t_block = t + Duration::from_millis(1);
    set_blocked(&mut n, true, t_block);
    let t_unblock = t_block + Duration::from_secs(8);
    run_until(&mut n, t_unblock);

    // No suspicion can have been raised while blocked (deadline
    // evaluation deferred)...
    assert_ne!(
        n.member(&"p".into()).unwrap().state,
        lifeguard_proto::MemberState::Suspect,
        "suspicion must not fire while the probe loop is stuck"
    );
    // ...but unblocking evaluates the stale deadlines: the stuck probe
    // fails and the target is suspected immediately.
    let out = set_blocked(&mut n, false, t_unblock);
    let suspected = out.iter().any(|o| {
        matches!(o, OwnedOutput::Event(Event::MemberSuspected { name, .. }) if name.as_str() == "p")
    });
    assert!(suspected, "stuck probe must fail and suspect at unblock");
    n.check_invariants();
}

#[test]
fn stale_ack_is_rejected_after_unblock() {
    let mut n = new_node(Config::lan().lifeguard());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    // Capture the ping seq of the next probe round.
    let mut ping_seq = None;
    let mut t = Time::from_secs(1);
    while ping_seq.is_none() {
        let wake = n.next_deadline().unwrap();
        t = wake;
        for o in tick(&mut n, wake) {
            if let OwnedOutput::Packet { payload, .. } = o {
                for m in compound::decode_packet(&payload).unwrap() {
                    if let Message::Ping(p) = m {
                        ping_seq = Some(p.seq);
                    }
                }
            }
        }
    }
    // Block right after the ping went out; the ack "arrives" (is
    // queued by the runtime) but is only processed after unblock,
    // long past the round end.
    set_blocked(&mut n, true, t + Duration::from_millis(1));
    let t_unblock = t + Duration::from_secs(6);
    run_until(&mut n, t_unblock);
    let health_before = n.local_health();
    set_blocked(&mut n, false, t_unblock);
    feed(
        &mut n,
        addr(2),
        Message::Ack(Ack {
            seq: ping_seq.unwrap(),
        }),
        t_unblock + Duration::from_millis(1),
    );
    // The stale ack must not count as a successful probe (LHM must not
    // improve from it).
    assert!(
        n.local_health() >= health_before,
        "stale ack improved local health"
    );
    n.check_invariants();
}

#[test]
fn ack_while_blocked_drops_the_deferred_deadlines() {
    // An ack handed to a blocked node before the round end completes
    // the probe in flight. Its timeout already came due while blocked
    // and waits to re-fire at unblock; the ack must take it back, or
    // the re-fire finds no probe in flight.
    let mut n = new_node(Config::lan().lifeguard());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    let mut ping_seq = None;
    let mut t = Time::from_secs(1);
    while ping_seq.is_none() {
        let wake = n.next_deadline().expect("probe timers armed");
        t = wake;
        ping_seq = packets(&tick(&mut n, wake))
            .into_iter()
            .flat_map(|(_, msgs)| msgs)
            .find_map(|m| match m {
                Message::Ping(p) => Some(p.seq),
                _ => None,
            });
    }
    set_blocked(&mut n, true, t + Duration::from_millis(1));
    // Past the 500 ms probe timeout (deferred), short of the 1 s round
    // end.
    let t_ack = t + Duration::from_millis(700);
    run_until(&mut n, t_ack);
    let seq = ping_seq.expect("a ping went out");
    feed(&mut n, addr(2), Message::Ack(Ack { seq }), t_ack);
    n.check_invariants();

    let t_unblock = t + Duration::from_secs(3);
    let out = set_blocked(&mut n, false, t_unblock);
    assert!(
        !out.iter().any(|o| {
            matches!(o, OwnedOutput::Event(Event::MemberSuspected { name, .. }) if name.as_str() == "p")
        }),
        "an acked probe must not fail at unblock"
    );
    n.check_invariants();
    run_until(&mut n, t_unblock + Duration::from_secs(3));
    n.check_invariants();
}

#[test]
fn suspicion_expiry_fires_during_block() {
    // A suspicion raised *before* the block keeps its timer running and
    // declares the member dead mid-anomaly (the agent's logs record
    // failures it declared while slow — paper's FP accounting).
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    feed(
        &mut n,
        addr(3),
        Message::Suspect(Suspect {
            incarnation: Incarnation(1),
            node: "p".into(),
            from: "accuser".into(),
        }),
        Time::from_secs(2),
    );
    set_blocked(&mut n, true, Time::from_millis(2500));
    // SWIM timeout for n=2 live is 5 s; run well past it while blocked.
    let out = run_until(&mut n, Time::from_secs(12));
    let failed = out
        .iter()
        .any(|o| matches!(o, OwnedOutput::Event(e) if e.is_failure()));
    assert!(failed, "suspicion expiry must fire during the block");
    n.check_invariants();
}

#[test]
fn blocked_gossip_tick_runs_once() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    // Ensure there is something to gossip.
    assert!(n.pending_broadcasts() > 0);
    set_blocked(&mut n, true, Time::from_millis(1100));
    let out = run_until(&mut n, Time::from_secs(6));
    // Gossip ticks every 200 ms; blocked: only the first sends.
    let gossip_packets = out
        .iter()
        .filter(|o| matches!(o, OwnedOutput::Packet { .. }))
        .count();
    assert!(
        gossip_packets <= n.config().gossip_nodes + 1,
        "blocked gossip loop kept sending: {gossip_packets} packets"
    );
    n.check_invariants();
}

#[test]
fn unblock_refires_deferred_and_armed_timers_in_deadline_order() {
    // Regression: deferred timers used to be fired as an isolated batch
    // at unblock, so timers armed while blocked (gossip ticks, probe
    // rounds) — even ones due *before* the unblock instant — were left
    // for a later tick. The wheel re-injects the deferred timers at
    // their original deadlines and drains everything due, so the
    // catch-up output interleaves both in global deadline order.
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    // Drive until a probe ping is in flight, then block.
    let mut t = Time::from_secs(1);
    let mut probe_in_flight = false;
    while !probe_in_flight {
        let wake = n.next_deadline().expect("probe timers armed");
        t = wake;
        probe_in_flight = count_pings(&tick(&mut n, wake)) > 0;
    }
    let t_block = t + Duration::from_millis(1);
    set_blocked(&mut n, true, t_block);
    // Tick through the probe timeout and round end: both deferred. The
    // gossip loop keeps re-arming itself (deadlines after the deferred
    // probe deadlines) but is stuck after its one blocked send.
    run_until(&mut n, t_block + Duration::from_secs(2));
    // Unblock well past everything, without any further ticks.
    let t_unblock = t_block + Duration::from_secs(8);
    let out = set_blocked(&mut n, false, t_unblock);

    // The deferred round end (deadline ~t+1 s) fails the probe and
    // suspects "p"...
    let suspected_at = out.iter().position(|o| {
        matches!(o, OwnedOutput::Event(Event::MemberSuspected { name, .. }) if name.as_str() == "p")
    });
    let suspected_at = suspected_at.expect("stuck probe must fail and suspect at unblock");
    // ...and the gossip tick armed while blocked (deadline ~t+2.2 s)
    // re-fires *after it, in the same catch-up*, spreading the freshly
    // queued suspect message. The old deferred-only refire produced no
    // such packet from the unblock input at all.
    let gossiped_suspect = out[suspected_at..].iter().any(|o| match o {
        OwnedOutput::Packet { payload, .. } => compound::decode_packet(payload)
            .unwrap()
            .iter()
            .any(|m| matches!(m, Message::Suspect(s) if s.node.as_str() == "p")),
        _ => false,
    });
    assert!(
        gossiped_suspect,
        "catch-up must interleave the armed gossip tick after the deferred probe failure"
    );
    n.check_invariants();
}

#[test]
fn deferred_refire_survives_coinciding_probe_deadlines() {
    // Edge timing: probe timeout == probe interval (the most extreme
    // shape Config::validate admits — truly inverted deadlines are now
    // rejected at construction), so the deferred timeout and round end
    // share one deadline. Both defer while blocked; at unblock they
    // re-fire in original order and the round end consumes the probe —
    // the re-injected sibling timer must be truly cancelled with it,
    // not reach its handler stale (which would trip the no-stale-fire
    // assertions in debug builds).
    let mut cfg = Config::lan();
    cfg.probe_timeout = cfg.probe_interval;
    let mut n = new_node(cfg);
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    let mut t = Time::from_secs(1);
    let mut probe_in_flight = false;
    while !probe_in_flight {
        let wake = n.next_deadline().expect("probe timers armed");
        t = wake;
        probe_in_flight = count_pings(&tick(&mut n, wake)) > 0;
    }
    let t_block = t + Duration::from_millis(1);
    set_blocked(&mut n, true, t_block);
    // Past both the round end and the coinciding timeout (t+1 s).
    run_until(&mut n, t_block + Duration::from_secs(3));
    let out = set_blocked(&mut n, false, t_block + Duration::from_secs(8));
    assert!(
        out.iter().any(|o| {
            matches!(o, OwnedOutput::Event(Event::MemberSuspected { name, .. }) if name.as_str() == "p")
        }),
        "stuck probe must still fail and suspect at unblock"
    );
    n.check_invariants();
}

#[test]
fn unblock_is_idempotent_and_resets_loops() {
    let mut n = new_node(Config::lan());
    add_peer(&mut n, "p", 2, Time::from_secs(1));
    assert!(!n.is_io_blocked());
    set_blocked(&mut n, true, Time::from_secs(2));
    assert!(n.is_io_blocked());
    // Double-block is a no-op.
    assert!(set_blocked(&mut n, true, Time::from_secs(2)).is_empty());
    set_blocked(&mut n, false, Time::from_secs(4));
    assert!(!n.is_io_blocked());
    assert!(set_blocked(&mut n, false, Time::from_secs(4)).is_empty());
    // After unblocking, the loops resume: pings flow again.
    let out = run_until(&mut n, Time::from_secs(10));
    assert!(count_pings(&out) >= 2, "probe loop did not resume");
    n.check_invariants();
}

#[test]
fn block_while_gossip_is_parked_still_spends_the_blocked_iteration() {
    // Bootstrapped peers and acked probes: nothing to gossip, so the
    // gossip loop is parked when the block begins.
    let mut n = new_node(Config::lan());
    let peers = [("p".into(), addr(2)), ("q".into(), addr(3))];
    n.bootstrap_peers(peers, Time::ZERO);
    let t_block = Time::from_secs(2);
    run_acked(&mut n, t_block);
    assert_eq!(n.pending_broadcasts(), 0);
    set_blocked(&mut n, true, t_block);
    n.check_invariants();

    // The block wakes the loop for its one blocked iteration, which
    // finds nothing to send; a broadcast enqueued after it waits for
    // the unblock, exactly as if the loop had never parked.
    let every = n.config().gossip_interval;
    let t_update = t_block + every * 2;
    let mut out = run_until(&mut n, t_update);
    let meta = Bytes::from_static(b"v2");
    out.extend(input(&mut n, Input::UpdateMeta { meta }, t_update));
    let t_unblock = t_block + Duration::from_secs(3);
    out.extend(run_until(&mut n, t_unblock));
    let gossip = |out: &[OwnedOutput]| {
        let packets = packets(out);
        packets
            .into_iter()
            .filter(|(_, msgs)| is_gossip(msgs))
            .collect::<Vec<_>>()
    };
    assert!(
        gossip(&out).is_empty(),
        "a stuck gossip loop sent while blocked"
    );
    n.check_invariants();

    // Unblocked, the loop sends the update on its next tick.
    let mut out = set_blocked(&mut n, false, t_unblock);
    out.extend(run_until(&mut n, t_unblock + every));
    let update_sent = gossip(&out).iter().any(|(_, msgs)| {
        msgs.iter()
            .any(|m| matches!(m, Message::Alive(a) if a.node.as_str() == "local"))
    });
    assert!(update_sent, "the update was not gossiped after the unblock");
    n.check_invariants();
}
