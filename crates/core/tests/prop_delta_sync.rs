//! Model-agreement property suite for delta anti-entropy.
//!
//! Two live `SwimNode`s are driven through a random churn script
//! (gossiped `alive`/`suspect`/`dead` facts about synthetic third
//! nodes, applied to either side) interleaved with scripted push-pull
//! exchanges in both orderings, including exchanges whose reply is
//! dropped in flight. The whole script is then replayed against the
//! full-state reference (`delta_sync = false`, i.e. today's `PushPull`
//! wire exchange) and, after a final fault-free convergence phase, each
//! node's membership table must be **byte-identical** between the delta
//! run and the full-state run — delta sync may change what travels on
//! the wire, never what anybody concludes.
//!
//! (The two *nodes* of one run are not required to be byte-identical to
//! each other: memberlist's dead→suspect downgrade is deliberately
//! asymmetric at equal incarnations, for full-state sync just as much
//! as for delta sync. The suite also pins that pairwise agreement on
//! the delta run matches pairwise agreement on the full run.)

use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;

use lifeguard_core::config::Config;
use lifeguard_core::driver::OwnedOutput;
use lifeguard_core::node::{Input, SwimNode};
use lifeguard_core::time::Time;
use lifeguard_proto::{codec, Alive, Dead, Incarnation, Message, NodeAddr, Suspect};

fn a_addr() -> NodeAddr {
    NodeAddr::new([10, 0, 0, 1], 7946)
}

fn b_addr() -> NodeAddr {
    NodeAddr::new([10, 0, 0, 2], 7946)
}

/// Source address for injected churn gossip (outside the pair).
fn gossip_addr() -> NodeAddr {
    NodeAddr::new([10, 0, 9, 9], 7946)
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Gossip `alive(node-i, inc)` to one side.
    Alive { i: usize, inc: u64, to_a: bool },
    /// Gossip `suspect(node-i, inc)` to one side.
    Suspect { i: usize, inc: u64, to_a: bool },
    /// Gossip `dead(node-i, inc)` to one side.
    Dead { i: usize, inc: u64, to_a: bool },
    /// One push-pull exchange; `a_initiates` covers both orderings and
    /// `drop_reply` loses every message after the request leg.
    Exchange { a_initiates: bool, drop_reply: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0..6u8, 0..6usize, 0..4u64, any::<bool>(), any::<bool>()).prop_map(
        |(kind, i, inc, flag, flag2)| match kind {
            0 => Op::Alive { i, inc, to_a: flag },
            1 => Op::Suspect { i, inc, to_a: flag },
            2 => Op::Dead { i, inc, to_a: flag },
            // Exchanges get extra weight so scripts interleave sync and
            // churn rather than churning first and syncing once.
            _ => Op::Exchange {
                a_initiates: flag,
                drop_reply: flag2,
            },
        },
    )
}

fn synth_addr(i: usize) -> NodeAddr {
    NodeAddr::new([10, 0, 1, i as u8], 7946)
}

fn feed_datagram(n: &mut SwimNode, msg: &Message, now: Time) {
    n.handle_input(
        Input::Datagram {
            from: gossip_addr(),
            payload: codec::encode_message(msg),
        },
        now,
    )
    .expect("well-formed gossip");
    while n.poll_output().is_some() {}
}

fn stream_out(n: &mut SwimNode) -> Vec<(NodeAddr, Message)> {
    let mut msgs = Vec::new();
    while let Some(o) = n.poll_output() {
        if let OwnedOutput::Stream { to, msg } = OwnedOutput::from(o) {
            msgs.push((to, msg));
        }
    }
    msgs
}

/// Runs one exchange initiated by `init` toward `resp`, ping-ponging
/// stream messages until quiet (the full-sync fallback takes three
/// legs: delta request → full request → full reply). With `drop_reply`
/// everything after the request leg is lost in flight.
fn exchange(
    init: &mut SwimNode,
    resp: &mut SwimNode,
    resp_name: &str,
    drop_reply: bool,
    now: Time,
) {
    init.handle_input(
        Input::Sync {
            with: resp_name.into(),
        },
        now,
    )
    .expect("sync is infallible");
    let mut inbox = stream_out(init);
    let mut to_responder = true;
    for _leg in 0..6 {
        if inbox.is_empty() {
            return;
        }
        let (sender_addr, receiver) = if to_responder {
            (init.addr(), &mut *resp)
        } else {
            (resp.addr(), &mut *init)
        };
        for (_to, msg) in std::mem::take(&mut inbox) {
            receiver
                .handle_input(
                    Input::Stream {
                        from: sender_addr,
                        msg,
                    },
                    now,
                )
                .expect("stream is infallible");
        }
        if drop_reply {
            // The request leg was delivered; every response leg is lost.
            while receiver.poll_output().is_some() {}
            return;
        }
        inbox = stream_out(receiver);
        to_responder = !to_responder;
    }
    panic!("exchange did not quiesce within 6 legs");
}

/// The byte-comparable essence of a membership table: every member's
/// push-pull wire encoding, sorted.
fn table_bytes(n: &SwimNode) -> Vec<Vec<u8>> {
    let mut rows: Vec<Vec<u8>> = n
        .members()
        .map(|m| {
            let st = m.to_push_state();
            let msg = Message::PushPull(lifeguard_proto::PushPull {
                join: false,
                reply: false,
                states: vec![st],
            });
            codec::encode_message(&msg).to_vec()
        })
        .collect();
    rows.sort();
    rows
}

/// Replays `script` on a fresh A/B pair and returns both final tables.
/// `delta` toggles incremental vs full-state (reference) anti-entropy;
/// everything else — seeds, inputs, timing — is identical.
fn run_script(script: &[Op], delta: bool) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut cfg = Config::lan();
    cfg.delta_sync = delta;
    let mut a = SwimNode::new("a".into(), a_addr(), cfg.clone(), 1);
    let mut b = SwimNode::new("b".into(), b_addr(), cfg, 2);
    a.start(Time::ZERO);
    b.start(Time::ZERO);
    // Each side learns the other at its true incarnation (0).
    let about_b = Message::Alive(Alive {
        incarnation: Incarnation::ZERO,
        node: "b".into(),
        addr: b_addr(),
        meta: Bytes::new(),
    });
    let about_a = Message::Alive(Alive {
        incarnation: Incarnation::ZERO,
        node: "a".into(),
        addr: a_addr(),
        meta: Bytes::new(),
    });
    feed_datagram(&mut a, &about_b, Time::ZERO);
    feed_datagram(&mut b, &about_a, Time::ZERO);

    let mut now = Time::from_secs(1);
    for op in script {
        now += Duration::from_secs(1);
        match *op {
            Op::Alive { i, inc, to_a } => {
                let msg = Message::Alive(Alive {
                    incarnation: Incarnation(inc),
                    node: format!("node-{i}").into(),
                    addr: synth_addr(i),
                    meta: Bytes::new(),
                });
                feed_datagram(if to_a { &mut a } else { &mut b }, &msg, now);
            }
            Op::Suspect { i, inc, to_a } => {
                let msg = Message::Suspect(Suspect {
                    incarnation: Incarnation(inc),
                    node: format!("node-{i}").into(),
                    from: "accuser".into(),
                });
                feed_datagram(if to_a { &mut a } else { &mut b }, &msg, now);
            }
            Op::Dead { i, inc, to_a } => {
                let msg = Message::Dead(Dead {
                    incarnation: Incarnation(inc),
                    node: format!("node-{i}").into(),
                    from: "accuser".into(),
                });
                feed_datagram(if to_a { &mut a } else { &mut b }, &msg, now);
            }
            Op::Exchange {
                a_initiates,
                drop_reply,
            } => {
                if a_initiates {
                    exchange(&mut a, &mut b, "b", drop_reply, now);
                } else {
                    exchange(&mut b, &mut a, "a", drop_reply, now);
                }
            }
        }
    }

    // Fault-free convergence phase: two exchanges per direction flush
    // every unacked watermark and reach the merge fixpoint.
    for _ in 0..2 {
        now += Duration::from_secs(1);
        exchange(&mut a, &mut b, "b", false, now);
        now += Duration::from_secs(1);
        exchange(&mut b, &mut a, "a", false, now);
    }
    (table_bytes(&a), table_bytes(&b))
}

proptest! {
    /// Delta anti-entropy concludes byte-for-byte what full-state
    /// anti-entropy concludes, for random churn scripts, both exchange
    /// orderings, and dropped replies.
    #[test]
    fn delta_sync_agrees_with_full_state_reference(
        script in proptest::collection::vec(op_strategy(), 1..32)
    ) {
        let (a_delta, b_delta) = run_script(&script, true);
        let (a_full, b_full) = run_script(&script, false);
        prop_assert_eq!(&a_delta, &a_full, "node A diverged from the full-state reference");
        prop_assert_eq!(&b_delta, &b_full, "node B diverged from the full-state reference");
        // Pairwise agreement must be preserved as well: whenever the
        // full-state runs agree across nodes, so do the delta runs.
        prop_assert_eq!(a_full == b_full, a_delta == b_delta);
    }
}

/// Deterministic pin: a script with churn on both sides and a dropped
/// reply converges to the exact same tables as full-state sync.
#[test]
fn dropped_reply_script_pins_equivalence() {
    let script = [
        Op::Alive {
            i: 0,
            inc: 1,
            to_a: true,
        },
        Op::Alive {
            i: 1,
            inc: 1,
            to_a: false,
        },
        Op::Exchange {
            a_initiates: true,
            drop_reply: true,
        },
        Op::Suspect {
            i: 0,
            inc: 1,
            to_a: false,
        },
        Op::Dead {
            i: 1,
            inc: 1,
            to_a: true,
        },
        Op::Exchange {
            a_initiates: false,
            drop_reply: false,
        },
        Op::Alive {
            i: 2,
            inc: 3,
            to_a: true,
        },
        Op::Exchange {
            a_initiates: true,
            drop_reply: false,
        },
    ];
    let (a_delta, b_delta) = run_script(&script, true);
    let (a_full, b_full) = run_script(&script, false);
    assert_eq!(a_delta, a_full);
    assert_eq!(b_delta, b_full);
    assert_eq!(a_full == b_full, a_delta == b_delta);
}
