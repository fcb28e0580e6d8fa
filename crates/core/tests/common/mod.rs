//! The node test kit: one local `SwimNode` driven through the sans-I/O
//! surface — `Input`s in, `poll_output` drained after every input.
//! Shared by every test file here and by the node's unit tests
//! (`src/node/tests/mod.rs`), so no binary uses all of it.
#![allow(dead_code, reason = "each test binary uses a different part of the kit")]

use bytes::Bytes;
use lifeguard_core::config::Config;
use lifeguard_core::driver::OwnedOutput;
use lifeguard_core::event::Event;
use lifeguard_core::node::{Input, SwimNode};
use lifeguard_core::time::Time;
use lifeguard_proto::{codec, compound, Ack, Alive, Incarnation, Message, NodeAddr};

pub fn addr(i: u8) -> NodeAddr {
    NodeAddr::new([10, 0, 0, i], 7946)
}

/// A started node named `local` at `addr(1)`.
pub fn new_node(cfg: Config) -> SwimNode {
    let mut n = SwimNode::new("local".into(), addr(1), cfg, 1);
    n.start(Time::ZERO);
    n
}

/// Drains the node's output queue into owned outputs.
pub fn drain(n: &mut SwimNode) -> Vec<OwnedOutput> {
    let mut out = Vec::new();
    while let Some(o) = n.poll_output() {
        out.push(OwnedOutput::from(o));
    }
    out
}

/// Feeds one input and drains the effects.
pub fn input(n: &mut SwimNode, input: Input, now: Time) -> Vec<OwnedOutput> {
    n.handle_input(input, now).expect("well-formed test input");
    drain(n)
}

/// Delivers one message as a (real, encoded) datagram.
pub fn feed(n: &mut SwimNode, from: NodeAddr, msg: Message, now: Time) -> Vec<OwnedOutput> {
    let payload = codec::encode_message(&msg);
    input(n, Input::Datagram { from, payload }, now)
}

/// Delivers one stream message.
pub fn feed_stream(n: &mut SwimNode, from: NodeAddr, msg: Message, now: Time) -> Vec<OwnedOutput> {
    input(n, Input::Stream { from, msg }, now)
}

/// Fires timers due at `now`.
pub fn tick(n: &mut SwimNode, now: Time) -> Vec<OwnedOutput> {
    input(n, Input::Tick, now)
}

/// Runs the node's timers up to `until`, collecting outputs.
pub fn run_until(n: &mut SwimNode, until: Time) -> Vec<OwnedOutput> {
    let mut out = Vec::new();
    while let Some(wake) = n.next_deadline() {
        if wake > until {
            break;
        }
        out.extend(tick(n, wake));
    }
    out
}

/// Runs the node's timers up to `until` with every ping answered at
/// once by its target, so probes succeed and raise nothing to gossip.
/// Returns each packet the node sent, decoded, with the instant it left.
pub fn run_acked(n: &mut SwimNode, until: Time) -> Vec<(Time, Vec<Message>)> {
    let mut sent = Vec::new();
    while let Some(wake) = n.next_deadline().filter(|&wake| wake <= until) {
        for (to, msgs) in packets(&tick(n, wake)) {
            if let Some(Message::Ping(ping)) = msgs.first() {
                feed(n, to, Message::Ack(Ack { seq: ping.seq }), wake);
            }
            sent.push((wake, msgs));
        }
    }
    sent
}

/// Whether `msgs` is a packet of the gossip loop: broadcasts only, no
/// probe traffic they ride on.
pub fn is_gossip(msgs: &[Message]) -> bool {
    msgs.iter()
        .all(|m| matches!(m, Message::Alive(_) | Message::Suspect(_) | Message::Dead(_)))
}

/// Registers `name` (not known yet) as an alive peer at `addr(i)` via
/// an alive message at incarnation 1.
pub fn add_peer(n: &mut SwimNode, name: &str, i: u8, now: Time) {
    let alive = Message::Alive(Alive {
        incarnation: Incarnation(1),
        node: name.into(),
        addr: addr(i),
        meta: Bytes::new(),
    });
    let joined = feed(n, addr(i), alive, now)
        .iter()
        .any(|o| matches!(o, OwnedOutput::Event(Event::MemberJoined { .. })));
    assert!(joined, "{name} was already a member");
}

/// The decoded messages of every packet in `outputs`, by destination.
pub fn packets(outputs: &[OwnedOutput]) -> Vec<(NodeAddr, Vec<Message>)> {
    outputs
        .iter()
        .filter_map(|o| match o {
            OwnedOutput::Packet { to, payload } => {
                Some((*to, compound::decode_packet(payload).unwrap()))
            }
            _ => None,
        })
        .collect()
}
