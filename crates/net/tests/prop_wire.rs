//! Fuzz-style properties for the wire-facing paths: arbitrary and
//! mutated bytes through the stream frame decoder and the datagram
//! handling path must never panic (clippy denies every panicking call,
//! index, slice and division in `proto` and `net`; this exercises that
//! guarantee with input).

use lifeguard_core::config::Config;
use lifeguard_core::driver::{Driver, Sink};
use lifeguard_core::event::Event;
use lifeguard_core::node::SwimNode;
use lifeguard_core::time::Time;
use lifeguard_net::transport::{encode_frame, FrameDecoder};
use lifeguard_proto::{codec, Message, NodeAddr, NodeName, Ping, SeqNo};
use proptest::prelude::*;

/// A sink that swallows every effect — only reachability (no panic)
/// is under test here.
struct NullSink;

impl Sink for NullSink {
    fn transmit(&mut self, _to: NodeAddr, _payload: &[u8]) {}
    fn stream(&mut self, _to: NodeAddr, _msg: Message) {}
    fn event(&mut self, _event: Event) {}
}

fn started_driver() -> Driver {
    let node = SwimNode::new(
        NodeName::from("fuzz"),
        NodeAddr::new([127, 0, 0, 1], 7946),
        Config::lan().lifeguard(),
        7,
    );
    let mut driver = Driver::new(node);
    driver.start(Time::ZERO, &mut NullSink);
    driver
}

fn valid_frame() -> Vec<u8> {
    let msg = Message::Ping(Ping {
        seq: SeqNo(9),
        target: NodeName::from("peer"),
        source: NodeName::from("fuzz"),
        source_addr: NodeAddr::new([10, 0, 0, 1], 7946),
    });
    encode_frame(NodeAddr::new([10, 0, 0, 1], 7946), &msg)
}

proptest! {
    /// Arbitrary bytes through the datagram path: decode errors are
    /// fine, panics are not — and the driver must stay usable.
    #[test]
    fn random_datagrams_never_panic(payload in proptest::collection::vec(any::<u8>(), 0..1500)) {
        let mut driver = started_driver();
        let from = NodeAddr::new([192, 0, 2, 1], 9000);
        let _ = driver.handle_datagram_slice(from, &payload, Time::ZERO, &mut NullSink);
        // Still alive: a well-formed message afterwards is handled.
        let ping = codec::encode_message(&Message::Ping(Ping {
            seq: SeqNo(1),
            target: NodeName::from("fuzz"),
            source: NodeName::from("peer"),
            source_addr: from,
        }));
        let res = driver.handle_datagram_slice(from, &ping, Time::ZERO, &mut NullSink);
        prop_assert!(res.is_ok());
    }

    /// A valid encoded message with one byte flipped: worst case a
    /// decode error, never a panic.
    #[test]
    fn mutated_messages_never_panic(flip_at in 0usize..64, flip_to in any::<u8>()) {
        let mut bytes: Vec<u8> = codec::encode_message(&Message::Ping(Ping {
            seq: SeqNo(3),
            target: NodeName::from("a-target-name"),
            source: NodeName::from("a-source-name"),
            source_addr: NodeAddr::new([192, 0, 2, 2], 9000),
        }))
        .to_vec();
        if flip_at < bytes.len() {
            bytes[flip_at] = flip_to;
        }
        let mut driver = started_driver();
        let from = NodeAddr::new([192, 0, 2, 2], 9000);
        let _ = driver.handle_datagram_slice(from, &bytes, Time::ZERO, &mut NullSink);
    }

    /// Arbitrary bytes through the stream frame decoder, fed in
    /// arbitrary chunk sizes: errors allowed, panics not.
    #[test]
    fn random_stream_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
        chunk in 1usize..128,
    ) {
        let mut dec = FrameDecoder::new();
        for piece in bytes.chunks(chunk) {
            dec.feed(piece);
            // Drain until the decoder wants more input or errors; an
            // error poisons nothing (the caller drops the connection).
            loop {
                match dec.decode() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => return Ok(()),
                }
            }
        }
    }

    /// A valid frame with one header/body byte flipped, then the
    /// pristine frame again: the decoder either recovers a message or
    /// errors, and never panics mid-stream.
    #[test]
    fn mutated_frames_never_panic(flip_at in 0usize..64, flip_to in any::<u8>()) {
        let mut frame = valid_frame();
        if flip_at < frame.len() {
            frame[flip_at] = flip_to;
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        // Errored: a fresh decoder must still handle a clean frame
        // (connection-per-decoder, like the runtime does it). An Ok
        // means the flip was benign (e.g. in the sender address).
        if dec.decode().is_err() {
            let mut fresh = FrameDecoder::new();
            fresh.feed(&valid_frame());
            prop_assert!(matches!(fresh.decode(), Ok(Some(_))));
        }
    }
}
