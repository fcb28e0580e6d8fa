//! Property tests for the wire codec and compound packing.

use bytes::Bytes;
use proptest::prelude::*;

use lifeguard_proto::compound::{
    decode_packet, for_each_view, CompoundBuilder, MAX_COMPOUND_PARTS,
};
use lifeguard_proto::{
    codec, Ack, Alive, DatagramView, Dead, DecodeError, Incarnation, IndirectPing, MemberState,
    Message, Nack, NodeAddr, NodeName, Ping, PushNodeState, PushPull, PushPullDelta, SeqNo,
    Suspect,
};

/// Finishes `b` into a fresh buffer of its own.
fn finish(b: &mut CompoundBuilder) -> Option<Vec<u8>> {
    let mut packet = Vec::new();
    b.finish_into(&mut packet).map(|_| packet)
}

fn name_strategy() -> impl Strategy<Value = NodeName> {
    "[a-z0-9_.-]{1,24}".prop_map(|s| NodeName::from(s.as_str()))
}

fn addr_strategy() -> impl Strategy<Value = NodeAddr> {
    prop_oneof![
        (any::<[u8; 4]>(), any::<u16>()).prop_map(|(ip, port)| NodeAddr::new(ip, port)),
        (any::<[u8; 16]>(), any::<u16>()).prop_map(|(ip, port)| {
            NodeAddr::from(std::net::SocketAddr::new(std::net::IpAddr::from(ip), port))
        }),
    ]
}

fn meta_strategy() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..64).prop_map(Bytes::from)
}

fn state_strategy() -> impl Strategy<Value = MemberState> {
    prop_oneof![
        Just(MemberState::Alive),
        Just(MemberState::Suspect),
        Just(MemberState::Dead),
        Just(MemberState::Left),
    ]
}

/// The first and last value of every LEB128 width that the message
/// fields reach: one byte up to 127, two up to 16 383, three up to
/// 2²¹ - 1, five for `u32::MAX`, ten for `u64::MAX`.
const VARINT_EDGES: [u64; 8] = [
    0,
    127,
    128,
    16_383,
    16_384,
    1 << 21,
    u32::MAX as u64,
    u64::MAX,
];

/// An incarnation or watermark: an edge of a varint width, or a value
/// of a random width.
fn varint_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0..VARINT_EDGES.len()).prop_map(|i| VARINT_EDGES[i]),
        (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift),
    ]
}

/// A sequence number: the edges that fit a `u32`, or a random width.
fn seq_strategy() -> impl Strategy<Value = SeqNo> {
    varint_strategy().prop_map(|v| SeqNo(u32::try_from(v).unwrap_or(u32::MAX)))
}

fn push_state_strategy() -> impl Strategy<Value = PushNodeState> {
    (
        name_strategy(),
        addr_strategy(),
        varint_strategy(),
        state_strategy(),
        meta_strategy(),
    )
        .prop_map(|(name, addr, inc, state, meta)| PushNodeState {
            name,
            addr,
            incarnation: Incarnation(inc),
            state,
            meta,
        })
}

fn message_strategy() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            seq_strategy(),
            name_strategy(),
            name_strategy(),
            addr_strategy()
        )
            .prop_map(|(seq, target, source, source_addr)| Message::Ping(Ping {
                seq,
                target,
                source,
                source_addr,
            })),
        (
            seq_strategy(),
            name_strategy(),
            addr_strategy(),
            any::<bool>(),
            name_strategy(),
            addr_strategy()
        )
            .prop_map(|(seq, target, target_addr, nack, source, source_addr)| {
                Message::IndirectPing(IndirectPing {
                    seq,
                    target,
                    target_addr,
                    nack,
                    source,
                    source_addr,
                })
            }),
        seq_strategy().prop_map(|seq| Message::Ack(Ack { seq })),
        seq_strategy().prop_map(|seq| Message::Nack(Nack { seq })),
        (varint_strategy(), name_strategy(), name_strategy()).prop_map(|(inc, node, from)| {
            Message::Suspect(Suspect {
                incarnation: Incarnation(inc),
                node,
                from,
            })
        }),
        (
            varint_strategy(),
            name_strategy(),
            addr_strategy(),
            meta_strategy()
        )
            .prop_map(|(inc, node, addr, meta)| Message::Alive(Alive {
                incarnation: Incarnation(inc),
                node,
                addr,
                meta,
            })),
        (varint_strategy(), name_strategy(), name_strategy()).prop_map(|(inc, node, from)| {
            Message::Dead(Dead {
                incarnation: Incarnation(inc),
                node,
                from,
            })
        }),
        (
            any::<bool>(),
            any::<bool>(),
            proptest::collection::vec(push_state_strategy(), 0..8)
        )
            .prop_map(|(join, reply, states)| Message::PushPull(PushPull {
                join,
                reply,
                states
            })),
        (
            name_strategy(),
            any::<u64>(),
            any::<u64>(),
            (varint_strategy(), varint_strategy(), any::<bool>()),
            proptest::collection::vec(push_state_strategy(), 0..8)
        )
            .prop_map(|(from, epoch, since_epoch, (since, seq, reply), entries)| {
                Message::PushPullDelta(PushPullDelta {
                    from,
                    epoch,
                    since_epoch,
                    since,
                    seq,
                    reply,
                    entries,
                })
            }),
    ]
}

/// The owned message a view stands for.
fn owned(view: DatagramView<'_>) -> Message {
    match view {
        DatagramView::Ping {
            seq,
            target,
            source,
            source_addr,
        } => Message::Ping(Ping {
            seq,
            target: target.into(),
            source: source.into(),
            source_addr,
        }),
        DatagramView::IndirectPing {
            seq,
            target,
            target_addr,
            nack,
            source,
            source_addr,
        } => Message::IndirectPing(IndirectPing {
            seq,
            target: target.into(),
            target_addr,
            nack,
            source: source.into(),
            source_addr,
        }),
        DatagramView::Ack { seq } => Message::Ack(Ack { seq }),
        DatagramView::Nack { seq } => Message::Nack(Nack { seq }),
        DatagramView::Suspect {
            incarnation,
            node,
            from,
        } => Message::Suspect(Suspect {
            incarnation,
            node: node.into(),
            from: from.into(),
        }),
        DatagramView::Alive {
            incarnation,
            node,
            addr,
            meta,
        } => Message::Alive(Alive {
            incarnation,
            node: node.into(),
            addr,
            meta: Bytes::copy_from_slice(meta),
        }),
        DatagramView::Dead {
            incarnation,
            node,
            from,
        } => Message::Dead(Dead {
            incarnation,
            node: node.into(),
            from: from.into(),
        }),
    }
}

/// A packet through the view walker, which must hand out no view at
/// all for a packet it refuses.
fn through_views(bytes: &[u8]) -> Result<Vec<Message>, DecodeError> {
    let mut msgs = Vec::new();
    let checked = for_each_view(bytes, |view| msgs.push(owned(view)));
    assert!(
        checked.is_ok() || msgs.is_empty(),
        "a view of a refused packet"
    );
    checked.map(|()| msgs)
}

/// The same packet through the owned reference decoder, less the
/// stream-only messages, which are checked but have no view.
fn through_owned(bytes: &[u8]) -> Result<Vec<Message>, DecodeError> {
    let mut msgs = decode_packet(bytes)?;
    msgs.retain(|m| !matches!(m, Message::PushPull(_) | Message::PushPullDelta(_)));
    Ok(msgs)
}

/// Names from empty to past the inline limit of 14 bytes: ASCII up to
/// 20 bytes, and up to 36 bytes of one- to four-byte characters, whose
/// boundaries fall on every side of byte 14.
fn raw_name_strategy() -> impl Strategy<Value = String> {
    prop_oneof!["[a-z0-9.-]{0,20}", "[aé€😀]{0,9}"]
}

fn hash_of(x: impl std::hash::Hash, keys: &std::hash::RandomState) -> u64 {
    std::hash::BuildHasher::hash_one(keys, x)
}

/// `a` and `b` as names behave as they do as `&str`s: the same bytes
/// back, the same equality, order and hash, whichever constructor made
/// them, and the codec carries them through unchanged.
fn check_names(a: &str, b: &str) -> Result<(), String> {
    let (na, nb) = (NodeName::from(a), NodeName::from(b.to_owned()));
    prop_assert_eq!(na.as_str(), a);
    prop_assert_eq!(nb.as_str(), b);
    prop_assert_eq!(na.len(), a.len());
    prop_assert_eq!(&NodeName::from(a.to_owned()), &na);
    prop_assert_eq!(na == nb, a == b);
    prop_assert_eq!(na.cmp(&nb), a.cmp(b));
    let keys = std::hash::RandomState::new();
    prop_assert_eq!(hash_of(&na, &keys), hash_of(a, &keys));
    prop_assert_eq!(hash_of(&nb, &keys), hash_of(b, &keys));
    let msg = Message::Suspect(Suspect {
        incarnation: Incarnation(1),
        node: na,
        from: nb,
    });
    prop_assert_eq!(codec::decode_message(&codec::encode_message(&msg)), Ok(msg));
    Ok(())
}

#[test]
fn names_at_the_inline_limit_and_the_longest_the_wire_carries() {
    let longest = "n".repeat(usize::from(u16::MAX));
    let near_longest = format!("{}m", &longest[1..]);
    let cases = [
        ("", "a"),
        ("abcdefghijklmn", "abcdefghijklmno"), // 14 and 15 bytes
        ("abcdefghijklmo", "abcdefghijklmn"),
        ("abcdefghijklm€", "abcdefghijklm"), // a character across byte 14
        ("abcdefghijk€", "abcdefghijklmé"),  // one ending at 14, one at 15
        (longest.as_str(), near_longest.as_str()),
        (longest.as_str(), longest.as_str()),
    ];
    for (a, b) in cases {
        check_names(a, b).unwrap();
        check_names(b, a).unwrap();
    }
    assert_eq!(std::mem::size_of::<NodeName>(), 16);
    assert_eq!(std::mem::size_of::<Option<NodeName>>(), 16);
}

/// A compound packet of the most parts its count byte allows is handed
/// out whole, part by part, in order.
#[test]
fn views_of_a_packet_with_the_most_parts() {
    let msgs: Vec<Message> = (0..MAX_COMPOUND_PARTS)
        .map(|i| {
            let name = NodeName::from(format!("{}-{i}", "node".repeat(i % 5)));
            Message::Dead(Dead {
                incarnation: Incarnation(i as u64),
                node: name.clone(),
                from: name,
            })
        })
        .collect();
    let mut builder = CompoundBuilder::new(usize::MAX);
    for m in &msgs {
        assert!(builder.try_add_msg(m));
    }
    assert!(!builder.try_add_msg(&msgs[0]), "the count byte is full");
    let packet = finish(&mut builder).unwrap();
    assert_eq!(through_views(&packet), Ok(msgs));
    let last_part = packet.len() - 1;
    assert_eq!(
        through_views(&packet[..last_part]),
        through_owned(&packet[..last_part])
    );
}

/// Bytes of `v` as a LEB128 varint, counted the slow way.
fn leb128_len(mut v: u64) -> usize {
    let mut len = 1;
    while v >= 0x80 {
        v >>= 7;
        len += 1;
    }
    len
}

/// The packet a builder makes of `msgs`: bare for one, compound framing
/// for more.
fn pack(msgs: &[Message]) -> Option<Vec<u8>> {
    let mut builder = CompoundBuilder::new(usize::MAX);
    for m in msgs {
        assert!(builder.try_add_msg(m));
    }
    finish(&mut builder)
}

/// The views of `bytes` are the owned decoder's messages (or the same
/// error), and if it decodes, the packet its messages make is `bytes`
/// again.
fn check_re_encodes(bytes: &[u8]) -> Result<(), String> {
    prop_assert_eq!(through_views(bytes), through_owned(bytes));
    if let Ok(msgs) = decode_packet(bytes) {
        let again = pack(&msgs);
        prop_assert_eq!(again.as_deref(), Some(bytes));
    }
    Ok(())
}

/// One bare message, or several in compound framing.
fn packet_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(message_strategy(), 1..12)
        .prop_map(|msgs| pack(&msgs).expect("non-empty"))
}

proptest! {
    /// Any two names of the inline and the shared form behave as their
    /// `&str`s do.
    #[test]
    fn names_behave_as_their_strings(a in raw_name_strategy(), b in raw_name_strategy()) {
        check_names(&a, &b)?;
        check_names(&a, &a)?;
    }

    /// Every message survives an encode/decode roundtrip.
    #[test]
    fn roundtrip_any_message(msg in message_strategy()) {
        let bytes = codec::encode_message(&msg);
        let back = codec::decode_message(&bytes).expect("decode");
        prop_assert_eq!(back, msg);
    }

    /// The subject read from an encoding is the decoded message's
    /// gossip subject (none for a message that is not gossip), and an
    /// encoding cut inside the subject's name has none.
    #[test]
    fn gossip_subject_reads_the_encoded_subject(msg in message_strategy()) {
        let bytes = codec::encode_message(&msg);
        let subject = msg.gossip_subject().map(|n| n.as_str().as_bytes());
        prop_assert_eq!(codec::gossip_subject(&bytes), subject);
        let incarnation = match &msg {
            Message::Suspect(s) => Some(s.incarnation),
            Message::Alive(a) => Some(a.incarnation),
            Message::Dead(d) => Some(d.incarnation),
            _ => None,
        };
        if let (Some(name), Some(Incarnation(inc))) = (subject, incarnation) {
            // The tag, the incarnation, the name's length and the name,
            // less its last byte.
            let end = 1 + leb128_len(inc) + leb128_len(name.len() as u64) + name.len();
            prop_assert_eq!(bytes.get(end - name.len()..end), Some(name));
            prop_assert_eq!(codec::gossip_subject(&bytes[..end - 1]), None);
        }
    }

    /// The analytic length always matches the actual encoding.
    #[test]
    fn encoded_len_is_exact(msg in message_strategy()) {
        prop_assert_eq!(codec::encode_message(&msg).len(), codec::encoded_len(&msg));
    }

    /// Decoding never panics on arbitrary bytes — it returns a clean
    /// error for garbage.
    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = codec::decode_message(&bytes);
        let _ = decode_packet(&bytes);
        let _ = for_each_view(&bytes, |_| {});
    }

    /// Truncating a valid encoding always produces an error, never a
    /// wrong message.
    #[test]
    fn truncation_is_always_detected(msg in message_strategy(), cut_frac in 0.0f64..1.0) {
        let bytes = codec::encode_message(&msg);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(codec::decode_message(&bytes[..cut]).is_err());
        }
    }

    /// Packing every message into as few packets as the budget allows
    /// never loses, duplicates or reorders one, and every packet
    /// respects the budget (when messages fit individually).
    #[test]
    fn pack_all_is_lossless(
        msgs in proptest::collection::vec(message_strategy(), 0..40),
        budget in 256usize..2048,
    ) {
        let mut packets = Vec::new();
        let mut builder = CompoundBuilder::new(budget);
        for m in &msgs {
            if !builder.try_add_msg(m) {
                packets.extend(finish(&mut builder));
                prop_assert!(builder.try_add_msg(m), "first message always fits");
            }
        }
        packets.extend(finish(&mut builder));
        let mut decoded = Vec::new();
        for p in &packets {
            decoded.extend(decode_packet(p).expect("packet decodes"));
        }
        prop_assert_eq!(decoded, msgs);
        for (i, p) in packets.iter().enumerate() {
            // A packet may exceed the budget only if it is a single
            // oversized message.
            if p.len() > budget {
                prop_assert_eq!(decode_packet(p).unwrap().len(), 1, "packet {} over budget", i);
            }
        }
    }

    /// A builder's current_len always equals the finished packet size.
    #[test]
    fn builder_len_is_truthful(msgs in proptest::collection::vec(message_strategy(), 1..20)) {
        let mut builder = CompoundBuilder::new(4096);
        for m in &msgs {
            builder.try_add_msg(m);
        }
        let predicted = builder.current_len();
        let packet = finish(&mut builder).expect("non-empty");
        prop_assert_eq!(predicted, packet.len());
    }

    /// Encoding straight into the builder (`try_add_msg`) produces
    /// byte-identical packets to adding pre-encoded messages, with the
    /// same accept/reject decisions.
    #[test]
    fn try_add_msg_is_equivalent_to_pre_encoding(
        msgs in proptest::collection::vec(message_strategy(), 1..20),
        budget in 64usize..2048,
    ) {
        let mut direct = CompoundBuilder::new(budget);
        let mut pre = CompoundBuilder::new(budget);
        for m in &msgs {
            let a = direct.try_add_msg(m);
            let b = pre.try_add_bytes(&codec::encode_message(m));
            prop_assert_eq!(a, b, "accept/reject diverged for {:?}", m);
        }
        prop_assert_eq!(finish(&mut direct), finish(&mut pre));
    }

    /// The zero-copy decoders agree with the copying decoders on every
    /// packet shape (bare and compound).
    #[test]
    fn shared_decode_matches_copying_decode(
        msgs in proptest::collection::vec(message_strategy(), 1..20),
    ) {
        let mut builder = CompoundBuilder::new(usize::MAX);
        for m in &msgs {
            prop_assert!(builder.try_add_msg(m));
        }
        let packet = Bytes::from(finish(&mut builder).expect("non-empty"));
        let copied = decode_packet(&packet).expect("copying decode");
        let shared = lifeguard_proto::compound::decode_packet_shared(&packet)
            .expect("shared decode");
        prop_assert_eq!(&copied, &shared);
        prop_assert_eq!(&copied, &msgs);

        // Bare single-message path.
        let one = codec::encode_message(&msgs[0]);
        prop_assert_eq!(
            codec::decode_message_shared(&one).expect("shared"),
            codec::decode_message(&one).expect("copying")
        );
    }

    /// The views of a well-formed packet — bare or compound, all nine
    /// kinds — are the owned decoder's messages, in order.
    #[test]
    fn views_match_owned_decode(packet in packet_strategy()) {
        let owned = through_owned(&packet);
        prop_assert!(owned.is_ok());
        prop_assert_eq!(through_views(&packet), owned);
    }

    /// On arbitrary bytes, framed as a compound packet or not, the
    /// walker and the owned decoder return the same `Result`.
    #[test]
    fn views_and_owned_decode_agree_on_any_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        compound in any::<bool>(),
        parts in 0u8..6,
    ) {
        let mut bytes = bytes;
        if compound && bytes.len() >= 2 {
            bytes[0] = codec::COMPOUND_TAG;
            bytes[1] = parts;
        }
        prop_assert_eq!(through_views(&bytes), through_owned(&bytes));
    }

    /// The decoder accepts one encoding of each packet: whatever byte
    /// string it accepts — a packet, a truncation of one, one with a
    /// changed byte, arbitrary bytes with or without a compound header —
    /// is the packet its messages make, byte for byte.
    #[test]
    fn accepted_bytes_re_encode_to_themselves(
        packet in packet_strategy(),
        flip in 1u8..=255,
        noise in proptest::collection::vec(any::<u8>(), 0..64),
        parts in 0u8..4,
    ) {
        check_re_encodes(&packet)?;
        for cut in 0..packet.len() {
            check_re_encodes(&packet[..cut])?;
        }
        let mut damaged = packet.clone();
        for at in 0..packet.len() {
            damaged[at] ^= flip;
            check_re_encodes(&damaged)?;
            damaged[at] = packet[at];
        }
        // Under a compound header of its own: a bare packet is one part
        // (and a frame of fewer than two is no packet's encoding).
        let header = [codec::COMPOUND_TAG, parts];
        check_re_encodes(&header)?;
        check_re_encodes(&[&header[..], &packet].concat())?;
        check_re_encodes(&noise)?;
        check_re_encodes(&[&header[..], &noise].concat())?;
    }

    /// Every truncation of a valid packet, and a changed byte at every
    /// position, gets the same verdict from both decoders: the same
    /// messages or the same `DecodeError`.
    #[test]
    fn views_and_owned_decode_agree_on_damaged_packets(
        packet in packet_strategy(),
        flip in 1u8..=255,
    ) {
        for cut in 0..packet.len() {
            prop_assert_eq!(through_views(&packet[..cut]), through_owned(&packet[..cut]));
        }
        let mut damaged = packet.clone();
        for at in 0..packet.len() {
            damaged[at] ^= flip;
            prop_assert_eq!(through_views(&damaged), through_owned(&damaged), "byte {}", at);
            damaged[at] = packet[at];
        }
    }
}
