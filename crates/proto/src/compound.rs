//! Compound packets: several messages in one datagram.
//!
//! SWIM piggybacks gossip on failure-detector traffic; memberlist realises
//! this by packing a `ping`/`ack` together with queued gossip messages into
//! a single UDP datagram. Every message is self-delimiting (see
//! [`crate::codec`]), so a compound packet is its parts back to back
//! after a two-byte header, with no length table:
//!
//! ```text
//! [COMPOUND_TAG u8][count u8]([part bytes] * count)      count >= 2
//! ```
//!
//! A packet containing exactly one message is sent bare (no compound
//! framing), which is what memberlist does and what keeps the byte counts
//! of Table VI honest. A decoder refuses a compound frame of fewer than
//! two parts ([`DecodeError::NonCanonical`]), so a packet has one
//! encoding.

use bytes::{Bytes, BytesMut};

use crate::codec::{self, COMPOUND_TAG};
use crate::error::DecodeError;
use crate::messages::{DatagramView, Message};
use crate::types::SeqNo;

/// Maximum number of parts in one compound packet (count is a `u8`).
pub const MAX_COMPOUND_PARTS: usize = 255;

/// Longest part a builder takes: no UDP datagram is longer than its
/// 16-bit length field allows.
const MAX_PART_LEN: usize = u16::MAX as usize;

/// Bytes of compound framing ahead of the parts: the tag and the count.
const HEADER_LEN: usize = 2;

/// Incrementally builds a datagram under a byte budget.
///
/// Parts are appended into one contiguous payload buffer: pre-encoded
/// gossip bytes are copied in ([`CompoundBuilder::try_add_bytes`]), and fresh
/// messages are encoded *directly* into the buffer
/// ([`CompoundBuilder::try_add_msg`]) with no intermediate allocation.
/// Additions that would exceed the budget are refused so callers can
/// stop filling.
///
/// ```
/// use lifeguard_proto::{compound::CompoundBuilder, codec, Message, Ack, SeqNo};
///
/// let mut b = CompoundBuilder::new(1400);
/// let ack = codec::encode_message(&Message::Ack(Ack { seq: SeqNo(1) }));
/// assert!(b.try_add_bytes(&ack));
/// assert!(b.try_add_msg(&Message::Ack(Ack { seq: SeqNo(2) })));
/// let mut packet = Vec::new();
/// b.finish_into(&mut packet).expect("two messages");
/// let msgs = lifeguard_proto::compound::decode_packet(&packet).unwrap();
/// assert_eq!(msgs.len(), 2);
/// ```
#[derive(Debug)]
pub struct CompoundBuilder {
    budget: usize,
    /// Concatenated encoded parts.
    payload: BytesMut,
    /// Number of parts in `payload`.
    parts: usize,
}

impl CompoundBuilder {
    /// Creates a builder that will keep the final packet within `budget`
    /// bytes (unless a single first message alone exceeds it, which is
    /// always permitted so oversized messages can still be sent).
    pub fn new(budget: usize) -> Self {
        CompoundBuilder {
            budget,
            payload: BytesMut::new(),
            parts: 0,
        }
    }

    /// Bytes the packet would occupy if finished now.
    pub fn current_len(&self) -> usize {
        match self.parts {
            0 => 0,
            1 => self.payload.len(),
            _ => HEADER_LEN + self.payload.len(),
        }
    }

    /// Number of messages added so far.
    pub fn len(&self) -> usize {
        self.parts
    }

    /// Whether no messages have been added.
    pub fn is_empty(&self) -> bool {
        self.parts == 0
    }

    /// Remaining budget for one more part, accounting for framing overhead.
    ///
    /// Returns `usize::MAX` for the first message (a lone oversized message
    /// is always allowed through).
    pub fn remaining(&self) -> usize {
        if self.parts == 0 {
            return usize::MAX;
        }
        // A second part switches to compound framing; later parts add
        // nothing to it.
        self.budget.saturating_sub(HEADER_LEN + self.payload.len())
    }

    /// Adds a pre-encoded message if it fits in the remaining budget and
    /// the part-count limit. Returns whether it was added.
    pub fn try_add_bytes(&mut self, encoded: &[u8]) -> bool {
        if self.parts >= MAX_COMPOUND_PARTS || encoded.len() > MAX_PART_LEN {
            return false;
        }
        if self.parts > 0 && encoded.len() > self.remaining() {
            return false;
        }
        self.payload.extend_from_slice(encoded);
        self.parts += 1;
        true
    }

    /// Encodes `msg` straight into the payload buffer if it fits —
    /// the allocation-free path for primary (`ping`/`ack`/…) messages.
    /// Returns whether it was added.
    pub fn try_add_msg(&mut self, msg: &Message) -> bool {
        if self.parts >= MAX_COMPOUND_PARTS {
            return false;
        }
        let budget = self.remaining();
        let start = self.payload.len();
        let written = codec::encode_message_into(msg, &mut self.payload);
        // The same part-length bound as `try_add_bytes`: a part too
        // long for a datagram is rolled back.
        if written <= MAX_PART_LEN && (self.parts == 0 || written <= budget) {
            self.parts += 1;
            true
        } else {
            self.payload.truncate(start);
            false
        }
    }

    /// Resets the builder for a new packet under a (possibly different)
    /// budget, keeping the payload buffer's capacity. Together with
    /// [`CompoundBuilder::finish_into`] this lets one long-lived builder
    /// assemble every packet a node sends without per-packet allocation.
    pub fn reset(&mut self, budget: usize) {
        self.budget = budget;
        self.payload.clear();
        self.parts = 0;
    }

    /// Finishes the packet into `out` — a bare message if one part, a
    /// compound frame otherwise — appending the encoded bytes and
    /// returning their range within `out`, so callers that own a
    /// reusable scratch buffer allocate nothing. The builder is left
    /// empty (as if [`CompoundBuilder::reset`] had been called with the
    /// same budget), ready for the next packet.
    ///
    /// Returns `None` (and appends nothing) if no message was added.
    pub fn finish_into(&mut self, out: &mut Vec<u8>) -> Option<std::ops::Range<usize>> {
        let start = out.len();
        match self.parts {
            0 => return None,
            1 => {}
            // `try_add_*` cap the part count at MAX_COMPOUND_PARTS (255).
            n => out.extend_from_slice(&[COMPOUND_TAG, u8::try_from(n).ok()?]),
        }
        out.extend_from_slice(&self.payload);
        self.payload.clear();
        self.parts = 0;
        Some(start..out.len())
    }

    /// Finishes the packet into `out` once and emits the *same* byte
    /// range for every destination in `dests` — the fan-out counterpart
    /// of [`CompoundBuilder::finish_into`] for batched packet I/O: one
    /// encode pass produces N `(destination, range)` batch entries all
    /// referencing a single arena slice, which a gather-send (e.g.
    /// `sendmmsg(2)`) can transmit without ever duplicating the
    /// payload.
    ///
    /// Returns the shared range, or `None` (appending and emitting
    /// nothing) if no message was added or `dests` is empty. When a
    /// packet was produced, the builder is left reset exactly as after
    /// [`CompoundBuilder::finish_into`].
    pub fn finish_into_fanout<D: Copy>(
        &mut self,
        out: &mut Vec<u8>,
        dests: &[D],
        mut emit: impl FnMut(D, std::ops::Range<usize>),
    ) -> Option<std::ops::Range<usize>> {
        if dests.is_empty() {
            return None;
        }
        let range = self.finish_into(out)?;
        for &dest in dests {
            emit(dest, range.clone());
        }
        Some(range)
    }
}

/// Decodes a datagram into its constituent messages, transparently
/// unwrapping compound framing.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the packet is malformed: a compound
/// packet whose parts end early yields [`DecodeError::UnexpectedEof`],
/// one with bytes after its last part [`DecodeError::TrailingBytes`].
pub fn decode_packet(bytes: &[u8]) -> Result<Vec<Message>, DecodeError> {
    decode_parts(codec::Reader::new(bytes))
}

/// Like [`decode_packet`], but blob fields (gossip metadata, push-pull
/// state) are zero-copy [`Bytes::slice`]s of the datagram instead of
/// copies. A node does not decode a datagram it receives into messages
/// at all — it runs [`for_each_view`]; this owned decoder serves callers
/// that keep the messages, and is the reference the views are tested
/// against.
///
/// # Errors
///
/// Same as [`decode_packet`].
pub fn decode_packet_shared(bytes: &Bytes) -> Result<Vec<Message>, DecodeError> {
    decode_parts(codec::Reader::shared(bytes))
}

/// The owned decoders' one walk: the frame header, then each part in
/// sequence, then the check that nothing follows the last.
fn decode_parts(mut r: codec::Reader<'_>) -> Result<Vec<Message>, DecodeError> {
    let count = compound_parts(&mut r)?.unwrap_or(1);
    let mut msgs = Vec::with_capacity(count);
    for _ in 0..count {
        msgs.push(codec::decode_from(&mut r)?);
    }
    r.finish()?;
    Ok(msgs)
}

/// Hands the datagram messages of a packet — bare or compound — to
/// `act` as borrowed views, in packet order: the receive path of a
/// node. Each part is parsed once, and nothing is allocated (no part
/// table, no `Vec<Message>`, no owned name).
///
/// The **whole** packet is checked before `act` sees the first view:
/// the compound header, then every part in order — fields, UTF-8,
/// unknown tags, and a stream-only `push-pull` body through the owned
/// decoder — then that no byte follows the last part. A bare packet is
/// one view and is handed out once checked; a compound packet's views
/// wait in one stack buffer until its last part has been checked. The
/// buffer holds 16 views when the count byte says at most 16 parts, as
/// most packets have, and [`MAX_COMPOUND_PARTS`] otherwise: setting it
/// up costs a store per view, used or not. `Ok` exactly when
/// [`decode_packet`] is `Ok`, and the same [`DecodeError`] otherwise, so
/// `act` never acts on part of a malformed packet. Stream-only messages
/// have no view and are not handed out.
///
/// ```
/// use lifeguard_proto::{codec, compound, Ack, DatagramView, DecodeError, Message, SeqNo};
///
/// let packet = codec::encode_message(&Message::Ack(Ack { seq: SeqNo(7) }));
/// let mut views = Vec::new();
/// compound::for_each_view(&packet, |view| views.push(view)).unwrap();
/// assert_eq!(views, [DatagramView::Ack { seq: SeqNo(7) }]);
/// assert!(compound::for_each_view(&packet[..1], |_| unreachable!()).is_err());
///
/// // Two acks, back to back after the compound header; a third part
/// // that the count byte does not declare is refused.
/// let compound = [codec::COMPOUND_TAG, 2, packet[0], 7, packet[0], 8];
/// let mut seqs = Vec::new();
/// compound::for_each_view(&compound, |view| seqs.push(view)).unwrap();
/// assert_eq!(seqs.len(), 2);
/// let extra = [&compound[..], &packet[..]].concat();
/// let refused = compound::for_each_view(&extra, |_| unreachable!());
/// assert_eq!(refused, Err(DecodeError::TrailingBytes(2)));
/// ```
///
/// # Errors
///
/// Same as [`decode_packet`].
pub fn for_each_view<'a>(
    bytes: &'a [u8],
    mut act: impl FnMut(DatagramView<'a>),
) -> Result<(), DecodeError> {
    let mut r = codec::Reader::new(bytes);
    match compound_parts(&mut r)? {
        None => {
            let view = codec::view_from(&mut r)?;
            r.finish()?;
            if let Some(view) = view {
                act(view);
            }
            Ok(())
        }
        Some(count) if count <= FEW_PARTS => check_then_act::<FEW_PARTS>(r, count, act),
        Some(count) => check_then_act::<MAX_COMPOUND_PARTS>(r, count, act),
    }
}

/// The view buffer of a compound packet with this many parts or fewer.
/// On `anomaly-128` 85 % of compound packets have at most 16 parts, the
/// median 5, and a full one ~48.
const FEW_PARTS: usize = 16;

/// Checks the `count` parts after a compound header into a buffer of
/// `N` views, then hands them to `act`. Out of line, so that only the
/// packets that need the buffer reserve it.
#[inline(never)]
fn check_then_act<'a, const N: usize>(
    mut r: codec::Reader<'a>,
    count: usize,
    act: impl FnMut(DatagramView<'a>),
) -> Result<(), DecodeError> {
    let mut views = [DatagramView::Ack { seq: SeqNo(0) }; N];
    let mut checked = 0;
    for _ in 0..count {
        if let Some(view) = codec::view_from(&mut r)? {
            // The caller picked `N` from the count, so there are at
            // most `N` parts and this never misses.
            if let Some(slot) = views.get_mut(checked) {
                *slot = view;
                checked += 1;
            }
        }
    }
    r.finish()?;
    views.iter().take(checked).copied().for_each(act);
    Ok(())
}

/// Reads a compound header if the packet starts with one, and returns
/// the number of parts it declares; `None` for a bare packet, whose
/// reader is left at its tag. A count below two is
/// [`DecodeError::NonCanonical`]: a builder sends one message bare.
fn compound_parts(r: &mut codec::Reader<'_>) -> Result<Option<usize>, DecodeError> {
    if r.peek() != Some(COMPOUND_TAG) {
        return Ok(None);
    }
    r.get_u8()?;
    match r.get_u8()? {
        count @ 2.. => Ok(Some(usize::from(count))),
        _ => Err(DecodeError::NonCanonical),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Ack, Alive};
    use crate::types::{Incarnation, NodeAddr, SeqNo};

    fn enc(m: &Message) -> Bytes {
        codec::encode_message(m)
    }

    /// Finishes `b` into a fresh buffer of its own.
    fn finish(b: &mut CompoundBuilder) -> Option<Vec<u8>> {
        let mut packet = Vec::new();
        b.finish_into(&mut packet).map(|_| packet)
    }

    fn ack(seq: u32) -> Message {
        Message::Ack(Ack { seq: SeqNo(seq) })
    }

    #[test]
    fn single_message_is_sent_bare() {
        let mut b = CompoundBuilder::new(1400);
        assert!(b.try_add_bytes(&enc(&ack(1))));
        let packet = finish(&mut b).unwrap();
        assert_ne!(packet[0], COMPOUND_TAG);
        assert_eq!(decode_packet(&packet).unwrap(), vec![ack(1)]);
    }

    #[test]
    fn empty_builder_finishes_to_none() {
        assert!(finish(&mut CompoundBuilder::new(100)).is_none());
        assert!(CompoundBuilder::new(100).is_empty());
    }

    #[test]
    fn finish_into_fanout_encodes_once_and_emits_per_destination() {
        let mut b = CompoundBuilder::new(1400);
        assert!(b.try_add_bytes(&enc(&ack(1))));
        assert!(b.try_add_bytes(&enc(&ack(2))));
        let mut arena = vec![0xAAu8; 3]; // pre-existing arena content survives
        let mut emitted: Vec<(u8, std::ops::Range<usize>)> = Vec::new();
        let range = b
            .finish_into_fanout(&mut arena, &[10u8, 20, 30], |d, r| emitted.push((d, r)))
            .unwrap();
        assert_eq!(range.start, 3, "appended after the existing bytes");
        assert_eq!(
            emitted,
            vec![
                (10, range.clone()),
                (20, range.clone()),
                (30, range.clone())
            ],
            "every destination references the single encoded slice"
        );
        assert_eq!(
            decode_packet(&arena[range]).unwrap(),
            vec![ack(1), ack(2)],
            "the shared slice is a well-formed packet"
        );
        assert!(b.is_empty(), "builder is reset for the next packet");
    }

    #[test]
    fn finish_into_fanout_with_no_destinations_appends_nothing() {
        let mut b = CompoundBuilder::new(1400);
        assert!(b.try_add_bytes(&enc(&ack(1))));
        let mut arena = Vec::new();
        let dests: [u8; 0] = [];
        assert!(b
            .finish_into_fanout(&mut arena, &dests, |_, _| panic!("no emits"))
            .is_none());
        assert!(arena.is_empty());
    }

    #[test]
    fn multiple_messages_roundtrip_in_order() {
        let msgs: Vec<Message> = (0..10).map(ack).collect();
        let mut b = CompoundBuilder::new(1400);
        for m in &msgs {
            assert!(b.try_add_bytes(&enc(m)));
        }
        assert_eq!(b.len(), 10);
        let packet = finish(&mut b).unwrap();
        assert_eq!(packet[0], COMPOUND_TAG);
        assert_eq!(decode_packet(&packet).unwrap(), msgs);
    }

    #[test]
    fn budget_is_respected_after_first_message() {
        let big = Message::Alive(Alive {
            incarnation: Incarnation(1),
            node: "x".into(),
            addr: NodeAddr::new([10, 0, 0, 1], 1),
            meta: Bytes::from(vec![0u8; 300]),
        });
        let mut b = CompoundBuilder::new(400);
        assert!(b.try_add_bytes(&enc(&big)));
        // Second large message exceeds the 400-byte budget.
        assert!(!b.try_add_bytes(&enc(&big)));
        let packet = finish(&mut b).unwrap();
        assert!(packet.len() <= 400);
    }

    #[test]
    fn oversized_first_message_is_allowed() {
        let big = Message::Alive(Alive {
            incarnation: Incarnation(1),
            node: "x".into(),
            addr: NodeAddr::new([10, 0, 0, 1], 1),
            meta: Bytes::from(vec![0u8; 2000]),
        });
        let mut b = CompoundBuilder::new(1400);
        assert!(b.try_add_bytes(&enc(&big)));
        assert!(finish(&mut b).unwrap().len() > 1400);
    }

    #[test]
    fn current_len_tracks_framing() {
        let mut b = CompoundBuilder::new(1400);
        assert_eq!(b.current_len(), 0);
        let a = enc(&ack(1));
        b.try_add_bytes(&a);
        assert_eq!(b.current_len(), a.len());
        b.try_add_bytes(&a);
        assert_eq!(b.current_len(), 2 + 2 * a.len());
        let packet = finish(&mut b).unwrap();
        assert_eq!(packet.len(), 2 + 2 * a.len());
    }

    #[test]
    fn part_count_limit_enforced() {
        let mut b = CompoundBuilder::new(usize::MAX);
        for i in 0..MAX_COMPOUND_PARTS {
            assert!(b.try_add_bytes(&enc(&ack(i as u32))));
        }
        assert!(!b.try_add_bytes(&enc(&ack(9999))));
    }

    #[test]
    fn finish_into_reuses_builder() {
        let mut scratch = Vec::new();
        let mut b = CompoundBuilder::new(1400);
        // Bare single message.
        assert!(b.try_add_bytes(&enc(&ack(1))));
        let r1 = b.finish_into(&mut scratch).unwrap();
        // Compound, from the *same* (now reset) builder.
        assert!(b.try_add_bytes(&enc(&ack(2))));
        assert!(b.try_add_bytes(&enc(&ack(3))));
        let r2 = b.finish_into(&mut scratch).unwrap();
        assert_eq!(decode_packet(&scratch[r1]).unwrap(), vec![ack(1)]);
        assert_eq!(decode_packet(&scratch[r2]).unwrap(), vec![ack(2), ack(3)]);

        // Empty builder appends nothing.
        let before = scratch.len();
        assert!(b.finish_into(&mut scratch).is_none());
        assert_eq!(scratch.len(), before);
    }

    /// The part-length boundary: a part of exactly `u16::MAX` bytes is
    /// taken, one byte more is refused, and a refused message leaves
    /// the builder as it was.
    #[test]
    fn part_longer_than_u16_max_is_refused_not_truncated() {
        // Raw-bytes path, exactly at the boundary.
        let at_limit = vec![0u8; u16::MAX as usize];
        let mut b = CompoundBuilder::new(usize::MAX);
        assert!(b.try_add_bytes(&at_limit));
        assert_eq!(b.len(), 1);

        // One byte over: refused even as the (oversized-allowed) first
        // part, and refused as a follow-up part.
        let over = vec![0u8; u16::MAX as usize + 1];
        let mut b = CompoundBuilder::new(usize::MAX);
        assert!(!b.try_add_bytes(&over));
        assert!(b.is_empty());
        assert!(b.try_add_bytes(&at_limit));
        assert!(!b.try_add_bytes(&over));
        assert_eq!(b.len(), 1);

        // Message path: a push-pull whose encoding exceeds u16::MAX is
        // rolled back without corrupting the builder.
        let big_states: Vec<_> = (0..3000)
            .map(|i| crate::messages::PushNodeState {
                name: format!("node-{i:05}").into(),
                addr: NodeAddr::new([10, 0, 0, 1], 1),
                incarnation: Incarnation(i),
                state: crate::types::MemberState::Alive,
                meta: Bytes::from_static(b"0123456789"),
            })
            .collect();
        let big = Message::PushPull(crate::messages::PushPull {
            join: false,
            reply: false,
            states: big_states,
        });
        assert!(codec::encoded_len(&big) > u16::MAX as usize);
        let mut b = CompoundBuilder::new(usize::MAX);
        assert!(!b.try_add_msg(&big));
        assert!(b.is_empty());
        assert!(
            b.try_add_msg(&ack(1)),
            "builder stays usable after a refusal"
        );
        let packet = finish(&mut b).unwrap();
        assert_eq!(decode_packet(&packet).unwrap(), vec![ack(1)]);
    }

    /// On both sides of the buffer-size boundary and at the most parts
    /// a packet can have.
    #[test]
    fn views_come_out_in_packet_order_after_the_whole_packet_is_checked() {
        for parts in [2, FEW_PARTS, FEW_PARTS + 1, MAX_COMPOUND_PARTS] {
            let mut b = CompoundBuilder::new(usize::MAX);
            for i in 0..parts {
                assert!(b.try_add_msg(&ack(i as u32)));
            }
            let packet = finish(&mut b).unwrap();
            let mut seqs = Vec::new();
            for_each_view(&packet, |view| match view {
                DatagramView::Ack { seq } => seqs.push(seq.0),
                other => panic!("{other:?}"),
            })
            .unwrap();
            assert_eq!(seqs, (0..parts as u32).collect::<Vec<_>>());

            // The parts sit back to back after the two-byte header, the
            // last one at the end.
            let last = ack(parts as u32 - 1);
            let last_part = packet.len() - codec::encoded_len(&last);
            assert_eq!(decode_packet(&packet[last_part..]), Ok(vec![last]));

            // The last part's tag is one no message has: no part is
            // handed out.
            let mut damaged = packet;
            damaged[last_part] = 42;
            let refused = for_each_view(&damaged, |_| panic!("a view of a refused packet"));
            assert_eq!(refused, Err(DecodeError::UnknownTag(42)));
        }
    }

    /// One message is sent bare, so a compound frame declaring fewer
    /// than two parts is not an encoding of anything.
    #[test]
    fn compound_frame_of_fewer_than_two_parts_is_refused() {
        let one = enc(&ack(1));
        for frame in [
            vec![COMPOUND_TAG, 0],
            [&[COMPOUND_TAG, 1], &one[..]].concat(),
        ] {
            assert_eq!(decode_packet(&frame), Err(DecodeError::NonCanonical));
            assert_eq!(
                for_each_view(&frame, |_| panic!("a view of a refused packet")),
                Err(DecodeError::NonCanonical)
            );
        }
        assert_eq!(
            decode_packet(&[COMPOUND_TAG]),
            Err(DecodeError::UnexpectedEof)
        );
    }

    #[test]
    fn truncated_compound_is_rejected() {
        let mut b = CompoundBuilder::new(1400);
        b.try_add_bytes(&enc(&ack(1)));
        b.try_add_bytes(&enc(&ack(2)));
        let packet = finish(&mut b).unwrap();
        assert_eq!(
            decode_packet(&packet[..packet.len() - 1]),
            Err(DecodeError::UnexpectedEof)
        );
        let mut longer = packet.clone();
        longer.push(0);
        assert_eq!(decode_packet(&longer), Err(DecodeError::TrailingBytes(1)));
    }
}
