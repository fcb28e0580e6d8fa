//! Hand-rolled binary wire codec.
//!
//! The format is deliberately simple and deterministic: a one-byte tag
//! followed by fixed-order fields. Integers are big-endian; strings and
//! byte blobs are length-prefixed with `u16`; addresses are encoded as an
//! address-family byte (4 or 6), the raw IP octets, and a `u16` port.
//!
//! The encoded size of a message is stable, which the gossip queue relies
//! on when packing compound packets against the MTU budget.

use bytes::{BufMut, Bytes, BytesMut};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

use crate::error::DecodeError;
use crate::messages::{
    Ack, Alive, DatagramView, Dead, IndirectPing, Message, Nack, Ping, PushNodeState, PushPull,
    PushPullDelta, Suspect,
};
use crate::types::{Incarnation, MemberState, NodeAddr, NodeName, SeqNo};

/// Wire tag for each message type. `COMPOUND_TAG` is reserved for packets
/// carrying multiple messages (see [`crate::compound`]).
pub(crate) const TAG_PING: u8 = 0;
pub(crate) const TAG_INDIRECT_PING: u8 = 1;
pub(crate) const TAG_ACK: u8 = 2;
pub(crate) const TAG_NACK: u8 = 3;
pub(crate) const TAG_SUSPECT: u8 = 4;
pub(crate) const TAG_ALIVE: u8 = 5;
pub(crate) const TAG_DEAD: u8 = 6;
pub(crate) const TAG_PUSH_PULL: u8 = 7;
pub(crate) const TAG_PUSH_PULL_DELTA: u8 = 8;
/// Tag marking a compound packet.
pub const COMPOUND_TAG: u8 = 255;

/// Encodes a single message into a fresh buffer.
///
/// Single-pass: the message is traversed exactly once (by
/// `encode_into`); the initial reservation comes from the O(1)
/// `size_hint` instead of a second full walk through
/// [`encoded_len`]. The produced length still equals `encoded_len`:
///
/// ```
/// use lifeguard_proto::{codec, Message, Nack, SeqNo};
/// let bytes = codec::encode_message(&Message::Nack(Nack { seq: SeqNo(7) }));
/// assert_eq!(bytes.len(), codec::encoded_len(&Message::Nack(Nack { seq: SeqNo(7) })));
/// ```
pub fn encode_message(msg: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(size_hint(msg));
    encode_into(msg, &mut buf);
    buf.freeze()
}

/// Appends the encoding of `msg` to a caller-owned buffer, returning the
/// number of bytes written. Lets hot paths (packet assembly, gossip
/// pre-encoding) reuse one allocation across messages.
pub fn encode_message_into(msg: &Message, buf: &mut BytesMut) -> usize {
    let start = buf.len();
    encode_into(msg, buf);
    buf.len() - start
}

/// Appends the encoding of `msg` to `buf`.
fn encode_into(msg: &Message, buf: &mut BytesMut) {
    match msg {
        Message::Ping(p) => {
            buf.put_u8(TAG_PING);
            buf.put_u32(p.seq.0);
            put_name(buf, &p.target);
            put_name(buf, &p.source);
            put_addr(buf, p.source_addr);
        }
        Message::IndirectPing(p) => {
            buf.put_u8(TAG_INDIRECT_PING);
            buf.put_u32(p.seq.0);
            put_name(buf, &p.target);
            put_addr(buf, p.target_addr);
            buf.put_u8(u8::from(p.nack));
            put_name(buf, &p.source);
            put_addr(buf, p.source_addr);
        }
        Message::Ack(a) => {
            buf.put_u8(TAG_ACK);
            buf.put_u32(a.seq.0);
        }
        Message::Nack(n) => {
            buf.put_u8(TAG_NACK);
            buf.put_u32(n.seq.0);
        }
        Message::Suspect(s) => {
            buf.put_u8(TAG_SUSPECT);
            buf.put_u64(s.incarnation.0);
            put_name(buf, &s.node);
            put_name(buf, &s.from);
        }
        Message::Alive(a) => {
            buf.put_u8(TAG_ALIVE);
            buf.put_u64(a.incarnation.0);
            put_name(buf, &a.node);
            put_addr(buf, a.addr);
            put_blob(buf, &a.meta);
        }
        Message::Dead(d) => {
            buf.put_u8(TAG_DEAD);
            buf.put_u64(d.incarnation.0);
            put_name(buf, &d.node);
            put_name(buf, &d.from);
        }
        Message::PushPull(pp) => {
            buf.put_u8(TAG_PUSH_PULL);
            let flags = u8::from(pp.join) | (u8::from(pp.reply) << 1);
            buf.put_u8(flags);
            put_states(buf, &pp.states);
        }
        Message::PushPullDelta(d) => {
            buf.put_u8(TAG_PUSH_PULL_DELTA);
            buf.put_u8(u8::from(d.reply));
            put_name(buf, &d.from);
            buf.put_u64(d.epoch);
            buf.put_u64(d.since_epoch);
            buf.put_u64(d.since);
            buf.put_u64(d.seq);
            put_states(buf, &d.entries);
        }
    }
}

/// O(1) capacity estimate for one message: exact for every fixed-shape
/// message, a generous per-state guess for `push-pull` (whose exact size
/// would require walking all states — the very second traversal
/// [`encode_message`] avoids).
fn size_hint(msg: &Message) -> usize {
    match msg {
        Message::PushPull(pp) => 1 + 1 + 4 + pp.states.len() * 64,
        Message::PushPullDelta(d) => 1 + 1 + name_len(&d.from) + 32 + 4 + d.entries.len() * 64,
        other => encoded_len(other),
    }
}

/// Exact number of bytes [`encode_message_into`] will append for `msg`.
///
/// O(1) for all message types except `push-pull` (O(states)); used by
/// telemetry and the length-invariant tests.
pub fn encoded_len(msg: &Message) -> usize {
    match msg {
        Message::Ping(p) => 1 + 4 + name_len(&p.target) + name_len(&p.source) + addr_len(p.source_addr),
        Message::IndirectPing(p) => {
            1 + 4
                + name_len(&p.target)
                + addr_len(p.target_addr)
                + 1
                + name_len(&p.source)
                + addr_len(p.source_addr)
        }
        Message::Ack(_) | Message::Nack(_) => 1 + 4,
        Message::Suspect(s) => 1 + 8 + name_len(&s.node) + name_len(&s.from),
        Message::Alive(a) => 1 + 8 + name_len(&a.node) + addr_len(a.addr) + 2 + a.meta.len(),
        Message::Dead(d) => 1 + 8 + name_len(&d.node) + name_len(&d.from),
        Message::PushPull(pp) => 1 + 1 + states_len(&pp.states),
        Message::PushPullDelta(d) => 1 + 1 + name_len(&d.from) + 32 + states_len(&d.entries),
    }
}

fn states_len(states: &[PushNodeState]) -> usize {
    4 + states
        .iter()
        .map(|st| name_len(&st.name) + addr_len(st.addr) + 8 + 1 + 2 + st.meta.len())
        .sum::<usize>()
}

fn put_states(buf: &mut BytesMut, states: &[PushNodeState]) {
    // Membership lists are nowhere near 2^32 entries.
    let count = u32::try_from(states.len());
    debug_assert!(count.is_ok(), "state list too long");
    buf.put_u32(count.unwrap_or(u32::MAX));
    for st in states {
        put_name(buf, &st.name);
        put_addr(buf, st.addr);
        buf.put_u64(st.incarnation.0);
        buf.put_u8(st.state.as_u8());
        put_blob(buf, &st.meta);
    }
}

/// Decodes exactly one message, rejecting trailing bytes.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the buffer is truncated, malformed, or
/// longer than one message.
pub fn decode_message(bytes: &[u8]) -> Result<Message, DecodeError> {
    let mut r = Reader::new(bytes);
    let msg = decode_from(&mut r)?;
    if r.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(msg)
}

/// Like [`decode_message`], but blob fields (`alive`/push-pull metadata)
/// are zero-copy [`Bytes::slice`]s of `bytes` instead of fresh
/// allocations.
///
/// # Errors
///
/// Same as [`decode_message`].
pub fn decode_message_shared(bytes: &Bytes) -> Result<Message, DecodeError> {
    let mut r = Reader::shared(bytes);
    let msg = decode_from(&mut r)?;
    if r.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(msg)
}

/// Decodes one message from the reader, leaving any following bytes.
pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Message, DecodeError> {
    let tag = r.get_u8()?;
    match tag {
        TAG_PING => Ok(Message::Ping(Ping {
            seq: SeqNo(r.get_u32()?),
            target: r.get_name()?,
            source: r.get_name()?,
            source_addr: r.get_addr()?,
        })),
        TAG_INDIRECT_PING => Ok(Message::IndirectPing(IndirectPing {
            seq: SeqNo(r.get_u32()?),
            target: r.get_name()?,
            target_addr: r.get_addr()?,
            nack: r.get_u8()? != 0,
            source: r.get_name()?,
            source_addr: r.get_addr()?,
        })),
        TAG_ACK => Ok(Message::Ack(Ack {
            seq: SeqNo(r.get_u32()?),
        })),
        TAG_NACK => Ok(Message::Nack(Nack {
            seq: SeqNo(r.get_u32()?),
        })),
        TAG_SUSPECT => Ok(Message::Suspect(Suspect {
            incarnation: Incarnation(r.get_u64()?),
            node: r.get_name()?,
            from: r.get_name()?,
        })),
        TAG_ALIVE => Ok(Message::Alive(Alive {
            incarnation: Incarnation(r.get_u64()?),
            node: r.get_name()?,
            addr: r.get_addr()?,
            meta: r.get_blob()?,
        })),
        TAG_DEAD => Ok(Message::Dead(Dead {
            incarnation: Incarnation(r.get_u64()?),
            node: r.get_name()?,
            from: r.get_name()?,
        })),
        TAG_PUSH_PULL => {
            let flags = r.get_u8()?;
            let states = get_states(r)?;
            Ok(Message::PushPull(PushPull {
                join: flags & 1 != 0,
                reply: flags & 2 != 0,
                states,
            }))
        }
        TAG_PUSH_PULL_DELTA => {
            let reply = r.get_u8()? != 0;
            Ok(Message::PushPullDelta(PushPullDelta {
                reply,
                from: r.get_name()?,
                epoch: r.get_u64()?,
                since_epoch: r.get_u64()?,
                since: r.get_u64()?,
                seq: r.get_u64()?,
                entries: get_states(r)?,
            }))
        }
        other => Err(DecodeError::UnknownTag(other)),
    }
}

/// Decodes exactly one datagram part as a borrowed view, with
/// [`decode_message`]'s result for every byte string: the same fields
/// read in the same order through the same [`Reader`], so the same
/// [`DecodeError`] for the same malformed input. Allocates nothing.
/// A stream-only `push-pull` tag has no view and yields `Ok(None)`
/// with its body unread — the caller checks that with
/// [`decode_message`].
pub(crate) fn decode_view(part: &[u8]) -> Result<Option<DatagramView<'_>>, DecodeError> {
    let mut r = Reader::new(part);
    let view = match r.get_u8()? {
        TAG_PING => DatagramView::Ping {
            seq: SeqNo(r.get_u32()?),
            target: r.get_str()?,
            source: r.get_str()?,
            source_addr: r.get_addr()?,
        },
        TAG_INDIRECT_PING => DatagramView::IndirectPing {
            seq: SeqNo(r.get_u32()?),
            target: r.get_str()?,
            target_addr: r.get_addr()?,
            nack: r.get_u8()? != 0,
            source: r.get_str()?,
            source_addr: r.get_addr()?,
        },
        TAG_ACK => DatagramView::Ack {
            seq: SeqNo(r.get_u32()?),
        },
        TAG_NACK => DatagramView::Nack {
            seq: SeqNo(r.get_u32()?),
        },
        TAG_SUSPECT => DatagramView::Suspect {
            incarnation: Incarnation(r.get_u64()?),
            node: r.get_str()?,
            from: r.get_str()?,
        },
        TAG_ALIVE => DatagramView::Alive {
            incarnation: Incarnation(r.get_u64()?),
            node: r.get_str()?,
            addr: r.get_addr()?,
            meta: r.get_bytes()?,
        },
        TAG_DEAD => DatagramView::Dead {
            incarnation: Incarnation(r.get_u64()?),
            node: r.get_str()?,
            from: r.get_str()?,
        },
        TAG_PUSH_PULL | TAG_PUSH_PULL_DELTA => return Ok(None),
        other => return Err(DecodeError::UnknownTag(other)),
    };
    if r.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(Some(view))
}

fn get_states(r: &mut Reader<'_>) -> Result<Vec<PushNodeState>, DecodeError> {
    let count = r.get_u32()? as usize;
    let mut states = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        states.push(PushNodeState {
            name: r.get_name()?,
            addr: r.get_addr()?,
            incarnation: Incarnation(r.get_u64()?),
            state: {
                let b = r.get_u8()?;
                MemberState::from_u8(b).ok_or(DecodeError::UnknownState(b))?
            },
            meta: r.get_blob()?,
        });
    }
    Ok(states)
}

fn name_len(n: &NodeName) -> usize {
    2 + n.len()
}

fn addr_len(a: NodeAddr) -> usize {
    match a.ip() {
        IpAddr::V4(_) => 1 + 4 + 2,
        IpAddr::V6(_) => 1 + 16 + 2,
    }
}

fn put_name(buf: &mut BytesMut, n: &NodeName) {
    put_blob(buf, n.as_str().as_bytes());
}

/// A `u16`-length-prefixed field. Every one is bounded at its source: a
/// node's own name to `u16::MAX` bytes in `SwimNode::try_new`
/// (`ConfigError::NodeNameTooLong`), its metadata to `MAX_META_LEN` in
/// `SwimNode::update_meta`, and every peer's name or blob was decoded
/// from a `u16` length word.
fn put_blob(buf: &mut BytesMut, b: &[u8]) {
    let len = u16::try_from(b.len());
    debug_assert!(len.is_ok(), "length-prefixed field too long");
    buf.put_u16(len.unwrap_or(u16::MAX));
    buf.put_slice(b);
}

fn put_addr(buf: &mut BytesMut, a: NodeAddr) {
    match a.ip() {
        IpAddr::V4(ip) => {
            buf.put_u8(4);
            buf.put_slice(&ip.octets());
        }
        IpAddr::V6(ip) => {
            buf.put_u8(6);
            buf.put_slice(&ip.octets());
        }
    }
    buf.put_u16(a.port());
}

/// Cursor over a byte slice used by the decoder.
///
/// When constructed with [`Reader::shared`], blob fields are cut as
/// zero-copy slices of the backing [`Bytes`] instead of being copied.
#[derive(Clone, Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    shared: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            shared: None,
        }
    }

    pub(crate) fn shared(bytes: &'a Bytes) -> Self {
        Reader {
            buf: bytes,
            pos: 0,
            shared: Some(bytes),
        }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn get_u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(u8::from_be_bytes)
    }

    pub(crate) fn get_u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_be_bytes)
    }

    fn get_u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_be_bytes)
    }

    fn get_u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_be_bytes)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, _) = self
            .rest()
            .split_first_chunk::<N>()
            .ok_or(DecodeError::UnexpectedEof)?;
        self.pos += N;
        Ok(*head)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let s = self.rest().get(..n).ok_or(DecodeError::UnexpectedEof)?;
        self.pos += n;
        Ok(s)
    }

    /// The unread bytes; `pos` never passes the end of `buf`.
    fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or_default()
    }

    fn get_name(&mut self) -> Result<NodeName, DecodeError> {
        Ok(NodeName::from(self.get_str()?))
    }

    /// A length-prefixed name, borrowed from the buffer.
    fn get_str(&mut self) -> Result<&'a str, DecodeError> {
        let raw = self.get_bytes()?;
        std::str::from_utf8(raw).map_err(|_| DecodeError::InvalidUtf8)
    }

    /// A length-prefixed blob, borrowed from the buffer.
    fn get_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.get_u16()? as usize;
        self.take(len)
    }

    fn get_blob(&mut self) -> Result<Bytes, DecodeError> {
        let len = self.get_u16()? as usize;
        let start = self.pos;
        let raw = self.take(len)?;
        Ok(match self.shared {
            Some(bytes) => bytes.slice(start..start + len),
            None => Bytes::copy_from_slice(raw),
        })
    }

    fn get_addr(&mut self) -> Result<NodeAddr, DecodeError> {
        let family = self.get_u8()?;
        let ip = match family {
            4 => IpAddr::V4(Ipv4Addr::from(self.array::<4>()?)),
            6 => IpAddr::V6(Ipv6Addr::from(self.array::<16>()?)),
            other => return Err(DecodeError::UnknownAddrFamily(other)),
        };
        let port = self.get_u16()?;
        Ok(NodeAddr::from(SocketAddr::new(ip, port)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        let a = NodeAddr::new([10, 0, 0, 1], 7946);
        let b = NodeAddr::new([10, 0, 0, 2], 7946);
        vec![
            Message::Ping(Ping {
                seq: SeqNo(1),
                target: "b".into(),
                source: "a".into(),
                source_addr: a,
            }),
            Message::IndirectPing(IndirectPing {
                seq: SeqNo(2),
                target: "c".into(),
                target_addr: b,
                nack: true,
                source: "a".into(),
                source_addr: a,
            }),
            Message::Ack(Ack { seq: SeqNo(3) }),
            Message::Nack(Nack { seq: SeqNo(4) }),
            Message::Suspect(Suspect {
                incarnation: Incarnation(5),
                node: "b".into(),
                from: "a".into(),
            }),
            Message::Alive(Alive {
                incarnation: Incarnation(6),
                node: "b".into(),
                addr: b,
                meta: Bytes::from_static(b"meta"),
            }),
            Message::Dead(Dead {
                incarnation: Incarnation(7),
                node: "b".into(),
                from: "a".into(),
            }),
            Message::PushPull(PushPull {
                join: true,
                reply: false,
                states: vec![PushNodeState {
                    name: "a".into(),
                    addr: a,
                    incarnation: Incarnation(1),
                    state: MemberState::Alive,
                    meta: Bytes::new(),
                }],
            }),
            Message::PushPullDelta(PushPullDelta {
                from: "a".into(),
                epoch: 0xDEAD_BEEF,
                since_epoch: 0xFEED_FACE,
                since: 41,
                seq: 99,
                reply: true,
                entries: vec![PushNodeState {
                    name: "b".into(),
                    addr: b,
                    incarnation: Incarnation(7),
                    state: MemberState::Suspect,
                    meta: Bytes::from_static(b"m"),
                }],
            }),
        ]
    }

    #[test]
    fn roundtrip_all_message_types() {
        for msg in sample_messages() {
            let bytes = encode_message(&msg);
            let back = decode_message(&bytes).expect("decode");
            assert_eq!(msg, back);
        }
    }

    #[test]
    fn largest_allowed_meta_roundtrips() {
        let msg = Message::Alive(Alive {
            incarnation: Incarnation(3),
            node: "n".into(),
            addr: NodeAddr::new([10, 0, 0, 1], 7946),
            meta: Bytes::from(vec![0xAB; crate::MAX_META_LEN]),
        });
        assert_eq!(decode_message(&encode_message(&msg)), Ok(msg));
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        for msg in sample_messages() {
            assert_eq!(encode_message(&msg).len(), encoded_len(&msg), "{msg:?}");
        }
    }

    #[test]
    fn ipv6_addresses_roundtrip() {
        let addr = NodeAddr::from("[2001:db8::1]:7946".parse::<SocketAddr>().unwrap());
        let msg = Message::Alive(Alive {
            incarnation: Incarnation(1),
            node: "v6".into(),
            addr,
            meta: Bytes::new(),
        });
        assert_eq!(decode_message(&encode_message(&msg)).unwrap(), msg);
        assert_eq!(encode_message(&msg).len(), encoded_len(&msg));
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let bytes = encode_message(&Message::Ack(Ack { seq: SeqNo(9) }));
        for cut in 0..bytes.len() {
            assert!(decode_message(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_message(&Message::Ack(Ack { seq: SeqNo(9) })).to_vec();
        bytes.push(0);
        assert_eq!(
            decode_message(&bytes),
            Err(DecodeError::TrailingBytes(1))
        );
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(decode_message(&[42]), Err(DecodeError::UnknownTag(42)));
    }

    #[test]
    fn invalid_utf8_name_is_rejected() {
        // Hand-craft a suspect message with a bad name.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_SUSPECT);
        buf.put_u64(0);
        buf.put_u16(2);
        buf.put_slice(&[0xff, 0xfe]);
        buf.put_u16(0);
        assert_eq!(decode_message(&buf), Err(DecodeError::InvalidUtf8));
    }

    #[test]
    fn unknown_state_in_push_pull_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_PUSH_PULL);
        buf.put_u8(0);
        buf.put_u32(1);
        buf.put_u16(1);
        buf.put_slice(b"a");
        buf.put_u8(4);
        buf.put_slice(&[10, 0, 0, 1]);
        buf.put_u16(1);
        buf.put_u64(0);
        buf.put_u8(99); // invalid state
        buf.put_u16(0);
        assert_eq!(decode_message(&buf), Err(DecodeError::UnknownState(99)));
    }

    /// The delta codec round-trip gated by CI: every field of
    /// `PushPullDelta` (watermarks, epochs, reply flag, entry list)
    /// survives encode → decode, with and without entries, and the
    /// exact-length invariant the compound packer relies on holds.
    #[test]
    fn push_pull_delta_roundtrip() {
        let entries: Vec<PushNodeState> = (0..5)
            .map(|i| PushNodeState {
                name: format!("node-{i}").into(),
                addr: NodeAddr::new([10, 0, 0, i as u8], 7946),
                incarnation: Incarnation(i),
                state: MemberState::from_u8((i % 4) as u8).unwrap(),
                meta: Bytes::from(vec![i as u8; i as usize]),
            })
            .collect();
        for reply in [false, true] {
            for entries in [vec![], entries.clone()] {
                let msg = Message::PushPullDelta(PushPullDelta {
                    from: "sender".into(),
                    epoch: u64::MAX,
                    since_epoch: 1,
                    since: u64::MAX - 1,
                    seq: 123_456_789,
                    reply,
                    entries,
                });
                let bytes = encode_message(&msg);
                assert_eq!(bytes.len(), encoded_len(&msg));
                assert_eq!(decode_message(&bytes).unwrap(), msg);
            }
        }
    }

    #[test]
    fn empty_push_pull_roundtrips() {
        let msg = Message::PushPull(PushPull {
            join: false,
            reply: true,
            states: vec![],
        });
        assert_eq!(decode_message(&encode_message(&msg)).unwrap(), msg);
    }
}
