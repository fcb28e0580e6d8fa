//! Hand-rolled binary wire codec.
//!
//! A message is a one-byte tag followed by its fields in a fixed order.
//! Every field has one encoding:
//!
//! * **LEB128 varints** — seven bits a byte, low group first, the high
//!   bit set on every byte but the last — for incarnations, sequence
//!   numbers, the delta's `since`/`seq` watermarks, push-pull state
//!   counts and every name and blob length. A value below 128 is one
//!   byte, below 16 384 two; a `u64` takes at most ten.
//! * **Fixed width** where a varint would not pay: the delta's `epoch`
//!   and `since_epoch`, hashed 64-bit values that LEB128 would stretch
//!   to ten bytes, as big-endian `u64`s; flag bytes; and addresses, as
//!   an address-family byte (4 or 6), the raw IP octets and a
//!   big-endian `u16` port.
//!
//! ```text
//! ping           [0][seq][target][source][source addr]
//! indirect-ping  [1][seq][target][target addr][nack][source][source addr]
//! ack, nack      [2|3][seq]
//! suspect, dead  [4|6][incarnation][node][from]
//! alive          [5][incarnation][node][addr][meta]
//! push-pull      [7][flags][count][state]*
//! delta          [8][reply][from][epoch][since_epoch][since][seq][count][state]*
//!
//! state = [name][addr][incarnation][member state u8][meta]
//! name, meta = [len][bytes]     addr = [4|6][4 or 16 octets][port u16]
//! nack, reply = 0 | 1           flags = join 1 | reply 2
//! ```
//!
//! The decoder refuses any other spelling with
//! [`DecodeError::NonCanonical`]: an overlong varint (one that ends in a
//! zero group), a varint too large for its field (a name longer than
//! [`MAX_NAME_LEN`], a blob longer than [`MAX_META_LEN`], a sequence
//! number or state count above `u32::MAX`, anything past `u64::MAX`), a
//! flag byte with a bit no flag uses. So a byte string that decodes is
//! the one encoding of what it decodes to, and no datagram message it
//! accepts is longer than [`crate::DEFAULT_PACKET_BUDGET`].
//! Every message is self-delimiting, so a compound packet
//! ([`crate::compound`]) carries its parts back to back, with no length
//! table.
//!
//! The encoded size of a message is a function of its fields alone
//! ([`encoded_len`]), which the gossip queue relies on when packing
//! compound packets against the MTU budget.

use bytes::{BufMut, Bytes, BytesMut};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

use crate::error::DecodeError;
use crate::messages::{
    Ack, Alive, DatagramView, Dead, IndirectPing, Message, Nack, Ping, PushNodeState, PushPull,
    PushPullDelta, Suspect,
};
use crate::types::{Incarnation, MemberState, NodeAddr, NodeName, SeqNo};
use crate::{MAX_META_LEN, MAX_NAME_LEN};

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

/// The push-pull flag bits: `join`, then `reply`.
const FLAG_JOIN: u8 = 1;
const FLAG_REPLY: u8 = 2;

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
            put_varint(buf, u64::from(p.seq.0));
            put_name(buf, &p.target);
            put_name(buf, &p.source);
            put_addr(buf, p.source_addr);
        }
        Message::IndirectPing(p) => {
            buf.put_u8(TAG_INDIRECT_PING);
            put_varint(buf, u64::from(p.seq.0));
            put_name(buf, &p.target);
            put_addr(buf, p.target_addr);
            buf.put_u8(u8::from(p.nack));
            put_name(buf, &p.source);
            put_addr(buf, p.source_addr);
        }
        Message::Ack(a) => {
            buf.put_u8(TAG_ACK);
            put_varint(buf, u64::from(a.seq.0));
        }
        Message::Nack(n) => {
            buf.put_u8(TAG_NACK);
            put_varint(buf, u64::from(n.seq.0));
        }
        Message::Suspect(s) => {
            buf.put_u8(TAG_SUSPECT);
            put_varint(buf, s.incarnation.0);
            put_name(buf, &s.node);
            put_name(buf, &s.from);
        }
        Message::Alive(a) => {
            buf.put_u8(TAG_ALIVE);
            put_varint(buf, a.incarnation.0);
            put_name(buf, &a.node);
            put_addr(buf, a.addr);
            put_blob(buf, &a.meta);
        }
        Message::Dead(d) => {
            buf.put_u8(TAG_DEAD);
            put_varint(buf, d.incarnation.0);
            put_name(buf, &d.node);
            put_name(buf, &d.from);
        }
        Message::PushPull(pp) => {
            buf.put_u8(TAG_PUSH_PULL);
            let join = if pp.join { FLAG_JOIN } else { 0 };
            let reply = if pp.reply { FLAG_REPLY } else { 0 };
            buf.put_u8(join | reply);
            put_states(buf, &pp.states);
        }
        Message::PushPullDelta(d) => {
            buf.put_u8(TAG_PUSH_PULL_DELTA);
            buf.put_u8(u8::from(d.reply));
            put_name(buf, &d.from);
            buf.put_u64(d.epoch);
            buf.put_u64(d.since_epoch);
            put_varint(buf, d.since);
            put_varint(buf, d.seq);
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
        Message::PushPull(pp) => 1 + 1 + 5 + pp.states.len() * 64,
        Message::PushPullDelta(d) => 1 + 1 + name_len(&d.from) + 16 + 20 + 5 + d.entries.len() * 64,
        other => encoded_len(other),
    }
}

/// Exact number of bytes [`encode_message_into`] will append for `msg`.
///
/// O(1) for all message types except `push-pull` (O(states)); used by
/// telemetry and the length-invariant tests.
pub fn encoded_len(msg: &Message) -> usize {
    match msg {
        Message::Ping(p) => {
            1 + seq_len(p.seq) + name_len(&p.target) + name_len(&p.source) + addr_len(p.source_addr)
        }
        Message::IndirectPing(p) => {
            1 + seq_len(p.seq)
                + name_len(&p.target)
                + addr_len(p.target_addr)
                + 1
                + name_len(&p.source)
                + addr_len(p.source_addr)
        }
        Message::Ack(Ack { seq }) | Message::Nack(Nack { seq }) => 1 + seq_len(*seq),
        Message::Suspect(s) => {
            1 + varint_len(s.incarnation.0) + name_len(&s.node) + name_len(&s.from)
        }
        Message::Alive(a) => {
            1 + varint_len(a.incarnation.0)
                + name_len(&a.node)
                + addr_len(a.addr)
                + blob_len(&a.meta)
        }
        Message::Dead(d) => 1 + varint_len(d.incarnation.0) + name_len(&d.node) + name_len(&d.from),
        Message::PushPull(pp) => 1 + 1 + states_len(&pp.states),
        Message::PushPullDelta(d) => {
            1 + 1
                + name_len(&d.from)
                + 8
                + 8
                + varint_len(d.since)
                + varint_len(d.seq)
                + states_len(&d.entries)
        }
    }
}

fn states_len(states: &[PushNodeState]) -> usize {
    varint_len(states.len() as u64)
        + states
            .iter()
            .map(|st| {
                name_len(&st.name)
                    + addr_len(st.addr)
                    + varint_len(st.incarnation.0)
                    + 1
                    + blob_len(&st.meta)
            })
            .sum::<usize>()
}

fn put_states(buf: &mut BytesMut, states: &[PushNodeState]) {
    // The decoder refuses a count above `u32::MAX`; membership lists
    // are nowhere near that long.
    debug_assert!(u32::try_from(states.len()).is_ok(), "state list too long");
    put_varint(buf, states.len() as u64);
    for st in states {
        put_name(buf, &st.name);
        put_addr(buf, st.addr);
        put_varint(buf, st.incarnation.0);
        buf.put_u8(st.state.as_u8());
        put_blob(buf, &st.meta);
    }
}

/// The subject's name bytes in the encoding of an `alive`, `suspect` or
/// `dead` message ([`Message::gossip_subject`] without decoding): all
/// three put it at the same place, after the tag and the varint
/// incarnation, as a varint-length-prefixed string. `None` for any
/// other tag or a buffer too short to hold the name. Reads nothing
/// after it.
///
/// ```
/// use lifeguard_proto::{codec, Dead, Incarnation, Message};
/// let dead = Message::Dead(Dead {
///     incarnation: Incarnation(3),
///     node: "n-7".into(),
///     from: "n-1".into(),
/// });
/// assert_eq!(codec::gossip_subject(&codec::encode_message(&dead)), Some(&b"n-7"[..]));
/// ```
pub fn gossip_subject(encoded: &[u8]) -> Option<&[u8]> {
    let mut r = Reader::new(encoded);
    if !matches!(r.get_u8().ok()?, TAG_SUSPECT | TAG_ALIVE | TAG_DEAD) {
        return None;
    }
    r.get_varint(u64::MAX).ok()?;
    r.get_field(MAX_NAME_LEN).ok()
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
    r.finish()?;
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
    r.finish()?;
    Ok(msg)
}

/// Decodes one message from the reader, leaving any following bytes.
pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Message, DecodeError> {
    let tag = r.get_u8()?;
    match tag {
        TAG_PING => Ok(Message::Ping(Ping {
            seq: r.get_seq()?,
            target: r.get_name()?,
            source: r.get_name()?,
            source_addr: r.get_addr()?,
        })),
        TAG_INDIRECT_PING => Ok(Message::IndirectPing(IndirectPing {
            seq: r.get_seq()?,
            target: r.get_name()?,
            target_addr: r.get_addr()?,
            nack: r.get_bool()?,
            source: r.get_name()?,
            source_addr: r.get_addr()?,
        })),
        TAG_ACK => Ok(Message::Ack(Ack { seq: r.get_seq()? })),
        TAG_NACK => Ok(Message::Nack(Nack { seq: r.get_seq()? })),
        TAG_SUSPECT => Ok(Message::Suspect(Suspect {
            incarnation: r.get_incarnation()?,
            node: r.get_name()?,
            from: r.get_name()?,
        })),
        TAG_ALIVE => Ok(Message::Alive(Alive {
            incarnation: r.get_incarnation()?,
            node: r.get_name()?,
            addr: r.get_addr()?,
            meta: r.get_blob()?,
        })),
        TAG_DEAD => Ok(Message::Dead(Dead {
            incarnation: r.get_incarnation()?,
            node: r.get_name()?,
            from: r.get_name()?,
        })),
        TAG_PUSH_PULL => {
            let flags = r.get_u8()?;
            if flags & !(FLAG_JOIN | FLAG_REPLY) != 0 {
                return Err(DecodeError::NonCanonical);
            }
            let states = get_states(r)?;
            Ok(Message::PushPull(PushPull {
                join: flags & FLAG_JOIN != 0,
                reply: flags & FLAG_REPLY != 0,
                states,
            }))
        }
        TAG_PUSH_PULL_DELTA => {
            let reply = r.get_bool()?;
            Ok(Message::PushPullDelta(PushPullDelta {
                reply,
                from: r.get_name()?,
                epoch: r.get_u64()?,
                since_epoch: r.get_u64()?,
                since: r.get_varint(u64::MAX)?,
                seq: r.get_varint(u64::MAX)?,
                entries: get_states(r)?,
            }))
        }
        other => Err(DecodeError::UnknownTag(other)),
    }
}

/// Decodes one datagram message from the reader as a borrowed view,
/// leaving any following bytes, with [`decode_from`]'s result for every
/// byte string: the same fields read in the same order through the same
/// [`Reader`], so the same [`DecodeError`] for the same malformed input.
/// Allocates nothing for a datagram message. A stream-only `push-pull`
/// message has no view: it is checked (and stepped over) by
/// [`decode_from`] itself and yields `Ok(None)`.
pub(crate) fn view_from<'a>(r: &mut Reader<'a>) -> Result<Option<DatagramView<'a>>, DecodeError> {
    let at_tag = r.clone();
    let view = match r.get_u8()? {
        TAG_PING => DatagramView::Ping {
            seq: r.get_seq()?,
            target: r.get_str()?,
            source: r.get_str()?,
            source_addr: r.get_addr()?,
        },
        TAG_INDIRECT_PING => DatagramView::IndirectPing {
            seq: r.get_seq()?,
            target: r.get_str()?,
            target_addr: r.get_addr()?,
            nack: r.get_bool()?,
            source: r.get_str()?,
            source_addr: r.get_addr()?,
        },
        TAG_ACK => DatagramView::Ack { seq: r.get_seq()? },
        TAG_NACK => DatagramView::Nack { seq: r.get_seq()? },
        TAG_SUSPECT => DatagramView::Suspect {
            incarnation: r.get_incarnation()?,
            node: r.get_str()?,
            from: r.get_str()?,
        },
        TAG_ALIVE => DatagramView::Alive {
            incarnation: r.get_incarnation()?,
            node: r.get_str()?,
            addr: r.get_addr()?,
            meta: r.get_field(MAX_META_LEN)?,
        },
        TAG_DEAD => DatagramView::Dead {
            incarnation: r.get_incarnation()?,
            node: r.get_str()?,
            from: r.get_str()?,
        },
        TAG_PUSH_PULL | TAG_PUSH_PULL_DELTA => {
            *r = at_tag;
            decode_from(r)?;
            return Ok(None);
        }
        other => return Err(DecodeError::UnknownTag(other)),
    };
    Ok(Some(view))
}

fn get_states(r: &mut Reader<'_>) -> Result<Vec<PushNodeState>, DecodeError> {
    let count = r.get_u32_varint()? as usize;
    let mut states = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        states.push(PushNodeState {
            name: r.get_name()?,
            addr: r.get_addr()?,
            incarnation: r.get_incarnation()?,
            state: {
                let b = r.get_u8()?;
                MemberState::from_u8(b).ok_or(DecodeError::UnknownState(b))?
            },
            meta: r.get_blob()?,
        });
    }
    Ok(states)
}

/// Bytes of `v` as a LEB128 varint: one per started group of seven
/// bits, at least one. (`(bits · 9 + 64) / 64` is ⌈bits / 7⌉ for every
/// bit count from 1 to 64.)
fn varint_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    (bits * 9 + 64) >> 6
}

fn seq_len(seq: SeqNo) -> usize {
    varint_len(u64::from(seq.0))
}

fn name_len(n: &NodeName) -> usize {
    varint_len(n.len() as u64) + n.len()
}

fn blob_len(b: &[u8]) -> usize {
    varint_len(b.len() as u64) + b.len()
}

fn addr_len(a: NodeAddr) -> usize {
    match a.ip() {
        IpAddr::V4(_) => 1 + 4 + 2,
        IpAddr::V6(_) => 1 + 16 + 2,
    }
}

/// Appends `v` as a LEB128 varint.
fn put_varint(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        let [low, ..] = v.to_le_bytes();
        buf.put_u8(low | 0x80);
        v >>= 7;
    }
    let [last, ..] = v.to_le_bytes();
    buf.put_u8(last);
}

fn put_name(buf: &mut BytesMut, n: &NodeName) {
    put_field(buf, n.as_str().as_bytes(), MAX_NAME_LEN);
}

fn put_blob(buf: &mut BytesMut, b: &[u8]) {
    put_field(buf, b, MAX_META_LEN);
}

/// A varint-length-prefixed field of at most `max` bytes, the cap the
/// decoder holds it to. Every one is bounded at its source: a node's own
/// name to [`MAX_NAME_LEN`] in `SwimNode::try_new`
/// (`ConfigError::NodeNameTooLong`), its metadata to [`MAX_META_LEN`] in
/// `SwimNode::update_meta`, and every peer's name or blob was decoded
/// under the same caps.
fn put_field(buf: &mut BytesMut, b: &[u8], max: usize) {
    debug_assert!(b.len() <= max, "length-prefixed field too long");
    put_varint(buf, b.len() as u64);
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

    /// `Ok` if every byte was read, [`DecodeError::TrailingBytes`]
    /// otherwise.
    pub(crate) fn finish(&self) -> Result<(), DecodeError> {
        match self.rest().len() {
            0 => Ok(()),
            left => Err(DecodeError::TrailingBytes(left)),
        }
    }

    /// The next byte, not consumed.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    pub(crate) fn get_u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(u8::from_be_bytes)
    }

    fn get_u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_be_bytes)
    }

    fn get_u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_be_bytes)
    }

    /// A flag byte: 0 or 1.
    fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::NonCanonical),
        }
    }

    /// A LEB128 varint of at most `max`, in its one encoding: no
    /// trailing zero group, no bit past the 64th.
    fn get_varint(&mut self, max: u64) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        let mut shift = 0;
        loop {
            let byte = self.get_u8()?;
            let group = u64::from(byte & 0x7f);
            // The tenth byte holds bit 63 alone.
            if shift == 63 && group > 1 {
                return Err(DecodeError::NonCanonical);
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                if (byte == 0 && shift > 0) || value > max {
                    return Err(DecodeError::NonCanonical);
                }
                return Ok(value);
            }
            if shift == 63 {
                return Err(DecodeError::NonCanonical);
            }
            shift += 7;
        }
    }

    fn get_u32_varint(&mut self) -> Result<u32, DecodeError> {
        let v = self.get_varint(u64::from(u32::MAX))?;
        u32::try_from(v).map_err(|_| DecodeError::NonCanonical)
    }

    fn get_seq(&mut self) -> Result<SeqNo, DecodeError> {
        self.get_u32_varint().map(SeqNo)
    }

    fn get_incarnation(&mut self) -> Result<Incarnation, DecodeError> {
        self.get_varint(u64::MAX).map(Incarnation)
    }

    /// A name or blob length: at most `max`, its field's cap
    /// ([`MAX_NAME_LEN`] or [`MAX_META_LEN`]), checked before the bytes
    /// are looked for.
    fn get_len(&mut self, max: usize) -> Result<usize, DecodeError> {
        let v = self.get_varint(max as u64)?;
        usize::try_from(v).map_err(|_| DecodeError::NonCanonical)
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

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
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
        let raw = self.get_field(MAX_NAME_LEN)?;
        std::str::from_utf8(raw).map_err(|_| DecodeError::InvalidUtf8)
    }

    /// A length-prefixed field of at most `max` bytes, borrowed from
    /// the buffer.
    fn get_field(&mut self, max: usize) -> Result<&'a [u8], DecodeError> {
        let len = self.get_len(max)?;
        self.take(len)
    }

    /// A length-prefixed metadata blob.
    fn get_blob(&mut self) -> Result<Bytes, DecodeError> {
        let len = self.get_len(MAX_META_LEN)?;
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
        assert_eq!(decode_message(&bytes), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(decode_message(&[42]), Err(DecodeError::UnknownTag(42)));
    }

    #[test]
    fn invalid_utf8_name_is_rejected() {
        // A suspect at incarnation 0 whose subject is two bytes that are
        // not UTF-8, from an empty name.
        let bytes = [TAG_SUSPECT, 0, 2, 0xff, 0xfe, 0];
        assert_eq!(decode_message(&bytes), Err(DecodeError::InvalidUtf8));
        let mut good = bytes;
        [good[3], good[4]] = *b"ok";
        assert!(decode_message(&good).is_ok());
    }

    #[test]
    fn unknown_state_in_push_pull_is_rejected() {
        let bytes = [
            &[TAG_PUSH_PULL, 0][..], // no flags
            &[1],                    // one state
            &[1, b'a'],              // named "a"
            &[4, 10, 0, 0, 1, 0, 1], // at 10.0.0.1:1
            &[0, 99, 0],             // incarnation 0, an invalid state, no meta
        ]
        .concat();
        assert_eq!(decode_message(&bytes), Err(DecodeError::UnknownState(99)));
        let mut good = bytes;
        good[13] = MemberState::Left.as_u8();
        assert!(decode_message(&good).is_ok());
    }

    /// The sizes `docs/PERFORMANCE.md` §3 tabulates: seven-byte names,
    /// an IPv4 address, and a sequence number and incarnation below
    /// 128.
    #[test]
    fn sizes_of_the_common_messages() {
        let addr = NodeAddr::new([10, 0, 0, 42], 7946);
        let (node, from): (NodeName, NodeName) = ("node-42".into(), "node-17".into());
        let alive = |meta: &'static [u8]| {
            Message::Alive(Alive {
                incarnation: Incarnation(3),
                node: node.clone(),
                addr,
                meta: Bytes::from_static(meta),
            })
        };
        let entry = PushNodeState {
            name: node.clone(),
            addr,
            incarnation: Incarnation(3),
            state: MemberState::Alive,
            meta: Bytes::new(),
        };
        let one_entry = |states: Vec<PushNodeState>| {
            encoded_len(&Message::PushPull(PushPull {
                join: false,
                reply: false,
                states,
            }))
        };
        let sizes = [
            Message::Ping(Ping {
                seq: SeqNo(9),
                target: node.clone(),
                source: from.clone(),
                source_addr: addr,
            }),
            Message::Ack(Ack { seq: SeqNo(9) }),
            Message::Suspect(Suspect {
                incarnation: Incarnation(3),
                node: node.clone(),
                from: from.clone(),
            }),
            alive(b""),
            alive(&[7; 16]),
            Message::Dead(Dead {
                incarnation: Incarnation(3),
                node: node.clone(),
                from,
            }),
        ]
        .map(|msg| encoded_len(&msg));
        assert_eq!(sizes, [25, 2, 18, 18, 34, 18]);
        assert_eq!(one_entry(vec![entry]) - one_entry(vec![]), 18);
    }

    /// Each LEB128 width, from one byte to ten, round-trips at both of
    /// its ends, in the length `encoded_len` predicts.
    #[test]
    fn varints_round_trip_at_every_width() {
        let mut widths = vec![0u64];
        for bits in (7..64).step_by(7) {
            widths.extend([(1u64 << bits) - 1, 1 << bits]);
        }
        widths.push(u64::MAX);
        for v in widths {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "{v}");
            assert_eq!(Reader::new(&buf).get_varint(u64::MAX), Ok(v));
            let msg = Message::Dead(Dead {
                incarnation: Incarnation(v),
                node: "n".into(),
                from: "m".into(),
            });
            assert_eq!(encode_message(&msg).len(), encoded_len(&msg));
            assert_eq!(decode_message(&encode_message(&msg)), Ok(msg));
        }
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(u64::from(u32::MAX)), 5);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    /// The strict decoder: an overlong varint, one past its field's
    /// range and a flag byte other than 0 or 1 are refused, and the
    /// largest value of each field is not.
    #[test]
    fn only_the_canonical_encoding_is_accepted() {
        let refused = |bytes: &[u8]| {
            assert_eq!(
                decode_message(bytes),
                Err(DecodeError::NonCanonical),
                "{bytes:?}"
            )
        };
        // Overlong: a zero group at the end, of a zero and of a five.
        refused(&[TAG_ACK, 0x80, 0x00]);
        refused(&[TAG_ACK, 0x85, 0x80, 0x00]);
        // A sequence number is a u32.
        let seq_max = [TAG_ACK, 0xff, 0xff, 0xff, 0xff, 0x0f];
        assert_eq!(
            decode_message(&seq_max),
            Ok(Message::Ack(Ack {
                seq: SeqNo(u32::MAX)
            }))
        );
        refused(&[TAG_ACK, 0xff, 0xff, 0xff, 0xff, 0x10]);
        refused(&[TAG_ACK, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01]);
        // An incarnation is a u64: the tenth byte holds bit 63 alone,
        // and there is no eleventh.
        let mut inc_max = vec![TAG_SUSPECT];
        inc_max.extend([0xff; 9]);
        inc_max.extend([0x01, 1, b'n', 1, b'm']);
        assert!(decode_message(&inc_max).is_ok());
        let mut too_big = inc_max.clone();
        too_big[10] = 0x02;
        refused(&too_big);
        let mut too_long = inc_max.clone();
        too_long[10] = 0x81;
        too_long.insert(11, 0x00);
        refused(&too_long);
        // A name is at most MAX_NAME_LEN = 255 bytes: a length of 256
        // is refused before the bytes are looked for.
        refused(&[TAG_SUSPECT, 0, 0x80, 0x02]);
        assert_eq!(
            decode_message(&[TAG_SUSPECT, 0, 0xff, 0x01]),
            Err(DecodeError::UnexpectedEof)
        );
        // Flags: `nack` and a delta's `reply` are 0 or 1, push-pull's
        // flags use two bits.
        let indirect = encode_message(&sample_messages()[1]);
        let nack_at = 1 + 1 + 2 + 7;
        assert_eq!(indirect[nack_at], 1);
        let mut two = indirect.to_vec();
        two[nack_at] = 2;
        refused(&two);
        refused(&[TAG_PUSH_PULL, 4, 0]);
        refused(&[TAG_PUSH_PULL_DELTA, 2]);
        assert!(decode_message(&[TAG_PUSH_PULL, 3, 0]).is_ok());
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

    /// The largest message of each datagram kind, every field at its
    /// widest: names of `MAX_NAME_LEN` bytes, IPv6 addresses, a
    /// sequence number and an incarnation in their longest varints and
    /// `MAX_META_LEN` bytes of metadata. Each fits
    /// `DEFAULT_PACKET_BUDGET`, and the compound builder keeps a packet
    /// of several within it, so a receive buffer of the budget holds any
    /// datagram a node sends. A cap raised past the budget fails here.
    #[test]
    fn the_largest_message_of_each_datagram_kind_fits_the_budget() {
        let name = || NodeName::from("n".repeat(MAX_NAME_LEN));
        let addr = NodeAddr::from(SocketAddr::new(Ipv6Addr::from([0xff; 16]).into(), u16::MAX));
        let seq = SeqNo(u32::MAX);
        let incarnation = Incarnation(u64::MAX);
        let largest = [
            Message::Ping(Ping {
                seq,
                target: name(),
                source: name(),
                source_addr: addr,
            }),
            Message::IndirectPing(IndirectPing {
                seq,
                target: name(),
                target_addr: addr,
                nack: true,
                source: name(),
                source_addr: addr,
            }),
            Message::Ack(Ack { seq }),
            Message::Nack(Nack { seq }),
            Message::Suspect(Suspect {
                incarnation,
                node: name(),
                from: name(),
            }),
            Message::Alive(Alive {
                incarnation,
                node: name(),
                addr,
                meta: Bytes::from(vec![0xff; MAX_META_LEN]),
            }),
            Message::Dead(Dead {
                incarnation,
                node: name(),
                from: name(),
            }),
        ];
        let sizes = largest.each_ref().map(encoded_len);
        assert_eq!(sizes, [539, 559, 6, 6, 525, 801, 525]);
        for msg in largest {
            assert!(encoded_len(&msg) <= crate::DEFAULT_PACKET_BUDGET, "{msg:?}");
            assert_eq!(decode_message(&encode_message(&msg)), Ok(msg));
        }
    }

    /// A name one byte over `MAX_NAME_LEN`, or a metadata blob one byte
    /// over `MAX_META_LEN`, is refused wherever it stands: in a lone
    /// message, as a delta's sender, and in a push-pull or delta entry,
    /// by the owned decoder and the view walker alike. The same bytes
    /// with the field at its cap decode, and re-encode to themselves.
    #[test]
    fn a_name_or_blob_over_its_cap_is_refused() {
        // A length-prefixed field of `len` bytes.
        let field = |len: usize| {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, len as u64);
            buf.put_slice(&vec![b'n'; len]);
            buf.to_vec()
        };
        let addr = vec![4, 10, 0, 0, 1, 0x1e, 0xaa];
        // A push-pull entry: alive at incarnation 0.
        let entry = |name, meta| [field(name), addr.clone(), vec![0, 0], field(meta)].concat();
        // A delta: zero epochs and watermarks, then one entry.
        let delta = |from, entry| {
            [
                vec![TAG_PUSH_PULL_DELTA, 0],
                field(from),
                vec![0; 18],
                vec![1],
                entry,
            ]
            .concat()
        };
        // One message per place a name or a blob stands, that field `n`
        // or `m` bytes long and every other one byte or empty.
        let messages = |n, m| {
            [
                [vec![TAG_SUSPECT, 0], field(n), field(1)].concat(),
                [vec![TAG_ALIVE, 0], field(n), addr.clone(), field(0)].concat(),
                [vec![TAG_ALIVE, 0], field(1), addr.clone(), field(m)].concat(),
                [vec![TAG_PUSH_PULL, 0, 1], entry(n, 0)].concat(),
                [vec![TAG_PUSH_PULL, 0, 1], entry(1, m)].concat(),
                delta(n, entry(1, 0)),
                delta(1, entry(n, 0)),
                delta(1, entry(1, m)),
            ]
        };
        let at_cap = messages(MAX_NAME_LEN, MAX_META_LEN);
        let over = messages(MAX_NAME_LEN + 1, MAX_META_LEN + 1);
        for (at_cap, over) in at_cap.iter().zip(&over) {
            let msg = decode_message(at_cap).expect("every field within its cap");
            assert_eq!(&encode_message(&msg)[..], &at_cap[..]);
            assert_eq!(decode_message(over), Err(DecodeError::NonCanonical));
            assert_eq!(
                crate::compound::for_each_view(over, |_| {}),
                Err(DecodeError::NonCanonical)
            );
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
