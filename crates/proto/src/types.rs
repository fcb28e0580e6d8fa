//! Fundamental protocol value types.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};
use std::sync::Arc;

/// The unique name of a group member.
///
/// Names are immutable UTF-8 strings held in 16 bytes. A name of at most
/// [`NodeName::INLINE_LEN`] bytes is stored inline, zero-padded, so
/// cloning it is a copy and comparing it reads no other cache line; a
/// longer name is shared behind one thin pointer, so cloning it is a
/// reference-count increment and reading it one more pointer hop than an
/// `Arc<str>`. Each name has exactly one form, so equality, ordering and
/// hashing are those of the name's bytes — of its `&str`.
/// `Option<NodeName>` is 16 bytes too.
///
/// ```
/// use lifeguard_proto::NodeName;
/// let a = NodeName::from("node-1");
/// let b = a.clone();
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "node-1");
/// assert_eq!(std::mem::size_of::<NodeName>(), 16);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct NodeName(Repr);

/// The two forms of a [`NodeName`]. Derived equality is the bytes'
/// equality because the form is a function of the length: a name of at
/// most `INLINE_LEN` bytes is always `Inline`, a longer one `Shared`.
/// `repr(u8)` fixes the layout — a tag byte, then the length and the
/// bytes, or the pointer at offset 8 — and leaves the tag's unused
/// values to `Option`'s `None`.
#[derive(Clone, PartialEq, Eq)]
#[repr(u8)]
enum Repr {
    /// The name's `len` bytes, then zeros.
    Inline {
        len: u8,
        bytes: [u8; NodeName::INLINE_LEN],
    },
    Shared(Arc<Box<str>>),
}

impl NodeName {
    /// The longest name stored inline, in bytes.
    pub const INLINE_LEN: usize = 14;

    /// Returns the name as a string slice.
    #[inline]
    #[expect(
        unsafe_code,
        reason = "an inline name is read back without re-validating its UTF-8 on every access"
    )]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                let name = bytes.get(..usize::from(*len)).unwrap_or_default();
                // SAFETY: inline bytes are only ever written by
                // `From<&str>`, which copies a whole `&str` of at most
                // `INLINE_LEN` bytes to the front of a zeroed array and
                // records its length, so `name` is exactly that `&str`'s
                // bytes: valid UTF-8.
                unsafe { std::str::from_utf8_unchecked(name) }
            }
            Repr::Shared(name) => name,
        }
    }

    /// Length of the name in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_str().len()
    }

    /// Whether the name is empty. Empty names are never valid members but
    /// can appear in partially-initialised messages.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PartialOrd for NodeName {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NodeName {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

/// Hashes like the name's `&str`, so a table keyed by names can be
/// probed with the bytes a packet carries.
impl Hash for NodeName {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Display for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeName({:?})", self.as_str())
    }
}

impl From<&str> for NodeName {
    #[inline]
    fn from(s: &str) -> Self {
        match u8::try_from(s.len()) {
            Ok(len) if s.len() <= NodeName::INLINE_LEN => {
                let mut bytes = [0; NodeName::INLINE_LEN];
                for (to, from) in bytes.iter_mut().zip(s.as_bytes()) {
                    *to = *from;
                }
                NodeName(Repr::Inline { len, bytes })
            }
            _ => NodeName(Repr::Shared(Arc::new(Box::from(s)))),
        }
    }
}

impl From<String> for NodeName {
    #[inline]
    fn from(s: String) -> Self {
        if s.len() <= NodeName::INLINE_LEN {
            return NodeName::from(s.as_str());
        }
        NodeName(Repr::Shared(Arc::new(s.into_boxed_str())))
    }
}

impl AsRef<str> for NodeName {
    #[inline]
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// A member's network address (IP + port).
///
/// Stores exactly what the wire carries — the address family, the
/// address octets and the port — in 20 bytes, so protocol code cannot
/// accidentally mix node addresses with other socket addresses and every
/// message, queued packet and member record that embeds one stays small.
/// Conversion to and from [`SocketAddr`] is trivial for real-network
/// transports; an IPv6 flow label and scope id are *not* stored, so
/// `From<SocketAddr>` drops them.
///
/// Addresses order like [`SocketAddr`]s: every IPv4 address before every
/// IPv6 one, then by octets, then by port.
///
/// ```
/// use lifeguard_proto::NodeAddr;
/// let addr = NodeAddr::new([10, 0, 0, 1], 7946);
/// assert_eq!(addr.port(), 7946);
/// ```
// Field order is the sort order (derived `Ord`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeAddr {
    /// The wire's family byte: 4 or 6. A plain `u8` on purpose — a
    /// `bool` or an enum here has spare values, the compiler would make
    /// them the `None` of every `Option` around a record holding an
    /// address, and each such `Option` test would reload this byte.
    family: u8,
    /// All sixteen octets of an IPv6 address; an IPv4 address fills the
    /// first four and leaves the rest zero.
    octets: [u8; 16],
    port: u16,
}

impl NodeAddr {
    /// Creates an IPv4 node address.
    pub fn new(ip: [u8; 4], port: u16) -> Self {
        let [a, b, c, d] = ip;
        NodeAddr {
            family: 4,
            octets: [a, b, c, d, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            port,
        }
    }

    /// The address as a socket address (flow label and scope id zero).
    pub fn socket_addr(&self) -> SocketAddr {
        SocketAddr::new(self.ip(), self.port)
    }

    /// The IP component.
    pub fn ip(&self) -> IpAddr {
        if self.family == 6 {
            IpAddr::V6(Ipv6Addr::from(self.octets))
        } else {
            let [a, b, c, d, ..] = self.octets;
            IpAddr::V4(Ipv4Addr::new(a, b, c, d))
        }
    }

    /// The port component.
    pub fn port(&self) -> u16 {
        self.port
    }
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.socket_addr(), f)
    }
}

impl fmt::Debug for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeAddr({})", self.socket_addr())
    }
}

/// Keeps the family, the address octets and the port. An IPv6 socket
/// address's flow label and scope id are dropped: the wire never carried
/// them, so no peer could have learned them.
impl From<SocketAddr> for NodeAddr {
    fn from(addr: SocketAddr) -> Self {
        match addr.ip() {
            IpAddr::V4(ip) => NodeAddr::new(ip.octets(), addr.port()),
            IpAddr::V6(ip) => NodeAddr {
                family: 6,
                octets: ip.octets(),
                port: addr.port(),
            },
        }
    }
}

impl From<NodeAddr> for SocketAddr {
    fn from(addr: NodeAddr) -> Self {
        addr.socket_addr()
    }
}

/// A member's incarnation number.
///
/// Incarnation numbers establish precedence between competing `alive`,
/// `suspect` and `dead` messages about the same member (SWIM §4.2). Only the
/// member itself may increment its incarnation, which it does to refute a
/// suspicion.
///
/// ```
/// use lifeguard_proto::Incarnation;
/// let i = Incarnation(3);
/// assert!(i.next() > i);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Incarnation(pub u64);

impl Incarnation {
    /// The incarnation every member starts with.
    pub const ZERO: Incarnation = Incarnation(0);

    /// The next incarnation number.
    pub fn next(self) -> Incarnation {
        Incarnation(self.0 + 1)
    }

    /// Raw value.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Incarnation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Sequence number correlating a `ping`/`indirect ping` with its
/// `ack`/`nack` response.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SeqNo(pub u32);

impl SeqNo {
    /// The next sequence number, wrapping on overflow.
    pub fn next(self) -> SeqNo {
        SeqNo(self.0.wrapping_add(1))
    }

    /// Raw value.
    pub fn get(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The protocol-visible state of a member.
///
/// State transitions follow SWIM with the Suspicion subprotocol:
/// `Alive → Suspect → Dead`, with `Suspect → Alive` on refutation. `Left` is
/// memberlist's graceful-departure state, which is treated like `Dead` for
/// dissemination purposes but is not a failure.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemberState {
    /// The member is believed healthy.
    Alive,
    /// The member failed a probe and is under suspicion.
    Suspect,
    /// The member was declared failed.
    Dead,
    /// The member left the group voluntarily.
    Left,
}

impl MemberState {
    /// Stable wire encoding of the state.
    pub fn as_u8(self) -> u8 {
        match self {
            MemberState::Alive => 0,
            MemberState::Suspect => 1,
            MemberState::Dead => 2,
            MemberState::Left => 3,
        }
    }

    /// Decodes a wire state byte.
    pub fn from_u8(v: u8) -> Option<MemberState> {
        match v {
            0 => Some(MemberState::Alive),
            1 => Some(MemberState::Suspect),
            2 => Some(MemberState::Dead),
            3 => Some(MemberState::Left),
            _ => None,
        }
    }

    /// Whether the state counts as a live group participant (alive or
    /// merely suspected).
    pub fn is_live(self) -> bool {
        matches!(self, MemberState::Alive | MemberState::Suspect)
    }
}

impl fmt::Display for MemberState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemberState::Alive => "alive",
            MemberState::Suspect => "suspect",
            MemberState::Dead => "dead",
            MemberState::Left => "left",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_name_roundtrip_and_display() {
        let n = NodeName::from("node-7");
        assert_eq!(n.to_string(), "node-7");
        assert_eq!(n.as_ref(), "node-7");
        assert_eq!(n.len(), 6);
        assert!(!n.is_empty());
        assert!(NodeName::from("").is_empty());
    }

    #[test]
    fn node_name_ordering_is_lexicographic() {
        let a = NodeName::from("a");
        let b = NodeName::from("b");
        assert!(a < b);
    }

    #[test]
    fn node_addr_conversions() {
        let addr = NodeAddr::new([10, 1, 2, 3], 7946);
        let sock: SocketAddr = addr.into();
        assert_eq!(NodeAddr::from(sock), addr);
        assert_eq!(addr.port(), 7946);
        assert_eq!(addr.to_string(), "10.1.2.3:7946");
    }

    #[test]
    fn incarnation_next_is_monotonic() {
        let i = Incarnation::ZERO;
        assert_eq!(i.next(), Incarnation(1));
        assert!(i.next() > i);
        assert_eq!(Incarnation(9).get(), 9);
    }

    #[test]
    fn seqno_wraps() {
        assert_eq!(SeqNo(u32::MAX).next(), SeqNo(0));
        assert_eq!(SeqNo(1).next(), SeqNo(2));
    }

    #[test]
    fn member_state_wire_roundtrip() {
        for s in [
            MemberState::Alive,
            MemberState::Suspect,
            MemberState::Dead,
            MemberState::Left,
        ] {
            assert_eq!(MemberState::from_u8(s.as_u8()), Some(s));
        }
        assert_eq!(MemberState::from_u8(200), None);
    }

    #[test]
    fn member_state_liveness() {
        assert!(MemberState::Alive.is_live());
        assert!(MemberState::Suspect.is_live());
        assert!(!MemberState::Dead.is_live());
        assert!(!MemberState::Left.is_live());
    }
}
