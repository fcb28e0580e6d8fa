//! Wire transport over real sockets: framing split from I/O.
//!
//! * Datagrams: one UDP socket, packets already compound-encoded by the
//!   protocol core.
//! * Streams: one short-lived TCP connection per message (push-pull
//!   sync, fallback probes), framed as
//!   `[sender advertised addr][u32 length][encoded message]` so the
//!   receiver can route replies to the sender's listener rather than the
//!   ephemeral connection source.
//!
//! Framing is a pure, incremental state machine ([`FrameDecoder`]:
//! feed bytes, poll for a frame) with **no I/O inside** — the
//! readiness-driven reactor feeds it whatever a nonblocking read
//! returned, while the blocking [`read_frame`] (scripted peers in tests
//! and the benchmark) wraps the same decoder around a blocking `Read`. The
//! length prefix is validated against [`MAX_STREAM_FRAME`] *before* any
//! body buffer is grown, so an attacker-controlled length can never
//! drive an allocation.

use std::io::{self, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpStream};
use std::time::Duration;

use bytes::{BufMut, BytesMut};
use lifeguard_proto::{codec, DecodeError, Message, NodeAddr};

/// Largest accepted stream frame body, in bytes (a push-pull of a few
/// thousand members fits comfortably).
pub const MAX_STREAM_FRAME: usize = 16 * 1024 * 1024;

/// I/O timeout for stream sends and reads.
pub const STREAM_TIMEOUT: Duration = Duration::from_secs(5);

/// Errors from stream framing.
#[derive(Debug)]
pub enum StreamError {
    /// Socket-level failure.
    Io(io::Error),
    /// Malformed frame or message.
    Decode(DecodeError),
    /// Frame length exceeded the decoder's maximum.
    Oversized(usize),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream i/o error: {e}"),
            StreamError::Decode(e) => write!(f, "stream decode error: {e}"),
            StreamError::Oversized(n) => write!(f, "stream frame of {n} bytes is oversized"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Decode(e) => Some(e),
            StreamError::Oversized(_) => None,
        }
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<DecodeError> for StreamError {
    fn from(e: DecodeError) -> Self {
        StreamError::Decode(e)
    }
}

/// Encodes a stream frame: sender address, length, message.
pub fn encode_frame(sender: NodeAddr, msg: &Message) -> Vec<u8> {
    let body = codec::encode_message(msg);
    let mut buf = BytesMut::with_capacity(body.len() + 32);
    match sender.ip() {
        std::net::IpAddr::V4(ip) => {
            buf.put_u8(4);
            buf.put_slice(&ip.octets());
        }
        std::net::IpAddr::V6(ip) => {
            buf.put_u8(6);
            buf.put_slice(&ip.octets());
        }
    }
    buf.put_u16(sender.port());
    debug_assert!(body.len() <= MAX_STREAM_FRAME, "frame exceeds stream limit");
    // Saturating: an over-long body reads as over-long to the peer, whose
    // MAX_STREAM_FRAME (16 MiB < u32::MAX) check rejects it.
    buf.put_u32(u32::try_from(body.len()).unwrap_or(u32::MAX));
    buf.put_slice(&body);
    buf.to_vec()
}

/// Incremental stream-frame decoder: push bytes in with
/// [`FrameDecoder::feed`], pull at most one decoded frame out with
/// [`FrameDecoder::decode`]. Partial frames are buffered between
/// calls, so the caller can feed whatever a (possibly nonblocking)
/// read returned.
///
/// The length prefix is checked against the decoder's limit as soon
/// as the 4-byte length word is available — an oversized frame is
/// rejected before its body ever accumulates, provided the caller
/// interleaves `decode` with bounded-size `feed`s (both the reactor
/// and [`read_frame`] feed at most one ≤ 4 KiB chunk per `decode`).
#[derive(Debug)]
pub struct FrameDecoder {
    max_frame: usize,
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// A decoder enforcing the [`MAX_STREAM_FRAME`] limit.
    pub fn new() -> FrameDecoder {
        FrameDecoder::with_limit(MAX_STREAM_FRAME)
    }

    /// A decoder enforcing `max_frame` as the largest accepted message
    /// body, in bytes (lower limits let the unit tests probe the
    /// boundary with small frames).
    fn with_limit(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            max_frame,
            buf: Vec::new(),
        }
    }

    /// Appends raw bytes from the connection.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Tries to decode one complete frame from the buffered bytes.
    /// Returns `Ok(None)` while the frame is still partial.
    ///
    /// # Errors
    ///
    /// [`StreamError::Oversized`] as soon as a length prefix above the
    /// limit is seen; [`StreamError::Decode`] for malformed headers or
    /// message bodies.
    pub fn decode(&mut self) -> Result<Option<(NodeAddr, Message)>, StreamError> {
        let Some((&family, rest)) = self.buf.split_first() else {
            return Ok(None);
        };
        // family + address + port + u32 length word, then the body; a
        // short read at any step is a partial frame.
        let (ip, rest) = match family {
            4 => match rest.split_first_chunk::<4>() {
                Some((ip, rest)) => (IpAddr::from(*ip), rest),
                None => return Ok(None),
            },
            6 => match rest.split_first_chunk::<16>() {
                Some((ip, rest)) => (IpAddr::from(*ip), rest),
                None => return Ok(None),
            },
            other => return Err(StreamError::Decode(DecodeError::UnknownAddrFamily(other))),
        };
        let Some((port, rest)) = rest.split_first_chunk::<2>() else {
            return Ok(None);
        };
        let Some((body_len, rest)) = rest.split_first_chunk::<4>() else {
            return Ok(None);
        };
        let body_len = u32::from_be_bytes(*body_len) as usize;
        if body_len > self.max_frame {
            return Err(StreamError::Oversized(body_len));
        }
        let Some(body) = rest.get(..body_len) else {
            return Ok(None);
        };
        let msg = codec::decode_message(body)?;
        let frame_len = self.buf.len() - rest.len() + body_len;
        let from = NodeAddr::from(SocketAddr::new(ip, u16::from_be_bytes(*port)));
        self.buf.drain(..frame_len);
        Ok(Some((from, msg)))
    }
}

impl Default for FrameDecoder {
    fn default() -> FrameDecoder {
        FrameDecoder::new()
    }
}

/// Reads one frame from a blocking stream, enforcing the default
/// [`MAX_STREAM_FRAME`] limit.
///
/// # Errors
///
/// Fails on socket errors, truncated or oversized frames, or malformed
/// messages.
pub fn read_frame(stream: &mut impl Read) -> Result<(NodeAddr, Message), StreamError> {
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(frame) = decoder.decode()? {
            return Ok(frame);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(StreamError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            )));
        }
        decoder.feed(chunk.get(..n).unwrap_or_default());
    }
}

/// Sends one framed message over a fresh, blocking TCP connection.
///
/// # Errors
///
/// Fails if the connection cannot be established or written within
/// [`STREAM_TIMEOUT`].
pub fn send_stream(to: SocketAddr, sender: NodeAddr, msg: &Message) -> Result<(), StreamError> {
    let frame = encode_frame(sender, msg);
    let mut stream = TcpStream::connect_timeout(&to, STREAM_TIMEOUT)?;
    stream.set_write_timeout(Some(STREAM_TIMEOUT))?;
    stream.set_nodelay(true)?;
    stream.write_all(&frame)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lifeguard_proto::{Ack, Alive, Incarnation, SeqNo};
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let sender = NodeAddr::new([127, 0, 0, 1], 7001);
        let msg = Message::Ack(Ack { seq: SeqNo(77) });
        let frame = encode_frame(sender, &msg);
        let (from, back) = read_frame(&mut Cursor::new(frame)).unwrap();
        assert_eq!(from, sender);
        assert_eq!(back, msg);
    }

    #[test]
    fn truncated_frame_errors() {
        let sender = NodeAddr::new([127, 0, 0, 1], 7001);
        let msg = Message::Ack(Ack { seq: SeqNo(77) });
        let frame = encode_frame(sender, &msg);
        for cut in [0usize, 3, 7, frame.len() - 1] {
            assert!(read_frame(&mut Cursor::new(&frame[..cut])).is_err());
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut frame = Vec::new();
        frame.push(4u8);
        frame.extend_from_slice(&[127, 0, 0, 1]);
        frame.extend_from_slice(&7001u16.to_be_bytes());
        frame.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(frame)),
            Err(StreamError::Oversized(_))
        ));
    }

    #[test]
    fn decoder_assembles_frames_from_single_byte_feeds() {
        let sender = NodeAddr::new([127, 0, 0, 1], 7001);
        let msg = Message::Ack(Ack { seq: SeqNo(42) });
        let frame = encode_frame(sender, &msg);
        let mut decoder = FrameDecoder::new();
        for (i, byte) in frame.iter().enumerate() {
            assert!(
                decoder.decode().expect("partial is not an error").is_none(),
                "frame completed early at byte {i}"
            );
            decoder.feed(std::slice::from_ref(byte));
        }
        let (from, back) = decoder.decode().expect("valid").expect("complete");
        assert_eq!(from, sender);
        assert_eq!(back, msg);
        assert!(decoder.decode().expect("drained").is_none());
    }

    #[test]
    fn decoder_handles_ipv6_sender() {
        let sender = NodeAddr::from(SocketAddr::new(
            std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            9000,
        ));
        let msg = Message::Ack(Ack { seq: SeqNo(7) });
        let frame = encode_frame(sender, &msg);
        let mut decoder = FrameDecoder::new();
        decoder.feed(&frame);
        let (from, back) = decoder.decode().expect("valid").expect("complete");
        assert_eq!(from, sender);
        assert_eq!(back, msg);
    }

    /// The limit is a boundary, not an approximation: a
    /// body of exactly `limit` bytes decodes, `limit + 1` is rejected —
    /// and the rejection happens from the length word alone, before any
    /// body bytes are buffered.
    #[test]
    fn frame_size_limit_boundary() {
        let sender = NodeAddr::new([127, 0, 0, 1], 7001);
        let msg = Message::Alive(Alive {
            incarnation: Incarnation(1),
            node: "padded".into(),
            addr: sender,
            meta: Bytes::from(vec![0u8; 512]),
        });
        let frame = encode_frame(sender, &msg);
        let body_len = frame.len() - (1 + 4 + 2 + 4);

        // At the limit: accepted.
        let mut at_limit = FrameDecoder::with_limit(body_len);
        at_limit.feed(&frame);
        let (_, back) = at_limit
            .decode()
            .expect("at-limit is valid")
            .expect("complete");
        assert_eq!(back, msg);

        // One past the limit (limit = body - 1): rejected with the
        // offending length, before the body is needed — feed only the
        // header.
        let mut over = FrameDecoder::with_limit(body_len - 1);
        over.feed(&frame[..1 + 4 + 2 + 4]);
        assert!(matches!(
            over.decode(),
            Err(StreamError::Oversized(n)) if n == body_len
        ));
    }

    #[test]
    fn stream_error_display() {
        let e = StreamError::Oversized(5);
        assert!(e.to_string().contains("oversized"));
    }
}
