//! The scripted peer of the socket workload: one UDP socket that plays
//! every member the agent knows. It answers the agent's own probes (so
//! the agent stays healthy) and keeps a window of pings outstanding —
//! a closed loop with one client.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};

use crate::api::{self, NodeAddr, NodeName, PeerView};
use crate::span::Recorder;

/// A ping unanswered for this long counts as failed.
pub const PING_TIMEOUT: Duration = Duration::from_millis(500);
const SLOTS: usize = 64;
/// Pings whose sequence number is a multiple of this get `gen.send` /
/// `gen.recv` spans in a traced segment (every ping would fill the span
/// buffer in a second).
const SPAN_EVERY: u32 = 64;

/// What one datagram from the agent carries for the peer. An ack that
/// rides with piggy-backed gossip arrives as a compound packet, so the
/// packet decoder — never the single-message decoder — must be used.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Carried {
    pub acks: Vec<u32>,
    pub pings: Vec<u32>,
}

pub fn carried(packet: &Bytes) -> Carried {
    let mut out = Carried::default();
    for msg in api::decode_packet(packet).unwrap_or_default() {
        match api::peer_view(&msg) {
            PeerView::Ack(seq) => out.acks.push(seq),
            PeerView::Ping(seq) => out.pings.push(seq),
            PeerView::Other => {}
        }
    }
    out
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Served {
    /// Pings answered in time.
    pub acks: u64,
    /// Pings sent.
    pub sent: u64,
    /// Pings unanswered within [`PING_TIMEOUT`].
    pub lost: u64,
}

pub struct Peer {
    socket: UdpSocket,
    addr: NodeAddr,
    agent: SocketAddr,
    agent_name: NodeName,
    name: NodeName,
    /// `(seq, sent_at)` of outstanding pings, indexed by `seq % SLOTS`.
    slots: [Option<(u32, Instant)>; SLOTS],
    outstanding: usize,
    next_seq: u32,
    recv_buf: Vec<u8>,
    send_buf: BytesMut,
}

impl Peer {
    pub fn bind() -> io::Result<Peer> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.set_read_timeout(Some(PING_TIMEOUT))?;
        let addr = NodeAddr::from(socket.local_addr()?);
        Ok(Peer {
            socket,
            addr,
            agent: addr.socket_addr(),
            agent_name: "".into(),
            name: "peer".into(),
            slots: [None; SLOTS],
            outstanding: 0,
            next_seq: 0,
            recv_buf: vec![0; 65_536],
            send_buf: BytesMut::with_capacity(256),
        })
    }

    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// Points the peer at a (new) agent.
    pub fn attach(&mut self, agent: SocketAddr, agent_name: NodeName) {
        self.agent = agent;
        self.agent_name = agent_name;
        self.slots = [None; SLOTS];
        self.outstanding = 0;
    }

    fn send(&mut self, msg: &api::Message) -> io::Result<()> {
        self.send_buf.clear();
        api::encode_message_into(msg, &mut self.send_buf);
        self.socket.send_to(&self.send_buf, self.agent).map(|_| ())
    }

    fn send_ping(&mut self, rec: &mut Recorder, traced: bool) -> io::Result<()> {
        self.next_seq = self.next_seq.wrapping_add(1);
        let seq = self.next_seq;
        let ping = api::ping(seq, self.agent_name.clone(), self.name.clone(), self.addr);
        self.slots[seq as usize % SLOTS] = Some((seq, Instant::now()));
        self.outstanding += 1;
        if traced && seq.is_multiple_of(SPAN_EVERY) {
            rec.span("gen.send", seq, |_| self.send(&ping))
        } else {
            self.send(&ping)
        }
    }

    /// Serves for `duration` with `window` pings outstanding (0: only
    /// answer the agent's probes), then waits for the window to drain.
    /// Round trips in ns go to `rtt_ns` when given.
    pub fn serve(
        &mut self,
        duration: Duration,
        window: usize,
        rec: &mut Recorder,
        traced: bool,
        mut rtt_ns: Option<&mut Vec<u32>>,
    ) -> io::Result<Served> {
        assert!(window <= SLOTS / 2, "window must fit the slot ring");
        let mut served = Served::default();
        let deadline = Instant::now() + duration;
        let mut receives = 0u32;
        loop {
            let now = Instant::now();
            while now < deadline && self.outstanding < window {
                self.send_ping(rec, traced)?;
                served.sent += 1;
            }
            if now >= deadline && self.outstanding == 0 {
                return Ok(served);
            }
            receives += 1;
            if traced && receives.is_multiple_of(SPAN_EVERY) {
                rec.span("gen.recv", 0, |rec| {
                    let first_ack = self.receive(&mut served, rtt_ns.as_deref_mut())?;
                    // The request a receive belongs to is known only afterwards.
                    if let Some(seq) = first_ack {
                        rec.tag(seq);
                    }
                    io::Result::Ok(())
                })?;
            } else {
                self.receive(&mut served, rtt_ns.as_deref_mut())?;
            }
        }
    }

    /// One datagram: matches the acks it carries, answers the pings it
    /// carries. Returns the first matched ping sequence number.
    fn receive(
        &mut self,
        served: &mut Served,
        rtt_ns: Option<&mut Vec<u32>>,
    ) -> io::Result<Option<u32>> {
        let len = match self.socket.recv_from(&mut self.recv_buf) {
            Ok((len, _)) => len,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Nothing for a whole timeout: everything outstanding is lost.
                served.lost += self.outstanding as u64;
                self.slots = [None; SLOTS];
                self.outstanding = 0;
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        let carried = carried(&Bytes::copy_from_slice(&self.recv_buf[..len]));
        let now = Instant::now();
        let mut first_ack = None;
        let mut rtt_ns = rtt_ns;
        for seq in carried.acks {
            let Some((_, sent_at)) = self.slots[seq as usize % SLOTS].take_if(|s| s.0 == seq)
            else {
                continue;
            };
            self.outstanding -= 1;
            served.acks += 1;
            first_ack.get_or_insert(seq);
            if let Some(rtt) = rtt_ns
                .as_deref_mut()
                .filter(|rtt| rtt.len() < rtt.capacity())
            {
                rtt.push((now - sent_at).as_nanos().min(u128::from(u32::MAX)) as u32);
            }
        }
        for seq in carried.pings {
            self.send(&api::ack(seq))?;
        }
        Ok(first_ack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::layers::CompoundBuilder;

    /// The pitfall `benches/reactor.rs` fell into: an ack that carries
    /// piggy-backed gossip is a compound packet, and a single-message
    /// decode never matches it.
    #[test]
    fn ack_inside_a_compound_packet_is_matched() {
        let gossip = api::alive(
            "m0001".into(),
            NodeAddr::new([127, 0, 0, 1], 9),
            2,
            Bytes::new(),
        );
        let mut builder = CompoundBuilder::new(api::PACKET_BUDGET);
        assert!(builder.try_add_msg(&api::ack(41)));
        assert!(builder.try_add_msg(&gossip));
        assert!(builder.try_add_msg(&api::ping(
            7,
            "m0002".into(),
            "hub".into(),
            NodeAddr::new([127, 0, 0, 1], 9)
        )));
        let mut packet = Vec::new();
        builder.finish_into(&mut packet).expect("three parts");
        assert_eq!(packet[0], 255, "a compound packet, not a bare message");
        let seen = carried(&Bytes::from(packet));
        assert_eq!(
            seen,
            Carried {
                acks: vec![41],
                pings: vec![7]
            }
        );
        // A bare ack still works, and garbage carries nothing.
        assert_eq!(carried(&api::encode_message(&api::ack(5))).acks, vec![5]);
        assert_eq!(carried(&Bytes::from(vec![255, 9, 0])), Carried::default());
    }
}
