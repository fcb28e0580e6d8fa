//! `NodeAddr` against `std::net::SocketAddr`: it stores only family,
//! octets and port, and must still convert, compare and print like the
//! socket address it stands for.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

use proptest::prelude::*;

use lifeguard_proto::{codec, Message, NodeAddr, Ping, SeqNo};

/// IPv4 and IPv6 socket addresses with zero flow label and scope id
/// (`SocketAddr::new` sets both to zero).
fn socket_addr() -> impl Strategy<Value = SocketAddr> {
    prop_oneof![
        (any::<[u8; 4]>(), any::<u16>())
            .prop_map(|(ip, port)| SocketAddr::new(IpAddr::from(ip), port)),
        (any::<[u8; 16]>(), any::<u16>())
            .prop_map(|(ip, port)| SocketAddr::new(IpAddr::from(ip), port)),
        // Near-collisions: the same leading octets in both families.
        (any::<[u8; 4]>(), any::<bool>(), 0u16..4).prop_map(|(ip, v6, port)| {
            let [a, b, c, d] = ip;
            let ip = if v6 {
                IpAddr::from([a, b, c, d, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
            } else {
                IpAddr::from(ip)
            };
            SocketAddr::new(ip, port)
        }),
    ]
}

fn ping_to(addr: NodeAddr) -> Message {
    Message::Ping(Ping {
        seq: SeqNo(1),
        target: "t".into(),
        source: "s".into(),
        source_addr: addr,
    })
}

proptest! {
    #[test]
    fn socket_addr_round_trip_is_the_identity(sock in socket_addr()) {
        let addr = NodeAddr::from(sock);
        prop_assert_eq!(SocketAddr::from(addr), sock);
        prop_assert_eq!(addr.socket_addr(), sock);
        prop_assert_eq!(addr.ip(), sock.ip());
        prop_assert_eq!(addr.port(), sock.port());
        prop_assert_eq!(NodeAddr::from(addr.socket_addr()), addr);
    }

    #[test]
    fn eq_ord_and_display_agree_with_socket_addr(a in socket_addr(), b in socket_addr()) {
        let (na, nb) = (NodeAddr::from(a), NodeAddr::from(b));
        prop_assert_eq!(na == nb, a == b);
        prop_assert_eq!(na.cmp(&nb), a.cmp(&b));
        prop_assert_eq!(na.partial_cmp(&nb), a.partial_cmp(&b));
        prop_assert_eq!(na.to_string(), a.to_string());
        prop_assert_eq!(format!("{na:?}"), format!("NodeAddr({a})"));
    }

    #[test]
    fn ipv4_constructor_matches_the_conversion(ip in any::<[u8; 4]>(), port in any::<u16>()) {
        let sock = SocketAddr::new(IpAddr::from(ip), port);
        prop_assert_eq!(NodeAddr::new(ip, port), NodeAddr::from(sock));
    }

    #[test]
    fn ipv4_mapped_ipv6_stays_ipv6(ip in any::<[u8; 4]>(), port in any::<u16>()) {
        let [a, b, c, d] = ip;
        let mapped = Ipv4Addr::new(a, b, c, d).to_ipv6_mapped();
        let addr = NodeAddr::from(SocketAddr::new(IpAddr::V6(mapped), port));
        prop_assert_eq!(addr.ip(), IpAddr::V6(mapped));
        prop_assert_ne!(addr, NodeAddr::new(ip, port));

        // Through the codec: family byte 6, sixteen octets, same address
        // back. (Ping layout: tag, seq, two 1-byte names, then the addr.)
        let bytes = codec::encode_message(&ping_to(addr));
        let family_at = 1 + 4 + (2 + 1) + (2 + 1);
        prop_assert_eq!(bytes.get(family_at).copied(), Some(6));
        prop_assert_eq!(bytes.len(), family_at + 1 + 16 + 2);
        match codec::decode_message(&bytes) {
            Ok(Message::Ping(p)) => prop_assert_eq!(p.source_addr, addr),
            other => prop_assert!(false, "decoded {other:?}"),
        }
    }
}

#[test]
fn every_ipv4_sorts_before_every_ipv6() {
    let high_v4 = NodeAddr::new([255, 255, 255, 255], u16::MAX);
    let low_v6 = NodeAddr::from(SocketAddr::new(IpAddr::V6(Ipv6Addr::UNSPECIFIED), 0));
    assert!(high_v4 < low_v6);
}

#[test]
fn flow_label_and_scope_id_are_dropped() {
    let scoped = std::net::SocketAddrV6::new(Ipv6Addr::LOCALHOST, 7946, 9, 3);
    let plain = std::net::SocketAddrV6::new(Ipv6Addr::LOCALHOST, 7946, 0, 0);
    let addr = NodeAddr::from(SocketAddr::V6(scoped));
    assert_eq!(addr, NodeAddr::from(SocketAddr::V6(plain)));
    assert_eq!(addr.socket_addr(), SocketAddr::V6(plain));
}

#[test]
fn node_addr_is_at_most_twenty_bytes() {
    assert!(std::mem::size_of::<NodeAddr>() <= 20);
}
