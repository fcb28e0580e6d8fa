//! Pins the poller shim's FFI surface independent of the net agent:
//! readable/writable readiness, timeout expiry, deregistration, oneshot
//! re-arming and spurious-wakeup tolerance all hold on real sockets.

use std::io::Write;
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::time::{Duration, Instant};

use polling::{Event, Events, Poller};

fn udp_pair() -> (UdpSocket, UdpSocket) {
    let a = UdpSocket::bind("127.0.0.1:0").expect("bind a");
    let b = UdpSocket::bind("127.0.0.1:0").expect("bind b");
    (a, b)
}

#[test]
fn readable_readiness_is_reported_with_the_registered_key() {
    let (a, b) = udp_pair();
    let poller = Poller::new().expect("poller");
    poller.add(&a, Event::readable(7)).expect("add");
    let mut events = Events::new();

    // Nothing pending: a bounded wait times out with zero events.
    let n = poller
        .wait(&mut events, Some(Duration::from_millis(10)))
        .expect("wait");
    assert_eq!(n, 0);

    b.send_to(b"ping", a.local_addr().unwrap()).expect("send");
    let n = poller
        .wait(&mut events, Some(Duration::from_secs(5)))
        .expect("wait");
    assert_eq!(n, 1);
    let event = events.iter().next().expect("one event");
    assert_eq!(event.key, 7);
    assert!(event.readable);
    assert!(!event.writable);
}

#[test]
fn writable_readiness_is_immediate_on_a_fresh_socket() {
    let (a, _b) = udp_pair();
    let poller = Poller::new().expect("poller");
    poller.add(&a, Event::writable(3)).expect("add");
    let mut events = Events::new();
    let n = poller
        .wait(&mut events, Some(Duration::from_secs(5)))
        .expect("wait");
    assert_eq!(n, 1);
    let event = events.iter().next().expect("one event");
    assert_eq!(event.key, 3);
    assert!(event.writable);
}

#[test]
fn timeout_expires_when_nothing_is_ready() {
    let (a, _b) = udp_pair();
    let poller = Poller::new().expect("poller");
    poller.add(&a, Event::readable(0)).expect("add");
    let mut events = Events::new();
    let start = Instant::now();
    let n = poller
        .wait(&mut events, Some(Duration::from_millis(60)))
        .expect("wait");
    assert_eq!(n, 0);
    assert!(events.is_empty());
    assert!(
        start.elapsed() >= Duration::from_millis(40),
        "wait returned {:?} before the timeout",
        start.elapsed()
    );
}

#[test]
fn deregistered_source_is_silent_even_when_ready() {
    let (a, b) = udp_pair();
    let poller = Poller::new().expect("poller");
    poller.add(&a, Event::readable(1)).expect("add");
    b.send_to(b"ping", a.local_addr().unwrap()).expect("send");
    poller.delete(&a).expect("delete");
    let mut events = Events::new();
    let n = poller
        .wait(&mut events, Some(Duration::from_millis(30)))
        .expect("wait");
    assert_eq!(n, 0, "a deleted source must not report readiness");
    // Deleting again (or modifying) is an error, not UB.
    assert_eq!(
        poller.delete(&a).unwrap_err().kind(),
        std::io::ErrorKind::NotFound
    );
    assert_eq!(
        poller.modify(&a, Event::readable(1)).unwrap_err().kind(),
        std::io::ErrorKind::NotFound
    );
}

#[test]
fn oneshot_interest_clears_until_rearmed() {
    let (a, b) = udp_pair();
    let poller = Poller::new().expect("poller");
    poller.add(&a, Event::readable(9)).expect("add");
    b.send_to(b"one", a.local_addr().unwrap()).expect("send");
    let mut events = Events::new();
    assert_eq!(
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait"),
        1
    );
    // The datagram is still unread, but interest was consumed.
    assert_eq!(
        poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .expect("wait"),
        0,
        "oneshot interest must not re-report without a modify"
    );
    poller.modify(&a, Event::readable(9)).expect("rearm");
    assert_eq!(
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait"),
        1,
        "level-triggered readiness must resurface after re-arming"
    );
}

#[test]
fn notify_wakes_a_future_wait_as_a_zero_event_spurious_wakeup() {
    let (a, _b) = udp_pair();
    let poller = Poller::new().expect("poller");
    poller.add(&a, Event::readable(0)).expect("add");
    poller.notify().expect("notify");
    let mut events = Events::new();
    let start = Instant::now();
    // Wakes promptly (well inside the 5 s bound) with zero events.
    let n = poller
        .wait(&mut events, Some(Duration::from_secs(5)))
        .expect("wait");
    assert_eq!(n, 0);
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "notify must preempt the timeout"
    );
    // The wakeup is consumed: the next wait honours its timeout again.
    let start = Instant::now();
    let n = poller
        .wait(&mut events, Some(Duration::from_millis(60)))
        .expect("wait");
    assert_eq!(n, 0);
    assert!(start.elapsed() >= Duration::from_millis(40));
}

#[test]
fn notify_wakes_a_concurrent_wait_from_another_thread() {
    let (a, _b) = udp_pair();
    let poller = std::sync::Arc::new(Poller::new().expect("poller"));
    poller.add(&a, Event::readable(0)).expect("add");
    let waker = std::sync::Arc::clone(&poller);
    let waiter = std::thread::spawn(move || {
        let mut events = Events::new();
        let start = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .expect("wait");
        (n, start.elapsed())
    });
    std::thread::sleep(Duration::from_millis(50));
    waker.notify().expect("notify");
    let (n, elapsed) = waiter.join().expect("join");
    assert_eq!(n, 0);
    assert!(elapsed < Duration::from_secs(5), "blocked wait never woke");
}

#[test]
fn duplicate_registration_is_rejected() {
    let (a, _b) = udp_pair();
    let poller = Poller::new().expect("poller");
    poller.add(&a, Event::readable(0)).expect("add");
    assert_eq!(
        poller.add(&a, Event::readable(1)).unwrap_err().kind(),
        std::io::ErrorKind::AlreadyExists
    );
}

#[test]
fn tcp_accept_and_connect_readiness() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.set_nonblocking(true).expect("nonblocking");
    let poller = Poller::new().expect("poller");
    poller.add(&listener, Event::readable(42)).expect("add");
    let mut events = Events::new();

    // No pending connection yet.
    assert_eq!(
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait"),
        0
    );

    let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
    assert_eq!(
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait"),
        1,
        "pending connection must mark the listener readable"
    );
    assert_eq!(events.iter().next().unwrap().key, 42);
    let (server, _) = listener.accept().expect("accept");
    server.set_nonblocking(true).expect("nonblocking");

    // The accepted socket becomes readable once the client writes.
    poller.add(&server, Event::readable(43)).expect("add conn");
    client.write_all(b"hello").expect("write");
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut seen = false;
    while Instant::now() < deadline && !seen {
        poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .expect("wait");
        seen = events.iter().any(|e| e.key == 43 && e.readable);
    }
    assert!(seen, "accepted connection never became readable");
}

#[test]
fn disarmed_interest_reports_nothing() {
    let (a, b) = udp_pair();
    let poller = Poller::new().expect("poller");
    poller.add(&a, Event::none(5)).expect("add disarmed");
    b.send_to(b"ping", a.local_addr().unwrap()).expect("send");
    let mut events = Events::new();
    assert_eq!(
        poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .expect("wait"),
        0,
        "Event::none must keep the source registered but silent"
    );
    poller.modify(&a, Event::all(5)).expect("arm");
    let n = poller
        .wait(&mut events, Some(Duration::from_secs(5)))
        .expect("wait");
    assert!(n >= 1);
    let event = events.iter().next().unwrap();
    assert_eq!(event.key, 5);
    assert!(event.readable && event.writable);
}

// ---------------------------------------------------------------------
// Batched datagram I/O (the `mmsg` extension)
// ---------------------------------------------------------------------

use polling::mmsg::{RecvRing, SendBatch};
use std::os::unix::io::AsRawFd;

#[test]
fn sendmmsg_batch_delivers_every_datagram() {
    let (a, b) = udp_pair();
    let to = b.local_addr().unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // One arena, three payloads of different lengths.
    let arena: Vec<u8> = (0u8..32).collect();
    let pkts = vec![(to, 0..4), (to, 4..5), (to, 5..32)];
    let mut batch = SendBatch::new(16);
    let sent = batch.send(a.as_raw_fd(), &arena, &pkts).expect("sendmmsg");
    assert_eq!(sent, 3);

    let mut buf = [0u8; 64];
    for range in [0..4, 4..5, 5..32] {
        let (n, from) = b.recv_from(&mut buf).expect("recv");
        assert_eq!(&buf[..n], &arena[range]);
        assert_eq!(from, a.local_addr().unwrap());
    }
}

#[test]
fn sendmmsg_batch_of_one_and_empty_batch() {
    let (a, b) = udp_pair();
    let to = b.local_addr().unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut batch = SendBatch::new(4);

    assert_eq!(batch.send(a.as_raw_fd(), b"xy", &[]).expect("empty"), 0);
    let sent = batch
        .send(a.as_raw_fd(), b"xy", &[(to, 0..2)])
        .expect("single");
    assert_eq!(sent, 1);
    let mut buf = [0u8; 8];
    let (n, _) = b.recv_from(&mut buf).expect("recv");
    assert_eq!(&buf[..n], b"xy");
}

#[test]
fn sendmmsg_caps_at_table_size_and_reports_the_tail() {
    let (a, b) = udp_pair();
    let to = b.local_addr().unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let arena = [7u8; 6];
    let pkts: Vec<_> = (0..6).map(|i| (to, i..i + 1)).collect();
    let mut batch = SendBatch::new(4);
    assert_eq!(batch.max_len(), 4);
    // Only the first max_len entries go out; the caller resubmits the rest.
    let sent = batch.send(a.as_raw_fd(), &arena, &pkts).expect("send");
    assert_eq!(sent, 4);
    let sent = batch
        .send(a.as_raw_fd(), &arena, &pkts[4..])
        .expect("send tail");
    assert_eq!(sent, 2);
    let mut buf = [0u8; 8];
    for _ in 0..6 {
        b.recv_from(&mut buf).expect("recv");
    }
}

#[test]
fn recvmmsg_burst_fills_ring_with_sources_and_payloads() {
    let (a, b) = udp_pair();
    let dst = a.local_addr().unwrap();
    for i in 0u8..5 {
        b.send_to(&[i; 3], dst).expect("send");
    }
    // Loopback delivery is asynchronous; poll until all five arrived.
    let mut ring = RecvRing::new(8, 64);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut n = 0;
    while n < 5 {
        assert!(Instant::now() < deadline, "datagrams never arrived");
        match ring.recv(a.as_raw_fd()) {
            Ok(k) if k > 0 => n = k, // one burst: all or a prefix
            Ok(_) | Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    assert_eq!(n, 5);
    for i in 0..5 {
        let (from, payload) = ring.datagram(i).expect("datagram");
        assert_eq!(from, b.local_addr().unwrap());
        assert_eq!(payload, &[i as u8; 3]);
        assert!(!ring.truncated(i));
    }
    assert!(ring.datagram(5).is_none(), "past the filled count");
}

#[test]
fn recvmmsg_on_drained_socket_is_would_block() {
    let (a, _b) = udp_pair();
    a.set_nonblocking(true).unwrap();
    let mut ring = RecvRing::new(4, 64);
    let err = ring.recv(a.as_raw_fd()).expect_err("empty socket");
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
}

#[test]
fn recvmmsg_flags_truncated_datagrams() {
    let (a, b) = udp_pair();
    let dst = a.local_addr().unwrap();
    b.send_to(&[9u8; 40], dst).expect("send long");
    let mut ring = RecvRing::new(2, 8); // slot shorter than the datagram
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        assert!(Instant::now() < deadline, "datagram never arrived");
        match ring.recv(a.as_raw_fd()) {
            Ok(n) if n > 0 => break,
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    assert!(ring.truncated(0));
    let (_, payload) = ring.datagram(0).expect("head still readable");
    assert_eq!(payload, &[9u8; 8]);
}

#[test]
fn mmsg_availability_check_passes_without_consuming_a_datagram() {
    let (a, b) = udp_pair();
    a.set_nonblocking(true).unwrap();
    b.send_to(b"kept", a.local_addr().unwrap()).expect("send");
    // Wait until the datagram is queued, so the check runs against it.
    let poller = Poller::new().expect("poller");
    poller.add(&a, Event::readable(1)).expect("add");
    let mut events = Events::new();
    poller
        .wait(&mut events, Some(Duration::from_secs(5)))
        .expect("wait");
    assert_eq!(events.len(), 1, "datagram never arrived");
    polling::mmsg::check_available(a.as_raw_fd()).expect("sendmmsg and recvmmsg available");
    let mut buf = [0u8; 8];
    let (n, _) = a.recv_from(&mut buf).expect("datagram still queued");
    assert_eq!(&buf[..n], b"kept");
}
