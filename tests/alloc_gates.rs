//! Allocation gates, measured with a counting global allocator:
//!
//! * draining `poll_output` on a 1000-member node in steady state
//!   performs **zero allocations** (with the always-on metrics plane
//!   recording throughout), and
//! * on that node, receiving a datagram that changes nothing — stale
//!   gossip, a ping, an ack — performs **zero allocations** from
//!   `handle_input` through the drain, and a fresh suspicion a pinned
//!   few, and
//! * one node holding a 100 000-member roster stays within a
//!   live-bytes-per-entry ceiling, and
//! * a 512-member table pays nothing for metadata until one member has
//!   some, and one `Bytes` per slot from then on, and
//! * the same for IPv6 addresses: nothing while every member is IPv4,
//!   one 16-byte cell per slot from the first IPv6 member on, and
//! * a broadcast queue holding one `alive` per member of a 512-member
//!   cluster stays within a live-bytes-per-broadcast ceiling, and within
//!   a wider one after overwrite rounds over `alive`s with metadata,
//!   and
//! * the event trace of a 64-node Interval run stays within a
//!   live-bytes-per-event ceiling, and
//! * one node's live heap plateaus while every peer of its 64-member
//!   cluster leaves or crashes and rejoins, eight times over, and
//! * a quiet simulated 64-node cluster allocates about once per
//!   datagram it delivers: the in-flight copy of the payload, and
//! * a socket agent whose owner never takes its events keeps a flat
//!   live heap while it concludes four times as many events as its log
//!   stores.
//!
//! All run inside one `#[test]`, in sequence: the allocator's counters
//! are process-global, so a second test running beside it would be
//! counted too.

#![allow(
    unsafe_code,
    reason = "the counting allocator implements `GlobalAlloc`, an unsafe trait"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::net::{Ipv6Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use lifeguard::core::broadcast::BroadcastQueue;
use lifeguard::core::config::Config;
use lifeguard::core::event_log::{EventLog, TraceEvent};
use lifeguard::core::member::Member;
use lifeguard::core::membership::Membership;
use lifeguard::core::node::{Input, Output, SwimNode};
use lifeguard::core::time::Time;
use lifeguard::experiments::scenario;
use lifeguard::net::agent::{Agent, AgentConfig, EVENT_LOG_CAP};
use lifeguard::proto::compound::{decode_packet, CompoundBuilder};
use lifeguard::proto::{
    codec, Ack, Alive, Dead, Incarnation, Message, NodeAddr, NodeName, Ping, SeqNo, Suspect,
};
use lifeguard::sim::cluster::{Cluster, ClusterBuilder};

/// A pass-through allocator that tracks live heap bytes and, while the
/// flag is raised, counts allocations.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

fn on_alloc(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
    LIVE.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: pure pass-through to `System` plus atomic counter updates —
// the layout/pointer contracts `GlobalAlloc` requires are delegated
// unchanged to an allocator that upholds them.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: `layout` is forwarded verbatim from our caller, who
        // upholds GlobalAlloc's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: as in `alloc` — arguments forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc(new_size);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator (a System pointer)
        // and `layout`/`new_size` are forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by this allocator with `layout`,
        // i.e. by `System`, which is what frees it.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

const MEMBERS: usize = 1000;
const GOSSIP_STEP: Duration = Duration::from_millis(200);

fn steady_state_node() -> SwimNode {
    let mut node = SwimNode::new(
        "local".into(),
        NodeAddr::new([10, 0, 0, 1], 7946),
        Config::lan().lifeguard(),
        7,
    );
    node.start(Time::ZERO);
    let peers = (0..MEMBERS as u32).map(|i| {
        (
            NodeName::from(format!("peer-{i}").as_str()),
            NodeAddr::new([10, 1, (i >> 8) as u8, (i & 0xff) as u8], 7946),
        )
    });
    node.bootstrap_peers(peers, Time::ZERO);
    node
}

/// Advances one steady-state cycle: one gossip arrival (a fresh
/// incarnation each time, so the broadcast queue never runs dry), one
/// gossip interval of simulated time, then the due timers (gossip
/// fan-out, periodic probe rounds). The outputs are left queued for the
/// caller to drain.
fn advance_cycle(node: &mut SwimNode, now: &mut Time, incarnation: &mut u64) {
    *incarnation += 1;
    let from = NodeAddr::new([10, 1, 0, 0], 7946);
    let payload = codec::encode_message(&Message::Alive(Alive {
        incarnation: Incarnation(*incarnation),
        node: "peer-0".into(),
        addr: from,
        meta: Bytes::new(),
    }));
    node.handle_input(Input::Datagram { from, payload }, *now)
        .expect("valid gossip payload");
    *now += GOSSIP_STEP;
    node.handle_input(Input::Tick, *now).expect("tick");
}

/// Visits every queued output; packet payloads stay borrows of the
/// node's scratch buffer. Returns the packets seen.
fn drain_poll(node: &mut SwimNode) -> usize {
    let mut packets = 0;
    while let Some(output) = node.poll_output() {
        if let Output::Packet { payload, .. } = &output {
            packets += 1;
            black_box(payload.len());
        }
        black_box(&output);
    }
    packets
}

/// After warm-up, a full output drain performs zero allocations. The
/// metrics plane is always on — every cycle records into the core's
/// counters and histograms, whose inline windows allocate only on a
/// spill, at most once per histogram — so this also proves that
/// instrumentation costs zero allocations per poll.
fn poll_output_is_allocation_free() {
    let mut node = steady_state_node();
    let mut now = Time::ZERO;
    let mut inc = 10;
    // Warm-up: let the scratch arena, queue and builder reach their
    // high-water capacities.
    for _ in 0..200 {
        advance_cycle(&mut node, &mut now, &mut inc);
        drain_poll(&mut node);
    }
    let before = node.metrics();
    let mut packets = 0usize;
    let mut poll_allocs = 0u64;
    for _ in 0..200 {
        advance_cycle(&mut node, &mut now, &mut inc);
        poll_allocs += count_allocs(|| {
            packets += drain_poll(&mut node);
        });
    }
    eprintln!("poll drain: {poll_allocs} allocations over {packets} packets");
    assert!(
        packets > 0,
        "steady-state cycles must actually emit packets"
    );
    assert_eq!(
        poll_allocs, 0,
        "poll_output drain must be allocation-free in steady state ({packets} packets)"
    );
    // The counted region was not a dead zone for observability: the
    // metrics kept moving while allocations stayed at zero. (Unacked
    // probes drive probes_sent/failed and push the LHM up; the gossip
    // arrivals keep the broadcast queue hot.)
    let after = node.metrics();
    assert!(
        after.probes_sent > before.probes_sent,
        "steady-state cycles must keep probing"
    );
    assert!(after.lhm_peak > 0, "unacked probes must move the LHM");
    assert!(
        after.broadcast_queue_peak > 0,
        "gossip arrivals must register queue depth"
    );
}

/// Allocations of one datagram from `handle_input` through a full
/// drain, and the packets it sent. The payload is built by the caller,
/// outside the count.
fn receive(node: &mut SwimNode, payload: Bytes, now: Time) -> (u64, usize) {
    let from = NodeAddr::new([10, 1, 0, 0], 7946);
    let input = Input::Datagram { from, payload };
    let mut packets = 0;
    let allocs = count_allocs(|| {
        node.handle_input(input, now).expect("valid payload");
        packets = drain_poll(node);
    });
    (allocs, packets)
}

fn suspect(node: &str, from: &str, incarnation: u64) -> Message {
    Message::Suspect(Suspect {
        incarnation: Incarnation(incarnation),
        node: node.into(),
        from: from.into(),
    })
}

fn ping(seq: u32, target: &str) -> Bytes {
    codec::encode_message(&Message::Ping(Ping {
        seq: SeqNo(seq),
        target: target.into(),
        source: "peer-1".into(),
        source_addr: NodeAddr::new([10, 1, 0, 1], 7946),
    }))
}

/// What one fresh `Suspect` about an alive known member allocates, from
/// an accuser that is a known member too: the new suspicion's confirmer
/// vector. Both names are inline copies of the table's, and everything
/// else — timer, suspicion map entry, broadcast slot with its encode
/// buffer, subject index entry, the event — reuses warmed-up capacity.
const FRESH_SUSPECT_ALLOCS: u64 = 1;

/// What the first new confirmer of a suspicion allocates: the confirmer
/// vector, created holding only the accuser, grows once, to room for
/// the K + 1 names it can ever hold. Its re-gossiped `suspect`
/// overwrites the queued one in place.
const FIRST_CONFIRMER_ALLOCS: u64 = 1;

/// The receive path on the warmed-up 1000-member node. Before this gate
/// every name-carrying message cost an allocation per name and every
/// packet a `Vec<Message>`, before the first incarnation comparison could
/// drop it. The names here are at most 14 bytes, so inline: a name
/// allocates nothing even where a message does change state.
fn receive_path_allocates_only_for_state_changes() {
    let mut node = steady_state_node();
    let mut now = Time::ZERO;
    let mut inc = 10;
    // Peers 1–6 move to incarnation 5, so gossip below that is stale.
    for i in 1..=6u8 {
        let payload = codec::encode_message(&Message::Alive(Alive {
            incarnation: Incarnation(5),
            node: format!("peer-{i}").as_str().into(),
            addr: NodeAddr::new([10, 1, 0, i], 7946),
            meta: Bytes::new(),
        }));
        receive(&mut node, payload, now);
    }
    // Warm-up, as for the poll gate. Its unacked probes raise suspicions
    // of their own, so the suspicion map is not empty either.
    for _ in 0..200 {
        advance_cycle(&mut node, &mut now, &mut inc);
        drain_poll(&mut node);
    }

    // Six stale entries in one compound packet: two of each gossip kind.
    let mut builder = CompoundBuilder::new(1400);
    for msg in [
        suspect("peer-1", "peer-2", 3),
        suspect("peer-2", "peer-3", 4),
        Message::Alive(Alive {
            incarnation: Incarnation(5),
            node: "peer-3".into(),
            addr: NodeAddr::new([10, 1, 0, 3], 7946),
            meta: Bytes::new(),
        }),
        Message::Alive(Alive {
            incarnation: Incarnation(1),
            node: "peer-4".into(),
            addr: NodeAddr::new([10, 1, 0, 4], 7946),
            meta: Bytes::new(),
        }),
        Message::Dead(Dead {
            incarnation: Incarnation(2),
            node: "peer-5".into(),
            from: "peer-6".into(),
        }),
        Message::Dead(Dead {
            incarnation: Incarnation(4),
            node: "peer-6".into(),
            from: "peer-6".into(),
        }),
    ] {
        assert!(builder.try_add_msg(&msg));
    }
    let mut stale = Vec::new();
    builder.finish_into(&mut stale).expect("six parts");
    let (alive, raised) = (node.num_alive(), node.metrics().suspicions_raised);
    let (allocs, packets) = receive(&mut node, Bytes::from(stale), now);
    eprintln!("receive: {allocs} allocations for 6 stale gossip entries");
    assert_eq!(allocs, 0, "stale gossip must be dropped without allocating");
    assert_eq!(packets, 0);
    assert_eq!(node.num_alive(), alive, "stale gossip changed the table");
    assert_eq!(node.metrics().suspicions_raised, raised);

    let (allocs, packets) = receive(&mut node, ping(77, "local"), now);
    eprintln!("receive: {allocs} allocations for a ping (one ack out)");
    assert_eq!(packets, 1, "a ping addressed to the node is acked");
    assert_eq!(allocs, 0, "answering a ping must not allocate");

    let (allocs, packets) = receive(&mut node, ping(78, "somebody-else"), now);
    assert_eq!(
        (allocs, packets),
        (0, 0),
        "a misaddressed ping is dropped for free"
    );

    // Run until a probe leaves, then ack it while it is in flight.
    let mut ping_seq = None;
    while ping_seq.is_none() {
        advance_cycle(&mut node, &mut now, &mut inc);
        while let Some(output) = node.poll_output() {
            let Output::Packet { payload, .. } = output else {
                continue;
            };
            for msg in decode_packet(payload).expect("own packet") {
                if let Message::Ping(p) = msg {
                    ping_seq = Some(p.seq);
                }
            }
        }
    }
    let health = node.local_health();
    assert!(health > 0, "unacked warm-up probes must have cost health");
    let ack = codec::encode_message(&Message::Ack(Ack {
        seq: ping_seq.expect("loop exit"),
    }));
    let (allocs, _) = receive(&mut node, ack, now);
    eprintln!("receive: {allocs} allocations for the ack of the probe in flight");
    assert_eq!(
        node.local_health(),
        health - 1,
        "the ack completed the probe"
    );
    assert_eq!(allocs, 0, "completing a probe must not allocate");

    let alive = node.num_alive();
    let (allocs, _) = receive(
        &mut node,
        codec::encode_message(&suspect("peer-7", "peer-8", 0)),
        now,
    );
    eprintln!("receive: {allocs} allocations for one fresh suspicion");
    assert_eq!(node.num_alive(), alive - 1, "the suspicion was accepted");
    assert_eq!(
        allocs, FRESH_SUSPECT_ALLOCS,
        "a fresh suspicion allocates exactly what its comment names"
    );

    // Confirmations of that suspicion (paper §IV-B), a quarter of the
    // claims `anomaly-128` handles, mostly repeats. Each returns the
    // allocations and the accuser of the `suspect` queued afterwards.
    let confirm = |node: &mut SwimNode, from: &str| {
        let payload = codec::encode_message(&suspect("peer-7", from, 0));
        let (allocs, _) = receive(node, payload, now);
        match node.queued_broadcast_for(&"peer-7".into()) {
            Some(Message::Suspect(s)) => (allocs, s.from.as_str().to_owned()),
            other => panic!("a suspect about peer-7 stays queued, found {other:?}"),
        }
    };
    let (allocs, queued) = confirm(&mut node, "peer-8");
    eprintln!("receive: {allocs} allocations for a repeat by the accuser");
    assert_eq!((allocs, queued.as_str()), (0, "peer-8"));
    let (allocs, queued) = confirm(&mut node, "peer-9");
    eprintln!("receive: {allocs} allocations for the first new confirmer");
    assert_eq!(queued, "peer-9", "a new confirmer is re-gossiped");
    assert_eq!(
        allocs, FIRST_CONFIRMER_ALLOCS,
        "a first confirmation allocates exactly what its comment names"
    );
    let (allocs, queued) = confirm(&mut node, "peer-9");
    eprintln!("receive: {allocs} allocations for a repeat by a counted confirmer");
    assert_eq!((allocs, queued.as_str()), (0, "peer-9"));
    for from in ["peer-10", "peer-11"] {
        confirm(&mut node, from);
    }
    let (allocs, queued) = confirm(&mut node, "peer-12");
    eprintln!("receive: {allocs} allocations for a new confirmer past K");
    assert_eq!(
        (allocs, queued.as_str()),
        (0, "peer-11"),
        "a confirmer past K is neither counted nor re-gossiped, and allocates nothing"
    );
}

const TABLE_ENTRIES: usize = 100_000;
/// ≈ 1.1 × the 83 B measured when the ceiling was set (64 B slot,
/// 10.7 B of name index — ⌈4/3 · n⌉ 8-byte buckets for a reserved
/// table —, 4 B pool id, 4 B probe-rotation slot id), so a layout
/// regression in `Membership` or `ProbeList` fails the run.
const TABLE_BYTES_PER_ENTRY_GATE: f64 = 91.0;

/// Bootstraps one node with a 100 000-member roster and gates its live
/// bytes per entry: what one member of a 100 k cluster pays for its
/// view of the group. The roster is built outside the measured window:
/// a cluster build clones one roster into every node, so the name
/// strings are shared and a member's own cost is its table and rotation.
fn member_table_stays_within_bytes_per_entry() {
    let roster: Vec<_> = (0..TABLE_ENTRIES)
        .map(|i| (Cluster::name_of(i), Cluster::addr_for(i)))
        .collect();
    let before = LIVE.load(Ordering::Relaxed);
    let mut node = SwimNode::new(
        Cluster::name_of(0),
        Cluster::addr_for(0),
        Config::lan().lifeguard(),
        0x5CA1E,
    );
    node.start(Time::ZERO);
    node.bootstrap_peers(roster.iter().cloned(), Time::ZERO);
    let live = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    let bytes_per_entry = live as f64 / TABLE_ENTRIES as f64;
    eprintln!("table-100k: {bytes_per_entry:.0} B/entry");
    assert_eq!(node.num_alive(), TABLE_ENTRIES);
    assert!(
        bytes_per_entry <= TABLE_BYTES_PER_ENTRY_GATE,
        "{bytes_per_entry:.0} live bytes per member-table entry at {TABLE_ENTRIES} entries \
         (gate {TABLE_BYTES_PER_ENTRY_GATE:.0})",
    );
}

const SMALL_TABLE: usize = 512;

/// A table of one IPv4 member per name, without metadata.
fn small_table(names: &[NodeName]) -> Membership {
    let mut table = Membership::new();
    for (i, name) in names.iter().enumerate() {
        table.upsert(Member::new(
            name.clone(),
            Cluster::addr_for(i),
            Incarnation(1),
            Time::ZERO,
        ));
    }
    table
}

/// The metadata column costs nothing until a member has metadata: a
/// 512-member table without any is slots + name index + pool ids, and
/// the first blob adds exactly one (empty) `Bytes` per slot — 24 B with
/// the vendored `bytes`; the blob's own allocation is made before the
/// window.
fn metadata_costs_nothing_until_a_member_has_some() {
    let names: Vec<NodeName> = (0..SMALL_TABLE).map(Cluster::name_of).collect();
    let blob = Bytes::from(vec![7u8; 64]);
    let before = LIVE.load(Ordering::Relaxed);
    let mut table = small_table(&names);
    let bare = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    let bare_per_entry = bare as f64 / SMALL_TABLE as f64;
    table.update(&names[SMALL_TABLE / 2], |m| m.meta = blob.clone());
    let with_one = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    let column_per_entry = (with_one - bare) as f64 / SMALL_TABLE as f64;
    eprintln!("table-512: {bare_per_entry:.0} B/entry bare, +{column_per_entry:.0} with one blob");
    assert!(
        bare_per_entry <= 88.0,
        "{bare_per_entry:.0} live bytes per entry in a {SMALL_TABLE}-member table without metadata",
    );
    assert!(
        column_per_entry > 0.0,
        "the first blob must build the column"
    );
    assert!(
        column_per_entry <= 24.0,
        "one member's metadata grew the table by {column_per_entry:.0} B/entry",
    );
    let stored = table.get(&names[SMALL_TABLE / 2]).map(|m| m.meta.clone());
    assert_eq!(stored, Some(blob));
}

/// The IPv6 column costs nothing while every address is IPv4: moving a
/// member to another IPv4 address allocates nothing, and the first IPv6
/// address adds one 16-byte cell per slot.
fn ipv6_costs_nothing_until_a_member_has_it() {
    let names: Vec<NodeName> = (0..SMALL_TABLE).map(Cluster::name_of).collect();
    let before = LIVE.load(Ordering::Relaxed);
    let mut table = small_table(&names);
    let bare = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    let v4 = NodeAddr::new([192, 0, 2, 1], 7946);
    table.update(&names[SMALL_TABLE / 2], |m| m.addr = v4);
    assert_eq!(
        LIVE.load(Ordering::Relaxed).saturating_sub(before),
        bare,
        "an IPv4 address must not build the IPv6 column"
    );
    let v6 = NodeAddr::from(SocketAddr::new(Ipv6Addr::LOCALHOST.into(), 7946));
    table.update(&names[SMALL_TABLE / 2], |m| m.addr = v6);
    let with_one = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    let column_per_entry = (with_one - bare) as f64 / SMALL_TABLE as f64;
    eprintln!("table-512: +{column_per_entry:.0} B/entry with one IPv6 address");
    assert!(
        column_per_entry > 0.0,
        "the first IPv6 address must build the column"
    );
    assert!(
        column_per_entry <= 16.0,
        "one member's IPv6 address grew the table by {column_per_entry:.0} B/entry",
    );
    let stored = table.get(&names[SMALL_TABLE / 2]).map(|m| m.addr);
    assert_eq!(stored, Some(v6));
}

/// Live bytes one queued broadcast may cost in a join storm: ≈ 1.1 ×
/// the 88 B measured when the gate was set — a 24-byte slot, a 16-byte
/// heap item, an 8-byte index bucket at load ≤ ¾ (16 B: 511 subjects in
/// 1 024 buckets) and a 19-byte `alive` encoding (28 B with fixed-width
/// incarnation and lengths) in an arena that doubled to 16 KiB (32 B),
/// so the shorter encodings left the figure at 88 B. A slot that held the subject's name cost
/// 40 B and a `HashMap<NodeName, u32>` entry ≈ 42 B (138 B in all); a
/// slot holding its decoded message and an encode buffer of its own,
/// 226 B.
const BROADCAST_BYTES_GATE: f64 = 97.0;

/// The churn workload's metadata blob, in bytes.
const META_BYTES: usize = 16;

/// Live bytes one queued broadcast may cost after suspicion and
/// refutation rounds over `alive`s carrying `META_BYTES` of metadata:
/// ≈ 1.1 × the 145 B measured when the gate was set. The 35-byte
/// encodings fill 18 KiB of arena; a compaction keeps room for twice the
/// live bytes plus 2 KiB (74 B), and the heap room for twice its items
/// (32 B), so that neither regrows before the next compaction. With
/// fixed-width incarnations and lengths the encodings were 44 B and the
/// figure 163 B; before compaction gave capacity back, the arena kept
/// the 64 KiB it grew to and the heap 2 048 items: 232 B.
const BROADCAST_CHURN_BYTES_GATE: f64 = 160.0;

/// The `alive` about member `i` a join storm or a refutation queues.
fn alive_of(i: usize, incarnation: u64, meta: Bytes) -> Message {
    Message::Alive(Alive {
        incarnation: Incarnation(incarnation),
        node: Cluster::name_of(i),
        addr: Cluster::addr_for(i),
        meta,
    })
}

/// A join storm puts one `alive` per member into every queue at once:
/// gate what each costs in a bare queue holding 511 of them. Then gate
/// a queue that holds one `alive` with metadata per member and is
/// overwritten three times over — a suspicion about every member, the
/// refutations, and a second suspicion — so its arena compacts and its
/// heap is rebuilt. The messages are built before the window; their
/// names are inline and their metadata shares one buffer per round, so
/// a clone allocates nothing.
fn queued_broadcast_stays_within_bytes_per_entry() {
    let msgs: Vec<Message> = (1..SMALL_TABLE)
        .map(|i| alive_of(i, 1, Bytes::new()))
        .collect();
    let before = LIVE.load(Ordering::Relaxed);
    let mut queue = BroadcastQueue::new();
    for msg in &msgs {
        queue.enqueue(msg.clone());
    }
    let live = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    let per_broadcast = live as f64 / msgs.len() as f64;
    eprintln!(
        "broadcast queue: {per_broadcast:.0} B/broadcast at {} queued",
        queue.len()
    );
    assert_eq!(queue.len(), msgs.len());
    assert!(
        per_broadcast <= BROADCAST_BYTES_GATE,
        "{per_broadcast:.0} live bytes per queued broadcast (gate {BROADCAST_BYTES_GATE:.0})",
    );
    drop(queue);

    let suspect_of = |i: usize, incarnation: u64| {
        Message::Suspect(Suspect {
            incarnation: Incarnation(incarnation),
            node: Cluster::name_of(i),
            from: Cluster::name_of(0),
        })
    };
    let rounds: Vec<Vec<Message>> = (0..4u64)
        .map(|round| {
            let meta = Bytes::from(vec![round as u8; META_BYTES]);
            (1..SMALL_TABLE)
                .map(|i| match round {
                    1 | 3 => suspect_of(i, round + 1),
                    _ => alive_of(i, round + 1, meta.clone()),
                })
                .collect()
        })
        .collect();
    let before = LIVE.load(Ordering::Relaxed);
    let mut queue = BroadcastQueue::new();
    for msg in rounds.iter().flatten() {
        queue.enqueue(msg.clone());
    }
    let live = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    let per_broadcast = live as f64 / msgs.len() as f64;
    eprintln!(
        "broadcast queue: {per_broadcast:.0} B/broadcast at {} queued after 3 overwrite rounds",
        queue.len()
    );
    assert_eq!(queue.len(), msgs.len());
    let last = rounds.last().and_then(|round| round.last());
    assert_eq!(
        queue
            .queued_for(&Cluster::name_of(SMALL_TABLE - 1))
            .as_ref(),
        last
    );
    assert!(
        per_broadcast <= BROADCAST_CHURN_BYTES_GATE,
        "{per_broadcast:.0} live bytes per queued broadcast after overwrites \
         (gate {BROADCAST_CHURN_BYTES_GATE:.0})",
    );
}

/// Live bytes one recorded event may cost: its 20-byte record plus its
/// share of the last chunk's slack, the `MemberFailed` incarnation
/// column and the name table. A `TraceEvent` in a `Vec` was 56 B.
const TRACE_BYTES_PER_EVENT_GATE: f64 = 24.0;

/// Replays the events of a 64-node Interval run (the verdict's gate
/// cell, over a 40 s minimum run) into a fresh trace and gates its live
/// bytes per event. The events are collected before the window; their
/// names are inline, so a clone allocates nothing and the window sees
/// the trace's own allocations only, in the order the run made them.
fn trace_stays_within_bytes_per_event() {
    let schedule = scenario::interval(
        64,
        16,
        Duration::from_millis(16_384),
        Duration::from_millis(64),
        Duration::from_secs(40),
        1,
    );
    let mut cluster = Cluster::new(&schedule, &Config::lan().lifeguard());
    cluster.run_until(schedule.end);
    let events: Vec<TraceEvent> = cluster.trace().events().iter().collect();
    let before = LIVE.load(Ordering::Relaxed);
    let mut trace = EventLog::new();
    for e in &events {
        trace.record(e.at, e.reporter, e.event.clone());
    }
    let live = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    let per_event = live as f64 / events.len() as f64;
    eprintln!("trace: {per_event:.1} B/event at {} events", events.len());
    assert!(trace.failures().count() > 0, "the run declares failures");
    assert!(
        per_event <= TRACE_BYTES_PER_EVENT_GATE,
        "{per_event:.1} live bytes per recorded event (gate {TRACE_BYTES_PER_EVENT_GATE:.0})",
    );
}

/// Members of the churn soak's cluster, the soaked node included.
const SOAK_MEMBERS: usize = 64;
/// Times every peer leaves or crashes and rejoins during the soak.
const SOAK_ROUNDS: usize = 8;
/// Simulated time between one peer's departure and the next one's.
const SOAK_STAGGER: Duration = Duration::from_secs(4);
/// Departures a peer stays away for: 60 s, longer than the longest
/// suspicion timeout at 64 members (β · α · log₁₀ 64 ≈ 54 s), so that a
/// crashed peer is declared dead before it rejoins.
const SOAK_DOWN_STEPS: usize = 15;
/// Live bytes the soak's second half may peak above its first half:
/// 2 KiB. The halves peaked at 14 668 and 14 756 B when the gate was set;
/// a `Vec<u64>` field on `SwimNode` that keeps one entry per membership
/// change (about 500 per half) took them to 18 764 and 22 948 B.
const SOAK_MARGIN_BYTES: u64 = 2048;

/// Drains `node`, then acks every ping it sent to a peer that is up, as
/// that peer would, and drains again.
fn soak_drain(node: &mut SwimNode, names: &[NodeName], up: &[bool], now: Time) {
    let mut acks = Vec::new();
    while let Some(output) = node.poll_output() {
        let Output::Packet { payload, .. } = output else {
            continue;
        };
        for msg in decode_packet(payload).expect("own packet") {
            if let Message::Ping(p) = msg {
                let target = names.iter().position(|n| *n == p.target);
                if target.is_some_and(|i| up[i]) {
                    acks.push(codec::encode_message(&Message::Ack(Ack { seq: p.seq })));
                }
            }
        }
    }
    for payload in acks {
        let from = Cluster::addr_for(1);
        node.handle_input(Input::Datagram { from, payload }, now)
            .expect("valid ack");
        drain_poll(node);
    }
}

/// The churn soak: one node of a 64-member cluster lives through every
/// peer leaving or crashing and rejoining `SOAK_ROUNDS` times, one
/// departure every 4 s, and its live heap must plateau: the second
/// half's peak may not exceed the first half's by more than
/// `SOAK_MARGIN_BYTES`. A departure is a graceful leave (the peer's own
/// `dead`) or, every other time, a crash another peer reports (a
/// `suspect`; the node's own timer declares it dead); a rejoin is an
/// `alive` at a higher incarnation, with metadata every other round.
/// The harness acks the pings of peers that are up and holds nothing
/// but its roster at a sample, so the samples measure the node alone:
/// there is no append-only log such as the simulator's trace.
fn churn_soak_heap_plateaus() {
    let names: Vec<NodeName> = (0..SOAK_MEMBERS).map(Cluster::name_of).collect();
    let meta = Bytes::from(vec![9u8; META_BYTES]);
    let mut up = vec![true; SOAK_MEMBERS];
    let mut incarnation = vec![0u64; SOAK_MEMBERS];
    let before = LIVE.load(Ordering::Relaxed);
    let mut node = SwimNode::new(
        names[0].clone(),
        Cluster::addr_for(0),
        Config::lan().lifeguard(),
        0x50A6,
    );
    node.start(Time::ZERO);
    let peers = (1..SOAK_MEMBERS).map(|i| (names[i].clone(), Cluster::addr_for(i)));
    node.bootstrap_peers(peers, Time::ZERO);
    // Step `s` moves the `s`-th peer in round-robin order: (round, peer).
    let peer = |s: usize| (s / (SOAK_MEMBERS - 1), 1 + s % (SOAK_MEMBERS - 1));
    let departures = SOAK_ROUNDS * (SOAK_MEMBERS - 1);
    let steps = departures + SOAK_DOWN_STEPS;
    let (mut now, mut peaks) = (Time::ZERO, [0u64; 2]);
    for step in 0..steps {
        let mut gossip = Vec::new();
        if step < departures {
            let (round, i) = peer(step);
            up[i] = false;
            let reporter = &names[1 + i % (SOAK_MEMBERS - 2)];
            gossip.push(if (round + i) % 2 == 0 {
                Message::Dead(Dead {
                    incarnation: Incarnation(incarnation[i]),
                    node: names[i].clone(),
                    from: names[i].clone(),
                })
            } else {
                suspect(names[i].as_str(), reporter.as_str(), incarnation[i])
            });
        }
        if let Some(back) = step.checked_sub(SOAK_DOWN_STEPS) {
            let (round, i) = peer(back);
            up[i] = true;
            incarnation[i] += 1;
            let blob = if round % 2 == 1 {
                meta.clone()
            } else {
                Bytes::new()
            };
            gossip.push(alive_of(i, incarnation[i], blob));
        }
        for msg in gossip {
            let from = Cluster::addr_for(1);
            let payload = codec::encode_message(&msg);
            node.handle_input(Input::Datagram { from, payload }, now)
                .expect("valid gossip");
            soak_drain(&mut node, &names, &up, now);
        }
        let mut ticks = Duration::ZERO;
        while ticks < SOAK_STAGGER {
            now += GOSSIP_STEP;
            ticks += GOSSIP_STEP;
            node.handle_input(Input::Tick, now).expect("tick");
            soak_drain(&mut node, &names, &up, now);
            let live = LIVE.load(Ordering::Relaxed).saturating_sub(before);
            let half = &mut peaks[usize::from(2 * step >= steps)];
            *half = (*half).max(live);
        }
    }
    node.check_invariants();
    let declared = node.metrics().failures_declared;
    eprintln!(
        "churn soak: peak live {} B in the first half, {} B in the second, {declared} failures declared",
        peaks[0], peaks[1]
    );
    assert!(declared > 0, "crashed peers must be declared dead");
    assert_eq!(node.num_alive(), SOAK_MEMBERS, "every peer rejoined");
    assert!(
        peaks[1] <= peaks[0] + SOAK_MARGIN_BYTES,
        "the live heap grew from a {} B peak to {} B under churn (margin {SOAK_MARGIN_BYTES} B)",
        peaks[0],
        peaks[1]
    );
}

/// Allocations a simulated cluster may make per datagram it dispatches:
/// the in-flight payload is one buffer cut to the packet, and everything
/// else (event queue, node, sink) reuses warmed-up capacity. 1.08 was
/// measured when the gate was set; a reference-counted payload made two
/// allocations per datagram, the copy and its count.
const SIM_ALLOCS_PER_DATAGRAM_GATE: f64 = 1.1;

/// A quiet 64-node full mesh, warmed up for 10 simulated seconds, then
/// counted over 60 more: allocations per dispatched datagram.
fn simulated_datagram_allocates_once() {
    let mut cluster = ClusterBuilder::new(SOAK_MEMBERS)
        .full_mesh(true)
        .config(Config::lan().lifeguard())
        .seed(3)
        .build();
    cluster.run_for(Duration::from_secs(10));
    let before = cluster.dispatched().datagrams;
    let allocs = count_allocs(|| cluster.run_for(Duration::from_secs(60)));
    let datagrams = cluster.dispatched().datagrams - before;
    let per_datagram = allocs as f64 / datagrams as f64;
    eprintln!("sim: {per_datagram:.2} allocations per datagram over {datagrams} datagrams");
    assert!(datagrams > 0, "the cluster probes");
    assert!(
        per_datagram <= SIM_ALLOCS_PER_DATAGRAM_GATE,
        "{per_datagram:.2} allocations per dispatched datagram (gate {SIM_ALLOCS_PER_DATAGRAM_GATE})",
    );
}

/// Messages the scripted peer sends an undrained agent: the `alive`
/// that admits its member, then alternating `suspect`s and `alive`s,
/// each one event, until the agent has concluded four times what its
/// log stores.
const UNDRAINED_EVENTS: usize = 4 * EVENT_LOG_CAP;
/// Datagrams the peer sends before it waits for the agent to take them
/// all, well within a loopback socket's receive buffer.
const UNDRAINED_BATCH: usize = 32;
/// Live bytes the undrained agent's second half may peak above its
/// first half: 16 KiB. The halves peaked at 1 400 542 and 1 400 660 B
/// when the gate was set; one run in three read 1 408 468 B, a sample
/// that caught the reply of a `metrics()` read before the reactor thread
/// freed it. With an unbounded event channel instead of the capped log
/// they peaked at 2 923 290 and 4 766 752 B: 56 B per event.
const UNDRAINED_MARGIN_BYTES: u64 = 16 * 1024;

/// A socket agent's event log, never drained: a scripted UDP peer
/// admits itself as a member and then flaps it (`suspect`, then an
/// `alive` at the next incarnation) until the agent has concluded
/// `UNDRAINED_EVENTS`. It waits on the agent's received-datagram
/// counter, never on its events, and samples the live heap after each
/// batch; the second half's peak may not exceed the first half's by
/// more than `UNDRAINED_MARGIN_BYTES`. The agent's probes are an hour
/// apart, so every event is one the peer caused. Then `events()` holds
/// the first `EVENT_LOG_CAP` of them and counts the rest, and leaves
/// nothing behind.
fn undrained_agent_heap_plateaus() {
    let before = LIVE.load(Ordering::Relaxed);
    let hour = Duration::from_secs(3600);
    let mut protocol = Config::lan().lifeguard().with_probe_timing(hour, hour);
    protocol.push_pull_interval = None;
    let agent = Agent::start(AgentConfig::local("hub").protocol(protocol).seed(0x10C))
        .expect("agent starts");
    let peer = UdpSocket::bind("127.0.0.1:0").expect("peer binds");
    let member = NodeName::from("member");
    let addr = NodeAddr::from(peer.local_addr().expect("peer address"));
    let message = |i: usize| {
        let incarnation = Incarnation(1 + i as u64 / 2);
        codec::encode_message(&if i.is_multiple_of(2) {
            Message::Alive(Alive {
                incarnation,
                node: member.clone(),
                addr,
                meta: Bytes::new(),
            })
        } else {
            Message::Suspect(Suspect {
                incarnation,
                node: member.clone(),
                from: "accuser".into(),
            })
        })
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    let (mut sent, mut peaks) = (0, [0u64; 2]);
    while sent < UNDRAINED_EVENTS {
        let batch = UNDRAINED_BATCH.min(UNDRAINED_EVENTS - sent);
        for i in sent..sent + batch {
            peer.send_to(&message(i), agent.addr()).expect("send");
        }
        sent += batch;
        while agent.metrics().io.datagrams_received < sent as u64 {
            assert!(Instant::now() < deadline, "the agent took too long");
        }
        let live = LIVE.load(Ordering::Relaxed).saturating_sub(before);
        let half = &mut peaks[usize::from(2 * sent > UNDRAINED_EVENTS)];
        *half = (*half).max(live);
    }
    eprintln!(
        "undrained agent: peak live {} B in the first half, {} B in the second, {sent} events",
        peaks[0], peaks[1]
    );
    assert!(
        peaks[1] <= peaks[0] + UNDRAINED_MARGIN_BYTES,
        "the live heap grew from a {} B peak to {} B with events left undrained \
         (margin {UNDRAINED_MARGIN_BYTES} B)",
        peaks[0],
        peaks[1]
    );
    let log = agent.events();
    assert_eq!(log.len(), EVENT_LOG_CAP);
    assert_eq!(log.len() as u64 + log.overflowed(), sent as u64);
    assert!(agent.events().is_empty(), "a read takes what it returns");
    agent.shutdown();
}

#[test]
fn poll_drain_allocates_nothing_and_a_100k_table_fits_its_ceiling() {
    poll_output_is_allocation_free();
    receive_path_allocates_only_for_state_changes();
    member_table_stays_within_bytes_per_entry();
    metadata_costs_nothing_until_a_member_has_some();
    ipv6_costs_nothing_until_a_member_has_it();
    queued_broadcast_stays_within_bytes_per_entry();
    trace_stays_within_bytes_per_event();
    churn_soak_heap_plateaus();
    simulated_datagram_allocates_once();
    undrained_agent_heap_plateaus();
}
