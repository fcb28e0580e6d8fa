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
//!   some, and one `Bytes` per slot from then on.
//!
//! All run inside one `#[test]`, in sequence: the allocator's counters
//! are process-global, so a second test running beside it would be
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use bytes::Bytes;
use lifeguard::core::config::Config;
use lifeguard::core::member::Member;
use lifeguard::core::membership::Membership;
use lifeguard::core::node::{Input, Output, SwimNode};
use lifeguard::core::time::Time;
use lifeguard::proto::compound::{decode_packet, CompoundBuilder};
use lifeguard::proto::{
    codec, Ack, Alive, Dead, Incarnation, Message, NodeAddr, NodeName, Ping, SeqNo, Suspect,
};
use lifeguard::sim::cluster::Cluster;

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
/// counters and fixed-size histograms — so this also proves that
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
}

const TABLE_ENTRIES: usize = 100_000;
/// ≈ 1.1 × the 113 B measured when the ceiling was set (80 B slot, 21 B
/// of name index at this size, 4 B pool id, 8 B probe id), so a layout
/// regression in `Membership` or `ProbeList` fails the run.
const TABLE_BYTES_PER_ENTRY_GATE: f64 = 125.0;

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

/// The metadata column costs nothing until a member has metadata: a
/// 512-member table without any is slots + name index + pool ids, and
/// the first blob adds exactly one (empty) `Bytes` per slot — 24 B with
/// the vendored `bytes`; the blob's own allocation is made before the
/// window.
fn metadata_costs_nothing_until_a_member_has_some() {
    let names: Vec<NodeName> = (0..SMALL_TABLE).map(Cluster::name_of).collect();
    let blob = Bytes::from(vec![7u8; 64]);
    let before = LIVE.load(Ordering::Relaxed);
    let mut table = Membership::new();
    for (i, name) in names.iter().enumerate() {
        table.upsert(Member::new(
            name.clone(),
            Cluster::addr_for(i),
            Incarnation(1),
            Time::ZERO,
        ));
    }
    let bare = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    let bare_per_entry = bare as f64 / SMALL_TABLE as f64;
    table.update(&names[SMALL_TABLE / 2], |m| m.meta = blob.clone());
    let with_one = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    let column_per_entry = (with_one - bare) as f64 / SMALL_TABLE as f64;
    eprintln!("table-512: {bare_per_entry:.0} B/entry bare, +{column_per_entry:.0} with one blob");
    assert!(
        bare_per_entry <= 104.0,
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

#[test]
fn poll_drain_allocates_nothing_and_a_100k_table_fits_its_ceiling() {
    poll_output_is_allocation_free();
    receive_path_allocates_only_for_state_changes();
    member_table_stays_within_bytes_per_entry();
    metadata_costs_nothing_until_a_member_has_some();
}
