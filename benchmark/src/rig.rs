//! The layer rig: measures each layer from outside, by timing calls into
//! its public functions under spans.
//!
//! Per workload, one benchmark-owned driver (the *hub*) holding that
//! workload's roster is fed a seeded script — pings, timer ticks with
//! acks to its own probes, gossip packets (fresh, then the same again as
//! duplicates), full push-pull merges — with a span around every
//! `Driver::handle` / `tick`. The packets it sent and the script's own
//! are then replayed straight through `proto::compound`, and the table
//! operations through `core::{membership, broadcast, timer_wheel}`,
//! `sim::{event_queue, network}` and `metrics`. The script is shaped by
//! the workload's own counters: roster size and gossip entries per
//! packet.
//!
//! Nanosecond rows come from spans around batches of calls; a span around
//! one ~50 ns call would mostly measure the clock.

use bytes::{Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::api::layers::{
    BroadcastQueue, CompoundBuilder, EventQueue, Histogram, Incarnation, Member, Membership,
    Network, NetworkConfig, Snapshot, Time, TimerWheel,
};
use crate::api::{self, Hub, Message, NodeName};
use crate::host;
use crate::report::Run;
use crate::stats;
use crate::workloads::derive_seed;

/// What the workload's untraced counters say about its traffic.
pub struct Shape {
    /// Members in every table.
    pub roster: usize,
    /// Mean datagram size the workload's nodes sent, in bytes.
    pub datagram_bytes: f64,
    /// Datagrams a node sent (so, on average, received) per simulated
    /// second: two of them are its probe and its ack, the rest gossip.
    pub datagrams_per_node_s: f64,
}

const META_BYTES: usize = 16;
/// Datagrams the script hands the hub, split between pings and gossip
/// packets in the workload's own proportion.
const SCRIPT_DATAGRAMS: f64 = 2_400.0;
const TICKS: usize = 3_000;
const PUSH_PULLS: u32 = 5;
const BATCHES: u32 = 16;
const PER_BATCH: usize = 1_000;

/// Runs `per_batch` calls of `op` inside each of `BATCHES` spans named
/// `span`, and reports the median ns per call as `row`.
fn batched(
    run: &mut Run,
    row: &str,
    span: &'static str,
    per_batch: usize,
    mut op: impl FnMut(usize),
) {
    let first = run.rec.spans().len();
    for batch in 0..BATCHES {
        run.rec.span(span, batch, |_| {
            for i in 0..per_batch {
                op(batch as usize * per_batch + i);
            }
        });
    }
    let per_call: Vec<f64> = run.rec.spans()[first..]
        .iter()
        .map(|s| s.duration_ns() as f64 / per_batch as f64)
        .collect();
    run.set_n(
        row,
        stats::median(&per_call).unwrap_or(0.0),
        BATCHES as usize * per_batch,
    );
}

fn median_span(run: &Run, name: &str, scale: f64) -> f64 {
    stats::median(&run.rec.durations(name)).unwrap_or(0.0) * scale
}

fn random_meta(rng: &mut StdRng) -> Bytes {
    Bytes::from((0..META_BYTES).map(|_| rng.random()).collect::<Vec<u8>>())
}

/// Packs messages the way a node does: one compound builder, finished
/// into a reusable buffer.
fn pack(builder: &mut CompoundBuilder, msgs: &[Message], out: &mut Vec<u8>) -> usize {
    out.clear();
    for msg in msgs {
        builder.try_add_msg(msg);
    }
    builder.finish_into(out).map_or(0, |range| range.len())
}

pub fn run(run: &mut Run, shape: &Shape) {
    let n = shape.roster;
    let mut rng = StdRng::seed_from_u64(derive_seed(run.seed, 9));
    let names: Vec<NodeName> = (0..n).map(api::sim_name).collect();
    let alive_len = api::encode_message(&api::alive(
        names[n - 1].clone(),
        api::sim_addr(n - 1),
        1,
        random_meta(&mut rng),
    ))
    .len();
    let gossip_per_packet = ((shape.datagram_bytes / alive_len as f64).round() as usize)
        .clamp(1, api::PACKET_BUDGET / (alive_len + 2));
    let per_node_s = shape.datagrams_per_node_s.max(1.0);
    let pings = ((SCRIPT_DATAGRAMS / per_node_s) as usize).clamp(100, SCRIPT_DATAGRAMS as usize);
    let gossip_packet_count = ((SCRIPT_DATAGRAMS * (per_node_s - 2.0) / per_node_s) as usize)
        .clamp(50, SCRIPT_DATAGRAMS as usize);
    run.notes.push(format!("rig script: roster {n}, {pings} pings, {gossip_packet_count} gossip packets of {gossip_per_packet} entries"));

    // ---- core::node + core::driver: the hub under a script ----------
    let mut hub = Hub::new(n, derive_seed(run.seed, 10));
    let hub_name = hub.name();
    let mut now_us = 1_000_000u64;
    let ping_packets: Vec<(usize, Bytes)> = (0..pings)
        .map(|i| {
            let from = rng.random_range(0..n);
            (
                from,
                api::encode_message(&api::ping(
                    i as u32 + 1,
                    hub_name.clone(),
                    names[from].clone(),
                    api::sim_addr(from),
                )),
            )
        })
        .collect();
    let mut builder = CompoundBuilder::new(api::PACKET_BUDGET);
    let mut scratch = Vec::new();
    let gossip_packets: Vec<(usize, Bytes)> = (0..gossip_packet_count)
        .map(|round| {
            let msgs: Vec<Message> = (0..gossip_per_packet)
                .map(|_| {
                    let about = rng.random_range(0..n);
                    api::alive(
                        names[about].clone(),
                        api::sim_addr(about),
                        round as u64 + 1,
                        random_meta(&mut rng),
                    )
                })
                .collect();
            pack(&mut builder, &msgs, &mut scratch);
            (rng.random_range(0..n), Bytes::copy_from_slice(&scratch))
        })
        .collect();

    // Gossip first, so that the acks to the pings that follow carry
    // piggy-backed gossip the way a busy node's do.
    let allocs_before = host::thread_allocs();
    for (name, packets) in [
        ("node.handle_gossip_fresh", &gossip_packets),
        ("node.handle_gossip_dup", &gossip_packets),
        ("node.handle_ping", &ping_packets),
    ] {
        for (i, (from, packet)) in packets.iter().enumerate() {
            now_us += 500;
            let _ = run.rec.span(name, i as u32, |_| {
                hub.handle_datagram(api::sim_addr(*from), packet.clone(), now_us)
            });
        }
    }
    let handles = pings + 2 * gossip_packet_count;
    run.set_n(
        "node.allocs_per_handle",
        (host::thread_allocs() - allocs_before) as f64 / handles as f64,
        handles,
    );

    // Timer ticks at the hub's own deadlines; every probe it sends is
    // answered, so it never suspects anybody.
    let mut answered = hub.sink.packets.len();
    for i in 0..TICKS {
        let Some(deadline) = hub.next_deadline_us() else {
            break;
        };
        now_us = now_us.max(deadline);
        run.rec.span("node.tick", i as u32, |_| hub.tick(now_us));
        let probes: Vec<_> = hub.sink.packets[answered..]
            .iter()
            .flat_map(|(to, packet)| {
                api::decode_packet(packet)
                    .unwrap_or_default()
                    .into_iter()
                    .map(move |m| (*to, m))
            })
            .filter_map(|(to, m)| match api::peer_view(&m) {
                api::PeerView::Ping(seq) => Some((to, api::encode_message(&api::ack(seq)))),
                _ => None,
            })
            .collect();
        answered = hub.sink.packets.len();
        for (from, ack) in probes {
            now_us += 300;
            let _ = run.rec.span("node.handle_ack", i as u32, |_| {
                hub.handle_datagram(from, ack, now_us)
            });
        }
    }
    for round in 0..PUSH_PULLS {
        let states = (0..n).map(|i| {
            (
                names[i].clone(),
                api::sim_addr(i),
                gossip_packet_count as u64 + 2 + u64::from(round),
                random_meta(&mut rng),
            )
        });
        let msg = api::push_pull_reply(states);
        now_us += 1_000;
        run.rec.span("node.merge_pushpull", round, |_| {
            hub.handle_stream(api::sim_addr(0), msg, now_us)
        });
    }
    for (row, span) in [
        ("node.handle_ping_ns", "node.handle_ping"),
        ("node.handle_ack_ns", "node.handle_ack"),
        ("node.handle_gossip_fresh_ns", "node.handle_gossip_fresh"),
        ("node.handle_gossip_dup_ns", "node.handle_gossip_dup"),
        ("node.tick_ns", "node.tick"),
    ] {
        run.set_n(
            row,
            median_span(run, span, 1.0),
            run.rec.durations(span).len(),
        );
    }
    run.set_n(
        "node.merge_pushpull_us",
        median_span(run, "node.merge_pushpull", 1e-3),
        PUSH_PULLS as usize,
    );
    assert_eq!(
        hub.num_alive(),
        n + 1,
        "the rig's hub must keep its whole roster alive"
    );

    // ---- proto: replay what the hub sent and what it was sent -------
    let packets: Vec<Bytes> = hub
        .sink
        .packets
        .iter()
        .map(|(_, p)| p.clone())
        .chain(gossip_packets.iter().map(|(_, p)| p.clone()))
        .collect();
    let mut decoded = Vec::with_capacity(packets.len());
    for (i, packet) in packets.iter().enumerate() {
        decoded.push(run.rec.span("proto.decode_packet", i as u32, |_| {
            api::decode_packet(packet).unwrap_or_default()
        }));
    }
    for (i, msgs) in decoded.iter().enumerate() {
        run.rec.span("proto.encode_packet", i as u32, |_| {
            pack(&mut builder, msgs, &mut scratch)
        });
    }
    let messages: usize = decoded.iter().map(Vec::len).sum();
    let decode_total_ns: f64 = run.rec.durations("proto.decode_packet").iter().sum();
    run.set_n(
        "proto.decode_ns_per_msg",
        decode_total_ns / messages.max(1) as f64,
        messages,
    );
    run.set_n(
        "proto.decode_packet_ns",
        median_span(run, "proto.decode_packet", 1.0),
        packets.len(),
    );
    run.set_n(
        "proto.encode_packet_ns",
        median_span(run, "proto.encode_packet", 1.0),
        packets.len(),
    );
    run.set_n(
        "proto.msgs_per_packet",
        messages as f64 / packets.len().max(1) as f64,
        packets.len(),
    );
    let sizes: Vec<f64> = packets.iter().map(|p| p.len() as f64).collect();
    run.set_n(
        "proto.packet_bytes_p50",
        stats::median(&sizes).unwrap_or(0.0),
        sizes.len(),
    );
    let full_state = api::push_pull_reply(
        (0..n).map(|i| (names[i].clone(), api::sim_addr(i), 1, random_meta(&mut rng))),
    );
    for round in 0..PUSH_PULLS {
        let mut buf = BytesMut::new();
        run.rec.span("proto.pushpull_encode", round, |_| {
            api::encode_message_into(&full_state, &mut buf)
        });
        let encoded = buf.freeze();
        let back = run.rec.span("proto.pushpull_decode", round, |_| {
            api::decode_packet(&encoded)
        });
        assert!(
            back.is_ok_and(|m| m.len() == 1),
            "a full-state push-pull must decode to itself"
        );
    }
    run.set_n(
        "proto.pushpull_encode_us",
        median_span(run, "proto.pushpull_encode", 1e-3),
        PUSH_PULLS as usize,
    );
    run.set_n(
        "proto.pushpull_decode_us",
        median_span(run, "proto.pushpull_decode", 1e-3),
        PUSH_PULLS as usize,
    );

    // ---- core::membership --------------------------------------------
    let picks: Vec<usize> = (0..BATCHES as usize * PER_BATCH)
        .map(|_| rng.random_range(0..n))
        .collect();
    let live_before = host::thread_live_bytes();
    let mut table = Membership::new();
    for (i, name) in names.iter().enumerate() {
        table.upsert(Member::new(
            name.clone(),
            api::sim_addr(i),
            Incarnation(1),
            Time::ZERO,
        ));
    }
    run.set_n(
        "membership.bytes_per_entry",
        (host::thread_live_bytes() - live_before) as f64 / n as f64,
        n,
    );
    let mut hits = 0usize;
    batched(run, "membership.get_ns", "membership.get", PER_BATCH, |i| {
        hits += usize::from(table.get(&names[picks[i]]).is_some())
    });
    assert_eq!(hits, picks.len(), "every roster name must be found");
    batched(
        run,
        "membership.update_ns",
        "membership.update",
        PER_BATCH,
        |i| {
            table.update(&names[picks[i]], |m| {
                m.incarnation = Incarnation(m.incarnation.get() + 1)
            });
        },
    );
    let mut sample_rng = StdRng::seed_from_u64(derive_seed(run.seed, 11));
    batched(
        run,
        "membership.sample3_ns",
        "membership.sample3",
        PER_BATCH,
        |_| {
            std::hint::black_box(table.sample(3, &mut sample_rng, |_| true).len());
        },
    );
    batched(
        run,
        "membership.changed_since_ns",
        "membership.changed_since",
        PER_BATCH,
        |_| {
            std::hint::black_box(
                table
                    .changed_since(table.update_seq().saturating_sub(64))
                    .count(),
            );
        },
    );
    let newcomers: Vec<NodeName> = (0..BATCHES as usize * PER_BATCH / 8)
        .map(|i| NodeName::from(format!("new-{i}")))
        .collect();
    batched(
        run,
        "membership.upsert_ns",
        "membership.upsert",
        PER_BATCH / 8,
        |i| {
            table.upsert(Member::new(
                newcomers[i].clone(),
                api::sim_addr(i),
                Incarnation(1),
                Time::ZERO,
            ));
        },
    );

    // ---- core::broadcast ---------------------------------------------
    let updates: Vec<Message> = picks
        .iter()
        .map(|&i| api::alive(names[i].clone(), api::sim_addr(i), 2, random_meta(&mut rng)))
        .collect();
    let mut queue = BroadcastQueue::new();
    batched(
        run,
        "broadcast.enqueue_ns",
        "broadcast.enqueue",
        PER_BATCH,
        |i| queue.enqueue(updates[i].clone()),
    );
    // A limit nothing reaches, so every fill draws from a standing queue
    // (with the real limit the queue would drain and most fills be empty).
    let limit = 1 << 20;
    let mut filled = 0usize;
    let fills = (PER_BATCH / 8).max(1);
    batched(run, "broadcast.fill_ns", "broadcast.fill", fills, |_| {
        queue.fill(&mut builder, limit, None);
        filled += builder.len();
        scratch.clear();
        builder.finish_into(&mut scratch);
    });
    run.set_n(
        "broadcast.fill_msgs",
        filled as f64 / (BATCHES as usize * fills) as f64,
        BATCHES as usize * fills,
    );

    // ---- core::timer_wheel -------------------------------------------
    // Deadlines shaped like a node's: gossip tick, probe timeout, probe
    // round, push-pull.
    let delays_us = [200_000u64, 500_000, 1_000_000, 30_000_000];
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let mut keys = Vec::with_capacity(picks.len());
    batched(run, "timer.schedule_ns", "timer.schedule", PER_BATCH, |i| {
        let at = Time::from_micros(delays_us[i % 4] + picks[i] as u64 * 17);
        keys.push(wheel.schedule(at, i as u32));
    });
    let third = PER_BATCH / 3;
    batched(run, "timer.reschedule_ns", "timer.reschedule", third, |i| {
        keys[i] = wheel
            .reschedule(keys[i], Time::from_micros(60_000_000 + i as u64))
            .unwrap_or(keys[i]);
    });
    batched(run, "timer.cancel_ns", "timer.cancel", third, |i| {
        std::hint::black_box(wheel.cancel(keys[BATCHES as usize * third + i]));
    });
    let mut clock_us = 0u64;
    batched(run, "timer.pop_due_ns", "timer.pop_due", third, |_| {
        while wheel.pop_due(Time::from_micros(clock_us)).is_none() && clock_us < 120_000_000 {
            clock_us += 1_000;
        }
    });

    // ---- sim::network and sim::event_queue ---------------------------
    let mut network = Network::new(NetworkConfig::loopback(), derive_seed(run.seed, 12));
    batched(
        run,
        "sim.network_draw_ns",
        "sim.network_draw",
        PER_BATCH,
        |i| {
            std::hint::black_box(network.datagram(picks[i], i % n));
        },
    );
    let mut events: EventQueue<u32> = EventQueue::new();
    let mut sim_now_us = 0u64;
    // A standing population like a window's in-flight datagrams, then one
    // push and one pop per call.
    for (i, pick) in picks.iter().take(n).enumerate() {
        events.push(Time::from_micros(100 + (*pick as u64 * 7) % 300), i as u32);
    }
    batched(
        run,
        "sim.event_queue_push_pop_ns",
        "sim.event_queue_push_pop",
        PER_BATCH,
        |i| {
            events.push(
                Time::from_micros(sim_now_us + 100 + (picks[i] as u64 * 7) % 300),
                i as u32,
            );
            if let Some((at, _)) = events.pop() {
                sim_now_us = at.as_micros();
            }
        },
    );

    // ---- metrics -----------------------------------------------------
    let mut hist = Histogram::new();
    batched(
        run,
        "metrics.hist_record_ns",
        "metrics.hist_record",
        PER_BATCH,
        |i| hist.record(picks[i] as u64 * 37 + 100),
    );
    let snapshot = hub.snapshot();
    for round in 0..32 {
        let encoded = run
            .rec
            .span("metrics.snapshot_encode", round, |_| snapshot.encode());
        let back = run.rec.span("metrics.snapshot_decode", round, |_| {
            Snapshot::decode(&encoded)
        });
        assert!(
            back.is_ok_and(|s| s == snapshot),
            "a snapshot must decode to itself"
        );
    }
    run.set_n(
        "metrics.snapshot_encode_us",
        median_span(run, "metrics.snapshot_encode", 1e-3),
        32,
    );
    run.set_n(
        "metrics.snapshot_decode_us",
        median_span(run, "metrics.snapshot_decode", 1e-3),
        32,
    );
}
