//! Micro-benchmarks of the protocol core's hot paths: wire codec,
//! compound packing, gossip queue, suspicion math, membership sampling,
//! and raw simulator throughput.
//!
//! The `membership/*` and `broadcast/*` groups benchmark the indexed
//! structures against the checked-in naive (seed-design) baselines in
//! [`lifeguard_bench::naive`] at n ∈ {100, 1k, 10k}; see
//! `docs/PERFORMANCE.md` for recorded results.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use lifeguard_bench::naive::{NaiveBroadcastQueue, NaiveMembership};
use lifeguard_core::broadcast::BroadcastQueue;
use lifeguard_core::config::Config;
use lifeguard_core::member::Member;
use lifeguard_core::membership::{Membership, SamplePool};
use lifeguard_core::suspicion::suspicion_timeout;
use lifeguard_core::time::Time;
use lifeguard_proto::compound::{decode_packet, CompoundBuilder};
use lifeguard_proto::{
    codec, Alive, Incarnation, MemberState, Message, NodeAddr, NodeName, Ping, SeqNo, Suspect,
};
use lifeguard_sim::cluster::{ClusterBuilder, SimAction};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Cluster sizes for the indexed-vs-naive comparisons.
const SCALES: [usize; 3] = [100, 1_000, 10_000];

fn sample_ping() -> Message {
    Message::Ping(Ping {
        seq: SeqNo(42),
        target: "node-17".into(),
        source: "node-3".into(),
        source_addr: NodeAddr::new([10, 0, 0, 3], 7946),
    })
}

fn sample_alive(i: u64) -> Message {
    Message::Alive(Alive {
        incarnation: Incarnation(i),
        node: format!("node-{i}").into(),
        addr: NodeAddr::new([10, 0, (i >> 8) as u8, (i & 0xff) as u8], 7946),
        meta: Bytes::new(),
    })
}

fn bench_codec(c: &mut Criterion) {
    let msg = sample_ping();
    let encoded = codec::encode_message(&msg);
    c.bench_function("codec/encode_ping", |b| {
        b.iter(|| codec::encode_message(black_box(&msg)))
    });
    c.bench_function("codec/decode_ping", |b| {
        b.iter(|| codec::decode_message(black_box(&encoded)).unwrap())
    });
    c.bench_function("codec/encoded_len_ping", |b| {
        b.iter(|| codec::encoded_len(black_box(&msg)))
    });
}

fn bench_compound(c: &mut Criterion) {
    let parts: Vec<Bytes> = (0..30)
        .map(|i| codec::encode_message(&sample_alive(i)))
        .collect();
    let mut builder = CompoundBuilder::new(1400);
    let mut packet = Vec::new();
    c.bench_function("compound/pack_30_messages", |b| {
        b.iter(|| {
            for p in &parts {
                builder.try_add_bytes(p);
            }
            packet.clear();
            builder.finish_into(&mut packet).unwrap()
        })
    });
    for p in &parts {
        builder.try_add_bytes(p);
    }
    packet.clear();
    builder.finish_into(&mut packet).unwrap();
    c.bench_function("compound/decode_30_messages", |b| {
        b.iter(|| decode_packet(black_box(&packet)).unwrap())
    });
}

fn bench_broadcast_queue(c: &mut Criterion) {
    c.bench_function("broadcast/enqueue_fill_64", |b| {
        b.iter_batched(
            || {
                let mut q = BroadcastQueue::new();
                for i in 0..64 {
                    q.enqueue(sample_alive(i));
                }
                q
            },
            |mut q| {
                let mut builder = CompoundBuilder::new(1400);
                q.fill(&mut builder, 12, None);
                let mut packet = Vec::new();
                builder.finish_into(&mut packet);
                packet
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("broadcast/invalidate_same_subject", |b| {
        b.iter_batched(
            BroadcastQueue::new,
            |mut q| {
                for rep in 0..8 {
                    for i in 0..16 {
                        q.enqueue(sample_alive(i * 1000 + rep));
                    }
                }
                q.len()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_suspicion_math(c: &mut Criterion) {
    let min = Duration::from_secs(10);
    let max = Duration::from_secs(60);
    c.bench_function("suspicion/timeout_formula", |b| {
        b.iter(|| {
            let mut total = Duration::ZERO;
            for conf in 0..4 {
                total += suspicion_timeout(black_box(conf), 3, min, max);
            }
            total
        })
    });
}

fn member(i: usize) -> Member {
    Member::new(
        format!("node-{i}").into(),
        NodeAddr::new([10, (i >> 16) as u8, (i >> 8) as u8, i as u8], 7946),
        Incarnation(0),
        Time::ZERO,
    )
}

/// Shared population mix for the indexed-vs-naive comparison: 2% dead,
/// every remaining tenth suspect, rest alive — a realistic mixed-state
/// steady state. Keeping this in one place keeps the comparison fair.
fn state_for(i: usize) -> MemberState {
    if i.is_multiple_of(50) {
        MemberState::Dead
    } else if i.is_multiple_of(10) {
        MemberState::Suspect
    } else {
        MemberState::Alive
    }
}

fn indexed_table(n: usize) -> Membership {
    let mut t = Membership::new();
    for i in 0..n {
        let name = member(i).name.clone();
        t.upsert(member(i));
        t.set_state(&name, state_for(i), Time::from_secs(1));
    }
    t
}

/// The same population in the seed's `BTreeMap` design.
fn naive_table(n: usize) -> NaiveMembership {
    let mut t = NaiveMembership::new();
    for i in 0..n {
        let name = member(i).name.clone();
        t.upsert(member(i));
        t.set_state(&name, state_for(i), Time::from_secs(1));
    }
    t
}

fn bench_membership(c: &mut Criterion) {
    let mut group = c.benchmark_group("membership");
    for n in SCALES {
        let indexed = indexed_table(n);
        let naive = naive_table(n);

        // live_count: charged on every suspicion start and every
        // transmit-limit evaluation — O(1) vs O(n).
        group.bench_with_input(BenchmarkId::new("live_count/indexed", n), &n, |b, _| {
            b.iter(|| black_box(&indexed).live_count())
        });
        group.bench_with_input(BenchmarkId::new("live_count/naive", n), &n, |b, _| {
            b.iter(|| black_box(&naive).live_count())
        });

        // Indirect-probe sampling: 3 live peers excluding self/target —
        // O(k) lazy Fisher–Yates vs O(n) filter-collect.
        let me = format!("node-{}", 1).into();
        let target = format!("node-{}", 2).into();
        let mut rng = StdRng::seed_from_u64(7);
        group.bench_with_input(BenchmarkId::new("sample3_live/indexed", n), &n, |b, _| {
            b.iter(|| {
                indexed
                    .sample_pool(SamplePool::Live, 3, &mut rng, |m| {
                        m.name != me && m.name != target
                    })
                    .len()
            })
        });
        let mut rng = StdRng::seed_from_u64(7);
        group.bench_with_input(BenchmarkId::new("sample3_live/naive", n), &n, |b, _| {
            b.iter(|| {
                naive
                    .sample(3, &mut rng, |m| {
                        m.is_live() && m.name != me && m.name != target
                    })
                    .len()
            })
        });
    }
    group.finish();

    // By-name lookup, hot and cold. A simulated cluster holds one table
    // per node and touches each once per event, so its lookups miss the
    // cache at every step — index bucket, then record — which a loop
    // over one resident table cannot show. Cold: 512 tables × 512
    // members sharing their name allocations (as simulator nodes do),
    // lookups round-robin across the tables.
    const ROSTER: usize = 512;
    let names: Vec<NodeName> = (0..ROSTER).map(|i| member(i).name).collect();
    let tables: Vec<Membership> = (0..ROSTER)
        .map(|_| {
            let mut t = Membership::new();
            for (i, name) in names.iter().enumerate() {
                t.upsert(Member {
                    name: name.clone(),
                    ..member(i)
                });
            }
            t
        })
        .collect();
    let mut k = 0usize;
    c.bench_function("membership/get_hot", |b| {
        b.iter(|| {
            k = k.wrapping_add(1);
            tables[0].get(&names[k % ROSTER]).is_some()
        })
    });
    c.bench_function("membership/get_cold", |b| {
        b.iter(|| {
            k = k.wrapping_add(1);
            // A different name on each pass over the tables.
            tables[k % ROSTER]
                .get(&names[(k / ROSTER + k) % ROSTER])
                .is_some()
        })
    });

    // Seed-era smoke bench kept for BENCH-trajectory continuity.
    let table = indexed_table(128);
    let mut rng = StdRng::seed_from_u64(7);
    c.bench_function("membership/sample_3_of_128", |b| {
        b.iter(|| table.sample(3, &mut rng, |_| true).len())
    });
}

fn bench_broadcast_scaled(c: &mut Criterion) {
    let mut group = c.benchmark_group("broadcast_scaled");
    for n in SCALES {
        // Enqueue churn: 64 re-enqueues (each invalidating the subject's
        // queued broadcast) into a queue already holding n subjects —
        // O(1) amortized vs O(n) retain per enqueue.
        group.bench_with_input(
            BenchmarkId::new("enqueue_invalidate/indexed", n),
            &n,
            |b, _| {
                b.iter_batched(
                    || {
                        let mut q = BroadcastQueue::new();
                        for i in 0..n as u64 {
                            q.enqueue(sample_alive(i));
                        }
                        q
                    },
                    |mut q| {
                        for i in 0..64u64 {
                            q.enqueue(sample_alive(i * (n as u64 / 64).max(1)));
                        }
                        q
                    },
                    BatchSize::SmallInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("enqueue_invalidate/naive", n),
            &n,
            |b, _| {
                b.iter_batched(
                    || {
                        let mut q = NaiveBroadcastQueue::new();
                        for i in 0..n as u64 {
                            q.enqueue(sample_alive(i));
                        }
                        q
                    },
                    |mut q| {
                        for i in 0..64u64 {
                            q.enqueue(sample_alive(i * (n as u64 / 64).max(1)));
                        }
                        q
                    },
                    BatchSize::SmallInput,
                )
            },
        );

        // Per-packet selection from a deep queue: O(selected) pops vs a
        // full O(n log n) sort + O(n) retain per packet.
        group.bench_with_input(BenchmarkId::new("fill_packet/indexed", n), &n, |b, _| {
            b.iter_batched(
                || {
                    let mut q = BroadcastQueue::new();
                    for i in 0..n as u64 {
                        q.enqueue(sample_alive(i));
                    }
                    q
                },
                |mut q| {
                    let mut builder = CompoundBuilder::new(1400);
                    q.fill(&mut builder, 12, None);
                    let mut packet = Vec::new();
                    builder.finish_into(&mut packet);
                    (q, packet)
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("fill_packet/naive", n), &n, |b, _| {
            b.iter_batched(
                || {
                    let mut q = NaiveBroadcastQueue::new();
                    for i in 0..n as u64 {
                        q.enqueue(sample_alive(i));
                    }
                    q
                },
                |mut q| {
                    let mut builder = CompoundBuilder::new(1400);
                    q.fill(&mut builder, 12, None);
                    let mut packet = Vec::new();
                    builder.finish_into(&mut packet);
                    (q, packet)
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_cluster_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster");
    group.sample_size(10);
    // Steady-state protocol throughput at scale: full-mesh bootstrap
    // (no join flood), then advance simulated time in 100 ms slices.
    // Per-slice work is ~n/10 probe round-trips plus gossip/timer
    // machinery — the per-tick hot paths this PR restructured.
    for n in [1_000usize, 5_000] {
        let mut cluster = ClusterBuilder::new(n)
            .config(Config::lan().lifeguard())
            .seed(11)
            .full_mesh(true)
            .build();
        group.bench_with_input(
            BenchmarkId::new("steady_state_100ms", n),
            &n,
            |b, _| {
                b.iter(|| {
                    cluster.run_for(Duration::from_millis(100));
                    cluster.telemetry().total().messages()
                })
            },
        );
    }
    group.finish();
}

/// Anti-entropy wire cost at scale: bytes sent per push-pull round,
/// full-state vs delta sync, under ≤ 1% churn per round — the
/// PERFORMANCE.md §6 table. Doubles as a regression gate: the run
/// asserts the delta rounds stay at ≤ 10% of the full-state rounds
/// (5k-node version of the `delta_push_pull_cuts_steady_state_sync_bytes_by_10x`
/// integration test), then benches the latency of one warm delta round.
fn bench_push_pull(c: &mut Criterion) {
    const ROUND: Duration = Duration::from_secs(2);

    fn cluster_at(n: usize, delta: bool) -> lifeguard_sim::cluster::Cluster {
        let mut cfg = Config::lan().lifeguard();
        cfg.push_pull_interval = Some(ROUND);
        cfg.delta_sync = delta;
        let mut cluster = ClusterBuilder::new(n)
            .config(cfg)
            .seed(23)
            .full_mesh(true)
            .build();
        // Warm-up: enough rounds for every node to accumulate its warm
        // delta partners (a no-op for the full-state configuration).
        cluster.run_for(Duration::from_secs(8));
        cluster
    }

    fn churned_rounds(cluster: &mut lifeguard_sim::cluster::Cluster, rounds: u64) -> u64 {
        let n = cluster.len();
        let start = cluster.telemetry().total().stream_bytes;
        for r in 0..rounds {
            for k in 0..n / 100 {
                // ≤ 1% churn per round via metadata updates: real
                // membership changes, no failure-detector cascades.
                let node = (r as usize * 131 + k * 37) % n;
                cluster.apply(SimAction::UpdateMeta {
                    node,
                    meta: Bytes::from(format!("gen-{r}-{k}").into_bytes()),
                });
            }
            cluster.run_for(ROUND);
        }
        assert!(cluster.converged(), "cluster must stay converged");
        (cluster.telemetry().total().stream_bytes - start) / rounds
    }

    let mut group = c.benchmark_group("push_pull");
    group.sample_size(10);
    for n in [1_000usize, 5_000] {
        let full = churned_rounds(&mut cluster_at(n, false), 2);
        let mut delta_cluster = cluster_at(n, true);
        let delta = churned_rounds(&mut delta_cluster, 2);
        println!(
            "push_pull wire bytes/round at n={n}, <=1% churn: \
             full {full} B, delta {delta} B ({:.2}% of full)",
            delta as f64 / full as f64 * 100.0
        );
        assert!(
            delta * 10 <= full,
            "delta sync must stay at <= 10% of full-state wire bytes \
             (n={n}: delta {delta} B/round vs full {full} B/round)"
        );
        // Latency of warm, churn-free delta rounds at this scale.
        group.bench_with_input(BenchmarkId::new("delta_round", n), &n, |b, _| {
            b.iter(|| {
                delta_cluster.run_for(ROUND);
                delta_cluster.telemetry().total().stream_bytes
            })
        });
    }
    group.finish();
}

fn bench_sim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    group.sample_size(10);
    group.bench_function("32_nodes_30s_sim", |b| {
        b.iter(|| {
            let mut cluster = ClusterBuilder::new(32)
                .config(Config::lan().lifeguard())
                .seed(9)
                .build();
            cluster.run_for(Duration::from_secs(30));
            cluster.telemetry().total().messages()
        })
    });
    // Suspicion churn: pause one node and measure the whole cascade.
    group.bench_function("suspect_storm_one_node", |b| {
        b.iter_batched(
            || {
                let mut cluster = ClusterBuilder::new(8).config(Config::lan()).seed(3).build();
                cluster.run_for(Duration::from_secs(12));
                cluster
            },
            |mut cluster| {
                cluster.apply(lifeguard_sim::cluster::SimAction::Pause {
                    node: 3,
                    duration: Duration::from_secs(4),
                });
                cluster.run_for(Duration::from_secs(8));
                cluster.trace().len()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_node_message_handling(c: &mut Criterion) {
    use lifeguard_core::node::{Input, SwimNode};
    // Pre-encoded datagrams: the bench measures the node's decode +
    // handle + poll cycle, not the test harness's encoding.
    let from = NodeAddr::new([10, 0, 0, 2], 7946);
    let alives: Vec<Bytes> = (0..500u64)
        .map(|i| codec::encode_message(&sample_alive(i)))
        .collect();
    let suspects: Vec<Bytes> = (0..500u64)
        .map(|i| {
            codec::encode_message(&Message::Suspect(Suspect {
                incarnation: Incarnation(i),
                node: format!("node-{i}").into(),
                from: "accuser".into(),
            }))
        })
        .collect();
    c.bench_function("node/handle_1000_gossip_messages", |b| {
        b.iter_batched(
            || {
                let mut node = SwimNode::new(
                    "local".into(),
                    NodeAddr::new([10, 0, 0, 1], 7946),
                    Config::lan().lifeguard(),
                    1,
                );
                node.start(Time::ZERO);
                node
            },
            |mut node| {
                for (i, payload) in alives.iter().enumerate() {
                    node.handle_input(
                        Input::Datagram {
                            from,
                            payload: payload.clone(),
                        },
                        Time::from_millis(i as u64),
                    )
                    .unwrap();
                    while node.poll_output().is_some() {}
                }
                for (i, payload) in suspects.iter().enumerate() {
                    node.handle_input(
                        Input::Datagram {
                            from,
                            payload: payload.clone(),
                        },
                        Time::from_millis(500 + i as u64),
                    )
                    .unwrap();
                    while node.poll_output().is_some() {}
                }
                node.num_alive()
            },
            BatchSize::SmallInput,
        )
    });
}

/// One `SwimNode` carrying a 10k-member table: drive its real timer
/// machinery (probe rounds, gossip ticks, reaping) through simulated
/// time.
fn bench_node_tick_10k(c: &mut Criterion) {
    let mut group = c.benchmark_group("node_tick");
    group.sample_size(10);
    let mut node = {
        let mut n = lifeguard_core::node::SwimNode::new(
            "local".into(),
            NodeAddr::new([10, 0, 0, 1], 7946),
            Config::lan().lifeguard(),
            7,
        );
        n.start(Time::ZERO);
        let peers = (0..10_000u32).map(|i| {
            (
                NodeName::from(format!("peer-{i}").as_str()),
                NodeAddr::new([10, 1, (i >> 8) as u8, (i & 0xff) as u8], 7946),
            )
        });
        n.bootstrap_peers(peers, Time::ZERO);
        n
    };
    let mut now = Time::ZERO;
    group.bench_function("10k_members_100ms", |b| {
        b.iter(|| {
            now += Duration::from_millis(100);
            let mut outputs = 0usize;
            while let Some(wake) = node.next_deadline() {
                if wake > now {
                    break;
                }
                node.handle_input(lifeguard_core::node::Input::Tick, wake)
                    .unwrap();
                while node.poll_output().is_some() {
                    outputs += 1;
                }
            }
            outputs
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_codec,
    bench_compound,
    bench_broadcast_queue,
    bench_broadcast_scaled,
    bench_suspicion_math,
    bench_membership,
    bench_node_tick_10k,
    bench_sim_throughput,
    bench_cluster_throughput,
    bench_push_pull,
    bench_node_message_handling
);
criterion_main!(benches);
