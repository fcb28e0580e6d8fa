//! Cluster-scale simulation benchmark: the PERFORMANCE.md §9 gates.
//!
//! **5 000 all-real members** — every member runs the full protocol
//! through the simulator. Measured:
//!
//! * **build time** — full-mesh bootstrap of every node's member table,
//! * **memory** — live heap bytes per member-table entry, via a counting
//!   global allocator (`n × n` entries dominate the footprint),
//! * **steady state** — wall-clock per 100 ms simulated slice, and
//! * **churn** — the same slice with 1 % of the members taking a
//!   metadata update per slice.
//!
//! The scenario runs twice with one seed and the two runs must produce
//! **identical fingerprints** (event trace, telemetry totals, every
//! member table). That determinism check is a hard gate.
//!
//! Anti-entropy is disabled (`push_pull_interval = None`) for these
//! slices: the push-pull plane has its own benchmark
//! (`micro.rs::bench_push_pull`) with delta-sync gates, and an O(n)
//! stream exchange would dominate any 100 ms slice it lands in. The
//! slices here isolate the probe/gossip/timer hot path.
//!
//! **One 100 000-entry member table** — a single `SwimNode` bootstrapped
//! with a 100 000-member roster must stay within a live-bytes-per-entry
//! ceiling: what one member of a 100 k cluster pays for its view of the
//! group, without building the other 99 999.
//!
//! Results are written to `target/BENCH_cluster.json` for CI's
//! independent re-check; `docs/PERFORMANCE.md` §9 points at that file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use bytes::Bytes;
use lifeguard_core::config::Config;
use lifeguard_core::driver::{Driver, OwnedOutput};
use lifeguard_core::node::SwimNode;
use lifeguard_core::time::Time;
use lifeguard_sim::cluster::{Cluster, ClusterBuilder, SimAction};

// ---------------------------------------------------------------------
// Live-byte accounting
// ---------------------------------------------------------------------

/// Pass-through allocator tracking live heap bytes — the instrument
/// behind the memory-per-member gate. Always on; two relaxed atomic
/// ops per call are noise next to the allocation itself.
struct ByteCountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus atomic counter updates —
// the layout/pointer contracts `GlobalAlloc` requires are delegated
// unchanged to an allocator that upholds them.
unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded verbatim from our caller, who
        // upholds GlobalAlloc's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as in `alloc` — arguments forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as in `alloc` — arguments forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as in `alloc` — arguments forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAlloc = ByteCountingAlloc;

fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Run fingerprint
// ---------------------------------------------------------------------

/// FNV-1a over everything a run observably produced: the event trace,
/// the telemetry totals and every node's full member table. Two runs
/// with equal fingerprints made the same protocol decisions; hashing
/// (rather than the string fingerprint the integration tests build)
/// keeps the 25 M-entry comparison cheap.
fn fingerprint(c: &Cluster) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    for e in c.trace().events() {
        eat(format!("{:?}/{}/{:?}\n", e.at, e.reporter, e.event).as_bytes());
    }
    eat(format!("{:?}", c.telemetry().total()).as_bytes());
    for i in 0..c.len() {
        // Iteration order is a pure function of table state, so no sort
        // is needed.
        for m in c.node(i).members() {
            eat(m.name.as_str().as_bytes());
            eat(&[m.state as u8]);
            eat(&m.incarnation.0.to_le_bytes());
        }
    }
    h
}

// ---------------------------------------------------------------------
// 5 000 all-real members
// ---------------------------------------------------------------------

const MEMBERS: usize = 5_000;
const SEED: u64 = 0x5CA1E;
const QUIESCE: Duration = Duration::from_secs(3);
const SLICE: Duration = Duration::from_millis(100);
const SLICES: usize = 5;

// Ceilings sized from a warm local run on one 2025-class core (steady
// ≈ 0.35 s, churn ≈ 0.55 s): generous (≈ 3–5×) so they trip on
// asymptotic regressions, not scheduler noise. The memory ceiling is
// ≈ 1.1 × what the bench reported when it was set (164 B), so a layout
// regression in `Membership` or `ProbeList` fails the run.
const STEADY_SLICE_GATE_SECS: f64 = 2.0;
const CHURN_SLICE_GATE_SECS: f64 = 3.0;
const BYTES_PER_ENTRY_GATE: f64 = 180.0;

fn bench_config() -> Config {
    let mut cfg = Config::lan().lifeguard();
    cfg.push_pull_interval = None; // benched separately; see module doc
    cfg
}

fn build_cluster() -> Cluster {
    ClusterBuilder::new(MEMBERS)
        .config(bench_config())
        .seed(SEED)
        .full_mesh(true)
        .build()
}

struct RunResult {
    build_secs: f64,
    /// Live heap bytes attributable to the cluster right after build.
    cluster_bytes: u64,
    /// Best wall-clock for one 100 ms steady-state slice.
    steady_slice_secs: f64,
    /// Best wall-clock for one 100 ms slice under 1 % metadata churn.
    churn_slice_secs: f64,
    fingerprint: u64,
}

/// One full measured run: build, quiesce, steady slices, churn slices.
fn run_scenario() -> RunResult {
    let before = live_bytes();
    let t0 = Instant::now();
    let mut cluster = build_cluster();
    let build_secs = t0.elapsed().as_secs_f64();
    let cluster_bytes = live_bytes().saturating_sub(before);

    cluster.run_for(QUIESCE);

    let mut steady = f64::INFINITY;
    for _ in 0..SLICES {
        let t = Instant::now();
        cluster.run_for(SLICE);
        steady = steady.min(t.elapsed().as_secs_f64());
    }

    // 1 % of the members take a metadata update per slice — live roster
    // changes riding the gossip plane, no failure cascades.
    let churn_per_slice = MEMBERS / 100;
    let mut churn = f64::INFINITY;
    for s in 0..SLICES {
        let t = Instant::now();
        for k in 0..churn_per_slice {
            let node = (s * 131 + k * 37) % MEMBERS;
            cluster.apply(SimAction::UpdateMeta {
                node,
                meta: Bytes::from(format!("gen-{s}-{k}").into_bytes()),
            });
        }
        cluster.run_for(SLICE);
        churn = churn.min(t.elapsed().as_secs_f64());
    }

    assert!(
        cluster.converged(),
        "cluster lost convergence during the bench"
    );
    RunResult {
        build_secs,
        cluster_bytes,
        steady_slice_secs: steady,
        churn_slice_secs: churn,
        fingerprint: fingerprint(&cluster),
    }
}

struct SimReport {
    run: RunResult,
    /// Fingerprint of the second run of the same seed.
    rerun_fingerprint: u64,
    bytes_per_entry: f64,
}

/// Runs the scenario twice on one seed and applies the hard gates.
fn measure_sim() -> SimReport {
    eprintln!("cluster/5k: building {MEMBERS} members…");
    let run = run_scenario();
    let bytes_per_entry = run.cluster_bytes as f64 / (MEMBERS * MEMBERS) as f64;
    eprintln!(
        "cluster/5k: build {:.2}s, {:.0} B/table-entry, steady {:.1} ms/slice, \
         churn {:.1} ms/slice",
        run.build_secs,
        bytes_per_entry,
        run.steady_slice_secs * 1e3,
        run.churn_slice_secs * 1e3,
    );

    let rerun = run_scenario();
    eprintln!(
        "cluster/5k: rerun steady {:.1} ms/slice, fingerprint {:016x} vs {:016x}",
        rerun.steady_slice_secs * 1e3,
        rerun.fingerprint,
        run.fingerprint,
    );

    assert_eq!(
        rerun.fingerprint, run.fingerprint,
        "cluster/5k: two runs of seed {SEED:#x} produced different fingerprints"
    );
    assert!(
        run.steady_slice_secs <= STEADY_SLICE_GATE_SECS,
        "cluster/5k: steady 100 ms slice took {:.3}s (gate {STEADY_SLICE_GATE_SECS:.3}s)",
        run.steady_slice_secs,
    );
    assert!(
        run.churn_slice_secs <= CHURN_SLICE_GATE_SECS,
        "cluster/5k: churn 100 ms slice took {:.3}s (gate {CHURN_SLICE_GATE_SECS:.3}s)",
        run.churn_slice_secs,
    );
    assert!(
        bytes_per_entry <= BYTES_PER_ENTRY_GATE,
        "cluster/5k: {bytes_per_entry:.0} live bytes per member-table entry \
         (gate {BYTES_PER_ENTRY_GATE:.0})",
    );

    SimReport {
        rerun_fingerprint: rerun.fingerprint,
        run,
        bytes_per_entry,
    }
}

// ---------------------------------------------------------------------
// One 100 000-entry member table
// ---------------------------------------------------------------------

const TABLE_ENTRIES: usize = 100_000;
/// The 100 k-roster footprint ceiling (≈ 1.1 × the 153 B measured when
/// it was set on a 512-node, 100 k-roster build).
const TABLE_BYTES_PER_ENTRY_GATE: f64 = 170.0;

struct TableReport {
    build_secs: f64,
    bytes_per_entry: f64,
}

/// Bootstraps one node with a 100 000-member roster and gates its live
/// bytes per entry. The roster is built outside the measured window:
/// a cluster build clones one roster into every node, so the name
/// strings are shared and a member's own cost is its table and rotation.
fn measure_table() -> TableReport {
    let roster: Vec<_> = (0..TABLE_ENTRIES)
        .map(|i| (Cluster::name_of(i), Cluster::addr_for(i)))
        .collect();
    let before = live_bytes();
    let t0 = Instant::now();
    let node = SwimNode::new(Cluster::name_of(0), Cluster::addr_for(0), bench_config(), SEED);
    let mut driver = Driver::new(node);
    driver.start(Time::ZERO, &mut Vec::<OwnedOutput>::new());
    driver
        .node_mut()
        .bootstrap_peers(roster.iter().cloned(), Time::ZERO);
    let build_secs = t0.elapsed().as_secs_f64();
    let bytes_per_entry = live_bytes().saturating_sub(before) as f64 / TABLE_ENTRIES as f64;
    assert_eq!(driver.node().num_alive(), TABLE_ENTRIES);
    eprintln!(
        "cluster/table-100k: build {build_secs:.3}s, {bytes_per_entry:.0} B/table-entry"
    );
    assert!(
        bytes_per_entry <= TABLE_BYTES_PER_ENTRY_GATE,
        "cluster/table-100k: {bytes_per_entry:.0} live bytes per member-table entry \
         (gate {TABLE_BYTES_PER_ENTRY_GATE:.0})",
    );
    TableReport {
        build_secs,
        bytes_per_entry,
    }
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

fn json_for(sim: &SimReport, table: &TableReport, cores: usize) -> String {
    let run = &sim.run;
    format!(
        r#"{{
  "bench": "cluster",
  "cores": {cores},
  "slice_ms": 100,
  "sim_5k": {{
    "members": {MEMBERS},
    "build_secs": {:.3},
    "bytes_per_table_entry": {:.1},
    "steady_slice_ms": {:.3},
    "churn_slice_ms": {:.3},
    "fingerprint": "{:016x}",
    "rerun_fingerprint": "{:016x}"
  }},
  "table_100k": {{
    "entries": {TABLE_ENTRIES},
    "build_secs": {:.3},
    "bytes_per_table_entry": {:.1}
  }}
}}
"#,
        run.build_secs,
        sim.bytes_per_entry,
        run.steady_slice_secs * 1e3,
        run.churn_slice_secs * 1e3,
        run.fingerprint,
        sim.rerun_fingerprint,
        table.build_secs,
        table.bytes_per_entry,
    )
}

fn cluster_group(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let table = measure_table();
    let sim = measure_sim();

    let json = json_for(&sim, &table, cores);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_cluster.json");
    std::fs::write(out, &json).expect("write BENCH_cluster.json");
    eprintln!("cluster/json: wrote {out}");

    // Criterion timing of the warm steady-state slice, for trend
    // tracking alongside the hard gates above.
    let mut cluster = build_cluster();
    cluster.run_for(QUIESCE);
    let mut group = c.benchmark_group("cluster");
    group.sample_size(10);
    group.bench_function("steady_state_100ms/5000", |b| {
        b.iter(|| {
            cluster.run_for(SLICE);
            cluster.telemetry().total().messages()
        })
    });
    group.finish();
}

criterion_group!(benches, cluster_group);
criterion_main!(benches);
