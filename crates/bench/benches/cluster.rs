//! Cluster-scale simulation benchmark: the PERFORMANCE.md §9 scaling
//! curve and its regression gates.
//!
//! Three roster sizes are exercised — 5 000 honest members, and 20 000 /
//! 100 000 members as 512 real protocol instances plus phantom members
//! (roster entries answered by the canned prober-side responder, so the
//! failure detector, sampling and gossip planes all operate against the
//! full roster at ~O(real) driver cost). Each size measures
//!
//! * **build time** — full-mesh bootstrap of every node's member table,
//! * **memory** — live heap bytes per member-table entry, via a counting
//!   global allocator (`real × total` entries dominate the footprint),
//! * **steady state** — wall-clock per 100 ms simulated slice, and
//! * **churn** — the same slice with ≤ 1 % of the real members taking a
//!   metadata update per slice (phantoms carry no driver to update; as a
//!   fraction of the full roster the churn is correspondingly smaller).
//!
//! Every scenario runs twice with one seed and the two runs must
//! produce **identical fingerprints** (event trace, telemetry totals,
//! every member table). That determinism check is a hard gate at every
//! size.
//!
//! Anti-entropy is disabled (`push_pull_interval = None`) for these
//! slices: a 30 s push-pull at 100 k members is an O(total) stream
//! exchange that would dominate any 100 ms slice it lands in, and the
//! push-pull plane has its own benchmark (`micro.rs::bench_push_pull`)
//! with delta-sync gates. The slices here isolate the probe/gossip/timer
//! hot path.
//!
//! The 5 000-member scenario always runs (CI push gate). The 20 000 and
//! 100 000 scenarios run when `LIFEGUARD_BENCH_SCALE=full` is set
//! (nightly / manual dispatch) — a 100 k build touches ~51 M member
//! entries (~10 GB live) and is too heavy for every push.
//!
//! Results are written to `target/BENCH_cluster.json` for CI's
//! independent re-check; `docs/PERFORMANCE.md` §9 points at that file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use bytes::Bytes;
use lifeguard_core::config::Config;
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
/// keeps the 51 M-entry comparison at 100 k members cheap.
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
// Scenario
// ---------------------------------------------------------------------

const QUIESCE: Duration = Duration::from_secs(3);
const SLICE: Duration = Duration::from_millis(100);
const SLICES: usize = 5;

struct RunResult {
    build_secs: f64,
    /// Live heap bytes attributable to the cluster right after build.
    cluster_bytes: u64,
    /// Best wall-clock for one 100 ms steady-state slice.
    steady_slice_secs: f64,
    /// Best wall-clock for one 100 ms slice under ≤ 1 % metadata churn.
    churn_slice_secs: f64,
    fingerprint: u64,
}

/// One full measured run: build, quiesce, steady slices, churn slices.
fn run_scenario(real: usize, phantoms: usize, seed: u64) -> RunResult {
    let mut cfg = Config::lan().lifeguard();
    cfg.push_pull_interval = None; // benched separately; see module doc
    let before = live_bytes();
    let t0 = Instant::now();
    let mut cluster = ClusterBuilder::new(real)
        .config(cfg)
        .seed(seed)
        .full_mesh(true)
        .phantom_members(phantoms)
        .build();
    let build_secs = t0.elapsed().as_secs_f64();
    let cluster_bytes = live_bytes().saturating_sub(before);

    cluster.run_for(QUIESCE);

    let mut steady = f64::INFINITY;
    for _ in 0..SLICES {
        let t = Instant::now();
        cluster.run_for(SLICE);
        steady = steady.min(t.elapsed().as_secs_f64());
    }

    // ≤ 1 % of the real members take a metadata update per slice —
    // live roster changes riding the gossip plane, no failure cascades.
    let churn_per_slice = (real / 100).max(1);
    let mut churn = f64::INFINITY;
    for s in 0..SLICES {
        let t = Instant::now();
        for k in 0..churn_per_slice {
            let node = (s * 131 + k * 37) % real;
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
        "cluster (real {real}, phantoms {phantoms}) lost convergence during the bench"
    );
    RunResult {
        build_secs,
        cluster_bytes,
        steady_slice_secs: steady,
        churn_slice_secs: churn,
        fingerprint: fingerprint(&cluster),
    }
}

// ---------------------------------------------------------------------
// Per-size gates and report
// ---------------------------------------------------------------------

struct Gates {
    /// Ceiling for one steady-state 100 ms slice, seconds.
    steady_slice_secs: f64,
    /// Ceiling for one churn 100 ms slice, seconds.
    churn_slice_secs: f64,
    /// Ceiling for live heap bytes per member-table entry: ≈ 1.1 × what
    /// the bench reports at that size (164 / 159 / 153 B when set), so
    /// a layout regression in `Membership` or `ProbeList` fails the run.
    bytes_per_entry: f64,
}

struct SizeReport {
    label: &'static str,
    real: usize,
    phantoms: usize,
    run: RunResult,
    bytes_per_entry: f64,
    /// Whether a second run of the same seed reproduced the fingerprint.
    deterministic: bool,
}

fn measure_size(
    label: &'static str,
    real: usize,
    phantoms: usize,
    seed: u64,
    gates: &Gates,
) -> SizeReport {
    let total = real + phantoms;
    eprintln!("cluster/{label}: building {real} real + {phantoms} phantom members…");
    let run = run_scenario(real, phantoms, seed);
    let entries = (real as u64 * total as u64) as f64;
    let bytes_per_entry = run.cluster_bytes as f64 / entries;
    eprintln!(
        "cluster/{label}: build {:.2}s, {:.0} B/table-entry, steady {:.1} ms/slice, \
         churn {:.1} ms/slice",
        run.build_secs,
        bytes_per_entry,
        run.steady_slice_secs * 1e3,
        run.churn_slice_secs * 1e3,
    );

    let rerun = run_scenario(real, phantoms, seed);
    let deterministic = rerun.fingerprint == run.fingerprint;
    eprintln!(
        "cluster/{label}: rerun steady {:.1} ms/slice, fingerprint {}",
        rerun.steady_slice_secs * 1e3,
        if deterministic { "identical" } else { "DIVERGED" },
    );

    // Hard gates. Determinism is unconditional; wall-clock and memory
    // ceilings are generous (≈3–5× a warm local run) so they trip on
    // asymptotic regressions, not scheduler noise.
    assert!(
        deterministic,
        "cluster/{label}: two runs of seed {seed:#x} produced different fingerprints"
    );
    assert!(
        run.steady_slice_secs <= gates.steady_slice_secs,
        "cluster/{label}: steady 100 ms slice took {:.3}s (gate {:.3}s)",
        run.steady_slice_secs,
        gates.steady_slice_secs,
    );
    assert!(
        run.churn_slice_secs <= gates.churn_slice_secs,
        "cluster/{label}: churn 100 ms slice took {:.3}s (gate {:.3}s)",
        run.churn_slice_secs,
        gates.churn_slice_secs,
    );
    assert!(
        bytes_per_entry <= gates.bytes_per_entry,
        "cluster/{label}: {bytes_per_entry:.0} live bytes per member-table entry \
         (gate {:.0})",
        gates.bytes_per_entry,
    );

    SizeReport {
        label,
        real,
        phantoms,
        run,
        bytes_per_entry,
        deterministic,
    }
}

fn json_for(reports: &[SizeReport], cores: usize) -> String {
    let mut out = String::from("{\n  \"bench\": \"cluster\",\n");
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str("  \"slice_ms\": 100,\n  \"sizes\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let total = r.real + r.phantoms;
        out.push_str(&format!(
            "    {{\n      \"label\": \"{}\",\n      \"members\": {},\n      \
             \"real\": {},\n      \"phantoms\": {},\n      \
             \"build_secs\": {:.3},\n      \"bytes_per_table_entry\": {:.1},\n      \
             \"steady_slice_ms\": {:.3},\n      \
             \"churn_slice_ms\": {:.3},\n      \"fingerprint\": \"{:016x}\",\n      \
             \"deterministic\": {}\n    }}",
            r.label,
            total,
            r.real,
            r.phantoms,
            r.run.build_secs,
            r.bytes_per_entry,
            r.run.steady_slice_secs * 1e3,
            r.run.churn_slice_secs * 1e3,
            r.run.fingerprint,
            r.deterministic,
        ));
        out.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn cluster_group(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let full = std::env::var("LIFEGUARD_BENCH_SCALE").as_deref() == Ok("full");

    let mut reports = Vec::new();

    // 5 000 honest members — every member runs the full protocol. This
    // is the push-CI gate; ceilings sized from a warm local run on one
    // 2025-class core (steady ≈ 0.35 s, churn ≈ 0.55 s, ≈ 210 B/entry).
    reports.push(measure_size(
        "5k",
        5_000,
        0,
        0x5CA1E,
        &Gates {
            steady_slice_secs: 2.0,
            churn_slice_secs: 3.0,
            bytes_per_entry: 180.0,
        },
    ));

    if full {
        // 20 000 members: 512 real + phantoms.
        reports.push(measure_size(
            "20k",
            512,
            19_488,
            0x20AD5,
            &Gates {
                steady_slice_secs: 2.0,
                churn_slice_secs: 3.0,
                bytes_per_entry: 175.0,
            },
        ));
        // 100 000 members: the headline size. ~51 M table entries.
        reports.push(measure_size(
            "100k",
            512,
            99_488,
            0x100AD,
            &Gates {
                steady_slice_secs: 5.0,
                churn_slice_secs: 6.0,
                bytes_per_entry: 170.0,
            },
        ));
    } else {
        eprintln!("cluster: set LIFEGUARD_BENCH_SCALE=full for the 20k/100k sizes");
    }

    let json = json_for(&reports, cores);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_cluster.json");
    std::fs::write(out, &json).expect("write BENCH_cluster.json");
    eprintln!("cluster/json: wrote {out}");

    // Criterion timing of the warm steady-state slice at the push-CI
    // size, for trend tracking alongside the hard gates above.
    let mut cfg = Config::lan().lifeguard();
    cfg.push_pull_interval = None;
    let mut cluster = ClusterBuilder::new(5_000)
        .config(cfg)
        .seed(0x5CA1E)
        .full_mesh(true)
        .build();
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
