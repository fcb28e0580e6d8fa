//! The motivating scenario from the paper's introduction: a fleet where
//! a few members suffer intermittent overload (web servers under bursty
//! traffic, transcode boxes with oversubscribed CPUs...). With plain
//! SWIM, healthy-but-slow members "flap" — they oscillate between failed
//! and alive, triggering costly failovers. Lifeguard suppresses the
//! false positives.
//!
//! Runs the same workload twice (SWIM, then Lifeguard) and compares
//! false-positive counts.
//!
//! ```text
//! cargo run --release --example flapping_cluster
//! ```

use std::time::Duration;

use lifeguard::core::config::Config;
use lifeguard::core::time::Time;
use lifeguard::sim::anomaly::AnomalySpec;
use lifeguard::sim::cluster::Cluster;
use lifeguard::sim::schedule::Schedule;

const N: usize = 48;
const OVERLOADED: [usize; 4] = [5, 17, 23, 41];

/// Each overloaded member blocks for 12 s, runs for 50 ms, repeatedly:
/// the signature of a process starved by load spikes.
fn schedule() -> Schedule {
    let stalls = AnomalySpec::Interval {
        start: Time::from_secs(15),
        duration: Duration::from_secs(12),
        interval: Duration::from_millis(50),
        until: Time::from_secs(90),
    };
    let base = Schedule {
        seed: 2024,
        end: Time::from_secs(110),
        ..Schedule::new(N)
    };
    OVERLOADED
        .iter()
        .fold(base, |s, &node| s.anomaly(node, stalls))
}

fn run(label: &str, schedule: &Schedule, config: Config) -> (u64, u64) {
    let mut cluster = Cluster::new(schedule, &config);
    cluster.run_until(schedule.end);

    // A false positive is a failure declaration about a member that is
    // NOT one of the overloaded ones (the overloaded ones are slow, not
    // dead — declaring them failed is also wrong, but that is the
    // paper's separate "flapping" cost).
    let mut fp = 0u64;
    let mut flaps = 0u64;
    for (_, _, subject) in cluster.trace().failures() {
        let idx: usize = subject.as_str().strip_prefix("node-").unwrap().parse().unwrap();
        if OVERLOADED.contains(&idx) {
            flaps += 1;
        } else {
            fp += 1;
        }
    }
    println!("{label:>10}: {fp:>5} false positives about healthy members, {flaps:>5} declarations about overloaded members");
    (fp, flaps)
}

fn main() {
    println!(
        "{N}-node cluster, {} members with intermittent 12 s stalls:\n",
        OVERLOADED.len()
    );
    let schedule = schedule();
    let (fp_swim, _) = run("SWIM", &schedule, Config::lan());
    let (fp_lg, _) = run("Lifeguard", &schedule, Config::lan().lifeguard());
    println!();
    if fp_lg < fp_swim {
        let factor = fp_swim as f64 / fp_lg.max(1) as f64;
        println!("Lifeguard reduced false positives about healthy members by {factor:.0}x");
    } else {
        println!("(no reduction at this seed — try a different one)");
    }
}
