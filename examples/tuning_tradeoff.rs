//! Explore the α/β suspicion-timeout trade-off (paper Table VII):
//! lower α/β detect true failures faster but admit more false
//! positives. Runs a small Threshold + Interval workload per tuning and
//! prints the trade-off curve.
//!
//! ```text
//! cargo run --release --example tuning_tradeoff
//! ```

use std::time::Duration;

use lifeguard::core::config::Config;
use lifeguard::experiments::scenario::{interval, run, threshold};

const N: usize = 48;

fn main() {
    println!("{N}-node cluster; detection latency vs false positives by (alpha, beta):\n");
    println!("{:>12} {:>16} {:>14}", "(alpha,beta)", "median detect(s)", "FP events");

    // True-failure detection latency: one 20 s anomaly.
    let thresh = threshold(N, 2, Duration::from_secs(20), Duration::from_secs(60), 11);
    // False positives: cyclic 8 s stalls with 64 ms of air.
    let cyclic = interval(
        N,
        4,
        Duration::from_secs(8),
        Duration::from_millis(64),
        Duration::from_secs(60),
        11,
    );

    for (alpha, beta) in [(2.0, 2.0), (3.0, 4.0), (4.0, 4.0), (5.0, 6.0)] {
        let config = Config::lan().lifeguard().with_alpha(alpha).with_beta(beta);

        let t = run(&thresh, &config);
        let mut lat: Vec<f64> = t
            .first_detect
            .iter()
            .flatten()
            .map(|d| d.as_secs_f64())
            .collect();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let median = lat.get(lat.len() / 2).copied();

        let i = run(&cyclic, &config);

        let median = median
            .map(|m| format!("{m:.2}"))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>12} {:>16} {:>14}",
            format!("({alpha:.0},{beta:.0})"),
            median,
            i.fp_events
        );
    }
    println!("\nlower (alpha,beta): faster detection, more false positives — the paper's Table VII.");
}
