//! Quickstart: run a simulated five-node Lifeguard cluster, crash one
//! node, and watch the failure being detected and disseminated.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Everything below drives the protocol through the shared sans-I/O
//! stack (see `docs/ARCHITECTURE.md`): each simulated node is a
//! `SwimNode` state machine wrapped in the `lifeguard_core::driver::
//! Driver` harness, and the simulator merely delivers `Input`s (ticks,
//! datagrams, stream messages) and carries out the polled outputs over
//! its virtual network. The real UDP/TCP agent (`examples/
//! udp_cluster.rs`) runs the *same* driver — swap `ClusterBuilder` for
//! `lifeguard::net::agent::Agent` and the protocol behaviour is
//! identical, which is exactly the property the paper's evaluation
//! methodology relies on.

use std::time::Duration;

use lifeguard::core::config::Config;
use lifeguard::core::event::Event;
use lifeguard::sim::clock::SimTime;
use lifeguard::sim::cluster::{ClusterBuilder, SimAction};

fn main() {
    // Five nodes, all Lifeguard components enabled, fully deterministic.
    let mut cluster = ClusterBuilder::new(5)
        .config(Config::lan().lifeguard())
        .seed(7)
        .build();

    println!("booting 5-node cluster...");
    cluster.run_for(Duration::from_secs(15));
    assert!(cluster.converged(), "cluster should converge in 15 s");
    println!(
        "converged: every node sees {} alive members",
        cluster.node(0).num_alive()
    );

    println!("\ncrashing node-4...");
    cluster.apply(SimAction::Crash { node: 4 });
    cluster.run_for(Duration::from_secs(30));

    let declarations = || {
        cluster
            .trace()
            .failures()
            .filter(|(_, _, s)| s.as_str() == "node-4")
    };
    let (detect, ..) = declarations().next().expect("crash must be detected");
    println!("node-4 first declared failed at t={detect}");

    println!("\nmembership timeline (as observed across the cluster):");
    for e in cluster.trace().events() {
        match &e.event {
            Event::MemberSuspected { name, from } if name.as_str() == "node-4" => {
                println!(
                    "  {}  node-{} suspects {name} (accused by {from})",
                    e.at, e.reporter
                );
            }
            Event::MemberFailed { name, from, .. } if name.as_str() == "node-4" => {
                println!(
                    "  {}  node-{} declares {name} failed (per {from})",
                    e.at, e.reporter
                );
            }
            _ => {}
        }
    }

    // Fully disseminated: the last of the four healthy members' first
    // declarations.
    let first_by = |r: usize| {
        declarations()
            .find(|&(_, by, _)| by == r)
            .map(|(at, ..)| at)
    };
    let dissem = (0..4)
        .try_fold(SimTime::ZERO, |last, r| Some(last.max(first_by(r)?)))
        .expect("failure must disseminate");
    println!("\nfully disseminated to all healthy members at t={dissem}");
}
