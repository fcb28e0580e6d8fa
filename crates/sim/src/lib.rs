//! Deterministic discrete-event simulator for Lifeguard/SWIM clusters.
//!
//! Reproduces the Lifeguard paper's evaluation environment: many protocol
//! instances on a loopback-like network, with *anomalies* — controlled
//! windows during which a node neither sends nor receives, emulating CPU
//! exhaustion or scheduling starvation (§V-D of the paper).
//!
//! A run is one [`schedule::Schedule`] — nodes, network, seed, a
//! time-ordered fault list and an end — replayed under one protocol
//! configuration. Everything is seeded: the same schedule and
//! configuration produce bit-identical traces and telemetry, which is
//! what makes the experiment tables reproducible.
//!
//! ```
//! use lifeguard_sim::clock::SimTime;
//! use lifeguard_sim::cluster::{Cluster, SimAction};
//! use lifeguard_sim::schedule::Schedule;
//! use lifeguard_core::config::Config;
//!
//! let schedule = Schedule { seed: 9, end: SimTime::from_secs(45), ..Schedule::new(4) }
//!     .at(SimTime::from_secs(15), SimAction::Crash { node: 3 });
//! let mut cluster = Cluster::new(&schedule, &Config::lan());
//! cluster.run_until(SimTime::from_secs(14));
//! assert!(cluster.converged());
//! cluster.run_until(schedule.end);
//! assert!(cluster.trace().first_failure_detection("node-3").is_some());
//! ```

pub mod anomaly;
pub mod clock;
pub mod cluster;
pub mod event_queue;
pub mod network;
pub mod schedule;
pub mod trace;

pub use anomaly::AnomalySpec;
pub use cluster::{Cluster, ClusterBuilder, Dispatched, SimAction};
pub use network::NetworkConfig;
pub use schedule::Schedule;
pub use trace::Trace;
