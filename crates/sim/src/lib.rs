//! Deterministic discrete-event simulator for Lifeguard/SWIM clusters.
//!
//! Reproduces the Lifeguard paper's evaluation environment: many protocol
//! instances on a loopback-like network, with *anomalies* — controlled
//! windows during which a node neither sends nor receives, emulating CPU
//! exhaustion or scheduling starvation (§V-D of the paper).
//!
//! Everything is seeded: the same [`cluster::ClusterBuilder`] inputs
//! produce bit-identical traces and telemetry, which is what makes the
//! experiment tables reproducible.
//!
//! ```
//! use lifeguard_sim::cluster::{ClusterBuilder, SimAction};
//! use lifeguard_sim::clock::SimDuration;
//! use lifeguard_core::config::Config;
//!
//! let mut cluster = ClusterBuilder::new(4).config(Config::lan()).seed(9).build();
//! cluster.run_for(SimDuration::from_secs(15));
//! assert!(cluster.converged());
//! cluster.apply(SimAction::Crash { node: 3 });
//! cluster.run_for(SimDuration::from_secs(30));
//! assert!(cluster.trace().first_failure_detection("node-3").is_some());
//! ```

pub mod anomaly;
pub mod clock;
pub mod cluster;
pub mod event_queue;
pub mod network;
pub mod trace;

pub use anomaly::AnomalySpec;
pub use cluster::{Cluster, ClusterBuilder, Dispatched, SimAction};
pub use network::NetworkConfig;
pub use trace::Trace;
