//! # Lifeguard
//!
//! A production-quality Rust reproduction of **"Lifeguard: Local Health
//! Awareness for More Accurate Failure Detection"** (Dadgar, Phillips,
//! Currey — HashiCorp, DSN 2018), built on a from-scratch implementation of
//! the SWIM group-membership protocol in the style of HashiCorp
//! `memberlist`.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`proto`] — wire messages and binary codec.
//! * [`core`] — the sans-io SWIM + Lifeguard protocol state machine.
//! * [`sim`] — a deterministic discrete-event cluster simulator used by the
//!   paper-reproduction experiments.
//! * [`net`] — a real UDP/TCP runtime (memberlist-style agent).
//! * [`metrics`] — the observability plane: counters and histograms the
//!   core records into (a histogram keeps a 128-bucket inline window and
//!   spills to all 976 buckets on the heap, once, if a value falls
//!   outside it), snapshot codec, aggregation.
//! * [`experiments`] — the Threshold / Interval / stress experiment harness
//!   that regenerates every table and figure of the paper.
//!
//! # Quickstart
//!
//! Run a five-node simulated cluster and watch a failure being detected:
//!
//! ```
//! use lifeguard::core::config::Config;
//! use lifeguard::sim::cluster::{ClusterBuilder, SimAction};
//! use lifeguard::sim::clock::SimDuration;
//!
//! let mut cluster = ClusterBuilder::new(5)
//!     .config(Config::lan().lifeguard())
//!     .seed(7)
//!     .build();
//! cluster.run_for(SimDuration::from_secs(20)); // converge
//! cluster.apply(SimAction::Crash { node: 4 });
//! cluster.run_for(SimDuration::from_secs(30));
//! let trace = cluster.trace();
//! assert!(trace.first_failure_detection("node-4").is_some());
//! ```

pub use lifeguard_core as core;
pub use lifeguard_experiments as experiments;
pub use lifeguard_metrics as metrics;
pub use lifeguard_net as net;
pub use lifeguard_proto as proto;
pub use lifeguard_sim as sim;
