//! Experiment harness reproducing the evaluation of the Lifeguard paper
//! (DSN 2018): one replay of the paper's cells, judged and rendered.
//!
//! * [`scenario`] — the Threshold, Interval and CPU-stress workloads as
//!   `Schedule` constructors, the parameter grids of Tables II & III, the
//!   [`Scale`] that picks the cells, and `run`, which replays one schedule
//!   under one configuration.
//! * [`verdict`] — `Runs::replay`, the one replay path, and the gate: the
//!   paper's effects judged over those runs as paired seeds, one row per
//!   claim.
//! * [`tables`] — Tables IV–VII and Figures 1–3, rendered from the same
//!   runs.
//! * [`metrics`] — the shared quantile rule, re-exported from
//!   `lifeguard-metrics`, and the "% of SWIM" ratio.
//! * [`report`] — plain-text and CSV table rendering.
//!
//! The `lifeguard-repro` binary wraps all of this:
//!
//! ```text
//! lifeguard-repro verdict
//! lifeguard-repro all --csv-dir results/
//! lifeguard-repro table4 --scale paper
//! ```

pub mod metrics;
pub mod report;
pub mod scenario;
pub mod tables;
pub mod verdict;

pub use report::Table;
pub use scenario::Scale;
