//! Experiment harness reproducing the evaluation of the Lifeguard paper
//! (DSN 2018): every table and figure of §V.
//!
//! * [`scenario`] — the Threshold, Interval and CPU-stress workloads as
//!   `Schedule` constructors, the parameter grids of Tables II & III,
//!   and `run`, which replays one schedule under one configuration.
//! * [`tables`] — drivers that run the grids and render Tables IV–VII and
//!   Figures 1–3.
//! * [`metrics`] — percentile/summary statistics (shared quantile rule
//!   re-exported from `lifeguard-metrics`).
//! * [`verdict`] — the gate: the paper's effects judged over paired
//!   seeds, one row per claim.
//! * [`report`] — plain-text and CSV table rendering.
//!
//! The `lifeguard-repro` binary wraps all of this:
//!
//! ```text
//! lifeguard-repro table4 --scale quick --seed 1
//! lifeguard-repro all --scale default --csv-dir results/
//! lifeguard-repro verdict
//! ```

pub mod metrics;
pub mod report;
pub mod scenario;
pub mod tables;
pub mod verdict;

pub use report::Table;
pub use scenario::Scale;
