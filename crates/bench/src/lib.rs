//! Shared helpers for the Criterion benchmarks: the naive reference
//! implementations the indexed data structures are measured against.
//!
//! The paper's tables and figures are regenerated by the
//! `lifeguard-repro` binary (`crates/experiments`), not from here.

pub mod naive;
