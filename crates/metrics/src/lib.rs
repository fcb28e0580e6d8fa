//! The observability plane's sans-io metrics core.
//!
//! Everything in this crate is pure data manipulation: no sockets, no
//! clocks, no threads, and no allocation on the recording path but a
//! histogram's one spill (below). The
//! protocol core embeds [`Histogram`]s and plain counter fields and
//! records into them from its deterministic `handle_input` path, so
//! under the simulator the same seed produces byte-identical metric
//! state — the crate passes swim-lint's sans-I/O layering rule for the
//! same reason `lifeguard-core` does.
//!
//! Layers:
//!
//! - [`Histogram`] — the recording primitive beside plain `u64`
//!   counters: log-linear buckets (16 sub-buckets per power of two,
//!   ≤ ~3% quantile error) over the full `u64` range, 976 in all, of
//!   which it holds a 128-bucket (8-octave) window inline, anchored on
//!   the first bucket written; `record()` is a handful of integer ops
//!   and one increment. A count outside the window moves the counts,
//!   once, to all 976 buckets on the heap: at most one allocation per
//!   histogram, and the same quantiles and wire form either way.
//! - [`Snapshot`] ([`CoreSnapshot`] + [`IoSnapshot`]) — the
//!   point-in-time export every runtime (sim, net agent) produces in
//!   the same shape, with a versioned binary codec.
//! - [`percentile`] — the one quantile implementation (closest-ranks
//!   linear interpolation); [`Histogram::quantile`] routes through
//!   the same rank rule over bucket counts.

// Untrusted bytes must never panic an agent: no panicking call, index,
// slice or integer division outside tests (an exception is a reasoned
// `#[expect]`, counted by swim-lint).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![cfg_attr(
    not(test),
    deny(clippy::unreachable, clippy::unimplemented, clippy::todo)
)]
#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)
)]

pub mod hist;
pub mod snapshot;

pub use hist::{percentile, Histogram};
pub use snapshot::{CoreSnapshot, DecodeError, IoSnapshot, Snapshot};
