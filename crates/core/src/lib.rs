//! Sans-io implementation of the SWIM group-membership protocol with the
//! Lifeguard extensions (DSN 2018), in the style of HashiCorp
//! `memberlist`.
//!
//! The central type is [`node::SwimNode`], a pure state machine with one
//! poll-based driving surface: feed [`node::Input`]s through
//! `handle_input`, drain [`node::Output`] effects through `poll_output`.
//! Runtimes (simulator or real sockets) drive it through the shared
//! [`driver::Driver`] harness, which owns the input→poll→sink loop.
//!
//! # Protocol features
//!
//! * Randomized round-robin probe rounds with direct (`ping`) and
//!   indirect (`ping-req`) probes and a stream-transport fallback probe.
//! * The Suspicion subprotocol with incarnation numbers and refutation.
//! * Gossip dissemination piggybacked on failure-detector messages plus a
//!   dedicated gossip tick, via a transmit-limited broadcast queue.
//! * Anti-entropy push-pull full state sync.
//! * Dead-member retention and reaping.
//!
//! # Lifeguard extensions (individually toggleable)
//!
//! * **LHA-Probe** ([`awareness`]): the Local Health Multiplier scales
//!   probe interval/timeout; `nack` messages provide negative feedback.
//! * **LHA-Suspicion** ([`suspicion`]): suspicion timeouts start at `Max`
//!   and decay logarithmically to `Min` with independent confirmations,
//!   which are re-gossiped up to `K` times.
//! * **Buddy System** ([`broadcast`] + [`node`]): pings to a suspected
//!   member always carry the suspicion so refutation starts immediately.

// Untrusted bytes must never panic an agent: no panicking call, index,
// slice or integer division outside tests (an exception is a reasoned
// `#[expect]`, counted by swim-lint).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::integer_division_remainder_used))]

pub mod awareness;
mod blocked_io;
pub mod broadcast;
pub mod config;
pub mod driver;
pub mod event;
pub mod member;
pub mod membership;
pub mod node;
mod outbox;
pub mod probe_list;
mod prober;
pub mod suspicion;
mod sync;
pub mod time;
pub mod timer_wheel;

pub use config::{Config, ConfigError, LifeguardConfig};
pub use driver::{Driver, OwnedOutput, Sink};
pub use event::Event;
pub use node::{Input, Output, SwimNode};
pub use time::Time;

// The node test kit (`tests/common`) names this crate from outside; the
// unit tests that share it need the same name to resolve from inside.
#[cfg(test)]
extern crate self as lifeguard_core;
