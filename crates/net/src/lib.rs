//! Real-network runtime for the Lifeguard/SWIM protocol core.
//!
//! [`agent::Agent`] is a memberlist-style daemon: it drives a
//! [`lifeguard_core::node::SwimNode`] with real UDP datagrams, TCP
//! streams and OS timers. Use it to run an actual failure-detection
//! cluster:
//!
//! ```no_run
//! use lifeguard_net::agent::{Agent, AgentConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! let seed = Agent::start(AgentConfig::local("seed"))?;
//! let member = Agent::start(AgentConfig::local("member"))?;
//! member.join(&[seed.addr()]);
//! # Ok(())
//! # }
//! ```

// Untrusted bytes must never panic an agent: no panicking call, index,
// slice or integer division outside tests, and no panicking `std` slice
// method (`clippy.toml`). An exception is a reasoned `#[expect]`, pinned
// in tests/source_scan.rs.
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
// A length or count must never wrap on the wire: no lossy cast either.
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)
)]

pub mod agent;
pub(crate) mod reactor;
pub mod transport;

pub use agent::{Agent, AgentConfig};
