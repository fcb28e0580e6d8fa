//! Wire protocol for the Lifeguard/SWIM failure detector.
//!
//! This crate defines the message vocabulary of the SWIM protocol as
//! implemented by HashiCorp `memberlist`, plus the `nack` message added by
//! the Lifeguard paper (DSN 2018), and a compact hand-rolled binary codec
//! for putting those messages on the wire.
//!
//! The protocol has two transports:
//!
//! * **Datagram ("UDP")** messages: [`Ping`], [`IndirectPing`], [`Ack`],
//!   [`Nack`], and the gossip messages [`Suspect`], [`Alive`], [`Dead`].
//!   Several of these are usually packed into a single *compound* packet
//!   (see [`compound`]) so that gossip can piggyback on failure-detector
//!   traffic without extra packets.
//! * **Stream ("TCP")** messages: [`PushPull`] anti-entropy state sync and
//!   fallback direct probes.
//!
//! # Example
//!
//! ```
//! use lifeguard_proto::{Message, Ack, SeqNo, codec};
//!
//! # fn main() -> Result<(), lifeguard_proto::DecodeError> {
//! let msg = Message::Ack(Ack { seq: SeqNo(42) });
//! let bytes = codec::encode_message(&msg);
//! let back = codec::decode_message(&bytes)?;
//! assert_eq!(msg, back);
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

pub mod codec;
pub mod compound;
mod error;
mod messages;
mod types;

pub use error::DecodeError;
pub use messages::{
    Ack, Alive, DatagramView, Dead, IndirectPing, Message, MessageKind, Nack, Ping, PushNodeState,
    PushPull, PushPullDelta, Suspect,
};
pub use types::{Incarnation, MemberState, NodeAddr, NodeName, SeqNo};

/// Default maximum datagram payload, matching memberlist's UDP MTU budget.
///
/// Every datagram a node sends fits in it: [`compound::CompoundBuilder`]
/// keeps a packet of several messages within it, and the caps
/// [`MAX_NAME_LEN`] and [`MAX_META_LEN`] keep the largest lone message
/// (an `alive` with an IPv6 address, 801 bytes) well inside it. So a
/// receiver's buffer of this many bytes holds any datagram a node sends.
pub const DEFAULT_PACKET_BUDGET: usize = 1400;

/// Longest member name, in bytes. A node refuses a longer name of its
/// own (`ConfigError::NodeNameTooLong` in `lifeguard-core`), and the
/// decoder refuses a longer name in any message.
pub const MAX_NAME_LEN: usize = 255;

/// Longest application metadata blob a member may carry, memberlist's
/// `MetaMaxSize`. A node refuses a longer blob of its own where it
/// enters (`Input::UpdateMeta` in `lifeguard-core`), and the decoder
/// refuses a longer blob in any message.
pub const MAX_META_LEN: usize = 512;
