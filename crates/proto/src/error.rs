//! Decoding errors.

use std::error::Error;
use std::fmt;

/// An error produced while decoding a wire message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The buffer ended before the message was complete.
    UnexpectedEof,
    /// The leading tag byte does not name a known message type.
    UnknownTag(u8),
    /// A name or metadata field was not valid UTF-8.
    InvalidUtf8,
    /// An address field used an unknown address-family marker.
    UnknownAddrFamily(u8),
    /// A member-state byte was out of range.
    UnknownState(u8),
    /// A field or frame was spelled in a way the encoder never writes:
    /// an overlong varint, a varint too large for its field (a length
    /// above `u16::MAX`, a sequence number or count above `u32::MAX`,
    /// anything past `u64::MAX`), a flag byte with a bit no flag uses,
    /// or a compound frame of fewer than two parts.
    NonCanonical,
    /// Trailing bytes followed a complete message.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of packet"),
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::InvalidUtf8 => write!(f, "invalid utf-8 in string field"),
            DecodeError::UnknownAddrFamily(v) => write!(f, "unknown address family marker {v}"),
            DecodeError::UnknownState(v) => write!(f, "unknown member state {v}"),
            DecodeError::NonCanonical => write!(f, "field is not in its canonical encoding"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants = [
            DecodeError::UnexpectedEof,
            DecodeError::UnknownTag(9),
            DecodeError::InvalidUtf8,
            DecodeError::UnknownAddrFamily(7),
            DecodeError::UnknownState(5),
            DecodeError::NonCanonical,
            DecodeError::TrailingBytes(3),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
