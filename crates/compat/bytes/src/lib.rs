//! Offline shim for the `bytes` crate.
//!
//! Implements the subset the workspace uses: cheaply-cloneable
//! reference-counted [`Bytes`] with zero-copy [`Bytes::slice`], a
//! growable [`BytesMut`] builder, and the [`BufMut`] put-helpers
//! (big-endian integers + raw slices). The backing store is an
//! `Arc<[u8]>`, so clones and sub-slices never copy payload bytes.

// The wire crates call into this shim with untrusted lengths: no
// panicking call, index, slice or integer division outside tests (an
// exception is a reasoned `#[expect]`, counted by swim-lint).
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

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer.
///
/// Cloning and slicing are O(1) and share the underlying allocation.
/// The backing store is an `Arc<Vec<u8>>` so that [`BytesMut::freeze`]
/// and `From<Vec<u8>>` move the allocation instead of copying it.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub const fn new() -> Bytes {
        Bytes {
            data: None,
            start: 0,
            end: 0,
        }
    }

    /// A buffer copied from a static slice.
    ///
    /// (The real crate borrows; the shim copies once, which is
    /// equivalent for the small literals used in this workspace.)
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    /// A buffer copied from an arbitrary slice.
    pub fn copy_from_slice(bytes: &[u8]) -> Bytes {
        Bytes::from(bytes.to_vec())
    }

    /// Number of bytes in the buffer.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy sub-slice sharing this buffer's allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    // lint: allow(panic_path) — documented contract mirroring `bytes::Bytes::slice`; both wire callers cut a range they have bounds-checked (`Reader::get_blob` after `take(len)`, `decode_packet_shared` after `split_compound`)
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        if lo == hi {
            // Empty sub-slice: don't retain the backing allocation.
            return Bytes::new();
        }
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    #[expect(
        clippy::indexing_slicing,
        reason = "start <= end <= data.len(): `From<Vec<u8>>` takes the whole vector and \
                  `slice` asserts its sub-range lies inside this one"
    )]
    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(d) => &d[self.start..self.end],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Moves the vector's allocation behind the refcount — no copy.
    fn from(v: Vec<u8>) -> Bytes {
        if v.is_empty() {
            return Bytes::new();
        }
        Bytes {
            start: 0,
            end: v.len(),
            data: Some(Arc::new(v)),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_ref().iter()
    }
}

/// A growable byte buffer used to assemble encodings.
#[derive(Clone, Default)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with `cap` bytes pre-allocated.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            vec: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Current allocation size.
    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    /// Ensures room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }

    /// Drops the contents, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.vec.clear();
    }

    /// Shortens the buffer to `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.vec.truncate(len);
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, other: &[u8]) {
        self.vec.extend_from_slice(other);
    }

    /// Converts into an immutable [`Bytes`] (moves the allocation; no
    /// copy).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BytesMut")
            .field("len", &self.len())
            .finish()
    }
}

/// Append-style writers for the wire codec (big-endian integers).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian u16.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u32.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u64.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.vec.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_slice_share_storage() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(1);
        m.put_u16(0x0203);
        m.put_u32(0x0405_0607);
        m.put_u64(0x0809_0A0B_0C0D_0E0F);
        m.put_slice(b"xyz");
        let b = m.freeze();
        assert_eq!(b.len(), 1 + 2 + 4 + 8 + 3);
        assert_eq!(&b[0..3], &[1, 2, 3]);
        let s = b.slice(1..3);
        assert_eq!(s.as_ref(), &[2, 3]);
        let nested = s.slice(1..2);
        assert_eq!(nested.as_ref(), &[3]);
    }

    #[test]
    fn equality_and_empty() {
        assert_eq!(Bytes::new(), Bytes::from(Vec::new()));
        assert!(Bytes::new().is_empty());
        let a = Bytes::from_static(b"meta");
        assert_eq!(a, Bytes::copy_from_slice(b"meta"));
        assert_eq!(a.to_vec(), b"meta".to_vec());
    }
}
