//! Minimal, dependency-free stand-in for the `bytes` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the small API subset DPFS actually uses: [`Bytes`]
//! (cheaply-cloneable immutable byte buffer with zero-copy `split_to` /
//! `slice`), [`BytesMut`] (append-only builder), and the [`Buf`] /
//! [`BufMut`] cursor traits. Semantics match the real crate for this
//! subset — including its cost contract: `Bytes::from(Vec<u8>)` and
//! [`BytesMut::freeze`] take ownership of the vector's heap block in O(1),
//! and `clone` / `slice` / `split_to` share that block. Anything else is
//! intentionally absent.

#![deny(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous slice of memory.
///
/// Internally an `Arc<Vec<u8>>` plus a window: adopting a `Vec` moves
/// its heap block under the refcount instead of copying it, and `clone`,
/// `slice`, and `split_to` share that block. `None` is the empty buffer,
/// which owns nothing.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Buffer borrowing a static slice (copied here; the real crate
    /// borrows, but callers only rely on the result's contents).
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Split off and return the first `at` bytes, advancing `self` past
    /// them. Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(
            at <= self.len(),
            "split_to({at}) out of bounds of {}",
            self.len()
        );
        let head = Bytes {
            data: self.data.clone(),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// A sub-window of this buffer sharing the same allocation. Panics on
    /// an out-of-bounds or inverted range.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
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
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds of {}",
            self.len()
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start..self.end],
            None => &[],
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// O(1): the vector's heap block moves under the refcount, no bytes
    /// are copied (spare capacity rides along until the last clone drops).
    fn from(v: Vec<u8>) -> Bytes {
        if v.is_empty() {
            return Bytes::new();
        }
        let len = v.len();
        Bytes {
            data: Some(Arc::new(v)),
            start: 0,
            end: len,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        Vec::from(self.as_slice()).into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Read-cursor over a byte buffer. Little-endian getters only (all DPFS
/// wire integers are LE).
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// Advance the cursor by `n` bytes.
    fn advance(&mut self, n: usize);
    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];

    /// True if any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Consume one byte. Panics if empty.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Consume a little-endian `u32`. Panics if short.
    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.chunk()[..4].try_into().unwrap());
        self.advance(4);
        v
    }

    /// Consume a little-endian `u64`. Panics if short.
    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.chunk()[..8].try_into().unwrap());
        self.advance(8);
        v
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(
            n <= self.len(),
            "advance({n}) out of bounds of {}",
            self.len()
        );
        self.start += n;
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Growable byte buffer used to build messages, frozen into [`Bytes`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty builder with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append raw bytes.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Convert into an immutable [`Bytes`] — an ownership transfer, not a
    /// copy.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

/// Write-cursor for building byte buffers. Little-endian putters only.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, data: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_and_slice_share_contents() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4, 5]);
        assert_eq!(&b.slice(1..3)[..], &[4, 5]);
        assert_eq!(&b.slice(..2)[..], &[3, 4]);
    }

    /// The copy budget the data path is built on: adopting a `Vec` keeps
    /// its heap block, and every view of it points into that same block.
    #[test]
    fn from_vec_and_freeze_adopt_the_heap_block() {
        let v = vec![7u8; 4096];
        let block = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), block, "Bytes::from(Vec) must not copy");
        assert_eq!(b.clone().as_ptr(), block);
        assert_eq!(b.slice(16..32).as_ptr(), block.wrapping_add(16));
        let mut rest = b.clone();
        let head = rest.split_to(100);
        assert_eq!(head.as_ptr(), block);
        assert_eq!(rest.as_ptr(), block.wrapping_add(100));

        let mut m = BytesMut::with_capacity(64);
        m.put_slice(b"frozen in place");
        let block = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), block, "freeze must not copy");
    }

    #[test]
    fn empty_buffers_own_nothing_and_compare_equal() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from(Vec::new()), Bytes::new());
        assert_eq!(Bytes::from(vec![1u8]).slice(1..), Bytes::new());
        assert_eq!(&Bytes::new()[..], b"");
    }

    #[test]
    fn buf_cursor_round_trip() {
        let mut m = BytesMut::new();
        m.put_u8(7);
        m.put_u32_le(0xDEAD_BEEF);
        m.put_u64_le(42);
        m.put_slice(b"xy");
        let mut b = m.freeze();
        assert_eq!(b.remaining(), 1 + 4 + 8 + 2);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(b.get_u64_le(), 42);
        assert_eq!(b.chunk(), b"xy");
        b.advance(2);
        assert!(!b.has_remaining());
    }

    #[test]
    fn equality_across_representations() {
        let b = Bytes::from_static(b"abc");
        assert_eq!(b, Bytes::from(vec![b'a', b'b', b'c']));
        assert_eq!(b, *b"abc");
        assert_eq!(b.to_vec(), vec![b'a', b'b', b'c']);
    }

    #[test]
    #[should_panic]
    fn split_past_end_panics() {
        Bytes::from(vec![1]).split_to(2);
    }
}
