//! Minimal in-tree replacement for the `bytes` crate (see shims/README.md).
//!
//! [`Bytes`] is a cheaply clonable immutable buffer (`Arc<Vec<u8>>` plus a
//! view range), [`BytesMut`] a growable builder that freezes into one, and
//! [`Buf`]/[`BufMut`] the little-endian cursor traits the protocol codecs
//! use.
//!
//! Ownership: `Bytes::from(Vec<u8>)` and [`BytesMut::freeze`] take the
//! vector's allocation as it is — no copy, and its capacity stays pinned
//! for as long as any clone or [`Bytes::slice`] of it lives. Builders that
//! freeze should therefore reserve what they need rather than a guess.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// Cheaply clonable immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes {
            data: Arc::new(Vec::new()),
            start: 0,
            end: 0,
        }
    }

    /// Copy `data` into a new buffer of exactly its length.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Wrap a static slice (copies under the shim; the real crate borrows).
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Length of the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view sharing the same allocation.
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
        assert!(lo <= hi && hi <= self.len(), "slice out of range");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// The view as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copy the view into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
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
    /// Take ownership of `v`'s allocation (no copy; spare capacity is kept).
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
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

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(32) {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        if self.len() > 32 {
            write!(f, "…(+{}B)", self.len() - 32)?;
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Growable byte builder; [`BytesMut::freeze`] converts it to [`Bytes`]
/// without copying.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    v: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> BytesMut {
        BytesMut { v: Vec::new() }
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            v: Vec::with_capacity(cap),
        }
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Is it empty?
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.v.extend_from_slice(s);
    }

    /// Reserve additional capacity.
    pub fn reserve(&mut self, additional: usize) {
        self.v.reserve(additional);
    }

    /// Remove all contents.
    pub fn clear(&mut self) {
        self.v.clear();
    }

    /// Convert into an immutable [`Bytes`] (no copy).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.v)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.v
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.v
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.v
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.v.len())
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> BytesMut {
        BytesMut { v }
    }
}

/// Read cursor over a byte source. All accessors panic when the source is
/// exhausted, matching the upstream crate; codecs bound-check first.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes as a contiguous slice.
    fn chunk(&self) -> &[u8];
    /// Consume `n` bytes.
    fn advance(&mut self, n: usize);

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Read a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Read a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Read a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    /// Read a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }

    /// Copy exactly `dst.len()` bytes out.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Copy the next `n` bytes into an owned [`Bytes`].
    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        let b = Bytes::copy_from_slice(&self.chunk()[..n]);
        self.advance(n);
        b
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end");
        self.start += n;
    }
    /// Zero-copy, as upstream: the result shares this buffer's allocation.
    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        let b = self.slice(..n);
        self.start += n;
        b
    }
}

/// Write cursor for building buffers.
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, s: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }
    /// Append a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.v.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_le() {
        let mut b = BytesMut::with_capacity(32);
        b.put_u8(7);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_u64_le(42);
        b.put_f32_le(1.5);
        let frozen = b.freeze();
        let mut cur: &[u8] = &frozen;
        assert_eq!(cur.get_u8(), 7);
        assert_eq!(cur.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(cur.get_u64_le(), 42);
        assert_eq!(cur.get_f32_le(), 1.5);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn bytes_clone_is_shallow_and_equal() {
        let a = Bytes::from(vec![1, 2, 3, 4, 5]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.slice(1..4), Bytes::from(vec![2, 3, 4]));
        assert_eq!(&a[..2], &[1, 2]);
    }

    #[test]
    fn from_vec_and_freeze_take_the_allocation_and_slices_share_it() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "Bytes::from(Vec) copied");

        let mut m = BytesMut::with_capacity(4096);
        m.put_slice(&[1u8; 100]);
        let ptr = m.as_ptr();
        let frozen = m.freeze();
        assert_eq!(frozen.as_ptr(), ptr, "freeze() copied");

        let s = frozen.slice(10..60);
        assert_eq!(s.as_ptr(), frozen[10..].as_ptr(), "slice() copied");
        let mut cur = frozen.clone();
        cur.advance(10);
        let taken = cur.copy_to_bytes(50);
        assert_eq!(taken.as_ptr(), s.as_ptr(), "copy_to_bytes on Bytes copied");
        assert_eq!(cur.len(), 40);
    }

    #[test]
    fn copies_are_exact_capacity() {
        let mut big = Vec::with_capacity(1 << 16);
        big.extend_from_slice(&[9u8; 100]);
        let b = Bytes::from(big);
        assert_eq!(b.data.capacity(), 1 << 16, "from(Vec) keeps the allocation");
        assert_eq!(b.to_vec().capacity(), 100);
        assert_eq!(Bytes::copy_from_slice(&b).data.capacity(), 100);
        assert_eq!(b.slice(..10).to_vec().capacity(), 10);
    }

    #[test]
    fn buf_on_bytes() {
        let mut b = Bytes::from(vec![9, 8, 7]);
        assert_eq!(b.get_u8(), 9);
        assert_eq!(b.copy_to_bytes(2), Bytes::from(vec![8, 7]));
        assert!(b.is_empty());
    }
}
