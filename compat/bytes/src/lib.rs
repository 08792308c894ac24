//! Minimal offline stand-in for the `bytes` crate: a cheaply-clonable,
//! immutable byte buffer. Only the API surface this workspace uses.

use std::fmt;
use std::ops::{Bound, Deref, Range, RangeBounds};
use std::sync::Arc;

/// A reference-counted immutable byte buffer. Cloning and slicing are
/// O(1): every handle shares the same allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    /// The part of `data` this handle exposes.
    window: Range<usize>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    fn whole(data: Arc<[u8]>) -> Self {
        let window = 0..data.len();
        Bytes { data, window }
    }

    /// Wraps a static byte slice (copied once into the shared buffer; the
    /// real crate borrows, but the observable API is identical).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes)
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The bytes as a slice (the inherent method the real crate offers
    /// alongside the `AsRef` impl).
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.window.clone()]
    }

    /// A handle to `range` of this buffer, sharing its allocation.
    ///
    /// # Panics
    /// Panics if the range is decreasing or ends past `self.len()`, as
    /// the real crate does.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "slice {start}..{end} out of bounds for Bytes of length {}",
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            window: self.window.start + start..self.window.start + end,
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

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::whole(v.into())
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::whole(v.into())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::Bytes;
    use std::sync::Arc;

    #[test]
    fn slices_share_the_allocation_and_compare_by_content() {
        let whole = Bytes::from(b"hello world".to_vec());
        let hello = whole.slice(..5);
        let world = whole.slice(6..);
        assert_eq!(hello.as_slice(), b"hello");
        assert_eq!(&world[..], b"world");
        assert_eq!(world.slice(1..=2).as_slice(), b"or");
        assert!(Arc::ptr_eq(&hello.data, &whole.data));
        assert_eq!(hello, Bytes::from(&b"hello"[..]));
        assert!(whole.slice(3..3).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics() {
        let _ = Bytes::from(vec![0u8; 4]).slice(2..5);
    }
}
