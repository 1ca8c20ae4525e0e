//! Cache-line padding to prevent false sharing.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to the length of a cache line.
///
/// Two atomics that live on the same cache line ping-pong that line between
/// cores even when logically independent ("false sharing"). The two
/// counters of [`crate::TicketLock`] are wrapped in `CachePadded` so that
/// each owns its line.
///
/// 128-byte alignment is used on x86-64 and aarch64 because adjacent-line
/// prefetchers effectively couple pairs of 64-byte lines; 64 bytes is used
/// elsewhere.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[cfg_attr(any(target_arch = "x86_64", target_arch = "aarch64"), repr(align(128)))]
#[cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    repr(align(64))
)]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line.
    #[inline]
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the inner value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CachePadded").field(&self.value).finish()
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_is_at_least_a_cache_line() {
        assert!(std::mem::align_of::<CachePadded<u8>>() >= 64);
        let a = CachePadded::new(0u64);
        let b = CachePadded::new(0u64);
        assert_eq!(*a, *b);
    }

    #[test]
    fn deref_roundtrip() {
        let mut c = CachePadded::new(41u32);
        *c += 1;
        assert_eq!(c.into_inner(), 42);
    }
}
