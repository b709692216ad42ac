//! `f64` buffers at a fixed offset from a cache line.
//!
//! A `Vec<f64>` starts wherever the allocator's free lists put it, which on
//! glibc is any 16-byte boundary. Whether a sweep's 32-byte lane loads start
//! a lane or straddle two then depends on what the process allocated before
//! the solver: the same 250x100 V7 step measured 0.62 or 0.76 ms with its
//! planes 16 bytes apart (EXPERIMENTS, "Plane alignment"), and a change to
//! how a JSON parser sized its strings was enough to move them. An
//! [`AlignedVec`] puts its element [`LEAD`] at the start of a cache line,
//! so a kernel's alignment is a property of the code, not of the heap's
//! history.

use serde::{DeError, Deserialize, Serialize, Value};
use std::ops::{Deref, DerefMut};

/// The element of every [`AlignedVec`] that starts a cache line: the
/// solver's ghost width, so the first interior point of a row begins one
/// (and, on rows a whole number of lanes long, every row's interior begins
/// a lane).
pub const LEAD: usize = 2;

/// `f64`s per 64-byte cache line.
const PER_LINE: usize = 8;

/// A fixed-length `f64` buffer whose element [`LEAD`] starts a cache line.
/// It reads and writes as a `[f64]`; a clone has the same layout.
///
/// The storage is a `Vec<f64>` seven elements longer than asked for, read from the
/// offset that puts [`LEAD`] on a line boundary, so a zero-filled buffer
/// still comes from `calloc` and its untouched pages cost no memory.
pub struct AlignedVec {
    data: Vec<f64>,
    /// Index in `data` of element 0; `start + len <= data.len()`.
    start: usize,
    len: usize,
}

impl AlignedVec {
    /// `len` copies of `v`.
    pub fn filled(len: usize, v: f64) -> Self {
        let data = vec![v; len + PER_LINE - 1];
        let first = data.as_ptr() as usize / std::mem::size_of::<f64>();
        let start = (PER_LINE - (first + LEAD) % PER_LINE) % PER_LINE;
        Self { data, start, len }
    }

    /// A copy of `s`.
    pub fn from_slice(s: &[f64]) -> Self {
        let mut a = Self::filled(s.len(), 0.0);
        a.copy_from_slice(s);
        a
    }
}

impl Clone for AlignedVec {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl Deref for AlignedVec {
    type Target = [f64];

    #[inline(always)]
    fn deref(&self) -> &[f64] {
        // SAFETY: `filled` sized `data` so that `start + len <= data.len()`,
        // and neither changes afterwards.
        unsafe { self.data.get_unchecked(self.start..self.start + self.len) }
    }
}

impl DerefMut for AlignedVec {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [f64] {
        // SAFETY: as in `deref`.
        unsafe { self.data.get_unchecked_mut(self.start..self.start + self.len) }
    }
}

impl PartialEq for AlignedVec {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Written as the `Vec<f64>` it replaces, so serialized arrays (checkpoints)
/// keep their bytes.
impl Serialize for AlignedVec {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

impl Deserialize for AlignedVec {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        Vec::<f64>::deserialize(v).map(|d| Self::from_slice(&d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lead_element_starts_a_cache_line() {
        for len in [0, 1, LEAD, LEAD + 1, 7, 8, 9, 104 * 254] {
            let a = AlignedVec::filled(len, 1.5);
            assert_eq!(a.len(), len);
            assert!(a.iter().all(|&x| x == 1.5));
            let lead = a.as_ptr() as usize + LEAD * std::mem::size_of::<f64>();
            assert_eq!(lead % 64, 0, "len {len}");
            assert_eq!(a.clone().as_ptr() as usize % 64, a.as_ptr() as usize % 64, "a clone keeps the layout");
        }
    }

    #[test]
    fn serializes_as_a_vec() {
        let xs = [0.0, -0.0, 1.0e300, f64::MIN_POSITIVE, 3.25];
        let a = AlignedVec::from_slice(&xs);
        assert_eq!(a.serialize(), xs.to_vec().serialize());
        let back = AlignedVec::deserialize(&a.serialize()).unwrap();
        assert!(back.iter().zip(&xs).all(|(b, x)| b.to_bits() == x.to_bits()));
        assert_eq!(format!("{a:?}"), format!("{:?}", xs.to_vec()));
    }
}
