//! Contiguous 2-D array with row-major layout.
//!
//! The solver indexes fields as `(i, j)` where `i` is the axial direction and
//! `j` the radial direction. Storage is row-major in `j`: element `(i, j)`
//! lives at `i * nj + j`, so radial sweeps (`j` innermost) are stride-1 and
//! axial sweeps (`i` innermost) have stride `nj`. The paper's Version 1 vs
//! Version 3 "loop interchange" study (Figure 2) is reproduced by running the
//! same kernels with the two loop orders over this layout.

use crate::AlignedVec;
use serde::{Deserialize, Serialize};
use std::ops::{Index, IndexMut};

/// Dense row-major 2-D array of `f64`, its element [`crate::aligned::LEAD`]
/// at the start of a cache line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Array2 {
    ni: usize,
    nj: usize,
    data: AlignedVec,
}

impl Array2 {
    /// Create an `ni x nj` array filled with zeros.
    pub fn zeros(ni: usize, nj: usize) -> Self {
        Self { ni, nj, data: AlignedVec::filled(ni * nj, 0.0) }
    }

    /// Create an `ni x nj` array filled with `v`.
    pub fn filled(ni: usize, nj: usize, v: f64) -> Self {
        Self { ni, nj, data: AlignedVec::filled(ni * nj, v) }
    }

    /// Create from a generator `f(i, j)`.
    pub fn from_fn(ni: usize, nj: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut a = Self::zeros(ni, nj);
        for i in 0..ni {
            for j in 0..nj {
                a[(i, j)] = f(i, j);
            }
        }
        a
    }

    /// Number of rows (axial extent).
    #[inline(always)]
    pub fn ni(&self) -> usize {
        self.ni
    }

    /// Number of columns (radial extent).
    #[inline(always)]
    pub fn nj(&self) -> usize {
        self.nj
    }

    /// Total number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array has no elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat index of `(i, j)`.
    #[inline(always)]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.ni && j < self.nj, "index ({i},{j}) out of bounds ({}x{})", self.ni, self.nj);
        i * self.nj + j
    }

    /// Unchecked read used by the hot kernels (bounds enforced in debug builds).
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        let k = self.idx(i, j);
        debug_assert!(k < self.data.len());
        // SAFETY: `idx` asserts bounds in debug; release callers stay in-grid
        // by construction of the sweep ranges.
        unsafe { *self.data.get_unchecked(k) }
    }

    /// Unchecked write counterpart of [`Array2::at`].
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let k = self.idx(i, j);
        debug_assert!(k < self.data.len());
        // SAFETY: see `at`.
        unsafe { *self.data.get_unchecked_mut(k) = v }
    }

    /// Borrow the underlying buffer.
    #[inline(always)]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying buffer.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` (contiguous, length `nj`).
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[f64] {
        let s = i * self.nj;
        &self.data[s..s + self.nj]
    }

    /// Mutably borrow row `i`.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let s = i * self.nj;
        &mut self.data[s..s + self.nj]
    }

    /// Copy column `j` into `out` (strided gather; `out.len() == ni`).
    pub fn gather_col(&self, j: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.ni);
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.at(i, j);
        }
    }

    /// Scatter `src` into column `j` (`src.len() == ni`).
    pub fn scatter_col(&mut self, j: usize, src: &[f64]) {
        assert_eq!(src.len(), self.ni);
        for (i, &v) in src.iter().enumerate() {
            self.set(i, j, v);
        }
    }

    /// Fill the whole array with `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Elementwise maximum absolute value.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Extract the sub-block `i0..i0+ni`, `j0..j0+nj` as a new array.
    pub fn block(&self, i0: usize, j0: usize, ni: usize, nj: usize) -> Array2 {
        assert!(i0 + ni <= self.ni && j0 + nj <= self.nj, "block out of bounds");
        Array2::from_fn(ni, nj, |i, j| self.at(i0 + i, j0 + j))
    }

    /// Paste `src` into this array with its `(0,0)` at `(i0, j0)`.
    pub fn paste(&mut self, i0: usize, j0: usize, src: &Array2) {
        assert!(i0 + src.ni <= self.ni && j0 + src.nj <= self.nj, "paste out of bounds");
        for i in 0..src.ni {
            let d = (i0 + i) * self.nj + j0;
            let s = i * src.nj;
            self.data[d..d + src.nj].copy_from_slice(&src.data[s..s + src.nj]);
        }
    }
}

impl Index<(usize, usize)> for Array2 {
    type Output = f64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[self.idx(i, j)]
    }
}

impl IndexMut<(usize, usize)> for Array2 {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        let k = self.idx(i, j);
        &mut self.data[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_shape_and_is_zero() {
        let a = Array2::zeros(3, 5);
        assert_eq!(a.ni(), 3);
        assert_eq!(a.nj(), 5);
        assert_eq!(a.len(), 15);
        assert!(a.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn row_major_layout() {
        let a = Array2::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(a.as_slice(), &[0., 1., 2., 10., 11., 12.]);
        assert_eq!(a[(1, 2)], 12.0);
        assert_eq!(a.row(1), &[10., 11., 12.]);
    }

    #[test]
    fn gather_scatter_col_roundtrip() {
        let mut a = Array2::from_fn(4, 3, |i, j| (i + j) as f64);
        let mut col = vec![0.0; 4];
        a.gather_col(2, &mut col);
        assert_eq!(col, vec![2., 3., 4., 5.]);
        let new = vec![9., 8., 7., 6.];
        a.scatter_col(2, &new);
        a.gather_col(2, &mut col);
        assert_eq!(col, new);
    }

    #[test]
    fn block_and_paste_roundtrip() {
        let a = Array2::from_fn(5, 6, |i, j| (i * 6 + j) as f64);
        let b = a.block(1, 2, 3, 3);
        assert_eq!(b[(0, 0)], a[(1, 2)]);
        assert_eq!(b[(2, 2)], a[(3, 4)]);
        let mut c = Array2::zeros(5, 6);
        c.paste(1, 2, &b);
        assert_eq!(c[(1, 2)], a[(1, 2)]);
        assert_eq!(c[(3, 4)], a[(3, 4)]);
        assert_eq!(c[(0, 0)], 0.0);
    }

    #[test]
    fn max_abs_and_finiteness() {
        let mut a = Array2::from_fn(2, 2, |i, j| -((i + j) as f64));
        assert_eq!(a.max_abs(), 2.0);
        assert!(a.all_finite());
        a[(0, 1)] = f64::NAN;
        assert!(!a.all_finite());
    }
}
