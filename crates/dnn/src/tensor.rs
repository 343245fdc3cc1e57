//! Dense row-major tensors used throughout the inference substrate.
//!
//! Values are stored as `f32`; reduced-precision execution (FP16 / INT16 /
//! INT8) is modeled by round-tripping values through a [`crate::precision`]
//! codec after each layer ("fake quantization"), which is exactly the surface
//! on which hardware bit flips are modeled.

use std::fmt;

use crate::error::DnnError;

/// A dense, row-major, arbitrary-rank tensor of `f32` values.
///
/// Convolutional tensors use NCHW order; matrices use `[rows, cols]`.
///
/// # Examples
///
/// ```
/// use fidelity_dnn::tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
/// assert_eq!(t.at(&[1, 2]), 6.0);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} values]", self.data.len())
        }
    }
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// # use fidelity_dnn::tensor::Tensor;
    /// let t = Tensor::zeros(vec![1, 2, 2, 2]);
    /// assert_eq!(t.len(), 8);
    /// assert!(t.data().iter().all(|&v| v == 0.0));
    /// ```
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with a constant value.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] if `data.len()` does not equal the
    /// product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, DnnError> {
        let n: usize = shape.iter().product();
        if n != data.len() {
            return Err(DnnError::ShapeMismatch {
                context: "Tensor::from_vec",
                expected: format!("{n} values for shape {shape:?}"),
                actual: format!("{} values", data.len()),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(values: &[f32]) -> Self {
        Tensor {
            shape: vec![values.len()],
            data: values.to_vec(),
        }
    }

    /// The tensor's shape (row-major, outermost dimension first).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its shape and flat storage, so both
    /// buffers can be recycled (see [`crate::workspace::Workspace`]).
    pub fn into_parts(self) -> (Vec<usize>, Vec<f32>) {
        (self.shape, self.data)
    }

    /// Assembles a tensor from a shape and a matching flat buffer — the
    /// allocation-free counterpart of [`Tensor::from_vec`] used by the
    /// workspace pool.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_parts(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, data.len(), "Tensor::from_parts length mismatch");
        Tensor { shape, data }
    }

    /// Computes the flat offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds (debug
    /// assertions always validate; release builds validate rank only).
    #[inline]
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0usize;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            debug_assert!(ix < dim, "index {ix} out of bounds for dim {i} ({dim})");
            off = off * dim + ix;
        }
        off
    }

    /// Reads the element at a multi-dimensional index.
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Writes the element at a multi-dimensional index.
    #[inline]
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    /// Reads a 4-D (NCHW) element without allocating an index slice.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.rank(), 4);
        let (cs, hs, ws) = (self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * cs + c) * hs + h) * ws + w]
    }

    /// Writes a 4-D (NCHW) element without allocating an index slice.
    #[inline]
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, value: f32) {
        debug_assert_eq!(self.rank(), 4);
        let (cs, hs, ws) = (self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * cs + c) * hs + h) * ws + w] = value;
    }

    /// Reads a 2-D element.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Writes a 2-D element.
    #[inline]
    pub fn set2(&mut self, r: usize, c: usize, value: f32) {
        debug_assert_eq!(self.rank(), 2);
        self.data[r * self.shape[1] + c] = value;
    }

    /// Returns a copy reshaped to `shape`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] if the element counts differ.
    pub fn reshaped(&self, shape: Vec<usize>) -> Result<Tensor, DnnError> {
        let n: usize = shape.iter().product();
        if n != self.data.len() {
            return Err(DnnError::ShapeMismatch {
                context: "Tensor::reshaped",
                expected: format!("{} elements", self.data.len()),
                actual: format!("shape {shape:?} = {n} elements"),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map<F: FnMut(f32) -> f32>(&self, f: F) -> Tensor {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Largest absolute value (0.0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Index of the maximum element in the flat storage.
    ///
    /// Ties resolve to the first occurrence; returns `None` when empty or
    /// when all entries are NaN.
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &v) in self.data.iter().enumerate() {
            if v.is_nan() {
                continue;
            }
            match best {
                Some((_, bv)) if bv >= v => {}
                _ => best = Some((i, v)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Whether any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Flat indices of elements that differ from `other` by more than `tol`.
    ///
    /// NaNs are considered different from everything (including NaN), so a
    /// fault that produces NaN is always reported.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] when shapes differ.
    pub fn diff_indices(&self, other: &Tensor, tol: f32) -> Result<Vec<usize>, DnnError> {
        if self.shape != other.shape {
            return Err(DnnError::ShapeMismatch {
                context: "Tensor::diff_indices",
                expected: format!("{:?}", self.shape),
                actual: format!("{:?}", other.shape),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .enumerate()
            .filter(|(_, (a, b))| {
                if a.is_nan() || b.is_nan() {
                    true
                } else {
                    (*a - *b).abs() > tol
                }
            })
            .map(|(i, _)| i)
            .collect())
    }

    /// Converts a flat offset back to a multi-dimensional index.
    pub fn unravel(&self, mut offset: usize) -> Vec<usize> {
        let mut idx = vec![0usize; self.shape.len()];
        for i in (0..self.shape.len()).rev() {
            let d = self.shape[i];
            idx[i] = offset % d;
            offset /= d;
        }
        idx
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(vec![0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![0.0; 3]).is_err());
        assert!(Tensor::from_vec(vec![2, 2], vec![0.0; 4]).is_ok());
    }

    #[test]
    fn offset_is_row_major() {
        let t = Tensor::zeros(vec![2, 3, 4]);
        assert_eq!(t.offset(&[0, 0, 0]), 0);
        assert_eq!(t.offset(&[0, 0, 3]), 3);
        assert_eq!(t.offset(&[0, 1, 0]), 4);
        assert_eq!(t.offset(&[1, 0, 0]), 12);
        assert_eq!(t.offset(&[1, 2, 3]), 23);
    }

    #[test]
    fn at4_matches_generic_indexing() {
        let data: Vec<f32> = (0..24).map(|v| v as f32).collect();
        let t = Tensor::from_vec(vec![1, 2, 3, 4], data).unwrap();
        for c in 0..2 {
            for h in 0..3 {
                for w in 0..4 {
                    assert_eq!(t.at4(0, c, h, w), t.at(&[0, c, h, w]));
                }
            }
        }
    }

    #[test]
    fn unravel_inverts_offset() {
        let t = Tensor::zeros(vec![3, 4, 5]);
        for off in [0usize, 1, 19, 20, 59] {
            let idx = t.unravel(off);
            assert_eq!(t.offset(&idx), off);
        }
    }

    #[test]
    fn argmax_skips_nan_and_handles_ties() {
        let t = Tensor::from_slice(&[1.0, f32::NAN, 3.0, 3.0]);
        assert_eq!(t.argmax(), Some(2));
        let empty = Tensor::from_slice(&[]);
        assert_eq!(empty.argmax(), None);
        let all_nan = Tensor::from_slice(&[f32::NAN]);
        assert_eq!(all_nan.argmax(), None);
    }

    #[test]
    fn diff_indices_flags_nan() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[1.0, f32::NAN, 3.5]);
        let d = a.diff_indices(&b, 0.25).unwrap();
        assert_eq!(d, vec![1, 2]);
    }

    #[test]
    fn reshaped_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let r = t.reshaped(vec![2, 2]).unwrap();
        assert_eq!(r.at2(1, 0), 3.0);
        assert!(t.reshaped(vec![3, 2]).is_err());
    }

    #[test]
    fn max_abs_and_sum() {
        let t = Tensor::from_slice(&[-5.0, 2.0, 3.0]);
        assert_eq!(t.max_abs(), 5.0);
        assert_eq!(t.sum(), 0.0);
    }
}
