//! Dense `f32` tensors in NCHW layout.

/// A dense, contiguous, row-major `f32` tensor.
///
/// Convolutional data uses NCHW: `[batch, channels, height, width]`.
/// Weight matrices use 2-D `[rows, cols]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor.
    ///
    /// # Panics
    /// Panics if the element count overflows.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Tensor filled with `v`.
    pub fn full(shape: &[usize], v: f32) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![v; len],
        }
    }

    /// Wraps a data vector.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length does not match shape {shape:?}"
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat immutable view.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes into the data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the data under a new shape with the same element
    /// count.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        assert_eq!(
            self.data.len(),
            shape.iter().product::<usize>(),
            "reshape element count mismatch"
        );
        self.shape = shape.to_vec();
        self
    }

    /// NCHW dimensions `(n, c, h, w)`.
    ///
    /// # Panics
    /// Panics unless the tensor is 4-D.
    #[inline]
    pub fn nchw(&self) -> (usize, usize, usize, usize) {
        assert_eq!(self.shape.len(), 4, "expected a 4-D tensor");
        (self.shape[0], self.shape[1], self.shape[2], self.shape[3])
    }

    /// Flat index of `[n][c][y][x]` in NCHW layout.
    #[inline]
    pub fn idx4(&self, n: usize, c: usize, y: usize, x: usize) -> usize {
        let (_, ch, h, w) = self.nchw();
        ((n * ch + c) * h + y) * w + x
    }

    /// Value at `[n][c][y][x]`.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, y: usize, x: usize) -> f32 {
        self.data[self.idx4(n, c, y, x)]
    }

    /// Mutable value at `[n][c][y][x]`.
    #[inline]
    pub fn at4_mut(&mut self, n: usize, c: usize, y: usize, x: usize) -> &mut f32 {
        let i = self.idx4(n, c, y, x);
        &mut self.data[i]
    }

    /// One batch item as a flat slice (4-D tensors).
    pub fn batch_item(&self, n: usize) -> &[f32] {
        let (nn, c, h, w) = self.nchw();
        assert!(n < nn, "batch index out of range");
        let stride = c * h * w;
        &self.data[n * stride..(n + 1) * stride]
    }

    /// Sets every element to zero (for gradient accumulators).
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "tensor shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4, 5]);
        assert_eq!(t.len(), 120);
        assert_eq!(t.nchw(), (2, 3, 4, 5));
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn indexing_is_row_major_nchw() {
        let mut t = Tensor::zeros(&[2, 2, 2, 2]);
        *t.at4_mut(1, 1, 1, 1) = 7.0;
        assert_eq!(t.as_slice()[15], 7.0);
        *t.at4_mut(0, 1, 0, 1) = 3.0;
        assert_eq!(t.as_slice()[5], 3.0);
        assert_eq!(t.at4(0, 1, 0, 1), 3.0);
    }

    #[test]
    fn batch_item_slices_correctly() {
        let t = Tensor::from_vec(&[2, 1, 2, 2], (0..8).map(|i| i as f32).collect());
        assert_eq!(t.batch_item(0), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(t.batch_item(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    #[should_panic(expected = "reshape element count mismatch")]
    fn bad_reshape_panics() {
        let _ = Tensor::zeros(&[2, 3]).reshape(&[4, 2]);
    }

    #[test]
    fn arithmetic_helpers() {
        let mut a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(&[3], vec![10.0, 20.0, 30.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[11.0, 22.0, 33.0]);
        assert!((a.mean() - 22.0).abs() < 1e-6);
        assert_eq!(a.max_abs(), 33.0);
        a.zero();
        assert_eq!(a.as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn map_applies_elementwise() {
        let t = Tensor::from_vec(&[2], vec![-1.0, 2.0]);
        assert_eq!(t.map(|v| v.max(0.0)).as_slice(), &[0.0, 2.0]);
    }
}
