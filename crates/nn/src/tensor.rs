//! A minimal dense tensor, batch-first on every network pass.

use core::fmt;

/// A dense, row-major `f32` tensor.
///
/// Every network pass is batch-first: `[N, C, H, W]` for images and
/// `[N, F]` for feature vectors. The platform's one image at a time (§V)
/// is `N = 1`. One sample on its own is `[C, H, W]` or `[F]`, the shape
/// the replay buffer stores and [`Tensor::at3`] indexes.
///
/// # Examples
///
/// ```
/// use mramrl_nn::Tensor;
///
/// let mut t = Tensor::zeros(&[2, 3, 3]);
/// *t.at3_mut(1, 2, 0) = 5.0;
/// assert_eq!(t.at3(1, 2, 0), 5.0);
/// assert_eq!(t.len(), 18);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or any dimension is zero.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::filled(shape, 0.0)
    }

    /// Creates a constant-filled tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or any dimension is zero.
    pub fn filled(shape: &[usize], value: f32) -> Self {
        assert!(!shape.is_empty(), "tensor shape cannot be empty");
        assert!(
            shape.iter().all(|&d| d > 0),
            "tensor dimensions must be positive: {shape:?}"
        );
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape volume.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let len: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            len,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        assert!(!shape.is_empty() && shape.iter().all(|&d| d > 0));
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor has no elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of equal volume.
    ///
    /// # Panics
    ///
    /// Panics if the volumes differ.
    pub fn reshaped(mut self, shape: &[usize]) -> Self {
        self.reshape_in_place(shape);
        self
    }

    /// In-place variant of [`Tensor::reshaped`] (no move, no allocation).
    ///
    /// # Panics
    ///
    /// Panics if the volumes differ.
    pub fn reshape_in_place(&mut self, shape: &[usize]) {
        let len: usize = shape.iter().product();
        assert_eq!(len, self.data.len(), "reshape volume mismatch");
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Prepends a batch dimension of 1: `[C,H,W] → [1,C,H,W]` (no copy).
    ///
    /// The inverse of [`Tensor::squeezed0`]: together they send one
    /// sample through a batched pass as a batch of one.
    pub fn unsqueezed0(mut self) -> Self {
        self.shape.insert(0, 1);
        self
    }

    /// Drops a leading batch dimension of 1: `[1,C,H,W] → [C,H,W]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is 1-D or its leading dimension is not 1.
    pub fn squeezed0(mut self) -> Self {
        assert!(
            self.shape.len() > 1 && self.shape[0] == 1,
            "cannot squeeze leading dim of {:?}",
            self.shape
        );
        self.shape.remove(0);
        self
    }

    /// Number of samples when the leading axis is the batch dimension.
    ///
    /// # Panics
    ///
    /// Panics on 1-D tensors (no batch axis to interpret).
    pub fn batch(&self) -> usize {
        assert!(
            self.shape.len() > 1,
            "1-D tensor {:?} has no batch axis",
            self.shape
        );
        self.shape[0]
    }

    /// The per-sample slice `[i]` of a batch-first tensor, as raw data.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (debug: also on 1-D tensors).
    #[inline]
    pub fn sample(&self, i: usize) -> &[f32] {
        debug_assert!(self.shape.len() > 1);
        let stride = self.data.len() / self.shape[0];
        &self.data[i * stride..(i + 1) * stride]
    }

    /// Mutable per-sample slice `[i]` of a batch-first tensor.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (debug: also on 1-D tensors).
    #[inline]
    pub fn sample_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(self.shape.len() > 1);
        let stride = self.data.len() / self.shape[0];
        &mut self.data[i * stride..(i + 1) * stride]
    }

    /// Copies `src`'s shape and data into `self`, reusing the existing
    /// allocation when the volumes match (the workspace cache idiom).
    pub fn copy_from(&mut self, src: &Tensor) {
        if self.data.len() == src.data.len() {
            self.data.copy_from_slice(&src.data);
            self.shape.clear();
            self.shape.extend_from_slice(&src.shape);
        } else {
            *self = src.clone();
        }
    }

    /// Element access for `[C, H, W]` tensors.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds via indexing) on out-of-range indices or
    /// non-3-D tensors.
    #[inline]
    pub fn at3(&self, c: usize, y: usize, x: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 3);
        let (h, w) = (self.shape[1], self.shape[2]);
        debug_assert!(c < self.shape[0] && y < h && x < w);
        self.data[(c * h + y) * w + x]
    }

    /// Mutable element access for `[C, H, W]` tensors.
    #[inline]
    pub fn at3_mut(&mut self, c: usize, y: usize, x: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 3);
        let (h, w) = (self.shape[1], self.shape[2]);
        debug_assert!(c < self.shape[0] && y < h && x < w);
        &mut self.data[(c * h + y) * w + x]
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Index of the maximum element (first on ties).
    ///
    /// # Panics
    ///
    /// Never panics: tensors are non-empty by construction.
    pub fn argmax(&self) -> usize {
        argmax(&self.data)
    }

    /// Maximum element value.
    pub fn max_value(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.data.len() as f32
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Element-wise in-place scale.
    pub fn scale(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }
}

/// Index of a slice's maximum element, **first on ties** — the single
/// shared tie-break rule. [`Tensor::argmax`], the batched greedy-action
/// selection and the ε-greedy policy all route through this function:
/// the batched ≡ serial equivalence contracts depend on every argmax in
/// the stack breaking ties identically, so there is exactly one
/// implementation.
///
/// Returns 0 for an empty slice.
pub fn argmax(values: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, … {:.4}] (n={})",
                self.data[0],
                self.data[1],
                self.data[self.len() - 1],
                self.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(&[2, 2, 2], (0..8).map(|i| i as f32).collect());
        assert_eq!(t.at3(0, 0, 0), 0.0);
        assert_eq!(t.at3(1, 0, 1), 5.0);
        assert_eq!(t.at3(1, 1, 1), 7.0);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(&[4], vec![1.0, -2.0, 3.0, 0.5]);
        assert_eq!(t.sum(), 2.5);
        assert_eq!(t.argmax(), 2);
        assert_eq!(t.max_value(), 3.0);
        assert_eq!(t.mean(), 0.625);
        assert_eq!(t.norm_sq(), 1.0 + 4.0 + 9.0 + 0.25);
    }

    #[test]
    fn argmax_ties_take_first() {
        let t = Tensor::from_vec(&[3], vec![1.0, 1.0, 0.0]);
        assert_eq!(t.argmax(), 0);
    }

    #[test]
    fn reshape_keeps_data() {
        let t = Tensor::from_vec(&[2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let r = t.reshaped(&[6]);
        assert_eq!(r.shape(), &[6]);
        assert_eq!(r.data()[4], 4.0);
    }

    #[test]
    #[should_panic(expected = "volume mismatch")]
    fn bad_reshape_panics() {
        let _ = Tensor::zeros(&[4]).reshaped(&[5]);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dim_panics() {
        let _ = Tensor::zeros(&[3, 0]);
    }

    #[test]
    fn arithmetic_helpers() {
        let mut a = Tensor::from_vec(&[3], vec![2.0, 3.0, 4.0]);
        a.scale(2.0);
        assert_eq!(a.data(), &[4.0, 6.0, 8.0]);
        a.fill_zero();
        assert_eq!(a.sum(), 0.0);
    }

    #[test]
    fn batch_dim_helpers_roundtrip() {
        let t = Tensor::from_vec(&[2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let b = t.clone().unsqueezed0();
        assert_eq!(b.shape(), &[1, 2, 3]);
        assert_eq!(b.batch(), 1);
        let back = b.squeezed0();
        assert_eq!(back.shape(), &[2, 3]);
        assert_eq!(back.data(), t.data());
    }

    #[test]
    fn sample_slices_are_batch_major() {
        let t = Tensor::from_vec(&[2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.sample(0), &[0.0, 1.0, 2.0]);
        assert_eq!(t.sample(1), &[3.0, 4.0, 5.0]);
        let mut t = t;
        t.sample_mut(1)[0] = 9.0;
        assert_eq!(t.data()[3], 9.0);
    }

    #[test]
    #[should_panic(expected = "cannot squeeze")]
    fn squeeze_rejects_real_batch() {
        let _ = Tensor::zeros(&[2, 3]).squeezed0();
    }

    #[test]
    fn copy_from_reuses_allocation() {
        let mut dst = Tensor::zeros(&[6]);
        let ptr = dst.data().as_ptr();
        let src = Tensor::from_vec(&[2, 3], vec![1.0; 6]);
        dst.copy_from(&src);
        assert_eq!(dst.shape(), &[2, 3]);
        assert_eq!(
            dst.data().as_ptr(),
            ptr,
            "equal volume must reuse the buffer"
        );
        let bigger = Tensor::zeros(&[4, 3]);
        dst.copy_from(&bigger);
        assert_eq!(dst.shape(), &[4, 3]);
    }

    #[test]
    fn debug_formats() {
        assert!(format!("{:?}", Tensor::zeros(&[2])).contains("Tensor[2]"));
        assert!(format!("{:?}", Tensor::zeros(&[100])).contains("n=100"));
    }
}
