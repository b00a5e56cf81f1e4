//! A small dense `f32` tensor.
//!
//! The similarity-comparison networks of the DeepStore workloads are tiny by
//! deep-learning standards (Table 1: 0.08–9.8 MFLOPs per comparison), so a
//! straightforward row-major tensor with naive kernels is both sufficient and
//! easy to audit. All shape errors are reported through
//! [`NnError::ShapeMismatch`](crate::NnError) rather than
//! panics so the in-storage runtime can surface them to the host.

use crate::{NnError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A dense row-major `f32` tensor.
///
/// # Example
///
/// ```
/// use deepstore_nn::Tensor;
///
/// let t = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(t.len(), 4);
/// assert_eq!(t.shape(), &[2, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor of the given shape.
    ///
    /// # Example
    ///
    /// ```
    /// use deepstore_nn::Tensor;
    /// let z = Tensor::zeros(vec![3, 4]);
    /// assert_eq!(z.len(), 12);
    /// assert!(z.data().iter().all(|&x| x == 0.0));
    /// ```
    pub fn zeros(shape: Vec<usize>) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor from a shape and backing data.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `data.len()` does not equal the
    /// product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{expected} elements for shape {shape:?}"),
                found: format!("{} elements", data.len()),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: vec![data.len()],
            data: data.to_vec(),
        }
    }

    /// Creates a tensor with values drawn uniformly from `[-scale, scale)`,
    /// deterministically seeded.
    pub fn random(shape: Vec<usize>, scale: f32, seed: u64) -> Self {
        let len: usize = shape.iter().product();
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..len).map(|_| rng.gen_range(-scale..scale)).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of the same element count.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} elements", self.data.len()),
                found: format!("shape {shape:?} = {expected} elements"),
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Dot product with another tensor of identical length.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the lengths differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        self.check_same_len(other)?;
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum())
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the lengths differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise subtraction (`self - other`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the lengths differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the lengths differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Concatenation of two 1-D (or flattened) tensors.
    pub fn concat(&self, other: &Tensor) -> Tensor {
        let mut data = Vec::with_capacity(self.len() + other.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Tensor {
            shape: vec![data.len()],
            data,
        }
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Cosine similarity with another tensor.
    ///
    /// Returns 0 when either tensor has zero norm.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the lengths differ.
    pub fn cosine(&self, other: &Tensor) -> Result<f32> {
        let d = self.dot(other)?;
        let n = self.norm() * other.norm();
        Ok(if n == 0.0 { 0.0 } else { d / n })
    }

    /// Dense matrix-vector product: `W (out x in) * self (in) + b (out)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `w` is not 2-D with its second
    /// dimension equal to `self.len()`, or `b.len()` differs from the first
    /// dimension of `w`.
    pub fn dense(&self, w: &Tensor, b: &Tensor) -> Result<Tensor> {
        if w.shape.len() != 2 || w.shape[1] != self.len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("weight matrix [out, {}]", self.len()),
                found: format!("{:?}", w.shape),
            });
        }
        let out = w.shape[0];
        if b.len() != out {
            return Err(NnError::ShapeMismatch {
                expected: format!("bias [{out}]"),
                found: format!("{:?}", b.shape),
            });
        }
        let mut y = Vec::with_capacity(out);
        crate::kernels::dense_into(&w.data, &b.data, &self.data, &mut y);
        Ok(Tensor {
            shape: vec![out],
            data: y,
        })
    }

    /// 2-D convolution over a `[C, H, W]` tensor with a `[Co, Cg, Kh, Kw]`
    /// kernel, zero "same" padding and the given strides. `groups` splits
    /// the input channels into equal groups (`Cg = C / groups`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the input is not 3-D, the kernel
    /// is not 4-D, or channel counts are inconsistent with `groups`.
    pub fn conv2d(
        &self,
        kernel: &Tensor,
        bias: &Tensor,
        stride: (usize, usize),
        groups: usize,
    ) -> Result<Tensor> {
        if self.shape.len() != 3 {
            return Err(NnError::ShapeMismatch {
                expected: "input [C, H, W]".into(),
                found: format!("{:?}", self.shape),
            });
        }
        if kernel.shape.len() != 4 {
            return Err(NnError::ShapeMismatch {
                expected: "kernel [Co, Cg, Kh, Kw]".into(),
                found: format!("{:?}", kernel.shape),
            });
        }
        let (c, h, w) = (self.shape[0], self.shape[1], self.shape[2]);
        let (co, cg, kh, kw) = (
            kernel.shape[0],
            kernel.shape[1],
            kernel.shape[2],
            kernel.shape[3],
        );
        if groups == 0 || c % groups != 0 || co % groups != 0 || cg != c / groups {
            return Err(NnError::ShapeMismatch {
                expected: format!(
                    "kernel group channels {} (C={c} / groups={groups})",
                    c / groups.max(1)
                ),
                found: format!("Cg={cg}"),
            });
        }
        if bias.len() != co {
            return Err(NnError::ShapeMismatch {
                expected: format!("bias [{co}]"),
                found: format!("{:?}", bias.shape),
            });
        }
        let dims = crate::kernels::ConvDims {
            c,
            h,
            w,
            co,
            cg,
            kh,
            kw,
            stride,
            groups,
        };
        let (oh, ow) = (dims.oh(), dims.ow());
        let mut out = Vec::with_capacity(co * oh * ow);
        crate::kernels::conv2d_into(&self.data, &kernel.data, &bias.data, dims, &mut out);
        Ok(Tensor {
            shape: vec![co, oh, ow],
            data: out,
        })
    }

    /// Applies the logistic sigmoid in place and returns the tensor.
    pub fn sigmoid(mut self) -> Tensor {
        for x in &mut self.data {
            *x = 1.0 / (1.0 + (-*x).exp());
        }
        self
    }

    /// Applies tanh in place and returns the tensor.
    pub fn tanh(mut self) -> Tensor {
        for x in &mut self.data {
            *x = x.tanh();
        }
        self
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    fn check_same_len(&self, other: &Tensor) -> Result<()> {
        if self.len() != other.len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} elements", self.len()),
                found: format!("{} elements", other.len()),
            });
        }
        Ok(())
    }

    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        self.check_same_len(other)?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor {
            shape: vec![0],
            data: Vec::new(),
        }
    }
}

impl FromIterator<f32> for Tensor {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        Tensor {
            shape: vec![data.len()],
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_shape() {
        assert!(Tensor::from_vec(vec![2, 2], vec![0.0; 4]).is_ok());
        assert!(Tensor::from_vec(vec![2, 2], vec![0.0; 3]).is_err());
    }

    #[test]
    fn dot_and_norm() {
        let a = Tensor::from_slice(&[3.0, 4.0]);
        let b = Tensor::from_slice(&[1.0, 0.0]);
        assert_eq!(a.dot(&b).unwrap(), 3.0);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_parallel_vectors_is_one() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[2.0, 4.0, 6.0]);
        assert!((a.cosine(&b).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        let a = Tensor::from_slice(&[0.0, 0.0]);
        let b = Tensor::from_slice(&[1.0, 1.0]);
        assert_eq!(a.cosine(&b).unwrap(), 0.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 5.0]);
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-2.0, -3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        assert_eq!(a.concat(&b).data(), &[1.0, 2.0, 3.0, 5.0]);
    }

    #[test]
    fn elementwise_shape_mismatch_is_error() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0]);
        assert!(a.add(&b).is_err());
        assert!(a.dot(&b).is_err());
    }

    #[test]
    fn dense_matvec() {
        // W = [[1, 2], [3, 4]], x = [1, 1], b = [0.5, -0.5]
        let w = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let x = Tensor::from_slice(&[1.0, 1.0]);
        let b = Tensor::from_slice(&[0.5, -0.5]);
        let y = x.dense(&w, &b).unwrap();
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn dense_rejects_bad_shapes() {
        let w = Tensor::from_vec(vec![2, 3], vec![0.0; 6]).unwrap();
        let x = Tensor::from_slice(&[1.0, 1.0]); // needs 3 inputs
        let b = Tensor::from_slice(&[0.0, 0.0]);
        assert!(x.dense(&w, &b).is_err());
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1 reproduces the input.
        let x = Tensor::from_vec(vec![1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let k = Tensor::from_vec(vec![1, 1, 1, 1], vec![1.0]).unwrap();
        let b = Tensor::from_slice(&[0.0]);
        let y = x.conv2d(&k, &b, (1, 1), 1).unwrap();
        assert_eq!(y.data(), x.data());
        assert_eq!(y.shape(), &[1, 2, 2]);
    }

    #[test]
    fn conv2d_stride_halves_output() {
        let x = Tensor::zeros(vec![2, 8, 6]);
        let k = Tensor::random(vec![4, 2, 3, 3], 0.1, 1);
        let b = Tensor::zeros(vec![4]);
        let y = x.conv2d(&k, &b, (2, 2), 1).unwrap();
        assert_eq!(y.shape(), &[4, 4, 3]);
    }

    #[test]
    fn conv2d_grouped_channels() {
        let x = Tensor::random(vec![4, 4, 4], 1.0, 2);
        // 2 groups: kernel sees 2 input channels per group.
        let k = Tensor::random(vec![4, 2, 3, 3], 0.1, 3);
        let b = Tensor::zeros(vec![4]);
        let y = x.conv2d(&k, &b, (1, 1), 2).unwrap();
        assert_eq!(y.shape(), &[4, 4, 4]);
    }

    #[test]
    fn conv2d_sum_kernel_counts_neighbors() {
        // 3x3 all-ones kernel over an all-ones 3x3 input: center sees 9.
        let x = Tensor::from_vec(vec![1, 3, 3], vec![1.0; 9]).unwrap();
        let k = Tensor::from_vec(vec![1, 1, 3, 3], vec![1.0; 9]).unwrap();
        let b = Tensor::zeros(vec![1]);
        let y = x.conv2d(&k, &b, (1, 1), 1).unwrap();
        assert_eq!(y.data()[4], 9.0); // center
        assert_eq!(y.data()[0], 4.0); // corner sees a 2x2 window
    }

    #[test]
    fn activations() {
        let t = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let s = t.clone().sigmoid();
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        let th = t.tanh();
        assert!(th.data()[2] > 0.9 && th.data()[2] < 1.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let r = t.reshape(vec![2, 2]).unwrap();
        assert_eq!(r.shape(), &[2, 2]);
        assert!(r.reshape(vec![5]).is_err());
    }

    #[test]
    fn random_is_deterministic() {
        let a = Tensor::random(vec![16], 1.0, 42);
        let b = Tensor::random(vec![16], 1.0, 42);
        assert_eq!(a, b);
        let c = Tensor::random(vec![16], 1.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(Tensor::default().mean(), 0.0);
        assert_eq!(Tensor::from_slice(&[1.0, 3.0]).mean(), 2.0);
    }

    #[test]
    fn collects_from_iterator() {
        let t: Tensor = (0..4).map(|i| i as f32).collect();
        assert_eq!(t.shape(), &[4]);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }
}
