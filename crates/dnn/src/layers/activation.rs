//! Pointwise non-linearities and softmax.

use crate::error::DnnError;
use crate::layers::{check_arity, for_each_window_row, plane_dims, Layer, LayerKind, ALL_COLUMNS};
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// The supported pointwise non-linearities.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ActivationKind {
    /// `max(0, x)`.
    Relu,
    /// `x` for `x > 0`, else `alpha·x` (Yolo-style).
    LeakyRelu(f32),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// ReLU clipped at 6 (MobileNet-style).
    Relu6,
}

impl ActivationKind {
    /// Applies the non-linearity to one value.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::LeakyRelu(alpha) => {
                if x > 0.0 {
                    x
                } else {
                    alpha * x
                }
            }
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Relu6 => x.clamp(0.0, 6.0),
        }
    }
}

/// A pointwise activation layer.
///
/// # Examples
///
/// ```
/// use fidelity_dnn::layers::{Activation, ActivationKind, Layer};
/// use fidelity_dnn::tensor::Tensor;
///
/// let relu = Activation::new("relu", ActivationKind::Relu);
/// let x = Tensor::from_slice(&[-1.0, 2.0]);
/// assert_eq!(relu.forward_alloc(&[&x]).unwrap().data(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Activation {
    name: String,
    kind: ActivationKind,
}

impl Activation {
    /// Creates an activation layer.
    pub fn new(name: impl Into<String>, kind: ActivationKind) -> Self {
        Activation {
            name: name.into(),
            kind,
        }
    }

    /// The configured non-linearity.
    pub fn activation_kind(&self) -> ActivationKind {
        self.kind
    }
}

impl Layer for Activation {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Activation
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        let mut out = ws.clone_of(inputs[0]);
        out.map_inplace(|v| self.kind.apply(v));
        Ok(out)
    }

    fn values_preserved(&self) -> bool {
        // Only ReLU passes inputs through unchanged (or emits zero). Relu6's
        // 6.0 clip and LeakyRelu's scaled slope produce values that need not
        // lie on an integer codec's grid.
        matches!(self.kind, ActivationKind::Relu)
    }

    fn region_map(
        &self,
        input_shapes: &[&[usize]],
        h: (usize, usize),
        w: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
        // Pointwise: the output window is exactly the input window.
        plane_dims(input_shapes.first()?).map(|_| (h, w))
    }

    fn forward_region(
        &self,
        inputs: &[&Tensor],
        h: (usize, usize),
        w: (usize, usize),
        out: &mut Tensor,
        ws: &mut Workspace,
    ) -> Result<bool, DnnError> {
        let _ = ws;
        check_arity(&self.name, 1, inputs.len())?;
        let x = inputs[0];
        if plane_dims(x.shape()).is_none() || out.shape() != x.shape() {
            return Ok(false);
        }
        let src = x.data();
        let dst = out.data_mut();
        for_each_window_row(x.shape(), h, w, |a, b| {
            for (d, s) in dst[a..b].iter_mut().zip(&src[a..b]) {
                *d = self.kind.apply(*s);
            }
        });
        Ok(true)
    }
}

/// Softmax over the last dimension, computed with the max-subtraction trick
/// for numerical stability.
#[derive(Debug, Clone)]
pub struct Softmax {
    name: String,
}

impl Softmax {
    /// Creates a softmax layer.
    pub fn new(name: impl Into<String>) -> Self {
        Softmax { name: name.into() }
    }
}

impl Layer for Softmax {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Softmax
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        let x = inputs[0];
        let last = *x.shape().last().unwrap_or(&1);
        let mut out = ws.clone_of(x);
        if last > 0 {
            out.data_mut().chunks_exact_mut(last).for_each(softmax_row);
        }
        Ok(out)
    }

    fn region_map(
        &self,
        input_shapes: &[&[usize]],
        h: (usize, usize),
        w: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
        // Each row is normalized on its own, so a dirty element dirties
        // exactly its row.
        let _ = w;
        plane_dims(input_shapes.first()?)?;
        Some((h, ALL_COLUMNS))
    }

    fn forward_region(
        &self,
        inputs: &[&Tensor],
        h: (usize, usize),
        w: (usize, usize),
        out: &mut Tensor,
        ws: &mut Workspace,
    ) -> Result<bool, DnnError> {
        let _ = (w, ws);
        check_arity(&self.name, 1, inputs.len())?;
        let x = inputs[0];
        let Some([_, _, _, cols]) = plane_dims(x.shape()) else {
            return Ok(false);
        };
        if out.shape() != x.shape() {
            return Ok(false);
        }
        let src = x.data();
        let dst = out.data_mut();
        for_each_window_row(x.shape(), h, (0, cols), |a, b| {
            dst[a..b].copy_from_slice(&src[a..b]);
            dst[a..b].chunks_exact_mut(cols).for_each(softmax_row);
        });
        Ok(true)
    }
}

/// Softmax of one row in place, the max-subtraction form; a row whose sum
/// is 0 or not finite keeps its exponentials unnormalized.
fn softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 && sum.is_finite() {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_kinds() {
        assert_eq!(ActivationKind::Relu.apply(-3.0), 0.0);
        assert_eq!(ActivationKind::LeakyRelu(0.1).apply(-3.0), -0.3);
        assert_eq!(ActivationKind::Relu6.apply(9.0), 6.0);
        assert!((ActivationKind::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert!((ActivationKind::Tanh.apply(0.0)).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let sm = Softmax::new("sm");
        let x = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let y = sm.forward_alloc(&[&x]).unwrap();
        for r in 0..2 {
            let s: f32 = (0..3).map(|c| y.at2(r, c)).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // Monotone: larger logits get larger probabilities.
        assert!(y.at2(0, 2) > y.at2(0, 1));
    }

    #[test]
    fn softmax_survives_large_values() {
        let sm = Softmax::new("sm");
        let x = Tensor::from_vec(vec![1, 2], vec![10000.0, 9999.0]).unwrap();
        let y = sm.forward_alloc(&[&x]).unwrap();
        assert!(y.data().iter().all(|v| v.is_finite()));
        assert!(y.at2(0, 0) > y.at2(0, 1));
    }
}
