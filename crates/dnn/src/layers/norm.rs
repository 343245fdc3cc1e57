//! Normalization layers.

use crate::error::DnnError;
use crate::layers::{check_arity, for_each_window_row, plane_dims, Layer, LayerKind, ALL_COLUMNS};
use crate::precision::ValueCodec;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Per-channel affine transform `y = gamma·x + beta`, i.e. an inference-time
/// (folded) batch normalization.
#[derive(Debug, Clone)]
pub struct ScaleShift {
    name: String,
    gamma: Tensor,
    beta: Tensor,
}

impl ScaleShift {
    /// Creates a folded batch-norm from per-channel `gamma` and `beta`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] unless both are rank 1 and equal
    /// length.
    pub fn new(name: impl Into<String>, gamma: Tensor, beta: Tensor) -> Result<Self, DnnError> {
        if gamma.rank() != 1 || beta.rank() != 1 || gamma.len() != beta.len() || gamma.is_empty() {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "scale/shift must be equal-length rank-1, got {:?} and {:?}",
                    gamma.shape(),
                    beta.shape()
                ),
            });
        }
        Ok(ScaleShift {
            name: name.into(),
            gamma,
            beta,
        })
    }
}

impl Layer for ScaleShift {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Norm
    }

    fn weights(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        let x = inputs[0];
        let n = self.gamma.len();
        let mut out = ws.clone_of(x);
        match x.rank() {
            4 => {
                let (c, h, w) = (x.shape()[1], x.shape()[2], x.shape()[3]);
                if c != n {
                    return Err(DnnError::ShapeMismatch {
                        context: "ScaleShift::forward",
                        expected: format!("{n} channels"),
                        actual: format!("{c}"),
                    });
                }
                let hw = h * w;
                for (off, v) in out.data_mut().iter_mut().enumerate() {
                    let ch = (off / hw) % c;
                    *v = self.gamma.data()[ch] * *v + self.beta.data()[ch];
                }
            }
            2 => {
                let last = x.shape()[1];
                if last != n {
                    return Err(DnnError::ShapeMismatch {
                        context: "ScaleShift::forward",
                        expected: format!("{n} features"),
                        actual: format!("{last}"),
                    });
                }
                for (off, v) in out.data_mut().iter_mut().enumerate() {
                    let fidx = off % last;
                    *v = self.gamma.data()[fidx] * *v + self.beta.data()[fidx];
                }
            }
            r => {
                return Err(DnnError::ShapeMismatch {
                    context: "ScaleShift::forward",
                    expected: "rank 2 or 4 input".into(),
                    actual: format!("rank {r}"),
                })
            }
        }
        Ok(out)
    }

    fn quantize_weights(&mut self, codec: &ValueCodec) {
        codec.quantize_slice(self.gamma.data_mut());
        codec.quantize_slice(self.beta.data_mut());
    }

    fn region_map(
        &self,
        input_shapes: &[&[usize]],
        h: (usize, usize),
        w: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
        (input_shapes.first()?.len() == 4).then_some((h, w))
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
        if x.rank() != 4 || out.shape() != x.shape() || x.shape()[1] != self.gamma.len() {
            return Ok(false);
        }
        let hw = x.shape()[2] * x.shape()[3];
        let c = x.shape()[1];
        let src = x.data();
        let (gamma, beta) = (self.gamma.data(), self.beta.data());
        let dst = out.data_mut();
        for_each_window_row(x.shape(), h, w, |a, b| {
            let ch = (a / hw) % c;
            let (g, bt) = (gamma[ch], beta[ch]);
            for (d, s) in dst[a..b].iter_mut().zip(&src[a..b]) {
                *d = g * *s + bt;
            }
        });
        Ok(true)
    }
}

/// Layer normalization over the last dimension (Transformer blocks).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    name: String,
    gamma: Tensor,
    beta: Tensor,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer norm with learned per-feature `gamma`/`beta`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] unless both are rank 1 and equal
    /// length.
    pub fn new(name: impl Into<String>, gamma: Tensor, beta: Tensor) -> Result<Self, DnnError> {
        if gamma.rank() != 1 || beta.rank() != 1 || gamma.len() != beta.len() || gamma.is_empty() {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "layernorm params must be equal-length rank-1, got {:?} and {:?}",
                    gamma.shape(),
                    beta.shape()
                ),
            });
        }
        Ok(LayerNorm {
            name: name.into(),
            gamma,
            beta,
            eps: 1e-5,
        })
    }

    /// Normalizes one row of `gamma.len()` features in place: the math of
    /// both [`Layer::forward`] and [`Layer::forward_region`].
    fn normalize_row(&self, row: &mut [f32]) {
        let last = row.len();
        let mean: f32 = row.iter().sum::<f32>() / last as f32;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / last as f32;
        let denom = (var + self.eps).sqrt();
        for (i, v) in row.iter_mut().enumerate() {
            *v = self.gamma.data()[i] * ((*v - mean) / denom) + self.beta.data()[i];
        }
    }
}

impl Layer for LayerNorm {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Norm
    }

    fn weights(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        let x = inputs[0];
        let last = *x.shape().last().unwrap_or(&0);
        if last != self.gamma.len() || last == 0 {
            return Err(DnnError::ShapeMismatch {
                context: "LayerNorm::forward",
                expected: format!("last dim {}", self.gamma.len()),
                actual: format!("{last}"),
            });
        }
        let mut out = ws.clone_of(x);
        for row in out.data_mut().chunks_exact_mut(last) {
            self.normalize_row(row);
        }
        Ok(out)
    }

    fn quantize_weights(&mut self, codec: &ValueCodec) {
        codec.quantize_slice(self.gamma.data_mut());
        codec.quantize_slice(self.beta.data_mut());
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
        let [_, _, _, cols] = plane_dims(input_shapes.first()?)?;
        (cols == self.gamma.len()).then_some((h, ALL_COLUMNS))
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
        if cols != self.gamma.len() || out.shape() != x.shape() {
            return Ok(false);
        }
        let src = x.data();
        let dst = out.data_mut();
        for_each_window_row(x.shape(), h, (0, cols), |a, b| {
            dst[a..b].copy_from_slice(&src[a..b]);
            for row in dst[a..b].chunks_exact_mut(cols) {
                self.normalize_row(row);
            }
        });
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_shift_4d() {
        let ss = ScaleShift::new(
            "bn",
            Tensor::from_slice(&[2.0, 0.5]),
            Tensor::from_slice(&[1.0, 0.0]),
        )
        .unwrap();
        let x = Tensor::full(vec![1, 2, 1, 1], 4.0);
        let y = ss.forward_alloc(&[&x]).unwrap();
        assert_eq!(y.at4(0, 0, 0, 0), 9.0);
        assert_eq!(y.at4(0, 1, 0, 0), 2.0);
    }

    /// A windowed recompute writes exactly what `forward` writes inside the
    /// window and nothing outside it, for random windows including clipped
    /// (past the edge) and empty ones; rank-2 input has no windowed path.
    #[test]
    fn scale_shift_forward_region_matches_forward() {
        let (b, c, hh, ww) = (2, 3, 5, 4);
        let ss = ScaleShift::new(
            "bn",
            crate::init::uniform_tensor(1, vec![c], 1.5),
            crate::init::uniform_tensor(2, vec![c], 0.5),
        )
        .unwrap();
        let x = crate::init::uniform_tensor(3, vec![b, c, hh, ww], 2.0);
        let full = ss.forward_alloc(&[&x]).unwrap();
        let mut rng = crate::init::SplitMix64::new(4);
        let mut ws = Workspace::new();
        for _ in 0..200 {
            let mut pick = |n: usize| {
                let lo = rng.next_below(n as u64 + 2) as usize;
                (lo, lo + rng.next_below(n as u64 + 2) as usize)
            };
            let (h, w) = (pick(hh), pick(ww));
            let sentinel = f32::from_bits(0x7FC0_1234);
            let mut out = Tensor::full(vec![b, c, hh, ww], sentinel);
            assert!(ss.forward_region(&[&x], h, w, &mut out, &mut ws).unwrap());
            for (off, (got, want)) in out.data().iter().zip(full.data()).enumerate() {
                let (r, col) = ((off / ww) % hh, off % ww);
                let inside = h.0 <= r && r < h.1 && w.0 <= col && col < w.1;
                let expect = if inside { *want } else { sentinel };
                assert_eq!(
                    got.to_bits(),
                    expect.to_bits(),
                    "window {h:?}×{w:?}, elem {off}"
                );
            }
        }
        let x2 = Tensor::full(vec![2, c], 1.0);
        let mut out2 = ss.forward_alloc(&[&x2]).unwrap();
        assert!(!ss
            .forward_region(&[&x2], (0, 1), (0, 1), &mut out2, &mut ws)
            .unwrap());
        assert_eq!(ss.region_map(&[&[2, c]], (0, 1), (0, 1)), None);
        assert_eq!(
            ss.region_map(&[&[b, c, hh, ww]], (1, 2), (0, 3)),
            Some(((1, 2), (0, 3)))
        );
    }

    #[test]
    fn scale_shift_validates() {
        assert!(ScaleShift::new(
            "bn",
            Tensor::from_slice(&[1.0]),
            Tensor::from_slice(&[1.0, 2.0])
        )
        .is_err());
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let d = 8;
        let ln = LayerNorm::new("ln", Tensor::full(vec![d], 1.0), Tensor::zeros(vec![d])).unwrap();
        let x = Tensor::from_vec(vec![1, d], (0..d).map(|v| v as f32).collect()).unwrap();
        let y = ln.forward_alloc(&[&x]).unwrap();
        let mean: f32 = y.data().iter().sum::<f32>() / d as f32;
        let var: f32 = y
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / d as f32;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_rejects_wrong_width() {
        let ln = LayerNorm::new(
            "ln",
            Tensor::from_slice(&[1.0, 1.0]),
            Tensor::from_slice(&[0.0, 0.0]),
        )
        .unwrap();
        assert!(ln.forward_alloc(&[&Tensor::zeros(vec![1, 3])]).is_err());
    }
}
