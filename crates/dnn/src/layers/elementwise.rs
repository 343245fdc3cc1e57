//! Element-wise arithmetic, bias addition, and concatenation.

use crate::error::DnnError;
use crate::layers::{check_arity, for_each_window_row, plane_dims, Layer, LayerKind, ALL_COLUMNS};
use crate::precision::ValueCodec;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Bias addition.
///
/// For rank-4 inputs the bias is per channel (`[c]`); for rank 2/3 it is per
/// last-dimension feature.
///
/// # Examples
///
/// ```
/// use fidelity_dnn::layers::{BiasAdd, Layer};
/// use fidelity_dnn::tensor::Tensor;
///
/// # fn main() -> Result<(), fidelity_dnn::error::DnnError> {
/// let bias = BiasAdd::new("b", Tensor::from_slice(&[1.0, -1.0]))?;
/// let x = Tensor::from_vec(vec![1, 2], vec![10.0, 10.0])?;
/// assert_eq!(bias.forward_alloc(&[&x])?.data(), &[11.0, 9.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BiasAdd {
    name: String,
    bias: Tensor,
}

impl BiasAdd {
    /// Creates a bias layer from a rank-1 bias vector.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] for a non-rank-1 or empty bias.
    pub fn new(name: impl Into<String>, bias: Tensor) -> Result<Self, DnnError> {
        if bias.rank() != 1 || bias.is_empty() {
            return Err(DnnError::InvalidConfig {
                message: format!("bias must be non-empty rank 1, got {:?}", bias.shape()),
            });
        }
        Ok(BiasAdd {
            name: name.into(),
            bias,
        })
    }
}

impl Layer for BiasAdd {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Bias
    }

    fn weights(&self) -> Vec<&Tensor> {
        vec![&self.bias]
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        let x = inputs[0];
        let n = self.bias.len();
        let mut out = ws.clone_of(x);
        match x.rank() {
            4 => {
                let (c, h, w) = (x.shape()[1], x.shape()[2], x.shape()[3]);
                if c != n {
                    return Err(DnnError::ShapeMismatch {
                        context: "BiasAdd::forward",
                        expected: format!("{n} channels"),
                        actual: format!("{c}"),
                    });
                }
                let hw = h * w;
                for (off, v) in out.data_mut().iter_mut().enumerate() {
                    let ch = (off / hw) % c;
                    *v += self.bias.data()[ch];
                }
            }
            2 | 3 => {
                let last = *x.shape().last().expect("rank >= 2");
                if last != n {
                    return Err(DnnError::ShapeMismatch {
                        context: "BiasAdd::forward",
                        expected: format!("{n} features"),
                        actual: format!("{last}"),
                    });
                }
                for (off, v) in out.data_mut().iter_mut().enumerate() {
                    *v += self.bias.data()[off % last];
                }
            }
            r => {
                return Err(DnnError::ShapeMismatch {
                    context: "BiasAdd::forward",
                    expected: "rank 2, 3 or 4 input".into(),
                    actual: format!("rank {r}"),
                })
            }
        }
        Ok(out)
    }

    fn quantize_weights(&mut self, codec: &ValueCodec) {
        codec.quantize_slice(self.bias.data_mut());
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
        if x.rank() != 4 || out.shape() != x.shape() || x.shape()[1] != self.bias.len() {
            return Ok(false);
        }
        let hw = x.shape()[2] * x.shape()[3];
        let c = x.shape()[1];
        let src = x.data();
        let bias = self.bias.data();
        let dst = out.data_mut();
        for_each_window_row(x.shape(), h, w, |a, b| {
            let ch = (a / hw) % c;
            let bv = bias[ch];
            for (d, s) in dst[a..b].iter_mut().zip(&src[a..b]) {
                *d = s + bv;
            }
        });
        Ok(true)
    }
}

/// Element-wise addition of two equal-shaped tensors (residual connections).
#[derive(Debug, Clone)]
pub struct Add {
    name: String,
}

impl Add {
    /// Creates an addition layer.
    pub fn new(name: impl Into<String>) -> Self {
        Add { name: name.into() }
    }
}

impl Layer for Add {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Elementwise
    }

    fn arity(&self) -> Option<usize> {
        Some(2)
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 2, inputs.len())?;
        binary_elementwise(inputs[0], inputs[1], "Add::forward", ws, |a, b| a + b)
    }

    fn region_map(
        &self,
        input_shapes: &[&[usize]],
        h: (usize, usize),
        w: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
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
        check_arity(&self.name, 2, inputs.len())?;
        binary_elementwise_region(inputs[0], inputs[1], h, w, out, |a, b| a + b)
    }
}

/// Element-wise multiplication of two equal-shaped tensors (LSTM gating).
#[derive(Debug, Clone)]
pub struct Mul {
    name: String,
}

impl Mul {
    /// Creates a multiplication layer.
    pub fn new(name: impl Into<String>) -> Self {
        Mul { name: name.into() }
    }
}

impl Layer for Mul {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Elementwise
    }

    fn arity(&self) -> Option<usize> {
        Some(2)
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 2, inputs.len())?;
        binary_elementwise(inputs[0], inputs[1], "Mul::forward", ws, |a, b| a * b)
    }

    fn region_map(
        &self,
        input_shapes: &[&[usize]],
        h: (usize, usize),
        w: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
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
        check_arity(&self.name, 2, inputs.len())?;
        binary_elementwise_region(inputs[0], inputs[1], h, w, out, |a, b| a * b)
    }
}

/// Windowed counterpart of [`binary_elementwise`] for rank-4 and rank-2
/// operands.
fn binary_elementwise_region(
    a: &Tensor,
    b: &Tensor,
    h: (usize, usize),
    w: (usize, usize),
    out: &mut Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Result<bool, DnnError> {
    if plane_dims(a.shape()).is_none() || a.shape() != b.shape() || out.shape() != a.shape() {
        return Ok(false);
    }
    let ad = a.data();
    let bd = b.data();
    let dst = out.data_mut();
    for_each_window_row(a.shape(), h, w, |lo, hi| {
        for i in lo..hi {
            dst[i] = f(ad[i], bd[i]);
        }
    });
    Ok(true)
}

fn binary_elementwise(
    a: &Tensor,
    b: &Tensor,
    context: &'static str,
    ws: &mut Workspace,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Tensor, DnnError> {
    if a.shape() != b.shape() {
        return Err(DnnError::ShapeMismatch {
            context,
            expected: format!("{:?}", a.shape()),
            actual: format!("{:?}", b.shape()),
        });
    }
    let mut out = ws.clone_of(a);
    for (v, &bv) in out.data_mut().iter_mut().zip(b.data()) {
        *v = f(*v, bv);
    }
    Ok(out)
}

/// Multiplication by a compile-time constant (attention `1/√d` scaling).
#[derive(Debug, Clone)]
pub struct Scale {
    name: String,
    factor: f32,
}

impl Scale {
    /// Creates a constant-scale layer.
    pub fn new(name: impl Into<String>, factor: f32) -> Self {
        Scale {
            name: name.into(),
            factor,
        }
    }
}

impl Layer for Scale {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Elementwise
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        let mut out = ws.clone_of(inputs[0]);
        out.map_inplace(|v| v * self.factor);
        Ok(out)
    }

    fn region_map(
        &self,
        input_shapes: &[&[usize]],
        h: (usize, usize),
        w: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
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
                *d = s * self.factor;
            }
        });
        Ok(true)
    }
}

/// Concatenation along a given axis (inception modules, Yolo routes).
#[derive(Debug, Clone)]
pub struct Concat {
    name: String,
    axis: usize,
}

impl Concat {
    /// Creates a concatenation layer along `axis`.
    pub fn new(name: impl Into<String>, axis: usize) -> Self {
        Concat {
            name: name.into(),
            axis,
        }
    }
}

impl Layer for Concat {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Elementwise
    }

    fn arity(&self) -> Option<usize> {
        None // variadic
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        if inputs.is_empty() {
            return Err(DnnError::ArityMismatch {
                layer: self.name.clone(),
                expected: 1,
                actual: 0,
            });
        }
        let rank = inputs[0].rank();
        if self.axis >= rank {
            return Err(DnnError::InvalidConfig {
                message: format!("concat axis {} out of range for rank {rank}", self.axis),
            });
        }
        let mut out_shape = ws.shape_vec(inputs[0].shape());
        for t in &inputs[1..] {
            if t.rank() != rank {
                return Err(DnnError::ShapeMismatch {
                    context: "Concat::forward",
                    expected: format!("rank {rank}"),
                    actual: format!("rank {}", t.rank()),
                });
            }
            for (d, (&a, &b)) in out_shape.iter().zip(t.shape()).enumerate() {
                if d != self.axis && a != b {
                    return Err(DnnError::ShapeMismatch {
                        context: "Concat::forward",
                        expected: format!("dim {d} = {a}"),
                        actual: format!("{b}"),
                    });
                }
            }
            out_shape[self.axis] += t.shape()[self.axis];
        }

        let outer: usize = out_shape[..self.axis].iter().product();
        let inner: usize = out_shape[self.axis + 1..].iter().product();
        let mut out = ws.zeros(&out_shape);
        let mut axis_off = 0usize;
        for t in inputs {
            let t_axis = t.shape()[self.axis];
            for o in 0..outer {
                let src = &t.data()[o * t_axis * inner..(o + 1) * t_axis * inner];
                let dst_start = (o * out_shape[self.axis] + axis_off) * inner;
                out.data_mut()[dst_start..dst_start + t_axis * inner].copy_from_slice(src);
            }
            axis_off += t_axis;
        }
        ws.recycle_shape(out_shape);
        Ok(out)
    }

    fn values_preserved(&self) -> bool {
        true // pure data movement
    }

    fn region_map(
        &self,
        input_shapes: &[&[usize]],
        h: (usize, usize),
        w: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
        // Channel concat of NCHW tensors preserves spatial coordinates, so
        // the output window is the input window; feature concat of token
        // rows keeps each row a row, across every input's features. Other
        // axes reshuffle flat layout and fall back to a full recompute.
        match (self.axis, input_shapes.first()?.len()) {
            (1, 4) => Some((h, w)),
            (1, 2) => Some((h, ALL_COLUMNS)),
            _ => None,
        }
    }

    fn forward_region(
        &self,
        inputs: &[&Tensor],
        (h0, h1): (usize, usize),
        (w0, w1): (usize, usize),
        out: &mut Tensor,
        ws: &mut Workspace,
    ) -> Result<bool, DnnError> {
        let _ = ws;
        if self.axis != 1 || inputs.is_empty() {
            return Ok(false);
        }
        let s0 = inputs[0].shape();
        if s0.len() == 2 {
            return Ok(concat_feature_rows(inputs, (h0, h1), out));
        }
        if s0.len() != 4 {
            return Ok(false);
        }
        let (bb, hh, ww) = (s0[0], s0[2], s0[3]);
        let mut total_c = 0usize;
        for t in inputs {
            let s = t.shape();
            if s.len() != 4 || s[0] != bb || s[2] != hh || s[3] != ww {
                return Ok(false);
            }
            total_c += s[1];
        }
        if out.shape() != [bb, total_c, hh, ww] {
            return Ok(false);
        }
        let (h0, h1) = (h0.min(hh), h1.min(hh));
        let (w0, w1) = (w0.min(ww), w1.min(ww));
        if h0 >= h1 || w0 >= w1 {
            return Ok(true); // empty window: nothing to move
        }
        // A full-width window is one contiguous band per channel plane.
        let (rows, span) = if w1 - w0 == ww {
            (h0..h0 + 1, (h1 - h0) * ww)
        } else {
            (h0..h1, w1 - w0)
        };
        let od = out.data_mut();
        let mut c_off = 0usize;
        for t in inputs {
            let tc = t.shape()[1];
            let td = t.data();
            for n in 0..bb {
                for ch in 0..tc {
                    let src_plane = (n * tc + ch) * hh * ww;
                    let dst_plane = (n * total_c + c_off + ch) * hh * ww;
                    for r in rows.clone() {
                        let s = src_plane + r * ww + w0;
                        let d = dst_plane + r * ww + w0;
                        od[d..d + span].copy_from_slice(&td[s..s + span]);
                    }
                }
            }
            c_off += tc;
        }
        Ok(true)
    }
}

/// Windowed feature concat of rank-2 `[tokens, features]` inputs: rows
/// `h` of each input, copied side by side into the same rows of `out`.
/// `false`, without writing, when the inputs do not share a row count or
/// `out` is not their concatenation.
fn concat_feature_rows(inputs: &[&Tensor], (h0, h1): (usize, usize), out: &mut Tensor) -> bool {
    let rows = inputs[0].shape()[0];
    let mut total = 0usize;
    for t in inputs {
        match *t.shape() {
            [r, f] if r == rows => total += f,
            _ => return false,
        }
    }
    if out.shape() != [rows, total] {
        return false;
    }
    let od = out.data_mut();
    for r in h0.min(rows)..h1.min(rows) {
        let mut dst = &mut od[r * total..(r + 1) * total];
        for t in inputs {
            let f = t.shape()[1];
            let (head, rest) = dst.split_at_mut(f);
            head.copy_from_slice(&t.data()[r * f..(r + 1) * f]);
            dst = rest;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias_add_4d_per_channel() {
        let bias = BiasAdd::new("b", Tensor::from_slice(&[1.0, 2.0])).unwrap();
        let x = Tensor::zeros(vec![1, 2, 2, 2]);
        let y = bias.forward_alloc(&[&x]).unwrap();
        assert_eq!(y.at4(0, 0, 1, 1), 1.0);
        assert_eq!(y.at4(0, 1, 0, 0), 2.0);
    }

    #[test]
    fn bias_add_rejects_mismatch() {
        let bias = BiasAdd::new("b", Tensor::from_slice(&[1.0, 2.0])).unwrap();
        assert!(bias
            .forward_alloc(&[&Tensor::zeros(vec![1, 3, 2, 2])])
            .is_err());
        assert!(bias.forward_alloc(&[&Tensor::zeros(vec![1, 3])]).is_err());
    }

    #[test]
    fn add_and_mul() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        assert_eq!(
            Add::new("a").forward_alloc(&[&a, &b]).unwrap().data(),
            &[4.0, 6.0]
        );
        assert_eq!(
            Mul::new("m").forward_alloc(&[&a, &b]).unwrap().data(),
            &[3.0, 8.0]
        );
        let c = Tensor::from_slice(&[1.0]);
        assert!(Add::new("a").forward_alloc(&[&a, &c]).is_err());
    }

    #[test]
    fn concat_channels() {
        let a = Tensor::full(vec![1, 1, 2, 2], 1.0);
        let b = Tensor::full(vec![1, 2, 2, 2], 2.0);
        let y = Concat::new("c", 1).forward_alloc(&[&a, &b]).unwrap();
        assert_eq!(y.shape(), &[1, 3, 2, 2]);
        assert_eq!(y.at4(0, 0, 0, 0), 1.0);
        assert_eq!(y.at4(0, 1, 0, 0), 2.0);
        assert_eq!(y.at4(0, 2, 1, 1), 2.0);
    }

    #[test]
    fn concat_last_axis() {
        let a = Tensor::from_vec(vec![2, 1], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(vec![2, 2], vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let y = Concat::new("c", 1).forward_alloc(&[&a, &b]).unwrap();
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.data(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn concat_validates() {
        let a = Tensor::zeros(vec![1, 2]);
        let b = Tensor::zeros(vec![2, 2]);
        assert!(Concat::new("c", 1).forward_alloc(&[&a, &b]).is_err());
        assert!(Concat::new("c", 5).forward_alloc(&[&a]).is_err());
        assert!(Concat::new("c", 0).forward_alloc(&[]).is_err());
    }

    #[test]
    fn scale_scales() {
        let s = Scale::new("s", 0.5);
        let x = Tensor::from_slice(&[4.0]);
        assert_eq!(s.forward_alloc(&[&x]).unwrap().data(), &[2.0]);
    }
}
