//! Recurrent layers.

use crate::error::DnnError;
use crate::layers::{check_arity, ActivationKind, Layer, LayerKind};
use crate::precision::ValueCodec;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// A single-direction LSTM processing a `[seq, in]` sequence and returning
/// all hidden states `[seq, hidden]`.
///
/// Gate order in the stacked weight matrices is `i, f, g, o` (input, forget,
/// cell candidate, output), matching the common TensorFlow convention.
#[derive(Debug, Clone)]
pub struct Lstm {
    name: String,
    w_ih: Tensor,
    w_hh: Tensor,
    bias: Tensor,
    hidden: usize,
}

impl Lstm {
    /// Creates an LSTM from `w_ih: [4·hidden, in]`, `w_hh: [4·hidden,
    /// hidden]` and `bias: [4·hidden]`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] when the shapes are inconsistent.
    pub fn new(
        name: impl Into<String>,
        w_ih: Tensor,
        w_hh: Tensor,
        bias: Tensor,
    ) -> Result<Self, DnnError> {
        if w_ih.rank() != 2 || w_hh.rank() != 2 || bias.rank() != 1 {
            return Err(DnnError::InvalidConfig {
                message: "lstm weights must be rank 2/2/1".into(),
            });
        }
        let four_h = w_ih.shape()[0];
        if !four_h.is_multiple_of(4) || four_h == 0 {
            return Err(DnnError::InvalidConfig {
                message: format!("lstm stacked gate dim {four_h} must be a positive multiple of 4"),
            });
        }
        let hidden = four_h / 4;
        if w_hh.shape() != [four_h, hidden] || bias.len() != four_h {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "lstm shape mismatch: w_ih {:?}, w_hh {:?}, bias {:?}",
                    w_ih.shape(),
                    w_hh.shape(),
                    bias.shape()
                ),
            });
        }
        Ok(Lstm {
            name: name.into(),
            w_ih,
            w_hh,
            bias,
            hidden,
        })
    }

    /// Hidden-state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }
}

impl Layer for Lstm {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Recurrent
    }

    fn weights(&self) -> Vec<&Tensor> {
        vec![&self.w_ih, &self.w_hh, &self.bias]
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        let x = inputs[0];
        if x.rank() != 2 || x.shape()[1] != self.w_ih.shape()[1] {
            return Err(DnnError::ShapeMismatch {
                context: "Lstm::forward",
                expected: format!("[seq, {}] input", self.w_ih.shape()[1]),
                actual: format!("{:?}", x.shape()),
            });
        }
        let (seq, in_dim) = (x.shape()[0], x.shape()[1]);
        let h = self.hidden;
        let mut hidden = ws.take_buf(h);
        let mut cell = ws.take_buf(h);
        // Fully overwritten each timestep, so one pooled buffer serves all.
        let mut gates = ws.take_buf(4 * h);
        let mut out = ws.zeros(&[seq, h]);

        for t in 0..seq {
            let xt = &x.data()[t * in_dim..(t + 1) * in_dim];
            // Gate pre-activations: bias + W_ih·x + W_hh·h.
            for (g, gate) in gates.iter_mut().enumerate() {
                let mut acc = self.bias.data()[g];
                for (i, &xv) in xt.iter().enumerate() {
                    acc += self.w_ih.data()[g * in_dim + i] * xv;
                }
                for (j, &hv) in hidden.iter().enumerate() {
                    acc += self.w_hh.data()[g * h + j] * hv;
                }
                *gate = acc;
            }
            for j in 0..h {
                let i_g = ActivationKind::Sigmoid.apply(gates[j]);
                let f_g = ActivationKind::Sigmoid.apply(gates[h + j]);
                let g_g = ActivationKind::Tanh.apply(gates[2 * h + j]);
                let o_g = ActivationKind::Sigmoid.apply(gates[3 * h + j]);
                cell[j] = f_g * cell[j] + i_g * g_g;
                hidden[j] = o_g * ActivationKind::Tanh.apply(cell[j]);
                out.set2(t, j, hidden[j]);
            }
        }
        ws.recycle_buf(hidden);
        ws.recycle_buf(cell);
        ws.recycle_buf(gates);
        Ok(out)
    }

    fn quantize_weights(&mut self, codec: &ValueCodec) {
        codec.quantize_slice(self.w_ih.data_mut());
        codec.quantize_slice(self.w_hh.data_mut());
        codec.quantize_slice(self.bias.data_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_lstm() -> Lstm {
        // hidden = 1, in = 1; all weights chosen for a hand-checkable step.
        let w_ih = Tensor::from_vec(vec![4, 1], vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let w_hh = Tensor::from_vec(vec![4, 1], vec![0.0, 0.0, 0.0, 0.0]).unwrap();
        let bias = Tensor::zeros(vec![4]);
        Lstm::new("lstm", w_ih, w_hh, bias).unwrap()
    }

    #[test]
    fn single_step_matches_manual() {
        let lstm = tiny_lstm();
        let x = Tensor::from_vec(vec![1, 1], vec![2.0]).unwrap();
        let y = lstm.forward_alloc(&[&x]).unwrap();
        // i=f=o=sigmoid(2), g=tanh(2); c=i*g; h=o*tanh(c).
        let s = 1.0 / (1.0 + (-2.0f32).exp());
        let c = s * 2.0f32.tanh();
        let expect = s * c.tanh();
        assert!((y.at2(0, 0) - expect).abs() < 1e-6);
    }

    #[test]
    fn state_carries_across_steps() {
        let lstm = tiny_lstm();
        let x1 = Tensor::from_vec(vec![1, 1], vec![1.0]).unwrap();
        let x2 = Tensor::from_vec(vec![2, 1], vec![1.0, 1.0]).unwrap();
        let y1 = lstm.forward_alloc(&[&x1]).unwrap();
        let y2 = lstm.forward_alloc(&[&x2]).unwrap();
        assert!((y2.at2(0, 0) - y1.at2(0, 0)).abs() < 1e-6);
        assert!(y2.at2(1, 0) != y2.at2(0, 0)); // second step sees carried cell state
    }

    #[test]
    fn validates_shapes() {
        let w_ih = Tensor::zeros(vec![4, 2]);
        let w_hh = Tensor::zeros(vec![4, 2]); // wrong: must be [4, 1]
        let bias = Tensor::zeros(vec![4]);
        assert!(Lstm::new("bad", w_ih, w_hh, bias).is_err());
        let lstm = tiny_lstm();
        assert!(lstm.forward_alloc(&[&Tensor::zeros(vec![1, 3])]).is_err());
    }
}
