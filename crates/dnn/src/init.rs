//! Deterministic synthetic weight/data generation.
//!
//! Workloads substitute trained parameters with deterministic pseudo-random
//! values (see DESIGN.md §2): resilience phenomena depend on network
//! structure and numeric format, not on the particular trained weights. A
//! small SplitMix64 generator keeps every experiment bit-reproducible across
//! runs and platforms without threading an RNG through every builder.

use fidelity_obs::fnv::Fnv64;

use crate::tensor::Tensor;

/// A tiny deterministic SplitMix64 stream.
///
/// # Examples
///
/// ```
/// use fidelity_dnn::init::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The current internal state. `SplitMix64::new(state)` reconstructs a
    /// stream that continues exactly where this one is — which is how
    /// checkpointable consumers (the adaptive campaign planner) persist and
    /// resume a stream mid-way without replaying its prefix.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform value in `[-bound, bound)`.
    pub fn next_symmetric(&mut self, bound: f32) -> f32 {
        (self.next_f32() * 2.0 - 1.0) * bound
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range must be non-empty");
        // Multiply-shift reduction; bias is negligible for our ranges.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A tensor of uniform values in `[-bound, bound)`, deterministic in
/// `(seed, shape)`.
pub fn uniform_tensor(seed: u64, shape: Vec<usize>, bound: f32) -> Tensor {
    let mut rng = SplitMix64::new(seed ^ mix_shape(&shape));
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| rng.next_symmetric(bound)).collect();
    Tensor::from_vec(shape, data).expect("shape/product consistent by construction")
}

/// Kaiming-style fan-in scaled weights: uniform in `±sqrt(3 / fan_in)`.
///
/// Keeps activations in a stable range through deep stacks, which matters for
/// the quantized deployments (a blown-up dynamic range would make INT8
/// useless and distort the FIT comparison across precisions).
pub fn kaiming_tensor(seed: u64, shape: Vec<usize>, fan_in: usize) -> Tensor {
    let bound = (3.0 / fan_in.max(1) as f32).sqrt();
    uniform_tensor(seed, shape, bound)
}

fn mix_shape(shape: &[usize]) -> u64 {
    let mut h = Fnv64::new();
    for &d in shape {
        h.word(d as u64);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        let a = uniform_tensor(42, vec![3, 3], 1.0);
        let b = uniform_tensor(42, vec![3, 3], 1.0);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn different_seeds_differ() {
        let a = uniform_tensor(1, vec![8], 1.0);
        let b = uniform_tensor(2, vec![8], 1.0);
        assert_ne!(a.data(), b.data());
    }

    #[test]
    fn values_within_bound() {
        let t = uniform_tensor(3, vec![1000], 0.5);
        assert!(t.data().iter().all(|v| v.abs() <= 0.5));
        // And actually spread out.
        assert!(t.max_abs() > 0.25);
    }

    #[test]
    fn kaiming_scales_with_fan_in() {
        let small_fan = kaiming_tensor(5, vec![100], 3);
        let big_fan = kaiming_tensor(5, vec![100], 300);
        assert!(small_fan.max_abs() > big_fan.max_abs());
    }

    #[test]
    fn next_below_is_in_range() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(rng.next_below(7) < 7);
        }
    }
}
