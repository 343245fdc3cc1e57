//! Differential-oracle property tests for the MAC lane kernels.
//!
//! One register-blocked lane kernel runs conv, dense and matmul: SIMD lanes
//! across *independent* outputs (conv output channels, dense output
//! features, matmul output columns) in 8- or 16-lane blocks, over tiles of
//! up to 4 positions (conv output positions, dense and matmul rows). It must
//! be byte-identical to the scalar `compute_at` oracle for every shape —
//! including partly filled lane blocks and tiles — and every input class,
//! including NaN, ±∞, denormals and signed zeros.

use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::macspec::{
    conv_out_window, ConvSpec, DenseSpec, KernelScratch, MacSpec, MatMulSpec, Operands,
};
use fidelity_dnn::tensor::Tensor;
use proptest::prelude::*;

/// Bit image of a value for differential comparison, with NaNs collapsed to
/// one canonical payload. Which outputs are NaN is fully deterministic, but
/// the *payload* of a NaN is the one IEEE bit pattern the compiler may
/// legally vary between code locations (float add/mul commute in LLVM, and
/// x86 NaN propagation picks the payload by operand order), so two
/// differently-located but semantically identical accumulations can emit
/// e.g. `0x7FC00000` vs `0xFFC00000`. Every campaign-visible statistic
/// (outcomes, masking bits, checkpoint bytes) is NaN-payload-insensitive.
fn canon_bits(v: f32) -> u32 {
    if v.is_nan() {
        0x7FC0_0000
    } else {
        v.to_bits()
    }
}

/// Fills a tensor from a seeded stream, salting in the awkward input
/// classes (NaN, infinities, denormals, signed zeros) at ~1-in-6 density.
fn adversarial_tensor(seed: u64, shape: Vec<usize>) -> Tensor {
    const SPECIALS: [f32; 8] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.0e-40,  // subnormal
        -1.0e-42, // subnormal
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
    ];
    let mut rng = SplitMix64::new(seed);
    let len = shape.iter().product();
    let mut data = Vec::with_capacity(len);
    for _ in 0..len {
        let r = rng.next_u64();
        if r.is_multiple_of(6) {
            data.push(SPECIALS[(r >> 8) as usize % SPECIALS.len()]);
        } else {
            data.push(rng.next_symmetric(8.0));
        }
    }
    Tensor::from_vec(shape, data).unwrap()
}

fn operand_shapes(spec: &MacSpec) -> (Vec<usize>, Vec<usize>) {
    match spec {
        MacSpec::Conv(c) => (
            vec![c.batch, c.in_c, c.in_h, c.in_w],
            vec![c.out_c, c.group_in_c(), c.kh, c.kw],
        ),
        MacSpec::Dense(d) => (
            vec![d.batch, d.in_features],
            vec![d.out_features, d.in_features],
        ),
        MacSpec::MatMul(m) => {
            let b = if m.transpose_b {
                vec![m.batch, m.n, m.k]
            } else {
                vec![m.batch, m.k, m.n]
            };
            (vec![m.batch, m.m, m.k], b)
        }
    }
}

/// Asserts the packed kernel agrees bit-for-bit with the
/// scalar per-neuron oracle on adversarial operands.
fn assert_kernel_matches_oracle(spec: &MacSpec, seed: u64) -> Result<(), TestCaseError> {
    let (in_shape, w_shape) = operand_shapes(spec);
    let input = adversarial_tensor(seed, in_shape);
    let weight = adversarial_tensor(seed ^ 0xABCD_EF01, w_shape);
    let ops = Operands {
        input: &input,
        weight: &weight,
    };
    let mut scratch = KernelScratch::new();
    let mut out = vec![0.0f32; spec.out_len()];
    spec.forward_into_scratch(&ops, &mut out, &mut scratch);
    for (off, v) in out.iter().enumerate() {
        let oracle = spec.compute_at(&ops, off, None);
        prop_assert_eq!(
            canon_bits(*v),
            canon_bits(oracle),
            "packed kernel != compute_at oracle at neuron {} ({:?})",
            off,
            spec
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `conv_out_window` is a conservative superset: every output whose
    /// receptive field touches the input window must land inside the mapped
    /// output window (brute-forced over all taps).
    #[test]
    fn conv_out_window_covers_receptive_fields(
        dim in 1usize..9,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        dilation in 1usize..3,
        lo in 0usize..9,
        span in 0usize..9,
    ) {
        let out_dim = {
            let span_needed = dilation * (k - 1) + 1;
            let padded = dim + 2 * padding;
            if padded < span_needed { 0 } else { (padded - span_needed) / stride + 1 }
        };
        let hi = (lo + span).min(dim);
        let lo = lo.min(hi);
        let (out_lo, out_hi) = conv_out_window((lo, hi), k, stride, padding, dilation, out_dim);
        prop_assert!(out_hi <= out_dim);
        for oy in 0..out_dim {
            let mut touches = false;
            for tap in 0..k {
                let coord = oy * stride + tap * dilation;
                if coord >= padding {
                    let iy = coord - padding;
                    if iy < dim && iy >= lo && iy < hi {
                        touches = true;
                    }
                }
            }
            if touches {
                prop_assert!(
                    oy >= out_lo && oy < out_hi,
                    "output {} touches input window [{}, {}) but mapped window is [{}, {})",
                    oy, lo, hi, out_lo, out_hi
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dense: rows 1..=11 give full 4-row tiles followed by a leftover of
    /// 1–3 rows; `out_features` 1..=40, drawn exactly 8, 16 and 24 often,
    /// gives one partly filled 8-lane block, full and padded 16-lane
    /// blocks, and several blocks; `in_features` 1..=40 the contraction.
    #[test]
    fn dense_kernel_is_bit_identical(
        batch in 1usize..12,
        in_features in 1usize..41,
        out_features in prop_oneof![Just(8usize), Just(16), Just(24), 1usize..41],
        seed in 0u64..u64::MAX,
    ) {
        let spec = MacSpec::Dense(DenseSpec { batch, in_features, out_features });
        assert_kernel_matches_oracle(&spec, seed)?;
    }

    /// MatMul, both storage orders, batched: `m` 1..=11 rows per batch
    /// (full tiles and leftovers, which never straddle two batches), `n`
    /// 1..=40 output columns (multi-block 16-lane panels, padded last
    /// blocks), `k` 1..=40.
    #[test]
    fn matmul_kernel_is_bit_identical(
        batch in 1usize..4,
        m in 1usize..12,
        k in 1usize..41,
        n in prop_oneof![Just(8usize), Just(16), Just(24), 1usize..41],
        transpose_b in prop_oneof![Just(false), Just(true)],
        seed in 0u64..u64::MAX,
    ) {
        let spec = MacSpec::MatMul(MatMulSpec { batch, m, k, n, transpose_b });
        assert_kernel_matches_oracle(&spec, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conv with stride / padding / dilation / groups variation: output
    /// channels per group across 1..=40 (one per group, depthwise when the
    /// group has one input channel too, takes the depthwise kernel; 2..=8 a
    /// partly or fully filled 8-lane block; more, full and partial 16-lane
    /// blocks), `in_w` up to 20 (full 4-position tiles, the depthwise row
    /// kernel's 8-column threshold, single-position tiles at padded
    /// edges).
    #[test]
    fn conv_kernel_is_bit_identical(
        in_c_per_group in prop_oneof![Just(1usize), 2usize..4],
        groups in 1usize..4,
        out_c_per_group in prop_oneof![Just(1usize), 2usize..9, 9usize..17, 17usize..41],
        in_h in 1usize..7,
        in_w in 1usize..21,
        kh in 1usize..4,
        kw in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        dilation in 1usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let spec = MacSpec::Conv(ConvSpec {
            batch: 1 + (seed % 2) as usize,
            in_c: in_c_per_group * groups,
            in_h,
            in_w,
            out_c: out_c_per_group * groups,
            kh,
            kw,
            stride: (stride, stride),
            padding: (padding, padding),
            dilation: (dilation, dilation),
            groups,
        });
        assert_kernel_matches_oracle(&spec, seed)?;
    }

    /// The windowed conv kernel writes bits identical to the full kernel
    /// inside the window and leaves everything outside untouched: grouped
    /// and depthwise, up to 40 output channels per group, stride and
    /// dilation 2, windows down to a single position (`hspan`/`wspan` of 1,
    /// drawn often) and empty ones.
    #[test]
    fn conv_window_kernel_matches_full_kernel(
        in_c_per_group in prop_oneof![Just(1usize), 2usize..4],
        groups in 1usize..4,
        out_c_per_group in prop_oneof![Just(1usize), 2usize..9, 9usize..17, 17usize..41],
        in_h in 1usize..7,
        in_w in 1usize..21,
        kh in 1usize..4,
        kw in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        dilation in 1usize..3,
        h0 in 0usize..8,
        hspan in prop_oneof![Just(1usize), 0usize..8],
        w0 in 0usize..20,
        wspan in prop_oneof![Just(1usize), 0usize..20],
        seed in 0u64..u64::MAX,
    ) {
        let c = ConvSpec {
            batch: 2,
            in_c: in_c_per_group * groups,
            in_h,
            in_w,
            out_c: out_c_per_group * groups,
            kh,
            kw,
            stride: (stride, stride),
            padding: (padding, padding),
            dilation: (dilation, dilation),
            groups,
        };
        let (oh, ow) = (c.out_h(), c.out_w());
        let spec = MacSpec::Conv(c);
        let (in_shape, w_shape) = operand_shapes(&spec);
        let input = adversarial_tensor(seed, in_shape);
        let weight = adversarial_tensor(seed ^ 0xC0FFEE, w_shape);
        let ops = Operands { input: &input, weight: &weight };

        let mut scratch = KernelScratch::new();
        let mut full = vec![0.0f32; spec.out_len()];
        spec.forward_into_scratch(&ops, &mut full, &mut scratch);

        const SENTINEL: f32 = 7777.5;
        let mut windowed = vec![SENTINEL; spec.out_len()];
        let window = ((h0, h0 + hspan), (w0, w0 + wspan));
        prop_assert!(spec.forward_region_into_scratch(
            &ops, &mut windowed, &mut scratch, window.0, window.1
        ));

        let (h0c, h1c) = (window.0.0.min(oh), window.0.1.min(oh));
        let (w0c, w1c) = (window.1.0.min(ow), window.1.1.min(ow));
        for (off, got) in windowed.iter().enumerate() {
            let y = (off / ow) % oh;
            let x = off % ow;
            let inside = y >= h0c && y < h1c && x >= w0c && x < w1c;
            if inside {
                prop_assert_eq!(canon_bits(*got), canon_bits(full[off]), "window bits at {}", off);
            } else {
                prop_assert_eq!(got.to_bits(), SENTINEL.to_bits(), "outside window at {}", off);
            }
        }
    }
}
