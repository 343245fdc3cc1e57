//! Software IEEE-754 binary16 ("half precision") implemented from scratch.
//!
//! NVDLA's FP16 datapath is the precision the paper validates against, so the
//! exact bit layout matters: a transient fault is a flip of one of these 16
//! bits, and whether it hits the sign, exponent, or mantissa determines the
//! perturbation magnitude (the paper's Key Result 5).
//!
//! Two entry points serve two jobs. [`F16`] is the bit-level codec: a fault
//! is injected on its 16 bits ([`F16::with_bit_flipped`]) and decoded back.
//! [`round_to_f16`] is the "fake quantization" every FP16 layer output,
//! weight and recomputed cone node goes through, so it is the engine's
//! hottest scalar function. It computes `F16::from_f32(v).to_f32()` without
//! materializing the 16-bit form: integer and select arithmetic on the `f32`
//! bits, with no branch that depends on the value, so a slice loop over it
//! vectorizes. A test sweeps all 2³² `f32` bit patterns against the codec
//! round trip, NaN payloads included.

use std::fmt;

/// An IEEE-754 binary16 value stored as its raw 16 bits.
///
/// Layout: 1 sign bit (bit 15), 5 exponent bits (bits 14–10, bias 15),
/// 10 mantissa bits (bits 9–0).
///
/// # Examples
///
/// ```
/// use fidelity_dnn::f16::F16;
///
/// let x = F16::from_f32(1.5);
/// assert_eq!(x.to_f32(), 1.5);
/// assert_eq!(x.to_bits(), 0x3E00);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A canonical quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest positive normal value (2^-14).
    pub const MIN_POSITIVE: F16 = F16(0x0400);

    /// Number of storage bits.
    pub const BITS: u32 = 16;

    /// Reinterprets raw bits as an `F16`.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even, the IEEE default and
    /// what hardware convert units implement.
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x7F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN. Preserve a NaN payload bit so NaN stays NaN.
            let payload = if mant != 0 { 0x0200 } else { 0 };
            return F16(sign | 0x7C00 | payload | ((mant >> 13) as u16 & 0x03FF));
        }

        // Unbiased exponent.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflows to infinity.
            return F16(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal range. Round mantissa from 23 to 10 bits, RNE.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let shift = 13u32;
            let kept = (mant >> shift) as u16;
            let rem = mant & ((1 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let mut out = sign | half_exp | kept;
            if rem > halfway || (rem == halfway && (kept & 1) == 1) {
                out = out.wrapping_add(1); // may carry into exponent: correct (rounds up to next binade / infinity)
            }
            return F16(out);
        }
        if unbiased >= -25 {
            // Subnormal range: implicit leading 1 becomes explicit, shifted.
            let full_mant = mant | 0x80_0000;
            let shift = (-(unbiased + 14) + 13) as u32;
            if shift >= 32 {
                return F16(sign);
            }
            let kept = (full_mant >> shift) as u16;
            let rem = full_mant & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let mut out = sign | kept;
            if rem > halfway || (rem == halfway && (kept & 1) == 1) {
                out = out.wrapping_add(1);
            }
            return F16(out);
        }
        // Underflows to signed zero.
        F16(sign)
    }

    /// Converts to `f32` exactly (every binary16 value is representable).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let mant = (self.0 & 0x03FF) as u32;

        let bits = if exp == 0 {
            if mant == 0 {
                sign // signed zero
            } else {
                // Subnormal: normalize.
                let mut m = mant;
                let mut e = -14i32;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                m &= 0x03FF;
                sign | (((e + 127) as u32) << 23) | (m << 13)
            }
        } else if exp == 0x1F {
            if mant == 0 {
                sign | 0x7F80_0000
            } else {
                sign | 0x7FC0_0000 | (mant << 13)
            }
        } else {
            sign | ((exp + 127 - 15) << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }

    /// True for positive or negative infinity.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// True for any NaN pattern.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// True when neither infinite nor NaN.
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// Returns this value with bit `bit` (0 = LSB, 15 = sign) flipped.
    ///
    /// This is the fundamental transient-fault primitive.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 16`.
    pub fn with_bit_flipped(self, bit: u32) -> Self {
        assert!(
            bit < Self::BITS,
            "bit index {bit} out of range for binary16"
        );
        F16(self.0 ^ (1 << bit))
    }
}

impl From<f32> for F16 {
    fn from(value: f32) -> Self {
        F16::from_f32(value)
    }
}

impl From<F16> for f32 {
    fn from(value: F16) -> Self {
        value.to_f32()
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({}; 0x{:04X})", self.to_f32(), self.0)
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Rounds an `f32` to the nearest representable binary16 value, returned as
/// `f32`. This is the "fake quantization" step applied after FP16 layers.
///
/// Bit-identical to `F16::from_f32(value).to_f32()` for every input (an
/// exhaustive test sweeps all 2³² bit patterns), but branch-free. With
/// `a` the magnitude bits of `value`, three candidates are computed and one
/// is selected by range:
///
/// * **normal** (`2⁻¹⁴ ≤ |v|`): binary16 keeps the top 10 of the 23 `f32`
///   mantissa bits, so round-to-nearest-even at bit 13 is
///   `(a + 0xFFF + ((a >> 13) & 1)) & !0x1FFF`: adding just under half an
///   ulp, plus one when the kept LSB is odd, carries into bit 13 exactly
///   when RNE rounds up. A carry out of the mantissa bumps the exponent,
///   which is the correct next binade. A result ≥ 65536 (`2¹⁶`) is beyond
///   binary16's range and becomes ∞; so does an `f32` ∞.
/// * **subnormal** (`|v| < 2⁻¹⁴`): binary16's subnormal spacing is `2⁻²⁴`,
///   which is the `f32` ulp on `[0.5, 1)`. So `(|v| + 0.5) − 0.5` rounds
///   to that grid with the FPU's own RNE, and the subtraction is exact.
/// * **NaN** (`a > 0x7F80_0000`): binary16 keeps the top 10 payload bits
///   and quiets the NaN, so it decodes to `0x7FC0_0000 | (a & 0x007F_E000)`.
///
/// The sign bit is ORed back in, so `-0.0`, negative subnormals that round
/// to zero and negative NaNs keep it, as the codec does.
///
/// # Examples
///
/// ```
/// use fidelity_dnn::f16::round_to_f16;
///
/// assert_eq!(round_to_f16(1.0009765625), 1.0009765625); // exactly representable
/// assert_eq!(round_to_f16(100000.0), f32::INFINITY);    // overflows binary16
/// ```
#[inline]
pub fn round_to_f16(value: f32) -> f32 {
    const MIN_NORMAL: u32 = 0x3880_0000; // 2^-14
    const OVERFLOW: u32 = 0x4780_0000; // 2^16
    const INF: u32 = 0x7F80_0000;
    let bits = value.to_bits();
    let sign = bits & 0x8000_0000;
    let a = bits & 0x7FFF_FFFF;

    let rne = (a + 0xFFF + ((a >> 13) & 1)) & !0x1FFF;
    let normal = if rne >= OVERFLOW { INF } else { rne };
    let subnormal = ((f32::from_bits(a) + 0.5) - 0.5).to_bits();
    let nan = 0x7FC0_0000 | (a & 0x007F_E000);

    let magnitude = if a > INF {
        nan
    } else if a < MIN_NORMAL {
        subnormal
    } else {
        normal
    };
    f32::from_bits(sign | magnitude)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_constants() {
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(F16::from_f32(-2.0).to_bits(), 0xC000);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(F16::from_f32(5.9604645e-8).to_bits(), 0x0001); // smallest subnormal
        assert_eq!(F16::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(F16::from_f32(0.099975586).to_bits(), 0x2E66);
    }

    #[test]
    fn round_trip_exact_for_representable() {
        for bits in 0u16..=0xFFFF {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(
                    F16::from_f32(h.to_f32()).to_bits(),
                    bits,
                    "bits 0x{bits:04X}"
                );
            }
        }
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(F16::from_f32(70000.0).is_infinite());
        assert!(F16::from_f32(-70000.0).is_infinite());
        assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::NAN.to_f32().is_nan());
    }

    #[test]
    fn underflow_to_zero() {
        assert_eq!(F16::from_f32(1e-10).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-1e-10).to_bits(), 0x8000);
    }

    #[test]
    fn round_to_nearest_even() {
        // 2048.5 is exactly between 2048 and 2050 in binary16 (ulp=2 there);
        // RNE picks the even mantissa (2048).
        assert_eq!(round_to_f16(2049.0), 2048.0);
        assert_eq!(round_to_f16(2051.0), 2052.0);
    }

    #[test]
    fn bit_flip_examples() {
        // Sign-bit flip negates.
        let one = F16::from_f32(1.0);
        assert_eq!(one.with_bit_flipped(15).to_f32(), -1.0);
        // MSB-of-exponent flip on 1.0 jumps to 2^16 => overflow territory.
        let big = one.with_bit_flipped(14).to_f32();
        assert!(big > 60000.0);
        // LSB mantissa flip is a tiny perturbation.
        let tiny = one.with_bit_flipped(0).to_f32();
        assert!((tiny - 1.0).abs() < 0.001 && tiny != 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_flip_rejects_out_of_range() {
        let _ = F16::ONE.with_bit_flipped(16);
    }

    /// `round_to_f16` is the codec round trip on every `f32` bit pattern,
    /// NaN payloads and signed zeros included. The 2³² sweep is split
    /// across all cores; it takes ~15 s on two.
    #[test]
    fn round_to_f16_matches_codec_on_all_f32() {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get) as u64;
        let total = 1u64 << 32;
        let chunk = total.div_ceil(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (lo, hi) = (t * chunk, ((t + 1) * chunk).min(total));
                scope.spawn(move || {
                    for bits in lo..hi {
                        let v = f32::from_bits(bits as u32);
                        let want = F16::from_f32(v).to_f32().to_bits();
                        let got = round_to_f16(v).to_bits();
                        assert_eq!(got, want, "input 0x{bits:08X}");
                    }
                });
            }
        });
    }

    #[test]
    fn round_to_f16_fixes_every_f16_value() {
        for bits in 0u16..=0xFFFF {
            let v = F16::from_bits(bits).to_f32();
            assert_eq!(round_to_f16(v).to_bits(), v.to_bits(), "bits 0x{bits:04X}");
        }
    }

    #[test]
    fn subnormal_round_trip() {
        // 2^-24 = smallest subnormal
        let v = 2f32.powi(-24);
        assert_eq!(F16::from_f32(v).to_bits(), 0x0001);
        assert_eq!(F16::from_bits(0x0001).to_f32(), v);
        // Largest subnormal: 0x03FF
        let big_sub = F16::from_bits(0x03FF).to_f32();
        assert!(big_sub < 2f32.powi(-14));
        assert_eq!(F16::from_f32(big_sub).to_bits(), 0x03FF);
    }
}
