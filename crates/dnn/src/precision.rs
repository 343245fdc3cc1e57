//! Numeric formats and the value codec that defines what a hardware bit flip
//! does to a stored value.
//!
//! Every value an accelerator datapath holds has a concrete bit
//! representation. The paper's datapath fault models are "flip one bit of one
//! stored value"; this module defines those representations for the four data
//! precisions of the evaluation (FP32 reference, FP16, INT16, INT8) so faults
//! can be injected on the *encoded* form and decoded back.

use std::fmt;

use crate::f16::{round_to_f16, F16};

/// Data precision of an accelerator datapath / DNN deployment.
///
/// # Examples
///
/// ```
/// use fidelity_dnn::precision::Precision;
///
/// assert_eq!(Precision::Int8.bits(), 8);
/// assert_eq!(Precision::Fp16.bits(), 16);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Precision {
    /// 32-bit IEEE float (software reference; no quantization applied).
    Fp32,
    /// 16-bit IEEE binary16, the NVDLA validation precision.
    #[default]
    Fp16,
    /// 16-bit symmetric fixed point (two's complement, per-tensor scale).
    Int16,
    /// 8-bit symmetric fixed point (two's complement, per-tensor scale).
    Int8,
}

impl Precision {
    /// Storage width in bits of one value in this precision.
    pub const fn bits(self) -> u32 {
        match self {
            Precision::Fp32 => 32,
            Precision::Fp16 | Precision::Int16 => 16,
            Precision::Int8 => 8,
        }
    }

    /// Whether this is a floating-point format.
    pub const fn is_float(self) -> bool {
        matches!(self, Precision::Fp32 | Precision::Fp16)
    }

    /// All precisions exercised by the paper's evaluation.
    pub const ALL: [Precision; 4] = [
        Precision::Fp32,
        Precision::Fp16,
        Precision::Int16,
        Precision::Int8,
    ];

    /// The names `fidelity analyze --precision` and job specs accept
    /// (see [`str::parse`]), the default first.
    pub const NAMES: [&'static str; 4] = ["fp16", "fp32", "int16", "int8"];
}

impl std::str::FromStr for Precision {
    type Err = String;

    /// Parses one of [`Precision::NAMES`].
    fn from_str(name: &str) -> Result<Precision, String> {
        Ok(match name {
            "fp16" => Precision::Fp16,
            "fp32" => Precision::Fp32,
            "int16" => Precision::Int16,
            "int8" => Precision::Int8,
            other => return Err(format!("unknown precision `{other}`")),
        })
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Precision::Fp32 => "FP32",
            Precision::Fp16 => "FP16",
            Precision::Int16 => "INT16",
            Precision::Int8 => "INT8",
        };
        f.write_str(s)
    }
}

/// Encoder/decoder between `f32` working values and a precision's storage
/// bits, including the per-tensor scale used by the integer formats.
///
/// Integer formats use symmetric quantization: `q = round(v / scale)` clamped
/// to `[-qmax, qmax]`, stored two's complement. `scale` is calibrated from
/// the fault-free dynamic range of the tensor the value lives in (see
/// [`crate::graph::QuantScheme`]).
///
/// # Examples
///
/// ```
/// use fidelity_dnn::precision::{Precision, ValueCodec};
///
/// let codec = ValueCodec::new(Precision::Int8, 0.5);
/// let bits = codec.encode(3.2);
/// assert_eq!(codec.decode(bits), 3.0); // 6 * 0.5
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ValueCodec {
    precision: Precision,
    scale: f32,
}

impl ValueCodec {
    /// Creates a codec. `scale` is ignored by the floating formats.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and strictly positive (integer
    /// formats require a usable scale; pass `1.0` for float formats).
    pub fn new(precision: Precision, scale: f32) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "quantization scale must be finite and positive, got {scale}"
        );
        ValueCodec { precision, scale }
    }

    /// Codec for a floating format (no scale needed).
    pub fn float(precision: Precision) -> Self {
        ValueCodec::new(precision, 1.0)
    }

    /// The precision this codec implements.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The quantization scale (1.0 for float formats).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Largest representable magnitude of the quantized integer grid.
    fn qmax(&self) -> i32 {
        match self.precision {
            Precision::Int8 => 127,
            Precision::Int16 => 32767,
            _ => 0,
        }
    }

    /// Encodes a working value to its storage bits (low `bits()` bits used).
    pub fn encode(&self, value: f32) -> u32 {
        match self.precision {
            Precision::Fp32 => value.to_bits(),
            Precision::Fp16 => F16::from_f32(value).to_bits() as u32,
            Precision::Int16 => {
                let q = self.quantize_int(value);
                (q as i16 as u16) as u32
            }
            Precision::Int8 => {
                let q = self.quantize_int(value);
                (q as i8 as u8) as u32
            }
        }
    }

    /// Decodes storage bits back to a working value.
    pub fn decode(&self, bits: u32) -> f32 {
        match self.precision {
            Precision::Fp32 => f32::from_bits(bits),
            Precision::Fp16 => F16::from_bits(bits as u16).to_f32(),
            Precision::Int16 => (bits as u16 as i16) as f32 * self.scale,
            Precision::Int8 => (bits as u8 as i8) as f32 * self.scale,
        }
    }

    fn quantize_int(&self, value: f32) -> i32 {
        let qmax = self.qmax();
        if value.is_nan() {
            return 0;
        }
        let q = (value / self.scale).round();
        if q >= qmax as f32 {
            qmax
        } else if q <= -(qmax as f32) {
            -qmax
        } else {
            q as i32
        }
    }

    /// Rounds a working value onto this precision's representable grid
    /// ("fake quantization"), equal to `decode(encode(value))`. Identity for
    /// FP32.
    #[inline]
    pub fn quantize(&self, value: f32) -> f32 {
        let mut v = [value];
        self.quantize_slice(&mut v);
        v[0]
    }

    /// [`ValueCodec::quantize`] applied to every element of `values` in
    /// place, bit-identical to the scalar form. The precision is matched
    /// once, outside the loop, so the FP16 loop (branch-free
    /// [`round_to_f16`]) vectorizes. The engine routes every bulk quantize
    /// through this pass.
    pub fn quantize_slice(&self, values: &mut [f32]) {
        match self.precision {
            Precision::Fp32 => {}
            Precision::Fp16 => {
                for v in values {
                    *v = round_to_f16(*v);
                }
            }
            Precision::Int16 | Precision::Int8 => {
                for v in values {
                    *v = self.quantize_on_int_grid(*v);
                }
            }
        }
    }

    /// The integer arm of [`ValueCodec::quantize`], for callers that match
    /// the precision once outside their own loop.
    #[inline]
    pub(crate) fn quantize_on_int_grid(&self, value: f32) -> f32 {
        self.quantize_int(value) as f32 * self.scale
    }

    /// Returns `value` after flipping storage bit `bit` of its encoded form —
    /// the software-equivalent of a single-FF transient fault on a datapath
    /// value (Sec. III-C of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= self.precision().bits()`.
    pub fn flip_bit(&self, value: f32, bit: u32) -> f32 {
        let width = self.precision.bits();
        assert!(bit < width, "bit {bit} out of range for {}", self.precision);
        let bits = self.encode(value) ^ (1 << bit);
        self.decode(bits)
    }

    /// Maximum absolute representable value (for integer formats); infinity
    /// for float formats (FP16 saturates at 65504 only through `quantize`).
    pub fn max_magnitude(&self) -> f32 {
        match self.precision {
            Precision::Fp32 => f32::INFINITY,
            Precision::Fp16 => 65504.0,
            _ => self.qmax() as f32 * self.scale,
        }
    }
}

impl Default for ValueCodec {
    fn default() -> Self {
        ValueCodec::float(Precision::Fp16)
    }
}

/// Calibrates a symmetric per-tensor scale from an observed dynamic range,
/// mirroring TensorFlow-style min/max quantization the paper used for the
/// INT16/INT8 networks.
///
/// # Examples
///
/// ```
/// use fidelity_dnn::precision::{calibrate_scale, Precision};
///
/// let s = calibrate_scale(Precision::Int8, 12.7);
/// assert!((s - 0.1).abs() < 1e-6);
/// ```
pub fn calibrate_scale(precision: Precision, max_abs: f32) -> f32 {
    let qmax = match precision {
        Precision::Int8 => 127.0,
        Precision::Int16 => 32767.0,
        // Float formats do not use a scale.
        _ => return 1.0,
    };
    if max_abs <= 0.0 || !max_abs.is_finite() {
        1.0 / qmax
    } else {
        max_abs / qmax
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn every_name_parses_and_the_default_comes_first() {
        let parsed: Vec<Precision> = Precision::NAMES
            .iter()
            .map(|n| n.parse().unwrap())
            .collect();
        assert_eq!(parsed[0], Precision::default());
        for p in Precision::ALL {
            assert!(parsed.contains(&p), "{p} has no name");
        }
        let err = "fp8".parse::<Precision>().unwrap_err();
        assert_eq!(err, "unknown precision `fp8`");
    }

    #[test]
    fn int8_round_trip_on_grid() {
        let codec = ValueCodec::new(Precision::Int8, 0.25);
        for q in -127i32..=127 {
            let v = q as f32 * 0.25;
            assert_eq!(codec.quantize(v), v);
        }
    }

    #[test]
    fn int8_clamps_out_of_range() {
        let codec = ValueCodec::new(Precision::Int8, 0.5);
        assert_eq!(codec.quantize(1000.0), 63.5);
        assert_eq!(codec.quantize(-1000.0), -63.5);
    }

    #[test]
    fn int16_bit_flip_msb_is_large() {
        let codec = ValueCodec::new(Precision::Int16, 0.001);
        let v = codec.quantize(1.0);
        let flipped = codec.flip_bit(v, 15); // sign bit of two's complement
        assert!((flipped - v).abs() > 30.0);
    }

    #[test]
    fn int8_bit_flip_lsb_is_one_step() {
        let codec = ValueCodec::new(Precision::Int8, 0.5);
        let v = 2.0; // q = 4
        let flipped = codec.flip_bit(v, 0); // q = 5
        assert_eq!(flipped, 2.5);
    }

    #[test]
    fn fp16_flip_matches_f16_module() {
        let codec = ValueCodec::float(Precision::Fp16);
        let v = 1.0f32;
        assert_eq!(codec.flip_bit(v, 15), -1.0);
    }

    #[test]
    fn fp32_is_identity_quantization() {
        let codec = ValueCodec::float(Precision::Fp32);
        let v = 0.1234567;
        assert_eq!(codec.quantize(v), v);
    }

    #[test]
    fn nan_quantizes_to_zero_for_int() {
        let codec = ValueCodec::new(Precision::Int8, 0.5);
        assert_eq!(codec.quantize(f32::NAN), 0.0);
    }

    const SPECIAL: [f32; 9] = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE / 8.0,
        -f32::MIN_POSITIVE / 3.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MAX,
        f32::MIN,
    ];

    proptest! {
        /// The slice pass is the per-element codec round trip on integer
        /// grids, at random calibrated scales, over signed zeros,
        /// subnormals, infinities, NaN and values far beyond ±qmax.
        #[test]
        fn int_quantize_slice_matches_codec_round_trip(
            int16 in 0u8..2,
            max_abs in 1e-3f32..1e4,
            values in prop::collection::vec(
                prop_oneof![
                    (0..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
                    -2e4f32..2e4,
                    (0u32..=u32::MAX).prop_map(f32::from_bits),
                ],
                0..64,
            ),
        ) {
            let precision = if int16 == 1 { Precision::Int16 } else { Precision::Int8 };
            let codec = ValueCodec::new(precision, calibrate_scale(precision, max_abs));
            let want: Vec<u32> = values
                .iter()
                .map(|&v| codec.decode(codec.encode(v)).to_bits())
                .collect();
            let mut got = values.clone();
            codec.quantize_slice(&mut got);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn calibrate_scale_handles_degenerate_range() {
        assert!(calibrate_scale(Precision::Int8, 0.0) > 0.0);
        assert!(calibrate_scale(Precision::Int16, f32::NAN) > 0.0);
        assert_eq!(calibrate_scale(Precision::Fp16, 5.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_bit_validates_width() {
        ValueCodec::new(Precision::Int8, 1.0).flip_bit(1.0, 8);
    }

    #[test]
    fn int_flip_escapes_clamp_grid() {
        // A flip can produce values representable in storage even if the
        // original quantization clamps: e.g. INT8 q=127, flipping bit 7 gives
        // two's complement -1.
        let codec = ValueCodec::new(Precision::Int8, 1.0);
        let flipped = codec.flip_bit(127.0, 7);
        assert_eq!(flipped, -1.0);
    }
}
