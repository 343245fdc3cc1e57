//! 64-bit FNV-1a: the workspace's one non-cryptographic hash.
//!
//! Campaign and job fingerprints, record-log checksums, trace ids, golden
//! snapshot keys and the weight-initialization shape mix all use it. What
//! matters there is determinism and collisions against random corruption,
//! not resistance to adversaries.
//!
//! Two steps share one state. [`Fnv64::bytes`] is FNV-1a proper: one
//! xor-multiply per byte. [`Fnv64::word`] xors a whole `u64` before one
//! multiply; it is cheaper for hashing integers and pointers, and it is not
//! the same as feeding the word's bytes.

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh state at the offset basis.
    pub const fn new() -> Self {
        Fnv64(OFFSET)
    }

    /// Feeds `bytes`, one xor-multiply step per byte.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// Feeds one whole 64-bit word in a single xor-multiply step.
    pub fn word(&mut self, v: u64) -> &mut Self {
        self.0 = (self.0 ^ v).wrapping_mul(PRIME);
        self
    }

    /// The hash of everything fed so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of a byte string.
pub fn fnv64(bytes: &[u8]) -> u64 {
    Fnv64::new().bytes(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64-bit test vectors (Fowler/Noll/Vo reference
    /// suite).
    #[test]
    fn published_test_vectors() {
        for (input, want) in [
            (&b""[..], 0xcbf2_9ce4_8422_2325u64),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"b", 0xaf63_df4c_8601_f1a5),
            (b"foobar", 0x8594_4171_f739_67e8),
            (b"c", 0xaf63_de4c_8601_eff2),
            (b"chongo was here!\n", 0x4681_0940_eff5_f915),
        ] {
            assert_eq!(fnv64(input), want, "input {input:?}");
        }
    }

    #[test]
    fn word_step_is_one_xor_multiply() {
        let mut h = Fnv64::new();
        h.word(3).word(0x1234_5678_9abc_def0);
        let step = |h: u64, v: u64| (h ^ v).wrapping_mul(PRIME);
        assert_eq!(h.finish(), step(step(OFFSET, 3), 0x1234_5678_9abc_def0));
        // Bytes fed in pieces hash like the concatenation.
        assert_eq!(
            Fnv64::new().bytes(b"foo").bytes(b"bar").finish(),
            fnv64(b"foobar")
        );
    }
}
