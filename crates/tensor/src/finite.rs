//! Vectorized non-finite detection.
//!
//! A float is non-finite (NaN or ±Inf) iff its exponent bits are all ones,
//! so the scan reduces to a branchless mask-and-compare over the bit
//! patterns. We OR-fold eight lanes at a time and only fall back to a
//! per-element check when a block trips, which keeps the clean path — the
//! overwhelmingly common one on every healthy training step — close to
//! memory bandwidth.

/// Exponent mask of an IEEE-754 single; all ones ⇒ NaN or ±Inf.
const EXP_MASK: u32 = 0x7f80_0000;

/// Width of the unrolled scan block.
const LANES: usize = 8;

/// Returns `true` iff every element of `xs` is finite (no NaN, no ±Inf).
#[must_use]
pub fn is_all_finite(xs: &[f32]) -> bool {
    let mut chunks = xs.chunks_exact(LANES);
    for block in chunks.by_ref() {
        // `(bits & EXP_MASK) == EXP_MASK` per lane, folded with OR so a
        // single comparison decides the whole block.
        let mut bad = false;
        for &x in block {
            bad |= (x.to_bits() & EXP_MASK) == EXP_MASK;
        }
        if bad {
            return false;
        }
    }
    chunks.remainder().iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_slices_pass() {
        assert!(is_all_finite(&[]));
        assert!(is_all_finite(&[0.0, -1.5, f32::MAX, f32::MIN_POSITIVE]));
        let long: Vec<f32> = (0..1000).map(|i| i as f32 * 0.25 - 100.0).collect();
        assert!(is_all_finite(&long));
    }

    #[test]
    fn catches_nan_and_inf_at_every_offset() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for len in [1usize, 7, 8, 9, 16, 33] {
                for pos in 0..len {
                    let mut xs = vec![1.0f32; len];
                    xs[pos] = bad;
                    assert!(!is_all_finite(&xs), "missed {bad} at {pos}/{len}");
                }
            }
        }
    }

    #[test]
    fn subnormals_and_extremes_are_finite() {
        assert!(is_all_finite(&[
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MAX,
            f32::MIN
        ]));
    }
}
