//! Correctness checks made apart from the program: the error bound is
//! recomputed here in f64 from the original field, and AE-B and AE-SZ are
//! held to sizes this file derives from the dims alone.

use aesz_repro::{Dims, Field};

/// The absolute bound a value-range-relative bound `rel` allows on `field`:
/// `rel × (max − min)`, computed in f64 from the original values.
pub fn abs_bound(field: &Field, rel: f64) -> f64 {
    let (lo, hi) = field
        .as_slice()
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(f64::from(v)), hi.max(f64::from(v)))
        });
    rel * (hi - lo)
}

/// Every reconstructed value lies within `bound` of the original, with no
/// slack. Reports the first violation.
pub fn within_bound(original: &[f32], recon: &[f32], bound: f64) -> Result<(), String> {
    if original.len() != recon.len() {
        return Err(format!(
            "reconstruction has {} values, the original {}",
            recon.len(),
            original.len()
        ));
    }
    for (i, (&a, &b)) in original.iter().zip(recon).enumerate() {
        let err = (f64::from(a) - f64::from(b)).abs();
        if err.is_nan() || err > bound {
            return Err(format!(
                "value {i}: |{a} - {b}| = {err:e} exceeds the bound {bound:e}"
            ));
        }
    }
    Ok(())
}

/// Number of blocks of edge `block` that tile `dims` (edge blocks partial).
pub fn block_grid(dims: Dims, block: usize) -> usize {
    dims.extents().iter().map(|e| e.div_ceil(block)).product()
}

/// Bytes of an unsigned LEB128 varint holding `v`.
fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// AE-B block edge and latent length: 16³ blocks, each reduced to 64 f32.
const AEB_BLOCK: usize = 16;
const AEB_LATENT: usize = 64;

/// The exact framed length of an AE-B stream for a field of `dims`: the
/// 14-byte container frame, the 16-byte model id, the dims (rank byte plus
/// one varint per extent), the f32 data range, the block-count varint, and
/// ∏⌈extent/16⌉ × 64 × 4 latent bytes.
pub fn aeb_expected_len(dims: Dims) -> usize {
    let blocks = block_grid(dims, AEB_BLOCK);
    let dims_len: usize = 1 + dims
        .extents()
        .iter()
        .map(|&e| varint_len(e as u64))
        .sum::<usize>();
    14 + 16 + dims_len + 8 + varint_len(blocks as u64) + blocks * AEB_LATENT * 4
}

/// AE-B's design promise in place of a bound: every value is finite and
/// inside the original data range, up to the rounding of one f32 step at
/// the range's magnitude.
pub fn within_range(original: &Field, recon: &[f32]) -> Result<(), String> {
    let (lo, hi) = original.min_max();
    let slack = f64::from(f32::EPSILON) * f64::from(lo.abs().max(hi.abs()).max(hi - lo));
    let (lo, hi) = (f64::from(lo) - slack, f64::from(hi) + slack);
    for (i, &v) in recon.iter().enumerate() {
        if !v.is_finite() || f64::from(v) < lo || f64::from(v) > hi {
            return Err(format!("value {i} = {v} lies outside [{lo}, {hi}]"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aesz_repro::baselines::AeB;
    use aesz_repro::datagen::Application;
    use aesz_repro::{Compressor, ErrorBound};

    /// The next representable f32 above `v` (for positive finite `v`).
    fn next_up(v: f32) -> f32 {
        f32::from_bits(v.to_bits() + 1)
    }

    #[test]
    fn bound_check_accepts_exactly_at_and_rejects_one_step_past() {
        let original = [1.0f32, 2.0, 3.0];
        let bound = 0.5;
        let at = [1.5f32, 2.0, 2.5];
        assert!(within_bound(&original, &at, bound).is_ok());
        // One f32 step past the bound on a single value.
        let past = [1.5f32, next_up(2.5), 3.0];
        assert!(within_bound(&original, &past, bound).is_err());
        let past_below = [1.0f32, 2.0, f32::from_bits(2.5f32.to_bits() - 1)];
        assert!(within_bound(&original, &past_below, bound).is_err());
        assert!(within_bound(&original, &[1.0, f32::NAN, 3.0], bound).is_err());
        assert!(within_bound(&original, &[1.0, 2.0], bound).is_err());
    }

    #[test]
    fn relative_bound_uses_the_f64_range() {
        let field = Field::from_vec(Dims::d1(3), vec![-1.0, 0.25, 3.0]).unwrap();
        assert_eq!(abs_bound(&field, 1e-2), 4.0 * 1e-2);
    }

    #[test]
    fn block_grid_counts_partial_edge_blocks() {
        assert_eq!(block_grid(Dims::d2(512, 256), 32), 16 * 8);
        assert_eq!(block_grid(Dims::d2(33, 1), 32), 2);
        assert_eq!(block_grid(Dims::d3(17, 16, 1), 8), 3 * 2);
    }

    #[test]
    fn aeb_expected_length_matches_odd_grids() {
        let train = Application::NyxBaryonDensity.generate(Dims::d3(16, 16, 16), 1);
        let mut aeb = AeB::new(3);
        aeb.train(std::slice::from_ref(&train), 1, 5);
        for dims in [
            Dims::d3(17, 5, 33),
            Dims::d3(1, 40, 3),
            Dims::d3(129, 16, 2),
        ] {
            let field = Application::NyxBaryonDensity.generate(dims, 2);
            let stream = aeb.compress(&field, ErrorBound::rel(1e-2)).unwrap();
            assert_eq!(stream.len(), aeb_expected_len(dims), "dims {dims:?}");
        }
    }

    #[test]
    fn range_check_allows_rounding_only() {
        let field = Field::from_vec(Dims::d1(2), vec![1.0, 3.0]).unwrap();
        assert!(within_range(&field, &[1.0, 3.0, 2.0]).is_ok());
        assert!(within_range(&field, &[next_up(3.0)]).is_ok());
        assert!(within_range(&field, &[3.01]).is_err());
        assert!(within_range(&field, &[f32::INFINITY]).is_err());
    }
}
