//! Order statistics over raw samples.

/// The `q`-quantile of `xs` by linear interpolation between the closest
/// ranks (`q` in `0..=1`). Sorts `xs` in place; `0.0` when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (rank - lo as f64)
}

/// The median of `xs` (sorts in place).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(median(&mut xs), 2.5);
        assert_eq!(quantile(&mut [7.0], 0.9), 7.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
