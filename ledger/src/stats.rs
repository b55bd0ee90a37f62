//! Order statistics over timing samples.

/// Nearest-rank quantile `q` of `samples` (sorted in place).
/// `None` when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil().max(1.0) as usize;
    Some(samples[rank.min(samples.len()) - 1])
}

/// Median of `samples` (sorted in place); `None` when empty.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// True when quantile `q` over `n` samples has at least ten samples
/// beyond it — the least a named percentile may rest on.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    // Round before flooring: 1000 × (1 − 0.99) is 9.999… in binary.
    (n as f64 * (1.0 - q) + 1e-9).floor() >= 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(median(&mut []), None);
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(100, 0.9));
    }
}
