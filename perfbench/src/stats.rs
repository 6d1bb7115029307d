//! Order statistics over host-time samples.

/// The `q`-quantile (0..=1) by linear interpolation between closest ranks;
/// `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The highest quantile, at most 0.99, that leaves at least ten samples
/// above it; the median when there are too few samples for any tail.
pub fn tail_quantile(n: usize) -> f64 {
    if n < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

/// The tail value [`tail_quantile`] picks, with the quantile used.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let q = tail_quantile(samples.len());
    quantile(samples, q).map(|v| (v, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(10), 0.5);
        assert!((tail_quantile(100) - 0.9).abs() < 1e-12);
        assert!((tail_quantile(5000) - 0.99).abs() < 1e-12);
        for n in [20, 57, 200, 999, 1000, 4000] {
            let beyond = n as f64 * (1.0 - tail_quantile(n));
            assert!(beyond >= 10.0 - 1e-9, "n={n} leaves {beyond}");
        }
    }
}
