//! Order statistics over measured samples.

/// `values` in ascending order, as `snslp_trace::hist::percentile` takes
/// them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of `values` (the mean of the two middle ones for an even
/// count); sorts in place. Returns 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &mut [f64]) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n < 2 {
        let v = values.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        values[j - 1] + (values[j] - values[j - 1]) * delta.clamp(0.0, 1.0)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Ops per second of timed work: `ops` completed in `timed_us`
/// microseconds spent inside timed ops. Returns 0 when nothing was timed.
pub fn per_second(ops: u64, timed_us: f64) -> f64 {
    if timed_us > 0.0 {
        ops as f64 / (timed_us / 1e6)
    } else {
        0.0
    }
}

/// Geometric mean of positive values. Returns 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(sorted(vec![3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(per_second(3, 1.5e6), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), [2.75, 5.5, 8.25]);
    }
}
