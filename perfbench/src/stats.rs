//! Order statistics shared by the run and compare commands.

/// The median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones an outside script computes.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4i64;
    let m = ld as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative at the clamped ends: Python extrapolates there too.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the spread the bounds
/// in `BENCHMARK.json` are compared against. `None` when undefined.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_spread(&ten).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0]), None);
    }
}
