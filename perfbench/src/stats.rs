//! The order statistics and means the benchmark reports.

/// The median of `xs` (the mean of the two middle values for an even
/// count), or `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The smallest of `xs`, or `None` for no samples.
pub fn fastest(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().min_by(f64::total_cmp)
}

/// The mean of `xs` without its lowest and highest tenth (the count
/// rounded down), or `None` for no samples. Unlike the median it moves
/// in step with how much of a run a slow spell of the machine covers,
/// and unlike the mean a few stalls cannot set it.
pub fn trimmed_mean(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let cut = s.len() / 10;
    let kept = &s[cut..s.len() - cut];
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

/// The first and third quartiles of `xs` by the exclusive method,
/// the default of Python's `statistics.quantiles(xs, n=4)`; `None`
/// below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// The highest whole percentile `p` (50 to 99) of `xs` that leaves at
/// least ten samples strictly beyond its nearest-rank position, with
/// its value; `None` when fewer than twenty samples allow none.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let s = sorted(xs);
    let n = s.len();
    (50..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= 10).then(|| (p, s[rank - 1]))
    })
}

/// The geometric mean of `xs`, or `None` when it is empty or holds a
/// value that is not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || !xs.iter().all(|&x| x > 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fastest_is_the_smallest_sample() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(fastest(&[7.5]), Some(7.5));
        assert_eq!(fastest(&[]), None);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        // Drops 1 and 10: the mean of 2..=9.
        assert_eq!(trimmed_mean(&xs), Some(5.5));
        // Two stalls among twenty samples leave it untouched.
        let mut xs = vec![2.0; 18];
        xs.extend([1000.0, 900.0]);
        assert_eq!(trimmed_mean(&xs), Some(2.0));
        // Fewer than ten samples keep them all.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), Some(3.0));
        // A 2x slow spell over a quarter of the run moves it, where the
        // median does not move at all: 26 fast and 6 slow samples stay.
        let mut xs = vec![1.0; 30];
        xs.extend([2.0; 10]);
        assert_eq!(median(&xs), Some(1.0));
        assert_eq!(trimmed_mean(&xs), Some(38.0 / 32.0));
        assert_eq!(trimmed_mean(&[]), None);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 sits at rank 990: exactly ten samples beyond.
        assert_eq!(tail(&xs), Some((99, 990.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90, 90.0)));
        let xs: Vec<f64> = (1..=96).map(f64::from).collect();
        let (p, v) = tail(&xs).unwrap();
        assert_eq!(p, 89);
        assert_eq!(96 - v as usize, 10);
        // Twenty samples: only the median leaves ten beyond it.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50, 10.0)));
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
    }

    #[test]
    fn geomean_of_positive_values_only() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean(&[2.0]), Some(2.0));
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }
}
