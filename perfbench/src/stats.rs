//! Summary statistics over timing samples.
//!
//! Every timing metric is summarized per structure first (a median, or a
//! higher percentile) and then across structures by geometric mean. The
//! structures of one workload differ in cost by up to two orders of
//! magnitude, so a percentile of the pooled samples would sit on the
//! boundary between two structures' clusters and jump between them from
//! run to run; the geometric mean of per-structure figures weighs every
//! structure equally and moves smoothly.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between the two closest ranks. `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// The geometric mean of `values`. `None` when the slice is empty or holds
/// a value that is not a positive finite number.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// The arithmetic mean of `values`; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Geometric mean over structures of each structure's `q`-quantile.
/// Structures without samples are skipped.
pub fn geomean_of_percentiles(per_structure: &[Vec<f64>], q: f64) -> Option<f64> {
    let points: Vec<f64> = per_structure
        .iter()
        .filter_map(|samples| percentile(samples, q))
        .collect();
    geomean(&points)
}

/// Arithmetic mean over structures of each structure's median — for layer
/// times that can be 0 on some structures (a post phase the sequential
/// variant never runs). Structures without samples are skipped.
pub fn mean_of_medians(per_structure: &[Vec<f64>]) -> Option<f64> {
    let points: Vec<f64> = per_structure.iter().filter_map(|s| median(s)).collect();
    mean(&points)
}

/// Geometric mean over structures of the `q`-quantile of `numerator` over
/// the `q`-quantile of `denominator` — the per-structure speedup (or
/// slowdown ratio) summary. Structures where either side has no samples
/// are skipped.
pub fn geomean_of_ratios(numerator: &[Vec<f64>], denominator: &[Vec<f64>], q: f64) -> Option<f64> {
    let ratios: Vec<f64> = numerator
        .iter()
        .zip(denominator)
        .filter_map(|(n, d)| Some(percentile(n, q)? / percentile(d, q)?))
        .collect();
    geomean(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&v, 0.25), Some(1.75));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_of_many_samples_picks_the_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(99.01));
        assert_eq!(median(&v), Some(50.5));
    }

    #[test]
    fn geomean_is_the_mean_of_logs() {
        assert_eq!(geomean(&[2.0, 8.0]), Some(4.0));
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn per_structure_summaries_weigh_structures_equally() {
        // One fast structure with many samples and one slow one with few:
        // the summary is the geometric mean of the two medians.
        let per = vec![vec![1.0; 99], vec![100.0, 100.0, 100.0]];
        let g = geomean_of_percentiles(&per, 0.5).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        let seq = vec![vec![2.0, 2.0], vec![3.0]];
        let eng = vec![vec![4.0], vec![1.5, 1.5, 1.5]];
        // Ratios 0.5 and 2.0.
        let r = geomean_of_ratios(&seq, &eng, 0.5).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
        // At the lowest quantile: (2 / 4) and (3 / 1.5) again.
        let r = geomean_of_ratios(&seq, &eng, 0.0).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
        assert_eq!(geomean_of_ratios(&[vec![]], &[vec![1.0]], 0.5), None);
        let with_zero = vec![vec![0.0, 0.0, 5.0], vec![], vec![4.0]];
        assert_eq!(mean_of_medians(&with_zero), Some(2.0));
    }

    #[test]
    fn mean_of_counts() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
