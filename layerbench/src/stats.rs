//! Summary statistics for latency samples and completion streams.
//!
//! Percentiles use the nearest-rank definition and are reported only
//! when at least [`MIN_TAIL`] samples lie beyond them: a p90 from 50
//! samples rests on five observations and moves with every rerun.

/// Samples that must lie strictly beyond a percentile before it is
/// reported.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1)`) of `samples`, or `None`
/// when fewer than [`MIN_TAIL`] samples lie beyond its rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(
        q > 0.0 && q < 1.0,
        "percentile must be inside (0, 1), got {q}"
    );
    let n = samples.len();
    // 1-based rank of the nearest-rank percentile.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median by the same rule: `percentile(samples, 0.5)`.
pub fn p50(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Plain median of a few values (set-up repetitions, window rates):
/// the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Closed-loop throughput: operations per second that `clients`
/// clients sustain when each sends its next operation as soon as the
/// previous one completes. By Little's law that is `clients` divided by
/// the mean latency, i.e. operations over busy time. It is taken over
/// `windows` consecutive windows of equal operation count (in
/// completion order) and the median window is reported, so one stalled
/// window cannot move the figure. `None` when there are fewer
/// operations than windows.
pub fn closed_loop_rate(
    done_ns: &[u64],
    latency_ms: &[f64],
    clients: usize,
    windows: usize,
) -> Option<f64> {
    assert_eq!(
        done_ns.len(),
        latency_ms.len(),
        "one completion per latency"
    );
    let n = latency_ms.len();
    if windows == 0 || n < windows {
        return None;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| done_ns[i]);
    let rates: Vec<f64> = (0..windows)
        .map(|w| {
            let window = &order[w * n / windows..(w + 1) * n / windows];
            let busy_ms: f64 = window.iter().map(|&i| latency_ms[i]).sum();
            clients as f64 * window.len() as f64 * 1e3 / busy_ms
        })
        .collect();
    Some(median(&rates))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p50_is_the_nearest_rank_median() {
        let odd: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(p50(&odd), Some(11.0));
        let even: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(p50(&even), Some(10.0), "order of input does not matter");
    }

    #[test]
    fn no_percentile_with_fewer_than_ten_samples_beyond_it() {
        // p50 needs rank + 10 samples: 20 is the smallest count.
        let s: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(p50(&s), None);
        let s: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(p50(&s), Some(9.0));
        // p90 needs 100 samples: rank 90 leaves exactly 10 beyond it.
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), None);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        // p99 from 1000 samples is the most a ten-sample tail allows.
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn closed_loop_rate_ignores_one_stalled_window() {
        // 100 one-millisecond operations, except one of 50 ms.
        let latency: Vec<f64> = (0..100).map(|i| if i == 50 { 50.0 } else { 1.0 }).collect();
        let done: Vec<u64> = (0..100).map(|i| i * 2_000_000).collect();
        let rate = closed_loop_rate(&done, &latency, 1, 10).expect("enough operations");
        assert!((rate - 1000.0).abs() < 1e-6, "got {rate}");
        // Two clients sustain twice the rate at the same latency.
        let rate = closed_loop_rate(&done, &latency, 2, 10).expect("enough operations");
        assert!((rate - 2000.0).abs() < 1e-6, "got {rate}");
        assert_eq!(closed_loop_rate(&done[..9], &latency[..9], 1, 10), None);
    }
}
