//! Order statistics for the report.

/// Nearest-rank percentile (`q` in `0..=100`) of an ascending-sorted slice;
/// 0 for an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values; 0 when empty or any value is not
/// positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The complete block of `items` with the least `cost`, and how many
/// complete blocks there were. `items` are sorted by `pos`; block `k` is
/// complete when it holds an item at every position `k*len .. (k+1)*len`.
pub fn fastest_block<T>(
    items: &[T],
    len: usize,
    pos: impl Fn(&T) -> usize,
    cost: impl Fn(&[T]) -> f64,
) -> Option<(&[T], usize)> {
    let mut best: Option<(f64, &[T])> = None;
    let mut blocks = 0;
    let mut i = 0;
    while len > 0 && i + len <= items.len() {
        let block = &items[i..i + len];
        let first = pos(&block[0]);
        if !first.is_multiple_of(len) || pos(&block[len - 1]) != first + len - 1 {
            i += 1;
            continue;
        }
        let c = cost(block);
        if best.is_none_or(|(b, _)| c < b) {
            best = Some((c, block));
        }
        blocks += 1;
        i += len;
    }
    best.map(|(_, block)| (block, blocks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.5], 90.0), 3.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_matches_closed_form() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn ratio_guards_zero_denominator() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn fastest_block_skips_incomplete_blocks() {
        // (position, cost): block 0 is complete, block 1 misses position
        // 3, block 3 is the cheapest complete one, block 4 is cut short.
        let items = [
            (0, 5.0),
            (1, 5.0),
            (2, 1.0),
            (4, 0.0),
            (5, 3.0),
            (6, 1.0),
            (7, 1.0),
            (8, 0.5),
        ];
        let sum = |b: &[(usize, f64)]| b.iter().map(|x| x.1).sum::<f64>();
        let (block, n) = fastest_block(&items, 2, |x| x.0, sum).unwrap();
        assert_eq!(block, &[(6, 1.0), (7, 1.0)]);
        assert_eq!(n, 3);
        assert!(fastest_block(&items[..1], 2, |x| x.0, sum).is_none());
    }
}
