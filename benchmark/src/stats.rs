//! Latency recording and the order statistics the report uses.

/// Sub-buckets per power of two: a bucket is at most 1/128 (0.8 %) wide.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2^40 ns (18 minutes) are resolved; larger ones saturate.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 2) as usize) * SUB;

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// Fixed-memory latency recorder: exact below 128 ns, log-linear buckets of
/// 0.8 % above, percentiles interpolated inside the bucket by rank. Memory
/// does not grow with the run, so a faster engine does not show up as a
/// larger `peak_rss_mb`.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("sum_ns", &self.sum_ns)
            .finish()
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let ns = ns.min((1u64 << (MAX_EXP + 1)) - 1);
    let exp = 63 - ns.leading_zeros();
    let sub = ((ns >> (exp - SUB_BITS)) as usize) & (SUB - 1);
    ((exp - SUB_BITS + 1) as usize) * SUB + sub
}

/// The half-open range of values that land in `bucket`.
fn bucket_bounds(bucket: usize) -> (f64, f64) {
    if bucket < SUB {
        return (bucket as f64, bucket as f64 + 1.0);
    }
    let exp = (bucket / SUB) as u32 + SUB_BITS - 1;
    let width = (1u64 << (exp - SUB_BITS)) as f64;
    let lo = (1u64 << exp) as f64 + (bucket % SUB) as f64 * width;
    (lo, lo + width)
}

impl LatencyHistogram {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns;
    }

    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// The `p`-quantile (`0 < p < 1`) in nanoseconds, or `None` when fewer
    /// than [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
    pub fn percentile_ns(&self, p: f64) -> Option<f64> {
        if (self.count as f64) * (1.0 - p) < MIN_SAMPLES_BEYOND {
            return None;
        }
        let target = p * self.count as f64;
        let mut below = 0.0;
        for (bucket, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let upto = below + n as f64;
            if upto >= target {
                let (lo, hi) = bucket_bounds(bucket);
                return Some(lo + (hi - lo) * (target - below) / n as f64);
            }
            below = upto;
        }
        None
    }

    /// [`Self::percentile_ns`] in microseconds; 0 when not reportable.
    pub fn percentile_us(&self, p: f64) -> f64 {
        self.percentile_ns(p).map_or(0.0, |ns| ns / 1e3)
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expect_lo = 0.0;
        for bucket in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(bucket);
            assert_eq!(lo, expect_lo, "bucket {bucket}");
            assert!(hi > lo);
            assert_eq!(bucket_of(lo as u64), bucket);
            assert_eq!(bucket_of(hi as u64 - 1), bucket);
            assert!(bucket < SUB || (hi - lo) / lo <= 1.0 / SUB as f64);
            expect_lo = hi;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let mut h = LatencyHistogram::default();
        for i in 0..999u64 {
            h.record(1_000 + i);
        }
        // 999 samples: 9.99 lie beyond p99, 499.5 beyond p50.
        assert!(h.percentile_ns(0.99).is_none());
        assert!(h.percentile_ns(0.50).is_some());
        assert_eq!(h.percentile_us(0.99), 0.0);
        h.record(5_000);
        assert!(h.percentile_ns(0.99).is_some());
        assert!(h.percentile_ns(0.999).is_none());
        for _ in 0..9_000 {
            h.record(1_500);
        }
        assert!(h.percentile_ns(0.999).is_some());
    }

    #[test]
    fn percentile_is_within_one_bucket_of_the_exact_value() {
        let mut h = LatencyHistogram::default();
        let mut exact: Vec<u64> = (0..100_000u64).map(|i| 200 + i * i % 900_001).collect();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        for p in [0.5, 0.9, 0.99, 0.999] {
            let want = exact[(p * exact.len() as f64) as usize] as f64;
            let got = h.percentile_ns(p).unwrap();
            assert!((got - want).abs() / want < 0.01, "p{p}: {got} vs {want}");
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.sum_ns(), exact.iter().sum::<u64>());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        (0..50).for_each(|_| a.record(100));
        (0..50).for_each(|_| b.record(300));
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.mean_ns(), 200.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
