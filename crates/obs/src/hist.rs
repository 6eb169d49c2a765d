//! Log-bucketed latency histograms over u64 microseconds.
//!
//! Bucketing is HDR-style: values below 16 get exact unit buckets; every
//! power-of-two group above that is split into 16 linear sub-buckets, so
//! the relative error of any recorded value is bounded by 1/16 (one
//! sub-bucket width). 976 fixed buckets cover the whole u64 range —
//! recording never allocates, merging is element-wise addition, and two
//! histograms fed the same multiset of samples compare equal regardless
//! of arrival order or sharding.

/// Sub-buckets per power-of-two group (16 linear steps).
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;

/// Total bucket count: 16 unit buckets plus 60 groups of 16.
pub const NUM_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Bucket index holding value `v` (µs).
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= SUB_BITS
    let sub = ((v >> (msb - SUB_BITS as usize)) & (SUB as u64 - 1)) as usize;
    (msb - SUB_BITS as usize + 1) * SUB + sub
}

/// Half-open value range `[lo, hi)` covered by bucket `i`. The width is
/// 1 for the unit buckets and `2^(group-1)` for group `g >= 1`, which is
/// at most `value / 16` — the "within one bucket width" round-trip bound
/// the property tests assert. The topmost bucket's upper bound saturates
/// at `u64::MAX` (its true bound, 2^64, is unrepresentable).
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < NUM_BUCKETS, "bucket index {i} out of range");
    if i < SUB {
        return (i as u64, i as u64 + 1);
    }
    let group = (i / SUB) as u32; // >= 1
    let sub = (i % SUB) as u64;
    let lo = (SUB as u64 + sub) << (group - 1);
    (lo, lo.saturating_add(1u64 << (group - 1)))
}

/// A mergeable log-bucketed histogram of simulated-time latencies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> LatencyHistogram {
        LatencyHistogram { counts: vec![0; NUM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Record one sample of `us` microseconds.
    pub fn record(&mut self, us: u64) {
        self.counts[bucket_index(us)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(us);
        self.min = self.min.min(us);
        self.max = self.max.max(us);
    }

    /// Add every sample of `other` into `self`. Merging per-shard
    /// histograms yields exactly the histogram of the combined stream.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum_us(&self) -> u64 {
        self.sum
    }

    pub fn min_us(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max_us(&self) -> u64 {
        self.max
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the largest value equivalent
    /// (within bucket resolution) to the sample at that rank. Exact for
    /// values below 16 µs; otherwise within one sub-bucket width.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, hi) = bucket_bounds(i);
                return (hi - 1).min(self.max);
            }
        }
        self.max
    }

    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    pub fn p90_us(&self) -> u64 {
        self.quantile_us(0.90)
    }

    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v + 1));
        }
    }

    #[test]
    fn bounds_invert_index_across_the_range() {
        for v in [16u64, 17, 31, 32, 110, 1_010, 1_500, 65_535, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && (v < hi || hi == u64::MAX), "v={v} i={i} lo={lo} hi={hi}");
            // Width bound: at most max(1, v/16) (skip the saturated top).
            if hi < u64::MAX {
                let width = hi - lo;
                assert!(width <= (v / SUB as u64).max(1), "v={v} width={width}");
            }
        }
    }

    #[test]
    fn quantiles_of_table_1_latencies() {
        let mut h = LatencyHistogram::new();
        for _ in 0..98 {
            h.record(110);
        }
        h.record(1_010);
        h.record(1_500);
        assert_eq!(h.count(), 100);
        let p50 = h.p50_us();
        assert!((110..117).contains(&p50), "p50={p50}"); // within one sub-bucket
        let p99 = h.p99_us();
        assert!((960..=1_024 + 64).contains(&p99), "p99={p99}");
        assert_eq!(h.max_us(), 1_500);
        assert_eq!(h.min_us(), 110);
        assert_eq!(h.sum_us(), 98 * 110 + 1_010 + 1_500);
    }

    #[test]
    fn merge_equals_single_stream() {
        let samples = [0u64, 1, 15, 16, 110, 1_010, 1_500, 12_345, 1 << 33];
        let mut whole = LatencyHistogram::new();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for (i, &s) in samples.iter().enumerate() {
            whole.record(s);
            if i % 2 == 0 {
                a.record(s)
            } else {
                b.record(s)
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50_us(), 0);
        assert_eq!(h.min_us(), 0);
        assert_eq!(h.max_us(), 0);
        assert_eq!(h.mean_us(), 0.0);
    }
}
