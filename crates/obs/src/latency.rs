//! Request-latency accounting for the serving layer: a fixed-size
//! log-spaced histogram over microseconds, cheap to record into, with the
//! quantile readouts (p50/p95/p99) an operator watches on a serving
//! dashboard.
//!
//! The bucket layout is geometric: bucket `i` covers
//! `[floor(GROWTH^i), floor(GROWTH^(i+1)))` µs with `GROWTH = 1.35`, so
//! relative quantile error is bounded by ~35 % of one bucket width —
//! plenty for a latency table — while 64 buckets span 1 µs to beyond an
//! hour. Recording is O(buckets) in the worst case (a short upward scan),
//! with a running exact count/sum/min/max kept alongside.

/// Geometric growth factor between bucket edges.
const GROWTH: f64 = 1.35;
/// Number of histogram buckets (the last one is open-ended).
const BUCKETS: usize = 64;

/// A log-spaced latency histogram over microseconds.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_us: u64,
    min_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Lower edge (inclusive, in µs) of bucket `i`.
fn bucket_floor(i: usize) -> u64 {
    GROWTH.powi(i as i32).floor() as u64
}

/// Bucket index holding a `us` microsecond observation.
fn bucket_of(us: u64) -> usize {
    // Buckets 0 and 1 both floor to 1 µs; start the scan at the analytic
    // guess and walk to the covering bucket.
    let mut i = if us == 0 {
        0
    } else {
        ((us as f64).ln() / GROWTH.ln()).floor() as usize
    };
    i = i.min(BUCKETS - 1);
    while i + 1 < BUCKETS && bucket_floor(i + 1) <= us {
        i += 1;
    }
    while i > 0 && bucket_floor(i) > us {
        i -= 1;
    }
    i
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }

    /// Records one observation, in microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.counts[bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us += us;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Records one observation from a [`std::time::Duration`].
    pub fn record(&mut self, d: std::time::Duration) {
        self.record_us(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of every recorded observation, µs.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// The non-empty buckets, lowest first — what `GET /stats` exposes so
    /// external scrapers can compute their own quantiles instead of
    /// trusting the server's p50/p95/p99 picks.
    ///
    /// Ranges are strictly ordered and non-overlapping: `bucket_of`
    /// always picks the highest index sharing a floor (the bottom few
    /// geometric floors collide at 1 µs), so a non-empty bucket's floor
    /// is always below its successor's. Bucket 0 reports `[0, 1)` — it
    /// only ever holds 0 µs observations.
    pub fn bucket_counts(&self) -> Vec<BucketCount> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| BucketCount {
                floor_us: if i == 0 { 0 } else { bucket_floor(i) },
                upper_us: if i + 1 < BUCKETS {
                    bucket_floor(i + 1)
                } else {
                    u64::MAX
                },
                count: c,
            })
            .collect()
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Smallest recorded value in microseconds (0 when empty).
    pub fn min_us(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_us
        }
    }

    /// Largest recorded value in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// The `q`-quantile (`q` in `[0, 1]`) in microseconds: the lower edge
    /// of the bucket containing the `ceil(q·count)`-th observation,
    /// clamped to the exact observed min/max so p0/p100 are truthful.
    ///
    /// Returns 0 when the histogram is empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(i).clamp(self.min_us, self.max_us);
            }
        }
        self.max_us
    }

    /// Condenses the histogram into the snapshot a stats endpoint serves.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            count: self.count,
            mean_us: self.mean_us(),
            min_us: self.min_us(),
            p50_us: self.quantile_us(0.50),
            p95_us: self.quantile_us(0.95),
            p99_us: self.quantile_us(0.99),
            max_us: self.max_us,
        }
    }
}

/// One non-empty histogram bucket: the half-open range
/// `[floor_us, upper_us)` and its observation count. The last bucket is
/// open-ended (`upper_us == u64::MAX`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive lower edge, µs.
    pub floor_us: u64,
    /// Exclusive upper edge, µs (`u64::MAX` for the open-ended tail).
    pub upper_us: u64,
    /// Observations that landed in this bucket.
    pub count: u64,
}

/// A point-in-time latency summary (what `GET /stats` reports).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Minimum, µs.
    pub min_us: u64,
    /// Median, µs.
    pub p50_us: u64,
    /// 95th percentile, µs.
    pub p95_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// Maximum, µs.
    pub max_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_axis() {
        // Every value lands in exactly the bucket whose range covers it.
        for us in [0u64, 1, 2, 3, 10, 99, 1000, 123_456, 10_000_000] {
            let i = bucket_of(us);
            assert!(bucket_floor(i) <= us || i == 0, "floor({i}) > {us}");
            if i + 1 < BUCKETS {
                assert!(bucket_floor(i + 1) > us, "bucket {i} too low for {us}");
            }
        }
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record_us(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert!(s.min_us <= s.p50_us && s.p50_us <= s.p95_us);
        assert!(s.p95_us <= s.p99_us && s.p99_us <= s.max_us);
        assert_eq!(s.max_us, 1000);
        // p50 of a uniform 1..=1000 sample sits near 500 (within one
        // geometric bucket: ±35 %).
        assert!(s.p50_us >= 350 && s.p50_us <= 700, "p50 {}", s.p50_us);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_us, 0);
        assert_eq!(s.min_us, 0);
    }

    #[test]
    fn bucket_of_zero_lands_in_the_first_bucket() {
        assert_eq!(bucket_of(0), 0);
        let mut h = LatencyHistogram::new();
        h.record_us(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min_us(), 0);
        assert_eq!(h.quantile_us(0.5), 0);
    }

    #[test]
    fn bucket_of_is_exact_at_every_bucket_floor_edge() {
        // At an exact floor the observation belongs to that bucket
        // (floors are inclusive lower edges), and one µs below an edge
        // belongs to the bucket before it — for every distinct edge.
        for i in 0..BUCKETS {
            let floor = bucket_floor(i);
            let at = bucket_of(floor);
            assert!(
                bucket_floor(at) <= floor && (at + 1 == BUCKETS || bucket_floor(at + 1) > floor),
                "floor({i}) = {floor} landed in bucket {at}"
            );
            if i > 0 && floor > bucket_floor(i - 1) {
                let below = bucket_of(floor - 1);
                assert!(
                    below < i,
                    "edge {floor}: {floor}-1 landed in bucket {below}"
                );
                assert!(
                    bucket_floor(below + 1) > floor - 1,
                    "edge {floor}: bucket {below} does not cover {}",
                    floor - 1
                );
            }
        }
    }

    #[test]
    fn u64_max_clamps_into_the_open_ended_last_bucket() {
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        let mut h = LatencyHistogram::new();
        h.record_us(u64::MAX);
        assert_eq!(h.max_us(), u64::MAX);
        assert_eq!(h.quantile_us(1.0), u64::MAX);
        let buckets = h.bucket_counts();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].upper_us, u64::MAX);
        // A Duration too large for u64 µs takes the same clamped path.
        let mut d = LatencyHistogram::new();
        d.record(std::time::Duration::MAX);
        assert_eq!(d.max_us(), u64::MAX);
    }

    #[test]
    fn bucket_counts_cover_exactly_the_recorded_observations() {
        let mut h = LatencyHistogram::new();
        for us in [0u64, 1, 5, 5, 700, 1_000_000] {
            h.record_us(us);
        }
        let buckets = h.bucket_counts();
        assert_eq!(buckets.iter().map(|b| b.count).sum::<u64>(), h.count());
        for w in buckets.windows(2) {
            assert!(w[0].floor_us < w[1].floor_us, "buckets out of order");
            assert!(w[0].upper_us <= w[1].floor_us, "buckets overlap");
        }
        for b in &buckets {
            assert!(b.floor_us < b.upper_us);
        }
    }

    #[test]
    fn single_observation_pins_every_quantile() {
        let mut h = LatencyHistogram::new();
        h.record_us(1234);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 1234);
        }
        assert_eq!(h.mean_us(), 1234.0);
    }
}
