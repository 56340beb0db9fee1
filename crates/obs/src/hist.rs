//! Deterministic fixed-boundary histograms.
//!
//! Buckets are powers of two over the full `u64` range, fixed at compile
//! time: value `v > 0` lands in bucket `floor(log2 v) + 1` (bucket 0 holds
//! exact zeros). Counts are integers, so merging shards is a commutative
//! integer sum per bucket — the aggregate is identical no matter how work
//! was partitioned or in what order shards merge. Quantiles
//! are read as the inclusive upper edge of the bucket where the cumulative
//! count first reaches the requested rank, which makes them deterministic
//! too (at the cost of power-of-two resolution, plenty for p50/p90/p99
//! latency reporting).

/// Number of buckets: one for zero plus one per possible `log2` of a `u64`.
const BUCKETS: usize = 65;

/// A fixed-boundary power-of-two histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            total: 0,
        }
    }

    /// Bucket index for a sample.
    fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive upper edge of a bucket (`u64::MAX` for the last one).
    fn upper_edge(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Histogram::bucket(v)] += 1;
        self.total = self.total.saturating_add(1);
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.total = self.total.saturating_add(other.total);
    }

    /// The inclusive upper edge of the bucket where the cumulative count
    /// first reaches `ceil(q * total)` samples; 0 for an empty histogram.
    /// `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::upper_edge(b);
            }
        }
        u64::MAX
    }

    /// Non-empty buckets as `(bucket index, count)` pairs in index order
    /// (the sparse wire representation).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (b, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(u64::MAX), 64);
        assert_eq!(Histogram::upper_edge(2), 3);
        assert_eq!(Histogram::upper_edge(64), u64::MAX);
    }

    #[test]
    fn quantiles_are_bucket_upper_edges() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        // p50 rank = ceil(0.5*5) = 3 → third sample lives in bucket(3)=2.
        assert_eq!(h.quantile(0.5), 3);
        // p99 rank = 5 → bucket(1000)=10, edge 1023.
        assert_eq!(h.quantile(0.99), 1023);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn merge_matches_sequential() {
        let vals: Vec<u64> = (0..1000).map(|i| (i * i * 31 + 7) % 100_000).collect();
        let mut whole = Histogram::new();
        for &v in &vals {
            whole.record(v);
        }
        // Shard across 4 "threads", merge in reverse order.
        let mut shards = vec![Histogram::new(); 4];
        for (i, &v) in vals.iter().enumerate() {
            shards[i % 4].record(v);
        }
        let mut merged = Histogram::new();
        for s in shards.iter().rev() {
            merged.merge(s);
        }
        assert_eq!(whole, merged);
        assert_eq!(whole.quantile(0.5), merged.quantile(0.5));
    }
}
