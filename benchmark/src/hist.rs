//! A std-only log-linear latency histogram.
//!
//! Values (microseconds on the client's clock) fall into buckets whose
//! width doubles every octave: 64 equal sub-buckets per power of two, so a
//! bucket is never wider than 1/64 of its lower edge. Percentiles walk the
//! cumulative counts and interpolate by rank inside the bucket they land
//! in, which keeps the reported value continuous instead of snapping to
//! bucket edges (a snapped median would read the same on every run).

/// log2 of the sub-buckets per octave.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the linear range; covers values below 2^46 (over two
/// years in microseconds).
const OCTAVES: usize = 40;

/// The histogram: fixed memory, O(1) record.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; (OCTAVES + 1) * SUB as usize],
            total: 0,
            max: 0,
        }
    }

    /// Bucket index of `v`: identity below `SUB`, then `SUB` buckets per
    /// octave selected by the top `SUB_BITS` bits under the leading one.
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let shift = exp - SUB_BITS;
        let octave = (shift + 1) as usize;
        let idx = octave * SUB as usize + ((v >> shift) - SUB) as usize;
        idx.min((OCTAVES + 1) * SUB as usize - 1)
    }

    /// `[lo, hi)` of bucket `idx`.
    fn bounds(idx: usize) -> (u64, u64) {
        let octave = idx / SUB as usize;
        let sub = (idx % SUB as usize) as u64;
        if octave == 0 {
            return (sub, sub + 1);
        }
        let shift = (octave - 1) as u32;
        ((SUB + sub) << shift, (SUB + sub + 1) << shift)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Samples strictly beyond the `q` quantile's rank.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        self.total - (q * self.total as f64).ceil().min(self.total as f64) as u64
    }

    /// The `q` quantile (`0.0..=1.0`), interpolated by rank within its
    /// bucket; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (before + c) as f64 >= rank {
                let (lo, hi) = Self::bounds(idx);
                let hi = hi.min(self.max + 1);
                let frac = ((rank - before as f64) / c as f64).clamp(0.0, 1.0);
                return lo as f64 + frac * (hi.saturating_sub(lo)) as f64;
            }
            before += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64, so the test needs no rand dependency.
    fn mix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in (0..5_000u64).chain([1 << 20, (1 << 20) + 12_345, u32::MAX as u64]) {
            let (lo, hi) = Histogram::bounds(Histogram::index(v));
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi})");
            assert!(hi - lo <= (lo / SUB).max(1), "bucket of {v} too wide");
        }
    }

    /// Against exact sorted percentiles on a long-tailed sample: every
    /// reported quantile is within one bucket width (1/64 relative) of the
    /// exact order statistic.
    #[test]
    fn quantiles_match_exact_sorted_percentiles() {
        let mut s = 7u64;
        let mut values: Vec<u64> = (0..50_000)
            .map(|_| {
                let r = mix(&mut s);
                // Log-uniform over 50 us .. ~100 ms, like commit latencies.
                let octave = r % 11;
                (50u64 << octave) + (mix(&mut s) % (50u64 << octave))
            })
            .collect();
        let mut h = Histogram::new();
        for v in &values {
            h.record(*v);
        }
        values.sort_unstable();
        assert_eq!(h.count(), values.len() as u64);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let exact = values[((q * values.len() as f64).ceil() as usize).max(1) - 1] as f64;
            let got = h.quantile(q);
            let err = (got - exact).abs() / exact;
            assert!(err <= 1.0 / 64.0 + 1e-9, "q{q}: {got} vs exact {exact}");
        }
        assert_eq!(h.samples_beyond(0.99), 500);
    }

    #[test]
    fn small_values_are_exact_and_empty_is_zero() {
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
        let mut h = Histogram::new();
        for v in [3, 3, 3, 3] {
            h.record(v);
        }
        let m = h.quantile(0.5);
        assert!((3.0..4.0).contains(&m), "{m}");
    }
}
