//! Sample statistics: percentiles, the tail-percentile rule, an op-time
//! histogram, and the seeded generator every workload draws its inputs
//! from.

use std::collections::BTreeMap;

/// Percentiles a tail metric may report, highest first, in per mille
/// (integers, so the rule below is exact).
pub const TAIL_LADDER_PER_MILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: u64 = 10;

/// The highest percentile of the ladder that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it (50 when none does).
#[must_use]
pub fn tail_rule(n: usize) -> f64 {
    let pm = TAIL_LADDER_PER_MILLE
        .into_iter()
        .find(|pm| n as u64 * (1000 - pm) >= TAIL_MIN_BEYOND * 1000)
        .unwrap_or(500);
    pm as f64 / 10.0
}

/// The `p`-th percentile (0–100) of `samples` by linear interpolation
/// between closest ranks; 0 when empty. Sorts `samples` in place.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (samples.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (rank - lo as f64)
}

/// The median of `samples` (see [`percentile`]).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// A tail figure: the workload's fixed percentile, lowered by the
/// [`tail_rule`] when the run gathered too few samples for it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile actually reported.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
}

/// Computes the tail of `samples` at `fixed` (or lower, per the rule).
pub fn tail(samples: &mut [f64], fixed: f64) -> Tail {
    let p = fixed.min(tail_rule(samples.len()));
    Tail {
        percentile: p,
        value: percentile(samples, p),
        samples: samples.len(),
    }
}

/// A log-bucketed histogram of op times in seconds. Buckets are
/// [`Hist::RATIO`] − 1 = 0.4% wide from [`Hist::MIN`] up and stored
/// sparsely, so its memory follows the spread of op times, not how many
/// ops a run completes, and the sample store cannot move
/// `peak_rss_mib`. Percentiles follow [`percentile`]'s rank rule and
/// interpolate geometrically inside a bucket, so they are within 0.4% of
/// the exact value.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    counts: BTreeMap<u32, u64>,
    n: u64,
    sum: f64,
}

impl Hist {
    /// Lower edge of the first bucket (seconds).
    pub const MIN: f64 = 1e-7;
    /// Ratio of a bucket's upper to its lower edge.
    pub const RATIO: f64 = 1.004;

    fn bucket(value: f64) -> u32 {
        let i = ((value / Self::MIN).ln() / Self::RATIO.ln()).floor();
        if i.is_finite() && i > 0.0 {
            i.min(f64::from(u32::MAX)) as u32
        } else {
            0
        }
    }

    /// Records one op time.
    pub fn record(&mut self, seconds: f64) {
        *self.counts.entry(Self::bucket(seconds)).or_default() += 1;
        self.n += 1;
        self.sum += seconds;
    }

    /// Adds every op time of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (&bucket, &count) in &other.counts {
            *self.counts.entry(bucket).or_default() += count;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    /// Ops recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Sum of the recorded times.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The `p`-th percentile (0–100); 0 when empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (p / 100.0) * (self.n - 1) as f64;
        let mut below = 0u64;
        let mut last = 0;
        for (&i, &c) in &self.counts {
            if (below + c) as f64 > rank {
                let within = (rank - below as f64 + 0.5) / c as f64;
                return Self::MIN * Self::RATIO.powf(f64::from(i) + within);
            }
            below += c;
            last = i;
        }
        Self::MIN * Self::RATIO.powf(f64::from(last) + 1.0)
    }

    /// The tail at `fixed`, lowered by the [`tail_rule`] when the run
    /// gathered too few samples for it.
    #[must_use]
    pub fn tail(&self, fixed: f64) -> Tail {
        let p = fixed.min(tail_rule(self.len()));
        Tail {
            percentile: p,
            value: self.percentile(p),
            samples: self.len(),
        }
    }
}

/// splitmix64: a small, fast, seedable generator — the same family the
/// explorer uses for its shuffles.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound ≥ 1`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_rule(0), 50.0);
        assert_eq!(tail_rule(19), 50.0);
        assert_eq!(tail_rule(20), 50.0);
        assert_eq!(tail_rule(40), 75.0);
        assert_eq!(tail_rule(99), 75.0);
        assert_eq!(tail_rule(100), 90.0);
        assert_eq!(tail_rule(200), 95.0);
        assert_eq!(tail_rule(999), 95.0);
        assert_eq!(tail_rule(1000), 99.0);
        assert_eq!(tail_rule(10_000), 99.9);
        for n in [20, 57, 100, 321, 1000, 4567, 10_000, 123_456] {
            let beyond = n as f64 * (1.0 - tail_rule(n) / 100.0);
            assert!(beyond > 9.999, "n={n} beyond={beyond}");
        }
    }

    #[test]
    fn tail_never_exceeds_the_fixed_percentile() {
        let mut samples: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&mut samples, 95.0);
        assert_eq!(t.percentile, 95.0);
        assert!((t.value - 4750.05).abs() < 1e-9);
        let mut few: Vec<f64> = (1..=150).map(f64::from).collect();
        let t = tail(&mut few, 99.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 150);
    }

    #[test]
    fn percentile_interpolates() {
        let mut s = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut s, 0.0), 1.0);
        assert_eq!(percentile(&mut s, 100.0), 4.0);
        assert_eq!(median(&mut s), 2.5);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn hist_percentiles_are_within_a_bucket_of_the_exact_ones() {
        let mut hist = Hist::default();
        let mut exact: Vec<f64> = (1..=5000).map(|i| f64::from(i) * 1e-5).collect();
        for &v in &exact {
            hist.record(v);
        }
        assert_eq!(hist.len(), 5000);
        assert!((hist.sum() - exact.iter().sum::<f64>()).abs() < 1e-9);
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let want = percentile(&mut exact, p);
            let got = hist.percentile(p);
            assert!((got / want - 1.0).abs() < 4e-3, "p{p}: {got} vs {want}");
        }
        let t = hist.tail(99.9);
        assert_eq!((t.percentile, t.samples), (99.0, 5000));
        assert_eq!(Hist::default().percentile(50.0), 0.0);
    }

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
