//! Exact quantiles, medians, seeded randomness and process counters.

use std::time::Duration;

/// Exact nearest-rank quantile of `sorted` (ascending): the smallest
/// sample `x` with at least `q · n` samples `<= x`. `None` when empty.
///
/// # Panics
///
/// Panics if `q` is outside `(0, 1]`.
#[must_use]
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// p50 and p99 of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantiles {
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Number of samples.
    pub count: usize,
}

/// Exact p50/p99 of `samples` (sorted in place). `None` when empty.
#[must_use]
pub fn p50_p99(samples: &mut [u64]) -> Option<Quantiles> {
    samples.sort_unstable();
    Some(Quantiles {
        p50: quantile_sorted(samples, 0.50)?,
        p99: quantile_sorted(samples, 0.99)?,
        count: samples.len(),
    })
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Upper quartile of `values` by nearest rank: the host-rate estimator.
/// Slow periods of a shared host drag a run's median down; the upper
/// quartile discounts them while staying clear of the few fastest units.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn upper_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((0.75 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of durations, in seconds.
#[must_use]
pub fn median_secs(values: &[Duration]) -> f64 {
    median(&values.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// Geometric mean of positive values.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// SplitMix64: the benchmark's own seeded generator, so its inputs
/// depend on the seed argument alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Derive an independent sub-seed.
#[must_use]
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Zipf popularity over `n` ranks.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf with exponent `s` over `n > 0` ranks.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// FNV-1a over a byte string: a cheap digest for comparing runs.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
