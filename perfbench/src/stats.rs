//! Sample statistics, the seeded input generator and process probes.

/// SplitMix64: the benchmark's own input generator. Inputs come from
/// `--seed` through this stream only, so they stay the same whatever the
/// program under test does with its own random-number code.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one named purpose.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A DNA-like byte string over `ACGT`.
    pub fn sequence(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| b"ACGT"[self.below(4) as usize]).collect()
    }
}

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Zero-based index of the nearest-rank percentile `p` in a sorted sample.
fn rank_index(n: usize, p: f64) -> usize {
    // The tolerance keeps exact ranks such as 99.9% of 10000 from
    // rounding up past 9990.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// A tail statistic: the percentile chosen, its value and the sample size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// strictly beyond its nearest-rank position. A sample too small for even
/// the median reports its maximum as percentile 100.
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    for p in TAIL_LADDER {
        let i = rank_index(n, p);
        if n - 1 - i >= 10 {
            return Tail {
                percentile: p,
                value: s[i],
                samples: n,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: *s.last().expect("tail of an empty sample"),
        samples: n,
    }
}

/// Metric names: a letter or digit first, then at most 63 more of
/// `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 50.0, "99 samples leave 9 beyond p90");

        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));

        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 99.9);

        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 50.0);
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value), (100.0, 19.0));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut rng = Rng::new(3);
        let mut xs: Vec<f64> = (0..500).map(|_| rng.unit()).collect();
        let a = tail(&xs);
        xs.reverse();
        assert_eq!(a, tail(&xs));
        assert!(xs.iter().filter(|&&x| x > a.value).count() >= 10);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "solve_ms_p50",
            "runtime.tile_overhead_us",
            "a-b.c_9",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ms%", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn rng_is_seed_deterministic() {
        let a: Vec<u64> = {
            let mut r = Rng::fork(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::fork(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::fork(7, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| r.below(5) < 5));
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }
}
