//! Key-access distributions: uniform, Zipfian (YCSB-style) and hotspot.
//!
//! The paper's Table I sweeps three distributions; "hotspot" means 80 % of
//! operations target 20 % of keys. The Zipfian sampler uses the standard
//! YCSB construction with exponent θ = 0.99.

use aion_types::SplitMix64;

/// Which distribution keys are drawn from.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipf-distributed ranks, θ = 0.99 (YCSB default).
    #[default]
    Zipfian,
    /// 80 % of accesses go to the first 20 % of keys.
    Hotspot,
}

impl KeyDist {
    /// Parse the experiment-harness spelling.
    pub fn parse(s: &str) -> Option<KeyDist> {
        match s {
            "uniform" => Some(KeyDist::Uniform),
            "zipfian" => Some(KeyDist::Zipfian),
            "hotspot" => Some(KeyDist::Hotspot),
            _ => None,
        }
    }

    /// Label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipfian => "zipfian",
            KeyDist::Hotspot => "hotspot",
        }
    }
}

/// A sampler over `[0, n)` for one of the [`KeyDist`]s.
#[derive(Clone, Debug)]
pub struct KeySampler {
    n: u64,
    inner: SamplerImpl,
}

#[derive(Clone, Debug)]
enum SamplerImpl {
    Uniform,
    Zipfian(Zipfian),
    Hotspot { hot: u64 },
}

impl KeySampler {
    /// Build a sampler for `dist` over `n` keys (`n > 0`).
    pub fn new(dist: KeyDist, n: u64) -> KeySampler {
        assert!(n > 0, "key space must be non-empty");
        let inner = match dist {
            KeyDist::Uniform => SamplerImpl::Uniform,
            KeyDist::Zipfian => SamplerImpl::Zipfian(Zipfian::new(n, 0.99)),
            KeyDist::Hotspot => SamplerImpl::Hotspot { hot: (n / 5).max(1) },
        };
        KeySampler { n, inner }
    }

    /// Draw a key index in `[0, n)`.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        match &self.inner {
            SamplerImpl::Uniform => rng.below(self.n),
            SamplerImpl::Zipfian(z) => z.sample(rng),
            SamplerImpl::Hotspot { hot } => {
                if rng.chance(0.8) {
                    rng.below(*hot)
                } else if self.n > *hot {
                    hot + rng.below(self.n - hot)
                } else {
                    rng.below(self.n)
                }
            }
        }
    }
}

/// YCSB-style Zipfian generator over ranks `0..n`.
#[derive(Clone, Debug)]
struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    fn new(n: u64, theta: f64) -> Zipfian {
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian { n, theta, alpha, zetan, eta }
    }

    fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1.min(self.n - 1);
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Generalized harmonic number `H_{n,theta}`.
fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frequencies(dist: KeyDist, n: u64, draws: usize) -> Vec<usize> {
        let s = KeySampler::new(dist, n);
        let mut rng = SplitMix64::new(7);
        let mut counts = vec![0usize; n as usize];
        for _ in 0..draws {
            counts[s.sample(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn all_samplers_stay_in_range() {
        for dist in [KeyDist::Uniform, KeyDist::Zipfian, KeyDist::Hotspot] {
            let s = KeySampler::new(dist, 100);
            let mut rng = SplitMix64::new(1);
            for _ in 0..10_000 {
                assert!(s.sample(&mut rng) < 100, "{dist:?} out of range");
            }
        }
    }

    #[test]
    fn uniform_is_roughly_flat() {
        let counts = frequencies(KeyDist::Uniform, 10, 100_000);
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "uniform count {c}");
        }
    }

    #[test]
    fn zipfian_is_heavily_skewed_to_rank_zero() {
        let counts = frequencies(KeyDist::Zipfian, 1000, 100_000);
        assert!(counts[0] > counts[500] * 10, "rank 0 should dominate");
        // Rank ordering approximately decreasing between far-apart ranks.
        assert!(counts[0] > counts[100]);
    }

    #[test]
    fn hotspot_sends_80pct_to_20pct() {
        let n = 100u64;
        let counts = frequencies(KeyDist::Hotspot, n, 100_000);
        let hot: usize = counts[..20].iter().sum();
        let total: usize = counts.iter().sum();
        let frac = hot as f64 / total as f64;
        assert!((0.77..0.83).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn tiny_key_spaces_work() {
        for dist in [KeyDist::Uniform, KeyDist::Zipfian, KeyDist::Hotspot] {
            let s = KeySampler::new(dist, 1);
            let mut rng = SplitMix64::new(3);
            for _ in 0..100 {
                assert_eq!(s.sample(&mut rng), 0);
            }
        }
    }

    #[test]
    fn parse_and_label_roundtrip() {
        for d in [KeyDist::Uniform, KeyDist::Zipfian, KeyDist::Hotspot] {
            assert_eq!(KeyDist::parse(d.label()), Some(d));
        }
        assert_eq!(KeyDist::parse("nope"), None);
    }
}
