//! Order statistics, the run fingerprint and process memory.

use kernelsim::SystemStats;
use smartbalance::splitmix64;

/// Nearest-rank percentile `p` (in percent) of `samples`, or `None`
/// when fewer than ten samples lie beyond it: a p90 needs at least 100
/// samples, a p50 at least 20. A tail read off a handful of samples is
/// one unlucky sample, not a percentile.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    assert!(
        (1..100).contains(&p),
        "percentile must be in 1..100, got {p}"
    );
    let n = samples.len();
    if n * (100 - p as usize) < 1000 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (n * p as usize).div_ceil(100);
    Some(sorted[rank - 1])
}

/// A uniform random sample of at most [`Reservoir::CAP`] values of a
/// stream (Algorithm R with a fixed-seed generator). Percentiles pool
/// over every round of a run, but a run fits as many rounds as its time
/// allows: keeping every sample would make `peak_rss_mb` grow when the
/// program gets faster.
#[derive(Debug)]
pub struct Reservoir {
    values: Vec<f64>,
    seen: u64,
}

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir {
            values: Vec::with_capacity(Self::CAP),
            seen: 0,
        }
    }
}

impl Reservoir {
    /// Samples kept at most.
    pub const CAP: usize = 20_000;

    /// Offers every value of `values`.
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.seen += 1;
            if self.values.len() < Self::CAP {
                self.values.push(v);
            } else {
                let j = splitmix64(self.seen) % self.seen;
                if let Some(slot) = self.values.get_mut(j as usize) {
                    *slot = v;
                }
            }
        }
    }

    /// The kept samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice. Used for the median over in-process rounds, where
/// the round count, not a tail, is what is summarized.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over 64-bit words: the simulated outcome of a round. Two
/// rounds of the same inputs must hash equal; a change that only makes
/// the program faster must leave it unchanged.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds one word into the hash.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a run's simulated outcome: instructions, energy bits,
    /// migrations and slices.
    pub fn outcome(&mut self, st: &SystemStats) {
        for w in [
            st.total_instructions,
            st.total_energy_j.to_bits(),
            st.migrations,
            st.total_slices,
        ] {
            self.word(w);
        }
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM` of
/// `/proc/self/status`), or `None` where that file does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_p90_below_100_samples() {
        let samples: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90), None);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90), Some(90.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50), Some(10.0));
        assert_eq!(percentile(&samples[..19], 50), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::default();
        r.extend((0..100_000).map(f64::from));
        assert_eq!(r.values().len(), Reservoir::CAP);
        let p50 = percentile(r.values(), 50).expect("enough samples");
        assert!(
            (p50 - 50_000.0).abs() < 2_000.0,
            "uniform sample, p50 {p50}"
        );
    }

    #[test]
    fn fingerprint_depends_on_every_word() {
        let mut a = Fingerprint::default();
        let mut b = Fingerprint::default();
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a.value(), b.value(), "order matters");
    }
}
