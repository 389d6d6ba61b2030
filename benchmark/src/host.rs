//! Host time at a reference host speed.
//!
//! The benchmark runs on shared machines whose speed for this program
//! moves by up to ~1.5× for tenths of a second to minutes at a time, as
//! other tenants load the physical cores. A median over a run cannot
//! remove that: a whole run can fall in a slow stretch. So every timed
//! stretch of a round is bracketed by a probe, a fixed kernel of
//! branchy, L1-resident work timed on as many threads as the workload
//! keeps busy, and its host time is scaled by [`PROBE_REF_S`] over the
//! mean of the probes before and after it. A scaled time reads as the
//! time the work would have taken on a host where one probe takes
//! [`PROBE_REF_S`].
//!
//! The probe is the benchmark's own code: a change to the program moves
//! the work it times, never the probe. Of the kernels tried (a multiply
//! chain, independent multiply chains, dependent reads in 1 MiB,
//! streaming reads of 8 MiB, and this one), this one followed the
//! slice loop's host time best: over five minutes of `hotloop` on a
//! shared 2-vCPU Xeon VM, the loop's 20-second medians spread 13%
//! (quartile distance over median) raw and 1.3% scaled.

use std::hint::black_box;
use std::time::Instant;

use smartbalance::splitmix64;

/// Host seconds one probe is scaled to. A round number: on the
/// calibration machine a probe took about 1.3 ms.
const PROBE_REF_S: f64 = 1e-3;

/// Host seconds of work between two probes at least. State changes last
/// a tenth of a second or more; a probe costs about 1 ms.
const SEGMENT_S: f64 = 0.05;

/// Steps of one probe.
const PROBE_STEPS: u64 = 100_000;

/// 2^-64: maps a `u64` into `[0, 1)`.
const TO_UNIT: f64 = 1.0 / 18_446_744_073_709_551_616.0;

/// The probe kernel: pseudo-random reads of a 16 KiB table, float
/// arithmetic on them, and a branch taken at random half of the time.
fn kernel(seed: u64) -> u64 {
    let mut table = [0u64; 2048];
    for (i, slot) in table.iter_mut().enumerate() {
        *slot = splitmix64(seed ^ i as u64);
    }
    let (mut acc, mut state, mut taken) = (0.0f64, seed, 0u64);
    for i in 0..PROBE_STEPS {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let v = table[(state >> 33) as usize & 2047] as f64 * TO_UNIT;
        if v > 0.5 {
            acc += v * 1.0001;
            taken += 1;
        } else {
            acc -= v * 0.5;
        }
        if i % 7 == 0 {
            acc *= 0.999;
        }
    }
    acc.to_bits() ^ taken
}

/// Host seconds of one probe, run on `threads` threads at once and
/// averaged over them.
fn probe(threads: usize) -> f64 {
    let time = |seed: u64| {
        let t = Instant::now();
        black_box(kernel(black_box(seed)));
        t.elapsed().as_secs_f64()
    };
    if threads <= 1 {
        return time(0);
    }
    std::thread::scope(|s| {
        let others: Vec<_> = (1..threads)
            .map(|k| s.spawn(move || time(k as u64)))
            .collect();
        let mine = time(0);
        let theirs: f64 = others
            .into_iter()
            .map(|h| h.join().expect("a probe thread does not panic"))
            .sum();
        (mine + theirs) / threads as f64
    })
}

/// The laps of a [`Clock`], in order.
#[derive(Debug, Default)]
pub struct Laps {
    /// Host seconds of each lap.
    pub host: Vec<f64>,
    /// Each lap scaled to the reference host speed.
    pub scaled: Vec<f64>,
}

/// A stopwatch over consecutive laps of work. Laps are grouped into
/// segments of at least [`SEGMENT_S`]; a probe closes each segment and
/// scales its laps. Probe time is in no lap.
pub struct Clock {
    threads: usize,
    /// Host seconds of the probe that opened the current segment.
    probe_s: f64,
    /// When the current segment opened.
    opened: Instant,
    /// When the last lap ended.
    mark: Instant,
    /// Host seconds of the laps of the current segment.
    open: Vec<f64>,
    laps: Laps,
}

impl Clock {
    /// Probes on `threads` threads and starts the first lap.
    pub fn start(threads: usize) -> Self {
        let probe_s = probe(threads);
        let now = Instant::now();
        Clock {
            threads,
            probe_s,
            opened: now,
            mark: now,
            open: Vec::new(),
            laps: Laps::default(),
        }
    }

    /// Ends the current lap and starts the next. Closes the segment
    /// when it has lasted [`SEGMENT_S`].
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.open.push(now.duration_since(self.mark).as_secs_f64());
        self.mark = now;
        if now.duration_since(self.opened).as_secs_f64() >= SEGMENT_S {
            self.close();
        }
    }

    fn close(&mut self) {
        if self.open.is_empty() {
            return;
        }
        let probe_s = probe(self.threads);
        let scale = PROBE_REF_S / ((self.probe_s + probe_s) / 2.0);
        for host in self.open.drain(..) {
            self.laps.host.push(host);
            self.laps.scaled.push(host * scale);
        }
        self.probe_s = probe_s;
        self.opened = Instant::now();
        self.mark = self.opened;
    }

    /// Closes the last segment and returns every lap.
    pub fn finish(mut self) -> Laps {
        self.close();
        self.laps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_are_scaled_by_the_probes_around_them() {
        let mut clock = Clock::start(1);
        for _ in 0..3 {
            std::thread::sleep(std::time::Duration::from_millis(30));
            clock.lap();
        }
        let laps = clock.finish();
        assert_eq!(laps.host.len(), 3);
        assert!(laps.host.iter().all(|&s| s >= 0.03), "{:?}", laps.host);
        // The first two laps share a segment, hence a scale.
        let scale = |i: usize| laps.scaled[i] / laps.host[i];
        assert!((scale(0) - scale(1)).abs() < 1e-12);
        assert!(scale(0) > 0.0 && scale(2) > 0.0);
    }
}
