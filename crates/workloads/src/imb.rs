//! Interactive micro-benchmarks (IMB), paper Section 6.
//!
//! "Sets of multithreaded synthetic benchmarks ... that provide the
//! ability to control the load, phasic behavior, and interactivity
//! (sleep and wait periods). The IMBs can be configured to have
//! throughput (T) and interactivity (I) ... for high (H), medium (M),
//! and low (L) values" — e.g. `HTHI` is high-throughput /
//! high-interactivity.

use std::fmt;

use archsim::WorkloadCharacteristics;

use crate::profile::{Phase, SleepPattern, WorkloadProfile};

/// A high/medium/low level for a throughput or interactivity axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// High.
    High,
    /// Medium.
    Medium,
    /// Low.
    Low,
}

impl Level {
    /// All three levels, high first.
    pub const ALL: [Level; 3] = [Level::High, Level::Medium, Level::Low];

    fn letter(self) -> char {
        match self {
            Level::High => 'H',
            Level::Medium => 'M',
            Level::Low => 'L',
        }
    }
}

/// Configuration of one IMB: a throughput level and an interactivity
/// level, named like the paper (`HTHI`, `MTLI`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImbConfig {
    /// Demanded throughput level (controls compute intensity / ILP).
    pub throughput: Level,
    /// Interactivity level (controls sleep/wait share).
    pub interactivity: Level,
}

impl ImbConfig {
    /// Creates a config.
    pub fn new(throughput: Level, interactivity: Level) -> Self {
        ImbConfig {
            throughput,
            interactivity,
        }
    }

    /// All nine T×I combinations (the paper's Fig. 4(a) x-axis),
    /// ordered `HTHI, HTMI, ..., LTLI`.
    pub fn all_nine() -> Vec<ImbConfig> {
        let mut v = Vec::with_capacity(9);
        for t in Level::ALL {
            for i in Level::ALL {
                v.push(ImbConfig::new(t, i));
            }
        }
        v
    }

    /// Paper-style name like `"HTHI"`.
    pub fn name(&self) -> String {
        format!(
            "{}T{}I",
            self.throughput.letter(),
            self.interactivity.letter()
        )
    }

    /// Builds the workload profile for this configuration.
    ///
    /// Throughput controls the compute intensity of the bursts (high =
    /// ILP-rich cache-friendly kernel that benefits from big cores; low
    /// = lean, memory-touched loop that does not). Interactivity
    /// controls how much of wall-clock time is spent sleeping between
    /// bursts (high = mostly waiting, like UI / IO-driven threads).
    pub fn profile(&self) -> WorkloadProfile {
        let characteristics = match self.throughput {
            Level::High => WorkloadCharacteristics {
                ilp: 5.5,
                mem_share: 0.20,
                branch_share: 0.08,
                data_working_set_kib: 32.0,
                code_working_set_kib: 12.0,
                branch_entropy: 0.10,
                data_pages: 48.0,
                code_pages: 8.0,
                mlp: 3.5,
            },
            Level::Medium => WorkloadCharacteristics {
                ilp: 2.8,
                mem_share: 0.32,
                branch_share: 0.15,
                data_working_set_kib: 128.0,
                code_working_set_kib: 24.0,
                branch_entropy: 0.30,
                data_pages: 192.0,
                code_pages: 16.0,
                mlp: 2.2,
            },
            Level::Low => WorkloadCharacteristics {
                ilp: 1.4,
                mem_share: 0.42,
                branch_share: 0.20,
                data_working_set_kib: 384.0,
                code_working_set_kib: 32.0,
                branch_entropy: 0.45,
                data_pages: 512.0,
                code_pages: 24.0,
                mlp: 1.4,
            },
        }
        .clamped();

        // Interactivity: duty cycle of compute vs sleep. A burst is
        // ~2 ms of work on a medium core; sleeps scale to achieve the
        // target duty cycle.
        let burst_instructions: u64 = 2_000_000;
        let sleep_ns: u64 = match self.interactivity {
            Level::High => 6_000_000,   // ~25 % duty cycle
            Level::Medium => 2_000_000, // ~50 %
            Level::Low => 400_000,      // ~85 %
        };

        let total = match self.throughput {
            Level::High => 400_000_000,
            Level::Medium => 250_000_000,
            Level::Low => 150_000_000,
        };

        WorkloadProfile::new(self.name(), vec![Phase::new(characteristics, total)])
            .with_sleep(SleepPattern::new(burst_instructions, sleep_ns))
    }
}

impl fmt::Display for ImbConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_unique_configs() {
        let all = ImbConfig::all_nine();
        assert_eq!(all.len(), 9);
        let mut names: Vec<String> = all.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 9);
        assert!(names.contains(&"HTHI".to_owned()));
        assert!(names.contains(&"LTLI".to_owned()));
    }

    #[test]
    fn display_matches_paper_labels() {
        let c = ImbConfig::new(Level::High, Level::Low);
        assert_eq!(c.to_string(), "HTLI");
    }

    #[test]
    fn high_throughput_is_more_compute_bound() {
        let h = ImbConfig::new(Level::High, Level::Medium).profile();
        let l = ImbConfig::new(Level::Low, Level::Medium).profile();
        assert!(h.phases()[0].characteristics.ilp > l.phases()[0].characteristics.ilp);
        assert!(h.total_instructions() > l.total_instructions());
    }

    #[test]
    fn high_interactivity_sleeps_more() {
        let hi = ImbConfig::new(Level::Medium, Level::High).profile();
        let li = ImbConfig::new(Level::Medium, Level::Low).profile();
        let hi_sleep = hi.sleep_pattern().expect("imb always has sleep");
        let li_sleep = li.sleep_pattern().expect("imb always has sleep");
        assert!(hi_sleep.sleep_ns > li_sleep.sleep_ns);
        assert_eq!(hi_sleep.burst_instructions, li_sleep.burst_instructions);
    }
}
