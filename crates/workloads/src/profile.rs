//! Workload profiles: phase-structured descriptions of a benchmark
//! thread's execution, including optional interactive (sleep/wake)
//! behaviour.
//!
//! A profile is the unit the kernel simulator attaches to a task: a
//! sequence of [`Phase`]s, each with intrinsic
//! [`WorkloadCharacteristics`] and a length in committed instructions,
//! plus an optional [`SleepPattern`] describing interactivity (the
//! paper's IMB benchmarks control exactly this).

use archsim::WorkloadCharacteristics;
use serde::{Deserialize, Serialize};

/// One execution phase: `instructions` committed with the given
/// intrinsic characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Intrinsic characteristics during this phase.
    pub characteristics: WorkloadCharacteristics,
    /// Phase length in committed instructions.
    pub instructions: u64,
}

impl Phase {
    /// Creates a phase.
    ///
    /// # Panics
    ///
    /// Panics if `instructions == 0`.
    pub fn new(characteristics: WorkloadCharacteristics, instructions: u64) -> Self {
        assert!(
            instructions > 0,
            "a phase must commit at least one instruction"
        );
        Phase {
            characteristics,
            instructions,
        }
    }
}

/// Interactive behaviour: run `burst_instructions`, then sleep for
/// `sleep_ns` (waiting for I/O, a frame deadline, user input, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SleepPattern {
    /// Instructions committed between sleeps.
    pub burst_instructions: u64,
    /// Sleep duration after each burst, nanoseconds.
    pub sleep_ns: u64,
}

impl SleepPattern {
    /// Creates a sleep pattern.
    ///
    /// # Panics
    ///
    /// Panics if `burst_instructions == 0`.
    pub fn new(burst_instructions: u64, sleep_ns: u64) -> Self {
        assert!(
            burst_instructions > 0,
            "burst must be at least one instruction"
        );
        SleepPattern {
            burst_instructions,
            sleep_ns,
        }
    }
}

/// Cursor memoizing the phase a task is currently executing, so that
/// repeated phase lookups under monotone progress are O(1) amortized
/// instead of O(phases) per call.
///
/// The cursor caches `(index, start)` of the last phase served and
/// walks forward from there; when progress moved backwards (a
/// repeating task restarting its profile) it rewinds and rescans from
/// phase 0. It therefore never changes lookup *results*, only their
/// cost. A cursor is tied to the profile it was advanced on — reuse
/// against a different profile is a logic error (each task owns one
/// cursor for its own profile).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCursor {
    /// Index of the cached phase.
    index: usize,
    /// Instructions consumed by all phases before `index`.
    start: u64,
}

impl PhaseCursor {
    /// A cursor positioned at the first phase.
    pub fn new() -> Self {
        PhaseCursor::default()
    }

    /// Index of the phase the cursor last resolved.
    pub fn index(&self) -> usize {
        self.index
    }
}

/// A complete workload profile for one thread.
///
/// # Examples
///
/// ```
/// use archsim::WorkloadCharacteristics;
/// use workloads::{Phase, WorkloadProfile};
///
/// let profile = WorkloadProfile::new(
///     "two-phase",
///     vec![
///         Phase::new(WorkloadCharacteristics::compute_bound(), 1_000_000),
///         Phase::new(WorkloadCharacteristics::memory_bound(), 2_000_000),
///     ],
/// );
/// assert_eq!(profile.total_instructions(), 3_000_000);
/// // Progress 0 is in the compute phase; past 1M is in the memory phase.
/// assert!(profile.characteristics_at(0).ilp > profile.characteristics_at(1_500_000).ilp);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    name: String,
    phases: Vec<Phase>,
    sleep: Option<SleepPattern>,
    total_instructions: u64,
}

impl WorkloadProfile {
    /// Creates a profile from a non-empty phase list.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty.
    pub fn new(name: impl Into<String>, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "a profile needs at least one phase");
        // Saturating: a profile of deliberately huge phases (u64::MAX
        // sentinels for "runs forever") must not wrap the total.
        let total = phases
            .iter()
            .fold(0u64, |acc, p| acc.saturating_add(p.instructions));
        WorkloadProfile {
            name: name.into(),
            phases,
            sleep: None,
            total_instructions: total,
        }
    }

    /// Single-phase convenience constructor.
    pub fn uniform(
        name: impl Into<String>,
        characteristics: WorkloadCharacteristics,
        instructions: u64,
    ) -> Self {
        WorkloadProfile::new(name, vec![Phase::new(characteristics, instructions)])
    }

    /// Attaches an interactive sleep pattern (builder style).
    pub fn with_sleep(mut self, sleep: SleepPattern) -> Self {
        self.sleep = Some(sleep);
        self
    }

    /// Profile name (e.g. `"x264_H_crew"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The phase list.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// The interactivity pattern, if any.
    pub fn sleep_pattern(&self) -> Option<SleepPattern> {
        self.sleep
    }

    /// Total instructions the thread commits before exiting.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Characteristics in effect after `progress` committed
    /// instructions. Progress at or past the end returns the last
    /// phase's characteristics.
    pub fn characteristics_at(&self, progress: u64) -> &WorkloadCharacteristics {
        let mut cursor = PhaseCursor::new();
        &self.phases[self.phase_index_at(&mut cursor, progress)].characteristics
    }

    /// Instructions remaining in the phase active at `progress`
    /// (`None` once the profile is complete).
    pub fn remaining_in_phase(&self, progress: u64) -> Option<u64> {
        let mut cursor = PhaseCursor::new();
        self.remaining_in_phase_with(&mut cursor, progress)
    }

    /// Index of the phase active at `progress`, advancing `cursor` so
    /// the next lookup under monotone progress is O(1) amortized.
    /// Progress at or past the end resolves to the last phase.
    pub fn phase_index_at(&self, cursor: &mut PhaseCursor, progress: u64) -> usize {
        // Progress moved backwards (profile restart) or the cursor
        // belongs to another profile: rewind and rescan.
        if progress < cursor.start || cursor.index >= self.phases.len() {
            *cursor = PhaseCursor::new();
        }
        loop {
            let end = cursor
                .start
                .saturating_add(self.phases[cursor.index].instructions);
            if progress < end || cursor.index + 1 == self.phases.len() {
                return cursor.index;
            }
            cursor.start = end;
            cursor.index += 1;
        }
    }

    /// Cursor-accelerated [`WorkloadProfile::characteristics_at`].
    pub fn characteristics_with(
        &self,
        cursor: &mut PhaseCursor,
        progress: u64,
    ) -> &WorkloadCharacteristics {
        &self.phases[self.phase_index_at(cursor, progress)].characteristics
    }

    /// Cursor-accelerated [`WorkloadProfile::remaining_in_phase`].
    pub fn remaining_in_phase_with(&self, cursor: &mut PhaseCursor, progress: u64) -> Option<u64> {
        if progress >= self.total_instructions {
            return None;
        }
        let idx = self.phase_index_at(cursor, progress);
        let end = cursor.start.saturating_add(self.phases[idx].instructions);
        Some(end - progress)
    }

    /// Scales every phase length by `factor`, preserving the phase
    /// structure; used to derive 2/4/8-thread variants where each
    /// thread handles a slice of the total work.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        let phases = self
            .phases
            .iter()
            .map(|p| Phase {
                characteristics: p.characteristics,
                instructions: ((p.instructions as f64 * factor).round() as u64).max(1),
            })
            .collect();
        let mut out = WorkloadProfile::new(self.name.clone(), phases);
        out.sleep = self.sleep;
        out
    }

    /// Splits the profile into `threads` worker shares that together
    /// commit exactly `total_instructions()` (when every phase has at
    /// least `threads` instructions): the first `threads - 1` workers
    /// take `1/threads` of each phase, the last takes the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn split_among(&self, threads: usize) -> Vec<Self> {
        assert!(threads > 0, "need at least one thread");
        if threads == 1 {
            return vec![self.clone()];
        }
        let share = self.scaled(1.0 / threads as f64);
        let copies = (threads - 1) as u64;
        let last_phases = self
            .phases
            .iter()
            .zip(share.phases())
            .map(|(orig, part)| Phase {
                characteristics: orig.characteristics,
                // Whatever the equal shares did not cover; a rounded-up
                // share of a tiny phase can cover it all, so clamp.
                instructions: orig
                    .instructions
                    .saturating_sub(part.instructions * copies)
                    .max(1),
            })
            .collect();
        let mut last = WorkloadProfile::new(self.name.clone(), last_phases);
        last.sleep = self.sleep;
        let mut parts = vec![share; threads - 1];
        parts.push(last);
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase() -> WorkloadProfile {
        WorkloadProfile::new(
            "t",
            vec![
                Phase::new(WorkloadCharacteristics::compute_bound(), 100),
                Phase::new(WorkloadCharacteristics::memory_bound(), 200),
            ],
        )
    }

    #[test]
    fn totals_and_lookup() {
        let p = two_phase();
        assert_eq!(p.total_instructions(), 300);
        assert_eq!(
            *p.characteristics_at(0),
            WorkloadCharacteristics::compute_bound()
        );
        assert_eq!(
            *p.characteristics_at(99),
            WorkloadCharacteristics::compute_bound()
        );
        assert_eq!(
            *p.characteristics_at(100),
            WorkloadCharacteristics::memory_bound()
        );
        // Past the end: last phase.
        assert_eq!(
            *p.characteristics_at(10_000),
            WorkloadCharacteristics::memory_bound()
        );
    }

    #[test]
    fn remaining_in_phase() {
        let p = two_phase();
        assert_eq!(p.remaining_in_phase(0), Some(100));
        assert_eq!(p.remaining_in_phase(99), Some(1));
        assert_eq!(p.remaining_in_phase(100), Some(200));
        assert_eq!(p.remaining_in_phase(299), Some(1));
        assert_eq!(p.remaining_in_phase(300), None);
        assert_eq!(p.remaining_in_phase(301), None);
    }

    #[test]
    fn scaled_preserves_structure() {
        let p = two_phase().with_sleep(SleepPattern::new(10, 5));
        let s = p.scaled(2.0);
        assert_eq!(s.total_instructions(), 600);
        assert_eq!(s.phases().len(), 2);
        assert_eq!(s.sleep_pattern(), Some(SleepPattern::new(10, 5)));
        let tiny = p.scaled(1e-9);
        assert!(
            tiny.total_instructions() >= 2,
            "phases never collapse to zero"
        );
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_profile_rejected() {
        WorkloadProfile::new("bad", vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn empty_phase_rejected() {
        Phase::new(WorkloadCharacteristics::balanced(), 0);
    }

    #[test]
    fn characteristics_at_exact_boundaries() {
        let p = WorkloadProfile::new(
            "b",
            vec![
                Phase::new(WorkloadCharacteristics::compute_bound(), 1),
                Phase::new(WorkloadCharacteristics::memory_bound(), 1),
                Phase::new(WorkloadCharacteristics::branch_bound(), 1),
            ],
        );
        assert_eq!(
            *p.characteristics_at(0),
            WorkloadCharacteristics::compute_bound()
        );
        assert_eq!(
            *p.characteristics_at(1),
            WorkloadCharacteristics::memory_bound()
        );
        assert_eq!(
            *p.characteristics_at(2),
            WorkloadCharacteristics::branch_bound()
        );
        assert_eq!(
            *p.characteristics_at(3),
            WorkloadCharacteristics::branch_bound()
        );
    }

    #[test]
    fn scaled_total_tracks_factor() {
        let p = WorkloadProfile::new(
            "s",
            vec![
                Phase::new(WorkloadCharacteristics::balanced(), 1_000),
                Phase::new(WorkloadCharacteristics::balanced(), 3_000),
            ],
        );
        let half = p.scaled(0.5);
        assert_eq!(half.total_instructions(), 2_000);
        // Per-phase proportions preserved.
        assert_eq!(half.phases()[0].instructions, 500);
        assert_eq!(half.phases()[1].instructions, 1_500);
    }

    #[test]
    fn split_among_conserves_instructions() {
        let p = WorkloadProfile::new(
            "odd",
            vec![
                Phase::new(WorkloadCharacteristics::compute_bound(), 1_000_003),
                Phase::new(WorkloadCharacteristics::memory_bound(), 777),
            ],
        )
        .with_sleep(SleepPattern::new(10, 5));
        for threads in [1, 2, 3, 4, 8] {
            let parts = p.split_among(threads);
            assert_eq!(parts.len(), threads);
            let total: u64 = parts.iter().map(WorkloadProfile::total_instructions).sum();
            assert_eq!(total, p.total_instructions(), "{threads} threads");
            for part in &parts {
                assert_eq!(part.sleep_pattern(), Some(SleepPattern::new(10, 5)));
                assert_eq!(part.phases().len(), 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_rejects_zero_factor() {
        WorkloadProfile::uniform("z", WorkloadCharacteristics::balanced(), 10).scaled(0.0);
    }

    #[test]
    fn cursor_lookup_matches_scan_everywhere() {
        let p = WorkloadProfile::new(
            "c",
            vec![
                Phase::new(WorkloadCharacteristics::compute_bound(), 100),
                Phase::new(WorkloadCharacteristics::memory_bound(), 1),
                Phase::new(WorkloadCharacteristics::branch_bound(), 250),
            ],
        );
        let mut cursor = PhaseCursor::new();
        for progress in 0..400 {
            assert_eq!(
                p.characteristics_with(&mut cursor, progress),
                p.characteristics_at(progress),
                "progress {progress}"
            );
            assert_eq!(
                p.remaining_in_phase_with(&mut cursor, progress),
                p.remaining_in_phase(progress),
                "progress {progress}"
            );
        }
        assert_eq!(cursor.index(), 2);
    }

    #[test]
    fn cursor_rewinds_on_backwards_progress() {
        let p = two_phase();
        let mut cursor = PhaseCursor::new();
        assert_eq!(p.phase_index_at(&mut cursor, 250), 1);
        // A repeating task restarts its profile: progress drops to 0.
        assert_eq!(p.phase_index_at(&mut cursor, 0), 0);
        assert_eq!(p.remaining_in_phase_with(&mut cursor, 0), Some(100));
    }

    #[test]
    fn cursor_past_end_resolves_to_last_phase() {
        let p = two_phase();
        let mut cursor = PhaseCursor::new();
        assert_eq!(p.phase_index_at(&mut cursor, 300), 1);
        assert_eq!(p.phase_index_at(&mut cursor, u64::MAX), 1);
        assert_eq!(p.remaining_in_phase_with(&mut cursor, 300), None);
    }

    #[test]
    fn overflow_boundary_saturates() {
        // Cumulative phase sums beyond u64::MAX must saturate, not
        // wrap: the huge phase absorbs all progress below u64::MAX.
        let p = WorkloadProfile::new(
            "huge",
            vec![
                Phase::new(WorkloadCharacteristics::compute_bound(), u64::MAX - 10),
                Phase::new(WorkloadCharacteristics::memory_bound(), 1_000),
            ],
        );
        assert_eq!(p.total_instructions(), u64::MAX);
        assert_eq!(
            *p.characteristics_at(u64::MAX - 11),
            WorkloadCharacteristics::compute_bound()
        );
        assert_eq!(
            *p.characteristics_at(u64::MAX - 5),
            WorkloadCharacteristics::memory_bound()
        );
        assert_eq!(p.remaining_in_phase(u64::MAX - 11), Some(1));
        // Inside the saturated tail phase: remaining is clamped to the
        // saturated end, never a wrapped tiny value.
        assert_eq!(p.remaining_in_phase(u64::MAX - 10), Some(10));
        assert_eq!(p.remaining_in_phase(u64::MAX), None);
        let mut cursor = PhaseCursor::new();
        assert_eq!(p.phase_index_at(&mut cursor, u64::MAX - 1), 1);
    }

    #[test]
    fn uniform_constructor() {
        let p = WorkloadProfile::uniform("u", WorkloadCharacteristics::balanced(), 42);
        assert_eq!(p.phases().len(), 1);
        assert_eq!(p.total_instructions(), 42);
        assert_eq!(p.name(), "u");
        assert_eq!(p.sleep_pattern(), None);
    }
}
