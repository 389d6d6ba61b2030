//! Scheduler events — the simulator's `ftrace`/`sched_switch`
//! equivalent, recorded on the hub next to the epoch spans.
//!
//! Events are off by default (zero overhead beyond a branch); enable
//! them with [`crate::Telemetry::set_trace`]. `Slice` events are the
//! hot path, so a [`TraceLevel`] gates them separately from the rare
//! lifecycle and migration events. Tasks and cores are plain indices,
//! rendered `tid3` and `cpu0`.

use std::fmt;

use crate::export::ChromeEvent;

/// How much to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing.
    #[default]
    Off,
    /// Record lifecycle events (spawn/exit/sleep/wake), migrations and
    /// epoch boundaries.
    Lifecycle,
    /// Additionally record every scheduling slice (high volume).
    Full,
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TraceLevel::Off => "off",
            TraceLevel::Lifecycle => "lifecycle",
            TraceLevel::Full => "full",
        };
        f.write_str(name)
    }
}

/// One scheduler event. All timestamps are absolute simulation
/// nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A task entered the system.
    Spawn {
        /// Event time, ns.
        at_ns: u64,
        /// The task's index.
        task: u64,
        /// Initial core.
        core: u64,
    },
    /// A task ran for a slice (only at [`TraceLevel::Full`]).
    Slice {
        /// Slice start time, ns.
        at_ns: u64,
        /// The task's index.
        task: u64,
        /// Core it ran on.
        core: u64,
        /// Slice duration, ns.
        duration_ns: u64,
        /// Instructions committed.
        instructions: u64,
    },
    /// A task went to sleep.
    Sleep {
        /// Event time, ns.
        at_ns: u64,
        /// The task's index.
        task: u64,
        /// When it will wake, ns.
        wake_at_ns: u64,
    },
    /// A task woke up.
    Wake {
        /// Event time, ns.
        at_ns: u64,
        /// The task's index.
        task: u64,
    },
    /// A task finished its profile.
    Exit {
        /// Event time, ns.
        at_ns: u64,
        /// The task's index.
        task: u64,
    },
    /// The balancer migrated a task.
    Migrate {
        /// Event time, ns.
        at_ns: u64,
        /// The task's index.
        task: u64,
        /// Source core.
        from: u64,
        /// Destination core.
        to: u64,
    },
    /// An epoch boundary (after balancing).
    EpochEnd {
        /// Event time, ns.
        at_ns: u64,
        /// Epoch index just completed.
        epoch: u64,
    },
}

impl TraceEvent {
    /// The lowest [`TraceLevel`] that records this event.
    pub fn level(&self) -> TraceLevel {
        match self {
            TraceEvent::Slice { .. } => TraceLevel::Full,
            _ => TraceLevel::Lifecycle,
        }
    }

    /// The event's timestamp, ns.
    pub fn at_ns(&self) -> u64 {
        match *self {
            TraceEvent::Spawn { at_ns, .. }
            | TraceEvent::Slice { at_ns, .. }
            | TraceEvent::Sleep { at_ns, .. }
            | TraceEvent::Wake { at_ns, .. }
            | TraceEvent::Exit { at_ns, .. }
            | TraceEvent::Migrate { at_ns, .. }
            | TraceEvent::EpochEnd { at_ns, .. } => at_ns,
        }
    }

    /// Converts the event to a Chrome `trace_events` entry. Slices
    /// become `"X"` complete events on their core's lane (pid 1);
    /// everything else becomes an `"i"` instant.
    pub fn to_chrome(&self) -> ChromeEvent {
        match *self {
            TraceEvent::Spawn { at_ns, task, core } => {
                ChromeEvent::instant(&format!("spawn tid{task}"), "lifecycle", at_ns, 1, core)
            }
            TraceEvent::Slice {
                at_ns,
                task,
                core,
                duration_ns,
                instructions,
            } => ChromeEvent::complete(
                &format!("tid{task}"),
                "slice",
                at_ns,
                at_ns + duration_ns,
                1,
                core,
            )
            .with_arg("instructions", instructions.to_string()),
            TraceEvent::Sleep {
                at_ns,
                task,
                wake_at_ns,
            } => ChromeEvent::instant(&format!("sleep tid{task}"), "lifecycle", at_ns, 0, 0)
                .with_arg("wake_at_ns", wake_at_ns.to_string()),
            TraceEvent::Wake { at_ns, task } => {
                ChromeEvent::instant(&format!("wake tid{task}"), "lifecycle", at_ns, 0, 0)
            }
            TraceEvent::Exit { at_ns, task } => {
                ChromeEvent::instant(&format!("exit tid{task}"), "lifecycle", at_ns, 0, 0)
            }
            TraceEvent::Migrate {
                at_ns,
                task,
                from,
                to,
            } => ChromeEvent::instant(&format!("migrate tid{task}"), "migration", at_ns, 1, to)
                .with_arg("from", format!("cpu{from}"))
                .with_arg("to", format!("cpu{to}")),
            TraceEvent::EpochEnd { at_ns, epoch } => {
                ChromeEvent::instant(&format!("epoch_end {epoch}"), "epoch", at_ns, 0, 0)
            }
        }
    }

    /// The event's CSV row (`time_ns,event,task,detail`), without the
    /// line break.
    pub(crate) fn csv_row(&self) -> String {
        match *self {
            TraceEvent::Spawn { at_ns, task, core } => {
                format!("{at_ns},spawn,tid{task},core=cpu{core}")
            }
            TraceEvent::Slice {
                at_ns,
                task,
                core,
                duration_ns,
                instructions,
            } => format!(
                "{at_ns},slice,tid{task},core=cpu{core};dur={duration_ns};instr={instructions}"
            ),
            TraceEvent::Sleep {
                at_ns,
                task,
                wake_at_ns,
            } => format!("{at_ns},sleep,tid{task},wake_at={wake_at_ns}"),
            TraceEvent::Wake { at_ns, task } => format!("{at_ns},wake,tid{task},"),
            TraceEvent::Exit { at_ns, task } => format!("{at_ns},exit,tid{task},"),
            TraceEvent::Migrate {
                at_ns,
                task,
                from,
                to,
            } => format!("{at_ns},migrate,tid{task},from=cpu{from};to=cpu{to}"),
            TraceEvent::EpochEnd { at_ns, epoch } => {
                format!("{at_ns},epoch_end,,epoch={epoch}")
            }
        }
    }
}

impl fmt::Display for TraceEvent {
    /// Compact human-readable one-liner, e.g.
    /// `[      10ns] migrate tid3 cpu0->cpu2`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::Spawn { at_ns, task, core } => {
                write!(f, "[{at_ns:>12}ns] spawn   tid{task} on cpu{core}")
            }
            TraceEvent::Slice {
                at_ns,
                task,
                core,
                duration_ns,
                instructions,
            } => write!(
                f,
                "[{at_ns:>12}ns] slice   tid{task} on cpu{core} +{duration_ns}ns ({instructions} instr)"
            ),
            TraceEvent::Sleep {
                at_ns,
                task,
                wake_at_ns,
            } => write!(f, "[{at_ns:>12}ns] sleep   tid{task} until {wake_at_ns}ns"),
            TraceEvent::Wake { at_ns, task } => write!(f, "[{at_ns:>12}ns] wake    tid{task}"),
            TraceEvent::Exit { at_ns, task } => write!(f, "[{at_ns:>12}ns] exit    tid{task}"),
            TraceEvent::Migrate {
                at_ns,
                task,
                from,
                to,
            } => write!(f, "[{at_ns:>12}ns] migrate tid{task} cpu{from}->cpu{to}"),
            TraceEvent::EpochEnd { at_ns, epoch } => {
                write!(f, "[{at_ns:>12}ns] epoch   #{epoch} complete")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{chrome_trace_json, Telemetry};

    fn wake(at_ns: u64, task: u64) -> TraceEvent {
        TraceEvent::Wake { at_ns, task }
    }

    fn slice(at_ns: u64, task: u64, core: u64) -> TraceEvent {
        TraceEvent::Slice {
            at_ns,
            task,
            core,
            duration_ns: 1_000,
            instructions: 7,
        }
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Telemetry::new();
        assert_eq!(t.trace_level(), TraceLevel::Off, "off by default");
        t.record_events([wake(1, 0)]);
        assert!(t.events().is_empty());
    }

    #[test]
    fn lifecycle_level_skips_slices() {
        let mut t = Telemetry::new();
        t.set_trace(TraceLevel::Lifecycle, 8);
        t.record_events([slice(1, 0, 0), TraceEvent::Exit { at_ns: 2, task: 0 }]);
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], TraceEvent::Exit { .. }));
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut t = Telemetry::new();
        t.set_span_capacity(2);
        t.set_trace(TraceLevel::Full, 3);
        t.epoch_start(0, 0);
        t.epoch_end(60, 0, 0, 0);
        t.record_events((0..5).map(|i| slice(i, i, 0)));
        let events = t.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].at_ns(), 2, "oldest surviving event");
        assert_eq!(events[2].at_ns(), 4);
        assert_eq!(t.dropped_events(), 2);
        assert_eq!(t.spans().len(), 1, "events never evict spans");
        assert_eq!(t.dropped_spans(), 0);
    }

    #[test]
    fn csv_rendering() {
        let mut t = Telemetry::new();
        t.set_trace(TraceLevel::Lifecycle, 8);
        t.record_events([TraceEvent::Migrate {
            at_ns: 10,
            task: 3,
            from: 0,
            to: 2,
        }]);
        let csv = t.trace_csv();
        assert!(csv.starts_with("time_ns,event,task,detail\n"));
        assert!(csv.contains("10,migrate,tid3,from=cpu0;to=cpu2"));
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn enabled_zero_capacity_rejected() {
        Telemetry::new().set_trace(TraceLevel::Full, 0);
    }

    #[test]
    fn display_is_compact_and_readable() {
        assert_eq!(format!("{}", TraceLevel::Lifecycle), "lifecycle");
        let ev = TraceEvent::Migrate {
            at_ns: 10,
            task: 3,
            from: 0,
            to: 2,
        };
        assert_eq!(format!("{ev}"), "[          10ns] migrate tid3 cpu0->cpu2");
        let slice = TraceEvent::Slice {
            at_ns: 5,
            task: 1,
            core: 1,
            duration_ns: 100,
            instructions: 42,
        };
        assert!(format!("{slice}").contains("slice   tid1 on cpu1 +100ns (42 instr)"));
    }

    #[test]
    fn chrome_conversion_matches_trace_schema() {
        let mut t = Telemetry::new();
        t.set_trace(TraceLevel::Full, 8);
        t.epoch_start(0, 0);
        t.record_events([slice(2_000, 1, 3), wake(3_000, 1)]);
        t.epoch_end(60_000, 1, 0, 0);
        let events = t.chrome_events();
        assert_eq!(events.len(), 3, "the epoch lane, then the scheduler lanes");
        assert_eq!((events[0].cat.as_str(), events[0].pid), ("epoch", 0));
        assert_eq!(events[1].ph, "X");
        assert_eq!((events[1].pid, events[1].tid), (1, 3), "slice on its core");
        assert!((events[1].ts - 2.0).abs() < 1e-12);
        assert!((events[1].dur - 1.0).abs() < 1e-12);
        assert_eq!(events[2].ph, "i");
        let json = chrome_trace_json(&events);
        assert!(json.starts_with('['));
        assert!(json.contains("\"cat\":\"slice\""));
    }
}
