//! Scheduler event tracing — the simulator's `ftrace`/`sched_switch`
//! equivalent: a bounded in-memory ring of scheduling events for
//! debugging policies and generating timelines.
//!
//! Tracing is off by default (zero overhead beyond a branch); enable it
//! with [`crate::System::enable_tracing`]. `Slice` events are the hot
//! path, so a [`TraceLevel`] gates them separately from the rare
//! lifecycle/migration events.

use archsim::CoreId;
use serde::{Deserialize, Serialize};
use std::fmt;
use telemetry::ChromeEvent;

use crate::task::TaskId;

/// How much to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A task entered the system.
    Spawn {
        /// Event time, ns.
        at_ns: u64,
        /// The task.
        task: TaskId,
        /// Initial core.
        core: CoreId,
    },
    /// A task ran for a slice (only at [`TraceLevel::Full`]).
    Slice {
        /// Slice start time, ns.
        at_ns: u64,
        /// The task.
        task: TaskId,
        /// Core it ran on.
        core: CoreId,
        /// Slice duration, ns.
        duration_ns: u64,
        /// Instructions committed.
        instructions: u64,
    },
    /// A task went to sleep.
    Sleep {
        /// Event time, ns.
        at_ns: u64,
        /// The task.
        task: TaskId,
        /// When it will wake, ns.
        wake_at_ns: u64,
    },
    /// A task woke up.
    Wake {
        /// Event time, ns.
        at_ns: u64,
        /// The task.
        task: TaskId,
    },
    /// A task finished its profile.
    Exit {
        /// Event time, ns.
        at_ns: u64,
        /// The task.
        task: TaskId,
    },
    /// The balancer migrated a task.
    Migrate {
        /// Event time, ns.
        at_ns: u64,
        /// The task.
        task: TaskId,
        /// Source core.
        from: CoreId,
        /// Destination core.
        to: CoreId,
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
            TraceEvent::Spawn { at_ns, task, core } => ChromeEvent::instant(
                &format!("spawn {task}"),
                "lifecycle",
                at_ns,
                1,
                core.0 as u64,
            ),
            TraceEvent::Slice {
                at_ns,
                task,
                core,
                duration_ns,
                instructions,
            } => ChromeEvent::complete(
                &format!("{task}"),
                "slice",
                at_ns,
                at_ns + duration_ns,
                1,
                core.0 as u64,
            )
            .with_arg("instructions", instructions.to_string()),
            TraceEvent::Sleep {
                at_ns,
                task,
                wake_at_ns,
            } => ChromeEvent::instant(&format!("sleep {task}"), "lifecycle", at_ns, 0, 0)
                .with_arg("wake_at_ns", wake_at_ns.to_string()),
            TraceEvent::Wake { at_ns, task } => {
                ChromeEvent::instant(&format!("wake {task}"), "lifecycle", at_ns, 0, 0)
            }
            TraceEvent::Exit { at_ns, task } => {
                ChromeEvent::instant(&format!("exit {task}"), "lifecycle", at_ns, 0, 0)
            }
            TraceEvent::Migrate {
                at_ns,
                task,
                from,
                to,
            } => ChromeEvent::instant(
                &format!("migrate {task}"),
                "migration",
                at_ns,
                1,
                to.0 as u64,
            )
            .with_arg("from", from.to_string())
            .with_arg("to", to.to_string()),
            TraceEvent::EpochEnd { at_ns, epoch } => {
                ChromeEvent::instant(&format!("epoch_end {epoch}"), "epoch", at_ns, 0, 0)
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
                write!(f, "[{at_ns:>12}ns] spawn   {task} on {core}")
            }
            TraceEvent::Slice {
                at_ns,
                task,
                core,
                duration_ns,
                instructions,
            } => write!(
                f,
                "[{at_ns:>12}ns] slice   {task} on {core} +{duration_ns}ns ({instructions} instr)"
            ),
            TraceEvent::Sleep {
                at_ns,
                task,
                wake_at_ns,
            } => write!(f, "[{at_ns:>12}ns] sleep   {task} until {wake_at_ns}ns"),
            TraceEvent::Wake { at_ns, task } => write!(f, "[{at_ns:>12}ns] wake    {task}"),
            TraceEvent::Exit { at_ns, task } => write!(f, "[{at_ns:>12}ns] exit    {task}"),
            TraceEvent::Migrate {
                at_ns,
                task,
                from,
                to,
            } => write!(f, "[{at_ns:>12}ns] migrate {task} {from}->{to}"),
            TraceEvent::EpochEnd { at_ns, epoch } => {
                write!(f, "[{at_ns:>12}ns] epoch   #{epoch} complete")
            }
        }
    }
}

/// A bounded ring of trace events.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    level: TraceLevel,
    capacity: usize,
    events: Vec<TraceEvent>,
    dropped: u64,
    head: usize,
}

impl Tracer {
    /// Creates a tracer keeping at most `capacity` events (older events
    /// are overwritten once full).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` and `level != Off`.
    pub fn new(level: TraceLevel, capacity: usize) -> Self {
        assert!(
            level == TraceLevel::Off || capacity > 0,
            "an enabled tracer needs capacity"
        );
        Tracer {
            level,
            capacity,
            events: Vec::new(),
            dropped: 0,
            head: 0,
        }
    }

    /// The active level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Records an event (respecting the level and ring bound).
    pub fn record(&mut self, event: TraceEvent) {
        if self.level < event.level() {
            return;
        }
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events in chronological order (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }

    /// Number of events overwritten because the ring filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The ring's events as Chrome `trace_events` entries (oldest
    /// first), ready for [`telemetry::chrome_trace_json`].
    pub fn chrome_events(&self) -> Vec<ChromeEvent> {
        self.events().iter().map(TraceEvent::to_chrome).collect()
    }

    /// Renders the trace as CSV (`time_ns,event,task,detail`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_ns,event,task,detail\n");
        for e in self.events() {
            let line = match e {
                TraceEvent::Spawn { at_ns, task, core } => {
                    format!("{at_ns},spawn,{task},core={core}")
                }
                TraceEvent::Slice {
                    at_ns,
                    task,
                    core,
                    duration_ns,
                    instructions,
                } => format!(
                    "{at_ns},slice,{task},core={core};dur={duration_ns};instr={instructions}"
                ),
                TraceEvent::Sleep {
                    at_ns,
                    task,
                    wake_at_ns,
                } => format!("{at_ns},sleep,{task},wake_at={wake_at_ns}"),
                TraceEvent::Wake { at_ns, task } => format!("{at_ns},wake,{task},"),
                TraceEvent::Exit { at_ns, task } => format!("{at_ns},exit,{task},"),
                TraceEvent::Migrate {
                    at_ns,
                    task,
                    from,
                    to,
                } => format!("{at_ns},migrate,{task},from={from};to={to}"),
                TraceEvent::EpochEnd { at_ns, epoch } => {
                    format!("{at_ns},epoch_end,,epoch={epoch}")
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(TraceLevel::Off, 0);
        t.record(TraceEvent::Wake {
            at_ns: 1,
            task: TaskId(0),
        });
        assert!(t.events().is_empty());
    }

    #[test]
    fn lifecycle_level_skips_slices() {
        let mut t = Tracer::new(TraceLevel::Lifecycle, 8);
        t.record(TraceEvent::Slice {
            at_ns: 1,
            task: TaskId(0),
            core: CoreId(0),
            duration_ns: 5,
            instructions: 10,
        });
        t.record(TraceEvent::Exit {
            at_ns: 2,
            task: TaskId(0),
        });
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], TraceEvent::Exit { .. }));
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut t = Tracer::new(TraceLevel::Lifecycle, 3);
        for i in 0..5u64 {
            t.record(TraceEvent::Wake {
                at_ns: i,
                task: TaskId(i as usize),
            });
        }
        let events = t.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].at_ns(), 2, "oldest surviving event");
        assert_eq!(events[2].at_ns(), 4);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn csv_rendering() {
        let mut t = Tracer::new(TraceLevel::Lifecycle, 8);
        t.record(TraceEvent::Migrate {
            at_ns: 10,
            task: TaskId(3),
            from: CoreId(0),
            to: CoreId(2),
        });
        let csv = t.to_csv();
        assert!(csv.starts_with("time_ns,event,task,detail\n"));
        assert!(csv.contains("10,migrate,tid3,from=cpu0;to=cpu2"));
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn enabled_zero_capacity_rejected() {
        Tracer::new(TraceLevel::Full, 0);
    }

    #[test]
    fn display_is_compact_and_readable() {
        assert_eq!(format!("{}", TraceLevel::Lifecycle), "lifecycle");
        let ev = TraceEvent::Migrate {
            at_ns: 10,
            task: TaskId(3),
            from: CoreId(0),
            to: CoreId(2),
        };
        assert_eq!(format!("{ev}"), "[          10ns] migrate tid3 cpu0->cpu2");
        let slice = TraceEvent::Slice {
            at_ns: 5,
            task: TaskId(1),
            core: CoreId(1),
            duration_ns: 100,
            instructions: 42,
        };
        assert!(format!("{slice}").contains("slice   tid1 on cpu1 +100ns (42 instr)"));
    }

    #[test]
    fn chrome_conversion_matches_trace_schema() {
        let mut t = Tracer::new(TraceLevel::Full, 8);
        t.record(TraceEvent::Slice {
            at_ns: 2_000,
            task: TaskId(1),
            core: CoreId(3),
            duration_ns: 1_000,
            instructions: 7,
        });
        t.record(TraceEvent::Wake {
            at_ns: 3_000,
            task: TaskId(1),
        });
        let events = t.chrome_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ph, "X");
        assert_eq!(events[0].tid, 3);
        assert!((events[0].ts - 2.0).abs() < 1e-12);
        assert!((events[0].dur - 1.0).abs() < 1e-12);
        assert_eq!(events[1].ph, "i");
        let json = telemetry::chrome_trace_json(&events);
        assert!(json.starts_with('['));
        assert!(json.contains("\"cat\":\"slice\""));
    }
}
