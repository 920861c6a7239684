//! Lightweight typed event tracing.
//!
//! The simulator components can optionally emit [`TraceEvent`]s into a
//! [`Trace`]. Tracing is disabled by default and costs a single branch when
//! off, so it can stay compiled into hot loops. Events carry a typed
//! [`TraceEventKind`] (bank conflict, FIFO pressure, AGU wrap, PE fire /
//! stall, …) so exporters such as [`crate::perfetto`] can render them
//! without string parsing; [`TraceEventKind::Message`] remains as a
//! free-form escape hatch.
//!
//! Payloads that allocate (message strings, span names) should be emitted
//! through [`Trace::emit_with`], which only builds the event while the trace
//! is recording.

use std::collections::VecDeque;

use crate::cycle::Cycle;
use crate::stall::StallCause;

/// What a [`TraceEvent`] describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// `contenders` requesters targeted one bank; all but one retried.
    BankConflict {
        /// The contested physical bank.
        bank: usize,
        /// How many requesters submitted to it this cycle.
        contenders: u64,
    },
    /// A channel's buffer had no space, holding its producer.
    FifoFull {
        /// Channel index within the emitting streamer.
        channel: usize,
    },
    /// A consumer found a channel FIFO empty.
    FifoEmpty {
        /// Channel index within the emitting streamer.
        channel: usize,
    },
    /// The temporal AGU wrapped loop dimension `dim` (carry into `dim + 1`).
    AguWrap {
        /// Innermost wrapped dimension (0 = innermost loop).
        dim: usize,
    },
    /// A copy pre-pass crossed addressing modes (e.g. FIMA → NIMA layout
    /// change).
    RemapModeSwitch {
        /// Addressing mode read from.
        from: String,
        /// Addressing mode written to.
        to: String,
    },
    /// The PE array fired.
    PeFire,
    /// The PE array stalled.
    PeStall {
        /// Why it could not fire.
        cause: StallCause,
    },
    /// A requester submitted a *new* memory request (retries after a lost
    /// arbitration are not re-stamped): the start of a token's causal flow.
    /// `id` is unique per request within a run; Perfetto renders matching
    /// ids as one flow arrow chain across tracks.
    FlowIssue {
        /// Run-unique token id shared by this request's grant and delivery.
        id: u64,
        /// The physical bank the request targets.
        bank: usize,
    },
    /// The request won bank arbitration: the flow's intermediate step.
    FlowGrant {
        /// Token id stamped at [`TraceEventKind::FlowIssue`].
        id: u64,
        /// The granting bank.
        bank: usize,
    },
    /// The response was delivered to its consumer (read data into the
    /// channel FIFO, or a write committed at its grant): the flow's end.
    FlowDeliver {
        /// Token id stamped at [`TraceEventKind::FlowIssue`].
        id: u64,
    },
    /// Begin of a named phase; pairs with [`TraceEventKind::SpanEnd`].
    SpanBegin {
        /// Phase name (e.g. `"compute"`).
        name: String,
    },
    /// End of the innermost open phase with the same name.
    SpanEnd {
        /// Phase name.
        name: String,
    },
    /// Free-form message (back-compat escape hatch).
    Message(String),
}

impl TraceEventKind {
    /// Stable short name of the event kind (Perfetto event name).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::BankConflict { .. } => "bank-conflict",
            TraceEventKind::FifoFull { .. } => "fifo-full",
            TraceEventKind::FifoEmpty { .. } => "fifo-empty",
            TraceEventKind::AguWrap { .. } => "agu-wrap",
            TraceEventKind::RemapModeSwitch { .. } => "remap-mode-switch",
            TraceEventKind::PeFire => "fire",
            TraceEventKind::PeStall { .. } => "stall",
            TraceEventKind::FlowIssue { .. } => "flow-issue",
            TraceEventKind::FlowGrant { .. } => "flow-grant",
            TraceEventKind::FlowDeliver { .. } => "flow-deliver",
            TraceEventKind::SpanBegin { .. } => "span-begin",
            TraceEventKind::SpanEnd { .. } => "span-end",
            TraceEventKind::Message(_) => "message",
        }
    }
}

impl From<&str> for TraceEventKind {
    fn from(message: &str) -> Self {
        TraceEventKind::Message(message.to_owned())
    }
}

impl From<String> for TraceEventKind {
    fn from(message: String) -> Self {
        TraceEventKind::Message(message)
    }
}

/// One traced simulator event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle at which the event occurred.
    pub cycle: Cycle,
    /// Component that emitted the event (e.g. `"streamer-A"`).
    pub source: String,
    /// What happened.
    pub kind: TraceEventKind,
}

/// How a system run's tracing is configured.
///
/// This is `Copy` so it can live inside copyable configuration structs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No recording; emission costs one branch.
    #[default]
    Off,
    /// Record every event, unbounded.
    Full,
    /// Record into a ring buffer keeping only the newest `n` events.
    Ring(usize),
}

impl TraceMode {
    /// Builds a trace in this mode (enabled unless [`TraceMode::Off`]).
    #[must_use]
    pub fn build(self) -> Trace {
        match self {
            TraceMode::Off => Trace::new(),
            TraceMode::Full => {
                let mut t = Trace::new();
                t.enable();
                t
            }
            TraceMode::Ring(n) => {
                let mut t = Trace::with_limit(n);
                t.enable();
                t
            }
        }
    }
}

/// An event trace buffer.
///
/// # Examples
///
/// ```
/// use dm_sim::{Cycle, Trace, TraceEventKind};
///
/// let mut trace = Trace::new();
/// trace.enable();
/// trace.emit(Cycle::new(4), "xbar", TraceEventKind::BankConflict { bank: 3, contenders: 2 });
/// trace.emit(Cycle::new(5), "xbar", "free-form note");
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.iter().next().unwrap().cycle, Cycle::new(4));
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Trace {
    enabled: bool,
    events: VecDeque<TraceEvent>,
    limit: Option<usize>,
    dropped: u64,
}

impl Trace {
    /// Creates a disabled trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates a disabled trace that keeps at most `limit` events in a ring
    /// buffer: once full, each new event evicts the *oldest* one, so the
    /// buffer always holds the newest `limit` events. Evictions are counted
    /// in [`dropped`](Self::dropped).
    #[must_use]
    pub fn with_limit(limit: usize) -> Self {
        Trace {
            enabled: false,
            events: VecDeque::with_capacity(limit.min(4096)),
            limit: Some(limit),
            dropped: 0,
        }
    }

    /// Enables event recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Returns `true` while recording.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event if enabled.
    pub fn emit(&mut self, cycle: Cycle, source: &str, kind: impl Into<TraceEventKind>) {
        if !self.enabled {
            return;
        }
        self.record(TraceEvent {
            cycle,
            source: source.to_owned(),
            kind: kind.into(),
        });
    }

    /// Records an event if enabled, building the kind lazily — use this at
    /// hot emission sites whose payload allocates.
    pub fn emit_with(&mut self, cycle: Cycle, source: &str, kind: impl FnOnce() -> TraceEventKind) {
        if !self.enabled {
            return;
        }
        self.record(TraceEvent {
            cycle,
            source: source.to_owned(),
            kind: kind(),
        });
    }

    fn record(&mut self, event: TraceEvent) {
        if let Some(limit) = self.limit {
            if limit == 0 {
                self.dropped += 1;
                return;
            }
            if self.events.len() >= limit {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(event);
    }

    /// Number of captured events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no event has been captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring-buffer limit since the last
    /// [`clear`](Self::clear).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The captured events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Drops all captured events and resets the dropped counter.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::collections::vec_deque::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::default();
        assert!(!t.is_enabled());
        t.emit(Cycle::ZERO, "x", "y");
        assert!(t.is_empty());
    }

    #[test]
    fn enabled_trace_records() {
        let mut t = Trace::new();
        t.enable();
        assert!(t.is_enabled());
        t.emit(Cycle::new(1), "agu", TraceEventKind::AguWrap { dim: 2 });
        assert_eq!(t.len(), 1);
        let event = t.iter().next().unwrap();
        assert_eq!(event.source, "agu");
        assert_eq!(event.kind, TraceEventKind::AguWrap { dim: 2 });
    }

    #[test]
    fn limit_keeps_newest_events() {
        let mut t = Trace::with_limit(2);
        t.enable();
        for i in 0..5 {
            t.emit(Cycle::new(i), "s", "m");
        }
        // Ring buffer: the oldest three were evicted; cycles 3 and 4 remain.
        assert_eq!(t.len(), 2);
        let cycles: Vec<Cycle> = t.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![Cycle::new(3), Cycle::new(4)]);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn zero_limit_drops_everything() {
        let mut t = Trace::with_limit(0);
        t.enable();
        t.emit(Cycle::ZERO, "s", "m");
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn emit_with_is_lazy_when_disabled() {
        let mut t = Trace::new();
        t.emit_with(Cycle::ZERO, "s", || panic!("must not build when disabled"));
        t.enable();
        t.emit_with(Cycle::ZERO, "s", || TraceEventKind::PeFire);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clear_empties_buffer() {
        let mut t = Trace::with_limit(1);
        t.enable();
        t.emit(Cycle::ZERO, "s", "m");
        t.emit(Cycle::ZERO, "s", "m");
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn trace_mode_builds_matching_traces() {
        assert!(!TraceMode::Off.build().is_enabled());
        assert!(TraceMode::Full.build().is_enabled());
        let mut ring = TraceMode::Ring(1).build();
        assert!(ring.is_enabled());
        ring.emit(Cycle::ZERO, "s", "a");
        ring.emit(Cycle::ZERO, "s", "b");
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn message_kinds_convert_from_strings() {
        assert_eq!(
            TraceEventKind::from("hi"),
            TraceEventKind::Message("hi".into())
        );
        assert_eq!(TraceEventKind::PeFire.name(), "fire");
    }
}
