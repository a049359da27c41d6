//! The bounded structured-event log: a mutex-guarded ring buffer of
//! typed, serializable events.
//!
//! Events capture the *dynamics* the owners' cumulative counts and
//! current levels flatten away — when a threshold moved, when the budget
//! bucket first ran dry, when a cache insert storm started evicting. The
//! ring is bounded: under sustained pressure the oldest events are dropped
//! (and counted), never the newest.

use crate::sync::LockPolicy;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::Mutex;

/// What kind of thing happened. Unit variants serialize as their name
/// (e.g. `"ThresholdMove"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EventKind {
    /// An adaptive controller moved an activity's threshold
    /// (`value` = new threshold, `label` = activity).
    ThresholdMove,
    /// The budget bucket denied a prefetch for lack of tokens after a
    /// stretch of admissions (`value` = bucket level in units).
    BudgetExhausted,
    /// A cache insert wave is evicting live entries
    /// (`value` = cumulative LRU evictions).
    EvictionStorm,
    /// A closed window recalibrated the threshold from drained samples
    /// (`value` = refit threshold, `label` = activity).
    Recalibration,
    /// A closed window was degenerate and the threshold held
    /// (`value` = held threshold, `label` = activity).
    RecalibrationHold,
    /// A controller window closed (`value` = observed window precision,
    /// `label` = activity).
    WindowClosed,
}

impl EventKind {
    /// The kind's serialized name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::ThresholdMove => "ThresholdMove",
            EventKind::BudgetExhausted => "BudgetExhausted",
            EventKind::EvictionStorm => "EvictionStorm",
            EventKind::Recalibration => "Recalibration",
            EventKind::RecalibrationHold => "RecalibrationHold",
            EventKind::WindowClosed => "WindowClosed",
        }
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Event {
    /// Monotone sequence number (gaps reveal dropped events).
    pub seq: u64,
    /// Caller-supplied clock (traffic-time seconds in the simulators).
    pub at: i64,
    /// What happened.
    pub kind: EventKind,
    /// Free-form qualifier (usually the activity name).
    pub label: String,
    /// The kind-specific measurement.
    pub value: f64,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded ring buffer of [`Event`]s. Recording past the bound drops
/// the oldest event and counts the drop; [`EventLog::drain`] empties the
/// ring in sequence order.
#[derive(Debug)]
pub struct EventLog {
    capacity: usize,
    inner: Mutex<Ring>,
}

/// Default ring capacity used by the registry.
pub const DEFAULT_EVENT_CAPACITY: usize = 4_096;

impl EventLog {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event ring capacity must be positive");
        Self {
            capacity,
            inner: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity.min(1_024)),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// The ring's bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock_recover().events.len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped to respect the bound (since creation).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.lock_recover().dropped
    }

    /// Total events ever recorded (buffered + drained + dropped).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.inner.lock_recover().next_seq
    }

    /// Records one event (a no-op in the compiled-out build).
    pub fn record(&self, at: i64, kind: EventKind, label: &str, value: f64) {
        if crate::is_enabled() {
            let mut ring = self.inner.lock_recover();
            if ring.events.len() == self.capacity {
                ring.events.pop_front();
                ring.dropped += 1;
            }
            let seq = ring.next_seq;
            ring.next_seq += 1;
            ring.events.push_back(Event {
                seq,
                at,
                kind,
                label: label.to_string(),
                value,
            });
        }
    }

    /// Empties the ring, returning buffered events oldest-first.
    #[must_use]
    pub fn drain(&self) -> Vec<Event> {
        let mut ring = self.inner.lock_recover();
        ring.events.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_never_exceeds_bound_and_drains_in_order() {
        let log = EventLog::new(8);
        for i in 0..50i64 {
            log.record(i, EventKind::ThresholdMove, "MobileTab", i as f64);
            assert!(log.len() <= 8, "ring exceeded its bound at event {i}");
        }
        assert_eq!(log.len(), 8);
        assert_eq!(log.dropped(), 42);
        assert_eq!(log.recorded(), 50);
        let drained = log.drain();
        assert_eq!(drained.len(), 8);
        let seqs: Vec<u64> = drained.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (42..50).collect::<Vec<u64>>(), "oldest-first order");
        assert!(log.is_empty());
        // Sequence numbers keep advancing after a drain.
        log.record(99, EventKind::BudgetExhausted, "", 0.0);
        assert_eq!(log.drain()[0].seq, 50);
    }

    #[test]
    fn events_roundtrip_through_jsonl() {
        let log = EventLog::new(4);
        log.record(7, EventKind::Recalibration, "Timeshift", 0.55);
        let events = log.drain();
        let line = serde_json::to_string(&events[0]).unwrap();
        assert!(!line.contains('\n'), "one event, one line");
        let parsed = serde_json::from_str(&line).unwrap();
        let fields = parsed.as_object().expect("an event is an object");
        let field = |key: &str| &fields.iter().find(|(k, _)| k == key).expect(key).1;
        assert_eq!(field("seq").as_u64(), Some(0));
        assert_eq!(field("at").as_i64(), Some(7));
        assert_eq!(field("kind").as_str(), Some("Recalibration"));
        assert_eq!(field("label").as_str(), Some("Timeshift"));
        assert_eq!(field("value").as_f64(), Some(0.55));
    }

    #[test]
    fn concurrent_recording_conserves_sequence() {
        let log = std::sync::Arc::new(EventLog::new(1_000));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        log.record(t * 1_000 + i, EventKind::WindowClosed, "w", 0.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.recorded(), 400);
        assert_eq!(log.dropped(), 0);
        let drained = log.drain();
        assert_eq!(drained.len(), 400);
        for pair in drained.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "drain must be seq-ordered");
        }
    }
}
