//! The metrics registry: named histograms, the event ring, and
//! point-in-time snapshots.
//!
//! Consumers look a handle up **once** (typically into an
//! `OnceLock`-cached struct of `Arc`s) and record through the atomics
//! thereafter — the registry's own locks are never on a hot path.

use crate::events::{EventLog, DEFAULT_EVENT_CAPACITY};
use crate::metrics::Histogram;
use crate::sync::LockPolicy;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A named-metric registry. Use [`MetricsRegistry::global`] for the
/// process-wide instance, or construct one per component for isolated
/// tests.
#[derive(Debug)]
pub struct MetricsRegistry {
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events: EventLog,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry with the default event-ring capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Creates an empty registry whose event ring holds `event_capacity`
    /// events.
    ///
    /// # Panics
    ///
    /// Panics when `event_capacity` is zero.
    #[must_use]
    pub fn with_event_capacity(event_capacity: usize) -> Self {
        Self {
            histograms: Mutex::new(BTreeMap::new()),
            events: EventLog::new(event_capacity),
        }
    }

    /// The process-wide registry.
    #[must_use]
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock_recover();
        Arc::clone(
            histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// The registry's structured-event ring.
    #[must_use]
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// A point-in-time snapshot of every registered metric, name-sorted.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let histograms = self
            .histograms
            .lock_recover()
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name: name.clone(),
                count: h.count(),
                sum: h.sum(),
                mean: h.mean(),
                max: h.max(),
                p50: h.quantile(0.50),
                p90: h.quantile(0.90),
                p99: h.quantile(0.99),
            })
            .collect();
        Snapshot {
            enabled: crate::is_enabled(),
            histograms,
            events_buffered: self.events.len() as u64,
            events_dropped: self.events.dropped(),
            events_recorded: self.events.recorded(),
        }
    }
}

/// One histogram's snapshot: exact count/sum/max plus interpolated
/// quantiles (see [`Histogram::quantile`](crate::Histogram::quantile)).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Mean of recorded values.
    pub mean: f64,
    /// Largest recorded value.
    pub max: u64,
    /// Interpolated median.
    pub p50: f64,
    /// Interpolated 90th percentile.
    pub p90: f64,
    /// Interpolated 99th percentile.
    pub p99: f64,
}

/// A point-in-time view of a whole registry, serializable via the serde
/// shim.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Snapshot {
    /// Whether instrumentation was compiled in when this was taken.
    pub enabled: bool,
    /// All histograms, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
    /// Events sitting in the ring at snapshot time.
    pub events_buffered: u64,
    /// Events dropped by the ring bound so far — non-zero means a drain
    /// is missing that many oldest events.
    pub events_dropped: u64,
    /// Total events ever recorded (buffered + drained + dropped).
    pub events_recorded: u64,
}

impl Snapshot {
    /// The histogram named `name`, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;

    #[test]
    fn handles_are_shared_and_snapshot_is_name_sorted() {
        let registry = MetricsRegistry::new();
        registry.histogram("b.second_ns").record(2);
        registry.histogram("a.first_ns").record(1_000);
        // The same name returns the same underlying histogram.
        registry.histogram("b.second_ns").record(3);
        let snapshot = registry.snapshot();
        let histograms = snapshot.histograms.iter();
        let names: Vec<&str> = histograms.map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["a.first_ns", "b.second_ns"]);
        let second = snapshot.histogram("b.second_ns").unwrap();
        assert_eq!((second.count, second.sum), (2, 5));
        let h = snapshot.histogram("a.first_ns").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 1_000);
        assert!(h.p50 >= 937.5 && h.p50 <= 1_062.5, "p50 {} off", h.p50);
    }

    #[test]
    fn snapshot_serializes_via_the_shim() {
        let registry = MetricsRegistry::new();
        registry.histogram("serving.batch_size").record(10);
        registry
            .events()
            .record(1, EventKind::BudgetExhausted, "", 0.0);
        let json = serde_json::to_string(&registry.snapshot()).unwrap();
        assert!(json.contains("\"serving.batch_size\""));
        assert!(json.contains("\"sum\":10"));
        assert!(json.contains("\"events_buffered\":1"));
        assert!(json.contains("\"enabled\":true"));
    }

    #[test]
    fn overfilling_the_ring_surfaces_the_exact_drop_count_in_the_snapshot() {
        let registry = MetricsRegistry::with_event_capacity(8);
        for i in 0..50i64 {
            registry
                .events()
                .record(i, EventKind::ThresholdMove, "MobileTab", i as f64);
        }
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.events_buffered, 8);
        assert_eq!(snapshot.events_dropped, 42);
        assert_eq!(snapshot.events_recorded, 50);
        let json = serde_json::to_string(&snapshot).unwrap();
        assert!(json.contains("\"events_dropped\":42"));
        assert!(json.contains("\"events_recorded\":50"));
    }
}
