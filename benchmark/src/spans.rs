//! The benchmark's own spans: recorded around each call into a layer, kept
//! in memory, written out once at exit. Only the traced run records; an
//! untraced run pays one branch per call site and reads no clock.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per run. The open loop ticks ~20 000 times a second; past the
/// cap further spans are counted, not kept, so memory stays bounded.
const SPAN_CAP: usize = 1 << 20;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Identifier, unique in the run, never 0.
    pub id: u32,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    /// The wave / round / tick the span belongs to — spans of one op share it.
    pub wave: u64,
    /// Layer boundary, e.g. `client.submit`.
    pub name: &'static str,
    /// Start, nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
pub struct OpenSpan {
    /// The identifier the closed span will carry (0 when not recording).
    pub id: u32,
    start_ns: u64,
}

/// The in-memory span log of one phase.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    recording: bool,
    next_id: u32,
    spans: Vec<SpanRecord>,
    dropped: u64,
}

impl SpanLog {
    /// A log that records nothing (untraced runs).
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording log whose clock starts now.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(recording: bool) -> Self {
        Self {
            epoch: Instant::now(),
            recording,
            next_id: 1,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a span; pass the result to [`SpanLog::end`].
    pub fn begin(&mut self) -> OpenSpan {
        if !self.recording {
            return OpenSpan { id: 0, start_ns: 0 };
        }
        let id = self.next_id;
        self.next_id += 1;
        OpenSpan {
            id,
            start_ns: self.now_ns(),
        }
    }

    /// Ends `open` now, as a child of `parent` (0 = root) within `wave`.
    pub fn end(&mut self, open: OpenSpan, name: &'static str, parent: u32, wave: u64) {
        if !self.recording {
            return;
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(SpanRecord {
            id: open.id,
            parent,
            wave,
            name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// The closed spans, in closing order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Spans not kept because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of its interval that its children cover. Overlapping children
/// are counted once, and a child reaching outside its parent only counts
/// for the part inside.
pub fn self_times_ns(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    spans
        .iter()
        .map(|span| {
            let duration_ns = span.end_ns.saturating_sub(span.start_ns);
            let Some(intervals) = children.get_mut(&span.id) else {
                return duration_ns;
            };
            intervals.sort_unstable();
            let mut covered_ns = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered_ns += end - start;
                    reach = end;
                }
            }
            duration_ns - covered_ns
        })
        .collect()
}

/// Total duration per span name, in nanoseconds.
pub fn totals_by_name(spans: &[SpanRecord]) -> std::collections::BTreeMap<&'static str, u64> {
    let mut totals = std::collections::BTreeMap::new();
    for span in spans {
        *totals.entry(span.name).or_insert(0u64) += span.end_ns.saturating_sub(span.start_ns);
    }
    totals
}

/// Renders the spans as Chrome trace-event JSON (complete `X` events,
/// microsecond timestamps) — loadable in Perfetto or `chrome://tracing`.
/// `args` carries the ids, the wave and the span's self time.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::with_capacity(64 + spans.len() * 150);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, (span, own_ns)) in spans.iter().zip(&self_ns).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"ppbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"wave\":{},\"self_us\":{:.3}}}}}",
            span.name,
            span.start_ns as f64 / 1_000.0,
            span.end_ns.saturating_sub(span.start_ns) as f64 / 1_000.0,
            span.id,
            span.parent,
            span.wave,
            *own_ns as f64 / 1_000.0,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            wave: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, 0, 100),
            // Two children overlap on [30, 40]; a third reaches past the
            // parent's end; a fourth lies inside the second.
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 1, 90, 130),
            span(5, 1, 35, 50),
            // A grandchild is subtracted from its own parent only.
            span(6, 2, 10, 25),
        ];
        let own = self_times_ns(&spans);
        // Children cover [10, 60] and [90, 100] of the root: 60 of 100.
        assert_eq!(own[0], 40);
        assert_eq!(own[1], 15);
        assert_eq!(own[2], 30);
        assert_eq!(own[5], 15);
    }

    #[test]
    fn a_log_that_is_off_records_nothing_and_one_that_is_on_links_children() {
        let mut off = SpanLog::off();
        let open = off.begin();
        off.end(open, "x", 0, 1);
        assert!(off.spans().is_empty());

        let mut on = SpanLog::on();
        let wave = on.begin();
        let child = on.begin();
        on.end(child, "client.submit", wave.id, 7);
        on.end(wave, "wave", 0, 7);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
        let json = chrome_trace_json(spans);
        assert!(json.starts_with("{\"displayTimeUnit\"") && json.ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }
}
