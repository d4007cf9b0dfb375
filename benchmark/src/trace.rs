//! In-memory spans recorded from the benchmark's side of each call into the
//! product, written out once when the traced run ends.

use crate::report::object;
use serde::Value;
use std::time::Instant;

/// One timed interval: `name`, start and end (microseconds from the trace
/// epoch), the span that caused it, and the request it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request_id: Option<u64>,
    /// Work counts taken at the same boundary (an `Engine::step` span carries
    /// its `StepReport` counts).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Span storage for one traced run.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Length of the union of `intervals`, each clipped to `[start, end]`.
pub fn covered(start: f64, end: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut total = 0.0;
    let mut reach = start;
    for (s, e) in clipped {
        if e > reach {
            total += e - s.max(reach);
            reach = e;
        }
    }
    total
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its id (for use as a `parent`).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request_id: Option<u64>,
    ) -> usize {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: us(start),
            end_us: us(end),
            parent,
            request_id,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Attaches work counts to span `id`.
    pub fn set_counts(&mut self, id: usize, counts: Vec<(&'static str, u64)>) {
        self.spans[id].counts = counts;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that interval
    /// its child spans cover.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_us, span.end_us));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| span.duration_us() - covered(span.start_us, span.end_us, kids))
            .collect()
    }

    /// Smallest share of a `request` span that its children cover.
    pub fn min_request_cover(&self) -> Option<f64> {
        let self_times = self.self_times_us();
        self.spans
            .iter()
            .zip(&self_times)
            .filter(|(span, _)| span.name == "request" && span.duration_us() > 0.0)
            .map(|(span, self_us)| 1.0 - self_us / span.duration_us())
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// The trace as one JSON document: a span list plus per-name totals of
    /// duration and self time.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let self_times = self.self_times_us();
        let mut totals: Vec<(&'static str, f64, f64, u64)> = Vec::new();
        for (span, self_us) in self.spans.iter().zip(&self_times) {
            match totals.iter_mut().find(|t| t.0 == span.name) {
                Some(t) => {
                    t.1 += span.duration_us();
                    t.2 += self_us;
                    t.3 += 1;
                }
                None => totals.push((span.name, span.duration_us(), *self_us, 1)),
            }
        }
        let spans = self
            .spans
            .iter()
            .zip(&self_times)
            .map(|(span, self_us)| {
                let mut entries = vec![
                    ("name", Value::Str(span.name.to_string())),
                    ("start_us", Value::Float(span.start_us)),
                    ("end_us", Value::Float(span.end_us)),
                    ("self_us", Value::Float(*self_us)),
                    (
                        "parent",
                        span.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    (
                        "request_id",
                        span.request_id.map_or(Value::Null, Value::UInt),
                    ),
                ];
                for &(key, count) in &span.counts {
                    entries.push((key, Value::UInt(count)));
                }
                object(entries)
            })
            .collect();
        let totals = totals
            .into_iter()
            .map(|(name, total, self_us, count)| {
                let total = object(vec![
                    ("count", Value::UInt(count)),
                    ("total_us", Value::Float(total)),
                    ("self_us", Value::Float(self_us)),
                ]);
                (name, total)
            })
            .collect();
        let doc = object(vec![
            ("workload", Value::Str(workload.to_string())),
            ("seed", Value::UInt(seed)),
            ("totals", object(totals)),
            ("spans", Value::Seq(spans)),
        ]);
        serde_json::to_string(&doc).expect("span times are finite")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn cover_merges_overlaps_and_clips_to_the_parent() {
        assert_eq!(covered(0.0, 10.0, &[]), 0.0);
        assert_eq!(covered(0.0, 10.0, &[(1.0, 4.0), (6.0, 8.0)]), 5.0);
        // Overlapping children are not counted twice.
        assert_eq!(covered(0.0, 10.0, &[(1.0, 5.0), (3.0, 7.0)]), 6.0);
        // A child sticking out of its parent only counts inside it.
        assert_eq!(covered(2.0, 6.0, &[(0.0, 3.0), (5.0, 9.0)]), 2.0);
        // Nested children add nothing beyond the outer one.
        assert_eq!(covered(0.0, 10.0, &[(2.0, 8.0), (3.0, 4.0)]), 6.0);
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut trace = Trace::new(epoch);
        let request = trace.record("request", at(0), at(100), None, Some(7));
        trace.record("wire_parse", at(0), at(10), Some(request), Some(7));
        let prefill = trace.record("prefill", at(10), at(60), Some(request), Some(7));
        trace.record("kernel", at(20), at(50), Some(prefill), Some(7));
        trace.record("decode", at(60), at(95), Some(request), Some(7));
        let self_times = trace.self_times_us();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        assert!(close(self_times[request], 5.0), "{self_times:?}");
        assert!(close(self_times[prefill], 20.0), "{self_times:?}");
        assert!(close(self_times[1], 10.0), "{self_times:?}");
        let cover = trace.min_request_cover().unwrap();
        assert!(close(cover, 0.95), "{cover}");
    }

    #[test]
    fn trace_json_lists_spans_and_totals() {
        let epoch = Instant::now();
        let mut trace = Trace::new(epoch);
        let step = trace.record("step", epoch, epoch + Duration::from_micros(40), None, None);
        trace.set_counts(step, vec![("decode_steps", 2)]);
        let json = trace.to_json("chat_short", 3);
        let doc = serde_json::from_str::<Value>(&json).unwrap();
        assert_eq!(
            doc.field("workload").unwrap(),
            &Value::Str("chat_short".into())
        );
        let Value::Seq(spans) = doc.field("spans").unwrap() else {
            panic!("spans is a list");
        };
        assert_eq!(spans[0].field("decode_steps").unwrap(), &Value::UInt(2));
        assert!(doc.field("totals").unwrap().field("step").is_ok());
    }
}
