//! The in-memory capturing sink.

use crate::{FieldValue, MetricsRegistry, MetricsSink, Report, TraceEvent};
use std::sync::Mutex;

#[derive(Debug, Default)]
struct RecorderInner {
    registry: MetricsRegistry,
    events: Vec<TraceEvent>,
}

/// A [`MetricsSink`] that accumulates everything in memory and hands
/// it back as a [`Report`].
///
/// Ticks are assigned under the recorder's lock, in arrival order.
/// With a single emitting thread (the engine replays its per-shard
/// buffers in shard order from one thread) arrival order is a pure
/// function of the workload, so the captured trace is byte-stable
/// across runs.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Mutex<RecorderInner>,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Snapshot everything captured so far into an owned [`Report`].
    pub fn report(&self) -> Report {
        let inner = self.inner.lock().expect("obs recorder lock poisoned");
        Report {
            registry: inner.registry.clone(),
            events: inner.events.clone(),
        }
    }
}

impl MetricsSink for Recorder {
    fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().expect("obs recorder lock poisoned");
        inner.registry.counter_add(name, delta);
    }

    fn gauge_set(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().expect("obs recorder lock poisoned");
        inner.registry.gauge_set(name, value);
    }

    fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        let mut inner = self.inner.lock().expect("obs recorder lock poisoned");
        inner.registry.observe(name, bounds, value);
    }

    fn event(&self, scope: &str, name: &str, fields: &[(&str, FieldValue)]) {
        let mut inner = self.inner.lock().expect("obs recorder lock poisoned");
        let tick = inner.events.len() as u64;
        inner.events.push(TraceEvent {
            tick,
            scope: scope.to_string(),
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_count_up_in_emission_order() {
        let rec = Recorder::new();
        rec.event("a", "first", &[]);
        rec.counter_add("n", 1);
        rec.event("b", "second", &[("k", 9u64.into())]);
        let report = rec.report();
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events[0].tick, 0);
        assert_eq!(report.events[1].tick, 1);
        assert_eq!(report.events[1].name, "second");
        assert_eq!(report.registry.counter("n"), 1);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = Recorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        rec.counter_add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(rec.report().registry.counter("hits"), 400);
    }
}
