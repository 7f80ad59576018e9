//! Spans recorded from the benchmark's own files, around its calls into
//! each layer: name, start, end, the span that caused it. Kept in
//! memory; written out once when the run ends.

use std::time::Instant;

use crate::json::Value;
use crate::measure::now;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// An in-memory span recorder with one open-span stack (the load
/// generator is single-threaded).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            epoch: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing: end-to-end metrics are measured
    /// with tracing off.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s result and the span's index (meaningless when
    /// the tracer is off).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, usize) {
        if !self.enabled {
            return (f(self), usize::MAX);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_s = self.epoch.elapsed().as_secs_f64();
        (out, index)
    }

    pub fn duration(&self, index: usize) -> f64 {
        self.spans[index].end_s - self.spans[index].start_s
    }

    /// A span's duration minus the part its child spans cover.
    pub fn self_time(&self, index: usize) -> f64 {
        let children: f64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(index))
            .map(|i| self.duration(i))
            .sum();
        self.duration(index) - children
    }

    /// Sum of self times over `index` and all its descendants — equal to
    /// `duration(index)` when child spans nest properly.
    pub fn self_time_sum(&self, index: usize) -> f64 {
        let mut total = self.self_time(index);
        for i in 0..self.spans.len() {
            if self.spans[i].parent == Some(index) {
                total += self.self_time_sum(i);
            }
        }
        total
    }

    /// Duration of the first direct child of `parent` named `name`.
    pub fn child_duration(&self, parent: usize, name: &str) -> Option<f64> {
        (0..self.spans.len())
            .find(|&i| self.spans[i].parent == Some(parent) && self.spans[i].name == name)
            .map(|i| self.duration(i))
    }

    /// The span file: every span with its self time, tagged with the
    /// workload that produced it.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let spans = (0..self.spans.len())
            .map(|i| {
                let span = &self.spans[i];
                Value::obj([
                    ("id", Value::Num(i as f64)),
                    ("name", Value::str(span.name.as_str())),
                    (
                        "parent",
                        span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("start_s", Value::Num(span.start_s)),
                    ("end_s", Value::Num(span.end_s)),
                    ("self_s", Value::Num(self.self_time(i))),
                    ("workload", Value::str(workload)),
                ])
            })
            .collect();
        Value::obj([
            ("workload", Value::str(workload)),
            ("seed", Value::Num(seed as f64)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_telescope_to_the_root_duration() {
        let mut tracer = Tracer::new();
        let ((), root) = tracer.span("rep", |t| {
            t.span("instantiate", |_| std::hint::black_box(vec![0u8; 4096]));
            t.span("run", |t| {
                t.span("run.learn", |_| ());
                t.span("run.stream", |_| ());
            });
            t.span("report", |_| ());
        });
        let sum = tracer.self_time_sum(root);
        let total = tracer.duration(root);
        assert!(
            (sum - total).abs() <= 1e-9 * total.max(1.0),
            "{sum} vs {total}"
        );
        assert!(tracer.child_duration(root, "run").is_some());
        assert!(tracer.child_duration(root, "run.learn").is_none());
        let json = tracer.to_json("w", 1);
        assert_eq!(json.get("spans").unwrap().as_arr().unwrap().len(), 6);
    }
}
