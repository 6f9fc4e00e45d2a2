//! In-memory spans recorded from the benchmark's own files, around the calls
//! into each layer (choosing-metrics §4).  Spans nest by a stack: whatever is
//! open when a span opens is its parent.  Nothing is written until the run
//! ends.

use crate::json::Json;
use crate::watchdog;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `render_microbatch`.
    pub name: &'static str,
    /// The crate the call is attributed to, e.g. `gs-render`.
    pub layer: &'static str,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    /// Seconds since the recorder's epoch (`start` while still open).
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Batch the span belongs to — the identifier spans of one batch share.
    pub batch: u32,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Times `f` as a span named `name`, child of whatever span is open.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        batch: u32,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.spans.len();
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent: self.open.last().copied(),
            batch,
        });
        self.open.push(id);
        watchdog::note_span(Some(name));
        let out = f(self);
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        self.open.pop();
        watchdog::note_span(self.open.last().map(|&p| self.spans[p].name));
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part its direct children
/// cover.  Children of one parent never overlap here (one driver thread), so
/// the covered part is the plain sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration();
        }
    }
    own
}

/// Σ self time per layer, in first-seen order.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, t)) => *t += own,
            None => out.push((s.layer, own)),
        }
    }
    out
}

/// Durations of every span with this name.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect()
}

/// Chrome-trace (`chrome://tracing`, Perfetto) document: one complete
/// (`"ph":"X"`) event per span, microsecond timestamps, the layer as the
/// category and the batch id and parent index as arguments.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events: Vec<Json> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj()
                .with("name", s.name)
                .with("cat", s.layer)
                .with("ph", "X")
                .with("ts", s.start * 1e6)
                .with("dur", s.duration() * 1e6)
                .with("pid", 1u64)
                .with("tid", 1u64)
                .with(
                    "args",
                    Json::obj()
                        .with("id", i)
                        .with("batch", u64::from(s.batch))
                        .with("parent", s.parent.map_or(Json::Null, Json::from)),
                )
        })
        .collect();
    Json::obj()
        .with("displayTimeUnit", "ms")
        .with("traceEvents", events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
    ) -> Span {
        Span {
            name,
            layer,
            start,
            end,
            parent,
            batch: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // batch [0,10] ⊃ plan [0,2], render [2,9] ⊃ forward [3,5]; 1 s of the
        // batch is covered by no child.
        let spans = vec![
            span("batch", "bench", 0.0, 10.0, None),
            span("plan", "clm-core", 0.0, 2.0, Some(0)),
            span("render", "gs-render", 2.0, 9.0, Some(0)),
            span("forward", "gs-render", 3.0, 5.0, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![1.0, 2.0, 5.0, 2.0]);
        assert_eq!(
            self_time_by_layer(&spans),
            vec![("bench", 1.0), ("clm-core", 2.0), ("gs-render", 7.0)]
        );
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 10.0);
        assert_eq!(durations_of(&spans, "plan"), vec![2.0]);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut rec = Recorder::new();
        rec.span("batch", "bench", 7, |rec| {
            rec.span("plan", "clm-core", 7, |_| ());
            rec.span("render", "gs-render", 7, |rec| {
                rec.span("inner", "gs-render", 7, |_| ());
            });
        });
        let spans = rec.into_spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(spans.iter().all(|s| s.end >= s.start && s.batch == 7));
        assert!(self_times(&spans).iter().all(|&t| t >= 0.0));
        let trace = chrome_trace(&spans);
        assert_eq!(
            trace
                .get("traceEvents")
                .and_then(Json::arr)
                .map(<[Json]>::len),
            Some(4)
        );
    }
}
