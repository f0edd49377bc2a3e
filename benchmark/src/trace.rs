//! Benchmark-owned spans around the calls into each layer.
//!
//! The repo's `profiler` aggregates scopes into a tree and forgets when
//! each one ran; a trace needs name, start, end and parent per span. The
//! spans live in memory and are written out once, after the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

/// One closed span. Times are microseconds since the tracer was created.
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn wall_ms(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1_000.0
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records spans on one thread.
pub struct Tracer {
    origin: Instant,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), inner: RefCell::default() }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start_us = self.now_us();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        let index = inner.spans.len();
        inner.spans.push(Span { name, start_us, end_us: start_us, parent });
        inner.open.push(index);
        SpanGuard { tracer: self, index }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_us = self.tracer.now_us();
        let mut inner = self.tracer.inner.borrow_mut();
        inner.spans[self.index].end_us = end_us;
        // Guards drop innermost first, so the span being closed is on top.
        inner.open.pop();
    }
}

/// Total wall of every span called `name`, in milliseconds.
pub fn wall_ms_of(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).fold(0.0, |total, s| total + s.wall_ms())
}

/// Collapsed stacks (`a;b;c <micros>`) of the spans' self times: a span's
/// duration minus the part its children cover, summed per path.
pub fn collapsed_stacks(spans: &[Span]) -> String {
    let mut child_us = vec![0u64; spans.len()];
    let mut paths: Vec<String> = Vec::with_capacity(spans.len());
    for span in spans {
        let path = match span.parent {
            Some(parent) => {
                child_us[parent] += span.end_us - span.start_us;
                format!("{};{}", paths[parent], span.name)
            }
            None => span.name.to_string(),
        };
        paths.push(path);
    }
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for (index, span) in spans.iter().enumerate() {
        let own = (span.end_us - span.start_us).saturating_sub(child_us[index]);
        *totals.entry(&paths[index]).or_default() += own;
    }
    totals.iter().map(|(path, us)| format!("{path} {us}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
        }
        let _sibling = tracer.span("sibling");
        drop(_sibling);
        let mut spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        spans[0].start_us = 0;
        spans[0].end_us = 10;
        spans[1].start_us = 2;
        spans[1].end_us = 6;
        spans[2].start_us = 10;
        spans[2].end_us = 11;
        assert_eq!(collapsed_stacks(&spans), "outer 6\nouter;inner 4\nsibling 1\n");
    }
}
