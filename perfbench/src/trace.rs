//! In-memory span recorder for the traced run.
//!
//! Each span is one call into a layer, timed from the benchmark's side of
//! that layer's public API: name, start, end, and the span that caused it.
//! All spans of one operation share the operation's number. Spans stay in
//! memory until the run ends and are then written out as JSON lines.

use crate::util::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    /// Time spent in the layer: the whole span, or less when the layer's
    /// calls alternate with another layer's inside the span.
    pub busy: Duration,
}

/// One thread's span log. Span ids are indexes into the log.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub thread: usize,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: usize) -> Tracer {
        Tracer {
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    /// Records a finished call that ran from `start` to `end`; returns
    /// its id and duration.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> (usize, Duration) {
        self.record_busy(name, op, parent, start, end, end - start)
    }

    /// Records a span from `start` to `end` of which the layer was busy
    /// for `busy`.
    pub fn record_busy(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        busy: Duration,
    ) -> (usize, Duration) {
        self.spans.push(Span {
            name,
            op,
            parent,
            start: start - self.epoch,
            end: end - self.epoch,
            busy,
        });
        (self.spans.len() - 1, busy)
    }

    /// Times `f` as one span.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let t0 = Instant::now();
        let r = f();
        let (_, d) = self.record(name, op, parent, t0, Instant::now());
        (r, d)
    }
}

/// Total milliseconds spent in spans of each name.
pub fn span_totals_ms(tracers: &[Tracer]) -> BTreeMap<&'static str, f64> {
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    for tracer in tracers {
        for span in &tracer.spans {
            *sums.entry(span.name).or_default() += span.busy.as_secs_f64() * 1e3;
        }
    }
    sums
}

/// Writes every span as one JSON line.
pub fn write_spans(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for tracer in tracers {
        for (id, span) in tracer.spans.iter().enumerate() {
            let mut line = Json::new()
                .int("thread", tracer.thread as u64)
                .int("id", id as u64)
                .int("op", span.op)
                .str("name", span.name)
                .num("start_us", span.start.as_secs_f64() * 1e6)
                .num("end_us", span.end.as_secs_f64() * 1e6)
                .num("busy_us", span.busy.as_secs_f64() * 1e6);
            if let Some(parent) = span.parent {
                line = line.int("parent", parent as u64);
            }
            writeln!(out, "{}", line.finish())?;
        }
    }
    out.flush()
}
