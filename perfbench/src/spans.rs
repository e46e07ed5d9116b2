//! The benchmark's own spans: recorded around each call into a layer,
//! kept in memory, and written once when the run ends.
//!
//! A span has a name, a start and end on the run's clock, its parent
//! span, and the id of the op it belongs to (shared by every span of
//! one op). A layer's self time is its spans' durations minus the time
//! their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `ir.parse`.
    pub name: &'static str,
    /// Op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same tracer, or `u32::MAX`.
    pub parent: u32,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the handle to Tracer::exit"]
pub struct Open(u32);

/// A per-thread span recorder. When off, `enter` and `exit` read no
/// clock and record nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(idx);
        Open(idx)
    }

    /// Closes the span `open` refers to, which must be the innermost.
    pub fn exit(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let now = self.now();
        let idx = self.open.pop().expect("exit without enter");
        debug_assert_eq!(idx, open.0, "spans must close innermost first");
        self.spans[idx as usize].end_ns = now;
    }

    /// Spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened beyond `depth` now, after a panic
    /// skipped their `exit`.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let idx = self.open.pop().expect("depth checked");
            self.spans[idx as usize].end_ns = self.now();
        }
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of span durations minus their children's, ns.
    pub self_ns: u64,
}

/// Self and total time per span name, over the spans of several
/// tracers (parents are resolved within each tracer).
pub fn layer_times(tracers: &[&Tracer]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for t in tracers {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        for (s, children) in t.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(children);
        }
    }
    out
}

/// Writes every span as one JSON line: `{"id","tracer","parent","op",
/// "name","start_ns","end_ns"}`. Parent ids refer to `id`s of the same
/// tracer; `null` marks a root.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_spans(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::new();
    for (ti, t) in tracers.iter().enumerate() {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"tracer\":{ti},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let op = t.enter("op", 1);
        let child = t.enter("child", 1);
        t.exit(child);
        t.exit(op);
        // Force known durations.
        (t.spans[0].start_ns, t.spans[0].end_ns) = (0, 100);
        (t.spans[1].start_ns, t.spans[1].end_ns) = (10, 40);
        let times = layer_times(&[&t]);
        assert_eq!(times["op"].self_ns, 70);
        assert_eq!(times["child"].self_ns, 30);
        let mut off = Tracer::new(false, Instant::now());
        let h = off.enter("op", 1);
        off.exit(h);
        assert!(off.spans.is_empty());
    }
}
