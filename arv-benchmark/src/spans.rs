//! Spans the benchmark records around every call it makes across a layer
//! boundary. They live in memory until the workload ends; a layer's self
//! time is its span minus the part its child spans cover.
//!
//! The log is off in an untraced run: `timed` then only calls through, so
//! the end-to-end numbers carry no recording cost.

use std::collections::BTreeMap;
use std::time::Instant;

/// Most spans one log holds; later ones are counted in `dropped`.
const MAX_SPANS: usize = 1 << 21;
const NO_PARENT: u32 = u32::MAX;

/// One recorded boundary call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer metric the span feeds (a name from the per-layer table).
    pub name: &'static str,
    /// Start, nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, nanoseconds since the log was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Round or request the span belongs to.
    pub op: u64,
}

#[derive(Debug, Clone, Copy)]
struct Raw {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u64,
}

/// In-memory span log of one workload run.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    spans: Vec<Raw>,
    stack: Vec<u32>,
    dropped: u64,
}

impl SpanLog {
    /// A log that records nothing until [`SpanLog::set_recording`] turns
    /// it on.
    pub fn new() -> SpanLog {
        SpanLog {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    /// Turn recording on or off (between operations, never inside one).
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Run `f` inside a span called `name` belonging to operation `op`.
    #[inline]
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut SpanLog) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Raw {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> impl Iterator<Item = Span> + '_ {
        self.spans.iter().map(|r| Span {
            name: r.name,
            start_ns: r.start_ns,
            end_ns: r.end_ns,
            parent: (r.parent != NO_PARENT).then_some(r.parent),
            op: r.op,
        })
    }

    /// Spans that did not fit in the log.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per span name, the self time in nanoseconds summed per operation:
    /// one value for each operation in which the name occurred, in
    /// operation order. Children never overlap one another (the driver
    /// is one thread), so covered time is the sum of their durations.
    pub fn self_ns_per_op(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut self_ns: Vec<u64> = self
            .spans
            .iter()
            .map(|r| r.end_ns.saturating_sub(r.start_ns))
            .collect();
        for r in &self.spans {
            if r.parent != NO_PARENT {
                let d = r.end_ns.saturating_sub(r.start_ns);
                let p = &mut self_ns[r.parent as usize];
                *p = p.saturating_sub(d);
            }
        }
        let mut by_name_op: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (r, ns) in self.spans.iter().zip(&self_ns) {
            *by_name_op.entry((r.name, r.op)).or_default() += ns;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _op), ns) in by_name_op {
            out.entry(name).or_default().push(ns as f64);
        }
        out
    }

    /// Write the spans as tab-separated text: `index name op parent
    /// start_ns end_ns`.
    pub fn write_tsv(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "index\tname\top\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_log_records_nothing() {
        let mut log = SpanLog::new();
        assert_eq!(log.timed("round", 0, |_| 7), 7);
        assert_eq!(log.spans().count(), 0);

        log.set_recording(true);
        for op in 0..3 {
            log.timed("round", op, |log| {
                log.timed("child", op, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                log.timed("child", op, |_| ());
            });
        }
        let spans: Vec<Span> = log.spans().collect();
        assert_eq!(spans.len(), 9);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let per = log.self_ns_per_op();
        assert_eq!(per["round"].len(), 3);
        assert_eq!(
            per["child"].len(),
            3,
            "two children of one op fold into one value"
        );
        for (round, child) in per["round"].iter().zip(&per["child"]) {
            assert!(*child >= 2e6, "child slept 2 ms, saw {child} ns");
            assert!(
                *round < 1.5e6,
                "parent self time excludes the sleep, saw {round} ns"
            );
        }
    }
}
