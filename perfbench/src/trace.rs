//! In-memory span recorder for the traced run.
//!
//! Spans sit in the benchmark's own code, around each call it makes into
//! a layer's public functions; the library itself is not instrumented.
//! A disabled recorder does no timing at all, so the untraced run pays
//! nothing for it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` relative to the recorder epoch.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    parent: Option<usize>,
    /// The pass (or probe) this span belongs to.
    run: usize,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: usize,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans recorded from now on with `run`.
    pub fn set_run(&mut self, run: usize) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Run `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover. Children of one parent never overlap, because
    /// spans nest strictly on one thread.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.duration_ns();
            }
        }
        out
    }

    /// Summed self time per span name over the spans of `run`, seconds.
    pub fn self_seconds_by_name(&self, run: usize) -> BTreeMap<&'static str, f64> {
        let self_ns = self.self_ns();
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            if s.run == run {
                *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
            }
        }
        out
    }

    /// Duration of the first root span of `run` named `name`, seconds.
    pub fn root_seconds(&self, run: usize, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.run == run && s.parent.is_none() && s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
    }

    /// All spans as JSON lines, self time included.
    pub fn to_json_lines(&self, run_id: &str) -> String {
        let self_ns = self.self_ns();
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run_id\":\"{run_id}\",\"run\":{},\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.run, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.span("outer", |rec| {
            rec.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let own = rec.self_seconds_by_name(0);
        assert!(own["inner"] >= 0.02);
        assert!(own["outer"] >= 0.005 && own["outer"] < 0.02);
        let total = rec.root_seconds(0, "outer").expect("root span");
        assert!((own["inner"] + own["outer"] - total).abs() < 1e-9);
        assert_eq!(rec.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", |_| 7), 7);
        assert!(rec.spans.is_empty());
    }
}
