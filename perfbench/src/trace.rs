//! In-memory spans around the calls the benchmark makes into each crate.
//!
//! A span records its name, start and end (ns since the tracer was
//! made), the span open around it, the job it belongs to, and how many
//! operations it covered (1 for a single call; ticks for a simulation;
//! the loop count for a batched micro-loop). A span's name is
//! `<layer>.<call>`, where the layer is the crate the call goes into.
//! A disabled tracer takes no clock readings, so the same code runs
//! traced and untraced.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
    pub ops: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The crate a span's call goes into: its name up to the first `.`.
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; the next [`exit`](Self::exit) closes it.
    pub fn enter(&mut self, name: &'static str, job: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
            ops: 1,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span, crediting it with `ops` operations.
    pub fn exit(&mut self, ops: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = end_ns;
        self.spans[i].ops = ops;
    }

    /// Runs `f` inside a span of its own.
    pub fn leaf<R>(&mut self, name: &'static str, job: u64, ops: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, job);
        let r = f();
        self.exit(ops);
        r
    }

    /// Hands over the recorded spans and starts afresh.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans still open");
        std::mem::take(&mut self.spans)
    }
}

#[derive(Default, Clone, Copy)]
struct Stat {
    ns: u64,
    ops: u64,
}

/// Totals over many spans: time and operations per span name, and self
/// time per layer (a span's duration minus the part its children cover).
#[derive(Default)]
pub struct Agg {
    by_name: BTreeMap<&'static str, Stat>,
    self_ns: BTreeMap<&'static str, u64>,
}

impl Agg {
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        for (s, child) in spans.iter().zip(child_ns) {
            let st = self.by_name.entry(s.name).or_default();
            st.ns += s.dur_ns();
            st.ops += s.ops;
            *self.self_ns.entry(s.layer()).or_default() += s.dur_ns().saturating_sub(child);
        }
    }

    /// Mean nanoseconds per operation of the spans called `name`.
    pub fn ns_per_op(&self, name: &str) -> Option<f64> {
        let st = self.by_name.get(name)?;
        (st.ops > 0).then(|| st.ns as f64 / st.ops as f64)
    }

    /// Total nanoseconds spent in spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |s| s.ns)
    }

    /// Self time of `layer`, nanoseconds.
    pub fn self_ns(&self, layer: &str) -> u64 {
        self.self_ns.get(layer).copied().unwrap_or(0)
    }
}

/// The spans as JSON lines, one object per span; `set` names the span
/// list, whose indices `parent` refers to.
pub fn to_json_lines(set: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"set":"{set}","name":"{}","start_ns":{},"end_ns":{},"parent":{},"job":{},"ops":{}}}"#,
            s.name, s.start_ns, s.end_ns, parent, s.job, s.ops
        )
        .expect("writing to a String cannot fail");
    }
    out
}
