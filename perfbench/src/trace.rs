//! Outside-in span recorder: the benchmark wraps each call into a layer's
//! public functions in a span (name, start, end, parent, run id). Spans
//! stay in memory and are written out once the run ends. A disabled
//! tracer records nothing and costs one branch per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Step or arm ordinal within its run, where the span has one.
    pub index: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// A handle to an open span (a dummy when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Starts a new run id; spans opened from now on belong to it. Spans a
    /// failed run left open end here.
    pub fn next_run(&mut self) -> u32 {
        let now = self.now_ns();
        while let Some(id) = self.stack.pop() {
            self.spans[id].end_ns = now;
        }
        self.run += 1;
        self.run
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        self.push(name, None)
    }

    pub fn open_at(&mut self, name: &'static str, index: u32) -> Open {
        self.push(name, Some(index))
    }

    fn push(&mut self, name: &'static str, index: Option<u32>) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            index,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn close(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close in LIFO order");
        self.spans[open.0].end_ns = end;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part its children
    /// cover (children never overlap: the traced paths are serial).
    pub fn self_secs(&self) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(*c) as f64 / 1e9)
            .collect()
    }

    /// Per run: total self time by span name.
    pub fn self_by_name(&self) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
        let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_secs()) {
            *out.entry(s.run).or_default().entry(s.name).or_insert(0.0) += own;
        }
        out
    }

    /// Per run: (traced wall clock = sum of root spans, sum of the root
    /// spans' direct children — the top-level layer calls).
    pub fn reconcile(&self) -> BTreeMap<u32, (f64, f64)> {
        let mut out: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.run).or_insert((0.0, 0.0));
            match s.parent {
                None => e.0 += s.secs(),
                Some(p) if self.spans[p].parent.is_none() => e.1 += s.secs(),
                Some(_) => {}
            }
        }
        out
    }

    /// The spans as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.run, s.name, s.start_ns, s.end_ns
            );
            if let Some(i) = s.index {
                let _ = write!(out, ",\"index\":{i}");
            }
            match s.parent {
                Some(p) => {
                    let _ = writeln!(out, ",\"parent\":{p}}}");
                }
                None => out.push_str(",\"parent\":null}\n"),
            }
        }
        out
    }
}
