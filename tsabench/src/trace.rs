//! In-memory spans and counters recorded by the benchmark around each
//! call into a layer, and the per-layer metrics derived from them.
//!
//! A span's self time is its duration minus the time its child spans
//! cover. A layer's `*.ms` metric is its total self time divided by the
//! number of ops that reached it. Nothing here runs inside the program:
//! every span sits in the benchmark's own code around a public call.

use safetsa_telemetry::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span of every op; its self time is the part of an
/// op no layer span covers.
const OP: &str = "op";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct Count {
    sum: f64,
    ops: u64,
    last_op: Option<u64>,
}

impl Count {
    fn add(&mut self, op: u64, v: f64) {
        self.sum += v;
        if self.last_op != Some(op) {
            self.ops += 1;
            self.last_op = Some(op);
        }
    }
}

/// A span recorder; a disabled one records nothing and costs a branch
/// per call, so traced and untraced runs share their code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, Count>,
    gauges: BTreeMap<&'static str, f64>,
}

/// Per-op mean counters, reported under their own name.
const MEAN_COUNTS: [&str; 7] = [
    "frontend.lex.tokens",
    "frontend.parse.nodes",
    "ssa.construct.instrs",
    "codec.encode.bytes",
    "codec.decode.bytes",
    "vm.execute.steps",
    "driver.store.units",
];

/// Ratios of two counter sums: `(metric, numerator, denominator)`.
const RATIOS: [(&str, &str, &str); 9] = [
    (
        "opt.constprop.useful_ratio",
        "opt.constprop.useful",
        "opt.constprop.runs",
    ),
    ("opt.cse.useful_ratio", "opt.cse.useful", "opt.cse.runs"),
    (
        "opt.checkelim.useful_ratio",
        "opt.checkelim.useful",
        "opt.checkelim.runs",
    ),
    (
        "opt.loadfwd.useful_ratio",
        "opt.loadfwd.useful",
        "opt.loadfwd.runs",
    ),
    ("opt.dse.useful_ratio", "opt.dse.useful", "opt.dse.runs"),
    ("opt.dce.useful_ratio", "opt.dce.useful", "opt.dce.runs"),
    ("opt.rounds", "opt.rounds", "opt.functions"),
    ("vm.icache.hit_ratio", "vm.icache.hits", "vm.icache.lookups"),
    (
        "driver.store.hit_ratio",
        "driver.store.hits",
        "driver.store.units",
    ),
];

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts op `op`: opens its root span.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        self.open(OP);
    }

    pub fn end_op(&mut self) {
        self.close();
    }

    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        };
        self.stack.push(self.spans.len());
        self.spans.push(span);
    }

    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Adds `v` to counter `name` for the current op.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.counts.entry(name).or_default().add(self.op, v);
        }
    }

    /// Sets a value measured once per run (the daemon's own view).
    pub fn gauge(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.gauges.insert(name, v);
        }
    }

    /// Appends another tracer's record (a connection thread's); its
    /// ops must not share ids with this one's.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other
            .epoch
            .saturating_duration_since(self.epoch)
            .as_nanos()
            .try_into()
            .unwrap_or(0u64);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (name, c) in other.counts {
            let mine = self.counts.entry(name).or_default();
            mine.sum += c.sum;
            mine.ops += c.ops;
        }
        self.gauges.extend(other.gauges);
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every per-layer metric this trace has data for.
    pub fn layer_metrics(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut self_time: BTreeMap<&'static str, Count> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(*child);
            self_time.entry(s.name).or_default().add(s.op, own as f64);
        }
        let mut out = BTreeMap::new();
        for (name, c) in self_time {
            if name != OP {
                out.insert(format!("{name}.ms"), c.sum / c.ops as f64 / 1e6);
            }
        }
        for name in MEAN_COUNTS {
            if let Some(c) = self.counts.get(name) {
                out.insert(name.to_string(), c.sum / c.ops as f64);
            }
        }
        for (metric, num, den) in RATIOS {
            if let Some(d) = self.counts.get(den).filter(|d| d.sum > 0.0) {
                let n = self.counts.get(num).map_or(0.0, |c| c.sum);
                out.insert(metric.to_string(), n / d.sum);
            }
        }
        for (name, v) in &self.gauges {
            out.insert((*name).to_string(), *v);
        }
        out
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent, op}`.
    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut o = Json::obj();
                    o.set("name", Json::Str(s.name.into()));
                    o.set("start_ns", Json::U64(s.start_ns));
                    o.set("end_ns", Json::U64(s.end_ns));
                    o.set(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    );
                    o.set("op", Json::U64(s.op));
                    o
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_divides_by_ops() {
        let mut t = Tracer::new(true);
        for op in 0..2 {
            t.begin_op(op);
            t.open("outer");
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.close();
            t.count("vm.execute.steps", 10.0);
            t.end_op();
        }
        let m = t.layer_metrics();
        assert!(m["inner.ms"] >= 2.0, "{m:?}");
        assert!(m["outer.ms"] < m["inner.ms"], "{m:?}");
        assert_eq!(m["vm.execute.steps"], 10.0);
        assert!(!m.contains_key("op.ms"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_op(0);
        t.span("x", || ());
        t.count("vm.execute.steps", 1.0);
        t.end_op();
        assert!(t.spans().is_empty());
        assert!(t.layer_metrics().is_empty());
    }
}
