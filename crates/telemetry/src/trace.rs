//! Structured spans and instant events — the causal half of telemetry.
//!
//! The metrics registry answers "how much"; this module answers
//! "when, inside what". A [`SpanRecord`] is one named interval with a
//! parent, a lane (the Chrome `tid`), monotonic start/end nanoseconds
//! relative to the trace epoch, and typed attributes. Spans nest
//! through a per-registry stack: whatever span is innermost-open when
//! a new span starts becomes its parent, so the pipeline's stage
//! structure falls out of ordinary lexical nesting with no plumbing.
//!
//! Traces are exported two ways:
//!
//! * a flat JSON span/event listing (schema [`TRACE_SCHEMA`]) — what
//!   the serve daemon's flight recorder retains per request and the
//!   determinism tests diff, and
//! * Chrome `trace_event` JSON (the `traceEvents` array of `ph:"X"`
//!   complete events and `ph:"i"` instants) — what `--trace-json`
//!   writes and `chrome://tracing` / Perfetto load directly.
//!
//! Timestamps are the only nondeterministic field: span names, ids,
//! parents, lanes and attributes are pure functions of the work
//! performed, which is what makes the `--jobs 1` vs `--jobs 8`
//! span-tree equality test possible.

use crate::json::Json;
use std::time::Instant;

/// Schema identifier stamped into every exported trace document.
/// Versioned separately from the metrics schema: adding span attributes
/// is compatible, renaming span fields bumps the suffix.
pub const TRACE_SCHEMA: &str = "safetsa-trace/1";

/// A typed span/event attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer attribute.
    U64(u64),
    /// A string attribute.
    Str(String),
    /// A boolean attribute.
    Bool(bool),
}

impl AttrValue {
    /// The attribute as a JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            AttrValue::U64(v) => Json::U64(*v),
            AttrValue::Str(s) => Json::Str(s.clone()),
            AttrValue::Bool(b) => Json::Bool(*b),
        }
    }
}

/// One completed span: a named interval in the causal tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span id, unique within one (merged) registry; ids start at 1.
    pub id: u64,
    /// Enclosing span, `None` for roots.
    pub parent: Option<u64>,
    /// Span name (a pipeline stage, `"request"`, `"task"`, …).
    pub name: String,
    /// Start, in monotonic nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in monotonic nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Lane (exported as the Chrome `tid`): 0 for driver-level work,
    /// `task index + 1` for batch tasks — a scheduling-independent
    /// timeline assignment.
    pub lane: u32,
    /// Typed attributes, in recording order.
    pub attrs: Vec<(String, AttrValue)>,
}

/// One instant event (a cache probe outcome, a shed decision): a point
/// in time attached to the span that was open when it fired.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// The span this event fired inside, `None` at top level.
    pub parent: Option<u64>,
    /// Event name.
    pub name: String,
    /// Timestamp in monotonic nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Lane (Chrome `tid`).
    pub lane: u32,
    /// Typed attributes.
    pub attrs: Vec<(String, AttrValue)>,
}

/// A span opened but not yet closed.
#[derive(Debug)]
struct OpenSpan {
    id: u64,
    name: String,
    start_ns: u64,
    attrs: Vec<(String, AttrValue)>,
}

/// The per-registry trace buffer: an epoch, a stack of open spans, and
/// the completed records.
#[derive(Debug)]
pub(crate) struct TraceBuf {
    epoch: Instant,
    lane: u32,
    /// Next span id to assign (ids start at 1 so `0` can mean "no
    /// span" in the open/close API).
    next_id: u64,
    open: Vec<OpenSpan>,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
}

impl TraceBuf {
    pub(crate) fn new(epoch: Instant, lane: u32) -> TraceBuf {
        TraceBuf {
            epoch,
            lane,
            next_id: 1,
            open: Vec::new(),
            spans: Vec::new(),
            events: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos()
            .min(u64::MAX as u128) as u64
    }

    fn rel_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch)
            .as_nanos()
            .min(u64::MAX as u128) as u64
    }

    fn innermost(&self) -> Option<u64> {
        self.open.last().map(|s| s.id)
    }

    pub(crate) fn open(&mut self, name: &str) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(OpenSpan {
            id,
            name: name.to_string(),
            start_ns: self.now_ns(),
            attrs: Vec::new(),
        });
        id
    }

    /// Closes `id` and (defensively) any spans left open inside it —
    /// a panic that unwound past child `span_close` calls must not
    /// corrupt the nesting of later spans.
    pub(crate) fn close(&mut self, id: u64) {
        if !self.open.iter().any(|s| s.id == id) {
            return;
        }
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            let parent = self.innermost();
            let done = top.id == id;
            self.spans.push(SpanRecord {
                id: top.id,
                parent,
                name: top.name,
                start_ns: top.start_ns,
                end_ns,
                lane: self.lane,
                attrs: top.attrs,
            });
            if done {
                return;
            }
        }
    }

    pub(crate) fn attr(&mut self, key: &str, value: AttrValue) {
        if let Some(top) = self.open.last_mut() {
            top.attrs.push((key.to_string(), value));
        }
    }

    pub(crate) fn record_complete(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        attrs: &[(&str, AttrValue)],
    ) {
        let id = self.next_id;
        self.next_id += 1;
        let rec = SpanRecord {
            id,
            parent: self.innermost(),
            name: name.to_string(),
            start_ns: self.rel_ns(start),
            end_ns: self.rel_ns(end),
            lane: self.lane,
            attrs: own_attrs(attrs),
        };
        self.spans.push(rec);
    }

    pub(crate) fn event(&mut self, name: &str, attrs: &[(&str, AttrValue)]) {
        let rec = EventRecord {
            parent: self.innermost(),
            name: name.to_string(),
            ts_ns: self.now_ns(),
            lane: self.lane,
            attrs: own_attrs(attrs),
        };
        self.events.push(rec);
    }

    /// All spans: the completed ones, then every still-open span
    /// synthesized with `end = now` and an `unfinished` attribute —
    /// that is precisely the "what was in flight when the worker died"
    /// view the flight recorder wants after a panic.
    pub(crate) fn snapshot_spans(&self) -> Vec<SpanRecord> {
        let mut out = self.spans.clone();
        let end_ns = self.now_ns();
        for (depth, s) in self.open.iter().enumerate() {
            let parent = depth.checked_sub(1).map(|i| self.open[i].id);
            let mut attrs = s.attrs.clone();
            attrs.push(("unfinished".to_string(), AttrValue::Bool(true)));
            out.push(SpanRecord {
                id: s.id,
                parent,
                name: s.name.clone(),
                start_ns: s.start_ns,
                end_ns,
                lane: self.lane,
                attrs,
            });
        }
        out
    }

    pub(crate) fn snapshot_events(&self) -> Vec<EventRecord> {
        self.events.clone()
    }

    /// Appends another buffer's completed records, remapping its span
    /// ids past this buffer's and shifting its timestamps onto this
    /// buffer's epoch. Open spans in `other` are not merged (they
    /// belong to work still running over there).
    pub(crate) fn merge(&mut self, other: &TraceBuf) {
        let offset = self.next_id - 1;
        // Epoch shift: other's nanoseconds are relative to its own
        // epoch; express them relative to ours.
        let (add, sub) = match other.epoch.checked_duration_since(self.epoch) {
            Some(d) => (d.as_nanos().min(u64::MAX as u128) as u64, 0),
            None => (
                0,
                self.epoch
                    .saturating_duration_since(other.epoch)
                    .as_nanos()
                    .min(u64::MAX as u128) as u64,
            ),
        };
        let shift = |ns: u64| ns.saturating_add(add).saturating_sub(sub);
        for s in &other.spans {
            self.spans.push(SpanRecord {
                id: s.id + offset,
                parent: s.parent.map(|p| p + offset),
                name: s.name.clone(),
                start_ns: shift(s.start_ns),
                end_ns: shift(s.end_ns),
                lane: s.lane,
                attrs: s.attrs.clone(),
            });
        }
        for e in &other.events {
            self.events.push(EventRecord {
                parent: e.parent.map(|p| p + offset),
                name: e.name.clone(),
                ts_ns: shift(e.ts_ns),
                lane: e.lane,
                attrs: e.attrs.clone(),
            });
        }
        self.next_id += other.next_id - 1;
    }
}

fn own_attrs(attrs: &[(&str, AttrValue)]) -> Vec<(String, AttrValue)> {
    attrs
        .iter()
        .map(|(k, v)| ((*k).to_string(), v.clone()))
        .collect()
}

fn attrs_json(attrs: &[(String, AttrValue)]) -> Json {
    let mut o = Json::obj();
    for (k, v) in attrs {
        o.set(k, v.to_json());
    }
    o
}

/// Renders spans and events as the flat `safetsa-trace/1` listing:
/// `{"schema":…,"spans":[…],"events":[…]}`. Each span object carries
/// `id`, `parent`, `name`, `lane`, `start_ns`, `end_ns`, `attrs` — only
/// the `_ns` members are timing-dependent, everything else is
/// deterministic.
pub fn trace_to_json(spans: &[SpanRecord], events: &[EventRecord]) -> Json {
    let mut doc = Json::obj();
    doc.set("schema", Json::Str(TRACE_SCHEMA.into()));
    let items = spans
        .iter()
        .map(|s| {
            let mut o = Json::obj();
            o.set("id", Json::U64(s.id));
            o.set("parent", s.parent.map_or(Json::Null, Json::U64));
            o.set("name", Json::Str(s.name.clone()));
            o.set("lane", Json::U64(u64::from(s.lane)));
            o.set("start_ns", Json::U64(s.start_ns));
            o.set("end_ns", Json::U64(s.end_ns));
            o.set("attrs", attrs_json(&s.attrs));
            o
        })
        .collect();
    doc.set("spans", Json::Arr(items));
    let items = events
        .iter()
        .map(|e| {
            let mut o = Json::obj();
            o.set("parent", e.parent.map_or(Json::Null, Json::U64));
            o.set("name", Json::Str(e.name.clone()));
            o.set("lane", Json::U64(u64::from(e.lane)));
            o.set("ts_ns", Json::U64(e.ts_ns));
            o.set("attrs", attrs_json(&e.attrs));
            o
        })
        .collect();
    doc.set("events", Json::Arr(items));
    doc
}

/// Renders spans and events as Chrome `trace_event` JSON: an object
/// with the `traceEvents` array (complete `ph:"X"` events for spans,
/// `ph:"i"` instants for events; timestamps in microseconds) plus the
/// `schema` marker. Loads directly in `chrome://tracing` and Perfetto;
/// the span id/parent/attributes travel in `args`.
pub fn chrome_trace_json(spans: &[SpanRecord], events: &[EventRecord]) -> Json {
    chrome_trace_json_offset(spans, events, 0)
}

/// [`chrome_trace_json`] with every lane shifted by `tid_offset` —
/// lets a multi-request export (the flight recorder) give each request
/// its own row group.
pub fn chrome_trace_json_offset(
    spans: &[SpanRecord],
    events: &[EventRecord],
    tid_offset: u64,
) -> Json {
    let mut doc = Json::obj();
    doc.set("schema", Json::Str(TRACE_SCHEMA.into()));
    doc.set("displayTimeUnit", Json::Str("ms".into()));
    doc.set(
        "traceEvents",
        Json::Arr(chrome_events(spans, events, tid_offset)),
    );
    doc
}

/// The bare `traceEvents` entries (no enclosing document) — callers
/// that stitch several traces together concatenate these.
pub fn chrome_events(spans: &[SpanRecord], events: &[EventRecord], tid_offset: u64) -> Vec<Json> {
    let us = |ns: u64| Json::F64(ns as f64 / 1_000.0);
    let mut out = Vec::with_capacity(spans.len() + events.len());
    for s in spans {
        let mut o = Json::obj();
        o.set("name", Json::Str(s.name.clone()));
        o.set("cat", Json::Str("safetsa".into()));
        o.set("ph", Json::Str("X".into()));
        o.set("ts", us(s.start_ns));
        o.set("dur", us(s.end_ns.saturating_sub(s.start_ns)));
        o.set("pid", Json::U64(1));
        o.set("tid", Json::U64(u64::from(s.lane) + tid_offset));
        let mut args = Json::obj();
        args.set("id", Json::U64(s.id));
        args.set("parent", s.parent.map_or(Json::Null, Json::U64));
        for (k, v) in &s.attrs {
            args.set(k, v.to_json());
        }
        o.set("args", args);
        out.push(o);
    }
    for e in events {
        let mut o = Json::obj();
        o.set("name", Json::Str(e.name.clone()));
        o.set("cat", Json::Str("safetsa".into()));
        o.set("ph", Json::Str("i".into()));
        o.set("ts", us(e.ts_ns));
        o.set("s", Json::Str("t".into()));
        o.set("pid", Json::U64(1));
        o.set("tid", Json::U64(u64::from(e.lane) + tid_offset));
        let mut args = Json::obj();
        args.set("parent", e.parent.map_or(Json::Null, Json::U64));
        for (k, v) in &e.attrs {
            args.set(k, v.to_json());
        }
        o.set("args", args);
        out.push(o);
    }
    out
}
