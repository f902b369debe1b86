//! The flight recorder: bounded rings of recently finished request
//! traces, kept in memory so an operator can ask "what just happened"
//! after the fact — without having had tracing enabled client-side.
//!
//! Two rings with different retention pressure:
//!
//! * **completed** — the last [`COMPLETED_CAP`] finished work requests,
//!   whatever their outcome. High churn under load.
//! * **failed** — the last [`FAILED_CAP`] requests that ended in an
//!   error (panics, deadline kills, traps, compile failures). Errors
//!   are usually rare, so this ring preserves the interesting records
//!   long after the completed ring has churned past them.
//!
//! Records are queried through the `trace` op (see
//! [`crate::protocol`]) and the whole recorder is exportable as one
//! Chrome `trace_event` document, each request in its own `tid` group.

use safetsa_telemetry::trace::{chrome_events, trace_to_json, EventRecord, SpanRecord};
use safetsa_telemetry::Json;
use std::collections::VecDeque;
use std::sync::Mutex;

/// How many finished requests the completed ring retains.
pub const COMPLETED_CAP: usize = 64;

/// How many failed requests the failed ring retains.
pub const FAILED_CAP: usize = 32;

/// `tid` stride between requests in the merged Chrome export, so each
/// request's lanes form their own row group.
const CHROME_TID_STRIDE: u64 = 8;

/// Everything retained about one finished request.
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// Recorder-assigned sequence number (monotone per daemon), used
    /// to deduplicate records that sit in both rings.
    pub seq: u64,
    /// The request's correlation id.
    pub id: String,
    /// Tenant name (empty = default profile).
    pub tenant: String,
    /// Op name (`"compile"` / `"verify"` / `"run"`).
    pub op: String,
    /// Response status (`"ok"` / `"error"`).
    pub status: String,
    /// Error kind when `status` is `"error"` (`"panic"`,
    /// `"deadline_exceeded"`, …).
    pub kind: Option<String>,
    /// Queue wait, admission → worker pickup, in nanoseconds.
    pub queued_ns: u64,
    /// End-to-end time, admission → record, in nanoseconds.
    pub total_ns: u64,
    /// The request's span tree (panic-interrupted spans appear with an
    /// `unfinished:true` attribute).
    pub spans: Vec<SpanRecord>,
    /// The request's instant events.
    pub events: Vec<EventRecord>,
    /// The VM sampling profile, when the request executed guest code.
    pub profile: Option<Json>,
}

impl FlightRecord {
    /// Renders the record for the `trace` op payload: identity and
    /// outcome fields plus the full `safetsa-trace/1` span listing.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("id", Json::Str(self.id.clone()));
        o.set("tenant", Json::Str(self.tenant.clone()));
        o.set("op", Json::Str(self.op.clone()));
        o.set("status", Json::Str(self.status.clone()));
        o.set(
            "kind",
            self.kind
                .as_ref()
                .map_or(Json::Null, |k| Json::Str(k.clone())),
        );
        o.set("queued_ns", Json::U64(self.queued_ns));
        o.set("total_ns", Json::U64(self.total_ns));
        o.set("trace", trace_to_json(&self.spans, &self.events));
        o.set("profile", self.profile.clone().unwrap_or(Json::Null));
        o
    }
}

/// The recorder itself: both rings behind one mutex (records arrive
/// from worker threads, queries from reader threads).
#[derive(Debug, Default)]
pub struct FlightRecorder {
    inner: Mutex<Rings>,
}

#[derive(Debug, Default)]
struct Rings {
    next_seq: u64,
    completed: VecDeque<FlightRecord>,
    failed: VecDeque<FlightRecord>,
}

fn push_bounded(ring: &mut VecDeque<FlightRecord>, cap: usize, rec: FlightRecord) {
    if ring.len() == cap {
        ring.pop_front();
    }
    ring.push_back(rec);
}

impl FlightRecorder {
    /// Retains one finished request. Failed requests land in both
    /// rings; the sequence number keeps queries duplicate-free.
    pub fn record(&self, mut rec: FlightRecord) {
        let mut rings = self.inner.lock().unwrap();
        rec.seq = rings.next_seq;
        rings.next_seq += 1;
        if rec.status != "ok" {
            push_bounded(&mut rings.failed, FAILED_CAP, rec.clone());
        }
        push_bounded(&mut rings.completed, COMPLETED_CAP, rec);
    }

    /// Snapshot of every retained record (deduplicated across the two
    /// rings), oldest first.
    pub fn records(&self) -> Vec<FlightRecord> {
        let rings = self.inner.lock().unwrap();
        let mut out: Vec<FlightRecord> = rings
            .failed
            .iter()
            .chain(rings.completed.iter())
            .cloned()
            .collect();
        out.sort_by_key(|r| r.seq);
        out.dedup_by_key(|r| r.seq);
        out
    }

    /// The `trace` op payload: records matching `query` (a request id;
    /// `None` matches everything retained), plus retention counts.
    pub fn query(&self, query: Option<&str>) -> Json {
        let records = self.records();
        let matched: Vec<&FlightRecord> = records
            .iter()
            .filter(|r| query.is_none_or(|id| r.id == id))
            .collect();
        let mut o = Json::obj();
        o.set("retained", Json::U64(records.len() as u64));
        o.set("matched", Json::U64(matched.len() as u64));
        o.set(
            "records",
            Json::Arr(matched.iter().map(|r| r.to_json()).collect()),
        );
        o
    }

    /// Every retained record as one Chrome `trace_event` document, each
    /// request's lanes shifted into its own `tid` group.
    pub fn to_chrome_trace(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("schema", Json::Str(safetsa_telemetry::TRACE_SCHEMA.into()));
        doc.set("displayTimeUnit", Json::Str("ms".into()));
        let mut all = Vec::new();
        for (i, rec) in self.records().iter().enumerate() {
            all.extend(chrome_events(
                &rec.spans,
                &rec.events,
                i as u64 * CHROME_TID_STRIDE,
            ));
        }
        doc.set("traceEvents", Json::Arr(all));
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, status: &str) -> FlightRecord {
        FlightRecord {
            seq: 0,
            id: id.into(),
            tenant: String::new(),
            op: "run".into(),
            status: status.into(),
            kind: (status == "error").then(|| "panic".to_string()),
            queued_ns: 10,
            total_ns: 100,
            spans: Vec::new(),
            events: Vec::new(),
            profile: None,
        }
    }

    #[test]
    fn failed_records_outlive_the_completed_ring() {
        let fr = FlightRecorder::default();
        fr.record(rec("boom", "error"));
        for i in 0..COMPLETED_CAP {
            fr.record(rec(&format!("ok{i}"), "ok"));
        }
        // `boom` has churned out of the completed ring but survives in
        // the failed ring — and appears exactly once in a query.
        let payload = fr.query(Some("boom"));
        assert_eq!(payload.get("matched").and_then(Json::as_u64), Some(1));
        let all = fr.query(None);
        assert_eq!(
            all.get("retained").and_then(Json::as_u64),
            Some(COMPLETED_CAP as u64 + 1)
        );
    }

    #[test]
    fn fresh_failures_are_not_duplicated_across_rings() {
        let fr = FlightRecorder::default();
        fr.record(rec("a", "ok"));
        fr.record(rec("b", "error"));
        let payload = fr.query(None);
        assert_eq!(payload.get("retained").and_then(Json::as_u64), Some(2));
        assert_eq!(payload.get("matched").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn chrome_export_groups_requests_by_tid() {
        let fr = FlightRecorder::default();
        let mut a = rec("a", "ok");
        a.spans.push(SpanRecord {
            id: 1,
            parent: None,
            name: "request".into(),
            start_ns: 0,
            end_ns: 5,
            lane: 0,
            attrs: Vec::new(),
        });
        let mut b = rec("b", "ok");
        b.spans = a.spans.clone();
        fr.record(a);
        fr.record(b);
        let doc = fr.to_chrome_trace();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("missing traceEvents");
        };
        let tids: Vec<u64> = events
            .iter()
            .filter_map(|e| e.get("tid").and_then(Json::as_u64))
            .collect();
        assert_eq!(tids, vec![0, CHROME_TID_STRIDE]);
    }
}
