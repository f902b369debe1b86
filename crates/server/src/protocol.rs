//! The `safetsa-serve/1` wire protocol.
//!
//! Requests and responses are newline-delimited JSON objects. Every
//! request names an `op`; every *accepted* request produces exactly one
//! response carrying the same `id` — that invariant is what the chaos
//! harness asserts, so anything that can go wrong (parse failure,
//! shedding, panic, deadline) must still route to one structured
//! response line.
//!
//! Request object:
//!
//! ```json
//! {"op":"run","id":"r1","tenant":"gold","source":"class A {...}",
//!  "entry":"A.main","deadline_ms":250}
//! ```
//!
//! Response object (always has `schema`, `id`, `status`):
//!
//! ```json
//! {"schema":"safetsa-serve/1","id":"r1","status":"ok","payload":{...}}
//! {"schema":"safetsa-serve/1","id":"r1","status":"error",
//!  "kind":"deadline_exceeded","message":"deadline exceeded"}
//! {"schema":"safetsa-serve/1","id":"r1","status":"overloaded",
//!  "kind":"queue_full","message":"request queue is full"}
//! ```

use crate::json;
use safetsa_telemetry::Json;

/// Protocol schema identifier stamped into every response.
pub const SCHEMA: &str = "safetsa-serve/1";

/// What a request asks the daemon to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Compile `source` to wire bytes (cache-fronted).
    Compile,
    /// Decode and verify `tsa` (hex wire bytes).
    Verify,
    /// Compile (or decode) and execute under the tenant's limits.
    Run,
    /// Liveness probe; answered inline by the reader thread.
    Ping,
    /// Server statistics snapshot; answered inline.
    Stats,
    /// Flight-recorder query; answered inline. `query` selects a
    /// request id (omitted = every retained record).
    Trace,
    /// Ask the daemon to drain and exit.
    Shutdown,
    /// Anything else — rejected with `unsupported_op`, but the request
    /// id still gets its one response.
    Unknown(String),
}

impl Op {
    /// Whether this op is dispatched to the worker pool (as opposed to
    /// being answered inline by the connection reader).
    pub fn is_work(&self) -> bool {
        matches!(self, Op::Compile | Op::Verify | Op::Run)
    }
}

/// A parsed, not-yet-admitted request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen correlation id, echoed into the response.
    pub id: String,
    /// The operation.
    pub op: Op,
    /// Tenant name selecting a [`crate::TenantProfile`]; empty selects
    /// the default profile.
    pub tenant: String,
    /// Source text for `compile` / `run`.
    pub source: Option<String>,
    /// Hex-encoded wire bytes for `verify` / `run`.
    pub tsa: Option<String>,
    /// Entry point for `run` (`"Class.method"`).
    pub entry: Option<String>,
    /// Requested deadline; clamped to the tenant's maximum.
    pub deadline_ms: Option<u64>,
    /// Whether `compile` should echo the wire bytes back (hex). Off by
    /// default — responses stay small.
    pub want_bytes: bool,
    /// Selector for the `trace` op: a request id to look up in the
    /// flight recorder (`None` = dump everything retained).
    pub query: Option<String>,
}

impl Request {
    /// Parses one request frame.
    ///
    /// # Errors
    ///
    /// Returns `(recovered_id, message)` — the id (when one could be
    /// extracted) lets the caller address the malformed-request
    /// response, preserving exactly-one-response per frame.
    pub fn parse(line: &str) -> Result<Request, (Option<String>, String)> {
        let doc = json::parse(line).map_err(|e| (None, format!("bad json: {e}")))?;
        let id = str_field(&doc, "id").unwrap_or_default();
        let recovered = || {
            if id.is_empty() {
                None
            } else {
                Some(id.clone())
            }
        };
        if !matches!(doc, Json::Obj(_)) {
            return Err((None, "request must be a json object".into()));
        }
        let Some(op_name) = str_field(&doc, "op") else {
            return Err((recovered(), "missing `op`".into()));
        };
        let op = match op_name.as_str() {
            "compile" => Op::Compile,
            "verify" => Op::Verify,
            "run" => Op::Run,
            "ping" => Op::Ping,
            "stats" => Op::Stats,
            "trace" => Op::Trace,
            "shutdown" => Op::Shutdown,
            other => Op::Unknown(other.to_string()),
        };
        let deadline_ms = match doc.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => match v.as_u64() {
                Some(ms) => Some(ms),
                None => {
                    return Err((
                        recovered(),
                        "`deadline_ms` must be a non-negative integer".into(),
                    ))
                }
            },
        };
        Ok(Request {
            id,
            op,
            tenant: str_field(&doc, "tenant").unwrap_or_default(),
            source: str_field(&doc, "source"),
            tsa: str_field(&doc, "tsa"),
            entry: str_field(&doc, "entry"),
            deadline_ms,
            want_bytes: matches!(doc.get("want_bytes"), Some(Json::Bool(true))),
            query: str_field(&doc, "query"),
        })
    }
}

fn str_field(doc: &Json, key: &str) -> Option<String> {
    match doc.get(key) {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// A successful response carrying `payload`.
pub fn ok_response(id: &str, payload: Json) -> Json {
    let mut r = response_head(Some(id), "ok");
    r.set("payload", payload);
    r
}

/// A request-level failure: the request was accepted (or at least
/// addressed) but could not be satisfied. `kind` is a stable
/// machine-readable token (`Error::kind` values plus the protocol's
/// own: `malformed`, `unsupported_op`, `too_large`, `frame_too_long`).
pub fn error_response(id: Option<&str>, kind: &str, message: &str) -> Json {
    let mut r = response_head(id, "error");
    r.set("kind", Json::Str(kind.into()));
    r.set("message", Json::Str(message.into()));
    r
}

/// An admission rejection: the daemon is shedding load (`queue_full`)
/// or draining (`shutting_down`). Distinct from `"error"` so clients
/// know the request was never attempted and a retry is safe.
pub fn overloaded_response(id: Option<&str>, kind: &str, message: &str) -> Json {
    let mut r = response_head(id, "overloaded");
    r.set("kind", Json::Str(kind.into()));
    r.set("message", Json::Str(message.into()));
    r
}

fn response_head(id: Option<&str>, status: &str) -> Json {
    let mut r = Json::obj();
    r.set("schema", Json::Str(SCHEMA.into()));
    r.set(
        "id",
        match id {
            Some(id) => Json::Str(id.into()),
            None => Json::Null,
        },
    );
    r.set("status", Json::Str(status.into()));
    r
}

/// Hex-encodes wire bytes for transport inside a JSON string.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Decodes the hex transport form back to wire bytes.
///
/// # Errors
///
/// Returns a description of the first bad digit or an odd length.
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex".into());
    }
    let digit = |b: u8| -> Result<u8, String> {
        match b {
            b'0'..=b'9' => Ok(b - b'0'),
            b'a'..=b'f' => Ok(b - b'a' + 10),
            b'A'..=b'F' => Ok(b - b'A' + 10),
            _ => Err(format!("bad hex byte 0x{b:02x}")),
        }
    };
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.chunks_exact(2) {
        out.push((digit(pair[0])? << 4) | digit(pair[1])?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_run_request() {
        let req = Request::parse(
            r#"{"op":"run","id":"r7","tenant":"gold","source":"class A {}","entry":"A.main","deadline_ms":250,"want_bytes":true}"#,
        )
        .unwrap();
        assert_eq!(req.op, Op::Run);
        assert_eq!(req.id, "r7");
        assert_eq!(req.tenant, "gold");
        assert_eq!(req.deadline_ms, Some(250));
        assert!(req.want_bytes);
        assert!(req.op.is_work());
    }

    #[test]
    fn malformed_requests_recover_the_id_when_possible() {
        // Parseable json, bad field: id comes back for addressing.
        let err = Request::parse(r#"{"id":"x","deadline_ms":"soon","op":"run"}"#).unwrap_err();
        assert_eq!(err.0.as_deref(), Some("x"));
        // Unparseable json: no id to recover.
        let err = Request::parse("{not json").unwrap_err();
        assert!(err.0.is_none());
        // Missing op.
        let err = Request::parse(r#"{"id":"y"}"#).unwrap_err();
        assert_eq!(err.0.as_deref(), Some("y"));
    }

    #[test]
    fn trace_op_parses_with_optional_query() {
        let req = Request::parse(r#"{"op":"trace","id":"t1","query":"r9"}"#).unwrap();
        assert_eq!(req.op, Op::Trace);
        assert_eq!(req.query.as_deref(), Some("r9"));
        assert!(!req.op.is_work());
        let req = Request::parse(r#"{"op":"trace","id":"t2"}"#).unwrap();
        assert!(req.query.is_none());
    }

    #[test]
    fn unknown_ops_parse_but_are_not_work() {
        let req = Request::parse(r#"{"op":"frobnicate","id":"z"}"#).unwrap();
        assert_eq!(req.op, Op::Unknown("frobnicate".into()));
        assert!(!req.op.is_work());
    }

    #[test]
    fn responses_carry_schema_id_status() {
        let r = ok_response("a", Json::obj());
        assert_eq!(r.get("schema"), Some(&Json::Str(SCHEMA.into())));
        assert_eq!(r.get("status"), Some(&Json::Str("ok".into())));
        let r = error_response(None, "malformed", "bad json");
        assert_eq!(r.get("id"), Some(&Json::Null));
        let r = overloaded_response(Some("b"), "queue_full", "full");
        assert_eq!(r.get("status"), Some(&Json::Str("overloaded".into())));
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes = [0u8, 1, 0xab, 0xff];
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }
}
