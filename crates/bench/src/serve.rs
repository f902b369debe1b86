//! Load generation against the `safetsa serve` daemon.
//!
//! The loadgen replays the benchmark corpus through a daemon — an
//! in-process one it spawns itself, or an external one by address —
//! mixed (optionally) with hostile traffic: malformed frames, unknown
//! ops, and `//!chaos:panic` sources that detonate inside a worker.
//! It asserts the protocol's core invariant from the *client* side:
//! every frame sent receives exactly one well-formed response, and the
//! daemon stays live throughout. Latency percentiles come from both
//! sides: client-side from this loadgen's raw per-request samples, and
//! daemon-side from the server's own retained-sample reservoir (the
//! `stats` op's exact `p50_ns`/`p99_ns`), so the report exposes any
//! disagreement between the two views.

use crate::corpus;
use safetsa_server::client::{request_obj, Client};
use safetsa_server::{BindAddr, Server, ServerConfig, ServerHandle, TenantProfile, SCHEMA};
use safetsa_telemetry::Json;
use std::time::Instant;

/// How the loadgen drives a daemon.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Address of an external daemon (`host:port`); `None` spawns an
    /// in-process one on a loopback ephemeral port.
    pub addr: Option<String>,
    /// Concurrent client connections.
    pub connections: usize,
    /// Corpus replay passes per connection.
    pub passes: usize,
    /// Mix in hostile traffic (malformed frames, unknown ops, panics)
    /// and run the saturation burst. Requires the daemon to run with
    /// `--chaos` when external.
    pub chaos: bool,
    /// Worker-pool size for the in-process daemon (0 = per-CPU).
    pub workers: usize,
    /// Admission-queue capacity for the in-process daemon.
    pub queue_capacity: usize,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            addr: None,
            connections: 2,
            passes: 1,
            chaos: true,
            workers: 0,
            queue_capacity: 16,
        }
    }
}

/// What one loadgen run observed (client-side truth, cross-checked
/// against the daemon's own `stats` snapshot where possible).
#[derive(Debug, Default)]
pub struct ServeLoadReport {
    /// Frames sent (work + control + hostile).
    pub requests: u64,
    /// Responses received.
    pub responses: u64,
    /// `status:"ok"` responses.
    pub ok: u64,
    /// `status:"error"` responses.
    pub errors: u64,
    /// `status:"overloaded"` responses (shed or draining).
    pub shed: u64,
    /// Error responses with `kind:"panic"` — isolated worker panics.
    pub panic_isolated: u64,
    /// Median end-to-end latency over ok/error work responses, ns.
    pub p50_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// The daemon's own exact median (admission → response) from its
    /// retained-sample reservoir, when the `stats` op reported one.
    pub daemon_p50_ns: Option<u64>,
    /// The daemon's own exact 99th percentile.
    pub daemon_p99_ns: Option<u64>,
    /// Invariant violations observed (empty on a healthy run).
    pub violations: Vec<String>,
}

impl ServeLoadReport {
    /// The `serve` block of `serve_loadgen --metrics-json`.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("requests", Json::U64(self.requests));
        o.set("responses", Json::U64(self.responses));
        o.set("ok", Json::U64(self.ok));
        o.set("errors", Json::U64(self.errors));
        o.set("shed", Json::U64(self.shed));
        o.set("panic_isolated", Json::U64(self.panic_isolated));
        o.set("p50_latency_ns", Json::U64(self.p50_ns));
        o.set("p99_latency_ns", Json::U64(self.p99_ns));
        if let Some(ns) = self.daemon_p50_ns {
            o.set("daemon_p50_latency_ns", Json::U64(ns));
        }
        if let Some(ns) = self.daemon_p99_ns {
            o.set("daemon_p99_latency_ns", Json::U64(ns));
        }
        o.set("violations", Json::U64(self.violations.len() as u64));
        o
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One worker's share of the traffic; merged into the report under a
/// lock by the caller.
#[derive(Debug, Default)]
struct ConnTally {
    requests: u64,
    responses: u64,
    ok: u64,
    errors: u64,
    shed: u64,
    panic_isolated: u64,
    latencies: Vec<u64>,
    violations: Vec<String>,
}

/// What the response's `id` field must be.
enum IdExpect<'a> {
    /// Exactly this id.
    Exact(&'a str),
    /// Any id with this prefix (pipelined bursts complete out of order).
    Prefix(&'a str),
    /// `null` — the request was unparseable, no id to recover.
    Null,
}

impl ConnTally {
    /// Sends one request document and classifies its response.
    fn roundtrip(&mut self, client: &mut Client, doc: &Json, expect_id: &str) {
        self.requests += 1;
        let started = Instant::now();
        let resp = match client.request(doc) {
            Ok(r) => r,
            Err(e) => {
                self.violations
                    .push(format!("request `{expect_id}` got no response: {e}"));
                return;
            }
        };
        let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.responses += 1;
        self.classify(&resp, IdExpect::Exact(expect_id), Some(elapsed));
    }

    fn classify(&mut self, resp: &Json, expect: IdExpect<'_>, latency: Option<u64>) {
        if resp.get("schema") != Some(&Json::Str(SCHEMA.into())) {
            self.violations
                .push(format!("response lacks schema: {}", resp.render()));
        }
        let id_ok = match (&expect, resp.get("id")) {
            (IdExpect::Exact(want), Some(Json::Str(id))) => id == want,
            (IdExpect::Prefix(prefix), Some(Json::Str(id))) => id.starts_with(prefix),
            (IdExpect::Null, Some(Json::Null)) => true,
            _ => false,
        };
        if !id_ok {
            self.violations
                .push(format!("response id mismatch: {}", resp.render()));
        }
        match resp.get("status") {
            Some(Json::Str(s)) if s == "ok" => {
                self.ok += 1;
                if let Some(ns) = latency {
                    self.latencies.push(ns);
                }
            }
            Some(Json::Str(s)) if s == "error" => {
                self.errors += 1;
                if resp.get("kind").map(Json::render) == Some("\"panic\"".into()) {
                    self.panic_isolated += 1;
                }
                if let Some(ns) = latency {
                    self.latencies.push(ns);
                }
            }
            Some(Json::Str(s)) if s == "overloaded" => self.shed += 1,
            _ => self
                .violations
                .push(format!("response without status: {}", resp.render())),
        }
    }
}

fn run_request(entry: &crate::CorpusEntry, id: &str) -> Json {
    let mut doc = request_obj("run", id);
    doc.set("source", Json::Str(entry.source.to_string()));
    doc.set("entry", Json::Str(entry.entry.to_string()));
    doc.set("deadline_ms", Json::U64(30_000));
    doc
}

fn replay_connection(addr: &str, conn_idx: usize, opts: &LoadgenOptions) -> ConnTally {
    let mut tally = ConnTally::default();
    let mut client = match Client::connect_tcp(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.violations.push(format!("connect failed: {e}"));
            return tally;
        }
    };
    let programs = corpus();
    for pass in 0..opts.passes {
        for (i, entry) in programs.iter().enumerate() {
            let id = format!("c{conn_idx}-p{pass}-{}", entry.name);
            tally.roundtrip(&mut client, &run_request(entry, &id), &id);
            if opts.chaos {
                // Interleave hostile traffic so faults land while real
                // work is in flight.
                match i % 4 {
                    0 => {
                        // A worker panic mid-corpus.
                        let id = format!("c{conn_idx}-p{pass}-boom{i}");
                        let mut doc = request_obj("compile", &id);
                        doc.set("source", Json::Str("//!chaos:panic\nclass B {}".into()));
                        tally.roundtrip(&mut client, &doc, &id);
                    }
                    1 => {
                        // A frame that is not JSON at all; the response
                        // carries a null id.
                        tally.requests += 1;
                        if client.send_line("{truncated \u{fffd}garbage").is_ok() {
                            match client.recv() {
                                Ok(Some(resp)) => {
                                    tally.responses += 1;
                                    tally.classify(&resp, IdExpect::Null, None);
                                }
                                other => tally
                                    .violations
                                    .push(format!("garbage frame got no response: {other:?}")),
                            }
                        }
                    }
                    2 => {
                        // An unknown op with a recoverable id.
                        let id = format!("c{conn_idx}-p{pass}-weird{i}");
                        tally.roundtrip(&mut client, &request_obj("frobnicate", &id), &id);
                    }
                    _ => {}
                }
            }
        }
    }
    // The daemon must still be live for this connection.
    let id = format!("c{conn_idx}-final-ping");
    tally.roundtrip(&mut client, &request_obj("ping", &id), &id);
    tally
}

/// Pipelined burst: send `n` frames back-to-back, then read `n`
/// responses. With a small queue this is what drives the daemon into
/// shedding; every burst frame must still get exactly one response.
fn saturation_burst(addr: &str, n: usize, tally: &mut ConnTally) {
    let mut client = match Client::connect_tcp(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.violations.push(format!("burst connect failed: {e}"));
            return;
        }
    };
    let src = "//!chaos:sleep=25\nclass Slow { static int main() { return 1; } }";
    for i in 0..n {
        let mut doc = request_obj("run", &format!("burst-{i}"));
        doc.set("source", Json::Str(src.into()));
        doc.set("entry", Json::Str("Slow.main".into()));
        doc.set("deadline_ms", Json::U64(30_000));
        if client.send_line(&doc.render()).is_err() {
            tally.violations.push(format!("burst send {i} failed"));
            return;
        }
        tally.requests += 1;
    }
    for i in 0..n {
        match client.recv() {
            Ok(Some(resp)) => {
                tally.responses += 1;
                tally.classify(&resp, IdExpect::Prefix("burst-"), None);
            }
            other => {
                tally
                    .violations
                    .push(format!("burst response {i} missing: {other:?}"));
                return;
            }
        }
    }
}

/// Runs the loadgen. When `opts.addr` is `None`, a chaos-enabled
/// in-process daemon is spawned and drained before returning, so the
/// report also reflects a full graceful-shutdown cycle.
pub fn run_loadgen(opts: &LoadgenOptions) -> ServeLoadReport {
    let mut spawned: Option<(ServerHandle, std::thread::JoinHandle<()>)> = None;
    let addr = match &opts.addr {
        Some(addr) => addr.clone(),
        None => {
            let cfg = ServerConfig {
                bind: BindAddr::Tcp("127.0.0.1:0".into()),
                workers: opts.workers,
                queue_capacity: opts.queue_capacity,
                chaos: true,
                // Corpus programs get whatever they need; limits are
                // exercised by the chaos harness, not the loadgen.
                default_tenant: TenantProfile {
                    fuel: None,
                    max_heap_bytes: None,
                    max_call_depth: None,
                    ..TenantProfile::default()
                },
                ..ServerConfig::default()
            };
            let server = Server::bind(cfg).expect("bind loopback daemon");
            let addr = server.local_addr();
            let handle = server.handle();
            let join = std::thread::spawn(move || {
                server.run();
            });
            spawned = Some((handle, join));
            addr
        }
    };

    let tallies: Vec<ConnTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.connections.max(1))
            .map(|c| {
                let addr = addr.clone();
                let opts = &*opts;
                scope.spawn(move || replay_connection(&addr, c, opts))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut report = ServeLoadReport::default();
    let mut latencies: Vec<u64> = Vec::new();
    for mut t in tallies {
        report.requests += t.requests;
        report.responses += t.responses;
        report.ok += t.ok;
        report.errors += t.errors;
        report.shed += t.shed;
        report.panic_isolated += t.panic_isolated;
        latencies.append(&mut t.latencies);
        report.violations.append(&mut t.violations);
    }

    if opts.chaos {
        let mut burst = ConnTally::default();
        saturation_burst(&addr, opts.queue_capacity * 3, &mut burst);
        report.requests += burst.requests;
        report.responses += burst.responses;
        report.ok += burst.ok;
        report.errors += burst.errors;
        report.shed += burst.shed;
        report.panic_isolated += burst.panic_isolated;
        report.violations.append(&mut burst.violations);
    }

    if report.responses != report.requests {
        report.violations.push(format!(
            "sent {} frames but received {} responses",
            report.requests, report.responses
        ));
    }

    latencies.sort_unstable();
    report.p50_ns = percentile(&latencies, 0.50);
    report.p99_ns = percentile(&latencies, 0.99);

    // The daemon's own exact percentiles, admission → response, over
    // its retained-sample reservoir — covers every connection's
    // traffic, measured without the client-side network share.
    if let Ok(mut client) = Client::connect_tcp(&addr) {
        if let Ok(resp) = client.request(&request_obj("stats", "loadgen-stats")) {
            let lat = resp.get("payload").and_then(|p| p.get("latency"));
            report.daemon_p50_ns = lat.and_then(|l| l.get("p50_ns")).and_then(Json::as_u64);
            report.daemon_p99_ns = lat.and_then(|l| l.get("p99_ns")).and_then(Json::as_u64);
        }
    }

    if let Some((handle, join)) = spawned {
        handle.request_shutdown();
        if join.join().is_err() {
            report
                .violations
                .push("daemon thread panicked during drain".into());
        }
    }
    report
}
