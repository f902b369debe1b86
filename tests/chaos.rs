//! Chaos-injection harness for the `safetsa serve` daemon.
//!
//! Every test spins up a real in-process daemon on a loopback port and
//! attacks it the way a hostile (or merely unlucky) client would:
//! worker panics, tampered and truncated frames, corrupted cache
//! entries, exhausted tenant budgets, queue saturation, shutdown with
//! requests in flight. The invariant under test is always the same —
//! the daemon stays live and every frame it reads gets exactly one
//! well-formed response.

use safetsa::server::client::{request_obj, Client};
use safetsa::server::{BindAddr, Server, ServerConfig, ServerHandle, TenantProfile, SCHEMA};
use safetsa_bench::serve::{run_loadgen, LoadgenOptions};
use safetsa_telemetry::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// An unlimited-execution tenant: chaos tests that probe deadlines or
/// panics must not trip the default fuel meter first.
fn unmetered() -> TenantProfile {
    TenantProfile {
        fuel: None,
        max_heap_bytes: None,
        max_call_depth: None,
        ..TenantProfile::default()
    }
}

/// Spawns a chaos-enabled daemon, returning its address, control
/// handle, and the thread to join after shutdown.
fn spawn(mut cfg: ServerConfig) -> (String, ServerHandle, std::thread::JoinHandle<()>) {
    cfg.bind = BindAddr::Tcp("127.0.0.1:0".into());
    cfg.chaos = true;
    let server = Server::bind(cfg).expect("bind loopback daemon");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run();
    });
    (addr, handle, join)
}

fn drain(handle: &ServerHandle, join: std::thread::JoinHandle<()>) {
    handle.request_shutdown();
    join.join()
        .expect("daemon thread must not panic during drain");
}

fn status(resp: &Json) -> &str {
    match resp.get("status") {
        Some(Json::Str(s)) => s,
        other => panic!("response without status: {other:?}"),
    }
}

fn kind(resp: &Json) -> &str {
    match resp.get("kind") {
        Some(Json::Str(s)) => s,
        other => panic!("response without kind: {other:?}"),
    }
}

fn payload(resp: &Json) -> &Json {
    resp.get("payload")
        .unwrap_or_else(|| panic!("ok response without payload: {}", resp.render()))
}

fn stat(handle: &ServerHandle, key: &str) -> u64 {
    handle
        .stats()
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| {
            panic!("stats payload missing `{key}`");
        })
}

fn run_req(id: &str, source: &str, entry: &str, deadline_ms: u64) -> Json {
    let mut doc = request_obj("run", id);
    doc.set("source", Json::Str(source.into()));
    doc.set("entry", Json::Str(entry.into()));
    doc.set("deadline_ms", Json::U64(deadline_ms));
    doc
}

// No statement after the loop: the frontend's reachability check
// rejects code it can prove `while (true)` never reaches, and the SSA
// lowering honors the same rule by emitting the loop guard-free.
const SPIN: &str = "class Spin {
    static int main() {
        int i = 0;
        while (true) { i = i + 1; }
    }
}";

/// The full loadgen pass: corpus replay on concurrent connections with
/// interleaved panics, garbage frames, unknown ops, a saturation
/// burst, and a graceful drain. The report's `violations` list is the
/// harness verdict.
#[test]
fn loadgen_chaos_run_holds_every_invariant() {
    let report = run_loadgen(&LoadgenOptions {
        connections: 3,
        queue_capacity: 4,
        ..LoadgenOptions::default()
    });
    assert!(
        report.violations.is_empty(),
        "protocol violations: {:#?}",
        report.violations
    );
    assert_eq!(report.requests, report.responses);
    assert!(report.panic_isolated > 0, "chaos panics never fired");
    assert!(report.ok > 0, "no request succeeded at all");
}

/// Worker panics are isolated per-request: the panicking request gets
/// a `kind:"panic"` error, and the very same connection keeps working.
#[test]
fn injected_panic_is_isolated_and_counted() {
    let (addr, handle, join) = spawn(ServerConfig::default());
    let mut client = Client::connect_tcp(&addr).expect("connect");

    let mut doc = request_obj("compile", "boom");
    doc.set("source", Json::Str("//!chaos:panic\nclass B {}".into()));
    let resp = client.request(&doc).expect("panic response");
    assert_eq!(status(&resp), "error");
    assert_eq!(kind(&resp), "panic");

    // Same connection, same worker pool: still alive.
    let resp = client
        .request(&run_req(
            "after",
            "class A { static int main() { return 6 * 7; } }",
            "A.main",
            5_000,
        ))
        .expect("post-panic response");
    assert_eq!(status(&resp), "ok");
    assert_eq!(
        payload(&resp).get("result"),
        Some(&Json::Str("I(42)".into()))
    );

    assert_eq!(stat(&handle, "panics_isolated"), 1);
    drain(&handle, join);
}

/// The wire adds no per-request stall: 50 sequential pings through the
/// shipped client over loopback TCP finish well inside 500 ms. A frame
/// written in two pieces on a Nagle socket waits for the daemon's
/// delayed ACK (about 40 ms per request, over 2 s for the loop).
#[test]
fn sequential_pings_do_not_stall_on_the_wire() {
    let (addr, handle, join) = spawn(ServerConfig::default());
    let mut client = Client::connect_tcp(&addr).expect("connect");
    // Warm the connection (reader thread spawned, first segments out).
    let resp = client.request(&request_obj("ping", "warm")).expect("ping");
    assert_eq!(status(&resp), "ok");

    let start = Instant::now();
    for i in 0..50 {
        let resp = client
            .request(&request_obj("ping", &format!("p{i}")))
            .expect("ping");
        assert_eq!(status(&resp), "ok");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "50 sequential pings took {elapsed:?}"
    );
    drain(&handle, join);
}

/// Tampered frames — binary garbage, invalid UTF-8, and a frame
/// truncated by connection loss — never crash the daemon and never
/// produce more (or fewer) than one response per *complete* frame.
#[test]
fn tampered_and_truncated_frames_leave_daemon_live() {
    let (addr, handle, join) = spawn(ServerConfig::default());

    // Raw socket: two complete garbage frames (one of them invalid
    // UTF-8), then a frame truncated by the connection closing, then
    // EOF. The reader flushes the trailing partial line as one last
    // (malformed) frame, so three responses come back.
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    raw.write_all(b"{\"op\": \"run\", \"id\": tampered!!\n")
        .unwrap();
    raw.write_all(b"\xff\xfe{binary\x00garbage}\xc3\x28\n")
        .unwrap();
    raw.write_all(b"{\"op\":\"ping\",\"id\":\"cut-mid-fra")
        .unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();

    let mut text = String::new();
    raw.read_to_string(&mut text).expect("responses readable");
    let frames: Vec<&str> = text.lines().collect();
    assert_eq!(frames.len(), 3, "one response per frame: {text:?}");
    for frame in frames {
        let resp = safetsa::server::json::parse(frame).expect("well-formed response");
        assert_eq!(resp.get("schema"), Some(&Json::Str(SCHEMA.into())));
        assert_eq!(resp.get("id"), Some(&Json::Null));
        assert_eq!(status(&resp), "error");
        assert_eq!(kind(&resp), "malformed");
    }

    // Fresh connection: the daemon took no damage.
    let mut client = Client::connect_tcp(&addr).expect("reconnect");
    let resp = client
        .request(&request_obj("ping", "still-alive"))
        .expect("ping");
    assert_eq!(status(&resp), "ok");

    assert_eq!(stat(&handle, "malformed"), 3);
    drain(&handle, join);
}

fn corrupt_cache_entries(dir: &Path) -> usize {
    let mut hit = 0;
    for entry in std::fs::read_dir(dir).expect("cache dir readable") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "tsac") {
            std::fs::write(&path, b"\x00\xde\xad not a cache entry").unwrap();
            hit += 1;
        }
    }
    hit
}

/// Cache corruption degrades, never fails: a tampered entry is a miss,
/// and a cache directory replaced by a plain file flips the daemon to
/// cache-off with the `cache_degraded` counter recording it.
#[test]
fn corrupted_cache_degrades_to_cache_off() {
    let dir = std::env::temp_dir().join(format!("safetsa-chaos-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle, join) = spawn(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let mut compile = |id: &str, source: &str| {
        let mut doc = request_obj("compile", id);
        doc.set("source", Json::Str(source.into()));
        client.request(&doc).expect("compile response")
    };
    let src = "class C { static int main() { return 30; } }";

    let cold = compile("c1", src);
    assert_eq!(status(&cold), "ok");
    assert_eq!(payload(&cold).get("cached"), Some(&Json::Bool(false)));
    let warm = compile("c2", src);
    assert_eq!(payload(&warm).get("cached"), Some(&Json::Bool(true)));
    assert_eq!(stat(&handle, "cache_hits"), 1);

    // Tampered entry bytes: the load treats corruption as a miss and
    // the request still succeeds.
    assert!(
        corrupt_cache_entries(&dir) > 0,
        "no cache entry was written"
    );
    let resp = compile("c3", src);
    assert_eq!(status(&resp), "ok");
    assert_eq!(payload(&resp).get("cached"), Some(&Json::Bool(false)));

    // Cache directory replaced by a plain file: stores cannot even
    // recreate the directory, so the daemon degrades to cache-off.
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::write(&dir, b"a file squatting on the cache path").unwrap();
    let resp = compile("c4", "class D { static int main() { return 4; } }");
    assert_eq!(status(&resp), "ok");
    assert!(stat(&handle, "cache_degraded") >= 1);

    drain(&handle, join);
    let _ = std::fs::remove_file(&dir);
}

/// Tenant budgets bound every request: a tiny fuel budget turns an
/// expensive loop into `fuel_exhausted`, an oversized payload is
/// rejected at admission, and neither disturbs the default tenant.
#[test]
fn tenant_limits_shed_expensive_and_oversized_requests() {
    let (addr, handle, join) = spawn(ServerConfig {
        tenants: vec![
            (
                "tiny".into(),
                TenantProfile {
                    fuel: Some(500),
                    ..TenantProfile::default()
                },
            ),
            (
                "narrow".into(),
                TenantProfile {
                    max_source_bytes: 16,
                    ..TenantProfile::default()
                },
            ),
        ],
        ..ServerConfig::default()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");

    let hog = "class Hog {
        static int main() {
            int acc = 0;
            for (int i = 0; i < 1000000; i = i + 1) { acc = acc + i; }
            return acc;
        }
    }";
    let mut doc = run_req("hog", hog, "Hog.main", 5_000);
    doc.set("tenant", Json::Str("tiny".into()));
    let resp = client.request(&doc).expect("fuel response");
    assert_eq!(status(&resp), "error");
    assert_eq!(kind(&resp), "fuel_exhausted");
    assert_eq!(stat(&handle, "fuel_exhausted"), 1);

    let mut doc = request_obj("compile", "fat");
    doc.set("source", Json::Str("class WayTooBig {}".into()));
    doc.set("tenant", Json::Str("narrow".into()));
    let resp = client.request(&doc).expect("too_large response");
    assert_eq!(status(&resp), "error");
    assert_eq!(kind(&resp), "too_large");

    // The default tenant is untouched by the strict profiles.
    let resp = client
        .request(&run_req("fine", hog, "Hog.main", 5_000))
        .expect("default-tenant response");
    assert_eq!(status(&resp), "ok");

    drain(&handle, join);
}

/// The deadline satellite: an infinite loop under a 50ms deadline
/// comes back as `deadline_exceeded` within bounded wall time — the
/// fuel-slice clock checks bound the overshoot, not the fuel budget
/// (the tenant here is unmetered).
#[test]
fn infinite_loop_hits_deadline_within_bounded_time() {
    let (addr, handle, join) = spawn(ServerConfig {
        default_tenant: unmetered(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");

    let started = Instant::now();
    let resp = client
        .request(&run_req("spin", SPIN, "Spin.main", 50))
        .expect("deadline response");
    let elapsed = started.elapsed();
    assert_eq!(status(&resp), "error");
    assert_eq!(kind(&resp), "deadline_exceeded");
    assert!(
        elapsed < Duration::from_secs(2),
        "deadline enforcement took {elapsed:?}, expected well under 2s"
    );
    assert_eq!(stat(&handle, "deadline_exceeded"), 1);

    drain(&handle, join);
}

/// With one worker and a two-slot queue, a pipelined burst must shed
/// with `overloaded` fast-rejects — and once the burst drains, the
/// same daemon admits fresh work again. Shedding is a pressure valve,
/// not a latch.
#[test]
fn saturation_sheds_then_recovers() {
    let (addr, handle, join) = spawn(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");

    let n = 12;
    let src = "//!chaos:sleep=50\nclass S { static int main() { return 1; } }";
    for i in 0..n {
        let doc = run_req(&format!("burst-{i}"), src, "S.main", 30_000);
        client.send_line(&doc.render()).expect("burst send");
    }
    let (mut ok, mut shed) = (0, 0);
    for _ in 0..n {
        let resp = client.recv().expect("burst recv").expect("burst frame");
        assert_eq!(resp.get("schema"), Some(&Json::Str(SCHEMA.into())));
        match status(&resp) {
            "ok" => ok += 1,
            "overloaded" => {
                assert_eq!(kind(&resp), "queue_full");
                shed += 1;
            }
            other => panic!("unexpected burst status {other}"),
        }
    }
    assert_eq!(ok + shed, n);
    assert!(
        shed > 0,
        "a 12-deep burst into 1 worker + 2 slots must shed"
    );
    assert!(ok > 0, "admitted burst requests must still complete");

    // Saturation over: the next request is admitted normally.
    let resp = client
        .request(&run_req(
            "after",
            "class A { static int main() { return 7; } }",
            "A.main",
            5_000,
        ))
        .expect("post-burst response");
    assert_eq!(status(&resp), "ok");
    assert_eq!(stat(&handle, "shed") as usize, shed);

    drain(&handle, join);
}

/// Graceful shutdown drains in-flight work: a request sleeping in a
/// worker when shutdown is requested still gets its response, and the
/// daemon thread exits cleanly.
#[test]
fn shutdown_drains_in_flight_requests() {
    let (addr, handle, join) = spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");

    let src = "//!chaos:sleep=300\nclass S { static int main() { return 9; } }";
    let doc = run_req("inflight", src, "S.main", 30_000);
    client.send_line(&doc.render()).expect("send in-flight");
    // Let the worker pick it up, then pull the plug.
    std::thread::sleep(Duration::from_millis(50));
    handle.request_shutdown();

    let resp = client
        .recv()
        .expect("drain recv")
        .expect("drained response");
    assert_eq!(status(&resp), "ok");
    assert_eq!(
        payload(&resp).get("result"),
        Some(&Json::Str("I(9)".into()))
    );

    join.join().expect("clean daemon exit");
    let stats = handle.stats();
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("draining"), Some(&Json::Bool(true)));
}

/// Unix-domain sockets get the same protocol and the same cleanup: the
/// socket file exists while serving and is removed by the drain.
#[cfg(unix)]
#[test]
fn unix_socket_serves_and_cleans_up() {
    let path = std::env::temp_dir().join(format!("safetsa-chaos-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = ServerConfig {
        bind: BindAddr::Unix(path.clone()),
        chaos: true,
        ..ServerConfig::default()
    };
    let server = Server::bind(cfg).expect("bind unix socket");
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run();
    });

    let mut client = Client::connect_unix(&path).expect("unix connect");
    let resp = client
        .request(&run_req(
            "u1",
            "class A { static int main() { return 6 * 7; } }",
            "A.main",
            5_000,
        ))
        .expect("unix response");
    assert_eq!(status(&resp), "ok");
    assert_eq!(
        payload(&resp).get("result"),
        Some(&Json::Str("I(42)".into()))
    );

    drain(&handle, join);
    assert!(!path.exists(), "drain must remove the socket file");
}

/// The deadline plumbing below the daemon: `Pipeline::deadline` makes
/// the VM abort an unmetered infinite loop, and the telemetry registry
/// records both the steps executed and the slice checks that caught
/// the overrun.
#[test]
fn pipeline_deadline_records_fuel_slice_telemetry() {
    use safetsa_driver::{Error, Pipeline};
    use safetsa_telemetry::Telemetry;
    use safetsa_vm::VmError;

    let pipeline = Pipeline::new()
        .telemetry(Telemetry::enabled())
        .deadline(Instant::now() + Duration::from_millis(50));
    let module = pipeline.compile_source(SPIN).expect("spin compiles");
    let started = Instant::now();
    let outcome = pipeline.run(&module, "Spin.main").expect("module loads");
    let elapsed = started.elapsed();

    assert!(
        matches!(outcome.result, Err(Error::Vm(VmError::DeadlineExceeded))),
        "expected deadline_exceeded, got {:?}",
        outcome.result
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "deadline enforcement took {elapsed:?}, expected well under 2s"
    );
    let steps = pipeline
        .metrics()
        .counter("vm.steps")
        .expect("vm.steps recorded");
    assert!(steps > 0, "the loop must have executed instructions");
    let checks = pipeline
        .metrics()
        .counter("vm.deadline.slice_checks")
        .expect("slice checks recorded");
    assert!(
        checks >= 1,
        "at least one slice boundary must check the clock"
    );
}

/// The flight recorder's reason to exist: a panicked request's span
/// tree survives the unwind and is queryable over the wire via the
/// `trace` op — request id, outcome, and the `request` span marked
/// `unfinished` at the moment the worker died.
#[test]
fn flight_recorder_retains_panicked_request_timeline() {
    let (addr, handle, join) = spawn(ServerConfig::default());
    let mut client = Client::connect_tcp(&addr).expect("connect");

    let mut doc = request_obj("compile", "kaboom");
    doc.set("source", Json::Str("//!chaos:panic\nclass B {}".into()));
    let resp = client.request(&doc).expect("panic response");
    assert_eq!(status(&resp), "error");
    assert_eq!(kind(&resp), "panic");

    let mut q = request_obj("trace", "t1");
    q.set("query", Json::Str("kaboom".into()));
    let resp = client.request(&q).expect("trace response");
    assert_eq!(status(&resp), "ok");
    let p = payload(&resp);
    assert_eq!(p.get("matched").and_then(Json::as_u64), Some(1));
    let Some(Json::Arr(records)) = p.get("records") else {
        panic!("trace payload without records: {}", p.render());
    };
    let rec = &records[0];
    assert_eq!(rec.get("id"), Some(&Json::Str("kaboom".into())));
    assert_eq!(rec.get("status"), Some(&Json::Str("error".into())));
    assert_eq!(rec.get("kind"), Some(&Json::Str("panic".into())));
    assert!(rec.get("total_ns").and_then(Json::as_u64).is_some());

    let trace = rec.get("trace").expect("record carries its trace");
    assert_eq!(
        trace.get("schema"),
        Some(&Json::Str("safetsa-trace/1".into()))
    );
    let Some(Json::Arr(spans)) = trace.get("spans") else {
        panic!("trace without spans: {}", trace.render());
    };
    let request_span = spans
        .iter()
        .find(|s| s.get("name") == Some(&Json::Str("request".into())))
        .expect("request span retained");
    let attrs = request_span.get("attrs").expect("request span attrs");
    assert_eq!(attrs.get("id"), Some(&Json::Str("kaboom".into())));
    assert_eq!(attrs.get("op"), Some(&Json::Str("compile".into())));
    // The panic left the span open; the snapshot marks it unfinished.
    assert_eq!(attrs.get("unfinished"), Some(&Json::Bool(true)));
    // The synthetic queue-wait span shares the timeline.
    assert!(spans
        .iter()
        .any(|s| s.get("name") == Some(&Json::Str("queued".into()))));

    drain(&handle, join);
}

/// A deadline-killed spin loop leaves a full forensic record: the
/// `request` span tagged with the error kind, the `vm.run` span, and —
/// because the profiler samples *before* the slice's deadline check —
/// a hot-function profile naming the loop that was running at kill
/// time, merged into the tenant's accumulated profile.
#[test]
fn flight_recorder_catches_deadline_kill_with_profile() {
    let (addr, handle, join) = spawn(ServerConfig {
        default_tenant: unmetered(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let resp = client
        .request(&run_req("spin-flight", SPIN, "Spin.main", 50))
        .expect("deadline response");
    assert_eq!(status(&resp), "error");
    assert_eq!(kind(&resp), "deadline_exceeded");

    let trace = handle.trace();
    let Some(Json::Arr(records)) = trace.get("records") else {
        panic!("trace payload without records: {}", trace.render());
    };
    let rec = records
        .iter()
        .find(|r| r.get("id") == Some(&Json::Str("spin-flight".into())))
        .expect("deadline-killed request retained");
    assert_eq!(
        rec.get("kind"),
        Some(&Json::Str("deadline_exceeded".into()))
    );

    let Some(Json::Arr(spans)) = rec.get("trace").and_then(|t| t.get("spans")) else {
        panic!("record without spans: {}", rec.render());
    };
    let request_span = spans
        .iter()
        .find(|s| s.get("name") == Some(&Json::Str("request".into())))
        .expect("request span retained");
    let attrs = request_span.get("attrs").expect("request span attrs");
    assert_eq!(
        attrs.get("error"),
        Some(&Json::Str("deadline_exceeded".into()))
    );
    assert!(spans
        .iter()
        .any(|s| s.get("name") == Some(&Json::Str("vm.run".into()))));

    // The at-kill-time sample profile rode along with the record...
    let profile = rec.get("profile").expect("record carries a profile");
    let samples = profile.get("samples").and_then(Json::as_u64).unwrap_or(0);
    assert!(samples > 0, "deadline kill must still carry samples");
    let hot = profile.get("hot").expect("hot-function table");
    assert!(
        hot.get("Spin.main").and_then(Json::as_u64).unwrap_or(0) > 0,
        "the spinning function must dominate the profile: {}",
        hot.render()
    );

    // ...and was merged into the tenant's accumulated profile.
    let merged = trace
        .get("profiles")
        .and_then(|p| p.get("default"))
        .expect("per-tenant merged profile");
    assert_eq!(merged.get("samples").and_then(Json::as_u64), Some(samples));

    drain(&handle, join);
}

/// The enriched `stats` payload: uptime, per-kind error counters, and
/// per-tenant breakdowns all reflect the traffic that produced them,
/// and latency quantiles come from exact retained samples.
#[test]
fn stats_break_down_by_kind_and_tenant() {
    let (addr, handle, join) = spawn(ServerConfig::default());
    let mut client = Client::connect_tcp(&addr).expect("connect");

    let mut doc = request_obj("compile", "boom");
    doc.set("source", Json::Str("//!chaos:panic\nclass B {}".into()));
    doc.set("tenant", Json::Str("gold".into()));
    let resp = client.request(&doc).expect("panic response");
    assert_eq!(kind(&resp), "panic");
    let resp = client
        .request(&run_req(
            "fine",
            "class A { static int main() { return 7; } }",
            "A.main",
            5_000,
        ))
        .expect("ok response");
    assert_eq!(status(&resp), "ok");

    let stats = handle.stats();
    assert!(stats.get("uptime_ms").and_then(Json::as_u64).is_some());
    let kinds = stats.get("kinds").expect("per-kind counters");
    assert_eq!(kinds.get("panic").and_then(Json::as_u64), Some(1));
    let tenants = stats.get("tenants").expect("per-tenant breakdowns");
    let gold = tenants.get("gold").expect("gold tenant row");
    assert_eq!(gold.get("requests").and_then(Json::as_u64), Some(1));
    assert_eq!(gold.get("panics").and_then(Json::as_u64), Some(1));
    let default = tenants.get("default").expect("default tenant row");
    assert_eq!(default.get("ok").and_then(Json::as_u64), Some(1));
    let latency = stats.get("latency").expect("latency block");
    assert!(latency.get("p50_ns").and_then(Json::as_u64).is_some());
    assert!(latency.get("p99_ns").and_then(Json::as_u64).is_some());

    drain(&handle, join);
}
