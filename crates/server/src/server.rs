//! The daemon itself: listener, connection readers, admission, worker
//! pool, and graceful drain.
//!
//! ## Threading model
//!
//! * The **accept loop** (the thread that called [`Server::run`]) polls
//!   a non-blocking listener and spawns one detached **reader** thread
//!   per connection.
//! * Each reader frames newline-delimited requests, answers control
//!   ops (`ping`/`stats`/`shutdown`) inline, and performs *admission*:
//!   validation, tenant lookup, deadline stamping, and a non-blocking
//!   push onto the bounded queue. A full queue is answered immediately
//!   with `status:"overloaded"` — readers never block on the pool, so
//!   the daemon stays responsive under saturation.
//! * A fixed pool of **workers** pops jobs and runs them through a
//!   per-request [`Pipeline`] inside `catch_unwind`: a panicking
//!   request costs one `kind:"panic"` error response, never the
//!   daemon.
//!
//! ## Exactly one response
//!
//! Every frame a client sends is answered by exactly one response
//! line: malformed frames by the reader (with the request id when it
//! could be recovered), shed requests at admission, admitted requests
//! by the worker that completes (or catches the panic of) their job.
//! Responses to one connection are serialized through a mutex around
//! the write half, so concurrent workers never interleave bytes.
//!
//! ## Shutdown
//!
//! Shutdown (signal flag, `shutdown` op, or [`ServerHandle`]) drains:
//! the accept loop stops, the queue closes — new admissions get
//! `kind:"shutting_down"` — and workers finish everything already
//! admitted before [`Server::run`] returns its [`ServeSummary`].

use crate::flight::{FlightRecord, FlightRecorder};
use crate::protocol::{self, Op, Request};
use crate::queue::{BoundedQueue, PushError};
use crate::stats::ServeStats;
use safetsa_driver::store::{CacheKey, ModuleRecord, RecordKind, Store};
use safetsa_driver::{passes_fingerprint, Error, Pipeline};
use safetsa_opt::Passes;
use safetsa_telemetry::{AttrValue, Json, Telemetry};
use safetsa_vm::{ResourceLimits, VmError, VmProfile};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hard ceiling on one request frame; longer frames are discarded and
/// answered with `kind:"frame_too_long"` without buffering the excess.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// How long the accept loop sleeps between polls when idle; bounds
/// shutdown-signal latency.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Ceiling on `//!chaos:sleep=` injections so a typo in a chaos run
/// cannot wedge a worker for minutes.
const CHAOS_SLEEP_CAP_MS: u64 = 5_000;

/// VM fuel slices between profiler samples for served `run` requests:
/// one sample every `4 × DEADLINE_SLICE = 4096` executed instructions.
const PROFILE_EVERY_SLICES: u32 = 4;

/// Per-tenant admission and execution budgets.
#[derive(Debug, Clone, Copy)]
pub struct TenantProfile {
    /// VM instruction budget per request (`None` = unmetered).
    pub fuel: Option<u64>,
    /// VM heap ceiling per request.
    pub max_heap_bytes: Option<u64>,
    /// VM call-depth ceiling per request.
    pub max_call_depth: Option<u32>,
    /// Ceiling (and default) for the request's wall-clock deadline.
    pub max_deadline_ms: u64,
    /// Admission ceiling on `source`/`tsa` payload size.
    pub max_source_bytes: usize,
}

impl Default for TenantProfile {
    fn default() -> Self {
        TenantProfile {
            fuel: Some(100_000_000),
            max_heap_bytes: Some(64 * 1024 * 1024),
            max_call_depth: Some(1_024),
            max_deadline_ms: 10_000,
            max_source_bytes: 1024 * 1024,
        }
    }
}

impl TenantProfile {
    fn limits(&self) -> ResourceLimits {
        ResourceLimits {
            fuel: self.fuel,
            max_heap_bytes: self.max_heap_bytes,
            max_call_depth: self.max_call_depth,
        }
    }
}

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum BindAddr {
    /// A TCP address, e.g. `127.0.0.1:7433` (port 0 picks a free one).
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Daemon configuration; [`Default`] gives a loopback listener on an
/// ephemeral port with one worker per core.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub bind: BindAddr,
    /// Worker pool size; `0` means one per available core.
    pub workers: usize,
    /// Admission queue capacity; pushes beyond it shed.
    pub queue_capacity: usize,
    /// Budgets for requests whose tenant has no explicit profile.
    pub default_tenant: TenantProfile,
    /// Named tenant profiles.
    pub tenants: Vec<(String, TenantProfile)>,
    /// Content-addressed compile cache directory (`None` = cache off).
    pub cache_dir: Option<PathBuf>,
    /// Honor `//!chaos:` fault-injection markers in request sources.
    pub chaos: bool,
    /// Whether the `shutdown` op is honored (a local daemon wants it;
    /// a shared one may not).
    pub allow_remote_shutdown: bool,
    /// External shutdown flag, typically flipped by a signal handler.
    pub shutdown: Arc<AtomicBool>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: BindAddr::Tcp("127.0.0.1:0".into()),
            workers: 0,
            queue_capacity: 64,
            default_tenant: TenantProfile::default(),
            tenants: Vec::new(),
            cache_dir: None,
            chaos: false,
            allow_remote_shutdown: true,
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// What [`Server::run`] hands back after the drain completes.
#[derive(Debug)]
pub struct ServeSummary {
    /// Final statistics snapshot (same shape as the `stats` op payload).
    pub stats: Json,
    /// The flight recorder's retained requests as one Chrome
    /// `trace_event` document (what `serve --trace-json` writes).
    pub trace: Json,
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

/// One accepted connection (either family), unified so the reader and
/// response paths are family-agnostic.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }
}

impl std::io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// The write half of a connection, shared by its reader and every
/// worker holding one of its jobs.
type Responder = Arc<Mutex<Conn>>;

/// One admitted work request.
struct Job {
    req: Request,
    profile: TenantProfile,
    deadline: Instant,
    admitted: Instant,
    out: Responder,
}

/// State shared by the accept loop, readers, and workers.
struct Shared {
    queue: BoundedQueue<Job>,
    stats: ServeStats,
    /// Internal stop flag (set by the `shutdown` op or a handle).
    stop: AtomicBool,
    /// External stop flag (set by the signal handler).
    shutdown_requested: Arc<AtomicBool>,
    cache: Option<Store>,
    fingerprint: String,
    default_tenant: TenantProfile,
    tenants: Vec<(String, TenantProfile)>,
    chaos: bool,
    allow_remote_shutdown: bool,
    flight: FlightRecorder,
    /// Per-tenant accumulated VM sampling profiles (`""` is stored as
    /// `"default"`, matching the stats breakdown).
    profiles: Mutex<BTreeMap<String, VmProfile>>,
}

impl Shared {
    fn profile(&self, tenant: &str) -> TenantProfile {
        self.tenants
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, p)| *p)
            .unwrap_or(self.default_tenant)
    }

    fn should_stop(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.shutdown_requested.load(Ordering::Relaxed)
    }

    fn stats_payload(&self) -> Json {
        let mut payload = self.stats.to_json();
        let mut q = Json::obj();
        q.set("len", Json::U64(self.queue.len() as u64));
        q.set("capacity", Json::U64(self.queue.capacity() as u64));
        payload.set("queue", q);
        payload.set("draining", Json::Bool(self.should_stop()));
        payload
    }

    /// The `trace` op payload: flight-recorder records matching
    /// `query`, plus (for the full dump) the per-tenant merged VM
    /// profiles.
    fn trace_payload(&self, query: Option<&str>) -> Json {
        let mut payload = self.flight.query(query);
        if query.is_none() {
            let mut o = Json::obj();
            for (tenant, p) in self.profiles.lock().unwrap().iter() {
                o.set(tenant, p.to_json());
            }
            payload.set("profiles", o);
        }
        payload
    }

    fn merge_profile(&self, tenant: &str, profile: &VmProfile) {
        let key = if tenant.is_empty() { "default" } else { tenant };
        self.profiles
            .lock()
            .unwrap()
            .entry(key.to_string())
            .or_default()
            .merge(profile);
    }
}

/// A control handle onto a running (or about-to-run) server, usable
/// from another thread: the chaos harness and the loadgen's in-process
/// mode drive shutdown and read statistics through it.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Asks the daemon to drain and exit.
    pub fn request_shutdown(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
    }

    /// Snapshot of the daemon's statistics (the `stats` op payload).
    pub fn stats(&self) -> Json {
        self.shared.stats_payload()
    }

    /// Snapshot of the flight recorder and per-tenant profiles (the
    /// `trace` op payload with no query).
    pub fn trace(&self) -> Json {
        self.shared.trace_payload(None)
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
    workers: usize,
}

impl Server {
    /// Binds the listener and prepares shared state.
    ///
    /// # Errors
    ///
    /// Returns the bind/cache-open failure.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = match &cfg.bind {
            BindAddr::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Listener::Tcp(l)
            }
            #[cfg(unix)]
            BindAddr::Unix(path) => {
                // A stale socket file from a crashed daemon would make
                // bind fail; remove it (bind still fails if the path is
                // a live socket with a listener... no — Unix sockets
                // don't detect liveness; callers own path hygiene).
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Listener::Unix(l, path.clone())
            }
        };
        let cache = match &cfg.cache_dir {
            Some(dir) => Some(Store::open(dir)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity),
            stats: ServeStats::default(),
            stop: AtomicBool::new(false),
            shutdown_requested: cfg.shutdown,
            cache,
            fingerprint: passes_fingerprint(&Passes::ALL),
            default_tenant: cfg.default_tenant,
            tenants: cfg.tenants,
            chaos: cfg.chaos,
            allow_remote_shutdown: cfg.allow_remote_shutdown,
            flight: FlightRecorder::default(),
            profiles: Mutex::new(BTreeMap::new()),
        });
        Ok(Server {
            listener,
            shared,
            workers: cfg.workers,
        })
    }

    /// The bound address, printable: `host:port` for TCP (with the
    /// ephemeral port resolved), the path for Unix sockets.
    pub fn local_addr(&self) -> String {
        match &self.listener {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unknown>".into()),
            #[cfg(unix)]
            Listener::Unix(_, path) => path.display().to_string(),
        }
    }

    /// A control handle valid before, during, and after [`Server::run`].
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the daemon until shutdown is requested, then drains and
    /// returns the final statistics. Individual connection and request
    /// failures never propagate out of this call — that is the point
    /// of the daemon.
    pub fn run(self) -> ServeSummary {
        let shared = self.shared;
        let nworkers = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        } else {
            self.workers
        };
        let workers: Vec<_> = (0..nworkers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        while !shared.should_stop() {
            let conn = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
                #[cfg(unix)]
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            };
            match conn {
                Ok(conn) => {
                    shared.stats.bump(&shared.stats.connections);
                    // The listener is non-blocking; the stream must
                    // block — readers frame with blocking reads. TCP
                    // streams also get `TCP_NODELAY`, so the tail
                    // segment of a large response is never held behind
                    // Nagle waiting for the client's delayed ACK.
                    let ok = match &conn {
                        Conn::Tcp(s) => {
                            s.set_nonblocking(false).is_ok() && s.set_nodelay(true).is_ok()
                        }
                        #[cfg(unix)]
                        Conn::Unix(s) => s.set_nonblocking(false).is_ok(),
                    };
                    if !ok {
                        continue;
                    }
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || reader_loop(conn, &shared));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }

        // Drain: no new admissions, workers finish what was accepted.
        shared.queue.close();
        for w in workers {
            let _ = w.join();
        }
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        ServeSummary {
            stats: shared.stats_payload(),
            trace: shared.flight.to_chrome_trace(),
        }
    }
}

/// Outcome of framing one request line.
enum FrameRead {
    /// Connection closed cleanly between frames.
    Eof,
    /// One frame in the buffer.
    Frame,
    /// Frame exceeded [`MAX_FRAME_BYTES`]; buffer discarded, stream
    /// consumed through the terminating newline (or EOF).
    TooLong,
}

fn read_frame(r: &mut impl BufRead, max: usize, buf: &mut Vec<u8>) -> std::io::Result<FrameRead> {
    buf.clear();
    let mut overflow = false;
    loop {
        let available = match r.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            // EOF. A partial trailing frame still counts as a frame so
            // a truncated final request gets its malformed response.
            return Ok(if overflow {
                FrameRead::TooLong
            } else if buf.is_empty() {
                FrameRead::Eof
            } else {
                FrameRead::Frame
            });
        }
        if let Some(nl) = available.iter().position(|&b| b == b'\n') {
            if !overflow {
                buf.extend_from_slice(&available[..nl]);
            }
            r.consume(nl + 1);
            return Ok(if overflow {
                FrameRead::TooLong
            } else {
                FrameRead::Frame
            });
        }
        let n = available.len();
        if !overflow {
            if buf.len() + n > max {
                overflow = true;
                buf.clear();
            } else {
                buf.extend_from_slice(available);
            }
        }
        r.consume(n);
    }
}

fn write_response(out: &Responder, response: &Json) {
    let mut line = response.render();
    line.push('\n');
    // A vanished client is its own problem; the daemon presses on.
    let mut w = out.lock().unwrap();
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

fn reader_loop(conn: Conn, shared: &Arc<Shared>) {
    let Ok(write_half) = conn.try_clone() else {
        return;
    };
    let out: Responder = Arc::new(Mutex::new(write_half));
    let mut reader = BufReader::new(conn);
    let mut buf = Vec::new();
    loop {
        match read_frame(&mut reader, MAX_FRAME_BYTES, &mut buf) {
            Err(_) | Ok(FrameRead::Eof) => return,
            Ok(FrameRead::TooLong) => {
                shared.stats.bump(&shared.stats.malformed);
                write_response(
                    &out,
                    &protocol::error_response(
                        None,
                        "frame_too_long",
                        &format!("frame exceeds {MAX_FRAME_BYTES} bytes"),
                    ),
                );
                continue;
            }
            Ok(FrameRead::Frame) => {}
        }
        // Tampered frames may not be UTF-8; lossy decoding turns the
        // damage into replacement characters the parser then rejects.
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let req = match Request::parse(line) {
            Ok(req) => req,
            Err((id, msg)) => {
                shared.stats.bump(&shared.stats.malformed);
                write_response(
                    &out,
                    &protocol::error_response(id.as_deref(), "malformed", &msg),
                );
                continue;
            }
        };
        match &req.op {
            Op::Ping => {
                shared.stats.bump(&shared.stats.control);
                let mut payload = Json::obj();
                payload.set("pong", Json::Bool(true));
                write_response(&out, &protocol::ok_response(&req.id, payload));
            }
            Op::Stats => {
                shared.stats.bump(&shared.stats.control);
                write_response(
                    &out,
                    &protocol::ok_response(&req.id, shared.stats_payload()),
                );
            }
            Op::Trace => {
                shared.stats.bump(&shared.stats.control);
                write_response(
                    &out,
                    &protocol::ok_response(&req.id, shared.trace_payload(req.query.as_deref())),
                );
            }
            Op::Shutdown => {
                shared.stats.bump(&shared.stats.control);
                if shared.allow_remote_shutdown {
                    shared.stop.store(true, Ordering::Relaxed);
                    let mut payload = Json::obj();
                    payload.set("stopping", Json::Bool(true));
                    write_response(&out, &protocol::ok_response(&req.id, payload));
                } else {
                    write_response(
                        &out,
                        &protocol::error_response(
                            Some(&req.id),
                            "forbidden",
                            "remote shutdown is disabled",
                        ),
                    );
                }
            }
            Op::Unknown(name) => {
                shared.stats.bump(&shared.stats.malformed);
                write_response(
                    &out,
                    &protocol::error_response(
                        Some(&req.id),
                        "unsupported_op",
                        &format!("unknown op `{name}`"),
                    ),
                );
            }
            Op::Compile | Op::Verify | Op::Run => admit(req, &out, shared),
        }
    }
}

/// Admission control: validate, stamp the deadline, try the queue.
fn admit(req: Request, out: &Responder, shared: &Arc<Shared>) {
    let profile = shared.profile(&req.tenant);
    shared.stats.tenant(&req.tenant, |t| t.requests += 1);
    let payload_len =
        req.source.as_deref().map_or(0, str::len) + req.tsa.as_deref().map_or(0, str::len);
    if payload_len > profile.max_source_bytes {
        shared.stats.bump(&shared.stats.errors);
        shared.stats.bump_kind("too_large");
        shared.stats.tenant(&req.tenant, |t| t.errors += 1);
        write_response(
            out,
            &protocol::error_response(
                Some(&req.id),
                "too_large",
                &format!(
                    "payload of {payload_len} bytes exceeds tenant limit of {} bytes",
                    profile.max_source_bytes
                ),
            ),
        );
        return;
    }
    let deadline_ms = req
        .deadline_ms
        .unwrap_or(profile.max_deadline_ms)
        .min(profile.max_deadline_ms);
    let now = Instant::now();
    let job = Job {
        deadline: now + Duration::from_millis(deadline_ms),
        admitted: now,
        profile,
        out: Arc::clone(out),
        req,
    };
    match shared.queue.try_push(job) {
        Ok(()) => shared.stats.bump(&shared.stats.accepted),
        Err((job, PushError::Full)) => {
            shared.stats.bump(&shared.stats.shed);
            shared.stats.tenant(&job.req.tenant, |t| t.shed += 1);
            write_response(
                out,
                &protocol::overloaded_response(
                    Some(&job.req.id),
                    "queue_full",
                    "request queue is full; retry later",
                ),
            );
        }
        Err((job, PushError::Closed)) => {
            shared.stats.bump(&shared.stats.rejected_draining);
            shared.stats.tenant(&job.req.tenant, |t| t.shed += 1);
            write_response(
                out,
                &protocol::overloaded_response(
                    Some(&job.req.id),
                    "shutting_down",
                    "daemon is draining for shutdown",
                ),
            );
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        // Outer isolation for bugs in the recorder/bookkeeping itself;
        // the request's own panics unwind inside `handle_job`'s inner
        // boundary, which additionally preserves the span tree.
        let response =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle_job(&job, shared)))
                .unwrap_or_else(|p| {
                    shared.stats.bump(&shared.stats.panics_isolated);
                    protocol::error_response(
                        Some(&job.req.id),
                        "panic",
                        &format!("worker panicked: {}", panic_message(p.as_ref())),
                    )
                });
        let ok = response.get("status") == Some(&Json::Str("ok".into()));
        let kind = match response.get("kind") {
            Some(Json::Str(k)) => Some(k.clone()),
            _ => None,
        };
        if ok {
            shared.stats.bump(&shared.stats.ok);
        } else {
            shared.stats.bump(&shared.stats.errors);
            if let Some(k) = &kind {
                shared.stats.bump_kind(k);
            }
        }
        shared.stats.tenant(&job.req.tenant, |t| {
            if ok {
                t.ok += 1;
            } else {
                t.errors += 1;
                if kind.as_deref() == Some("panic") {
                    t.panics += 1;
                }
            }
        });
        write_response(&job.out, &response);
        shared.stats.bump(&shared.stats.completed);
        let elapsed = job.admitted.elapsed();
        shared
            .stats
            .observe_latency(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }
}

fn chaos_sleep_ms(src: &str) -> Option<u64> {
    let marker = "//!chaos:sleep=";
    let rest = &src[src.find(marker)? + marker.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Compile => "compile",
        Op::Verify => "verify",
        Op::Run => "run",
        Op::Ping => "ping",
        Op::Stats => "stats",
        Op::Trace => "trace",
        Op::Shutdown => "shutdown",
        Op::Unknown(_) => "unknown",
    }
}

fn ns_since(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from)
        .as_nanos()
        .min(u64::MAX as u128) as u64
}

/// Executes one admitted job with full tracing.
///
/// The request's [`Pipeline`] — and with it the traced [`Telemetry`]
/// registry — is built *outside* the panic boundary, so when the op
/// unwinds the span tree survives: still-open spans are snapshotted
/// with an `unfinished:true` attribute, the record is dumped to stderr,
/// and the flight recorder retains it. The trace epoch is the
/// admission instant, so the synthetic `queued` span and the execution
/// spans share one timeline.
fn handle_job(job: &Job, shared: &Arc<Shared>) -> Json {
    let req = &job.req;
    let picked_up = Instant::now();
    let queued_ns = ns_since(job.admitted, picked_up);
    let tm = Telemetry::with_trace_at(job.admitted, 0);
    let root = tm.span_open("request");
    tm.span_attr("id", AttrValue::Str(req.id.clone()));
    tm.span_attr("tenant", AttrValue::Str(req.tenant.clone()));
    tm.span_attr("op", AttrValue::Str(op_name(&req.op).into()));
    tm.record_span("queued", job.admitted, picked_up, &[]);
    let pipeline = Pipeline::new()
        .telemetry(tm)
        .limits(job.profile.limits())
        .deadline(job.deadline)
        .profile_every(PROFILE_EVERY_SLICES);
    let profile_slot: RefCell<Option<VmProfile>> = RefCell::new(None);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_op(job, shared, &pipeline, &profile_slot)
    }));
    let panicked = caught.is_err();
    let response = match caught {
        Ok(Ok(payload)) => {
            pipeline.metrics().span_close(root);
            protocol::ok_response(&req.id, payload)
        }
        Ok(Err(e)) => {
            match &e {
                Error::Vm(VmError::DeadlineExceeded) => {
                    shared.stats.bump(&shared.stats.deadline_exceeded);
                }
                Error::Vm(VmError::FuelExhausted) => {
                    shared.stats.bump(&shared.stats.fuel_exhausted);
                }
                _ => {}
            }
            let tm = pipeline.metrics();
            tm.span_attr("error", AttrValue::Str(e.kind().into()));
            tm.span_close(root);
            protocol::error_response(Some(&req.id), e.kind(), &e.to_string())
        }
        Err(p) => {
            shared.stats.bump(&shared.stats.panics_isolated);
            // Deliberately do NOT close the span stack: the snapshot
            // below marks everything in flight `unfinished`, which is
            // the at-panic-time view the flight recorder wants.
            protocol::error_response(
                Some(&req.id),
                "panic",
                &format!("worker panicked: {}", panic_message(p.as_ref())),
            )
        }
    };
    let profile = profile_slot.into_inner().filter(|p| !p.is_empty());
    if let Some(p) = &profile {
        shared.merge_profile(&req.tenant, p);
    }
    let tm = pipeline.metrics();
    let status = if response.get("status") == Some(&Json::Str("ok".into())) {
        "ok"
    } else {
        "error"
    };
    let kind = match response.get("kind") {
        Some(Json::Str(k)) => Some(k.clone()),
        _ => None,
    };
    let rec = FlightRecord {
        seq: 0,
        id: req.id.clone(),
        tenant: req.tenant.clone(),
        op: op_name(&req.op).into(),
        status: status.into(),
        kind,
        queued_ns,
        total_ns: ns_since(job.admitted, Instant::now()),
        spans: tm.trace_spans(),
        events: tm.trace_events(),
        profile: profile.as_ref().map(VmProfile::to_json),
    };
    if panicked {
        eprintln!("serve: flight[panic] {}", rec.to_json().render());
    }
    shared.flight.record(rec);
    response
}

/// The panic-prone part of one job: chaos injection, the queue-wait
/// deadline check, and the op dispatch. Runs inside `handle_job`'s
/// `catch_unwind`.
fn run_op(
    job: &Job,
    shared: &Arc<Shared>,
    pipeline: &Pipeline,
    profile_slot: &RefCell<Option<VmProfile>>,
) -> Result<Json, Error> {
    let req = &job.req;
    if shared.chaos {
        if let Some(src) = &req.source {
            if src.contains("//!chaos:panic") {
                panic!("injected chaos panic");
            }
            if let Some(ms) = chaos_sleep_ms(src) {
                std::thread::sleep(Duration::from_millis(ms.min(CHAOS_SLEEP_CAP_MS)));
            }
        }
    }
    // Queue wait may already have consumed the whole budget.
    if Instant::now() >= job.deadline {
        return Err(Error::Vm(VmError::DeadlineExceeded));
    }
    match req.op {
        Op::Compile => op_compile(job, shared, pipeline),
        Op::Verify => op_verify(job, pipeline),
        Op::Run => op_run(job, pipeline, profile_slot),
        _ => Err(Error::Usage("non-work op dispatched to worker".into())),
    }
}

fn require<'a>(field: &'a Option<String>, what: &str) -> Result<&'a str, Error> {
    field
        .as_deref()
        .ok_or_else(|| Error::Usage(format!("request requires `{what}`")))
}

fn op_compile(job: &Job, shared: &Arc<Shared>, pipeline: &Pipeline) -> Result<Json, Error> {
    let req = &job.req;
    let src = require(&req.source, "source")?;
    let tm = pipeline.metrics();
    let key = CacheKey::new(RecordKind::Module, &shared.fingerprint, src.as_bytes());
    let probe = tm.span_open("cache.probe");
    let hit = shared.cache.as_ref().and_then(|c| c.get_module(&key));
    tm.event(
        "cache.probe.done",
        &[("hit", AttrValue::Bool(hit.is_some()))],
    );
    tm.span_close(probe);
    let mut cached = false;
    let bytes = match hit {
        Some(rec) => {
            shared.stats.bump(&shared.stats.cache_hits);
            cached = true;
            rec.bytes
        }
        None => {
            let module = pipeline.compile_source(src)?;
            let bytes = pipeline.encode(&module)?;
            if let Some(cache) = &shared.cache {
                let rec = ModuleRecord {
                    bytes: bytes.clone(),
                    metrics: tm.export_flat(),
                };
                if !cache.put_module_degrading(&key, &rec) {
                    shared.stats.bump(&shared.stats.cache_degraded);
                }
            }
            bytes
        }
    };
    let mut payload = Json::obj();
    payload.set("cached", Json::Bool(cached));
    payload.set("bytes", Json::U64(bytes.len() as u64));
    payload.set("key", Json::Str(format!("{:016x}", key.hash())));
    if req.want_bytes {
        payload.set("tsa", Json::Str(protocol::to_hex(&bytes)));
    }
    Ok(payload)
}

fn op_verify(job: &Job, pipeline: &Pipeline) -> Result<Json, Error> {
    let req = &job.req;
    let hex = require(&req.tsa, "tsa")?;
    let bytes = protocol::from_hex(hex).map_err(|e| Error::Usage(format!("bad `tsa` hex: {e}")))?;
    pipeline.check_deadline()?;
    // Decode *is* verification: the codec refuses to materialize a
    // module that fails the consumer-side checks.
    let module = pipeline.decode(&bytes)?;
    let mut payload = Json::obj();
    payload.set("verified", Json::Bool(true));
    payload.set("bytes", Json::U64(bytes.len() as u64));
    payload.set("functions", Json::U64(module.functions.len() as u64));
    Ok(payload)
}

fn op_run(
    job: &Job,
    pipeline: &Pipeline,
    profile_slot: &RefCell<Option<VmProfile>>,
) -> Result<Json, Error> {
    let req = &job.req;
    let entry = require(&req.entry, "entry")?;
    let module = if let Some(src) = &req.source {
        pipeline.compile_source(src)?
    } else if let Some(hex) = &req.tsa {
        let bytes =
            protocol::from_hex(hex).map_err(|e| Error::Usage(format!("bad `tsa` hex: {e}")))?;
        pipeline.decode(&bytes)?
    } else {
        return Err(Error::Usage("run requires `source` or `tsa`".into()));
    };
    let outcome = pipeline.run(&module, entry)?;
    // Park the sample profile before the result check: a deadline kill
    // or trap still carries its at-kill-time samples out to the flight
    // recorder.
    *profile_slot.borrow_mut() = outcome.profile;
    let value = outcome.result?;
    let mut payload = Json::obj();
    payload.set(
        "result",
        match value {
            Some(v) => Json::Str(format!("{v:?}")),
            None => Json::Null,
        },
    );
    payload.set("output", Json::Str(outcome.output));
    if let Some(steps) = pipeline.metrics().counter("vm.steps") {
        payload.set("steps", Json::U64(steps));
    }
    if let Some(checks) = pipeline.metrics().counter("vm.deadline.slice_checks") {
        payload.set("deadline_checks", Json::U64(checks));
    }
    if let Some(p) = profile_slot.borrow().as_ref() {
        if !p.is_empty() {
            payload.set("profile", p.to_json());
        }
    }
    Ok(payload)
}
