//! The five workloads: set-up, one op each, and the closed loops that
//! drive them. Every timed call is a public entry point of a repository
//! crate; every op's output is checked outside the timed region.

use crate::corpus::{self, EditSite, Program, EDIT_SITES, PROGRAMS};
use crate::stats::{calibration_ms, percentile, Rng};
use crate::trace::Tracer;
use safetsa_baseline::compile::compile_program;
use safetsa_baseline::interp::Bvm;
use safetsa_baseline::verify::verify_program;
use safetsa_codec::{decode_module, encode_module, HostEnv};
use safetsa_core::function::Function;
use safetsa_core::types::TypeTable;
use safetsa_core::verify::verify_module;
use safetsa_driver::Pipeline;
use safetsa_frontend::{lexer, parser, sema};
use safetsa_opt::{checkelim, constprop, cse, dce, dse, loadfwd, Passes};
use safetsa_rt::Value;
use safetsa_server::client::{request_obj, Client};
use safetsa_server::{BindAddr, ServeSummary, Server, ServerConfig, ServerHandle};
use safetsa_telemetry::Json;
use std::cell::Cell;
use std::fmt::Display;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Compile,
    Load,
    Run,
    Serve,
    Edit,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload::Compile,
    Workload::Load,
    Workload::Run,
    Workload::Serve,
    Workload::Edit,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Load => "load",
            Workload::Run => "run",
            Workload::Serve => "serve",
            Workload::Edit => "edit",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Whether an op is bound by this process's CPU. A served request
    /// is not: a delayed-ACK timer of about 40 ms dominates it, and its
    /// latency does not follow the CPU's speed.
    pub fn cpu_bound(self) -> bool {
        self != Workload::Serve
    }
}

/// Serve daemon shape: two workers behind a 64-slot queue, driven by
/// two connections, so no request waits for a worker.
const SERVE_WORKERS: usize = 2;
const SERVE_CONNECTIONS: usize = 2;

/// Fuel for the baseline interpreter's reference runs.
const BASELINE_FUEL: u64 = 500_000_000;

/// One corpus program with everything its ops are checked against.
pub struct Prepared {
    pub program: &'static Program,
    /// Optimized wire bytes from `Pipeline::compile_source` + `encode`.
    pub tsa: Vec<u8>,
    pub functions: usize,
    /// Output and result of the bytecode baseline, which shares only
    /// the front end with the SafeTSA path.
    pub output: String,
    pub result: Option<Value>,
    /// The result as the serve daemon renders it.
    pub result_text: Option<String>,
}

/// What a workload's ops run against; built by [`setup`].
pub struct Fixture {
    pub corpus: Vec<Prepared>,
    host: HostEnv,
    daemon: Option<Daemon>,
    store: Option<StoreDir>,
}

fn err(what: impl Display, e: impl Display) -> String {
    format!("{what}: {e}")
}

/// `Z`/`C` results compare as the ints the baseline returns.
fn normalize(v: Option<Value>) -> Option<Value> {
    v.map(|v| match v {
        Value::Z(b) => Value::I(i32::from(b)),
        Value::C(c) => Value::I(c as i32),
        other => other,
    })
}

fn same_result(a: Option<Value>, b: Option<Value>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a.bits_eq(b),
        (None, None) => true,
        _ => false,
    }
}

fn prepare(p: &'static Program, host: &HostEnv) -> Result<Prepared, String> {
    let pipeline = Pipeline::new();
    let tsa = pipeline
        .compile_source(p.source)
        .and_then(|m| pipeline.encode(&m))
        .map_err(|e| err(p.name, e))?;

    let hir = safetsa_frontend::compile(p.source).map_err(|e| err(p.name, e))?;
    let mut bcode = compile_program(&hir);
    verify_program(&hir, &mut bcode).map_err(|e| err(p.name, e))?;
    let mut bvm = Bvm::load(&hir, &bcode);
    bvm.set_fuel(BASELINE_FUEL);
    let result = normalize(bvm.run_entry(p.entry).map_err(|e| err(p.name, e))?);
    let output = bvm.output.text().to_string();

    // The inputs must be right before anything is timed: the wire bytes
    // decode, verify, load and run to the baseline's answer.
    let module = decode_module(&tsa, host).map_err(|e| err(p.name, e))?;
    verify_module(&module).map_err(|e| err(p.name, e))?;
    let mut vm = safetsa_vm::Vm::load(&module).map_err(|e| err(p.name, e))?;
    let got = vm.run_entry(p.entry).map_err(|e| err(p.name, e))?;
    if vm.output.text() != output || !same_result(normalize(got), result) {
        return Err(format!("{}: SafeTSA and baseline disagree", p.name));
    }
    Ok(Prepared {
        program: p,
        tsa,
        functions: module.functions.len(),
        output,
        result,
        result_text: got.map(|v| format!("{v:?}")),
    })
}

/// Builds the inputs and reference outputs of the whole corpus, plus
/// the daemon (`serve`) or the cold-populated store (`edit`).
pub fn setup(w: Workload) -> Result<Fixture, String> {
    let host = HostEnv::standard();
    let corpus = PROGRAMS
        .iter()
        .map(|p| prepare(p, &host))
        .collect::<Result<Vec<_>, _>>()?;
    let mut fx = Fixture {
        corpus,
        host,
        daemon: None,
        store: None,
    };
    match w {
        Workload::Serve => fx.start_daemon()?,
        Workload::Edit => fx.populate_store()?,
        _ => {}
    }
    Ok(fx)
}

impl Fixture {
    /// Total optimized wire bytes of the corpus.
    pub fn tsa_bytes(&self) -> u64 {
        self.corpus.iter().map(|p| p.tsa.len() as u64).sum()
    }

    fn prepared(&self, name: &str) -> &Prepared {
        self.corpus
            .iter()
            .find(|p| p.program.name == name)
            .expect("every corpus program is prepared")
    }

    fn start_daemon(&mut self) -> Result<(), String> {
        if self.daemon.is_none() {
            self.daemon = Some(Daemon::start()?);
        }
        Ok(())
    }

    fn populate_store(&mut self) -> Result<(), String> {
        if self.store.is_some() {
            return Ok(());
        }
        let store = StoreDir::create()?;
        let mut seen: Vec<&str> = Vec::new();
        for site in &EDIT_SITES {
            if seen.contains(&site.program) {
                continue;
            }
            seen.push(site.program);
            let pipeline = Pipeline::new()
                .cache(&store.path)
                .map_err(|e| err("store", e))?;
            let bytes = pipeline
                .compile_source(corpus::program(site.program).source)
                .and_then(|m| pipeline.encode(&m))
                .map_err(|e| err(site.program, e))?;
            if bytes != self.prepared(site.program).tsa {
                return Err(format!("{}: cold store build differs", site.program));
            }
        }
        self.store = Some(store);
        Ok(())
    }
}

/// An in-process serve daemon on a loopback port, shut down and joined
/// on drop.
struct Daemon {
    addr: String,
    handle: ServerHandle,
    join: Option<std::thread::JoinHandle<ServeSummary>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let server = Server::bind(ServerConfig {
            bind: BindAddr::Tcp("127.0.0.1:0".into()),
            workers: SERVE_WORKERS,
            queue_capacity: 64,
            chaos: false,
            ..ServerConfig::default()
        })
        .map_err(|e| err("serve bind", e))?;
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            handle,
            join: Some(join),
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.request_shutdown();
        if let Some(join) = self.join.take() {
            // A daemon panic would already have failed requests.
            let _ = join.join();
        }
    }
}

/// The incremental store of the `edit` workload, in a fresh directory
/// under the working directory; removed on drop.
struct StoreDir {
    path: PathBuf,
    /// Edits made so far; each op's literal is new to the store.
    edits: Cell<u64>,
}

/// Root of every directory the benchmark writes (relative to the
/// working directory, which is the checkout).
const WORK_DIR: &str = ".tsabench";

impl StoreDir {
    fn create() -> Result<StoreDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = PathBuf::from(WORK_DIR).join(format!("store-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| err(path.display(), e))?;
        Ok(StoreDir {
            path,
            edits: Cell::new(0),
        })
    }

    /// A value for `site`'s literal that no earlier edit used.
    fn fresh_value(&self, site: &EditSite) -> u64 {
        let n = self.edits.get();
        self.edits.set(n + 1);
        site.literal
            .parse::<u64>()
            .expect("edit literals are integers")
            + 1
            + n
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds only once the last store is gone.
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// What one loop observed.
#[derive(Debug, Default)]
pub struct Sample {
    pub attempted: u64,
    pub failed: u64,
    /// Latencies of the ops that succeeded, ms, per input (program or
    /// edit site).
    pub latencies_ms: Vec<Vec<f64>>,
    /// Closed-loop clients that produced the latencies.
    pub clients: usize,
    /// One [`calibration_ms`] per pass, taken between passes.
    pub calibration_ms: Vec<f64>,
    pub first_failures: Vec<String>,
}

impl Sample {
    fn new(inputs: usize) -> Sample {
        Sample {
            latencies_ms: vec![Vec::new(); inputs],
            clients: 1,
            ..Sample::default()
        }
    }

    fn record(&mut self, input: usize, r: Result<f64, String>) {
        self.attempted += 1;
        match r {
            Ok(ms) => self.latencies_ms[input].push(ms),
            Err(e) => self.fail(e),
        }
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.first_failures.len() < 5 {
            self.first_failures.push(e);
        }
    }

    fn merge(&mut self, other: Sample) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (mine, theirs) in self.latencies_ms.iter_mut().zip(other.latencies_ms) {
            mine.extend(theirs);
        }
        self.calibration_ms.extend(other.calibration_ms);
        self.first_failures.extend(other.first_failures);
        self.first_failures.truncate(5);
    }

    fn input_percentiles(&self, q: f64) -> Vec<f64> {
        self.latencies_ms
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| {
                let mut v = v.clone();
                v.sort_by(f64::total_cmp);
                percentile(&v, q)
            })
            .collect()
    }

    /// The geometric mean over inputs of each input's median latency:
    /// every program weighs the same whatever its cost, and a near-tie
    /// between two programs' latencies cannot move it the way it moves
    /// the median of the pooled ops.
    pub fn p50_geomean_ms(&self) -> f64 {
        let medians = self.input_percentiles(0.5);
        (medians.iter().map(|m| m.ln()).sum::<f64>() / medians.len() as f64).exp()
    }

    /// Ops per second of the closed loop when every op takes its input's
    /// median latency: clients x inputs / sum of the medians. Unlike the
    /// mean, the median ignores bursts of contention from other tenants
    /// of a shared host.
    pub fn ops_per_s(&self) -> f64 {
        let medians = self.input_percentiles(0.5);
        (self.clients * medians.len()) as f64 / medians.iter().sum::<f64>() * 1e3
    }

    /// Every successful op's latency, ascending.
    pub fn pooled(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.latencies_ms.concat();
        all.sort_by(f64::total_cmp);
        all
    }
}

/// A closed loop over seeded passes: each pass runs every input once in
/// a fresh seeded order, and passes repeat until `seconds` have elapsed
/// (at least one pass). `op` gets the input index and a unique op id.
fn closed_loop(
    seconds: f64,
    rng: &mut Rng,
    inputs: usize,
    op_base: u64,
    t: &mut Tracer,
    mut op: impl FnMut(usize, u64, &mut Tracer) -> Result<f64, String>,
) -> Sample {
    let mut sample = Sample::new(inputs);
    let start = Instant::now();
    let mut k = op_base;
    loop {
        for i in rng.permutation(inputs) {
            t.begin_op(k);
            let r = op(i, k, t);
            t.end_op();
            sample.record(i, r);
            k += 1;
        }
        sample.calibration_ms.push(calibration_ms());
        if start.elapsed().as_secs_f64() >= seconds {
            return sample;
        }
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs workload `w` for `seconds` against `fx`, recording spans into
/// `t` when it is on.
pub fn run(
    w: Workload,
    fx: &mut Fixture,
    seconds: f64,
    seed: u64,
    t: &mut Tracer,
) -> Result<Sample, String> {
    let mut rng = Rng::new(seed);
    let n = fx.corpus.len();
    Ok(match w {
        Workload::Compile => closed_loop(seconds, &mut rng, n, 0, t, |i, _, t| {
            compile_op(&fx.corpus[i], t)
        }),
        Workload::Load => closed_loop(seconds, &mut rng, n, 0, t, |i, _, t| {
            consume_op(&fx.corpus[i], &fx.host, false, t)
        }),
        Workload::Run => closed_loop(seconds, &mut rng, n, 0, t, |i, _, t| {
            consume_op(&fx.corpus[i], &fx.host, true, t)
        }),
        Workload::Serve => {
            fx.start_daemon()?;
            serve_loop(fx, seconds, seed, t)
        }
        Workload::Edit => {
            fx.populate_store()?;
            let store = fx.store.as_ref().expect("populated");
            closed_loop(seconds, &mut rng, EDIT_SITES.len(), 0, t, |i, _, t| {
                edit_op(store, &EDIT_SITES[i], t)
            })
        }
    })
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// `compile`: source to `.tsa`. Untraced it is the user's call,
/// `Pipeline::compile_source` + `encode`; traced it replays the same
/// stages through their public functions, and the bytes must match.
fn compile_op(p: &Prepared, t: &mut Tracer) -> Result<f64, String> {
    let name = p.program.name;
    let t0 = Instant::now();
    let bytes = if t.is_on() {
        replay_compile(p.program.source, t).map_err(|e| err(name, e))?
    } else {
        let pipeline = Pipeline::new();
        pipeline
            .compile_source(p.program.source)
            .and_then(|m| pipeline.encode(&m))
            .map_err(|e| err(name, e))?
    };
    let ms = ms_since(t0);
    check(bytes == p.tsa, || {
        format!("{name}: .tsa differs from Pipeline::compile_source")
    })?;
    Ok(ms)
}

/// The producer pipeline of `Pipeline::compile_source` + `encode`, one
/// public call per span.
fn replay_compile(src: &str, t: &mut Tracer) -> Result<Vec<u8>, String> {
    let tokens = t
        .span("frontend.lex", || lexer::lex(src))
        .map_err(|e| err("lex", e))?;
    t.count("frontend.lex.tokens", tokens.len() as f64);
    let unit = t
        .span("frontend.parse", || parser::parse(tokens))
        .map_err(|e| err("parse", e))?;
    t.count("frontend.parse.nodes", unit.node_count() as f64);
    let prog = t
        .span("frontend.sema", || sema::analyze(&unit))
        .map_err(|e| err("sema", e))?;
    let mut module = t
        .span("ssa.construct", || safetsa_ssa::lower_program(&prog))
        .map_err(|e| err("ssa", e))?
        .module;
    t.count("ssa.construct.instrs", module.instr_count() as f64);
    let functions = std::mem::take(&mut module.functions);
    for f in &functions {
        let g = replay_optimize_function(&module.types, f, t);
        module.functions.push(g);
    }
    t.span("core.verify", || verify_module(&module))
        .map_err(|e| err("verify", e))?;
    let bytes = t
        .span("codec.encode", || encode_module(&module))
        .map_err(|e| err("encode", e))?;
    t.count("codec.encode.bytes", bytes.len() as f64);
    Ok(bytes)
}

/// `safetsa_opt::optimize_function` under `Passes::ALL`: the same pass
/// order and the same rule of at most three rounds, stopping after a
/// round that removed nothing. The byte comparison in [`compile_op`]
/// catches any drift from the real function.
fn replay_optimize_function(types: &TypeTable, f: &Function, t: &mut Tracer) -> Function {
    fn ran(t: &mut Tracer, keys: [&'static str; 2], removed: usize, changed: &mut bool) {
        t.count(keys[0], 1.0);
        t.count(keys[1], f64::from(u8::from(removed > 0)));
        *changed |= removed > 0;
    }
    let mut cur = f.clone();
    t.count("opt.functions", 1.0);
    for _ in 0..3 {
        t.count("opt.rounds", 1.0);
        let mut changed = false;
        let (next, removed) = t.span("opt.constprop", || constprop::run(types, &cur));
        ran(
            t,
            ["opt.constprop.runs", "opt.constprop.useful"],
            removed,
            &mut changed,
        );
        let (next, removed) = t.span("opt.cse", || cse::run_with(types, &next, Passes::ALL.mem));
        ran(t, ["opt.cse.runs", "opt.cse.useful"], removed, &mut changed);
        let (next, ce) = t.span("opt.checkelim", || checkelim::run(types, &next));
        ran(
            t,
            ["opt.checkelim.runs", "opt.checkelim.useful"],
            ce.removed(),
            &mut changed,
        );
        let (next, lf) = t.span("opt.loadfwd", || loadfwd::run(types, &next));
        ran(
            t,
            ["opt.loadfwd.runs", "opt.loadfwd.useful"],
            lf.removed(),
            &mut changed,
        );
        let (next, ds) = t.span("opt.dse", || dse::run(types, &next));
        ran(
            t,
            ["opt.dse.runs", "opt.dse.useful"],
            ds.removed(),
            &mut changed,
        );
        let (next, removed) = t.span("opt.dce", || dce::run(&next));
        ran(t, ["opt.dce.runs", "opt.dce.useful"], removed, &mut changed);
        cur = next;
        if !changed {
            break;
        }
    }
    cur
}

/// `load` (decode, verify, `Vm::load`) or, with `execute`, `run`
/// (the same plus `run_entry`, output checked against the baseline).
fn consume_op(p: &Prepared, host: &HostEnv, execute: bool, t: &mut Tracer) -> Result<f64, String> {
    let name = p.program.name;
    let t0 = Instant::now();
    let module = t
        .span("codec.decode", || decode_module(&p.tsa, host))
        .map_err(|e| err(name, e))?;
    t.count("codec.decode.bytes", p.tsa.len() as f64);
    t.span("core.verify", || verify_module(&module))
        .map_err(|e| err(name, e))?;
    let mut vm = t
        .span("vm.load", || safetsa_vm::Vm::load(&module))
        .map_err(|e| err(name, e))?;
    if !execute {
        let ms = ms_since(t0);
        check(
            module.functions.len() == p.functions
                && module.find_function(p.program.entry).is_some(),
            || format!("{name}: loaded module lost functions"),
        )?;
        return Ok(ms);
    }
    let result = t.span("vm.execute", || vm.run_entry(p.program.entry));
    let ms = ms_since(t0);
    let result = result.map_err(|e| err(name, e))?;
    t.count("vm.execute.steps", vm.steps as f64);
    t.count("vm.icache.hits", vm.icache_hits() as f64);
    t.count(
        "vm.icache.lookups",
        (vm.icache_hits() + vm.icache_misses()) as f64,
    );
    check(vm.output.text() == p.output, || {
        format!("{name}: output differs from baseline")
    })?;
    check(same_result(normalize(result), p.result), || {
        format!("{name}: result differs from baseline")
    })?;
    Ok(ms)
}

/// `edit`: a warm one-method rebuild through the incremental store.
/// Untraced it is `compile_source` + `encode`; traced it calls the
/// `Pipeline` stage methods `compile_source` is made of.
fn edit_op(store: &StoreDir, site: &EditSite, t: &mut Tracer) -> Result<f64, String> {
    let src = site.apply(store.fresh_value(site));
    let name = site.program;
    let t0 = Instant::now();
    let pipeline = Pipeline::new()
        .cache(&store.path)
        .map_err(|e| err(name, e))?;
    let bytes = if t.is_on() {
        let prog = t
            .span("driver.frontend", || pipeline.frontend(&[&src]))
            .map_err(|e| err(name, e))?;
        let mut module = t
            .span("driver.lower", || pipeline.lower(&prog))
            .map_err(|e| err(name, e))?
            .module;
        t.span("driver.optimize", || pipeline.optimize(&mut module));
        t.span("driver.verify", || pipeline.verify(&module))
            .map_err(|e| err(name, e))?;
        t.span("driver.encode", || pipeline.encode(&module))
            .map_err(|e| err(name, e))?
    } else {
        pipeline
            .compile_source(&src)
            .and_then(|m| pipeline.encode(&m))
            .map_err(|e| err(name, e))?
    };
    let ms = ms_since(t0);
    let report = pipeline.cache_report();
    let reused = report.iter().filter(|u| u.reused).count();
    t.count("driver.store.units", report.len() as f64);
    t.count("driver.store.hits", reused as f64);
    check(report.len() == reused + 1, || {
        format!(
            "{name}.{}: {} units recompiled, not 1",
            site.method,
            report.len() - reused
        )
    })?;
    let cold = Pipeline::new();
    let cold_bytes = cold
        .compile_source(&src)
        .and_then(|m| cold.encode(&m))
        .map_err(|e| err(name, e))?;
    check(bytes == cold_bytes, || {
        format!("{name}: warm build differs from cold")
    })?;
    Ok(ms)
}

/// `serve`: `SERVE_CONNECTIONS` closed-loop clients, each sending `run`
/// requests with source through the shipped `Client`.
fn serve_loop(fx: &Fixture, seconds: f64, seed: u64, t: &mut Tracer) -> Sample {
    let addr = fx.daemon.as_ref().expect("daemon started").addr.as_str();
    let corpus = fx.corpus.as_slice();
    let trace = t.is_on();
    let results: Vec<(Sample, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVE_CONNECTIONS as u64)
            .map(|conn| {
                scope.spawn(move || {
                    let mut t = Tracer::new(trace);
                    let mut rng = Rng::new(seed ^ (conn + 1).wrapping_mul(0x9e37_79b9));
                    let mut sample = Sample::new(corpus.len());
                    match Client::connect_tcp(addr) {
                        Ok(mut client) => {
                            sample = closed_loop(
                                seconds,
                                &mut rng,
                                corpus.len(),
                                conn << 40,
                                &mut t,
                                |i, k, _| serve_op(&mut client, &corpus[i], k),
                            );
                        }
                        Err(e) => {
                            sample.attempted += 1;
                            sample.fail(err("connect", e));
                        }
                    }
                    (sample, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut sample = Sample::new(corpus.len());
    sample.clients = SERVE_CONNECTIONS;
    for (s, tr) in results {
        sample.merge(s);
        t.absorb(tr);
    }
    if trace {
        record_daemon_view(addr, &sample, t);
    }
    sample
}

fn serve_op(client: &mut Client, p: &Prepared, k: u64) -> Result<f64, String> {
    let name = p.program.name;
    let id = format!("{name}-{k}");
    let mut doc = request_obj("run", &id);
    doc.set("source", Json::Str(p.program.source.into()));
    doc.set("entry", Json::Str(p.program.entry.into()));
    let t0 = Instant::now();
    let resp = client.request(&doc).map_err(|e| err(name, e))?;
    let ms = ms_since(t0);
    let field = |key: &str| resp.get(key).cloned();
    check(field("status") == Some(Json::Str("ok".into())), || {
        format!("{name}: response {}", resp.render())
    })?;
    check(field("id") == Some(Json::Str(id.clone())), || {
        format!("{name}: wrong id")
    })?;
    let payload = resp.get("payload");
    let output = payload.and_then(|pl| pl.get("output"));
    check(output == Some(&Json::Str(p.output.clone())), || {
        format!("{name}: served output differs from baseline")
    })?;
    let want = p.result_text.clone().map_or(Json::Null, Json::Str);
    check(
        payload.and_then(|pl| pl.get("result")) == Some(&want),
        || format!("{name}: served result differs from baseline"),
    )?;
    Ok(ms)
}

/// The daemon's own latency percentiles (the `stats` op, admission to
/// response written) and what the client sees beyond them.
fn record_daemon_view(addr: &str, sample: &Sample, t: &mut Tracer) {
    let Ok(resp) = Client::connect_tcp(addr)
        .and_then(|mut c| c.request(&request_obj("stats", "tsabench-stats")))
    else {
        return;
    };
    let lat = resp.get("payload").and_then(|p| p.get("latency"));
    let ms = |key: &str| {
        lat.and_then(|l| l.get(key))
            .and_then(Json::as_u64)
            .map(|ns| ns as f64 / 1e6)
    };
    let (Some(p50), Some(p99)) = (ms("p50_ns"), ms("p99_ns")) else {
        return;
    };
    let client = sample.pooled();
    t.gauge("server.daemon.p50_ms", p50);
    t.gauge("server.daemon.p99_ms", p99);
    t.gauge(
        "server.outside_daemon.p50_ms",
        percentile(&client, 0.5) - p50,
    );
}
