//! The `safetsa` command-line driver.
//!
//! ```text
//! safetsa compile <in.java>... -o <out.tsa> [--no-opt]   produce a module
//!     [--metrics-json PATH]   write a machine-readable metrics report
//!     [--trace-json PATH]   write a Chrome trace_event timeline
//!     (schema `safetsa-trace/1`) of every stage, cache probe, task
//!     and worker
//!     [--jobs N] [--cache-dir PATH]   batch mode: compile each input as
//!     its own module on N workers (0 = one per CPU) behind a
//!     content-addressed cache; with several inputs, -o names a
//!     directory that receives one <stem>.tsa per input
//!     [--cache-dir PATH --explain-cache]   method-granular incremental
//!     mode: all inputs form one program cached per method; prints each
//!     unit's hit/miss and why (hit, new, body-changed, dep-changed,
//!     evicted)
//! safetsa run <file.tsa|file.java> --entry Class.method  decode/verify/run
//!     [--fuel N] [--max-heap BYTES] [--max-depth N]   resource budgets;
//!     a resource report (steps, fuel remaining, bytes, peak depth)
//!     goes to stderr
//!     [--metrics-json PATH]   write a metrics report (adds the VM's
//!     opcode histogram and dynamic check counters)
//!     [--trace-json PATH]   write the run's span timeline
//! safetsa dump <file.java> [--function Class.method] [--view V]
//!     show an IR view (V: safetsa|plain|lr|planes; default safetsa)
//! safetsa stats <file.java>   per-phase size/time/check stats, plus
//!     (when the program has a `.main`) its executed steps, icache hit
//!     rate, and fused-pair coverage of the executed ops
//! safetsa analyze <in.java>... [--json]   lint the (unoptimized) IR;
//!     exit 1 iff any error-severity diagnostic was reported
//! safetsa verify <file.tsa>             decode + verify a module; print
//!     the VerifyStats on success, the structured error on failure
//! safetsa serve [--tcp ADDR | --socket PATH]   long-running daemon
//!     accepting newline-delimited JSON requests (schema
//!     `safetsa-serve/1`); see README for the protocol
//!     [--workers N] [--queue N]   worker pool size (0 = one per CPU)
//!     and admission-queue capacity
//!     [--fuel N] [--max-heap BYTES] [--max-depth N]
//!     [--max-deadline-ms MS] [--max-source-bytes N]   the default
//!     tenant's budgets (0 = unlimited where applicable)
//!     [--tenant NAME:k=v,...]   add a named tenant profile
//!     (keys: fuel, heap, depth, deadline_ms, source_bytes); repeatable
//!     [--cache-dir PATH] [--chaos] [--no-remote-shutdown]
//!     [--metrics-json PATH]   write the final stats snapshot on exit
//!     [--trace-json PATH]   write the flight recorder's retained
//!     request timelines (Chrome trace_event) on exit
//! ```
//!
//! Exit codes: 0 success; 1 request-level failure (verify/decode/VM
//! trap, resource exhaustion, isolated panic); 2 usage errors,
//! unbuildable input, or I/O failures. Diagnostics are one line on
//! stderr: `safetsa: error[<kind>]: <message>`.

use safetsa::batch::{run_batch, BatchInput, BatchOptions};
use safetsa::driver::passes_fingerprint;
use safetsa::server::{BindAddr, Server, ServerConfig, TenantProfile};
use safetsa::{Error, Pipeline};
use safetsa_telemetry::{Json, Telemetry};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compile") => cmd_compile(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("dump") => cmd_dump(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("analyze") => return cmd_analyze(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        _ => {
            eprintln!("usage: safetsa <compile|run|dump|stats|analyze|verify|serve> ...");
            eprintln!("  compile <in.java>... -o <out.tsa> [--no-opt] [--metrics-json PATH]");
            eprintln!("      [--trace-json PATH] [--jobs N] [--cache-dir PATH] [--explain-cache]");
            eprintln!("  run <file.tsa|file.java> --entry Class.method");
            eprintln!("      [--fuel N] [--max-heap BYTES] [--max-depth N] [--metrics-json PATH]");
            eprintln!("      [--trace-json PATH]");
            eprintln!("  dump <file.java> [--function Class.method]");
            eprintln!("  stats <file.java>");
            eprintln!("  analyze <in.java>... [--json]");
            eprintln!("  verify <file.tsa>");
            eprintln!("  serve [--tcp ADDR|--socket PATH] [--workers N] [--queue N]");
            eprintln!("      [--tenant NAME:k=v,...] [--cache-dir PATH] [--chaos]");
            eprintln!("      [--metrics-json PATH] [--trace-json PATH]");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // Exit-code policy: request-level failures (the input was
        // attempted; a different program or bigger budget would have
        // worked) exit 1; usage errors, unbuildable input, and I/O
        // failures exit 2. One structured line per failure so scripts
        // can match on `error[kind]` instead of prose.
        Err(e) => {
            eprintln!("safetsa: error[{}]: {e}", e.kind());
            if e.is_request_level() {
                ExitCode::FAILURE
            } else {
                ExitCode::from(2)
            }
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, Error>
where
    T::Err: std::fmt::Display,
{
    flag_value(args, flag)
        .map(|v| v.parse().map_err(|e| format!("{flag}: {e}").into()))
        .transpose()
}

fn positional(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") || a == "-o" {
            // flags with values
            if matches!(
                a.as_str(),
                "-o" | "--entry"
                    | "--function"
                    | "--fuel"
                    | "--view"
                    | "--max-heap"
                    | "--max-depth"
                    | "--metrics-json"
                    | "--trace-json"
                    | "--jobs"
                    | "--cache-dir"
                    | "--tcp"
                    | "--socket"
                    | "--workers"
                    | "--queue"
                    | "--max-deadline-ms"
                    | "--max-source-bytes"
                    | "--tenant"
            ) {
                skip = true;
            }
            continue;
        }
        out.push(a);
    }
    out
}

/// The producer pipeline's in-memory artifacts (kept together so the
/// metrics report can relate the SafeTSA module to its baseline).
struct Built {
    prog: safetsa_frontend::hir::Program,
    module: safetsa_core::Module,
}

fn read_source(path: &str) -> Result<String, Error> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}").into())
}

fn build_module(sources: &[&String], pipeline: &Pipeline) -> Result<Built, Error> {
    let texts: Vec<String> = sources
        .iter()
        .map(|p| read_source(p))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    // Stages run individually (the baseline plane needs `prog`), but
    // under the same `compile` umbrella span `compile_sources` emits,
    // so traces from every surface share one tree shape.
    pipeline.metrics().span("compile", || {
        let prog = pipeline.frontend(&refs)?;
        let mut module = pipeline.lower(&prog)?.module;
        pipeline.optimize(&mut module);
        pipeline.verify(&module)?;
        Ok(Built { prog, module })
    })
}

/// Records the Java-bytecode baseline plane and the paper's headline
/// size ratio (SafeTSA bytes : class-file bytes, in permille so the
/// counter stays an integer and the report stays deterministic).
fn record_baseline(
    prog: &safetsa_frontend::hir::Program,
    tsa_bytes: u64,
    tm: &Telemetry,
) -> Result<(), Error> {
    let mut bcode = tm.time("baseline.compile_ns", || {
        safetsa_baseline::compile::compile_program(prog)
    });
    tm.time("baseline.verify_ns", || {
        safetsa_baseline::verify::verify_program(prog, &mut bcode)
    })
    .map_err(|e| format!("baseline verify: {e}"))?;
    let class_bytes = safetsa_baseline::classfile::total_size(prog, &bcode) as u64;
    tm.set("baseline.class_file_bytes", class_bytes);
    tm.set("baseline.instrs", bcode.instr_count() as u64);
    if let Some(ratio) = tsa_bytes.saturating_mul(1000).checked_div(class_bytes) {
        tm.set("codec.size_ratio_permille", ratio);
    }
    Ok(())
}

fn write_metrics(path: &str, doc: &Json) -> Result<(), Error> {
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{path}: {e}").into())
}

/// Picks the registry for a command from its `--metrics-json` /
/// `--trace-json` flags: tracing implies metrics (spans ride on an
/// enabled registry), metrics alone skips the span buffer, neither
/// costs nothing.
fn configure_telemetry(metrics: bool, trace: bool) -> Telemetry {
    if trace {
        Telemetry::with_trace()
    } else if metrics {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    }
}

fn write_trace(path: &str, tm: &Telemetry) -> Result<(), Error> {
    std::fs::write(path, tm.to_chrome_trace().render_pretty())
        .map_err(|e| format!("{path}: {e}").into())
}

fn cmd_compile(args: &[String]) -> Result<(), Error> {
    let out = flag_value(args, "-o").ok_or("missing -o <out.tsa>")?;
    let optimize = !args.iter().any(|a| a == "--no-opt");
    let metrics_path = flag_value(args, "--metrics-json");
    let trace_path = flag_value(args, "--trace-json");
    let jobs: Option<usize> = parse_flag(args, "--jobs")?;
    let cache_dir = flag_value(args, "--cache-dir");
    let explain_cache = args.iter().any(|a| a == "--explain-cache");
    let sources = positional(args);
    if sources.is_empty() {
        return Err("no input files".into());
    }
    if explain_cache {
        // Per-unit incremental mode: all inputs form one program,
        // cached method-by-method (vs. batch's whole-module records).
        if jobs.is_some() {
            return Err(
                "--explain-cache uses the in-process incremental store (drop --jobs)".into(),
            );
        }
        if cache_dir.is_none() {
            return Err("--explain-cache requires --cache-dir PATH".into());
        }
    }
    if jobs.is_some() || (cache_dir.is_some() && !explain_cache) {
        return compile_batch(
            &sources,
            out,
            optimize,
            metrics_path,
            trace_path,
            jobs,
            cache_dir,
        );
    }
    let tm = configure_telemetry(metrics_path.is_some(), trace_path.is_some());
    let mut pipeline = configure_pipeline(optimize, tm);
    if let Some(dir) = cache_dir {
        pipeline = pipeline.cache(dir)?;
    }
    let built = build_module(&sources, &pipeline)?;
    let bytes = pipeline.encode(&built.module)?;
    std::fs::write(out, &bytes).map_err(|e| format!("{out}: {e}"))?;
    if let Some(path) = metrics_path {
        record_baseline(&built.prog, bytes.len() as u64, pipeline.metrics())?;
        let subject: Vec<&str> = sources.iter().map(|s| s.as_str()).collect();
        write_metrics(
            path,
            &pipeline.metrics().report("compile", &subject.join(" ")),
        )?;
    }
    if let Some(path) = trace_path {
        write_trace(path, pipeline.metrics())?;
    }
    println!(
        "wrote {out}: {} bytes, {} functions, {} instructions, {} phis",
        bytes.len(),
        built.module.functions.len(),
        built.module.instr_count(),
        built.module.phi_count()
    );
    if explain_cache {
        let units = pipeline.cache_report();
        if units.is_empty() {
            println!("cache: no units (the store engages only when optimization is on)");
        } else {
            let reused = units.iter().filter(|u| u.reused).count();
            println!(
                "cache: {} unit(s), {} reused, {} recompiled",
                units.len(),
                reused,
                units.len() - reused
            );
            for u in &units {
                println!(
                    "  {} {:<12} {}",
                    if u.reused { "reuse  " } else { "compile" },
                    u.why,
                    u.name
                );
            }
        }
    }
    Ok(())
}

/// A [`Pipeline`] matching the CLI's `--no-opt` convention.
fn configure_pipeline(optimize: bool, tm: Telemetry) -> Pipeline {
    let p = Pipeline::new().telemetry(tm);
    if optimize {
        p
    } else {
        p.no_optimize()
    }
}

/// The configuration half of the CLI's cache key. Everything that
/// changes the produced artifact or its metrics is folded in: the pass
/// configuration and whether metrics (including the baseline plane)
/// were recorded.
fn compile_fingerprint(optimize: bool, telemetry: bool) -> String {
    let passes = if optimize {
        passes_fingerprint(&safetsa::opt::Passes::ALL)
    } else {
        "noopt".to_string()
    };
    format!("cli-compile/{passes}/m{}", u8::from(telemetry))
}

/// Batch mode: each input file becomes its own module, compiled on a
/// worker pool behind the content-addressed cache.
fn compile_batch(
    sources: &[&String],
    out: &str,
    optimize: bool,
    metrics_path: Option<&str>,
    trace_path: Option<&str>,
    jobs: Option<usize>,
    cache_dir: Option<&str>,
) -> Result<(), Error> {
    // Tracing rides on enabled metrics, so either flag turns per-task
    // collection on — and the cache key must reflect that the stored
    // metrics payload differs.
    let telemetry = metrics_path.is_some() || trace_path.is_some();
    let inputs: Vec<BatchInput> = sources
        .iter()
        .map(|p| {
            Ok(BatchInput {
                name: (*p).clone(),
                source: read_source(p)?,
            })
        })
        .collect::<Result<_, Error>>()?;
    let mut opts = BatchOptions::new(compile_fingerprint(optimize, telemetry));
    opts.jobs = jobs.unwrap_or(0);
    opts.cache_dir = cache_dir.map(PathBuf::from);
    opts.telemetry = telemetry;
    opts.trace = trace_path.is_some();
    let report = run_batch(&inputs, &opts, |_idx, input, tm| {
        let pipeline = configure_pipeline(optimize, tm);
        let (prog, module) = pipeline.metrics().span("compile", || {
            let prog = pipeline.frontend(&[input.source.as_str()])?;
            let mut module = pipeline.lower(&prog)?.module;
            pipeline.optimize(&mut module);
            pipeline.verify(&module)?;
            Ok::<_, Error>((prog, module))
        })?;
        let bytes = pipeline.encode(&module)?;
        if telemetry {
            record_baseline(&prog, bytes.len() as u64, pipeline.metrics())?;
        }
        Ok((bytes, pipeline.into_metrics()))
    })?;
    // One input: -o names the output file. Several: -o names a
    // directory receiving one <stem>.tsa per input.
    let single = report.items.len() == 1;
    if !single {
        std::fs::create_dir_all(out).map_err(|e| format!("{out}: {e}"))?;
    }
    for item in &report.items {
        let path = if single {
            PathBuf::from(out)
        } else {
            let stem = Path::new(&item.name)
                .file_stem()
                .map_or_else(|| item.name.clone().into(), |s| s.to_os_string());
            Path::new(out).join(stem).with_extension("tsa")
        };
        std::fs::write(&path, &item.bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "wrote {}: {} bytes{}",
            path.display(),
            item.bytes.len(),
            if item.cache_hit { " (cache hit)" } else { "" }
        );
    }
    println!(
        "batch: {} module(s) on {} worker(s), cache {} hit(s) / {} miss(es), {} ms",
        report.items.len(),
        report.jobs,
        report.cache_hits,
        report.cache_misses,
        report.wall_ns / 1_000_000
    );
    if let Some(path) = metrics_path {
        let subject: Vec<&str> = sources.iter().map(|s| s.as_str()).collect();
        write_metrics(path, &report.merged.report("compile", &subject.join(" ")))?;
    }
    if let Some(path) = trace_path {
        write_trace(path, &report.merged)?;
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), Error> {
    let entry = flag_value(args, "--entry").ok_or("missing --entry Class.method")?;
    let fuel: u64 = parse_flag(args, "--fuel")?.unwrap_or(1_000_000_000);
    let max_heap: Option<u64> = parse_flag(args, "--max-heap")?;
    let max_depth: Option<u32> = parse_flag(args, "--max-depth")?;
    let metrics_path = flag_value(args, "--metrics-json");
    let trace_path = flag_value(args, "--trace-json");
    // The registry also backs the stderr resource report, so `run`
    // always records (tracing is opt-in via --trace-json).
    let pipeline = Pipeline::new()
        .telemetry(if trace_path.is_some() {
            Telemetry::with_trace()
        } else {
            Telemetry::enabled()
        })
        .limits(safetsa_vm::ResourceLimits {
            fuel: Some(fuel),
            max_heap_bytes: max_heap,
            max_call_depth: max_depth,
        });
    let files = positional(args);
    let file = files.first().ok_or("no input file")?;
    let module = if file.ends_with(".tsa") {
        let bytes = std::fs::read(file.as_str()).map_err(|e| format!("{file}: {e}"))?;
        pipeline.decode(&bytes)?
    } else {
        let built = build_module(&files, &pipeline)?;
        if metrics_path.is_some() {
            // Encoding is not needed to interpret, but the metrics
            // report covers the codec plane for source inputs too.
            let bytes = pipeline.encode(&built.module)?;
            record_baseline(&built.prog, bytes.len() as u64, pipeline.metrics())?;
        }
        built.module
    };
    let outcome = pipeline.run(&module, entry)?;
    print!("{}", outcome.output);
    // The report goes to stderr so scripted consumers of stdout see
    // only program output.
    eprintln!(
        "resource report: {}",
        pipeline.metrics().summary_line(&[
            "vm.steps",
            "vm.fuel_remaining",
            "vm.heap.bytes_allocated",
            "vm.peak_depth",
        ])
    );
    if let Some(path) = metrics_path {
        write_metrics(path, &pipeline.metrics().report("run", file))?;
    }
    if let Some(path) = trace_path {
        write_trace(path, pipeline.metrics())?;
    }
    if let Some(v) = outcome.result? {
        println!("=> {v:?}");
    }
    Ok(())
}

fn cmd_dump(args: &[String]) -> Result<(), Error> {
    let files = positional(args);
    let file = files.first().ok_or("no input file")?;
    let built = build_module(&[file], &Pipeline::new().no_optimize())?;
    let module = built.module;
    let wanted = flag_value(args, "--function");
    let view = flag_value(args, "--view").unwrap_or("safetsa");
    for f in &module.functions {
        if let Some(w) = wanted {
            if f.name != w {
                continue;
            }
        }
        println!("================ {} ================", f.name);
        let text = match view {
            "plain" => safetsa_core::pretty::plain_ssa(&module.types, f),
            "lr" => safetsa_core::pretty::reference_safe(&module.types, f),
            "planes" => safetsa_core::pretty::machine_model(&module.types, f),
            "safetsa" => safetsa_core::pretty::safetsa(&module.types, f),
            other => return Err(format!("unknown view `{other}`").into()),
        };
        print!("{text}");
        println!();
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> ExitCode {
    match run_analyze(args) {
        Ok(false) => ExitCode::SUCCESS,
        // Error-severity diagnostics: nonzero, but distinct from the
        // exit 2 an unbuildable input produces.
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("safetsa: {e}");
            ExitCode::from(2)
        }
    }
}

/// Lints the unoptimized IR of the given sources. Returns whether any
/// error-severity diagnostic was reported.
fn run_analyze(args: &[String]) -> Result<bool, Error> {
    let json = args.iter().any(|a| a == "--json");
    let sources = positional(args);
    if sources.is_empty() {
        return Err("no input files".into());
    }
    // The linter reads the freshly lowered module: diagnostics point at
    // what the programmer wrote, not at what the optimizer left behind.
    let built = build_module(&sources, &Pipeline::new().no_optimize())?;
    let diags = safetsa_analysis::lint_module(&built.module);
    let count = |s: safetsa_analysis::Severity| diags.iter().filter(|d| d.severity == s).count();
    let errors = count(safetsa_analysis::Severity::Error);
    let warnings = count(safetsa_analysis::Severity::Warning);
    let notes = count(safetsa_analysis::Severity::Note);
    if json {
        let mut doc = Json::obj();
        doc.set("schema", Json::Str("safetsa-analyze/1".into()));
        let subject: Vec<&str> = sources.iter().map(|s| s.as_str()).collect();
        doc.set("subject", Json::Str(subject.join(" ")));
        doc.set("errors", Json::U64(errors as u64));
        doc.set("warnings", Json::U64(warnings as u64));
        doc.set("notes", Json::U64(notes as u64));
        let items = diags
            .iter()
            .map(|d| {
                let mut o = Json::obj();
                o.set("severity", Json::Str(d.severity.name().into()));
                o.set("kind", Json::Str(d.kind.into()));
                o.set("function", Json::Str(d.function.clone()));
                o.set("block", Json::U64(u64::from(d.block.0)));
                o.set("instr", d.instr.map_or(Json::Null, |i| Json::U64(i as u64)));
                o.set("message", Json::Str(d.message.clone()));
                o
            })
            .collect();
        doc.set("diagnostics", Json::Arr(items));
        print!("{}", doc.render_pretty());
    } else {
        for d in &diags {
            let site = match d.instr {
                Some(i) => format!("{} instr {i}", d.block),
                None => format!("{}", d.block),
            };
            println!(
                "{}: {} {}: [{}] {}",
                d.severity.name(),
                d.function,
                site,
                d.kind,
                d.message
            );
        }
        println!(
            "{} error{}, {} warning{}, {} note{}",
            errors,
            if errors == 1 { "" } else { "s" },
            warnings,
            if warnings == 1 { "" } else { "s" },
            notes,
            if notes == 1 { "" } else { "s" },
        );
    }
    Ok(errors > 0)
}

fn cmd_verify(args: &[String]) -> Result<(), Error> {
    let files = positional(args);
    let file = files.first().ok_or("no input file")?;
    if !file.ends_with(".tsa") {
        return Err(format!("{file}: expected a .tsa module").into());
    }
    let bytes = std::fs::read(file.as_str()).map_err(|e| format!("{file}: {e}"))?;
    let host = safetsa_codec::HostEnv::standard();
    // Decode *without* the bundled verification so a verifier rejection
    // surfaces as the structured `VerifyError`, not a decode error.
    let module = safetsa_codec::decode_module(&bytes, &host)?;
    let stats = safetsa_core::verify::verify_module(&module)?;
    println!(
        "{file}: OK ({} bytes, {} functions; verified {} instructions, {} phis, {} operand references)",
        bytes.len(),
        module.functions.len(),
        stats.instrs,
        stats.phis,
        stats.operands
    );
    Ok(())
}

/// SIGINT/SIGTERM handling without a libc dependency: a raw binding to
/// the C `signal(2)` entry point installs a handler that flips one
/// static flag — the only async-signal-safe thing a handler may do.
/// The daemon's accept loop polls the flag and drains.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::Relaxed);
    }

    pub fn install() {
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

/// Collects every value of a repeatable flag (`--tenant A:... --tenant
/// B:...`).
fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

/// Parses a `NAME:key=value,...` tenant specification. Keys: `fuel`,
/// `heap`, `depth`, `deadline_ms`, `source_bytes`; `0` means unlimited
/// for the resource keys. Unspecified keys inherit the default tenant.
fn parse_tenant(spec: &str, base: TenantProfile) -> Result<(String, TenantProfile), Error> {
    let (name, rest) = spec
        .split_once(':')
        .ok_or_else(|| format!("--tenant {spec}: expected NAME:key=value,..."))?;
    if name.is_empty() {
        return Err(format!("--tenant {spec}: empty tenant name").into());
    }
    let mut profile = base;
    for pair in rest.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("--tenant {spec}: `{pair}` is not key=value"))?;
        let n: u64 = value
            .parse()
            .map_err(|e| format!("--tenant {spec}: {key}: {e}"))?;
        let opt = |n: u64| if n == 0 { None } else { Some(n) };
        match key {
            "fuel" => profile.fuel = opt(n),
            "heap" => profile.max_heap_bytes = opt(n),
            "depth" => {
                profile.max_call_depth = match opt(n) {
                    None => None,
                    Some(n) => Some(
                        u32::try_from(n)
                            .map_err(|_| format!("--tenant {spec}: depth too large"))?,
                    ),
                }
            }
            "deadline_ms" => profile.max_deadline_ms = n,
            "source_bytes" => {
                profile.max_source_bytes = usize::try_from(n)
                    .map_err(|_| format!("--tenant {spec}: source_bytes too large"))?
            }
            other => return Err(format!("--tenant {spec}: unknown key `{other}`").into()),
        }
    }
    Ok((name.to_string(), profile))
}

fn cmd_serve(args: &[String]) -> Result<(), Error> {
    let tcp = flag_value(args, "--tcp");
    let socket = flag_value(args, "--socket");
    let bind = match (tcp, socket) {
        (Some(_), Some(_)) => {
            return Err("--tcp and --socket are mutually exclusive".into());
        }
        #[cfg(unix)]
        (None, Some(path)) => BindAddr::Unix(PathBuf::from(path)),
        #[cfg(not(unix))]
        (None, Some(_)) => {
            return Err("--socket requires a Unix platform".into());
        }
        (tcp, None) => BindAddr::Tcp(tcp.unwrap_or("127.0.0.1:7433").to_string()),
    };
    let mut default_tenant = TenantProfile::default();
    let opt = |n: u64| if n == 0 { None } else { Some(n) };
    if let Some(fuel) = parse_flag(args, "--fuel")? {
        default_tenant.fuel = opt(fuel);
    }
    if let Some(heap) = parse_flag(args, "--max-heap")? {
        default_tenant.max_heap_bytes = opt(heap);
    }
    if let Some(depth) = parse_flag::<u32>(args, "--max-depth")? {
        default_tenant.max_call_depth = if depth == 0 { None } else { Some(depth) };
    }
    if let Some(ms) = parse_flag(args, "--max-deadline-ms")? {
        default_tenant.max_deadline_ms = ms;
    }
    if let Some(bytes) = parse_flag(args, "--max-source-bytes")? {
        default_tenant.max_source_bytes = bytes;
    }
    let tenants = flag_values(args, "--tenant")
        .into_iter()
        .map(|spec| parse_tenant(spec, default_tenant))
        .collect::<Result<Vec<_>, _>>()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let cfg = ServerConfig {
        bind,
        workers: parse_flag(args, "--workers")?.unwrap_or(0),
        queue_capacity: parse_flag(args, "--queue")?.unwrap_or(64),
        default_tenant,
        tenants,
        cache_dir: flag_value(args, "--cache-dir").map(PathBuf::from),
        chaos: args.iter().any(|a| a == "--chaos"),
        allow_remote_shutdown: !args.iter().any(|a| a == "--no-remote-shutdown"),
        shutdown: Arc::clone(&shutdown),
    };
    let metrics_path = flag_value(args, "--metrics-json");
    let trace_path = flag_value(args, "--trace-json");
    let server = Server::bind(cfg)?;
    println!("serve: listening on {}", server.local_addr());

    #[cfg(unix)]
    {
        sig::install();
        // Bridge the handler's static flag into the server's shutdown
        // flag; the thread dies with the process after the drain.
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || loop {
            if sig::SHUTDOWN.load(Ordering::Relaxed) {
                shutdown.store(true, Ordering::Relaxed);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
    }

    let summary = server.run();
    let stats = &summary.stats;
    let count = |key: &str| stats.get(key).and_then(Json::as_u64).unwrap_or(0);
    eprintln!(
        "serve: drained; {} completed ({} ok, {} errors), {} shed, {} panics isolated",
        count("completed"),
        count("ok"),
        count("errors"),
        count("shed"),
        count("panics_isolated"),
    );
    if let Some(path) = metrics_path {
        let mut doc = Json::obj();
        doc.set("schema", Json::Str("safetsa-serve-metrics/1".into()));
        doc.set("stats", summary.stats);
        write_metrics(path, &doc)?;
    }
    if let Some(path) = trace_path {
        std::fs::write(path, summary.trace.render_pretty())
            .map_err(|e| Error::from(format!("{path}: {e}")))?;
    }
    Ok(())
}

fn ns(tm: &Telemetry, key: &str) -> u64 {
    tm.counter(key).unwrap_or(0)
}

fn cmd_stats(args: &[String]) -> Result<(), Error> {
    let files = positional(args);
    if files.is_empty() {
        return Err("no input files".into());
    }
    let pipeline = Pipeline::new().telemetry(Telemetry::enabled());
    let texts: Vec<String> = files
        .iter()
        .map(|p| read_source(p))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let prog = pipeline.frontend(&refs)?;
    let lowered = pipeline.lower(&prog)?;
    let cons = lowered.totals();
    let mut module = lowered.module;
    let unopt_bytes = safetsa_codec::encode_module(&module)?.len();
    let unopt_instrs = module.instr_count() + module.phi_count();
    let stats = pipeline.optimize(&mut module);
    let (opt_bytes, sections) = safetsa_codec::encode_sections(&module)?;
    safetsa_codec::record_sections(&sections, pipeline.metrics());
    let opt_bytes = opt_bytes.len();
    let mut bcode = safetsa_baseline::compile::compile_program(&prog);
    safetsa_baseline::verify::verify_program(&prog, &mut bcode)
        .map_err(|e| format!("baseline verify: {e}"))?;
    let class_bytes = safetsa_baseline::classfile::total_size(&prog, &bcode);
    println!(
        "Java bytecode : {:>7} instructions, {:>8} bytes",
        bcode.instr_count(),
        class_bytes
    );
    println!(
        "SafeTSA       : {:>7} instructions, {:>8} bytes",
        unopt_instrs, unopt_bytes
    );
    println!(
        "SafeTSA (opt) : {:>7} instructions, {:>8} bytes",
        module.instr_count() + module.phi_count(),
        opt_bytes
    );
    println!(
        "checks        : null {} -> {}, bounds {} -> {}",
        stats.null_checks_before,
        stats.null_checks_after,
        stats.index_checks_before,
        stats.index_checks_after
    );
    println!(
        "construction  : {} phis placed ({} naive candidates avoided)",
        cons.phis_inserted,
        cons.phis_candidate - cons.phis_inserted
    );
    let tm = pipeline.metrics();
    println!(
        "phases        : lex {}us, parse {}us, sema {}us, lower {}us, opt {}us",
        ns(tm, "frontend.lex_ns") / 1000,
        ns(tm, "frontend.parse_ns") / 1000,
        ns(tm, "frontend.sema_ns") / 1000,
        ns(tm, "ssa.lower_ns") / 1000,
        ns(tm, "opt.optimize_ns") / 1000,
    );
    println!(
        "passes        : constprop -{}, cse -{}, loadfwd -{}, dse -{}, dce -{}",
        stats.removed_by_constprop,
        stats.removed_by_cse,
        stats.removed_by_loadfwd,
        stats.removed_by_dse,
        stats.removed_by_dce
    );
    let total = sections.total_bits().max(1);
    println!(
        "encoded (opt) : type table {}b, consts {}b, cst {}b, instrs {}b, operand refs {}b, cst refs {}b, phi refs {}b",
        sections.type_table_bits,
        sections.const_pool_bits,
        sections.cst_bits,
        sections.instr_bits,
        sections.operand_ref_bits,
        sections.cst_ref_bits,
        sections.phi_ref_bits,
    );
    println!(
        "              : references {}% of stream, size ratio vs class file {}%",
        (sections.operand_ref_bits + sections.cst_ref_bits + sections.phi_ref_bits) * 100 / total,
        (opt_bytes * 100).checked_div(class_bytes).unwrap_or(0)
    );
    // Consumer-side dynamics: execute the program's main (when it has
    // one) and report what the threaded core did with it — inline-cache
    // effectiveness and how much of the executed instruction stream the
    // fused superinstructions covered.
    match module.functions.iter().find(|f| f.name.ends_with(".main")) {
        Some(f) => {
            let entry = f.name.clone();
            let mut vm = safetsa_vm::Vm::load(&module).map_err(Error::Vm)?;
            vm.set_fuel(1_000_000_000);
            vm.enable_stats();
            // A trap or exhaustion still leaves the dynamic counters
            // valid, so the report prints either way.
            let _ = vm.run_entry(&entry);
            let lookups = vm.icache_hits() + vm.icache_misses();
            let hit_pct = if lookups == 0 {
                100.0
            } else {
                vm.icache_hits() as f64 * 100.0 / lookups as f64
            };
            let fused_execs: u64 = vm.stats().fused.values().sum();
            // Each fused execution stands for two original instructions.
            let original_ops = vm.steps + fused_execs;
            let coverage = if original_ops == 0 {
                0.0
            } else {
                2.0 * fused_execs as f64 * 100.0 / original_ops as f64
            };
            println!(
                "execution     : {entry}: {} steps, icache {}/{} hits = {:.1}%",
                vm.steps,
                vm.icache_hits(),
                lookups,
                hit_pct
            );
            let mut pairs: Vec<(&str, u64)> =
                vm.stats().fused.iter().map(|(k, v)| (*k, *v)).collect();
            pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            let top: Vec<String> = pairs
                .iter()
                .take(4)
                .map(|(k, v)| format!("{k} x{v}"))
                .collect();
            println!(
                "fused pairs   : {fused_execs} executions covering {coverage:.1}% of ops ({})",
                if top.is_empty() {
                    "none".to_string()
                } else {
                    top.join(", ")
                }
            );
        }
        None => println!("execution     : no .main entry; dynamic stats unavailable"),
    }
    Ok(())
}
