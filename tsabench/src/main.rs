//! `tsabench`: the SafeTSA benchmark.
//!
//! Five closed-loop workloads time the system from outside, through the
//! public entry points of the repository's crates: `compile` (producer),
//! `load` (decode, verify, `Vm::load`), `run` (load plus execute),
//! `serve` (requests to an in-process daemon) and `edit` (warm
//! one-method rebuilds through the incremental store). See README.md.
//!
//! ```text
//! tsabench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!          [--repeat N] [--json PATH] [--spans PATH]
//! ```
//!
//! With `--workload NAME` (and no `--repeat`) one workload runs in this
//! process, and the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Otherwise every
//! selected workload runs `--repeat` times, each run in a child process
//! of its own, and a table of medians and quartiles is printed.

mod corpus;
mod stats;
mod trace;
mod workload;

use safetsa_telemetry::Json;
use stats::{percentile, quartiles};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workload::{Fixture, Workload, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// End-to-end metrics, reported with `--trace 0` on every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("p50_ms_geomean", "ms"),
    ("peak_rss_mb", "MiB"),
    ("tsa_bytes", "bytes"),
];

/// Per-layer metrics, reported with `--trace 1` on every workload.
const PER_LAYER: [(&str, &str); 42] = [
    ("frontend.lex.ms", "ms"),
    ("frontend.lex.tokens", "count"),
    ("frontend.parse.ms", "ms"),
    ("frontend.parse.nodes", "count"),
    ("frontend.sema.ms", "ms"),
    ("ssa.construct.ms", "ms"),
    ("ssa.construct.instrs", "count"),
    ("opt.constprop.ms", "ms"),
    ("opt.cse.ms", "ms"),
    ("opt.checkelim.ms", "ms"),
    ("opt.loadfwd.ms", "ms"),
    ("opt.dse.ms", "ms"),
    ("opt.dce.ms", "ms"),
    ("opt.constprop.useful_ratio", "ratio"),
    ("opt.cse.useful_ratio", "ratio"),
    ("opt.checkelim.useful_ratio", "ratio"),
    ("opt.loadfwd.useful_ratio", "ratio"),
    ("opt.dse.useful_ratio", "ratio"),
    ("opt.dce.useful_ratio", "ratio"),
    ("opt.rounds", "count"),
    ("core.verify.ms", "ms"),
    ("codec.encode.ms", "ms"),
    ("codec.encode.bytes", "bytes"),
    ("codec.decode.ms", "ms"),
    ("codec.decode.bytes", "bytes"),
    ("vm.load.ms", "ms"),
    ("vm.execute.ms", "ms"),
    ("vm.execute.steps", "count"),
    ("vm.icache.hit_ratio", "ratio"),
    ("driver.frontend.ms", "ms"),
    ("driver.lower.ms", "ms"),
    ("driver.optimize.ms", "ms"),
    ("driver.verify.ms", "ms"),
    ("driver.encode.ms", "ms"),
    ("driver.store.units", "count"),
    ("driver.store.hit_ratio", "ratio"),
    ("server.daemon.p50_ms", "ms"),
    ("server.daemon.p99_ms", "ms"),
    ("server.outside_daemon.p50_ms", "ms"),
    ("op.p50_ms_geomean", "ms"),
    ("op.p97.5_ms", "ms"),
    ("bench.calibration_ms", "ms"),
];

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    json: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        repeat: None,
        json: None,
        spans: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n == 0 {
                    return Err("--repeat must be at least 1".into());
                }
                a.repeat = Some(n);
            }
            "--json" => a.json = Some(value()?.into()),
            "--spans" => a.spans = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// One workload run's result.
#[derive(Debug)]
struct Outcome {
    workload: Workload,
    trace: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    first_failures: Vec<String>,
    spans: Option<(Json, Json)>,
    /// Median of the calibration kernel over the timed loop, ms.
    calibration_ms: f64,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    fn result_line(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, value, unit) in &self.metrics {
            let mut m = Json::obj();
            m.set("value", Json::F64(*value));
            m.set("unit", Json::Str((*unit).into()));
            metrics.set(name, m);
        }
        let mut o = Json::obj();
        o.set("correct", Json::Bool(self.correct()));
        o.set("attempted", Json::U64(self.attempted));
        o.set("failed", Json::U64(self.failed));
        o.set("metrics", metrics);
        o
    }
}

fn inputs_tag() -> String {
    format!("fnv1a64:{:016x}", corpus::digest())
}

/// Runs one workload in this process: `setups` set-ups, then the loop,
/// then (traced) one census pass of every other workload so that each
/// layer has a number even where this workload's ops do not reach it.
fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setups: usize,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(setups);
    let mut fixture: Option<Fixture> = None;
    for _ in 0..setups.max(1) {
        drop(fixture.take());
        let t0 = Instant::now();
        fixture = Some(workload::setup(w)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut fx = fixture.expect("at least one set-up");
    // Earlier runs' file writes (the edit store) must not land inside
    // this run's measurement.
    flush_filesystems();
    let (mut attempted, mut failed, mut first_failures) = (0, 0, Vec::new());
    let mut tally = |s: &mut workload::Sample| {
        attempted += s.attempted;
        failed += s.failed;
        first_failures.append(&mut s.first_failures);
    };
    // One untimed pass warms caches and lazy state; peak memory is read
    // after it, before the timed loop's own bookkeeping grows with the
    // number of ops.
    let peak_rss_mb = if trace {
        f64::NAN
    } else {
        tally(&mut workload::run(
            w,
            &mut fx,
            0.0,
            !seed,
            &mut Tracer::new(false),
        )?);
        stats::peak_rss_mib()
    };
    let mut tracer = Tracer::new(trace);
    let mut sample = workload::run(w, &mut fx, seconds, seed, &mut tracer)?;
    tally(&mut sample);

    // Times of CPU-bound work are scaled to the reference host's speed,
    // measured by the calibration kernel during this run's loop.
    let calibration = stats::median(&sample.calibration_ms);
    let speed = stats::REFERENCE_CALIBRATION_MS / calibration;
    let op_speed = if w.cpu_bound() { speed } else { 1.0 };
    let (metrics, spans) = if trace {
        let mut census = Tracer::new(true);
        for other in WORKLOADS.into_iter().filter(|o| *o != w) {
            tally(&mut workload::run(other, &mut fx, 0.0, seed, &mut census)?);
        }
        let mut layers = census.layer_metrics();
        layers.extend(tracer.layer_metrics());
        layers.insert("op.p50_ms_geomean".into(), sample.p50_geomean_ms());
        layers.insert("op.p97.5_ms".into(), percentile(&sample.pooled(), 0.975));
        let scale = |name: &str| {
            if name.starts_with("op.") {
                op_speed
            } else if name.ends_with(".ms") && !name.starts_with("server.") {
                speed
            } else {
                1.0
            }
        };
        layers.insert("bench.calibration_ms".into(), calibration);
        let metrics = PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = layers.get(*name).map_or(f64::NAN, |v| v * scale(name));
                (*name, v, *unit)
            })
            .collect();
        (metrics, Some((tracer.spans_json(), census.spans_json())))
    } else {
        let value = |name: &str| match name {
            "setup_s" => stats::median(&setup_s) * speed,
            "ops_per_s" => sample.ops_per_s() / op_speed,
            "p50_ms_geomean" => sample.p50_geomean_ms() * op_speed,
            "peak_rss_mb" => peak_rss_mb,
            "tsa_bytes" => fx.tsa_bytes() as f64,
            _ => unreachable!("END_TO_END names"),
        };
        let metrics = END_TO_END.iter().map(|(n, u)| (*n, value(n), *u)).collect();
        (metrics, None)
    };
    first_failures.truncate(5);
    drop(fx);
    flush_filesystems();
    Ok(Outcome {
        workload: w,
        trace,
        attempted,
        failed,
        metrics,
        first_failures,
        spans,
        calibration_ms: calibration,
    })
}

/// Writes every dirty page back to disk, so that one run's file writes
/// are not flushed in the middle of the next run.
fn flush_filesystems() {
    #[cfg(unix)]
    {
        extern "C" {
            fn sync();
        }
        // SAFETY: sync(2) takes no arguments, touches no memory of this
        // process and cannot fail.
        unsafe { sync() }
    }
}

fn outcome_json(o: &Outcome) -> Json {
    let mut doc = o.result_line();
    doc.set("workload", Json::Str(o.workload.name().into()));
    doc.set("trace", Json::Bool(o.trace));
    doc
}

fn results_doc(args: &Args, runs: Vec<Json>) -> Json {
    let mut doc = Json::obj();
    doc.set("schema", Json::Str("tsabench-results/1".into()));
    doc.set("seed", Json::U64(args.seed));
    doc.set("seconds", Json::F64(args.seconds));
    doc.set("inputs", Json::Str(inputs_tag()));
    doc.set("runs", Json::Arr(runs));
    doc
}

fn write_file(path: &PathBuf, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process; the last line printed is the result.
fn run_one(args: &Args, w: Workload) -> Result<bool, String> {
    let o = measure(w, args.seed, args.seconds, args.trace, SETUPS)?;
    println!(
        "tsabench workload={} seed={} seconds={} trace={} inputs={} attempted={} failed={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs_tag(),
        o.attempted,
        o.failed
    );
    println!(
        "  calibration kernel: median {:.4} ms here, {} ms on the reference host",
        o.calibration_ms,
        stats::REFERENCE_CALIBRATION_MS
    );
    for f in &o.first_failures {
        println!("  FAILED {f}");
    }
    for (name, value, unit) in &o.metrics {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    if let Some(path) = &args.json {
        write_file(path, &results_doc(args, vec![outcome_json(&o)]))?;
    }
    if let (Some(path), Some((spans, census))) = (&args.spans, &o.spans) {
        let mut doc = Json::obj();
        doc.set("schema", Json::Str("tsabench-spans/1".into()));
        doc.set("workload", Json::Str(w.name().into()));
        doc.set("seed", Json::U64(args.seed));
        doc.set("inputs", Json::Str(inputs_tag()));
        doc.set("spans", spans.clone());
        doc.set("census_spans", census.clone());
        write_file(path, &doc)?;
    }
    println!("{}", o.result_line().render());
    Ok(o.correct())
}

/// Runs one workload in a child process and parses its result line.
fn run_child(
    args: &Args,
    w: Workload,
    trace: bool,
    spans: Option<PathBuf>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(p) = spans {
        cmd.arg("--spans").arg(p);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("FAILED"))
    {
        eprintln!("{}: {}", w.name(), line.trim());
    }
    let last = stdout.lines().last().unwrap_or_default();
    let mut doc = safetsa_server::json::parse(last)
        .map_err(|e| format!("{}: no result line ({e}); exit {}", w.name(), out.status))?;
    doc.set("workload", Json::Str(w.name().into()));
    doc.set("trace", Json::Bool(trace));
    Ok(doc)
}

fn metric_values(doc: &Json) -> Vec<(String, f64, String)> {
    match doc.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(name, m)| {
                let value = match m.get("value") {
                    Some(Json::F64(v)) => *v,
                    Some(Json::U64(v)) => *v as f64,
                    Some(Json::I64(v)) => *v as f64,
                    _ => f64::NAN,
                };
                let unit = match m.get("unit") {
                    Some(Json::Str(u)) => u.clone(),
                    _ => String::new(),
                };
                (name.clone(), value, unit)
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Prints each metric's median, quartiles and relative spread
/// ((q3 - q1) / median) across the runs of one workload.
fn print_summary(w: Workload, label: &str, runs: &[Json]) {
    if runs.is_empty() {
        return;
    }
    let mut by_metric: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    let mut order = Vec::new();
    for doc in runs {
        for (name, value, unit) in metric_values(doc) {
            let slot = by_metric.entry(name.clone()).or_insert_with(|| {
                order.push(name.clone());
                (Vec::new(), unit)
            });
            slot.0.push(value);
        }
    }
    let failed: u64 = runs
        .iter()
        .filter_map(|d| d.get("failed").and_then(Json::as_u64))
        .sum();
    let attempted: u64 = runs
        .iter()
        .filter_map(|d| d.get("attempted").and_then(Json::as_u64))
        .sum();
    println!(
        "\n{} ({label}, {} run(s), {attempted} ops attempted, {failed} failed)",
        w.name(),
        runs.len()
    );
    println!(
        "  {:<32} {:>14} {:>14} {:>14} {:>8}  unit",
        "metric", "median", "q1", "q3", "spread"
    );
    for name in order {
        let (values, unit) = &by_metric[&name];
        let (q1, med, q3) = quartiles(values);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs() * 100.0
        } else {
            0.0
        };
        println!("  {name:<32} {med:>14.4} {q1:>14.4} {q3:>14.4} {spread:>7.2}%  {unit}");
    }
}

/// Every selected workload, `--repeat` times each, each run in a child
/// process so memory is per workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let selected: Vec<Workload> = args
        .workload
        .map_or_else(|| WORKLOADS.to_vec(), |w| vec![w]);
    let repeat = args.repeat.unwrap_or(1);
    println!(
        "tsabench seed={} seconds={} repeat={repeat} trace={} inputs={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs_tag()
    );
    let mut all = Vec::new();
    let mut ok = true;
    for w in &selected {
        let mut plain = Vec::new();
        let mut traced = Vec::new();
        for r in 0..repeat {
            let t0 = Instant::now();
            let doc = run_child(args, *w, false, None)?;
            ok &= doc.get("correct") == Some(&Json::Bool(true));
            eprintln!(
                "{} run {}/{repeat}: {:.1} s",
                w.name(),
                r + 1,
                t0.elapsed().as_secs_f64()
            );
            plain.push(doc);
            if args.trace {
                let spans = args.spans.as_ref().map(|p| {
                    let mut s = p.clone().into_os_string();
                    s.push(format!(".{}.{}.json", w.name(), r + 1));
                    PathBuf::from(s)
                });
                let doc = run_child(args, *w, true, spans)?;
                ok &= doc.get("correct") == Some(&Json::Bool(true));
                traced.push(doc);
            }
        }
        print_summary(*w, "end to end", &plain);
        if args.trace {
            print_summary(*w, "per layer, traced", &traced);
            let p50 = |docs: &[Json], key: &str| {
                let v: Vec<f64> = docs
                    .iter()
                    .flat_map(metric_values)
                    .filter(|(n, _, _)| n == key)
                    .map(|(_, v, _)| v)
                    .collect();
                stats::median(&v)
            };
            let overhead = p50(&traced, "op.p50_ms_geomean") / p50(&plain, "p50_ms_geomean") - 1.0;
            println!(
                "  tracing overhead (traced p50 / untraced p50 - 1): {:+.1}%",
                overhead * 100.0
            );
        }
        all.extend(plain);
        all.extend(traced);
    }
    if let Some(path) = &args.json {
        write_file(path, &results_doc(args, all))?;
    }
    if !ok {
        println!("\nFAILED: some operation failed; see above");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tsabench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.workload, args.repeat) {
        (Some(w), None) => run_one(&args, w),
        _ => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tsabench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn declared(spec: &Json, key: &str) -> BTreeSet<(String, String)> {
        let Some(Json::Arr(items)) = spec.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("malformed {key} entry"),
            })
            .collect()
    }

    /// Every workload at one pass, untraced and traced: no op fails and
    /// the emitted metric names and units are exactly the ones
    /// BENCHMARK.json declares, so the two cannot drift apart.
    #[test]
    fn every_workload_emits_every_declared_metric() {
        let spec = safetsa_server::json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let workloads: BTreeSet<String> = match spec.get("workloads") {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|w| match w.get("name") {
                    Some(Json::Str(n)) => Some(n.clone()),
                    _ => None,
                })
                .collect(),
            _ => panic!("no workloads"),
        };
        for name in &workloads {
            assert!(
                Workload::parse(name).is_some(),
                "BENCHMARK.json names unknown workload {name}"
            );
        }
        for w in WORKLOADS {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let o = measure(w, 1, 0.0, trace, 1).expect("workload runs");
                assert!(o.attempted >= 1, "{}", w.name());
                assert_eq!(o.failed, 0, "{}: {:?}", w.name(), o.first_failures);
                let emitted: BTreeSet<(String, String)> = o
                    .metrics
                    .iter()
                    .map(|(n, _, u)| ((*n).to_string(), (*u).to_string()))
                    .collect();
                assert_eq!(emitted, declared(&spec, key), "{} {key}", w.name());
                for (name, value, _) in &o.metrics {
                    assert!(value.is_finite(), "{} {name} = {value}", w.name());
                }
            }
        }
    }

    #[test]
    fn every_edit_needle_occurs_once() {
        for site in &corpus::EDIT_SITES {
            assert_ne!(site.apply(7), corpus::program(site.program).source);
        }
    }

    #[test]
    fn arguments_parse_as_documented() {
        let a = parse_args(
            [
                "--workload",
                "run",
                "--seed",
                "3",
                "--seconds",
                "2",
                "--trace",
                "1",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(a.workload, Some(Workload::Run));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.0, true));
        assert!(parse_args(["--trace", "yes"].into_iter().map(String::from)).is_err());
        assert!(parse_args(["--workload", "nope"].into_iter().map(String::from)).is_err());
    }
}
