//! Golden test for `--trace-json` (`safetsa-trace/1`) schema stability.
//!
//! Mirrors `tests/metrics_schema.rs` for the tracing plane: drives the
//! CLI's batch-compile and run paths with `--trace-json`, asserts the
//! output is a well-formed Chrome `trace_event` document (every event
//! carries `name`/`cat`/`ph`/`ts`/`pid`/`tid`/`args`, complete events
//! carry `dur`), that the expected spans are all present — every
//! pipeline stage, every cache probe, every batch worker — and that the
//! set of *event shapes* (phase + name + argument keys) matches the
//! checked-in golden files. Timestamps and durations are the only
//! run-dependent members, and they never appear in a shape. Regenerate
//! with `UPDATE_GOLDEN=1 cargo test --test trace_schema` after an
//! intentional schema change.
//!
//! It also pins the registry's zero-overhead preconditions on the real
//! stage spans of `Pipeline`: a disabled registry records nothing, and
//! tracing adds spans without touching the metrics plane.

use safetsa::server::json;
use safetsa::Pipeline;
use safetsa_telemetry::{Json, Telemetry};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_safetsa"))
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, lines: &[String]) {
    let path = golden_path(name);
    let actual = lines.join("\n") + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDEN=1 cargo test --test trace_schema",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "trace event shapes drifted from {}; if intentional, regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

/// Runs `safetsa <args> --trace-json` and parses the document.
fn trace_doc(dir: &std::path::Path, args: &[&str], out_name: &str) -> Json {
    let out = dir.join(out_name);
    let mut full: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    full.push("--trace-json".into());
    full.push(out.to_str().unwrap().into());
    let st = cli().args(&full).output().unwrap();
    assert!(
        st.status.success(),
        "safetsa {args:?}: {}",
        String::from_utf8_lossy(&st.stderr)
    );
    let text = std::fs::read_to_string(&out).unwrap();
    json::parse(&text).expect("trace document parses as JSON")
}

fn events(doc: &Json) -> &[Json] {
    match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("trace document without traceEvents: {other:?}"),
    }
}

fn str_of<'a>(v: Option<&'a Json>, what: &str) -> &'a str {
    match v {
        Some(Json::Str(s)) => s,
        other => panic!("{what} is not a string: {other:?}"),
    }
}

/// Chrome `trace_event` validity: the members `chrome://tracing` and
/// Perfetto require, on every single event.
fn assert_valid_chrome(doc: &Json) {
    assert_eq!(
        doc.get("schema"),
        Some(&Json::Str("safetsa-trace/1".into()))
    );
    assert!(doc.get("displayTimeUnit").is_some());
    for e in events(doc) {
        let name = str_of(e.get("name"), "event name");
        let ph = str_of(e.get("ph"), "event ph");
        assert!(
            ph == "X" || ph == "i",
            "event `{name}` has unexpected phase {ph}"
        );
        assert_eq!(e.get("cat"), Some(&Json::Str("safetsa".into())));
        for member in ["ts", "pid", "tid", "args"] {
            assert!(e.get(member).is_some(), "event `{name}` lacks `{member}`");
        }
        if ph == "X" {
            assert!(e.get("dur").is_some(), "span `{name}` lacks `dur`");
        }
    }
}

/// The deterministic silhouette of one event: phase, name, and sorted
/// argument keys — everything except the wall-clock plane.
fn event_shapes(doc: &Json) -> Vec<String> {
    let mut shapes = BTreeSet::new();
    for e in events(doc) {
        let name = str_of(e.get("name"), "event name");
        let ph = str_of(e.get("ph"), "event ph");
        let mut keys: Vec<&str> = match e.get("args") {
            Some(Json::Obj(members)) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("event `{name}` args not an object: {other:?}"),
        };
        keys.sort_unstable();
        shapes.insert(format!("{ph} {name} args[{}]", keys.join(",")));
    }
    shapes.into_iter().collect()
}

fn names(doc: &Json) -> Vec<String> {
    events(doc)
        .iter()
        .map(|e| str_of(e.get("name"), "event name").to_string())
        .collect()
}

#[test]
fn batch_compile_trace_covers_stages_probes_and_workers() {
    let programs = safetsa_bench::corpus();
    let dir = std::env::temp_dir().join("safetsa-trace-schema");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("out")).unwrap();
    let mut srcs = Vec::new();
    for entry in programs.iter().take(3) {
        let p = dir.join(format!("{}.java", entry.name));
        std::fs::write(&p, entry.source).unwrap();
        srcs.push(p);
    }
    let cache = dir.join("cache");
    let mut args: Vec<&str> = vec!["compile"];
    let src_strs: Vec<String> = srcs.iter().map(|p| p.to_str().unwrap().into()).collect();
    args.extend(src_strs.iter().map(String::as_str));
    let out_dir = dir.join("out");
    args.extend(["-o", out_dir.to_str().unwrap(), "--jobs", "2"]);
    args.extend(["--cache-dir", cache.to_str().unwrap()]);

    let cold = trace_doc(&dir, &args, "cold.json");
    assert_valid_chrome(&cold);
    let names = names(&cold);
    // One batch root, one span per worker, one task + cache probe per
    // input, and every compile stage for every (cold) input.
    assert_eq!(names.iter().filter(|n| *n == "batch").count(), 1);
    assert_eq!(names.iter().filter(|n| *n == "worker").count(), 2);
    assert_eq!(names.iter().filter(|n| *n == "task").count(), 3);
    assert_eq!(names.iter().filter(|n| *n == "cache.probe").count(), 3);
    assert_eq!(names.iter().filter(|n| *n == "cache.probe.done").count(), 3);
    for stage in [
        "compile", "frontend", "lower", "optimize", "verify", "encode",
    ] {
        assert_eq!(
            names.iter().filter(|n| *n == stage).count(),
            3,
            "stage `{stage}` missing from some task"
        );
    }

    // Warm rerun: tasks and probes still traced, stages skipped.
    let warm = trace_doc(&dir, &args, "warm.json");
    assert_valid_chrome(&warm);
    let hits = events(&warm)
        .iter()
        .filter(|e| {
            e.get("name") == Some(&Json::Str("cache.probe.done".into()))
                && e.get("args").and_then(|a| a.get("hit")) == Some(&Json::Bool(true))
        })
        .count();
    assert_eq!(hits, 3, "warm probes must report hit=true");

    check_golden("trace_compile_jobs_events.txt", &event_shapes(&cold));
}

#[test]
fn run_trace_shape_is_stable() {
    let entry = safetsa_bench::corpus()
        .into_iter()
        .find(|e| e.name == "QuickSort")
        .expect("QuickSort in corpus");
    let dir = std::env::temp_dir().join("safetsa-trace-schema-run");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("QuickSort.java");
    std::fs::write(&src, entry.source).unwrap();

    let doc = trace_doc(
        &dir,
        &["run", src.to_str().unwrap(), "--entry", entry.entry],
        "run.json",
    );
    assert_valid_chrome(&doc);
    let names = names(&doc);
    for span in ["compile", "frontend", "vm.load", "vm.run"] {
        assert!(names.iter().any(|n| n == span), "missing `{span}` span");
    }
    check_golden("trace_run_events.txt", &event_shapes(&doc));
}

/// Compiles and encodes `src` through `Pipeline` on `tm` and hands the
/// registry back.
fn compile_on(src: &str, tm: Telemetry) -> Telemetry {
    let pipeline = Pipeline::new().telemetry(tm);
    let module = pipeline
        .compile_source(src)
        .expect("corpus program compiles");
    pipeline.encode(&module).expect("corpus program encodes");
    pipeline.into_metrics()
}

/// The zero-overhead contract, stated as preconditions rather than a
/// timing: a disabled registry records no metric and no span, so every
/// recording call is only a branch; and a tracing registry records the
/// stage spans while exporting exactly the counter and histogram lines
/// of a metrics-only registry. Timer lines (`t name ns`) are compared
/// by name only, since their values are wall clock.
#[test]
fn zero_overhead_preconditions_hold_on_pipeline_stages() {
    let entry = safetsa_bench::corpus()
        .into_iter()
        .find(|e| e.name == "QuickSort")
        .expect("QuickSort in corpus");

    let disabled = compile_on(entry.source, Telemetry::disabled());
    assert_eq!(
        disabled.export_flat(),
        "",
        "disabled registry must record no metric"
    );
    assert!(
        disabled.trace_spans().is_empty(),
        "disabled registry must record no span"
    );

    let traced = compile_on(entry.source, Telemetry::with_trace());
    let plain = compile_on(entry.source, Telemetry::enabled());
    let metrics_plane = |tm: &Telemetry| -> Vec<String> {
        tm.export_flat()
            .lines()
            .map(|line| {
                if line.starts_with("t ") {
                    line.rsplit_once(' ')
                        .map_or(line, |(key, _ns)| key)
                        .to_string()
                } else {
                    line.to_string()
                }
            })
            .collect()
    };
    assert_eq!(
        metrics_plane(&traced),
        metrics_plane(&plain),
        "tracing must not perturb the metrics plane"
    );
    assert!(
        plain.trace_spans().is_empty(),
        "a metrics-only registry must not trace"
    );
    let spans: BTreeSet<String> = traced.trace_spans().into_iter().map(|s| s.name).collect();
    for stage in [
        "compile", "frontend", "lower", "optimize", "verify", "encode",
    ] {
        assert!(
            spans.contains(stage),
            "tracing registry recorded no `{stage}` span"
        );
    }
}
