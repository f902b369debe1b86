//! Determinism of the parallel batch driver.
//!
//! The batch driver's contract is that scheduling never shows: the
//! encoded `.tsa` bytes and every non-timer metric must be identical
//! whether the corpus is compiled on one worker or eight, and a
//! warm-cache run must replay the *exact* artifacts and registries the
//! cold run produced. Likewise, nothing one compile leaves behind in the
//! process (the shared builtin classes, reused buffers) may change the
//! next one.

use safetsa::batch::{run_batch, BatchInput, BatchOptions};
use safetsa::driver::passes_fingerprint;
use safetsa::opt::Passes;
use safetsa::{Error, Pipeline};
use safetsa_telemetry::Telemetry;

fn corpus_inputs() -> Vec<BatchInput> {
    safetsa_bench::corpus()
        .iter()
        .map(|e| BatchInput {
            name: e.name.to_string(),
            source: e.source.to_string(),
        })
        .collect()
}

fn options(jobs: usize) -> BatchOptions {
    let mut opts = BatchOptions::new(format!("test/{}", passes_fingerprint(&Passes::ALL)));
    opts.jobs = jobs;
    opts.telemetry = true;
    opts
}

/// One batch task: the full producer pipeline on the driver-provided
/// per-task registry.
fn compile_task(
    _idx: usize,
    input: &BatchInput,
    tm: Telemetry,
) -> Result<(Vec<u8>, Telemetry), Error> {
    let pipeline = Pipeline::new().telemetry(tm);
    let module = pipeline.compile_source(&input.source)?;
    let bytes = pipeline.encode(&module)?;
    Ok((bytes, pipeline.into_metrics()))
}

/// A registry's flat serialization with the wall-clock timers and the
/// worker count dropped — everything that must be
/// scheduling-independent.
fn deterministic_flat(tm: &Telemetry) -> String {
    tm.export_flat()
        .lines()
        .filter(|l| !l.starts_with("t ") && !l.starts_with("c driver.jobs "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Sources that fail at different stages, after the builtins and the
/// front end's buffers are in use.
const FAILING: [&str; 3] = [
    "class Bad { static int f() { return 1 + ; } }",
    "class Bad extends Object { int g() { return this.missing; } }",
    "class Bad { static int f(int x) { String s = x; return 0; } }",
];

#[test]
fn repeated_compiles_in_one_process_are_byte_identical() {
    let compile = |src: &str| {
        let pipeline = Pipeline::new();
        pipeline
            .compile_source(src)
            .and_then(|m| pipeline.encode(&m))
    };
    let corpus = safetsa_bench::corpus();
    let first: Vec<Vec<u8>> = corpus
        .iter()
        .map(|p| compile(p.source).unwrap_or_else(|e| panic!("{}: {e}", p.name)))
        .collect();
    for (i, (p, tsa)) in corpus.iter().zip(&first).enumerate().rev() {
        let bad = FAILING[i % FAILING.len()];
        assert!(compile(bad).is_err(), "{bad} compiled");
        let again = compile(p.source).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        assert!(
            again == *tsa,
            "{}: the second compile in this process differs from the first",
            p.name
        );
    }
}

#[test]
fn corpus_bytes_identical_serial_vs_parallel() {
    let inputs = corpus_inputs();
    let serial = run_batch(&inputs, &options(1), compile_task).unwrap();
    let parallel = run_batch(&inputs, &options(8), compile_task).unwrap();
    assert_eq!(serial.jobs, 1);
    assert_eq!(parallel.jobs, 8);
    assert_eq!(serial.items.len(), inputs.len());
    for (a, b) in serial.items.iter().zip(&parallel.items) {
        assert_eq!(a.name, b.name, "batch reordered outputs");
        assert_eq!(
            a.bytes, b.bytes,
            "{}: .tsa bytes differ across jobs",
            a.name
        );
        assert_eq!(
            deterministic_flat(&a.metrics),
            deterministic_flat(&b.metrics),
            "{}: per-task metrics differ across jobs",
            a.name
        );
    }
    assert_eq!(
        deterministic_flat(&serial.merged),
        deterministic_flat(&parallel.merged),
        "merged metrics depend on scheduling"
    );
}

#[test]
fn warm_cache_replays_identical_artifacts_and_metrics() {
    let dir = std::env::temp_dir().join(format!("safetsa-batch-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let inputs = corpus_inputs();
    let mut opts = options(4);
    opts.cache_dir = Some(dir.clone());
    let cold = run_batch(&inputs, &opts, compile_task).unwrap();
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.cache_misses, inputs.len() as u64);
    let warm = run_batch(&inputs, &opts, compile_task).unwrap();
    assert_eq!(warm.cache_hits, inputs.len() as u64);
    assert_eq!(warm.cache_misses, 0);
    for (a, b) in cold.items.iter().zip(&warm.items) {
        assert!(b.cache_hit, "{}: expected a cache hit", b.name);
        assert_eq!(a.bytes, b.bytes, "{}: cached bytes differ", a.name);
        // The replayed registry is the original, timers included.
        assert_eq!(
            a.metrics.export_flat(),
            b.metrics.export_flat(),
            "{}: cached metrics differ",
            a.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_per_program_sections_identical_across_jobs() {
    let (serial, serial_batch) = safetsa_bench::corpus_report(1, None);
    let (parallel, parallel_batch) = safetsa_bench::corpus_report(4, None);
    assert_eq!(serial_batch.jobs, 1);
    assert_eq!(parallel_batch.jobs, 4);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.opt_size, b.opt_size, "{}: opt_size differs", a.name);
        assert_eq!(a.class_size, b.class_size, "{}: class_size differs", a.name);
        assert_eq!(a.steps, b.steps, "{}: vm steps differ", a.name);
        assert_eq!(
            a.checks_eliminated, b.checks_eliminated,
            "{}: eliminated-check count differs",
            a.name
        );
        assert_eq!(
            a.json.render_pretty(),
            b.json.render_pretty(),
            "{}: per-program metrics document differs across jobs",
            a.name
        );
    }
}
