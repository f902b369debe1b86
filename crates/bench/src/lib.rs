//! # safetsa-bench
//!
//! The evaluation harness: the benchmark corpus (stand-ins for the
//! paper's `sun.tools.javac`/`sun.math`/Linpack classes — see
//! DESIGN.md), the measurement pipeline, and the binaries that
//! regenerate the paper's tables:
//!
//! * `cargo run -p safetsa-bench --bin fig5` — Figure 5 (file sizes and
//!   instruction counts: Java bytecode vs SafeTSA vs optimized SafeTSA)
//! * `cargo run -p safetsa-bench --bin fig6` — Figure 6 (phi-, null-
//!   check and array-check instructions before/after optimization)
//! * `cargo run -p safetsa-bench --bin ablation` — §8's per-pass
//!   contribution breakdown (constant propagation / CSE / DCE)
//! * `cargo run -p safetsa-bench --bin verify_cost` — §9's
//!   verification-cost comparison (SafeTSA decode+verify vs JVM-style
//!   dataflow verification)
//!
//! `bench_report` writes the counts-only corpus sweep,
//! `BENCH_pipeline.json`; timings come from tsabench.

#![warn(missing_docs)]

pub mod serve;

use safetsa_baseline::{classfile, compile as bcompile, verify as bverify};
use safetsa_codec::{decode_and_verify, encode_module, HostEnv};
use safetsa_core::verify::verify_module;
use safetsa_core::Module;
use safetsa_driver::batch::{run_batch, BatchInput, BatchOptions, BatchReport};
use safetsa_driver::{passes_fingerprint, Pipeline as DriverPipeline};
use safetsa_frontend::hir::Program;
use safetsa_opt::{OptStats, Passes};
use safetsa_rt::Value;
use safetsa_ssa::{lower_program, FnStats};
use safetsa_telemetry::{Json, Telemetry};
use std::path::Path;

/// One corpus program.
#[derive(Debug, Clone, Copy)]
pub struct CorpusEntry {
    /// Display name (the Figure 5/6 row label).
    pub name: &'static str,
    /// Java-subset source text.
    pub source: &'static str,
    /// Entry point (`Class.method`).
    pub entry: &'static str,
}

macro_rules! corpus_entry {
    ($name:literal, $file:literal, $entry:literal) => {
        CorpusEntry {
            name: $name,
            source: include_str!(concat!("../corpus/", $file)),
            entry: $entry,
        }
    };
}

/// The benchmark corpus, mirroring the paper's workload categories.
pub fn corpus() -> Vec<CorpusEntry> {
    vec![
        // compiler front-end category (sun.tools.javac / sun.tools.java)
        corpus_entry!("Scanner", "Scanner.java", "Scanner.main"),
        corpus_entry!("Parser", "Parser.java", "Parser.main"),
        corpus_entry!("StateMachine", "StateMachine.java", "StateMachine.main"),
        corpus_entry!("Huffman", "Huffman.java", "Huffman.main"),
        // multiword / scaled arithmetic category (sun.math)
        corpus_entry!("BigInteger", "BigInteger.java", "Big.main"),
        corpus_entry!("BigDecimal", "BigDecimal.java", "Dec.main"),
        corpus_entry!("BitSieve", "BitSieve.java", "BitSieve.main"),
        corpus_entry!("Crc32", "Crc32.java", "Crc32.main"),
        // numeric array category (Linpack)
        corpus_entry!("Linpack", "Linpack.java", "Linpack.main"),
        corpus_entry!("Matrix", "Matrix.java", "Matrix.main"),
        corpus_entry!("NBody", "NBody.java", "NBody.main"),
        corpus_entry!("GameOfLife", "GameOfLife.java", "GameOfLife.main"),
        corpus_entry!("Pathfind", "Pathfind.java", "Pathfind.main"),
        corpus_entry!("Filter", "Filter.java", "Filter.main"),
        // data structures & OO workloads
        corpus_entry!("QuickSort", "QuickSort.java", "QuickSort.main"),
        corpus_entry!("HashTable", "HashTable.java", "HashTable.main"),
        corpus_entry!("ListOps", "ListOps.java", "ListOps.main"),
        corpus_entry!("Shapes", "Shapes.java", "Shapes.main"),
        corpus_entry!("Bank", "Bank.java", "Bank.main"),
        corpus_entry!("StringBench", "StringBench.java", "StringBench.main"),
        corpus_entry!("Exceptions", "Exceptions.java", "Exceptions.main"),
    ]
}

/// All measurements for one corpus program.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Row label.
    pub name: &'static str,
    /// Class-file bytes (baseline).
    pub bytecode_size: usize,
    /// SafeTSA wire bytes, unoptimized.
    pub safetsa_size: usize,
    /// SafeTSA wire bytes after producer-side optimization.
    pub safetsa_opt_size: usize,
    /// Baseline instruction count.
    pub bytecode_instrs: usize,
    /// SafeTSA instruction count (phis included, matching the paper's
    /// counting of phi instructions as instructions).
    pub safetsa_instrs: usize,
    /// Optimized SafeTSA instruction count.
    pub safetsa_opt_instrs: usize,
    /// SSA construction statistics (phi pruning, checks inserted).
    pub construction: FnStats,
    /// Optimization statistics (Figure 6 columns).
    pub opt: OptStats,
    /// Baseline dataflow-verification statistics.
    pub bverify: bverify::BVerifyStats,
}

/// The full producer/consumer artifacts for one program, with the
/// statistics each stage reports along the way. [`measure`] reads the
/// Figure 5/6 quantities off it; tests and `verify_cost` reuse the
/// artifacts.
pub struct Pipeline {
    /// The resolved program.
    pub prog: Program,
    /// Unoptimized SafeTSA module.
    pub module: Module,
    /// Optimized SafeTSA module.
    pub optimized: Module,
    /// Unoptimized wire bytes.
    pub bytes: Vec<u8>,
    /// Optimized wire bytes.
    pub opt_bytes: Vec<u8>,
    /// Baseline stack code.
    pub bcode: bcompile::CompiledProgram,
    /// SSA construction statistics (phi pruning, checks inserted).
    pub construction: FnStats,
    /// Optimization statistics (Figure 6 columns).
    pub opt: OptStats,
    /// Baseline dataflow-verification statistics.
    pub bverify: bverify::BVerifyStats,
}

/// Builds every artifact for `entry`.
///
/// # Panics
///
/// Panics when any stage fails — corpus programs are expected to be
/// fully supported.
pub fn build_pipeline(entry: &CorpusEntry) -> Pipeline {
    let prog = safetsa_frontend::compile(entry.source)
        .unwrap_or_else(|e| panic!("{}: front-end: {e}", entry.name));
    let lowered = lower_program(&prog).unwrap_or_else(|e| panic!("{}: lowering: {e}", entry.name));
    verify_module(&lowered.module).unwrap_or_else(|e| panic!("{}: verify: {e}", entry.name));
    let construction = lowered.totals();
    let module = lowered.module;
    let mut optimized = module.clone();
    let opt = safetsa_opt::optimize(&mut optimized, Passes::ALL, &Telemetry::disabled());
    verify_module(&optimized).unwrap_or_else(|e| panic!("{}: verify optimized: {e}", entry.name));
    let bytes = encode_module(&module).unwrap_or_else(|e| panic!("{}: encode: {e}", entry.name));
    let opt_bytes = encode_module(&optimized)
        .unwrap_or_else(|e| panic!("{}: encode optimized: {e}", entry.name));
    let mut bcode = bcompile::compile_program(&prog);
    let bverify = bverify::verify_program(&prog, &mut bcode)
        .unwrap_or_else(|e| panic!("{}: bytecode verify: {e}", entry.name));
    Pipeline {
        prog,
        module,
        optimized,
        bytes,
        opt_bytes,
        bcode,
        construction,
        opt,
        bverify,
    }
}

/// Measures one corpus program end to end: the Figure 5/6 view of
/// [`build_pipeline`].
///
/// # Panics
///
/// Panics when a stage fails.
pub fn measure(entry: &CorpusEntry) -> Measurement {
    let pl = build_pipeline(entry);
    // Wire sizes round-trip through the decoder as a sanity check.
    let host = HostEnv::standard();
    decode_and_verify(&pl.bytes, &host).unwrap_or_else(|e| panic!("{}: decode: {e}", entry.name));
    decode_and_verify(&pl.opt_bytes, &host)
        .unwrap_or_else(|e| panic!("{}: decode optimized: {e}", entry.name));
    Measurement {
        name: entry.name,
        bytecode_size: classfile::total_size(&pl.prog, &pl.bcode),
        safetsa_size: pl.bytes.len(),
        safetsa_opt_size: pl.opt_bytes.len(),
        bytecode_instrs: pl.bcode.instr_count(),
        safetsa_instrs: pl.module.instr_count() + pl.module.phi_count(),
        safetsa_opt_instrs: pl.optimized.instr_count() + pl.optimized.phi_count(),
        construction: pl.construction,
        opt: pl.opt,
        bverify: pl.bverify,
    }
}

/// Runs `entry` under all three engines (SafeTSA unoptimized, SafeTSA
/// optimized, bytecode baseline) and checks the outcomes agree;
/// returns the shared output text.
///
/// # Panics
///
/// Panics on any divergence — this is the corpus-wide differential
/// soundness check.
pub fn run_differential(entry: &CorpusEntry) -> String {
    let pl = build_pipeline(entry);
    let norm = |v: Option<Value>| -> Option<Value> {
        v.map(|v| match v {
            Value::Z(b) => Value::I(i32::from(b)),
            Value::C(c) => Value::I(c as i32),
            other => other,
        })
    };
    let run_vm = |m: &Module| -> (Option<Value>, String) {
        let mut vm = safetsa_vm::Vm::load(m).expect("loads");
        vm.set_fuel(500_000_000);
        let r = vm
            .run_entry(entry.entry)
            .unwrap_or_else(|e| panic!("{}: vm: {e}", entry.name));
        (norm(r), vm.output.text().to_string())
    };
    let (r1, o1) = run_vm(&pl.module);
    let (r2, o2) = run_vm(&pl.optimized);
    let mut bvm = safetsa_baseline::interp::Bvm::load(&pl.prog, &pl.bcode);
    bvm.set_fuel(500_000_000);
    let r3 = norm(
        bvm.run_entry(entry.entry)
            .unwrap_or_else(|e| panic!("{}: baseline: {e}", entry.name)),
    );
    let o3 = bvm.output.text().to_string();
    assert_eq!(o1, o2, "{}: optimized output differs", entry.name);
    assert_eq!(o1, o3, "{}: baseline output differs", entry.name);
    match (r1, r2, r3) {
        (Some(a), Some(b), Some(c)) => {
            assert!(a.bits_eq(b), "{}: {a:?} vs opt {b:?}", entry.name);
            assert!(a.bits_eq(c), "{}: {a:?} vs baseline {c:?}", entry.name);
        }
        (None, None, None) => {}
        other => panic!("{}: result arity mismatch {other:?}", entry.name),
    }
    o1
}

/// Percentage delta `(after - before) / before`, as the paper prints it
/// (negative = reduction); `None` when `before` is zero (printed N/A).
pub fn delta_pct(before: usize, after: usize) -> Option<i64> {
    if before == 0 {
        return None;
    }
    Some(((after as i64 - before as i64) * 100) / before as i64)
}

/// Static safety-check count (nullchecks + indexchecks) of a module.
pub fn static_check_count(m: &Module) -> u64 {
    m.functions
        .iter()
        .map(|f| {
            f.count_instrs(|i| {
                matches!(
                    i,
                    safetsa_core::instr::Instr::NullCheck { .. }
                        | safetsa_core::instr::Instr::IndexCheck { .. }
                )
            })
        })
        .sum::<usize>() as u64
}

/// One corpus program's full metrics document plus the headline
/// quantities `bench_report` aggregates and regression-checks.
pub struct ProgramReport {
    /// Row label.
    pub name: &'static str,
    /// The `{schema, command, subject, metrics}` document.
    pub json: Json,
    /// Optimized SafeTSA wire bytes.
    pub opt_size: u64,
    /// Baseline class-file bytes.
    pub class_size: u64,
    /// `opt_size * 1000 / class_size` — the paper's headline encoding
    /// ratio, in permille.
    pub ratio_permille: u64,
    /// Dynamic instructions executed by the optimized module under the
    /// threaded engine (fused pairs count once, which is the point).
    pub steps: u64,
    /// Threaded-engine xdispatch inline-cache hits.
    pub icache_hits: u64,
    /// Threaded-engine xdispatch inline-cache misses.
    pub icache_misses: u64,
    /// Safety checks (null + index) removed by the full pass pipeline.
    pub checks_eliminated: u64,
    /// Safety checks removed with `checkelim` disabled — the CSE-only
    /// baseline the dataflow pass is measured against.
    pub checks_eliminated_cse_only: u64,
    /// Loads removed by the alias-driven `loadfwd` pass.
    pub loads_forwarded: u64,
    /// Stores removed by the alias-driven `dse` pass.
    pub stores_eliminated: u64,
}

impl ProgramReport {
    /// Reconstructs the headline quantities from a metrics registry —
    /// the inverse of [`record_program`], and the reason every headline
    /// lives in a counter: a registry replayed from the batch cache
    /// carries everything the report needs. The document keeps the
    /// counters and histograms and drops every timer: a single-shot
    /// wall time is noise, and tsabench times each layer.
    pub fn from_metrics(name: &'static str, tm: &Telemetry) -> ProgramReport {
        let c = |key: &str| tm.counter(key).unwrap_or(0);
        let counts: String = tm
            .export_flat()
            .lines()
            .filter(|line| !line.starts_with("t "))
            .map(|line| format!("{line}\n"))
            .collect();
        let counts = Telemetry::import_flat(&counts).expect("export_flat output re-imports");
        ProgramReport {
            name,
            json: counts.report("bench-report", name),
            opt_size: c("codec.total_bytes"),
            class_size: c("baseline.class_file_bytes"),
            ratio_permille: c("codec.size_ratio_permille"),
            steps: c("vm.steps"),
            icache_hits: c("vm.icache.hits"),
            icache_misses: c("vm.icache.misses"),
            checks_eliminated: c("opt.checks.eliminated"),
            checks_eliminated_cse_only: c("opt.checks.eliminated_cse_only"),
            loads_forwarded: c("opt.loadfwd.removed"),
            stores_eliminated: c("opt.dse.removed"),
        }
    }
}

/// Runs the fully instrumented pipeline over one corpus program,
/// recording into `tm`: frontend, SSA construction, producer
/// optimization, encoding with section accounting, the bytecode
/// baseline, and an interpreted run of the optimized module with
/// dynamic statistics. Returns the optimized module's wire bytes; every
/// quantity `bench_report` aggregates is recorded as a counter, so the
/// registry alone reconstructs a [`ProgramReport`].
///
/// # Panics
///
/// Panics when any stage fails — corpus programs are expected to be
/// fully supported.
pub fn record_program(entry: &CorpusEntry, tm: &Telemetry) -> Vec<u8> {
    let prog = safetsa_frontend::compile_sources(&[entry.source], tm)
        .unwrap_or_else(|e| panic!("{}: front-end: {e}", entry.name));
    let lowered = safetsa_ssa::construct(&prog, tm)
        .unwrap_or_else(|e| panic!("{}: lowering: {e}", entry.name));
    let mut module = lowered.module;
    let checks_before = static_check_count(&module);
    // CSE-only ablation copy: what the pipeline eliminates without the
    // dataflow-driven checkelim pass. The delta against the full
    // pipeline is the pass's contribution, reported per program.
    let mut cse_only = module.clone();
    safetsa_opt::optimize(
        &mut cse_only,
        Passes {
            checkelim: false,
            ..Passes::ALL
        },
        &Telemetry::disabled(),
    );
    let checks_eliminated_cse_only = checks_before - static_check_count(&cse_only);
    safetsa_opt::optimize(&mut module, Passes::ALL, tm);
    let checks_eliminated = checks_before - static_check_count(&module);
    tm.set("opt.checks.eliminated", checks_eliminated);
    tm.set("opt.checks.eliminated_cse_only", checks_eliminated_cse_only);
    verify_module(&module).unwrap_or_else(|e| panic!("{}: verify: {e}", entry.name));
    let bytes = safetsa_codec::encode(&module, tm)
        .unwrap_or_else(|e| panic!("{}: encode: {e}", entry.name));
    // Baseline plane + headline ratio.
    let mut bcode = bcompile::compile_program(&prog);
    bverify::verify_program(&prog, &mut bcode)
        .unwrap_or_else(|e| panic!("{}: bytecode verify: {e}", entry.name));
    let class_size = classfile::total_size(&prog, &bcode) as u64;
    let opt_size = bytes.len() as u64;
    let ratio_permille = (opt_size * 1000).checked_div(class_size).unwrap_or(0);
    tm.set("baseline.class_file_bytes", class_size);
    tm.set("baseline.instrs", bcode.instr_count() as u64);
    tm.set("codec.size_ratio_permille", ratio_permille);
    // Consumer plane: run the optimized module with dynamic counters
    // and inline-cache telemetry. Its output is checked against the
    // bytecode baseline by `run_differential` and the corpus tests,
    // not here.
    let mut vm = safetsa_vm::Vm::load(&module).expect("loads");
    vm.enable_stats();
    vm.set_fuel(500_000_000);
    vm.run_entry(entry.entry)
        .unwrap_or_else(|e| panic!("{}: vm: {e}", entry.name));
    vm.export_metrics(tm);
    bytes
}

/// Runs every corpus program under the sampling profiler and merges the
/// opcode-pair windows into one corpus-wide histogram — the offline
/// analysis that selects the threaded engine's superinstructions (see
/// DESIGN.md "Interpreter architecture").
///
/// The profiler's opcode ring is fed each entered block's *pre-fusion*
/// mnemonics, so the histogram counts the unfused instruction stream and
/// stays a stable selection input whatever fusion the decoder applies.
/// Pairs that cross a call boundary reflect block-entry order: a block's
/// mnemonics enter the ring before any callee's.
///
/// # Panics
///
/// Panics when any corpus program fails to build or run.
pub fn pair_histogram() -> safetsa_vm::VmProfile {
    let mut merged = safetsa_vm::VmProfile::default();
    for entry in corpus() {
        let pl = build_pipeline(&entry);
        let mut vm = safetsa_vm::Vm::load(&pl.optimized).expect("loads");
        vm.set_fuel(500_000_000);
        vm.enable_profiler(1);
        vm.run_entry(entry.entry)
            .unwrap_or_else(|e| panic!("{}: vm: {e}", entry.name));
        merged.merge(&vm.take_profile());
    }
    merged
}

/// Sweeps the whole corpus through the parallel batch driver: `jobs`
/// workers (`0` = one per CPU), an optional content-addressed cache,
/// and one [`record_program`] task per program. Returns the per-program
/// reports (in corpus order — scheduling never shows) together with the
/// batch-level [`BatchReport`] (merged metrics, cache hit/miss counts).
///
/// # Panics
///
/// Panics when any program fails or the cache directory is unusable.
pub fn corpus_report(jobs: usize, cache_dir: Option<&Path>) -> (Vec<ProgramReport>, BatchReport) {
    let entries = corpus();
    let inputs: Vec<BatchInput> = entries
        .iter()
        .map(|e| BatchInput {
            name: e.name.to_string(),
            source: e.source.to_string(),
        })
        .collect();
    let mut opts = BatchOptions::new(format!(
        "bench-report/3/{}",
        passes_fingerprint(&Passes::ALL)
    ));
    opts.jobs = jobs;
    opts.cache_dir = cache_dir.map(Path::to_path_buf);
    opts.telemetry = true;
    let report = run_batch(&inputs, &opts, |idx, _input, tm| {
        let bytes = record_program(&entries[idx], &tm);
        Ok((bytes, tm))
    })
    .unwrap_or_else(|e| panic!("corpus batch: {e}"));
    let reports = entries
        .iter()
        .zip(&report.items)
        .map(|(e, item)| ProgramReport::from_metrics(e.name, &item.metrics))
        .collect();
    (reports, report)
}

/// One touch-one-method incremental replay (the `totals.incremental`
/// block in `bench_report`'s document).
#[derive(Debug, Clone, Copy)]
pub struct IncrementalReplay {
    /// Units (method bodies) in the edited program's plan.
    pub units: u64,
    /// Units reused from the store on the warm rebuild.
    pub reused: u64,
    /// Units recompiled — exactly 1, the edited method.
    pub recompiled: u64,
}

/// Cold-populates the method-granular incremental store from the
/// QuickSort corpus program, replays a one-method edit (`main`'s
/// element count bumped), and counts the units the warm rebuild
/// reuses and recompiles. The warm output is asserted byte-identical
/// to a cold build of the edited source before the counts are
/// returned.
///
/// # Panics
///
/// Panics when any stage fails, when the replay recompiles more than
/// the edited unit, or when warm output diverges from the cold build.
pub fn incremental_replay(cache_dir: &Path) -> IncrementalReplay {
    let entry = corpus()
        .into_iter()
        .find(|e| e.name == "QuickSort")
        .expect("QuickSort left the corpus");
    let edited = entry.source.replace("int n = 3000;", "int n = 3001;");
    assert_ne!(edited, entry.source, "edit marker vanished from corpus");

    let cold = DriverPipeline::new()
        .cache(cache_dir)
        .unwrap_or_else(|e| panic!("incremental store: {e}"));
    cold.compile_source(entry.source)
        .unwrap_or_else(|e| panic!("cold populate: {e}"));

    let warm = DriverPipeline::new()
        .cache(cache_dir)
        .unwrap_or_else(|e| panic!("incremental store: {e}"));
    let wm = warm
        .compile_source(&edited)
        .unwrap_or_else(|e| panic!("warm rebuild: {e}"));
    let warm_bytes = warm.encode(&wm).unwrap_or_else(|e| panic!("encode: {e}"));

    let plain = DriverPipeline::new();
    let cm = plain
        .compile_source(&edited)
        .unwrap_or_else(|e| panic!("cold rebuild: {e}"));
    assert_eq!(
        warm_bytes,
        plain.encode(&cm).unwrap_or_else(|e| panic!("encode: {e}")),
        "warm incremental output diverged from the cold build"
    );

    let outcomes = warm.cache_report();
    let units = outcomes.len() as u64;
    let reused = outcomes.iter().filter(|u| u.reused).count() as u64;
    let recompiled = units - reused;
    assert_eq!(
        recompiled, 1,
        "touch-one-method replay must recompile exactly one unit"
    );
    IncrementalReplay {
        units,
        reused,
        recompiled,
    }
}
