//! Corpus-wide metrics sweep: runs the fully instrumented pipeline
//! over every corpus program and emits one aggregate
//! `BENCH_pipeline.json` document (schema `safetsa-bench/1`).
//!
//! Usage:
//!
//! ```text
//! bench_report [--out PATH]      # write the aggregate report
//!   [--jobs N]                   # compile the corpus on N workers
//!                                # (0 = one per CPU; default serial)
//!   [--cache-dir PATH]           # content-addressed module cache
//! bench_report --check PATH      # regression gate: compare each
//!                                # program's encoded-size ratio
//!                                # against the thresholds file
//! ```
//!
//! The document holds counts only — sizes, instruction, phi and check
//! counts, VM steps, cache hits — and no wall-clock time (tsabench
//! times things), so it depends only on the commit: `--jobs` never
//! shows, and a warm `--cache-dir` run differs from a cold one only in
//! `totals.driver.cache_hits`/`cache_misses`. CI regenerates the file
//! and fails on any difference from the committed one. A
//! touch-one-method incremental replay (edit one method of a
//! multi-method corpus program, rebuild against the method-granular
//! store) lands in `totals.incremental` — units, reused, and
//! recompiled (always 1).
//!
//! The thresholds file is line-oriented: `Name max_permille
//! [min_checks_eliminated [min_mem_removed [max_vm_steps]]]`, `#`
//! comments and blank lines ignored; any other token is an error. A
//! program fails the check when its `codec.size_ratio_permille`
//! (optimized SafeTSA bytes × 1000 / class-file bytes) exceeds its
//! threshold, as does one whose eliminated safety-check count (null +
//! index, full pass pipeline) drops below the optional floor, one whose
//! memory-operation removals (loads forwarded by `loadfwd` + stores
//! eliminated by `dse`) drop below the optional third floor, or one
//! whose threaded-engine dynamic step count rises above the optional
//! fourth ceiling (steps are deterministic; fusion regressions show up
//! here); a program with no threshold entry only warns, so adding
//! corpus programs does not break CI until a threshold is blessed.
//!
//! `--pairs PATH` additionally writes the corpus-wide opcode-pair
//! histogram (sampling profiler over the unfused instruction stream,
//! merged over every program) — the offline analysis that selects the
//! threaded engine's superinstructions.

use safetsa_bench::{
    corpus_report, incremental_replay, pair_histogram, IncrementalReplay, ProgramReport,
};
use safetsa_driver::batch::BatchReport;
use safetsa_telemetry::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_pipeline.json");
    let mut check_path: Option<String> = None;
    let mut pairs_path: Option<String> = None;
    let mut jobs = 1usize;
    let mut cache_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out_path = p.clone(),
                    None => return usage("--out needs a path"),
                }
            }
            "--check" => {
                i += 1;
                match args.get(i) {
                    Some(p) => check_path = Some(p.clone()),
                    None => return usage("--check needs a path"),
                }
            }
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => jobs = n,
                    None => return usage("--jobs needs a worker count"),
                }
            }
            "--cache-dir" => {
                i += 1;
                match args.get(i) {
                    Some(p) => cache_dir = Some(PathBuf::from(p)),
                    None => return usage("--cache-dir needs a path"),
                }
            }
            "--pairs" => {
                i += 1;
                match args.get(i) {
                    Some(p) => pairs_path = Some(p.clone()),
                    None => return usage("--pairs needs a path"),
                }
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    if let Some(path) = &pairs_path {
        let profile = pair_histogram();
        let mut pairs = Json::obj();
        for (pair, n) in &profile.pairs {
            pairs.set(pair.as_str(), Json::U64(*n));
        }
        let mut doc = Json::obj();
        doc.set("schema", Json::Str("safetsa-pairs/1".into()));
        doc.set("samples", Json::U64(profile.samples));
        doc.set("pairs", pairs);
        if let Err(e) = std::fs::write(path, doc.render_pretty()) {
            eprintln!("bench_report: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "bench_report: {} opcode pairs ({} samples) -> {path}",
            profile.pairs.len(),
            profile.samples
        );
    }

    let (reports, batch) = corpus_report(jobs, cache_dir.as_deref());

    if let Some(path) = check_path {
        return check_thresholds(&reports, &path);
    }

    let incr = run_incremental();
    let doc = aggregate(&reports, &batch, &incr);
    if let Err(e) = std::fs::write(&out_path, doc.render_pretty()) {
        eprintln!("bench_report: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "bench_report: {} programs -> {out_path} ({} optimized SafeTSA bytes vs {} class-file bytes, {} permille)",
        reports.len(),
        reports.iter().map(|r| r.opt_size).sum::<u64>(),
        reports.iter().map(|r| r.class_size).sum::<u64>(),
        total_ratio_permille(&reports),
    );
    println!(
        "bench_report: cache {} hit(s) / {} miss(es)",
        batch.cache_hits, batch.cache_misses,
    );
    println!(
        "bench_report: vm {} steps",
        reports.iter().map(|r| r.steps).sum::<u64>(),
    );
    println!(
        "bench_report: incremental replay {} unit(s), {} reused / {} recompiled",
        incr.units, incr.reused, incr.recompiled,
    );
    ExitCode::SUCCESS
}

/// The touch-one-method replay behind `totals.incremental`, against a
/// scratch store so the measurement never aliases `--cache-dir`.
fn run_incremental() -> IncrementalReplay {
    let dir = std::env::temp_dir().join(format!("safetsa-bench-incr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let r = incremental_replay(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    r
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("bench_report: {msg}");
    eprintln!(
        "usage: bench_report [--out PATH] [--jobs N] [--cache-dir PATH] [--check PATH] [--pairs PATH]"
    );
    ExitCode::FAILURE
}

fn total_ratio_permille(reports: &[ProgramReport]) -> u64 {
    let opt: u64 = reports.iter().map(|r| r.opt_size).sum();
    let class: u64 = reports.iter().map(|r| r.class_size).sum();
    (opt * 1000).checked_div(class).unwrap_or(0)
}

/// Builds the `safetsa-bench/1` aggregate: corpus totals up front
/// (including the batch driver's cache hit/miss counts), then the full
/// per-program metrics documents.
fn aggregate(reports: &[ProgramReport], batch: &BatchReport, incr: &IncrementalReplay) -> Json {
    let mut driver = Json::obj();
    driver.set("cache_hits", Json::U64(batch.cache_hits));
    driver.set("cache_misses", Json::U64(batch.cache_misses));

    let mut totals = Json::obj();
    totals.set("programs", Json::U64(reports.len() as u64));
    totals.set("driver", driver);
    totals.set(
        "safetsa_opt_bytes",
        Json::U64(reports.iter().map(|r| r.opt_size).sum()),
    );
    totals.set(
        "class_file_bytes",
        Json::U64(reports.iter().map(|r| r.class_size).sum()),
    );
    totals.set(
        "size_ratio_permille",
        Json::U64(total_ratio_permille(reports)),
    );
    totals.set("vm_steps", Json::U64(reports.iter().map(|r| r.steps).sum()));
    let icache_hits: u64 = reports.iter().map(|r| r.icache_hits).sum();
    let icache_misses: u64 = reports.iter().map(|r| r.icache_misses).sum();
    let mut vm = Json::obj();
    vm.set("steps", Json::U64(reports.iter().map(|r| r.steps).sum()));
    vm.set(
        "icache_hit_permille",
        Json::U64(
            (icache_hits * 1000)
                .checked_div(icache_hits + icache_misses)
                .unwrap_or(0),
        ),
    );
    totals.set("vm", vm);
    totals.set(
        "checks_eliminated",
        Json::U64(reports.iter().map(|r| r.checks_eliminated).sum()),
    );
    totals.set(
        "checks_eliminated_cse_only",
        Json::U64(reports.iter().map(|r| r.checks_eliminated_cse_only).sum()),
    );
    let mut opt = Json::obj();
    opt.set(
        "loads_forwarded",
        Json::U64(reports.iter().map(|r| r.loads_forwarded).sum()),
    );
    opt.set(
        "stores_eliminated",
        Json::U64(reports.iter().map(|r| r.stores_eliminated).sum()),
    );
    totals.set("opt", opt);
    let mut incremental = Json::obj();
    incremental.set("units", Json::U64(incr.units));
    incremental.set("reused", Json::U64(incr.reused));
    incremental.set("recompiled", Json::U64(incr.recompiled));
    totals.set("incremental", incremental);

    let mut doc = Json::obj();
    doc.set("schema", Json::Str("safetsa-bench/1".into()));
    doc.set("totals", totals);
    doc.set(
        "programs",
        Json::Arr(reports.iter().map(|r| r.json.clone()).collect()),
    );
    doc
}

/// One `size_thresholds.txt` row, in column order after the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Threshold {
    max_permille: u64,
    checks_floor: Option<u64>,
    mem_floor: Option<u64>,
    steps_ceiling: Option<u64>,
}

/// What each value column holds, for error messages.
const COLUMNS: [&str; 4] = [
    "permille value",
    "eliminated-check floor",
    "memory-removal floor",
    "vm-steps ceiling",
];

/// Parses a thresholds file; `path` only labels the errors, which name
/// the file and line.
fn parse_thresholds(text: &str, path: &str) -> Result<BTreeMap<String, Threshold>, String> {
    let mut thresholds = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = format!("{path}:{}", lineno + 1);
        let mut parts = line.split_whitespace();
        let name = parts.next().unwrap_or_default();
        let mut values = [None; COLUMNS.len()];
        for (i, raw) in parts.enumerate() {
            let Some(slot) = values.get_mut(i) else {
                return Err(format!("{at}: unexpected extra value `{raw}`"));
            };
            let value = raw
                .parse::<u64>()
                .map_err(|_| format!("{at}: bad {} `{raw}`", COLUMNS[i]))?;
            *slot = Some(value);
        }
        let [Some(max_permille), checks_floor, mem_floor, steps_ceiling] = values else {
            return Err(format!("{at}: malformed line `{line}`"));
        };
        thresholds.insert(
            name.to_string(),
            Threshold {
                max_permille,
                checks_floor,
                mem_floor,
                steps_ceiling,
            },
        );
    }
    Ok(thresholds)
}

fn check_thresholds(reports: &[ProgramReport], path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_report: cannot read thresholds file {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let thresholds = match parse_thresholds(&text, path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_report: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failures = 0usize;
    for r in reports {
        let mem_removed = r.loads_forwarded + r.stores_eliminated;
        match thresholds.get(r.name) {
            Some(&Threshold {
                max_permille: limit,
                checks_floor: floor,
                mem_floor,
                steps_ceiling,
            }) => {
                let ratio_ok = r.ratio_permille <= limit;
                let checks_ok = floor.is_none_or(|f| r.checks_eliminated >= f);
                let mem_ok = mem_floor.is_none_or(|f| mem_removed >= f);
                let steps_ok = steps_ceiling.is_none_or(|c| r.steps <= c);
                if !ratio_ok {
                    eprintln!(
                        "FAIL {:<14} encoded/class ratio {} permille exceeds threshold {}",
                        r.name, r.ratio_permille, limit
                    );
                    failures += 1;
                }
                if !checks_ok {
                    eprintln!(
                        "FAIL {:<14} eliminated {} checks, below floor {}",
                        r.name,
                        r.checks_eliminated,
                        floor.unwrap_or(0)
                    );
                    failures += 1;
                }
                if !mem_ok {
                    eprintln!(
                        "FAIL {:<14} removed {} memory ops (loadfwd+dse), below floor {}",
                        r.name,
                        mem_removed,
                        mem_floor.unwrap_or(0)
                    );
                    failures += 1;
                }
                if !steps_ok {
                    eprintln!(
                        "FAIL {:<14} executed {} vm steps, above ceiling {}",
                        r.name,
                        r.steps,
                        steps_ceiling.unwrap_or(0)
                    );
                    failures += 1;
                }
                if ratio_ok && checks_ok && mem_ok && steps_ok {
                    println!(
                        "ok   {:<14} ratio {} permille (threshold {}), {} checks eliminated (floor {}), {} mem ops removed (floor {}), {} vm steps (ceiling {})",
                        r.name,
                        r.ratio_permille,
                        limit,
                        r.checks_eliminated,
                        floor.map_or_else(|| "none".into(), |f| f.to_string()),
                        mem_removed,
                        mem_floor.map_or_else(|| "none".into(), |f| f.to_string()),
                        r.steps,
                        steps_ceiling.map_or_else(|| "none".into(), |c| c.to_string())
                    );
                }
            }
            None => {
                eprintln!(
                    "warn {:<14} no threshold entry (current ratio {} permille, {} checks eliminated, {} mem ops removed)",
                    r.name, r.ratio_permille, r.checks_eliminated, mem_removed
                );
            }
        }
    }
    if failures > 0 {
        eprintln!("bench_report: {failures} program(s) regressed past their thresholds");
        ExitCode::FAILURE
    } else {
        println!(
            "bench_report: all {} programs within thresholds",
            reports.len()
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<BTreeMap<String, Threshold>, String> {
        parse_thresholds(text, "t.txt")
    }

    #[test]
    fn one_to_four_values_parse() {
        let t = parse("# comment\n\nA 700\nB 700 5\nC 700 5 2\n  D 700 5 2 9000  \n").unwrap();
        let row = |max_permille, checks_floor, mem_floor, steps_ceiling| Threshold {
            max_permille,
            checks_floor,
            mem_floor,
            steps_ceiling,
        };
        assert_eq!(t["A"], row(700, None, None, None));
        assert_eq!(t["B"], row(700, Some(5), None, None));
        assert_eq!(t["C"], row(700, Some(5), Some(2), None));
        assert_eq!(t["D"], row(700, Some(5), Some(2), Some(9000)));
    }

    #[test]
    fn extra_values_and_non_numbers_are_rejected() {
        assert_eq!(
            parse("A 700\nScanner 724 6 0 3610 17 junk\n"),
            Err("t.txt:2: unexpected extra value `17`".to_string())
        );
        assert_eq!(
            parse("Scanner 724 6 0 3610 junk\n"),
            Err("t.txt:1: unexpected extra value `junk`".to_string())
        );
        assert_eq!(
            parse("Scanner\n"),
            Err("t.txt:1: malformed line `Scanner`".to_string())
        );
        for (line, column) in [
            ("A x", "permille value"),
            ("A 700 x", "eliminated-check floor"),
            ("A 700 5 -1", "memory-removal floor"),
            ("A 700 5 2 9e3", "vm-steps ceiling"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(
                err.starts_with(&format!("t.txt:1: bad {column} `")),
                "{err}"
            );
        }
    }
}
