//! Golden test for `--metrics-json` schema stability.
//!
//! Compiles and runs one corpus program through the CLI twice and
//! asserts (a) the two documents expose the *identical* key-path set in
//! the identical order, (b) every value outside the wall-clock plane
//! (keys ending in `_ns`) is bit-for-bit deterministic, and (c) the
//! key-path lists match the checked-in golden files under
//! `tests/golden/`. Regenerate the goldens with
//! `UPDATE_GOLDEN=1 cargo test --test metrics_schema` after an
//! intentional schema change.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_safetsa"))
}

/// Extracts `(dotted.key.path, raw value text)` for every leaf line of
/// a `render_pretty` document (one member per line, 2-space indent).
fn leaves(text: &str) -> Vec<(String, String)> {
    let mut stack: Vec<String> = Vec::new();
    let mut out = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim_start();
        let depth = (line.len() - trimmed.len()) / 2;
        let trimmed = trimmed.trim_end_matches(',');
        let Some(rest) = trimmed.strip_prefix('"') else {
            continue;
        };
        let Some((key, val)) = rest.split_once("\": ") else {
            continue;
        };
        stack.truncate(depth.saturating_sub(1));
        if val == "{" || val == "[" {
            stack.push(key.to_string());
        } else {
            let mut path = stack.join(".");
            if !path.is_empty() {
                path.push('.');
            }
            path.push_str(key);
            out.push((path, val.to_string()));
        }
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, keys: &[String]) {
    let path = golden_path(name);
    let actual = keys.join("\n") + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDEN=1 cargo test --test metrics_schema",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "metrics key paths drifted from {}; if intentional, regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

/// Runs `safetsa <cmd> ... --metrics-json` and returns the document.
fn metrics_doc(dir: &std::path::Path, args: &[&str], out_name: &str) -> String {
    let json = dir.join(out_name);
    let mut full: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    full.push("--metrics-json".into());
    full.push(json.to_str().unwrap().into());
    let st = cli().args(&full).output().unwrap();
    assert!(
        st.status.success(),
        "safetsa {args:?}: {}",
        String::from_utf8_lossy(&st.stderr)
    );
    std::fs::read_to_string(&json).unwrap()
}

#[test]
fn metrics_json_schema_is_stable_and_deterministic() {
    let entry = safetsa_bench::corpus()
        .into_iter()
        .find(|e| e.name == "QuickSort")
        .expect("QuickSort in corpus");
    let dir = std::env::temp_dir().join("safetsa-metrics-schema");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("QuickSort.java");
    std::fs::write(&src, entry.source).unwrap();
    let tsa = dir.join("QuickSort.tsa");
    let src_s = src.to_str().unwrap();
    let tsa_s = tsa.to_str().unwrap();

    let compile_args = ["compile", src_s, "-o", tsa_s];
    let run_args = ["run", src_s, "--entry", entry.entry];

    let compile_a = metrics_doc(&dir, &compile_args, "compile_a.json");
    let compile_b = metrics_doc(&dir, &compile_args, "compile_b.json");
    let run_a = metrics_doc(&dir, &run_args, "run_a.json");
    let run_b = metrics_doc(&dir, &run_args, "run_b.json");

    for (label, a, b) in [("compile", &compile_a, &compile_b), ("run", &run_a, &run_b)] {
        let la = leaves(a);
        let lb = leaves(b);
        let keys_a: Vec<String> = la.iter().map(|(k, _)| k.clone()).collect();
        let keys_b: Vec<String> = lb.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys_a, keys_b, "{label}: key paths differ between runs");
        for ((k, va), (_, vb)) in la.iter().zip(lb.iter()) {
            if k.ends_with("_ns") {
                continue;
            }
            assert_eq!(va, vb, "{label}: value of {k} not deterministic");
        }
        assert!(
            keys_a.iter().any(|k| k == "schema"),
            "{label}: missing schema key"
        );
    }

    let compile_keys: Vec<String> = leaves(&compile_a).into_iter().map(|(k, _)| k).collect();
    let run_keys: Vec<String> = leaves(&run_a).into_iter().map(|(k, _)| k).collect();
    check_golden("metrics_compile_keys.txt", &compile_keys);
    check_golden("metrics_run_keys.txt", &run_keys);
}

/// Enabling the alias-driven memory passes may only *add* metric keys,
/// and only in their own four planes: `opt.loadfwd.*`, `opt.dse.*`,
/// `analysis.alias.*`, and `analysis.escape.*`. With the passes off,
/// none of those keys may appear — `record_stats` gates each plane on
/// the pass that owns it.
#[test]
fn memory_pass_metrics_live_only_in_their_own_planes() {
    use safetsa_opt::Passes;
    use safetsa_telemetry::Telemetry;

    let entry = safetsa_bench::corpus()
        .into_iter()
        .find(|e| e.name == "Filter")
        .expect("Filter in corpus");
    let prog = safetsa_frontend::compile(entry.source).unwrap();
    let base = safetsa_ssa::lower_program(&prog).unwrap().module;

    let keys_for = |passes: Passes| -> std::collections::BTreeSet<String> {
        let tm = Telemetry::enabled();
        let mut m = base.clone();
        safetsa_opt::optimize(&mut m, passes, &tm);
        tm.export_flat()
            .lines()
            .filter_map(|l| l.split(' ').nth(1).map(str::to_string))
            .collect()
    };

    let without = keys_for(Passes {
        loadfwd: false,
        dse: false,
        ..Passes::ALL
    });
    let with = keys_for(Passes::ALL);

    const PLANES: [&str; 4] = [
        "opt.loadfwd.",
        "opt.dse.",
        "analysis.alias.",
        "analysis.escape.",
    ];
    for k in &without {
        assert!(
            !PLANES.iter().any(|p| k.starts_with(p)),
            "passes off, but plane key {k} was emitted"
        );
        assert!(with.contains(k), "enabling the passes dropped key {k}");
    }
    let added: Vec<&String> = with.difference(&without).collect();
    assert!(!added.is_empty(), "enabling the passes added no keys");
    for k in added {
        assert!(
            PLANES.iter().any(|p| k.starts_with(p)),
            "pass toggle added key {k} outside its own planes"
        );
    }
}

/// `--jobs`/`--cache-dir` may only *add* key paths, and only in the
/// `driver.*`/`cache.*` planes: the per-stage compilation metrics of a
/// batch run must be indistinguishable from a serial run's.
#[test]
fn batch_compile_adds_only_driver_and_cache_keys() {
    let entry = safetsa_bench::corpus()
        .into_iter()
        .find(|e| e.name == "QuickSort")
        .expect("QuickSort in corpus");
    let dir = std::env::temp_dir().join("safetsa-metrics-schema-jobs");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("QuickSort.java");
    std::fs::write(&src, entry.source).unwrap();
    let src_s = src.to_str().unwrap();
    let serial_tsa = dir.join("serial.tsa");
    let batch_tsa = dir.join("batch.tsa");
    let cache = dir.join("cache");

    let serial = metrics_doc(
        &dir,
        &["compile", src_s, "-o", serial_tsa.to_str().unwrap()],
        "serial.json",
    );
    let batch = metrics_doc(
        &dir,
        &[
            "compile",
            src_s,
            "-o",
            batch_tsa.to_str().unwrap(),
            "--jobs",
            "2",
            "--cache-dir",
            cache.to_str().unwrap(),
        ],
        "batch.json",
    );

    // The artifact itself is byte-identical whichever driver produced it.
    assert_eq!(
        std::fs::read(&serial_tsa).unwrap(),
        std::fs::read(&batch_tsa).unwrap(),
        "batch-compiled .tsa differs from serial"
    );

    let serial_leaves: std::collections::BTreeMap<String, String> =
        leaves(&serial).into_iter().collect();
    let batch_leaves: std::collections::BTreeMap<String, String> =
        leaves(&batch).into_iter().collect();
    for k in serial_leaves.keys() {
        assert!(
            batch_leaves.contains_key(k),
            "batch document dropped serial key {k}"
        );
    }
    for (k, v) in &batch_leaves {
        match serial_leaves.get(k) {
            Some(sv) => {
                if !k.ends_with("_ns") {
                    assert_eq!(sv, v, "batch changed the value of serial key {k}");
                }
            }
            None => assert!(
                k.starts_with("metrics.driver.") || k.starts_with("metrics.cache."),
                "batch added key {k} outside the driver/cache planes"
            ),
        }
    }

    let batch_keys: Vec<String> = leaves(&batch).into_iter().map(|(k, _)| k).collect();
    check_golden("metrics_compile_jobs_keys.txt", &batch_keys);
}
