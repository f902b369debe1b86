//! Chaos-aware load generator for the `safetsa serve` daemon.
//!
//! ```text
//! serve_loadgen [--addr HOST:PORT]   target an external daemon
//!                                    (must run with --chaos for the
//!                                    hostile traffic to inject faults)
//!               [--connections N]    concurrent client connections (2)
//!               [--passes N]         corpus replays per connection (1)
//!               [--no-chaos]         plain replay, no hostile traffic
//!               [--workers N]        in-process daemon pool (0 = CPUs)
//!               [--queue N]          in-process daemon queue cap (16)
//!               [--metrics-json P]   write the loadgen report as JSON
//! ```
//!
//! Without `--addr` the loadgen spawns an in-process daemon, drives
//! it, and drains it. Exit is nonzero iff any protocol invariant was
//! violated: a frame without exactly one response, a response without
//! the schema/id/status envelope, or a daemon that died under fault
//! injection. CI's serve smoke job runs exactly this binary.

use safetsa_bench::serve::{run_loadgen, LoadgenOptions};
use safetsa_telemetry::Json;
use std::process::ExitCode;

fn main() -> ExitCode {
    fn value(it: &mut std::vec::IntoIter<String>, what: &str) -> Result<String, String> {
        it.next().ok_or_else(|| format!("{what} needs a value"))
    }
    fn parsed<T: std::str::FromStr>(
        it: &mut std::vec::IntoIter<String>,
        what: &str,
    ) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        value(it, what)?.parse().map_err(|e| format!("{what}: {e}"))
    }

    let mut opts = LoadgenOptions::default();
    let mut metrics_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let r: Result<(), String> = match arg.as_str() {
            "--addr" => value(&mut it, "--addr").map(|v| opts.addr = Some(v)),
            "--connections" => parsed(&mut it, "--connections").map(|v| opts.connections = v),
            "--passes" => parsed(&mut it, "--passes").map(|v| opts.passes = v),
            "--no-chaos" => {
                opts.chaos = false;
                Ok(())
            }
            "--workers" => parsed(&mut it, "--workers").map(|v| opts.workers = v),
            "--queue" => parsed(&mut it, "--queue").map(|v| opts.queue_capacity = v),
            "--metrics-json" => value(&mut it, "--metrics-json").map(|v| metrics_path = Some(v)),
            other => Err(format!("unknown argument `{other}`")),
        };
        if let Err(msg) = r {
            eprintln!("serve_loadgen: {msg}");
            eprintln!("usage: serve_loadgen [--addr HOST:PORT] [--connections N] [--passes N]");
            eprintln!("       [--no-chaos] [--workers N] [--queue N] [--metrics-json PATH]");
            return ExitCode::from(2);
        }
    }

    let report = run_loadgen(&opts);
    println!(
        "serve_loadgen: {} requests -> {} responses ({} ok, {} errors, {} shed, {} panics isolated)",
        report.requests, report.responses, report.ok, report.errors, report.shed,
        report.panic_isolated,
    );
    println!(
        "serve_loadgen: latency p50 {} us, p99 {} us",
        report.p50_ns / 1_000,
        report.p99_ns / 1_000,
    );
    if let Some(path) = metrics_path {
        let mut doc = Json::obj();
        doc.set("schema", Json::Str("safetsa-serve-loadgen/1".into()));
        doc.set("serve", report.to_json());
        if let Err(e) = std::fs::write(&path, doc.render_pretty()) {
            eprintln!("serve_loadgen: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if report.violations.is_empty() {
        println!("serve_loadgen: all protocol invariants held");
        ExitCode::SUCCESS
    } else {
        for v in &report.violations {
            eprintln!("serve_loadgen: VIOLATION: {v}");
        }
        eprintln!(
            "serve_loadgen: {} invariant violation(s)",
            report.violations.len()
        );
        ExitCode::FAILURE
    }
}
