//! Execution-engine comparison: the SafeTSA direct-threaded interpreter
//! (unoptimized and optimized modules) vs the baseline operand-stack
//! interpreter.
//! (The paper promises competitive runtimes from SafeTSA consumers; the
//! reproduction compares interpreters, not JITs — see DESIGN.md.)

use criterion::{criterion_group, criterion_main, Criterion};
use safetsa_bench::{build_pipeline, corpus};
use std::hint::black_box;

fn bench_interp(c: &mut Criterion) {
    // A fast-running subset keeps the benchmark wall-clock reasonable.
    let subset = ["QuickSort", "Crc32", "Matrix", "HashTable", "BitSieve"];
    let entries: Vec<_> = corpus()
        .into_iter()
        .filter(|e| subset.contains(&e.name))
        .collect();
    let pipelines: Vec<_> = entries.iter().map(|e| (e, build_pipeline(e))).collect();

    let mut g = c.benchmark_group("interp");
    g.sample_size(10);
    g.bench_function("safetsa", |b| {
        b.iter(|| {
            for (e, pl) in &pipelines {
                let mut vm = safetsa_vm::Vm::load(&pl.module).unwrap();
                black_box(vm.run_entry(e.entry).unwrap());
            }
        })
    });
    g.bench_function("safetsa_optimized", |b| {
        b.iter(|| {
            for (e, pl) in &pipelines {
                let mut vm = safetsa_vm::Vm::load(&pl.optimized).unwrap();
                black_box(vm.run_entry(e.entry).unwrap());
            }
        })
    });
    g.bench_function("baseline_stack", |b| {
        b.iter(|| {
            for (e, pl) in &pipelines {
                let mut vm = safetsa_baseline::interp::Bvm::load(&pl.prog, &pl.bcode);
                black_box(vm.run_entry(e.entry).unwrap());
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_interp);
criterion_main!(benches);
