//! Resource-exhaustion fault injection over the benchmark corpus.
//!
//! For every corpus program we first measure its *natural* consumption
//! (instructions, heap bytes, peak call depth) under unlimited budgets,
//! then sweep each budget axis below and at the natural value. Every
//! squeezed run must either complete identically to the unlimited run
//! (possible when the shortfall lands on a budget-exempt allocation,
//! e.g. trap-exception objects) or fail with the structured error for
//! that axis — never a panic. After every trap the same `Vm` must stay
//! usable: re-running is required to yield another structured outcome,
//! and lifting the budget must let the original run complete.

use safetsa_bench::{build_pipeline, corpus};
use safetsa_rt::{Trap, Value};
use safetsa_vm::{ResourceLimits, Vm, VmError};

/// What a squeezed run is allowed to do on each budget axis.
#[derive(Clone, Copy, Debug)]
enum Axis {
    Fuel,
    Heap,
    Depth,
}

fn limits_for(axis: Axis, budget: u64) -> ResourceLimits {
    // The squeezed axis gets `budget`; the others stay effectively
    // unlimited so failures are attributable to one cause.
    match axis {
        Axis::Fuel => ResourceLimits {
            fuel: Some(budget),
            max_heap_bytes: None,
            max_call_depth: None,
        },
        Axis::Heap => ResourceLimits {
            fuel: Some(u64::MAX),
            max_heap_bytes: Some(budget),
            max_call_depth: None,
        },
        Axis::Depth => ResourceLimits {
            fuel: Some(u64::MAX),
            max_heap_bytes: None,
            max_call_depth: Some(budget as u32),
        },
    }
}

/// `true` when `err` is an acceptable structured failure for `axis`.
/// Resource traps are catchable, so an uncaught one may surface either
/// as the raw trap or as the corresponding `Error` instance rethrown by
/// a non-matching guest handler (`Trap::User`).
fn expected_error(axis: Axis, err: &VmError) -> bool {
    matches!(
        (axis, err),
        (Axis::Fuel, VmError::FuelExhausted)
            | (
                Axis::Heap,
                VmError::Uncaught(Trap::OutOfMemory | Trap::User(_))
            )
            | (
                Axis::Depth,
                VmError::Uncaught(Trap::StackOverflow | Trap::User(_))
            )
    )
}

fn results_agree(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => x.bits_eq(*y),
        (None, None) => true,
        _ => false,
    }
}

/// Budget points strictly below `natural`, spread across the range.
fn squeeze_points(natural: u64) -> Vec<u64> {
    let mut pts = vec![];
    for candidate in [natural.saturating_sub(1), natural / 2, natural / 8, 1] {
        if candidate < natural && !pts.contains(&candidate) {
            pts.push(candidate);
        }
    }
    pts
}

#[test]
fn corpus_survives_budget_sweeps() {
    for entry in corpus() {
        let pl = build_pipeline(&entry);

        // Natural consumption and reference behaviour, unlimited.
        let mut vm = Vm::load(&pl.module).expect("loads");
        vm.set_limits(ResourceLimits::unlimited());
        let ref_result = vm
            .run_entry(entry.entry)
            .unwrap_or_else(|e| panic!("{}: unlimited run failed: {e}", entry.name));
        let ref_output = vm.output.text().to_string();
        let natural_steps = vm.steps;
        let natural_bytes = vm.heap.bytes_allocated();
        let natural_depth = u64::from(vm.peak_depth());
        assert!(
            natural_steps > 0,
            "{}: no instructions executed",
            entry.name
        );
        assert!(natural_depth > 0, "{}: no calls executed", entry.name);

        for (axis, natural) in [
            (Axis::Fuel, natural_steps),
            (Axis::Heap, natural_bytes),
            (Axis::Depth, natural_depth),
        ] {
            // At exactly the natural value the program must complete
            // and behave identically.
            let mut vm = Vm::load(&pl.module).expect("loads");
            vm.set_limits(limits_for(axis, natural));
            let r = vm.run_entry(entry.entry).unwrap_or_else(|e| {
                panic!(
                    "{}: {axis:?} budget {natural} (== natural) trapped: {e}",
                    entry.name
                )
            });
            assert!(
                results_agree(&r, &ref_result),
                "{}: {axis:?} at-natural result {r:?} != {ref_result:?}",
                entry.name
            );
            assert_eq!(
                vm.output.text(),
                ref_output,
                "{}: {axis:?} at-natural output diverged",
                entry.name
            );

            // Below the natural value: identical completion or the
            // axis's structured error.
            for budget in squeeze_points(natural) {
                let limits = limits_for(axis, budget);
                let mut vm = Vm::load(&pl.module).expect("loads");
                vm.set_limits(limits);
                match vm.run_entry(entry.entry) {
                    Ok(r) => {
                        assert!(
                            results_agree(&r, &ref_result),
                            "{}: {axis:?} budget {budget} completed with {r:?} != {ref_result:?}",
                            entry.name
                        );
                        assert_eq!(
                            vm.output.text(),
                            ref_output,
                            "{}: {axis:?} budget {budget} output diverged",
                            entry.name
                        );
                    }
                    Err(e) => {
                        assert!(
                            expected_error(axis, &e),
                            "{}: {axis:?} budget {budget} failed with unexpected error: {e}",
                            entry.name
                        );
                        // Not poisoned: the same VM under the same
                        // budget yields another structured outcome.
                        match vm.run_entry(entry.entry) {
                            Ok(_) => {}
                            Err(e2) => assert!(
                                expected_error(axis, &e2),
                                "{}: {axis:?} budget {budget} rerun error: {e2}",
                                entry.name
                            ),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn vm_recovers_when_budget_is_lifted() {
    // A trapped VM is not just non-poisoned — lifting the budget on the
    // very same instance must let the original workload complete with
    // the reference behaviour (output is appended to the same buffer,
    // so the recovered run's text arrives as a suffix).
    for entry in corpus() {
        let pl = build_pipeline(&entry);
        let mut probe = Vm::load(&pl.module).expect("loads");
        probe.set_limits(ResourceLimits::unlimited());
        let ref_result = probe.run_entry(entry.entry).expect("unlimited run");
        let ref_output = probe.output.text().to_string();
        let natural_steps = probe.steps;

        let mut vm = Vm::load(&pl.module).expect("loads");
        vm.set_limits(limits_for(Axis::Fuel, natural_steps / 2));
        let err = vm
            .run_entry(entry.entry)
            .expect_err("half fuel must exhaust");
        assert!(
            matches!(err, VmError::FuelExhausted),
            "{}: {err}",
            entry.name
        );

        vm.set_limits(ResourceLimits::unlimited());
        let recovered = vm
            .run_entry(entry.entry)
            .unwrap_or_else(|e| panic!("{}: recovery run failed: {e}", entry.name));
        assert!(
            results_agree(&recovered, &ref_result),
            "{}: recovered result {recovered:?} != {ref_result:?}",
            entry.name
        );
        assert!(
            vm.output.text().ends_with(&ref_output),
            "{}: recovered output is not a clean replay",
            entry.name
        );
    }
}
