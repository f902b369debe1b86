//! # safetsa-vm
//!
//! The SafeTSA code consumer: loads a verified module and executes it.
//! The paper's consumer performs decode → verify → native code
//! generation; this reproduction's consumer interprets the SafeTSA
//! graph directly (the evaluation in the paper contains no JIT numbers,
//! and interpretation suffices for the differential-correctness and
//! representation-size experiments).
//!
//! The interpreter decodes each function once, on first call, by
//! flattening the Control Structure Tree into a direct-threaded op
//! array; phi nodes become copies on each static CFG edge, sequenced at
//! decode time, exceptions follow the implicit edges to the innermost
//! handler, and dynamic dispatch resolves through the type table's
//! slots, which the consumer assigned itself (tamper-proof) with the
//! producer's rule. Its output is
//! checked against the independent bytecode baseline interpreter
//! (`safetsa-baseline`) corpus-wide.
//!
//! # Examples
//!
//! ```
//! let prog = safetsa_frontend::compile(
//!     "class Main { static int main() { return 6 * 7; } }",
//! )?;
//! let lowered = safetsa_ssa::lower_program(&prog)?;
//! let mut vm = safetsa_vm::Vm::load(&lowered.module)?;
//! let result = vm.run_entry("Main.main")?;
//! assert_eq!(result, Some(safetsa_rt::Value::I(42)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod interp;
mod threaded;

pub use interp::{ResourceLimits, Vm, VmError, VmProfile, VmStats, DEADLINE_SLICE};
