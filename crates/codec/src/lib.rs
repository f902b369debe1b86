//! # safetsa-codec
//!
//! The SafeTSA wire format: type-safe, referentially secure
//! externalization of SSA programs.
//!
//! The design follows §2 and §7 of the paper:
//!
//! * value references travel as dominator-relative `(l, r)` pairs, so a
//!   decoded reference can *only* name a value that dominates its use —
//!   cross-branch references (the attack of Figure 1/2) are not
//!   expressible, and the only check needed is the trivial bound on `r`;
//! * every symbol is drawn from a finite, context-determined alphabet
//!   and coded with the "simple prefix encoding" (⌈log₂ n⌉ bits, §7) —
//!   a reference to the only value on a plane costs zero bits;
//! * transmission happens in three phases: the Control Structure Tree
//!   as grammar productions, the per-block instruction streams in the
//!   fixed CST-derived order, and finally the phi operands (which may
//!   reference forward);
//! * primitive types and imported host classes are never transmitted —
//!   the consumer generates them, so they cannot be tampered with (§4);
//!   dispatch-table slots are likewise re-derived by the consumer.
//!
//! # Examples
//!
//! ```
//! use safetsa_codec::{decode_and_verify, encode_module, HostEnv};
//!
//! let prog = safetsa_frontend::compile(
//!     "class M { static int main() { return 7 * 6; } }",
//! )?;
//! let lowered = safetsa_ssa::lower_program(&prog)?;
//! let bytes = encode_module(&lowered.module)?;
//! let host = HostEnv::standard();
//! let decoded = decode_and_verify(&bytes, &host)?;
//! assert!(decoded.find_function("M.main").is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod bits;
pub mod dec;
pub mod enc;
pub mod layout;
pub mod refs;

pub use bits::DecodeError;
pub use dec::{decode_and_verify, decode_function_section, decode_module, HostEnv};
pub use enc::{encode_function_section, encode_module, encode_sections, EncodeError, Sections};

use safetsa_telemetry::Telemetry;
use std::sync::OnceLock;

/// The canonical instrumented entry point: [`encode_module`] recording
/// the encode wall time (`codec.encode_ns`), the stream size
/// (`codec.total_bytes`), and the per-section bit breakdown
/// (`codec.sections.*_bits`) — where the paper's Figure 5 bytes
/// actually go. A disabled registry records nothing.
///
/// # Errors
///
/// Returns [`EncodeError`] when the module is not in verified shape.
pub fn encode(m: &safetsa_core::Module, tm: &Telemetry) -> Result<Vec<u8>, EncodeError> {
    let (bytes, sec) = tm.time("codec.encode_ns", || encode_sections(m))?;
    record_sections(&sec, tm);
    Ok(bytes)
}

/// Records one [`Sections`] breakdown into the `codec.*` counter plane.
pub fn record_sections(sec: &Sections, tm: &Telemetry) {
    if !tm.is_enabled() {
        return;
    }
    tm.add("codec.total_bytes", sec.total_bytes);
    tm.add("codec.functions", sec.functions);
    tm.add("codec.sections.header_bits", sec.header_bits);
    tm.add("codec.sections.type_table_bits", sec.type_table_bits);
    tm.add("codec.sections.const_pool_bits", sec.const_pool_bits);
    tm.add("codec.sections.cst_bits", sec.cst_bits);
    tm.add("codec.sections.instr_bits", sec.instr_bits);
    tm.add("codec.sections.operand_ref_bits", sec.operand_ref_bits);
    tm.add("codec.sections.cst_ref_bits", sec.cst_ref_bits);
    tm.add("codec.sections.phi_ref_bits", sec.phi_ref_bits);
}

impl HostEnv {
    /// The standard host environment: the same implicit classes the
    /// front-end installs. It is built once per process, by compiling an
    /// empty program; every call returns a clone that shares the host
    /// classes with the others.
    ///
    /// # Panics
    ///
    /// Never panics in practice: the empty program always compiles.
    pub fn standard() -> HostEnv {
        static STANDARD: OnceLock<HostEnv> = OnceLock::new();
        STANDARD
            .get_or_init(|| {
                // Build via the producer pipeline over an empty program:
                // only the implicit host classes remain.
                let prog = safetsa_frontend::compile("").expect("empty program compiles");
                let lowered = safetsa_ssa::lower_program(&prog).expect("empty program lowers");
                HostEnv {
                    types: lowered.module.types,
                    well_known: lowered.module.well_known,
                }
            })
            .clone()
    }
}
