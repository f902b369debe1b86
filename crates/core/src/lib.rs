//! # safetsa-core
//!
//! The SafeTSA intermediate representation: a type-safe, referentially
//! secure mobile-code format based on static single assignment form,
//! reproducing the system of Amme, Dalton, von Ronne & Franz (PLDI
//! 2001).
//!
//! The crate provides:
//!
//! * the type table and register-plane universe ([`types`], §3),
//! * the primitive-operation machine model ([`primops`], §5),
//! * SSA values, instructions and phis ([`value`], [`instr`]),
//! * the Control Structure Tree ([`cst`], §7) with CFG and dominator
//!   derivation ([`mod@cfg`], [`dom`], §2),
//! * the typing rules of type separation ([`typing`], §3–§4),
//! * function/module containers ([`function`], [`module`]),
//! * the verifier ([`verify`]) — linear-time, no dataflow analysis,
//! * per-thread reuse of derived-graph buffers ([`reuse`]),
//! * the paper's textual program views ([`pretty`], Figures 1–4, 7–9).
//!
//! The wire format lives in `safetsa-codec`; SSA construction from Java
//! sources in `safetsa-ssa`; producer-side optimization in
//! `safetsa-opt`; execution in `safetsa-vm`.
//!
//! # Examples
//!
//! Building and verifying `f(a, b) = a + b` by hand:
//!
//! ```
//! use safetsa_core::cst::Cst;
//! use safetsa_core::function::{Function, ENTRY};
//! use safetsa_core::instr::Instr;
//! use safetsa_core::primops;
//! use safetsa_core::types::{ClassInfo, PrimKind, TypeTable};
//! use safetsa_core::verify::verify_function;
//!
//! let mut types = TypeTable::new();
//! let (throwable, _) = types.declare_class(ClassInfo {
//!     name: "Throwable".into(),
//!     superclass: None,
//!     fields: vec![],
//!     methods: vec![],
//!     imported: true,
//!     instance_size: 0,
//! });
//! let int = types.prim(PrimKind::Int);
//! let mut f = Function::new("add", None, vec![int, int], Some(int));
//! let add = primops::find(PrimKind::Int, "add").unwrap();
//! let sum = f
//!     .add_instr(&mut types, ENTRY, Instr::Primitive {
//!         ty: int,
//!         op: add,
//!         args: [f.param_value(0), f.param_value(1)].into(),
//!     })?
//!     .unwrap();
//! f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Return(Some(sum))]);
//! verify_function(&types, throwable, &f)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod cfg;
pub mod cst;
pub mod dom;
pub mod function;
pub mod instr;
pub mod module;
pub mod pretty;
pub mod primops;
pub mod reuse;
pub mod rewrite;
pub mod types;
pub mod typing;
pub mod value;
pub mod verify;

pub use function::Function;
pub use module::Module;
pub use types::TypeTable;
