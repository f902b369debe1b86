//! # safetsa-rt
//!
//! The shared runtime substrate for the two execution engines of the
//! reproduction: the SafeTSA interpreter (`safetsa-vm`) and the Java
//! bytecode baseline interpreter (`safetsa-baseline`). Sharing the
//! heap, value, intrinsic, and formatting machinery guarantees that the
//! differential tests compare the *code representations*, not two
//! divergent library implementations.
//!
//! Object layout is not shared: the SafeTSA interpreter reads field
//! slots and instance sizes from the type table, and the baseline lays
//! out its classes itself, so each checks the other.

#![warn(missing_docs)]

pub mod format;
pub mod heap;
pub mod intrinsics;
pub mod value;

pub use heap::{Heap, HeapRef, Obj};
pub use value::Value;

/// The runtime-level exceptional conditions; the engines map these to
/// instances of the built-in exception classes.
#[derive(Debug, Clone, PartialEq)]
pub enum Trap {
    /// Integer division or remainder by zero.
    DivByZero,
    /// Dereference of `null`.
    NullPointer,
    /// Array index out of bounds (also string index intrinsics).
    IndexOutOfBounds,
    /// Failed checked cast.
    ClassCast,
    /// `new T[n]` with negative `n`.
    NegativeArraySize,
    /// A user `throw` (payload: the thrown object).
    User(HeapRef),
    /// Executing engine detected an internal inconsistency — never
    /// expected for verified input.
    Internal(String),
    /// Execution exceeded the configured step budget (guards tests
    /// against accidental infinite loops).
    OutOfFuel,
    /// Execution ran past its wall-clock deadline. Like [`Trap::OutOfFuel`]
    /// this is an engine-level abort, not a catchable guest exception —
    /// a handler would itself run past the deadline.
    DeadlineExceeded,
    /// An allocation exceeded the configured heap byte budget; the
    /// engines map this to `OutOfMemoryError`, so governed code can
    /// catch it like real Java.
    OutOfMemory,
    /// The call depth exceeded the configured stack budget; mapped to
    /// `StackOverflowError`.
    StackOverflow,
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::NullPointer => write!(f, "null pointer"),
            Trap::IndexOutOfBounds => write!(f, "index out of bounds"),
            Trap::ClassCast => write!(f, "class cast"),
            Trap::NegativeArraySize => write!(f, "negative array size"),
            Trap::User(r) => write!(f, "user exception at {r:?}"),
            Trap::Internal(s) => write!(f, "internal: {s}"),
            Trap::OutOfFuel => write!(f, "out of fuel"),
            Trap::DeadlineExceeded => write!(f, "deadline exceeded"),
            Trap::OutOfMemory => write!(f, "out of memory"),
            Trap::StackOverflow => write!(f, "stack overflow"),
        }
    }
}

impl std::error::Error for Trap {}

/// Captured program output (`Sys.print*`), shared by both engines so
/// differential tests can compare byte-for-byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Output {
    buffer: String,
}

impl Output {
    /// Creates an empty output buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw text.
    pub fn push(&mut self, s: &str) {
        self.buffer.push_str(s);
    }

    /// Appends a newline.
    pub fn newline(&mut self) {
        self.buffer.push('\n');
    }

    /// The captured text.
    pub fn text(&self) -> &str {
        &self.buffer
    }
}
