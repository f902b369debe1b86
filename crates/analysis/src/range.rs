//! Integer range analysis with symbolic `arraylength`-relative bounds.
//!
//! Every `int`-plane value gets an interval `[lo, hi]` (clamped to the
//! 32-bit range) plus an optional *symbolic* upper bound
//! `v < length(A) + offset`, where `A` identifies an array by its
//! canonical origin value. The symbolic bound is what lets the classic
//! loop idiom prove its own bounds check redundant:
//!
//! ```text
//! i₂ = phi(0, i₃)            ; i₂ ∈ [0, 2³¹-1]   (see below)
//! len = arraylength a        ; len = length(a), so len < length(a)+1
//! guard: i₂ < len            ; in the body: i₂ < length(a)
//! … indexcheck a, i₂ …       ; 0 ≤ i₂ < length(a)  ⇒ in bounds
//! i₃ = i₂ + 1                ; [1, 2³¹-1] — no wrap, since the add
//!                            ;   happens under the guard i₂ < len
//! ```
//!
//! The lower bound of the loop phi needs the guard too: the back edge
//! only executes under `i₂ < len ≤ 2³¹-1`, so `i₂ + 1` cannot wrap and
//! `i₃ ≥ 1`; joined with the init edge the phi stays `≥ 0`. The engine
//! gets this right because phi arguments are narrowed by the guards of
//! the edge's *source* block ([`crate::framework::ForwardAnalysis::phi_arg`]).
//!
//! ### Soundness of the symbolic bound
//!
//! `length(A)` is a fixed number for the lifetime of the array (Java
//! arrays cannot be resized), and an SSA value names one runtime
//! array, so `v < length(A) + k` is a plain arithmetic statement. Two
//! facts introduce it: the result of `arraylength A` equals
//! `length(A)` exactly, and the length operand of `newarray` equals
//! the new array's length exactly (on every path where the array
//! exists). It propagates through `±constant` only when the numeric
//! interval already excludes 32-bit wraparound, and it dies at any
//! join where the two sides disagree. Array identity is compared by
//! chasing both sides through the reference-preserving instructions
//! (`nullcheck`, `downcast`, `upcast`) to a common origin.

use crate::framework::{run_forward, Facts, Fixpoint, ForwardAnalysis, JoinLattice};
use crate::guards::{block_guards, BlockGuards, Guard};
use safetsa_core::cfg::Cfg;
use safetsa_core::function::Function;
use safetsa_core::instr::Instr;
use safetsa_core::primops;
use safetsa_core::types::{PrimKind, TypeId, TypeKind, TypeTable};
use safetsa_core::value::{BlockId, Def, Literal, ValueId};
use std::collections::HashMap;

const I32_MIN: i64 = i32::MIN as i64;
const I32_MAX: i64 = i32::MAX as i64;

/// A symbolic upper bound: `value < length(array) + offset`, with
/// `array` a canonical origin value (see [`origin`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LenRel {
    /// The canonical origin value of the array.
    pub array: ValueId,
    /// The offset `k` in `value < length(array) + k`.
    pub offset: i64,
}

/// The interval fact for one `int` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
    /// Optional symbolic upper bound relative to an array length.
    pub len_rel: Option<LenRel>,
}

impl Range {
    /// The full 32-bit range (lattice top).
    pub const FULL: Range = Range {
        lo: I32_MIN,
        hi: I32_MAX,
        len_rel: None,
    };

    /// The singleton range `[c, c]`.
    pub fn exactly(c: i64) -> Range {
        Range {
            lo: c,
            hi: c,
            len_rel: None,
        }
    }

    /// Clamps a mathematical interval into a valid fact: anything that
    /// escapes the 32-bit range may have wrapped, so it degrades to
    /// [`Range::FULL`].
    fn fit(lo: i64, hi: i64, len_rel: Option<LenRel>) -> Range {
        if lo < I32_MIN || hi > I32_MAX || lo > hi {
            Range::FULL
        } else {
            Range { lo, hi, len_rel }
        }
    }

    /// The constant this range pins down, if singleton.
    pub fn as_const(&self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }
}

impl JoinLattice for Range {
    fn join(&self, other: &Range) -> Range {
        Range {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            len_rel: if self.len_rel == other.len_rel {
                self.len_rel
            } else {
                None
            },
        }
    }
}

/// Chases `v` through reference-preserving instructions (`nullcheck`,
/// `downcast`, `upcast`) to its canonical origin value.
pub fn origin(f: &Function, mut v: ValueId) -> ValueId {
    loop {
        let Def::Instr(b, k) = f.value(v).def else {
            return v;
        };
        match &f.block(b).instrs[k as usize] {
            Instr::NullCheck { value, .. }
            | Instr::Downcast { value, .. }
            | Instr::Upcast { value, .. } => v = *value,
            _ => return v,
        }
    }
}

struct Analysis<'a> {
    int_ty: TypeId,
    types: &'a TypeTable,
    guards: &'a BlockGuards,
    /// value → arrays whose exact length it equals (`arraylength`
    /// results and `newarray` length operands).
    len_sources: &'a HashMap<ValueId, Vec<ValueId>>,
}

/// The operand plane kind, op name, and arguments of a primitive
/// instruction (checked or not).
fn prim_parts<'i>(
    types: &TypeTable,
    instr: &'i Instr,
) -> Option<(PrimKind, &'static str, &'i [ValueId])> {
    let (ty, op, args) = match instr {
        Instr::Primitive { ty, op, args } | Instr::XPrimitive { ty, op, args } => (ty, op, args),
        _ => return None,
    };
    let TypeKind::Prim(kind) = types.kind(*ty) else {
        return None;
    };
    Some((kind, primops::resolve(kind, *op)?.name, args))
}

impl Analysis<'_> {
    fn models(&self, f: &Function, v: ValueId) -> bool {
        f.value_ty(v) == self.int_ty
    }

    /// All symbolic bounds `y < length(A) + k` known for `y`: its own
    /// fact plus the exact-length sources (`y = length(A)` gives
    /// `y < length(A) + 1`).
    fn len_rels<'s>(
        &'s self,
        facts: &'s Facts<Range>,
        y: ValueId,
    ) -> impl Iterator<Item = LenRel> + 's {
        let own = facts.get(y).and_then(|r| r.len_rel);
        let sources = self.len_sources.get(&y).map_or(&[][..], Vec::as_slice);
        own.into_iter().chain(sources.iter().map(|&a| LenRel {
            array: a,
            offset: 1,
        }))
    }

    /// The raw fact of `v` (top if unmodeled-yet), numeric part only.
    fn raw(&self, facts: &Facts<Range>, v: ValueId) -> Range {
        facts.get(v).copied().unwrap_or(Range::FULL)
    }

    /// `v`'s fact narrowed by the guards active in block `b`.
    fn narrowed(&self, facts: &Facts<Range>, v: ValueId, b: BlockId) -> Range {
        let mut r = self.raw(facts, v);
        for g in self.guards.at(b) {
            match *g {
                Guard::IntLt(x, y) if x == v => {
                    r.hi = r.hi.min(self.raw(facts, y).hi.saturating_sub(1));
                    if r.len_rel.is_none() {
                        r.len_rel = self.len_rels(facts, y).next().map(|lr| LenRel {
                            array: lr.array,
                            offset: lr.offset - 1,
                        });
                    }
                }
                Guard::IntLt(y, x) if x == v => {
                    r.lo = r.lo.max(self.raw(facts, y).lo.saturating_add(1));
                }
                Guard::IntLe(x, y) if x == v => {
                    r.hi = r.hi.min(self.raw(facts, y).hi);
                    if r.len_rel.is_none() {
                        r.len_rel = self.len_rels(facts, y).next();
                    }
                }
                Guard::IntLe(y, x) if x == v => {
                    r.lo = r.lo.max(self.raw(facts, y).lo);
                }
                Guard::IntEq(x, y) if x == v => {
                    let o = self.raw(facts, y);
                    r.lo = r.lo.max(o.lo);
                    r.hi = r.hi.min(o.hi);
                }
                Guard::IntEq(y, x) if x == v => {
                    let o = self.raw(facts, y);
                    r.lo = r.lo.max(o.lo);
                    r.hi = r.hi.min(o.hi);
                }
                _ => {}
            }
        }
        if r.lo > r.hi {
            // Contradictory guards: the block is unreachable in
            // practice; keep the fact well formed.
            r = Range {
                lo: r.lo.min(r.hi),
                hi: r.lo.max(r.hi),
                len_rel: r.len_rel,
            };
        }
        r
    }

    fn binary(&self, name: &str, a: Range, b: Range) -> Range {
        let max_abs = |r: Range| r.lo.abs().max(r.hi.abs());
        match name {
            "add" => {
                let len_rel = match (a.len_rel, b.as_const(), b.len_rel, a.as_const()) {
                    // Propagate `x < len + k` through `x + c` only when
                    // the numeric interval proves the add cannot wrap.
                    (Some(lr), Some(c), _, _) if a.hi + c <= I32_MAX && a.lo + c >= I32_MIN => {
                        Some(LenRel {
                            array: lr.array,
                            offset: lr.offset + c,
                        })
                    }
                    (_, _, Some(lr), Some(c)) if b.hi + c <= I32_MAX && b.lo + c >= I32_MIN => {
                        Some(LenRel {
                            array: lr.array,
                            offset: lr.offset + c,
                        })
                    }
                    _ => None,
                };
                Range::fit(a.lo + b.lo, a.hi + b.hi, len_rel)
            }
            "sub" => {
                let len_rel = match (a.len_rel, b.as_const()) {
                    (Some(lr), Some(c)) if a.hi - c <= I32_MAX && a.lo - c >= I32_MIN => {
                        Some(LenRel {
                            array: lr.array,
                            offset: lr.offset - c,
                        })
                    }
                    _ => None,
                };
                Range::fit(a.lo - b.hi, a.hi - b.lo, len_rel)
            }
            "mul" => {
                let ps = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
                Range::fit(
                    ps.iter().copied().min().unwrap(),
                    ps.iter().copied().max().unwrap(),
                    None,
                )
            }
            "div" => {
                if a.lo >= 0 && b.lo >= 1 {
                    Range::fit(0, a.hi, None)
                } else {
                    Range::fit(-max_abs(a), max_abs(a), None)
                }
            }
            "rem" => {
                let m = max_abs(b).saturating_sub(1).max(0);
                if a.lo >= 0 {
                    Range::fit(0, m.min(a.hi), None)
                } else {
                    Range::fit(-m, m, None)
                }
            }
            "and" => {
                if a.lo >= 0 && b.lo >= 0 {
                    Range::fit(0, a.hi.min(b.hi), None)
                } else {
                    Range::FULL
                }
            }
            "or" | "xor" => {
                if a.lo >= 0 && b.lo >= 0 {
                    Range::fit(0, I32_MAX, None)
                } else {
                    Range::FULL
                }
            }
            "shr" | "ushr" => {
                if a.lo >= 0 {
                    Range::fit(0, a.hi, None)
                } else {
                    Range::FULL
                }
            }
            _ => Range::FULL,
        }
    }
}

impl ForwardAnalysis for Analysis<'_> {
    type Fact = Range;

    fn preload(&mut self, f: &Function, v: ValueId) -> Option<Range> {
        if !self.models(f, v) {
            return None;
        }
        Some(match f.value(v).def {
            Def::Const(i) => match f.consts[i as usize].lit {
                Literal::Int(c) => Range::exactly(c as i64),
                _ => Range::FULL,
            },
            _ => Range::FULL,
        })
    }

    fn transfer(
        &mut self,
        f: &Function,
        b: BlockId,
        k: usize,
        facts: &Facts<Range>,
    ) -> Option<Range> {
        let result = f.instr_result(b, k)?;
        if !self.models(f, result) {
            return None;
        }
        let instr = &f.block(b).instrs[k];
        if let Instr::ArrayLength { array, .. } = instr {
            return Some(Range {
                lo: 0,
                hi: I32_MAX,
                len_rel: Some(LenRel {
                    array: origin(f, *array),
                    offset: 1,
                }),
            });
        }
        let Some((kind, name, args)) = prim_parts(self.types, instr) else {
            // Loads, calls, element reads: any int.
            return Some(Range::FULL);
        };
        Some(match (kind, name) {
            (PrimKind::Int, "neg") => {
                let a = self.narrowed(facts, args[0], b);
                Range::fit(-a.hi, -a.lo, None)
            }
            (PrimKind::Int, "not") => {
                let a = self.narrowed(facts, args[0], b);
                Range::fit(-a.hi - 1, -a.lo - 1, None)
            }
            (PrimKind::Int, op2) if args.len() == 2 => {
                let a = self.narrowed(facts, args[0], b);
                let c = self.narrowed(facts, args[1], b);
                self.binary(op2, a, c)
            }
            (PrimKind::Char, "to_int") => Range::fit(0, 0xFFFF, None),
            (PrimKind::Bool, _) => Range::fit(0, 1, None),
            _ => Range::FULL,
        })
    }

    fn phi_arg(
        &mut self,
        _f: &Function,
        pred: BlockId,
        arg: ValueId,
        facts: &Facts<Range>,
    ) -> Option<Range> {
        facts.get(arg)?;
        Some(self.narrowed(facts, arg, pred))
    }

    fn widen(&mut self, old: &Range, new: Range) -> Range {
        Range {
            lo: if new.lo < old.lo { I32_MIN } else { new.lo },
            hi: if new.hi > old.hi { I32_MAX } else { new.hi },
            len_rel: new.len_rel,
        }
    }
}

/// The fixpoint range facts for one function.
#[derive(Debug)]
pub struct RangeAnalysis {
    facts: Facts<Range>,
    guards: BlockGuards,
    len_sources: HashMap<ValueId, Vec<ValueId>>,
    /// Constant array lengths, keyed by the array's origin value.
    const_len: HashMap<ValueId, i64>,
    /// Fixpoint passes until stabilization.
    pub iterations: u64,
}

impl RangeAnalysis {
    /// The flow-insensitive fact for `v` (top if unmodeled).
    pub fn of(&self, v: ValueId) -> Range {
        self.facts.get(v).copied().unwrap_or(Range::FULL)
    }

    /// The fact for `v` as seen from block `b` (narrowed by guards).
    pub fn at(&self, types: &TypeTable, v: ValueId, b: BlockId) -> Range {
        let int_ty = types.int_ty();
        let a = Analysis {
            int_ty,
            types,
            guards: &self.guards,
            len_sources: &self.len_sources,
        };
        a.narrowed(&self.facts, v, b)
    }

    /// Whether `indexcheck array, index` in block `b` is provably in
    /// bounds: `0 ≤ index` and `index < length(array)`.
    pub fn proves_index(
        &self,
        types: &TypeTable,
        f: &Function,
        b: BlockId,
        array: ValueId,
        index: ValueId,
    ) -> bool {
        let a_origin = origin(f, array);
        let r = self.at(types, index, b);
        if r.lo < 0 {
            return false;
        }
        // Symbolic: a matching `index < length(array) + k, k ≤ 0` fact.
        if let Some(lr) = r.len_rel {
            if lr.array == a_origin && lr.offset <= 0 {
                return true;
            }
        }
        // Guard-direct: `index < y` with `y ≤ length(array)` (k ≤ 1),
        // or `index ≤ y` with `y < length(array)` (k ≤ 0).
        let an = Analysis {
            int_ty: types.int_ty(),
            types,
            guards: &self.guards,
            len_sources: &self.len_sources,
        };
        for g in self.guards.at(b) {
            let (y, strict) = match *g {
                Guard::IntLt(x, y) if x == index => (y, true),
                Guard::IntLe(x, y) if x == index => (y, false),
                _ => continue,
            };
            let limit = if strict { 1 } else { 0 };
            if an
                .len_rels(&self.facts, y)
                .any(|lr| lr.array == a_origin && lr.offset <= limit)
            {
                return true;
            }
        }
        // Constant-length arrays: `hi < length`.
        if let Some(&len) = self.const_len.get(&a_origin) {
            if r.hi < len {
                return true;
            }
        }
        false
    }

    /// Whether `indexcheck array, index` in block `b` is provably OUT
    /// of bounds — it traps on every execution.
    pub fn always_out_of_bounds(
        &self,
        types: &TypeTable,
        f: &Function,
        b: BlockId,
        array: ValueId,
        index: ValueId,
    ) -> bool {
        let r = self.at(types, index, b);
        if r.hi < 0 {
            return true;
        }
        if let Some(&len) = self.const_len.get(&origin(f, array)) {
            if r.lo >= len {
                return true;
            }
        }
        false
    }

    /// Number of values with a computed fact (telemetry).
    pub fn facts_computed(&self) -> u64 {
        self.facts.computed()
    }
}

/// Runs range analysis over `f`.
pub fn analyze(types: &TypeTable, f: &Function, cfg: &Cfg) -> RangeAnalysis {
    let guards = block_guards(f, types);
    // Pre-scan: exact-length sources and constant array lengths.
    let mut len_sources: HashMap<ValueId, Vec<ValueId>> = HashMap::new();
    let mut const_len: HashMap<ValueId, i64> = HashMap::new();
    for (bi, block) in f.blocks.iter().enumerate() {
        let b = BlockId(bi as u32);
        for (k, instr) in block.instrs.iter().enumerate() {
            match instr {
                Instr::ArrayLength { array, .. } => {
                    if let Some(r) = f.instr_result(b, k) {
                        len_sources.entry(r).or_default().push(origin(f, *array));
                    }
                }
                Instr::NewArray { length, .. } => {
                    if let Some(r) = f.instr_result(b, k) {
                        len_sources.entry(*length).or_default().push(r);
                        if let Def::Const(i) = f.value(*length).def {
                            if let Literal::Int(c) = f.consts[i as usize].lit {
                                const_len.insert(r, c as i64);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    let mut a = Analysis {
        int_ty: types.int_ty(),
        types,
        guards: &guards,
        len_sources: &len_sources,
    };
    let Fixpoint { facts, iterations } = run_forward(f, cfg, &mut a);
    RangeAnalysis {
        facts,
        guards,
        len_sources,
        const_len,
        iterations,
    }
}
