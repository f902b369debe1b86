//! The IR linter: accumulates every diagnostic the analyses can prove
//! about a module, with function/block locations.
//!
//! Severities follow one rule: **errors** are sites that provably trap
//! on every execution reaching them *outside* any `try` region (an
//! always-null dereference, a provably out-of-bounds index) — running
//! the code cannot do what it says. Everything else — dead stores,
//! unreachable branches, constant conditions, unused values — is a
//! **warning**: suspicious, semantics-preserving to remove, and often
//! intentional in test code. A provable trap *inside* a `try` is
//! downgraded to a warning too, because trapping may be exactly the
//! point (exception-path tests). **Notes** are advisory observations
//! that are not even suspicious — facts the heap analyses can see
//! (such as aliasing that pins a load inside a loop) that explain why
//! the optimizer behaves the way it does.

use crate::alias;
use crate::escape;
use crate::liveness;
use crate::nullness::{self, Nullity};
use crate::range::{self, origin};
use safetsa_core::cfg::Cfg;
use safetsa_core::cst::Cst;
use safetsa_core::function::Function;
use safetsa_core::instr::Instr;
use safetsa_core::module::Module;
use safetsa_core::primops;
use safetsa_core::types::{FieldRef, PrimKind, TypeId, TypeKind, TypeTable};
use safetsa_core::value::{BlockId, Def, Literal, ValueId};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The code provably traps when executed; almost certainly a bug.
    Error,
    /// Suspicious but semantics-preserving.
    Warning,
    /// Advisory observation; informational only.
    Note,
}

impl Severity {
    /// The lowercase name (`error` / `warning` / `note`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// One linter finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable machine-readable kind slug.
    pub kind: &'static str,
    /// The containing function (`Class.method`).
    pub function: String,
    /// The block of the offending site.
    pub block: BlockId,
    /// Instruction index within the block, when the site is an
    /// instruction.
    pub instr: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

/// Lints every function of `m`; diagnostics come out in deterministic
/// (function, block, instruction) order.
pub fn lint_module(m: &Module) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &m.functions {
        out.extend(lint_function(&m.types, f));
    }
    out
}

/// Blocks inside any `try` body (where a provable trap is plausibly
/// intentional and gets downgraded to a warning).
fn protected_blocks(cst: &Cst, depth: usize, out: &mut HashSet<BlockId>) {
    match cst {
        Cst::Basic(b) if depth > 0 => {
            out.insert(*b);
        }
        Cst::Seq(items) => {
            for c in items {
                protected_blocks(c, depth, out);
            }
        }
        Cst::If {
            then_br, else_br, ..
        } => {
            protected_blocks(then_br, depth, out);
            protected_blocks(else_br, depth, out);
        }
        Cst::Loop { body, .. } | Cst::Labeled { body, .. } => protected_blocks(body, depth, out),
        Cst::Try { body, handler, .. } => {
            protected_blocks(body, depth + 1, out);
            protected_blocks(handler, depth, out);
        }
        _ => {}
    }
}

/// Lints one function.
pub fn lint_function(types: &TypeTable, f: &Function) -> Vec<Diagnostic> {
    let Ok(cfg) = Cfg::build(f) else {
        return Vec::new();
    };
    let nn = nullness::analyze(types, f, &cfg);
    let rg = range::analyze(types, f, &cfg);
    let lv = liveness::analyze(f, &cfg);
    let mut protected = HashSet::new();
    protected_blocks(&f.body, 0, &mut protected);

    let mut out = Vec::new();
    let mut push = |severity, kind, block, instr, message: String| {
        out.push(Diagnostic {
            severity,
            kind,
            function: f.name.clone(),
            block,
            instr,
            message,
        });
    };
    let trap_severity = |b: &BlockId| {
        if protected.contains(b) {
            Severity::Warning
        } else {
            Severity::Error
        }
    };

    for (bi, block) in f.blocks.iter().enumerate() {
        let b = BlockId(bi as u32);
        if !cfg.reachable[bi] {
            continue;
        }
        let mut last_store: HashMap<StoreKey, usize> = HashMap::new();
        for (k, instr) in block.instrs.iter().enumerate() {
            match instr {
                Instr::NullCheck { value, .. } if nn.at(*value, b) == Nullity::Null => {
                    push(
                        trap_severity(&b),
                        "always-null-deref",
                        b,
                        Some(k),
                        format!("{value} is provably null; this dereference always traps"),
                    );
                }
                Instr::IndexCheck { array, index, .. }
                    if rg.always_out_of_bounds(types, f, b, *array, *index) =>
                {
                    let r = rg.at(types, *index, b);
                    push(
                        trap_severity(&b),
                        "out-of-bounds-index",
                        b,
                        Some(k),
                        format!(
                            "index {index} in [{}, {}] is provably out of bounds; this check always traps",
                            r.lo, r.hi
                        ),
                    );
                }
                _ => {}
            }
            // Dead stores: a store overwritten by a later store to the
            // same location with no possible observer in between. An
            // intervening read, call, or *fallible* check re-exposes
            // the first store; checks the analyses prove infallible do
            // not.
            match store_key(f, instr) {
                StoreEvent::Store(key) => {
                    if let Some(&j) = last_store.get(&key) {
                        push(
                            Severity::Warning,
                            "dead-store",
                            b,
                            Some(j),
                            format!(
                                "stored value is overwritten at instruction {k} before any read"
                            ),
                        );
                    }
                    last_store.insert(key, k);
                }
                StoreEvent::Observer => last_store.clear(),
                StoreEvent::None => {
                    let fallible = match instr {
                        Instr::NullCheck { value, .. } => nn.at(*value, b) != Nullity::NonNull,
                        Instr::IndexCheck { array, index, .. } => {
                            !rg.proves_index(types, f, b, *array, *index)
                        }
                        other => other.is_exceptional(),
                    };
                    if fallible {
                        last_store.clear();
                    }
                }
            }
            // Unused values: pure instructions whose result cannot
            // influence observable behaviour.
            if let Some(r) = f.instr_result(b, k) {
                if instr.is_pure() && !lv.is_live(r) {
                    push(
                        Severity::Warning,
                        "unused-value",
                        b,
                        Some(k),
                        format!("result {r} of `{}` is never used", instr.mnemonic()),
                    );
                }
            }
        }
    }

    // Constant branch conditions and the unreachable code they imply.
    lint_branches(types, f, &f.body, &nn, &rg, &mut out);

    // Heap lints over the allocation-site alias and escape facts.
    lint_heap(types, f, &cfg, &mut out);

    out.sort_by_key(|d| (d.block.0, d.instr));
    out
}

/// Heap lints over the allocation-site alias and escape analyses —
/// the same facts that power `opt`'s load forwarding and dead-store
/// elimination, surfaced as diagnostics:
///
/// * `never-read-store` (warning): a store that no execution can
///   observe, exactly those dead-store elimination deletes by its
///   never-read rule ([`escape::never_read_stores`]).
/// * `never-written-load` (warning): a load through a base whose
///   points-to set is complete, non-empty, and all-`NoEscape`, of a
///   field (or array element type) that no store in the function can
///   reach through any of those sites — the load always yields the
///   location's default value.
/// * `aliased-mutation-in-loop` (note): inside one loop, a store and
///   a load of the same field (or element type) through *different*
///   references that may alias. Not a bug — but the store pins the
///   load in place: the optimizer must repeat it every iteration.
fn lint_heap(types: &TypeTable, f: &Function, cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    let al = alias::analyze(types, f, cfg);
    let esc = escape::analyze(f, cfg, &al);
    let field_name = |r: FieldRef| {
        types
            .field(r)
            .map_or_else(|| "<unknown>".to_string(), |i| i.name.clone())
    };

    for (b, k) in escape::never_read_stores(f, &al, &esc) {
        let message = match f.block(b).instrs[k] {
            Instr::SetField { field, .. } => format!(
                "field `{}` of this non-escaping object is stored but never read",
                field_name(field)
            ),
            _ => "this non-escaping array is stored to but never read".to_string(),
        };
        out.push(Diagnostic {
            severity: Severity::Warning,
            kind: "never-read-store",
            function: f.name.clone(),
            block: b,
            instr: Some(k),
            message,
        });
    }

    // Per-field / per-element-type unions of the sites any store writes
    // through. External-tainted bases contribute only their known sites:
    // by the escape lemma the external component can never denote a
    // `NoEscape` site, and only `NoEscape`-site locations are judged
    // below.
    let mut field_writes: HashMap<FieldRef, BTreeSet<alias::AllocSite>> = HashMap::new();
    let mut elt_writes: HashMap<TypeId, BTreeSet<alias::AllocSite>> = HashMap::new();
    for (bi, block) in f.blocks.iter().enumerate() {
        if !cfg.reachable[bi] {
            continue;
        }
        for instr in &block.instrs {
            match instr {
                Instr::SetField { object, field, .. } => {
                    field_writes
                        .entry(*field)
                        .or_default()
                        .extend(al.possible_sites(*object));
                }
                Instr::SetElt { arr_ty, array, .. } => {
                    elt_writes
                        .entry(*arr_ty)
                        .or_default()
                        .extend(al.possible_sites(*array));
                }
                _ => {}
            }
        }
    }
    // A load whose base can denote only known allocations invisible
    // outside the function reads what in-function stores wrote, or the
    // default if none of them reaches one of those sites.
    let unwritten = |base: ValueId, writes: Option<&BTreeSet<alias::AllocSite>>| {
        al.sites_of(base).is_some_and(|sites| {
            !sites.is_empty()
                && esc.all_no_escape(sites)
                && writes.is_none_or(|w| sites.iter().all(|s| !w.contains(s)))
        })
    };

    for (bi, block) in f.blocks.iter().enumerate() {
        let b = BlockId(bi as u32);
        if !cfg.reachable[bi] {
            continue;
        }
        for (k, instr) in block.instrs.iter().enumerate() {
            let message = match instr {
                Instr::GetField { object, field, .. }
                    if unwritten(*object, field_writes.get(field)) =>
                {
                    format!(
                        "field `{}` of this non-escaping object is never written; the load always yields its default value",
                        field_name(*field)
                    )
                }
                Instr::GetElt { arr_ty, array, .. }
                    if unwritten(*array, elt_writes.get(arr_ty)) =>
                {
                    "this non-escaping array is never written; the load always yields zero"
                        .to_string()
                }
                _ => continue,
            };
            out.push(Diagnostic {
                severity: Severity::Warning,
                kind: "never-written-load",
                function: f.name.clone(),
                block: b,
                instr: Some(k),
                message,
            });
        }
    }

    let mut noted = HashSet::new();
    lint_loop_aliasing(types, f, &f.body, &al, &esc, &mut noted, out);
}

/// Like [`alias::AliasAnalysis::may_alias`], sharpened by the escape
/// lemma: when one side's points-to set is complete and all-`NoEscape`,
/// no reference outside the function's SSA values denotes those sites,
/// so the other side — however external-tainted — can only alias
/// through a shared known site.
fn may_alias_escape_aware(
    al: &alias::AliasAnalysis,
    esc: &escape::EscapeAnalysis,
    a: ValueId,
    b: ValueId,
) -> bool {
    if !al.may_alias(a, b) {
        return false;
    }
    for (x, y) in [(a, b), (b, a)] {
        if let Some(sx) = al.sites_of(x) {
            if esc.all_no_escape(sx) {
                let sy = al.possible_sites(y);
                return sx.iter().any(|s| sy.contains(s));
            }
        }
    }
    true
}

/// A memory operation inside a loop, for the aliased-mutation note:
/// the partition it touches and the canonical origin of its base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LoopLoc {
    Field(FieldRef),
    Elt(TypeId),
}

/// Walks the CST for loops (innermost first, so a store is attributed
/// to the tightest loop containing the aliased pair) and reports
/// stores that may alias a same-partition load through a different
/// reference in the same loop.
fn lint_loop_aliasing(
    types: &TypeTable,
    f: &Function,
    cst: &Cst,
    al: &alias::AliasAnalysis,
    esc: &escape::EscapeAnalysis,
    noted: &mut HashSet<(BlockId, usize)>,
    out: &mut Vec<Diagnostic>,
) {
    match cst {
        Cst::Seq(items) => {
            for c in items {
                lint_loop_aliasing(types, f, c, al, esc, noted, out);
            }
        }
        Cst::If {
            then_br, else_br, ..
        } => {
            lint_loop_aliasing(types, f, then_br, al, esc, noted, out);
            lint_loop_aliasing(types, f, else_br, al, esc, noted, out);
        }
        Cst::Labeled { body, .. } => lint_loop_aliasing(types, f, body, al, esc, noted, out),
        Cst::Try { body, handler, .. } => {
            lint_loop_aliasing(types, f, body, al, esc, noted, out);
            lint_loop_aliasing(types, f, handler, al, esc, noted, out);
        }
        Cst::Loop { body, .. } => {
            lint_loop_aliasing(types, f, body, al, esc, noted, out);
            let mut loads: Vec<(LoopLoc, ValueId)> = Vec::new();
            let mut stores: Vec<(LoopLoc, ValueId, BlockId, usize)> = Vec::new();
            for b in cst.blocks() {
                for (k, instr) in f.block(b).instrs.iter().enumerate() {
                    match instr {
                        Instr::GetField { object, field, .. } => {
                            loads.push((LoopLoc::Field(*field), origin(f, *object)));
                        }
                        Instr::GetElt { arr_ty, array, .. } => {
                            loads.push((LoopLoc::Elt(*arr_ty), origin(f, *array)));
                        }
                        Instr::SetField { object, field, .. } => {
                            stores.push((LoopLoc::Field(*field), origin(f, *object), b, k));
                        }
                        Instr::SetElt { arr_ty, array, .. } => {
                            stores.push((LoopLoc::Elt(*arr_ty), origin(f, *array), b, k));
                        }
                        _ => {}
                    }
                }
            }
            for (loc, sb, b, k) in stores {
                if noted.contains(&(b, k)) {
                    continue;
                }
                let aliased = loads.iter().any(|&(ll, lb)| {
                    ll == loc && lb != sb && may_alias_escape_aware(al, esc, sb, lb)
                });
                if !aliased {
                    continue;
                }
                noted.insert((b, k));
                let what = match loc {
                    LoopLoc::Field(r) => format!(
                        "store to field `{}`",
                        types
                            .field(r)
                            .map_or_else(|| "<unknown>".to_string(), |i| i.name.clone())
                    ),
                    LoopLoc::Elt(_) => "array element store".to_string(),
                };
                out.push(Diagnostic {
                    severity: Severity::Note,
                    kind: "aliased-mutation-in-loop",
                    function: f.name.clone(),
                    block: b,
                    instr: Some(k),
                    message: format!(
                        "{what} may alias a load through a different reference in the same loop; the load must be repeated every iteration"
                    ),
                });
            }
        }
        _ => {}
    }
}

/// What an instruction means to the dead-store scan.
enum StoreEvent {
    Store(StoreKey),
    Observer,
    None,
}

/// A store location: same key ⇒ same runtime location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StoreKey {
    Field(ValueId, FieldRef),
    Static(FieldRef),
    Elt(ValueId, ValueId),
}

fn store_key(f: &Function, instr: &Instr) -> StoreEvent {
    match instr {
        Instr::SetField { object, field, .. } => {
            StoreEvent::Store(StoreKey::Field(origin(f, *object), *field))
        }
        Instr::SetStatic { field, .. } => StoreEvent::Store(StoreKey::Static(*field)),
        Instr::SetElt { array, index, .. } => {
            StoreEvent::Store(StoreKey::Elt(origin(f, *array), *index))
        }
        Instr::GetField { .. }
        | Instr::GetStatic { .. }
        | Instr::GetElt { .. }
        | Instr::XCall { .. }
        | Instr::XDispatch { .. } => StoreEvent::Observer,
        _ => StoreEvent::None,
    }
}

/// Evaluates whether a branch condition is provably constant.
fn const_cond(
    types: &TypeTable,
    f: &Function,
    nn: &nullness::NullnessAnalysis,
    rg: &range::RangeAnalysis,
    cond: ValueId,
) -> Option<bool> {
    match f.value(cond).def {
        Def::Const(i) => match f.consts[i as usize].lit {
            Literal::Bool(v) => Some(v),
            _ => None,
        },
        Def::Instr(b, k) => {
            let instr = &f.block(b).instrs[k as usize];
            if let Instr::RefEq { a, b: rhs, .. } = instr {
                let null_of = |v: ValueId| match f.value(v).def {
                    Def::Const(i) => matches!(f.consts[i as usize].lit, Literal::Null),
                    _ => false,
                };
                let side = if null_of(*a) {
                    Some(*rhs)
                } else if null_of(*rhs) {
                    Some(*a)
                } else {
                    None
                };
                if let Some(x) = side {
                    return match nn.of(x) {
                        Nullity::Null => Some(true),
                        Nullity::NonNull => Some(false),
                        Nullity::Unknown => None,
                    };
                }
                return None;
            }
            let (ty, op, args) = match instr {
                Instr::Primitive { ty, op, args } | Instr::XPrimitive { ty, op, args } => {
                    (ty, op, args)
                }
                _ => return None,
            };
            let TypeKind::Prim(kind) = types.kind(*ty) else {
                return None;
            };
            let name = primops::resolve(kind, *op)?.name;
            if kind == PrimKind::Bool && name == "not" {
                return const_cond(types, f, nn, rg, args[0]).map(|v| !v);
            }
            if kind != PrimKind::Int || args.len() != 2 {
                return None;
            }
            let a = rg.of(args[0]);
            let c = rg.of(args[1]);
            let lt = |a: range::Range, c: range::Range| {
                if a.hi < c.lo {
                    Some(true)
                } else if a.lo >= c.hi {
                    Some(false)
                } else {
                    None
                }
            };
            let le = |a: range::Range, c: range::Range| {
                if a.hi <= c.lo {
                    Some(true)
                } else if a.lo > c.hi {
                    Some(false)
                } else {
                    None
                }
            };
            let eq = |a: range::Range, c: range::Range| {
                if a.hi < c.lo || c.hi < a.lo {
                    Some(false)
                } else if a.as_const().is_some() && a.as_const() == c.as_const() {
                    Some(true)
                } else {
                    None
                }
            };
            match name {
                "lt" => lt(a, c),
                "gt" => lt(c, a),
                "le" => le(a, c),
                "ge" => le(c, a),
                "eq" => eq(a, c),
                "ne" => eq(a, c).map(|v| !v),
                _ => None,
            }
        }
        _ => None,
    }
}

fn lint_branches(
    types: &TypeTable,
    f: &Function,
    cst: &Cst,
    nn: &nullness::NullnessAnalysis,
    rg: &range::RangeAnalysis,
    out: &mut Vec<Diagnostic>,
) {
    match cst {
        Cst::Seq(items) => {
            for c in items {
                lint_branches(types, f, c, nn, rg, out);
            }
        }
        Cst::If {
            cond,
            then_br,
            else_br,
            join,
        } => {
            if let Some(v) = const_cond(types, f, nn, rg, *cond) {
                let anchor = then_br
                    .blocks()
                    .first()
                    .copied()
                    .or_else(|| else_br.blocks().first().copied())
                    .unwrap_or(*join);
                out.push(Diagnostic {
                    severity: Severity::Warning,
                    kind: "constant-branch",
                    function: f.name.clone(),
                    block: anchor,
                    instr: None,
                    message: format!("branch condition {cond} is always {v}"),
                });
                let dead = if v { else_br } else { then_br };
                let has_code = dead
                    .blocks()
                    .iter()
                    .any(|b| !f.block(*b).instrs.is_empty() || !f.block(*b).phis.is_empty());
                if has_code {
                    let first = dead.blocks()[0];
                    out.push(Diagnostic {
                        severity: Severity::Warning,
                        kind: "unreachable-code",
                        function: f.name.clone(),
                        block: first,
                        instr: None,
                        message: format!("branch is never taken (condition {cond} is always {v})"),
                    });
                }
            }
            lint_branches(types, f, then_br, nn, rg, out);
            lint_branches(types, f, else_br, nn, rg, out);
        }
        Cst::Loop { body, .. } | Cst::Labeled { body, .. } => {
            lint_branches(types, f, body, nn, rg, out)
        }
        Cst::Try { body, handler, .. } => {
            lint_branches(types, f, body, nn, rg, out);
            lint_branches(types, f, handler, nn, rg, out);
        }
        _ => {}
    }
}
