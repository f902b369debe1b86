//! Textual renderings of the three program views used in the paper's
//! figures:
//!
//! * **plain SSA** (Figures 1 and 7): one global, consecutive value
//!   numbering; operands shown as `(n)`;
//! * **reference-safe SSA** (Figures 2 and 8): operands shown as
//!   dominator-relative `(l-r)` pairs over a single per-block register
//!   file;
//! * **SafeTSA** (Figures 4 and 9): type-separated — per-plane register
//!   numbering, with each instruction's result plane spelled out;
//! * the **machine model** view (Figure 3): the register planes of each
//!   block and their contents.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::function::{Function, ENTRY};
use crate::instr::Instr;
use crate::primops;
use crate::types::{TypeId, TypeKind, TypeTable};
use crate::value::{BlockId, Def, ValueId};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Pre-computed naming maps for a function.
struct Naming<'a> {
    f: &'a Function,
    types: &'a TypeTable,
    dom: DomTree,
    /// Global consecutive number per value (plain-SSA view).
    global: HashMap<ValueId, usize>,
    /// Per-block flat register index (reference-safe view).
    flat: HashMap<ValueId, usize>,
    /// Per-block, per-plane register index (SafeTSA view).
    plane: HashMap<ValueId, usize>,
    /// Block visit order.
    order: Vec<BlockId>,
}

impl<'a> Naming<'a> {
    fn new(types: &'a TypeTable, f: &'a Function) -> Self {
        let cfg = Cfg::build(f).expect("pretty: CST must be well formed");
        let dom = DomTree::build(&cfg);
        let order = cfg.traversal.clone();
        let mut global = HashMap::new();
        let mut flat = HashMap::new();
        let mut plane = HashMap::new();
        let mut counter = 0usize;
        for &b in &order {
            let mut per_plane: HashMap<TypeId, usize> = HashMap::new();
            for (i, v) in f.block_values(b).into_iter().enumerate() {
                global.insert(v, counter);
                counter += 1;
                flat.insert(v, i);
                let p = per_plane.entry(f.value_ty(v)).or_insert(0);
                plane.insert(v, *p);
                *p += 1;
            }
        }
        Naming {
            f,
            types,
            dom,
            global,
            flat,
            plane,
            order,
        }
    }

    fn lr(&self, use_block: BlockId, v: ValueId, r: usize) -> String {
        let def_block = self.f.value(v).block;
        let l = self
            .dom
            .level_distance(def_block, use_block)
            .unwrap_or(u32::MAX);
        format!("({l}-{r})")
    }
}

fn instr_head(types: &TypeTable, instr: &Instr) -> String {
    match instr {
        Instr::Primitive { ty, op, .. } | Instr::XPrimitive { ty, op, .. } => {
            let kind = match types.kind(*ty) {
                TypeKind::Prim(k) => k,
                _ => unreachable!("primitive on non-prim plane"),
            };
            let name = primops::resolve(kind, *op).map(|o| o.name).unwrap_or("?");
            format!("{}.{}", types.type_name(*ty), name)
        }
        Instr::NullCheck { ty, .. } => format!("nullcheck {}", types.type_name(*ty)),
        Instr::IndexCheck { arr_ty, .. } => format!("indexcheck {}", types.type_name(*arr_ty)),
        Instr::Upcast { from, to, .. } => format!(
            "upcast {} -> {}",
            types.type_name(*from),
            types.type_name(*to)
        ),
        Instr::Downcast { from, to, .. } => format!(
            "downcast {} -> {}",
            types.type_name(*from),
            types.type_name(*to)
        ),
        Instr::GetField { ty, field, .. } => format!(
            "getfield {}.{}",
            types.type_name(*ty),
            types.field(*field).map(|f| f.name.as_str()).unwrap_or("?")
        ),
        Instr::SetField { ty, field, .. } => format!(
            "setfield {}.{}",
            types.type_name(*ty),
            types.field(*field).map(|f| f.name.as_str()).unwrap_or("?")
        ),
        Instr::GetStatic { field } => format!(
            "getstatic {}.{}",
            types.class(field.class).name,
            types.field(*field).map(|f| f.name.as_str()).unwrap_or("?")
        ),
        Instr::SetStatic { field, .. } => format!(
            "setstatic {}.{}",
            types.class(field.class).name,
            types.field(*field).map(|f| f.name.as_str()).unwrap_or("?")
        ),
        Instr::GetElt { arr_ty, .. } => format!("getelt {}", types.type_name(*arr_ty)),
        Instr::SetElt { arr_ty, .. } => format!("setelt {}", types.type_name(*arr_ty)),
        Instr::ArrayLength { arr_ty, .. } => format!("arraylength {}", types.type_name(*arr_ty)),
        Instr::New { class_ty } => format!("new {}", types.type_name(*class_ty)),
        Instr::NewArray { arr_ty, .. } => format!("newarray {}", types.type_name(*arr_ty)),
        Instr::XCall { method, .. } => format!(
            "xcall {}.{}",
            types.class(method.class).name,
            types
                .method(*method)
                .map(|m| m.name.as_str())
                .unwrap_or("?")
        ),
        Instr::XDispatch { method, .. } => format!(
            "xdispatch {}.{}",
            types.class(method.class).name,
            types
                .method(*method)
                .map(|m| m.name.as_str())
                .unwrap_or("?")
        ),
        Instr::RefEq { ty, .. } => format!("refeq {}", types.type_name(*ty)),
        Instr::InstanceOf { target, .. } => {
            format!("instanceof {}", types.type_name(*target))
        }
        Instr::Catch { .. } => "catch".to_string(),
    }
}

fn preload_desc(f: &Function, v: ValueId) -> Option<String> {
    match f.value(v).def {
        Def::Param(i) => Some(format!("param {i}")),
        Def::Const(i) => Some(format!("const {}", f.consts[i as usize].lit)),
        _ => None,
    }
}

fn render(
    naming: &Naming<'_>,
    mut fmt_ref: impl FnMut(&Naming<'_>, BlockId, ValueId) -> String,
    show_planes: bool,
) -> String {
    let f = naming.f;
    let types = naming.types;
    let mut out = String::new();
    for &b in &naming.order {
        let _ = writeln!(out, "block {}:", b.0);
        if b == ENTRY {
            for v in f.block_values(b).into_iter().take(f.preload_count()) {
                let label = if show_planes {
                    format!("{}[{}]", types.type_name(f.value_ty(v)), naming.plane[&v])
                } else {
                    format!("{}", naming.global[&v])
                };
                let _ = writeln!(
                    out,
                    "  {label:>12} <- {}",
                    preload_desc(f, v).unwrap_or_default()
                );
            }
        }
        let block = f.block(b);
        for (k, phi) in block.phis.iter().enumerate() {
            let res = f.phi_result(b, k);
            let label = if show_planes {
                format!("{}[{}]", types.type_name(phi.ty), naming.plane[&res])
            } else {
                format!("{}", naming.global[&res])
            };
            let args: Vec<String> = phi
                .args
                .iter()
                .map(|(p, v)| fmt_ref(naming, *p, *v))
                .collect();
            let _ = writeln!(out, "  {label:>12} <- phi {}", args.join(" "));
        }
        for (k, instr) in block.instrs.iter().enumerate() {
            let head = instr_head(types, instr);
            let args: Vec<String> = instr
                .operands()
                .iter()
                .map(|v| fmt_ref(naming, b, *v))
                .collect();
            let lhs = match f.instr_result(b, k) {
                Some(res) => {
                    if show_planes {
                        format!(
                            "{}[{}]",
                            types.type_name(f.value_ty(res)),
                            naming.plane[&res]
                        )
                    } else {
                        format!("{}", naming.global[&res])
                    }
                }
                None => "-".to_string(),
            };
            let _ = writeln!(out, "  {lhs:>12} <- {head} {}", args.join(" "));
        }
    }
    out
}

/// The plain SSA view of Figures 1 and 7: global consecutive value
/// numbers, operands as `(n)`.
pub fn plain_ssa(types: &TypeTable, f: &Function) -> String {
    let naming = Naming::new(types, f);
    render(&naming, |n, _b, v| format!("({})", n.global[&v]), false)
}

/// The reference-safe view of Figures 2 and 8: operands as `(l-r)`
/// pairs over a single per-block register file.
pub fn reference_safe(types: &TypeTable, f: &Function) -> String {
    let naming = Naming::new(types, f);
    render(
        &naming,
        |n, b, v| {
            let r = n.flat[&v];
            n.lr(b, v, r)
        },
        false,
    )
}

/// The full SafeTSA view of Figures 4 and 9: type-separated `(l-r)`
/// pairs over per-plane register files, results labeled with planes.
pub fn safetsa(types: &TypeTable, f: &Function) -> String {
    let naming = Naming::new(types, f);
    render(
        &naming,
        |n, b, v| {
            let r = n.plane[&v];
            n.lr(b, v, r)
        },
        true,
    )
}

/// The "implied machine model" view of Figure 3: for each block, the
/// register planes that hold values and their contents.
pub fn machine_model(types: &TypeTable, f: &Function) -> String {
    let naming = Naming::new(types, f);
    let mut out = String::new();
    for &b in &naming.order {
        let _ = writeln!(out, "block {}:", b.0);
        let mut planes: HashMap<TypeId, Vec<ValueId>> = HashMap::new();
        for v in f.block_values(b) {
            planes.entry(f.value_ty(v)).or_default().push(v);
        }
        let mut keys: Vec<TypeId> = planes.keys().copied().collect();
        keys.sort();
        for ty in keys {
            let regs: Vec<String> = planes[&ty]
                .iter()
                .enumerate()
                .map(|(i, v)| match preload_desc(f, *v) {
                    Some(d) => format!("r{i}={d}"),
                    None => format!("r{i}"),
                })
                .collect();
            let _ = writeln!(
                out,
                "  plane {:<24} [{}]",
                types.type_name(ty),
                regs.join(", ")
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::Cst;
    use crate::primops;
    use crate::types::PrimKind;

    fn sample() -> (TypeTable, Function) {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let boolean = types.bool_ty();
        let mut f = Function::new("sample", None, vec![int, int], Some(int));
        let lt = primops::find(PrimKind::Int, "lt").unwrap();
        let add = primops::find(PrimKind::Int, "add").unwrap();
        let cond = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::Primitive {
                    ty: int,
                    op: lt,
                    args: [f.param_value(0), f.param_value(1)].into(),
                },
            )
            .unwrap()
            .unwrap();
        assert_eq!(f.value_ty(cond), boolean);
        let then_b = f.add_block();
        let join = f.add_block();
        let t = f
            .add_instr(
                &mut types,
                then_b,
                Instr::Primitive {
                    ty: int,
                    op: add,
                    args: [f.param_value(0), f.param_value(1)].into(),
                },
            )
            .unwrap()
            .unwrap();
        let phi = f.add_phi(join, int);
        f.set_phi_args(join, 0, vec![(then_b, t), (ENTRY, f.param_value(0))]);
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::If {
                cond,
                then_br: Box::new(Cst::Basic(then_b)),
                else_br: Box::new(Cst::empty()),
                join,
            },
            Cst::Return(Some(phi)),
        ]);
        (types, f)
    }

    #[test]
    fn plain_view_uses_global_numbers() {
        let (types, f) = sample();
        let s = plain_ssa(&types, &f);
        assert!(s.contains("<- param 0"), "{s}");
        assert!(s.contains("int.lt (0) (1)"), "{s}");
        assert!(s.contains("phi"), "{s}");
    }

    #[test]
    fn reference_safe_view_uses_lr_pairs() {
        let (types, f) = sample();
        let s = reference_safe(&types, &f);
        assert!(s.contains("int.lt (0-0) (0-1)"), "{s}");
        // then-block add refers one level up the dominator tree
        assert!(s.contains("int.add (1-0) (1-1)"), "{s}");
    }

    #[test]
    fn safetsa_view_separates_planes() {
        let (types, f) = sample();
        let s = safetsa(&types, &f);
        // boolean result is register 0 on the boolean plane even though
        // two int registers precede it in the block.
        assert!(s.contains("boolean[0] <- int.lt (0-0) (0-1)"), "{s}");
        assert!(s.contains("int[0] <- phi"), "{s}");
    }

    #[test]
    fn machine_model_lists_planes() {
        let (types, f) = sample();
        let s = machine_model(&types, &f);
        assert!(s.contains("plane int"), "{s}");
        assert!(s.contains("plane boolean"), "{s}");
        assert!(s.contains("r0=param 0"), "{s}");
    }
}
