//! Phi cleanup after construction: trivial-phi elimination and
//! liveness-based dead-phi removal (Briggs et al., the paper's §7 —
//! "leading to a reduction of 31% on average in the number of phi
//! instructions").

pub use safetsa_core::rewrite::prune_phis;

#[cfg(test)]
mod tests {
    use super::*;
    use safetsa_core::cst::Cst;
    use safetsa_core::function::ENTRY;
    use safetsa_core::instr::Instr;
    use safetsa_core::primops;
    use safetsa_core::types::{PrimKind, TypeTable};
    use safetsa_core::Function;

    /// Builds: if (p0) { t = a+a } else {} ; phi; return a (phi dead).
    #[test]
    fn dead_phi_removed() {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let boolean = types.bool_ty();
        let mut f = Function::new("t", None, vec![boolean, int], Some(int));
        let add = primops::find(PrimKind::Int, "add").unwrap();
        let then_b = f.add_block();
        let join = f.add_block();
        let tv = f
            .add_instr(
                &mut types,
                then_b,
                Instr::Primitive {
                    ty: int,
                    op: add,
                    args: [f.param_value(1), f.param_value(1)].into(),
                },
            )
            .unwrap()
            .unwrap();
        let phi = f.add_phi(join, int);
        f.set_phi_args(join, 0, vec![(then_b, tv), (ENTRY, f.param_value(1))]);
        let _ = phi;
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::If {
                cond: f.param_value(0),
                then_br: Box::new(Cst::Basic(then_b)),
                else_br: Box::new(Cst::empty()),
                join,
            },
            Cst::Return(Some(f.param_value(1))),
        ]);
        let removed = prune_phis(&mut f);
        assert_eq!(removed, 1);
        assert_eq!(f.phi_count(), 0);
        // The add instruction survives (it is not a phi) even though it
        // is now dead — DCE proper lives in safetsa-opt.
        assert_eq!(f.instr_count(), 1);
    }

    #[test]
    fn live_phi_kept() {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let boolean = types.bool_ty();
        let mut f = Function::new("t", None, vec![boolean, int], Some(int));
        let add = primops::find(PrimKind::Int, "add").unwrap();
        let then_b = f.add_block();
        let join = f.add_block();
        let tv = f
            .add_instr(
                &mut types,
                then_b,
                Instr::Primitive {
                    ty: int,
                    op: add,
                    args: [f.param_value(1), f.param_value(1)].into(),
                },
            )
            .unwrap()
            .unwrap();
        let phi = f.add_phi(join, int);
        f.set_phi_args(join, 0, vec![(then_b, tv), (ENTRY, f.param_value(1))]);
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::If {
                cond: f.param_value(0),
                then_br: Box::new(Cst::Basic(then_b)),
                else_br: Box::new(Cst::empty()),
                join,
            },
            Cst::Return(Some(phi)),
        ]);
        let before = f.clone();
        let removed = prune_phis(&mut f);
        assert_eq!(removed, 0);
        assert_eq!(f.phi_count(), 1);
        assert_eq!(f, before, "nothing to prune leaves the function untouched");
    }

    #[test]
    fn trivial_phi_substituted() {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let boolean = types.bool_ty();
        let _ = &mut types;
        let mut f = Function::new("t", None, vec![boolean, int], Some(int));
        let then_b = f.add_block();
        let join = f.add_block();
        // Both edges carry the same value → trivial.
        let phi = f.add_phi(join, int);
        f.set_phi_args(
            join,
            0,
            vec![(then_b, f.param_value(1)), (ENTRY, f.param_value(1))],
        );
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::If {
                cond: f.param_value(0),
                then_br: Box::new(Cst::Basic(then_b)),
                else_br: Box::new(Cst::empty()),
                join,
            },
            Cst::Return(Some(phi)),
        ]);
        let removed = prune_phis(&mut f);
        assert_eq!(removed, 1);
        assert_eq!(f.phi_count(), 0);
        match &f.body {
            Cst::Seq(items) => match items.last().unwrap() {
                Cst::Return(Some(v)) => assert_eq!(*v, f.param_value(1)),
                _ => panic!("bad CST"),
            },
            _ => panic!("bad CST"),
        }
    }
}
