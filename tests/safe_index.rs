//! Appendix A: `safe-index` values are bound to array *values*, their
//! types scoped by dominance, and they may flow through phis only when
//! every operand is bound to the same (dominating) array. These tests
//! hand-construct such programs, check the verifier's accept/reject
//! behaviour, and round-trip the accepted ones through the codec.

use safetsa_codec::{decode_and_verify, encode_module, HostEnv};
use safetsa_core::cst::Cst;
use safetsa_core::function::{Function, ENTRY};
use safetsa_core::instr::Instr;
use safetsa_core::module::{Module, WellKnown};
use safetsa_core::types::{ClassInfo, MethodInfo, MethodKind, PrimKind, TypeTable};
use safetsa_core::typing::TypeError;
use safetsa_core::verify::{verify_function, verify_module, VerifyError};

/// Builds `f(a: safe int[], i: int, c: bool)` with two index checks of
/// the same array merged by a safe-index phi, then a `getelt`.
fn build(types: &mut TypeTable) -> Function {
    let int = types.prim(PrimKind::Int);
    let boolean = types.bool_ty();
    let arr = types.array_of(int);
    let safe_arr = types.safe_ref_of(arr);
    let _si = types.safe_index_of(arr);
    let mut f = Function::new("sidx", None, vec![safe_arr, int, boolean], Some(int));
    let a = f.param_value(0);
    let i = f.param_value(1);
    let c = f.param_value(2);
    // entry: six0 = indexcheck(a, i)
    let six0 = f
        .add_instr(
            types,
            ENTRY,
            Instr::IndexCheck {
                arr_ty: arr,
                array: a,
                index: i,
            },
        )
        .unwrap()
        .unwrap();
    // then: six1 = indexcheck(a, i) (same array, fresh check)
    let then_b = f.add_block();
    let six1 = f
        .add_instr(
            types,
            then_b,
            Instr::IndexCheck {
                arr_ty: arr,
                array: a,
                index: i,
            },
        )
        .unwrap()
        .unwrap();
    // join: phi over the safe-index plane, bound to `a`
    let join = f.add_block();
    let si_plane = types.find_safe_index(arr).unwrap();
    let phi = f.add_phi(join, si_plane);
    f.set_phi_args(join, 0, vec![(then_b, six1), (ENTRY, six0)]);
    f.set_provenance(phi, Some(a));
    // x = getelt(a, phi); return x
    let x = f
        .add_instr(
            types,
            join,
            Instr::GetElt {
                arr_ty: arr,
                array: a,
                index: phi,
            },
        )
        .unwrap()
        .unwrap();
    f.body = Cst::Seq(vec![
        Cst::Basic(ENTRY),
        Cst::If {
            cond: c,
            then_br: Box::new(Cst::Basic(then_b)),
            else_br: Box::new(Cst::empty()),
            join,
        },
        Cst::Return(Some(x)),
    ]);
    f
}

fn base_types() -> (TypeTable, safetsa_core::types::ClassId, WellKnown) {
    let mut t = TypeTable::new();
    let (object, _) = t.declare_class(ClassInfo {
        name: "Object".into(),
        superclass: None,
        fields: vec![],
        methods: vec![],
        imported: true,
        instance_size: 0,
    });
    let (throwable, _) = t.declare_class(ClassInfo {
        name: "Throwable".into(),
        superclass: Some(object),
        fields: vec![],
        methods: vec![],
        imported: true,
        instance_size: 0,
    });
    let (string, _) = t.declare_class(ClassInfo {
        name: "String".into(),
        superclass: Some(object),
        fields: vec![],
        methods: vec![],
        imported: true,
        instance_size: 0,
    });
    // The standard exception classes so the module loads in the VM.
    let wk = WellKnown {
        object,
        throwable,
        string,
    };
    (t, throwable, wk)
}

#[test]
fn safe_index_phi_verifies() {
    let (mut types, throwable, _) = base_types();
    let f = build(&mut types);
    verify_function(&types, throwable, &f).expect("safe-index phi accepted");
}

#[test]
fn safe_index_phi_with_mixed_arrays_rejected() {
    let (mut types, throwable, _) = base_types();
    let int = types.prim(PrimKind::Int);
    let boolean = types.bool_ty();
    let arr = types.array_of(int);
    let safe_arr = types.safe_ref_of(arr);
    let _ = types.safe_index_of(arr);
    // Two DIFFERENT arrays feed the phi.
    let mut f = Function::new(
        "bad",
        None,
        vec![safe_arr, safe_arr, int, boolean],
        Some(int),
    );
    let a = f.param_value(0);
    let b = f.param_value(1);
    let i = f.param_value(2);
    let c = f.param_value(3);
    let six_a = f
        .add_instr(
            &mut types,
            ENTRY,
            Instr::IndexCheck {
                arr_ty: arr,
                array: a,
                index: i,
            },
        )
        .unwrap()
        .unwrap();
    let then_b = f.add_block();
    let six_b = f
        .add_instr(
            &mut types,
            then_b,
            Instr::IndexCheck {
                arr_ty: arr,
                array: b,
                index: i,
            },
        )
        .unwrap()
        .unwrap();
    let join = f.add_block();
    let si_plane = types.find_safe_index(arr).unwrap();
    let phi = f.add_phi(join, si_plane);
    f.set_phi_args(join, 0, vec![(then_b, six_b), (ENTRY, six_a)]);
    f.set_provenance(phi, Some(a));
    let x = f.add_instr(
        &mut types,
        join,
        Instr::GetElt {
            arr_ty: arr,
            array: a,
            index: phi,
        },
    );
    // Either the phi or the getelt must be rejected; adding getelt can
    // only succeed if provenance checking is deferred to verify.
    f.body = Cst::Seq(vec![
        Cst::Basic(ENTRY),
        Cst::If {
            cond: c,
            then_br: Box::new(Cst::Basic(then_b)),
            else_br: Box::new(Cst::empty()),
            join,
        },
        match x {
            Ok(Some(v)) => Cst::Return(Some(v)),
            _ => Cst::Return(Some(i)),
        },
    ]);
    let err = verify_function(&types, throwable, &f).unwrap_err();
    assert!(
        matches!(err, VerifyError::PhiArgs { .. }),
        "mixed-array safe-index phi rejected: {err}"
    );
}

#[test]
fn using_index_with_wrong_array_rejected_by_typing() {
    let (mut types, _throwable, _) = base_types();
    let int = types.prim(PrimKind::Int);
    let arr = types.array_of(int);
    let safe_arr = types.safe_ref_of(arr);
    let _ = types.safe_index_of(arr);
    let mut f = Function::new("bad2", None, vec![safe_arr, safe_arr, int], Some(int));
    let a = f.param_value(0);
    let b = f.param_value(1);
    let i = f.param_value(2);
    let six_a = f
        .add_instr(
            &mut types,
            ENTRY,
            Instr::IndexCheck {
                arr_ty: arr,
                array: a,
                index: i,
            },
        )
        .unwrap()
        .unwrap();
    // getelt(b, six_a): index checked against `a`, used with `b`.
    let err = f
        .add_instr(
            &mut types,
            ENTRY,
            Instr::GetElt {
                arr_ty: arr,
                array: b,
                index: six_a,
            },
        )
        .unwrap_err();
    assert!(matches!(err, TypeError::ProvenanceMismatch { .. }));
}

#[test]
fn safe_index_phi_round_trips_through_codec() {
    // Build a module whose single method carries the safe-index phi;
    // the decoder must reconstruct the provenance and re-verify.
    let host = HostEnv::standard();
    let mut types = host.types.clone();
    let f = build(&mut types);
    let int = types.prim(PrimKind::Int);
    let boolean = types.bool_ty();
    let arr = types.array_of(int);
    let safe_arr = types.safe_ref_of(arr);
    let (holder, _) = types.declare_class(ClassInfo {
        name: "Holder".into(),
        superclass: Some(host.well_known.object),
        fields: vec![],
        methods: vec![MethodInfo {
            name: "sidx".into(),
            params: vec![safe_arr, int, boolean],
            ret: Some(int),
            kind: MethodKind::Static,
            vtable_slot: None,
            body: Some(0),
        }],
        imported: false,
        instance_size: 0,
    });
    let _ = holder;
    let module = Module {
        name: "safeindex".into(),
        types,
        well_known: host.well_known,
        functions: vec![f],
    };
    verify_module(&module).expect("module verifies");
    let bytes = encode_module(&module).expect("encodes");
    let decoded = decode_and_verify(&bytes, &host).expect("round trip");
    // The decoded phi carries the reconstructed provenance (block ids
    // are renumbered by the decoder; find the phi by scanning).
    let df = &decoded.functions[0];
    let (join, _) = (0..df.block_count())
        .map(|i| safetsa_core::value::BlockId(i as u32))
        .find_map(|b| (!df.block(b).phis.is_empty()).then_some((b, ())))
        .expect("decoded function has the phi");
    let phi_result = df.phi_result(join, 0);
    assert_eq!(
        df.value(phi_result).provenance,
        Some(df.param_value(0)),
        "provenance reconstructed from operands"
    );
}
