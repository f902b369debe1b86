//! Corpus-wide checks of the consumer's data structures: the register
//! files against a reference scan, and the host classes a decode shares
//! with every module it produces.

use safetsa_codec::refs::RegisterFiles;
use safetsa_codec::{decode_module, encode_module, HostEnv};
use safetsa_core::function::{Function, ENTRY};
use safetsa_core::types::{TypeId, TypeTable};
use safetsa_core::value::{BlockId, ValueId};
use safetsa_core::Module;
use safetsa_opt::Passes;
use safetsa_telemetry::Telemetry;
use std::path::Path;

/// Every corpus program as `(name, unoptimized, optimized)`.
fn corpus() -> Vec<(String, Module, Module)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "java"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 20,
        "corpus went missing from {}",
        dir.display()
    );
    files
        .iter()
        .map(|path| {
            let src = std::fs::read_to_string(path).expect("corpus source");
            let prog = safetsa_frontend::compile(&src).expect("front-end");
            let module = safetsa_ssa::lower_program(&prog).expect("lowering").module;
            let mut optimized = module.clone();
            safetsa_opt::optimize(&mut optimized, Passes::ALL, &Telemetry::disabled());
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            (name, module, optimized)
        })
        .collect()
}

/// The reference scan the register files replace: values visible on
/// `plane` in block `d`, in register order — entry pre-loads first
/// (entry block only), then phis, then instruction results. `limit`
/// restricts instruction results to indices `< k`.
fn visible(f: &Function, d: BlockId, plane: TypeId, limit: Option<usize>) -> Vec<ValueId> {
    let mut out = Vec::new();
    if d == ENTRY {
        for i in 0..f.params.len() {
            let v = ValueId(i as u32);
            if f.value_ty(v) == plane {
                out.push(v);
            }
        }
        for i in 0..f.consts.len() {
            let v = f.const_value(i);
            if f.value_ty(v) == plane {
                out.push(v);
            }
        }
    }
    let block = f.block(d);
    for k in 0..block.phis.len() {
        let v = f.phi_result(d, k);
        if f.value_ty(v) == plane {
            out.push(v);
        }
    }
    let n = limit.unwrap_or(block.instrs.len()).min(block.instrs.len());
    for k in 0..n {
        if let Some(v) = f.instr_result(d, k) {
            if f.value_ty(v) == plane {
                out.push(v);
            }
        }
    }
    out
}

#[test]
fn register_files_match_the_reference_scan() {
    let mut checked = 0usize;
    for (name, module, optimized) in corpus() {
        for m in [&module, &optimized] {
            let planes = (0..m.types.len()).map(|i| TypeId(i as u32));
            for f in &m.functions {
                let regs = RegisterFiles::build(f);
                for b in (0..f.block_count()).map(|i| BlockId(i as u32)) {
                    let n = f.block(b).instrs.len();
                    // Every same-block limit, one past the end included.
                    let limits = std::iter::once(None).chain((0..=n + 1).map(Some));
                    for limit in limits {
                        for plane in planes.clone() {
                            assert_eq!(
                                regs.visible(b, plane, limit),
                                visible(f, b, plane, limit),
                                "{name} {} {b} plane {plane} limit {limit:?}",
                                f.name
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(checked > 10_000, "only {checked} cases checked");
}

#[test]
fn decoding_shares_host_classes_and_never_changes_them() {
    let host = HostEnv::standard();
    let again = HostEnv::standard();
    // The process builds the host once: every call shares its classes.
    for (c, info) in host.types.classes() {
        assert!(
            std::ptr::eq(info, again.types.class(c)),
            "two calls built host class {} twice",
            info.name
        );
    }
    // Deep copies, independent of the shared classes.
    let pristine: Vec<_> = host.types.classes().map(|(_, c)| c.clone()).collect();
    for (name, module, optimized) in corpus() {
        for m in [&module, &optimized] {
            let bytes = encode_module(m).expect("encodes");
            let decoded = decode_module(&bytes, &host).expect("decodes");
            assert_eq!(
                encode_module(&decoded).expect("re-encodes"),
                bytes,
                "{name}"
            );
            assert_eq!(host.types.class_count(), pristine.len());
            for (c, info) in host.types.classes() {
                assert_eq!(
                    info,
                    &pristine[c.index()],
                    "{name} changed host class {}",
                    info.name
                );
                // Shared, not copied: the module's host classes are the
                // host's own.
                assert!(
                    std::ptr::eq(decoded.types.class(c), info),
                    "{name}: decoding copied host class {}",
                    info.name
                );
            }
        }
    }
}

#[test]
fn decoded_modules_carry_the_producers_slots() {
    let host = HostEnv::standard();
    // Per class: its dispatch slots, its field slots and its instance
    // size.
    type Layout = Vec<(Vec<Option<u32>>, Vec<Option<u32>>, u32)>;
    let layout = |types: &TypeTable| -> Layout {
        types
            .classes()
            .map(|(_, c)| {
                (
                    c.methods.iter().map(|m| m.vtable_slot).collect(),
                    c.fields.iter().map(|f| f.slot).collect(),
                    c.instance_size,
                )
            })
            .collect()
    };
    let (mut virtuals, mut fields) = (0, 0);
    for (name, module, optimized) in corpus() {
        for m in [&module, &optimized] {
            let bytes = encode_module(m).expect("encodes");
            let decoded = decode_module(&bytes, &host).expect("decodes");
            let sent = layout(&m.types);
            assert_eq!(layout(&decoded.types), sent, "{name}");
            virtuals += sent.iter().flat_map(|c| &c.0).flatten().count();
            fields += sent.iter().flat_map(|c| &c.1).flatten().count();
        }
    }
    assert!(virtuals > 100, "only {virtuals} dispatch slots checked");
    assert!(fields > 100, "only {fields} field slots checked");
}

/// The parts of a decoded module a comparison reads: every type, every
/// class and every function body.
fn assert_same_module(a: &Module, b: &Module, what: &str) {
    assert_eq!(a.name, b.name, "{what}");
    assert_eq!(a.types.len(), b.types.len(), "{what}: type count");
    for i in 0..a.types.len() {
        let ty = TypeId(i as u32);
        assert_eq!(a.types.kind(ty), b.types.kind(ty), "{what}: type {i}");
    }
    let classes = |m: &Module| {
        m.types
            .classes()
            .map(|(_, c)| c.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(classes(a), classes(b), "{what}: classes");
    assert_eq!(
        a.functions.len(),
        b.functions.len(),
        "{what}: function count"
    );
    for (f, g) in a.functions.iter().zip(&b.functions) {
        assert!(f.bit_eq(g), "{what}: {} differs", f.name);
    }
}

#[test]
fn a_warm_thread_decodes_what_a_fresh_one_does() {
    let streams: Vec<(String, Vec<u8>)> = corpus()
        .into_iter()
        .flat_map(|(name, module, optimized)| {
            let plain = encode_module(&module).expect("encodes");
            let opt = encode_module(&optimized).expect("encodes");
            [(format!("{name} unoptimized"), plain), (name, opt)]
        })
        .collect();
    // This thread decodes the whole corpus twice, so every program of
    // the second round finds buffers that every program has used.
    let host = HostEnv::standard();
    for (name, bytes) in &streams {
        decode_module(bytes, &host).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    for (name, bytes) in &streams {
        let warm = decode_module(bytes, &host).unwrap_or_else(|e| panic!("{name}: {e}"));
        let fresh = std::thread::scope(|s| {
            s.spawn(|| decode_module(bytes, &host).unwrap_or_else(|e| panic!("{name}: {e}")))
                .join()
                .expect("the fresh thread decodes")
        });
        assert_same_module(&warm, &fresh, name);
    }
}
