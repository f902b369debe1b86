//! Method-granular incremental compilation.
//!
//! The incremental store's soundness rests on two properties these
//! tests pin corpus-wide:
//!
//! 1. **Section stability**: a function encoded standalone
//!    (`encode_function_section`), decoded, spliced into a freshly
//!    lowered module, and re-encoded as part of the whole module
//!    produces *byte-identical* output to a cold build — the
//!    per-function encoding is structural, so it survives the decode →
//!    re-encode round trip bit-for-bit.
//! 2. **Invalidation precision**: editing one method of a multi-method
//!    file recompiles exactly that unit; edits to a class layout or the
//!    class count invalidate the units that depend on them.

use safetsa::driver::store::{unit_plan, Store};
use safetsa::opt::Passes;
use safetsa::Pipeline;
use safetsa_codec::{decode_function_section, encode_function_section, encode_module};
use safetsa_telemetry::Telemetry;

/// Splice-reassembly is byte-identical to a cold encode, corpus-wide:
/// for every program, encode every optimized function standalone,
/// decode each section against a *fresh* lowering's type table, splice
/// the decoded bodies in, and whole-module encode — the bytes must
/// equal the cold build's.
#[test]
fn section_splice_reassembly_is_byte_identical_corpus_wide() {
    for entry in safetsa_bench::corpus() {
        let p = Pipeline::new();
        let prog = p.frontend(&[entry.source]).unwrap();
        let lowered = p.lower(&prog).unwrap();
        let fresh = lowered.module.clone();
        let mut cold = lowered.module;
        safetsa::opt::optimize(&mut cold, Passes::ALL, &Telemetry::disabled());
        let cold_bytes = encode_module(&cold).unwrap();

        let mut warm = fresh;
        // (class, method) -> function index, as a full decode derives it.
        let sites: Vec<_> = warm
            .types
            .classes()
            .flat_map(|(cid, c)| {
                c.methods
                    .iter()
                    .enumerate()
                    .filter_map(move |(mi, m)| m.body.map(|fid| (cid, mi, fid as usize)))
            })
            .collect();
        for (cid, mi, fid) in sites {
            let (bytes, sec) = encode_function_section(&cold.types, &cold.functions[fid]).unwrap();
            assert_eq!(sec.functions, 1);
            let f = decode_function_section(&bytes, &mut warm.types, cid, mi)
                .unwrap_or_else(|e| panic!("{}: section decode failed: {e}", entry.name));
            warm.functions[fid] = f;
        }
        safetsa_core::verify::verify_module(&warm)
            .unwrap_or_else(|e| panic!("{}: spliced module fails verify: {e}", entry.name));
        let warm_bytes = encode_module(&warm).unwrap();
        assert_eq!(
            cold_bytes, warm_bytes,
            "{}: spliced re-encode differs from cold build",
            entry.name
        );
    }
}

/// A two-method file: editing one method's body leaves the other
/// unit's body and dependency hashes unchanged.
const TWO_METHODS_V1: &str = "class P {
    static int stable(int x) { return x * 3 + 1; }
    static int edited(int x) { return x + 1; }
}";
const TWO_METHODS_V2: &str = "class P {
    static int stable(int x) { return x * 3 + 1; }
    static int edited(int x) { return x + 2; }
}";

fn plan_for(src: &str) -> Vec<safetsa::driver::store::UnitPlan> {
    let p = Pipeline::new();
    let prog = p.frontend(&[src]).unwrap();
    let lowered = p.lower(&prog).unwrap();
    unit_plan(&lowered.module).unwrap()
}

#[test]
fn body_edit_invalidates_exactly_one_unit() {
    let a = plan_for(TWO_METHODS_V1);
    let b = plan_for(TWO_METHODS_V2);
    assert_eq!(a.len(), b.len());
    let find = |plan: &[safetsa::driver::store::UnitPlan], name: &str| {
        plan.iter()
            .find(|u| u.name == name)
            .cloned()
            .unwrap_or_else(|| panic!("no unit {name}"))
    };
    let (sa, sb) = (find(&a, "P.stable"), find(&b, "P.stable"));
    let (ea, eb) = (find(&a, "P.edited"), find(&b, "P.edited"));
    assert_eq!(sa.body_hash, sb.body_hash, "untouched body hash moved");
    assert_eq!(sa.deps_hash, sb.deps_hash, "untouched deps hash moved");
    assert_ne!(ea.body_hash, eb.body_hash, "edited body hash must move");
}

#[test]
fn layout_and_class_count_changes_invalidate_dependents() {
    // Adding a field to a referenced class changes the layout digest of
    // every unit that touches it.
    let base = plan_for(
        "class Box { int v; }
         class U { static int get(Box b) { return b.v; } }",
    );
    let grown = plan_for(
        "class Box { int v; int w; }
         class U { static int get(Box b) { return b.v; } }",
    );
    let get_base = base.iter().find(|u| u.name == "U.get").unwrap();
    let get_grown = grown.iter().find(|u| u.name == "U.get").unwrap();
    assert_ne!(
        get_base.deps_hash, get_grown.deps_hash,
        "field added to a referenced class must change the dep hash"
    );
    // Adding a class changes the symbol cardinality every type encoding
    // uses, so it must invalidate *all* units.
    let more_classes = plan_for(
        "class Box { int v; }
         class Extra { }
         class U { static int get(Box b) { return b.v; } }",
    );
    let get_more = more_classes.iter().find(|u| u.name == "U.get").unwrap();
    assert_ne!(
        get_base.deps_hash, get_more.deps_hash,
        "class count is part of every unit's dep hash"
    );
}

/// End-to-end: a warm `Pipeline` with a cache reuses every unit on an
/// identical rebuild, recompiles exactly one on a single-method edit,
/// and both warm outputs are byte-identical to cold builds.
#[test]
fn pipeline_cache_recompiles_only_the_edited_unit() {
    let dir = std::env::temp_dir().join(format!(
        "safetsa-incr-it-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let cold_bytes = |src: &str| {
        let p = Pipeline::new();
        let m = p.compile_source(src).unwrap();
        p.encode(&m).unwrap()
    };

    // Cold populate.
    let p1 = Pipeline::new()
        .telemetry(Telemetry::enabled())
        .cache(&dir)
        .unwrap();
    // Three units: the two source methods plus the synthesized
    // `P.<init>` constructor body.
    let m1 = p1.compile_source(TWO_METHODS_V1).unwrap();
    let b1 = p1.encode(&m1).unwrap();
    assert_eq!(b1, cold_bytes(TWO_METHODS_V1));
    assert_eq!(p1.metrics().counter("cache.unit.hits"), Some(0));
    assert_eq!(p1.metrics().counter("cache.unit.misses"), Some(3));

    // Identical rebuild: every unit reused.
    let p2 = Pipeline::new()
        .telemetry(Telemetry::enabled())
        .cache(&dir)
        .unwrap();
    let m2 = p2.compile_source(TWO_METHODS_V1).unwrap();
    assert_eq!(p2.encode(&m2).unwrap(), b1);
    assert_eq!(p2.metrics().counter("cache.unit.hits"), Some(3));
    assert_eq!(p2.metrics().counter("cache.unit.misses"), Some(0));

    // One-method edit: exactly one unit recompiles, output still
    // byte-identical to a cold build of the edited source.
    let p3 = Pipeline::new()
        .telemetry(Telemetry::enabled())
        .cache(&dir)
        .unwrap();
    let m3 = p3.compile_source(TWO_METHODS_V2).unwrap();
    assert_eq!(p3.encode(&m3).unwrap(), cold_bytes(TWO_METHODS_V2));
    assert_eq!(p3.metrics().counter("cache.unit.hits"), Some(2));
    assert_eq!(p3.metrics().counter("cache.unit.misses"), Some(1));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Store corruption and version skew all read as misses, never errors:
/// truncated unit records, foreign files, and `safetsa-cache/1`
/// leftovers.
#[test]
fn corrupt_and_stale_entries_read_as_misses() {
    let dir = std::env::temp_dir().join(format!(
        "safetsa-incr-corrupt-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // Open once just to create the directory the foreign files go in.
    let _store = Store::open(&dir).unwrap();

    // Foreign and v1-format files are ignored.
    std::fs::write(
        dir.join("0123456789abcdef.tsac"),
        b"safetsa-cache/1\nkey 0123456789abcdef\nbytes 3\nabcmetrics 0\n",
    )
    .unwrap();
    std::fs::write(dir.join("README.txt"), b"not a cache entry").unwrap();

    let p = Pipeline::new().telemetry(Telemetry::enabled());
    let warm = Pipeline::new()
        .telemetry(Telemetry::enabled())
        .cache(&dir)
        .unwrap();
    let m = warm.compile_source(TWO_METHODS_V1).unwrap();
    assert_eq!(
        warm.encode(&m).unwrap(),
        p.encode(&p.compile_source(TWO_METHODS_V1).unwrap())
            .unwrap()
    );
    assert_eq!(warm.metrics().counter("cache.unit.misses"), Some(3));

    // Truncate every stored record: the next run misses everything and
    // still produces correct output.
    for f in std::fs::read_dir(&dir).unwrap() {
        let path = f.unwrap().path();
        let data = std::fs::read(&path).unwrap();
        if data.len() > 4 {
            std::fs::write(&path, &data[..data.len() / 2]).unwrap();
        }
    }
    let again = Pipeline::new()
        .telemetry(Telemetry::enabled())
        .cache(&dir)
        .unwrap();
    let m2 = again.compile_source(TWO_METHODS_V1).unwrap();
    assert_eq!(
        again.encode(&m2).unwrap(),
        p.encode(&p.compile_source(TWO_METHODS_V1).unwrap())
            .unwrap()
    );
    assert_eq!(again.metrics().counter("cache.unit.hits"), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every single-bit flip of a stored unit record reads as a miss: the
/// header digest covers the kind, the key and every section. The warm
/// build over each flipped record recompiles that one unit (classified
/// `evicted`) and is byte-identical to a cold build.
#[test]
fn flipped_unit_records_rebuild_like_a_cold_build() {
    let dir = std::env::temp_dir().join(format!(
        "safetsa-incr-flip-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let build = |p: &Pipeline| {
        let m = p.compile_source(TWO_METHODS_V1).unwrap();
        p.encode(&m).unwrap()
    };
    let warm = || {
        Pipeline::new()
            .telemetry(Telemetry::enabled())
            .cache(&dir)
            .unwrap()
    };
    let cold_bytes = build(&Pipeline::new());
    assert_eq!(build(&warm()), cold_bytes);

    // The smallest unit record in the store.
    let (path, data) = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|path| {
            let data = std::fs::read(&path).unwrap();
            (path, data)
        })
        .filter(|(_, data)| data.split(|&b| b == b'\n').nth(1) == Some(b"kind unit"))
        .min_by_key(|(_, data)| data.len())
        .expect("a unit record");
    for bit in 0..data.len() * 8 {
        let mut evil = data.clone();
        evil[bit / 8] ^= 0x80 >> (bit % 8);
        std::fs::write(&path, &evil).unwrap();
        let p = warm();
        assert_eq!(build(&p), cold_bytes, "bit {bit}: warm differs from cold");
        let misses: Vec<_> = p.cache_report().into_iter().filter(|u| !u.reused).collect();
        assert_eq!(misses.len(), 1, "bit {bit}");
        assert_eq!(misses[0].why, "evicted", "bit {bit}");
        // The miss rewrote the record with the cold build's content.
        assert_eq!(std::fs::read(&path).unwrap(), data, "bit {bit}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
