//! The method-granular incremental store.
//!
//! This module replaces the old whole-file `Cache` with a typed,
//! versioned analysis-sharing store (entry format `safetsa-cache/4`;
//! leftovers of earlier formats read as misses). Three record kinds live
//! under one content-addressed namespace:
//!
//! * **Module records** — whole-file wire bytes plus the flat-serialized
//!   telemetry of the compilation that produced them; what
//!   [`crate::batch::run_batch`] and the serve daemon replay.
//! * **Unit records** — one per *method*: the standalone encoded
//!   function section (see `safetsa_codec::encode_function_section`)
//!   and the per-unit [`OptStats`]. Keyed by the unit's body hash and
//!   dependency-signature hash, so reuse is validated structurally, not
//!   by file identity.
//! * **Unit-identity records** — the last seen `(body_hash, deps_hash)`
//!   per unit *name*, which is what lets `--explain-cache` say *why* a
//!   unit missed (new / body changed / dependency changed).
//!
//! Soundness of unit reuse (DESIGN.md "Incremental compilation"): a
//! method's compilation is a pure function of its own SSA body and of
//! the layouts of the classes it references. [`unit_plan`] hashes the
//! former as the standalone section encoding of the unoptimized body —
//! which by construction folds in every encoding-relevant property of
//! the type table (symbol cardinalities, member counts) — and the
//! latter as a structural digest of the referenced-class closure
//! (fields, method signatures, vtable shape, superclass chains, the
//! well-known host classes) plus the class count. The pass fingerprint
//! and wire-format version are folded into every key by
//! [`CacheKey::new`], so no caller can forget a component and alias two
//! distinct compilations.
//!
//! Every read treats corruption — truncated records, foreign files,
//! stale formats, and any content that no longer matches the digest in
//! the record's header — as a *miss*, never an error; every write goes
//! to a temporary sibling first and is renamed into place. The store is
//! an accelerator, not a source of truth.

use crate::Error;
use safetsa_codec::encode_function_section;
use safetsa_core::instr::Instr;
use safetsa_core::types::{ClassId, MethodKind, TypeId, TypeKind, TypeTable};
use safetsa_core::{Function, Module};
use safetsa_opt::{MemModel, OptStats, Passes};
use std::collections::BTreeSet;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Entry-format version stamped into every store file; bump on any
/// layout change so stale entries read as misses.
pub const STORE_MAGIC: &str = "safetsa-cache/4";

/// The FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice, continuing from `state`. Start from the
/// offset basis via [`fnv1a`].
fn fnv1a_continue(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// FNV-1a 64-bit hash of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(FNV_OFFSET, bytes)
}

/// The digest in a record's header: FNV-1a over the record's kind, its
/// key, and every section's name, length and body. A changed byte
/// anywhere in these changes the digest, so bit rot or a torn write
/// reads as a miss instead of a silent hit.
fn record_digest<N: AsRef<str>, B: AsRef<[u8]>>(key: &CacheKey, sections: &[(N, B)]) -> u64 {
    let mut h = fnv1a(key.kind.token().as_bytes());
    h = fnv1a_continue(h, &key.hash.to_le_bytes());
    for (name, body) in sections {
        let body = body.as_ref();
        h = fnv1a_continue(h, name.as_ref().as_bytes());
        h = fnv1a_continue(h, &(body.len() as u64).to_le_bytes());
        h = fnv1a_continue(h, body);
    }
    h
}

/// Renders a [`Passes`] configuration as a stable fingerprint string.
/// Every knob that changes the produced module must appear here — a
/// missed knob would alias two distinct compilations onto one key.
pub fn passes_fingerprint(passes: &Passes) -> String {
    format!(
        "cp{}-cse{}-ce{}-lf{}-dse{}-dce{}-mem{}",
        u8::from(passes.constprop),
        u8::from(passes.cse),
        u8::from(passes.checkelim),
        u8::from(passes.loadfwd),
        u8::from(passes.dse),
        u8::from(passes.dce),
        match passes.mem {
            MemModel::Monolithic => "mono",
            MemModel::FieldPartitioned => "field",
        },
    )
}

/// What a store record holds. The kind token is part of the key, so the
/// three kinds cannot collide even for identical content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Whole-file wire bytes + compilation metrics.
    Module,
    /// One method's encoded section + opt stats.
    Unit,
    /// A unit's last-seen `(body_hash, deps_hash)` pair, keyed by name.
    UnitIdentity,
}

impl RecordKind {
    fn token(self) -> &'static str {
        match self {
            RecordKind::Module => "module",
            RecordKind::Unit => "unit",
            RecordKind::UnitIdentity => "ident",
        }
    }
}

/// A fully composed store key. The constructor folds in every
/// configuration axis — record kind, entry-format magic, wire-format
/// version, pass fingerprint — ahead of the caller's
/// content, with NUL separators so field boundaries cannot alias.
/// Callers compose keys *only* through [`CacheKey::new`]; there is no
/// way to build one from a raw hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKey {
    kind: RecordKind,
    hash: u64,
}

impl CacheKey {
    /// Composes a key from the configuration axes and the
    /// content-identifying bytes (source text for module records, the
    /// body/deps hashes for unit records, the unit name for identity
    /// records).
    pub fn new(kind: RecordKind, fingerprint: &str, content: &[u8]) -> CacheKey {
        let mut state = fnv1a(STORE_MAGIC.as_bytes());
        state = fnv1a_continue(state, &[safetsa_codec::layout::VERSION, 0]);
        state = fnv1a_continue(state, kind.token().as_bytes());
        state = fnv1a_continue(state, &[0]);
        state = fnv1a_continue(state, fingerprint.as_bytes());
        state = fnv1a_continue(state, &[0]);
        let hash = fnv1a_continue(state, content);
        CacheKey { kind, hash }
    }

    /// The 64-bit content hash (names the entry file).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The record kind this key addresses.
    pub fn kind(&self) -> RecordKind {
        self.kind
    }
}

/// A whole-file record: the encoded wire bytes plus the flat-serialized
/// telemetry of the compilation that produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleRecord {
    /// Encoded `.tsa` bytes.
    pub bytes: Vec<u8>,
    /// Flat telemetry export (`Telemetry::export_flat`).
    pub metrics: String,
}

/// A per-method record: everything needed to splice the method into a
/// fresh lowering without re-optimizing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitRecord {
    /// The optimized body, encoded standalone with
    /// `safetsa_codec::encode_function_section`.
    pub section: Vec<u8>,
    /// The optimizer statistics the original compilation recorded for
    /// this unit (replayed into the telemetry totals on reuse).
    pub stats: OptStats,
}

/// A unit's last-seen signature, stored under its *name* so the next
/// compilation can explain why the unit hit or missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitIdentity {
    /// Hash of the standalone encoding of the unoptimized body.
    pub body_hash: u64,
    /// Structural digest of the referenced-class closure.
    pub deps_hash: u64,
}

/// The typed, versioned incremental store, rooted at one directory.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Opens a store directory, creating it if it is missing.
    ///
    /// # Errors
    ///
    /// Returns the I/O failure of `create_dir_all`.
    pub fn open(dir: &Path) -> std::io::Result<Store> {
        std::fs::create_dir_all(dir)?;
        Ok(Store {
            dir: dir.to_path_buf(),
        })
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{:016x}.tsac", key.hash))
    }

    /// Reads and validates one record, returning its named sections in
    /// file order. Any corruption or version skew is `None`: the header
    /// must match the current format and `key`, and the sections must
    /// match the header's [`record_digest`].
    fn read_record(&self, key: &CacheKey) -> Option<Vec<(String, Vec<u8>)>> {
        let data = std::fs::read(self.entry_path(key)).ok()?;
        let mut rest = data.as_slice();
        let line = |rest: &mut &[u8]| -> Option<String> {
            let nl = rest.iter().position(|&b| b == b'\n')?;
            let text = std::str::from_utf8(&rest[..nl]).ok()?.to_string();
            *rest = &rest[nl + 1..];
            Some(text)
        };
        if line(&mut rest)? != STORE_MAGIC {
            return None;
        }
        if line(&mut rest)?.strip_prefix("kind ")? != key.kind.token() {
            return None;
        }
        if line(&mut rest)?.strip_prefix("key ")? != format!("{:016x}", key.hash) {
            return None;
        }
        let digest = line(&mut rest)?;
        let count: usize = line(&mut rest)?.strip_prefix("sections ")?.parse().ok()?;
        // An absurd count is corruption, not an allocation request.
        if count > 64 {
            return None;
        }
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let header = line(&mut rest)?;
            let (name, len) = header.rsplit_once(' ')?;
            let len: usize = len.parse().ok()?;
            if rest.len() < len + 1 {
                return None;
            }
            let body = rest[..len].to_vec();
            if rest[len] != b'\n' {
                return None;
            }
            rest = &rest[len + 1..];
            sections.push((name.to_string(), body));
        }
        let intact = digest == format!("digest {:016x}", record_digest(key, &sections));
        (rest.is_empty() && intact).then_some(sections)
    }

    /// Writes one record atomically: a temporary sibling first, renamed
    /// into place, so a concurrent worker (or a crash) never observes a
    /// torn entry.
    fn write_record(&self, key: &CacheKey, sections: &[(&str, &[u8])]) -> std::io::Result<()> {
        let path = self.entry_path(key);
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        {
            let mut f = std::fs::File::create(&tmp)?;
            writeln!(f, "{STORE_MAGIC}")?;
            writeln!(f, "kind {}", key.kind.token())?;
            writeln!(f, "key {:016x}", key.hash)?;
            writeln!(f, "digest {:016x}", record_digest(key, sections))?;
            writeln!(f, "sections {}", sections.len())?;
            for (name, body) in sections {
                writeln!(f, "{name} {}", body.len())?;
                f.write_all(body)?;
                writeln!(f)?;
            }
        }
        std::fs::rename(&tmp, &path)
    }

    /// Writes a record, degrading instead of failing: a vanished store
    /// directory is recreated and the write retried once; any remaining
    /// I/O failure is swallowed. Returns whether the record was
    /// actually written, so callers can count degradations — a
    /// concurrent `rm -rf` of the store must cost a counter increment,
    /// never a failed compilation.
    fn write_record_degrading(&self, key: &CacheKey, sections: &[(&str, &[u8])]) -> bool {
        if self.write_record(key, sections).is_ok() {
            return true;
        }
        // The common mid-run fault: the directory was removed under us.
        if std::fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        self.write_record(key, sections).is_ok()
    }

    /// Looks up a module record. Any corruption is a miss.
    pub fn get_module(&self, key: &CacheKey) -> Option<ModuleRecord> {
        let sections = self.read_record(key)?;
        let [(b_name, bytes), (m_name, metrics)] = sections.try_into().ok()?;
        if b_name != "bytes" || m_name != "metrics" {
            return None;
        }
        Some(ModuleRecord {
            bytes,
            metrics: String::from_utf8(metrics).ok()?,
        })
    }

    /// Stores a module record; degrading, never failing.
    pub fn put_module_degrading(&self, key: &CacheKey, rec: &ModuleRecord) -> bool {
        self.write_record_degrading(
            key,
            &[("bytes", &rec.bytes), ("metrics", rec.metrics.as_bytes())],
        )
    }

    /// Looks up a unit record. Any corruption is a miss.
    pub fn get_unit(&self, key: &CacheKey) -> Option<UnitRecord> {
        let sections = self.read_record(key)?;
        let [(s_name, section), (st_name, stats)] = sections.try_into().ok()?;
        if s_name != "section" || st_name != "stats" {
            return None;
        }
        Some(UnitRecord {
            section,
            stats: stats_from_flat(std::str::from_utf8(&stats).ok()?)?,
        })
    }

    /// Stores a unit record; degrading, never failing.
    pub fn put_unit_degrading(&self, key: &CacheKey, rec: &UnitRecord) -> bool {
        self.write_record_degrading(
            key,
            &[
                ("section", &rec.section),
                ("stats", stats_to_flat(&rec.stats).as_bytes()),
            ],
        )
    }

    /// Looks up a unit-identity record. Any corruption is a miss.
    pub fn get_identity(&self, key: &CacheKey) -> Option<UnitIdentity> {
        let sections = self.read_record(key)?;
        let [(name, body)] = sections.try_into().ok()?;
        if name != "identity" {
            return None;
        }
        let text = std::str::from_utf8(&body).ok()?;
        let mut lines = text.lines();
        let body_hash = u64::from_str_radix(lines.next()?.strip_prefix("body ")?, 16).ok()?;
        let deps_hash = u64::from_str_radix(lines.next()?.strip_prefix("deps ")?, 16).ok()?;
        lines.next().is_none().then_some(UnitIdentity {
            body_hash,
            deps_hash,
        })
    }

    /// Stores a unit-identity record; degrading, never failing.
    pub fn put_identity_degrading(&self, key: &CacheKey, id: &UnitIdentity) -> bool {
        let body = format!("body {:016x}\ndeps {:016x}\n", id.body_hash, id.deps_hash);
        self.write_record_degrading(key, &[("identity", body.as_bytes())])
    }
}

/// [`OptStats`] field order for the flat serialization (scalar fields
/// followed by the nested per-pass statistics, each flattened with its
/// pass prefix). Writer and reader both walk this list.
const STAT_FIELDS: [&str; 33] = [
    "instrs_before",
    "instrs_after",
    "phis_before",
    "phis_after",
    "null_checks_before",
    "null_checks_after",
    "index_checks_before",
    "index_checks_after",
    "removed_by_constprop",
    "removed_by_cse",
    "removed_by_checkelim",
    "removed_by_loadfwd",
    "removed_by_dse",
    "removed_by_dce",
    "checkelim.null_converted",
    "checkelim.index_deleted",
    "checkelim.null_proven",
    "checkelim.index_proven",
    "checkelim.nullness_facts",
    "checkelim.range_facts",
    "checkelim.nullness_iterations",
    "checkelim.range_iterations",
    "loadfwd.store_forwarded",
    "loadfwd.load_reused",
    "loadfwd.kept_across_calls",
    "loadfwd.alias_sites",
    "loadfwd.alias_facts",
    "loadfwd.alias_iterations",
    "loadfwd.escape_no",
    "loadfwd.escape_arg",
    "loadfwd.escape_global",
    "dse.overwritten",
    "dse.never_read",
];

fn stat_get(s: &OptStats, name: &str) -> u64 {
    match name {
        "instrs_before" => s.instrs_before as u64,
        "instrs_after" => s.instrs_after as u64,
        "phis_before" => s.phis_before as u64,
        "phis_after" => s.phis_after as u64,
        "null_checks_before" => s.null_checks_before as u64,
        "null_checks_after" => s.null_checks_after as u64,
        "index_checks_before" => s.index_checks_before as u64,
        "index_checks_after" => s.index_checks_after as u64,
        "removed_by_constprop" => s.removed_by_constprop as u64,
        "removed_by_cse" => s.removed_by_cse as u64,
        "removed_by_checkelim" => s.removed_by_checkelim as u64,
        "removed_by_loadfwd" => s.removed_by_loadfwd as u64,
        "removed_by_dse" => s.removed_by_dse as u64,
        "removed_by_dce" => s.removed_by_dce as u64,
        "checkelim.null_converted" => s.checkelim.null_converted as u64,
        "checkelim.index_deleted" => s.checkelim.index_deleted as u64,
        "checkelim.null_proven" => s.checkelim.null_proven as u64,
        "checkelim.index_proven" => s.checkelim.index_proven as u64,
        "checkelim.nullness_facts" => s.checkelim.nullness_facts,
        "checkelim.range_facts" => s.checkelim.range_facts,
        "checkelim.nullness_iterations" => s.checkelim.nullness_iterations,
        "checkelim.range_iterations" => s.checkelim.range_iterations,
        "loadfwd.store_forwarded" => s.loadfwd.store_forwarded as u64,
        "loadfwd.load_reused" => s.loadfwd.load_reused as u64,
        "loadfwd.kept_across_calls" => s.loadfwd.kept_across_calls as u64,
        "loadfwd.alias_sites" => s.loadfwd.alias_sites,
        "loadfwd.alias_facts" => s.loadfwd.alias_facts,
        "loadfwd.alias_iterations" => s.loadfwd.alias_iterations,
        "loadfwd.escape_no" => s.loadfwd.escape_no,
        "loadfwd.escape_arg" => s.loadfwd.escape_arg,
        "loadfwd.escape_global" => s.loadfwd.escape_global,
        "dse.overwritten" => s.dse.overwritten as u64,
        "dse.never_read" => s.dse.never_read as u64,
        _ => unreachable!("unknown OptStats field {name}"),
    }
}

fn stat_set(s: &mut OptStats, name: &str, v: u64) {
    let vu = v as usize;
    match name {
        "instrs_before" => s.instrs_before = vu,
        "instrs_after" => s.instrs_after = vu,
        "phis_before" => s.phis_before = vu,
        "phis_after" => s.phis_after = vu,
        "null_checks_before" => s.null_checks_before = vu,
        "null_checks_after" => s.null_checks_after = vu,
        "index_checks_before" => s.index_checks_before = vu,
        "index_checks_after" => s.index_checks_after = vu,
        "removed_by_constprop" => s.removed_by_constprop = vu,
        "removed_by_cse" => s.removed_by_cse = vu,
        "removed_by_checkelim" => s.removed_by_checkelim = vu,
        "removed_by_loadfwd" => s.removed_by_loadfwd = vu,
        "removed_by_dse" => s.removed_by_dse = vu,
        "removed_by_dce" => s.removed_by_dce = vu,
        "checkelim.null_converted" => s.checkelim.null_converted = vu,
        "checkelim.index_deleted" => s.checkelim.index_deleted = vu,
        "checkelim.null_proven" => s.checkelim.null_proven = vu,
        "checkelim.index_proven" => s.checkelim.index_proven = vu,
        "checkelim.nullness_facts" => s.checkelim.nullness_facts = v,
        "checkelim.range_facts" => s.checkelim.range_facts = v,
        "checkelim.nullness_iterations" => s.checkelim.nullness_iterations = v,
        "checkelim.range_iterations" => s.checkelim.range_iterations = v,
        "loadfwd.store_forwarded" => s.loadfwd.store_forwarded = vu,
        "loadfwd.load_reused" => s.loadfwd.load_reused = vu,
        "loadfwd.kept_across_calls" => s.loadfwd.kept_across_calls = vu,
        "loadfwd.alias_sites" => s.loadfwd.alias_sites = v,
        "loadfwd.alias_facts" => s.loadfwd.alias_facts = v,
        "loadfwd.alias_iterations" => s.loadfwd.alias_iterations = v,
        "loadfwd.escape_no" => s.loadfwd.escape_no = v,
        "loadfwd.escape_arg" => s.loadfwd.escape_arg = v,
        "loadfwd.escape_global" => s.loadfwd.escape_global = v,
        "dse.overwritten" => s.dse.overwritten = vu,
        "dse.never_read" => s.dse.never_read = vu,
        _ => unreachable!("unknown OptStats field {name}"),
    }
}

/// Renders [`OptStats`] as flat `name value` lines.
pub fn stats_to_flat(s: &OptStats) -> String {
    let mut out = String::new();
    for name in STAT_FIELDS {
        out.push_str(name);
        out.push(' ');
        out.push_str(&stat_get(s, name).to_string());
        out.push('\n');
    }
    out
}

/// Parses a [`stats_to_flat`] rendering; `None` on any malformed or
/// missing line (store readers treat that as a miss).
pub fn stats_from_flat(text: &str) -> Option<OptStats> {
    let mut s = OptStats::default();
    let mut lines = text.lines();
    for name in STAT_FIELDS {
        let line = lines.next()?;
        let value = line.strip_prefix(name)?.strip_prefix(' ')?;
        stat_set(&mut s, name, value.parse().ok()?);
    }
    lines.next().is_none().then_some(s)
}

/// One per-method work item: the unit's stable identity (class, method
/// index, function index, diagnostic name) plus the two hashes that
/// validate reuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitPlan {
    /// Diagnostic name (`Class.method`), the stable unit identity.
    pub name: String,
    /// Declaring class.
    pub class: ClassId,
    /// Index into the class's method list.
    pub method_idx: usize,
    /// Index of the body in `Module::functions`.
    pub func: usize,
    /// FNV-1a over the standalone section encoding of the *unoptimized*
    /// body — this folds in every encoding-relevant type-table property
    /// (symbol cardinalities, member counts) along with the code itself.
    pub body_hash: u64,
    /// Structural digest of the referenced-class closure (layouts,
    /// vtable shapes, callee signatures, superclass chains) and the
    /// class count.
    pub deps_hash: u64,
}

/// Computes the per-unit work items of a freshly lowered module, in the
/// canonical (class, method) order a whole-module decode derives.
///
/// # Errors
///
/// Returns [`Error::Encode`] when a body cannot be section-encoded
/// (never the case for lowered, verifiable modules).
pub fn unit_plan(m: &Module) -> Result<Vec<UnitPlan>, Error> {
    let mut plans = Vec::new();
    for (cid, c) in m.types.classes() {
        for (mi, meth) in c.methods.iter().enumerate() {
            let Some(fid) = meth.body else { continue };
            let f = &m.functions[fid as usize];
            let (bytes, _) = encode_function_section(&m.types, f)?;
            plans.push(UnitPlan {
                name: f.name.clone(),
                class: cid,
                method_idx: mi,
                func: fid as usize,
                body_hash: fnv1a(&bytes),
                deps_hash: deps_hash(m, cid, f),
            });
        }
    }
    Ok(plans)
}

/// A structural digest of one type: interning-order independent, naming
/// classes by identity (id + name) rather than by table position of
/// derived planes.
fn type_digest(types: &TypeTable, ty: TypeId) -> u64 {
    match types.kind(ty) {
        TypeKind::Prim(p) => fnv1a_continue(fnv1a(b"prim"), p.name().as_bytes()),
        TypeKind::Class(c) => {
            let state = fnv1a_continue(fnv1a(b"class"), &c.0.to_le_bytes());
            fnv1a_continue(state, types.class(c).name.as_bytes())
        }
        TypeKind::Array(e) => fnv1a_continue(fnv1a(b"array"), &type_digest(types, e).to_le_bytes()),
        TypeKind::SafeRef(of) => {
            fnv1a_continue(fnv1a(b"saferef"), &type_digest(types, of).to_le_bytes())
        }
        TypeKind::SafeIndex(a) => {
            fnv1a_continue(fnv1a(b"safeindex"), &type_digest(types, a).to_le_bytes())
        }
    }
}

/// Digest of one class's externally visible layout: everything another
/// unit's compilation can depend on — field list, method signatures and
/// dispatch kinds (the vtable shape), superclass link, import status —
/// but *not* any method body.
fn class_digest(types: &TypeTable, cid: ClassId) -> u64 {
    let c = types.class(cid);
    let mut h = fnv1a(c.name.as_bytes());
    h = fnv1a_continue(h, &[0, u8::from(c.imported)]);
    h = fnv1a_continue(
        h,
        &match c.superclass {
            Some(s) => s.0.wrapping_add(1).to_le_bytes(),
            None => 0u32.to_le_bytes(),
        },
    );
    for fld in &c.fields {
        h = fnv1a_continue(h, fld.name.as_bytes());
        h = fnv1a_continue(h, &[0, u8::from(fld.is_static)]);
        h = fnv1a_continue(h, &type_digest(types, fld.ty).to_le_bytes());
    }
    for m in &c.methods {
        h = fnv1a_continue(h, m.name.as_bytes());
        let kind = match m.kind {
            MethodKind::Static => 1u8,
            MethodKind::Virtual => 2,
            MethodKind::Special => 3,
        };
        h = fnv1a_continue(h, &[0, kind, u8::from(m.body.is_some())]);
        h = fnv1a_continue(h, &m.vtable_slot.map_or(0, |s| s + 1).to_le_bytes());
        for &p in &m.params {
            h = fnv1a_continue(h, &type_digest(types, p).to_le_bytes());
        }
        h = fnv1a_continue(h, &[0]);
        h = fnv1a_continue(h, &m.ret.map_or(0, |r| type_digest(types, r)).to_le_bytes());
    }
    h
}

/// Collects the class ids a type mentions, through arrays and the
/// safe-ref/safe-index derived planes.
fn collect_classes(types: &TypeTable, ty: TypeId, out: &mut BTreeSet<ClassId>) {
    match types.kind(ty) {
        TypeKind::Prim(_) => {}
        TypeKind::Class(c) => {
            out.insert(c);
        }
        TypeKind::Array(e) => collect_classes(types, e, out),
        TypeKind::SafeRef(of) => collect_classes(types, of, out),
        TypeKind::SafeIndex(a) => collect_classes(types, a, out),
    }
}

/// The type parameters and symbolic member references an instruction
/// carries (operand/result planes are covered by the value table; the
/// member references can name superclasses that appear nowhere else).
fn instr_deps(types: &TypeTable, i: &Instr, out: &mut BTreeSet<ClassId>) {
    let mut ty = |t: TypeId| collect_classes(types, t, out);
    match i {
        Instr::Primitive { ty: t, .. } | Instr::XPrimitive { ty: t, .. } => ty(*t),
        Instr::NullCheck { ty: t, .. } | Instr::RefEq { ty: t, .. } | Instr::Catch { ty: t } => {
            ty(*t)
        }
        Instr::IndexCheck { arr_ty, .. }
        | Instr::GetElt { arr_ty, .. }
        | Instr::SetElt { arr_ty, .. }
        | Instr::ArrayLength { arr_ty, .. }
        | Instr::NewArray { arr_ty, .. } => ty(*arr_ty),
        Instr::Upcast { from, to, .. } | Instr::Downcast { from, to, .. } => {
            ty(*from);
            collect_classes(types, *to, out);
        }
        Instr::InstanceOf { from, target, .. } => {
            ty(*from);
            collect_classes(types, *target, out);
        }
        Instr::New { class_ty } => ty(*class_ty),
        Instr::GetField { ty: t, field, .. } | Instr::SetField { ty: t, field, .. } => {
            ty(*t);
            out.insert(field.class);
        }
        Instr::GetStatic { field } | Instr::SetStatic { field, .. } => {
            out.insert(field.class);
        }
        Instr::XCall {
            base_ty, method, ..
        }
        | Instr::XDispatch {
            base_ty, method, ..
        } => {
            ty(*base_ty);
            out.insert(method.class);
        }
    }
}

/// The dependency-signature hash of one unit: the class count (every
/// symbol encoding depends on it) folded with the layout digests of the
/// unit's referenced-class closure — its own class, every class its
/// types and member references mention, the well-known host classes,
/// and all their transitive superclasses.
fn deps_hash(m: &Module, own: ClassId, f: &Function) -> u64 {
    let types = &m.types;
    let mut set = BTreeSet::new();
    set.insert(own);
    for wk in [
        m.well_known.object,
        m.well_known.throwable,
        m.well_known.string,
    ] {
        set.insert(wk);
    }
    for &p in &f.params {
        collect_classes(types, p, &mut set);
    }
    if let Some(r) = f.ret {
        collect_classes(types, r, &mut set);
    }
    for v in &f.values {
        collect_classes(types, v.ty, &mut set);
    }
    for c in &f.consts {
        collect_classes(types, c.ty, &mut set);
    }
    for b in &f.blocks {
        for phi in &b.phis {
            collect_classes(types, phi.ty, &mut set);
        }
        for i in &b.instrs {
            instr_deps(types, i, &mut set);
        }
    }
    // Close over superclass chains: dispatch and field lookup walk them.
    let mut frontier: Vec<ClassId> = set.iter().copied().collect();
    while let Some(c) = frontier.pop() {
        if let Some(s) = types.class(c).superclass {
            if set.insert(s) {
                frontier.push(s);
            }
        }
    }
    let mut h = fnv1a(&[safetsa_codec::layout::VERSION]);
    h = fnv1a_continue(h, &(types.class_count() as u64).to_le_bytes());
    for cid in set {
        h = fnv1a_continue(h, &cid.0.to_le_bytes());
        h = fnv1a_continue(h, &class_digest(types, cid).to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn key_folds_every_axis() {
        let base = CacheKey::new(RecordKind::Module, "cfg", b"src");
        let other_kind = CacheKey::new(RecordKind::Unit, "cfg", b"src");
        let other_cfg = CacheKey::new(RecordKind::Module, "cfg2", b"src");
        let other_src = CacheKey::new(RecordKind::Module, "cfg", b"src2");
        for other in [other_kind, other_cfg, other_src] {
            assert_ne!(base.hash(), other.hash());
        }
        // Field boundaries cannot alias: moving a byte across the
        // separator changes the key.
        assert_ne!(
            CacheKey::new(RecordKind::Module, "ab", b"c").hash(),
            CacheKey::new(RecordKind::Module, "a", b"bc").hash()
        );
    }

    #[test]
    fn fingerprint_distinguishes_pass_configs() {
        let all = passes_fingerprint(&Passes::ALL);
        let none = passes_fingerprint(&Passes::NONE);
        let field = passes_fingerprint(&Passes::ALL_FIELD_MEM);
        assert_ne!(all, none);
        assert_ne!(all, field);
    }

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "safetsa-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn module_record_round_trip_and_corruption_is_a_miss() {
        let dir = test_dir("module");
        let store = Store::open(&dir).unwrap();
        let key = CacheKey::new(RecordKind::Module, "cfg", b"src");
        assert!(store.get_module(&key).is_none());
        let rec = ModuleRecord {
            bytes: vec![1, 2, 3],
            metrics: "c a.b 4\n".into(),
        };
        assert!(store.put_module_degrading(&key, &rec));
        assert_eq!(store.get_module(&key), Some(rec));
        // Truncate the entry: reads as a miss, not an error.
        let path = dir.join(format!("{:016x}.tsac", key.hash()));
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 2]).unwrap();
        assert!(store.get_module(&key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unit_and_identity_records_round_trip() {
        let dir = test_dir("unit");
        let store = Store::open(&dir).unwrap();
        let key = CacheKey::new(RecordKind::Unit, "cfg", b"u1");
        let mut stats = OptStats {
            instrs_before: 42,
            removed_by_cse: 7,
            ..OptStats::default()
        };
        stats.loadfwd.alias_sites = 3;
        let rec = UnitRecord {
            section: vec![0xde, 0xad, 0xbe, 0xef],
            stats,
        };
        assert!(store.put_unit_degrading(&key, &rec));
        assert_eq!(store.get_unit(&key), Some(rec));
        // Wrong-kind lookups miss even on a hash collision of content:
        // the kind token is in both the key and the record header.
        let ident_key = CacheKey::new(RecordKind::UnitIdentity, "cfg", b"P.m");
        assert!(store.get_identity(&key).is_none());
        let id = UnitIdentity {
            body_hash: 0xabc,
            deps_hash: 0xdef,
        };
        assert!(store.put_identity_degrading(&ident_key, &id));
        assert_eq!(store.get_identity(&ident_key), Some(id));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_versions_and_foreign_files_read_as_misses() {
        let dir = test_dir("skew");
        let store = Store::open(&dir).unwrap();
        let key = CacheKey::new(RecordKind::Module, "cfg", b"src");
        // Plant entries of earlier formats at exactly this key's path: a
        // v1 entry, v2 and v3 entries that are well-formed in their
        // own format (v2 keys also folded in a VM engine name; neither
        // had a digest line), and a current-layout entry under the v3
        // magic.
        let path = dir.join(format!("{:016x}.tsac", key.hash()));
        let sections: [(&str, &[u8]); 2] = [("bytes", b"abc"), ("metrics", b"")];
        let body = "sections 2\nbytes 3\nabc\nmetrics 0\n\n";
        let v3 = |magic: &str| format!("{magic}\nkind module\nkey {:016x}\n{body}", key.hash());
        let v4 = |magic: &str| {
            format!(
                "{magic}\nkind module\nkey {:016x}\ndigest {:016x}\n{body}",
                key.hash(),
                record_digest(&key, &sections)
            )
        };
        let stale = [
            format!(
                "safetsa-cache/1\nkey {:016x}\nbytes 3\nabcmetrics 0\n",
                key.hash()
            ),
            v3("safetsa-cache/2"),
            v3("safetsa-cache/3"),
            v4("safetsa-cache/3"),
        ];
        for entry in stale {
            std::fs::write(&path, entry).unwrap();
            assert!(store.get_module(&key).is_none());
        }
        // Control: the same record under the current magic is a hit.
        std::fs::write(&path, v4(STORE_MAGIC)).unwrap();
        assert!(store.get_module(&key).is_some());
        std::fs::write(&path, b"not a cache entry at all").unwrap();
        assert!(store.get_module(&key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flips every bit of `path` in turn and asserts that `get` misses
    /// on each mutant, then restores the original and asserts a hit.
    fn assert_every_flip_misses<T>(path: &Path, get: impl Fn() -> Option<T>) {
        let data = std::fs::read(path).unwrap();
        for bit in 0..data.len() * 8 {
            let mut evil = data.clone();
            evil[bit / 8] ^= 0x80 >> (bit % 8);
            std::fs::write(path, &evil).unwrap();
            assert!(
                get().is_none(),
                "bit {bit} of {} read as a hit",
                path.display()
            );
        }
        std::fs::write(path, &data).unwrap();
        assert!(get().is_some());
    }

    #[test]
    fn every_single_bit_flip_reads_as_a_miss() {
        let dir = test_dir("flip");
        let store = Store::open(&dir).unwrap();
        let module_key = CacheKey::new(RecordKind::Module, "cfg", b"src");
        let module = ModuleRecord {
            bytes: vec![0x5a, 0xfe, 0x75, 0xa0, 0, 1, 2, 3],
            metrics: "c codec.total_bytes 8\nc vm.steps 12\n".into(),
        };
        assert!(store.put_module_degrading(&module_key, &module));
        let unit_key = CacheKey::new(RecordKind::Unit, "cfg", b"u1");
        let unit = UnitRecord {
            section: vec![0xde, 0xad, 0xbe, 0xef, 0x10],
            stats: OptStats {
                instrs_before: 42,
                instrs_after: 30,
                ..OptStats::default()
            },
        };
        assert!(store.put_unit_degrading(&unit_key, &unit));
        let path = |key: &CacheKey| dir.join(format!("{:016x}.tsac", key.hash()));
        assert_every_flip_misses(&path(&module_key), || store.get_module(&module_key));
        assert_every_flip_misses(&path(&unit_key), || store.get_unit(&unit_key));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn vanished_directory_degrades_instead_of_failing() {
        let dir = test_dir("degrade");
        let store = Store::open(&dir).unwrap();
        let key = CacheKey::new(RecordKind::Module, "cfg", b"src");
        let rec = ModuleRecord {
            bytes: vec![9, 9],
            metrics: "c a.b 1\n".into(),
        };
        // Directory removed mid-run: load degrades to a miss, and the
        // degrading store recreates the directory and succeeds.
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(store.get_module(&key).is_none());
        assert!(store.put_module_degrading(&key, &rec));
        assert_eq!(store.get_module(&key), Some(rec.clone()));
        // Directory replaced by a plain file (stands in for a readonly
        // or otherwise unusable mount): store degrades to "not
        // written" rather than erroring, load is a miss.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();
        assert!(!store.put_module_degrading(&key, &rec));
        assert!(store.get_module(&key).is_none());
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn opt_stats_flat_round_trip() {
        let mut s = OptStats {
            instrs_before: 100,
            instrs_after: 60,
            removed_by_dce: 40,
            ..OptStats::default()
        };
        s.checkelim.range_facts = 12;
        s.dse.overwritten = 2;
        let flat = stats_to_flat(&s);
        assert_eq!(stats_from_flat(&flat), Some(s));
        assert!(stats_from_flat(&flat[..flat.len() / 3]).is_none());
        assert!(stats_from_flat(&format!("{flat}tail 0\n")).is_none());
    }
}
