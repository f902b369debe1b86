//! The unified pipeline facade.
//!
//! Historically every stage grew `_with`/`_traced` variants and each
//! driver wired them together by hand. [`Pipeline`] is the one front
//! door: configure it once (passes, telemetry, resource limits), then
//! call [`Pipeline::compile_source`], [`Pipeline::encode`],
//! [`Pipeline::decode`], [`Pipeline::run`]. Every method records into
//! the pipeline's [`Telemetry`] registry (free when disabled) and
//! reports failures through the unified [`Error`].

use crate::store::{
    self, passes_fingerprint, CacheKey, RecordKind, Store, UnitIdentity, UnitRecord,
};
use crate::Error;
use safetsa_codec::{decode_function_section, encode_function_section, HostEnv};
use safetsa_core::verify::{verify_module, VerifyStats};
use safetsa_core::Module;
use safetsa_frontend::hir::Program;
use safetsa_opt::{record_stats, OptStats, Passes};
use safetsa_rt::Value;
use safetsa_ssa::Lowered;
use safetsa_telemetry::Telemetry;
use safetsa_vm::{ResourceLimits, Vm, VmError, VmProfile};
use std::path::Path;
use std::sync::Mutex;

/// A configured SafeTSA pipeline: one object that can take source text
/// all the way to wire bytes and back to an executed result.
///
/// # Examples
///
/// ```
/// use safetsa_driver::Pipeline;
///
/// let pipeline = Pipeline::new();
/// let module = pipeline.compile_source(
///     "class M { static int main() { return 6 * 7; } }",
/// )?;
/// let bytes = pipeline.encode(&module)?;
/// let decoded = pipeline.decode(&bytes)?;
/// let outcome = pipeline.run(&decoded, "M.main")?;
/// assert_eq!(outcome.result?, Some(safetsa_rt::Value::I(42)));
/// # Ok::<(), safetsa_driver::Error>(())
/// ```
#[derive(Debug, Default)]
pub struct Pipeline {
    passes: PassConfig,
    tm: Telemetry,
    limits: ResourceLimits,
    deadline: Option<std::time::Instant>,
    profile_every: Option<u32>,
    store: Option<Store>,
    unit_outcomes: Mutex<Vec<UnitOutcome>>,
}

/// One unit's fate in the last cached compile — what
/// `safetsa compile --explain-cache` reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitOutcome {
    /// The unit's stable identity (`Class.method`).
    pub name: String,
    /// Whether the unit was reused from the store.
    pub reused: bool,
    /// Why: `hit`, `new` (never seen), `body-changed`, `dep-changed`
    /// (same body, a referenced layout moved), or `evicted` (signature
    /// unchanged but the record was gone or unreadable).
    pub why: &'static str,
}

/// Producer-side optimization setting.
#[derive(Debug, Clone, Copy)]
enum PassConfig {
    /// Run the optimizer with these passes.
    Optimize(Passes),
    /// Skip the optimizer stage entirely (no `opt.*` metrics recorded).
    Skip,
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig::Optimize(Passes::ALL)
    }
}

/// What [`Pipeline::run`] produced: the program's printed output plus
/// either its result value or the execution failure. Output and the
/// recorded `vm.*` metrics are available even when execution trapped,
/// so drivers can still print what the program managed to say.
#[derive(Debug)]
pub struct RunOutcome {
    /// The entry point's return value, or the trap/exhaustion error.
    pub result: Result<Option<Value>, Error>,
    /// Everything the program printed.
    pub output: String,
    /// The VM's sampling profile, when [`Pipeline::profile_every`] was
    /// configured — present even when execution trapped or ran past its
    /// deadline (the at-kill-time sample is the point).
    pub profile: Option<VmProfile>,
}

impl Pipeline {
    /// A pipeline with the paper's defaults: all optimization passes,
    /// disabled telemetry, unlimited resource budgets.
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// Selects the producer-side optimization passes.
    #[must_use]
    pub fn passes(mut self, passes: Passes) -> Pipeline {
        self.passes = PassConfig::Optimize(passes);
        self
    }

    /// Disables the optimizer stage entirely: [`Pipeline::compile_source`]
    /// returns the freshly constructed SSA and records no `opt.*`
    /// metrics (what the CLI's `--no-opt` and `dump`/`analyze` want).
    #[must_use]
    pub fn no_optimize(mut self) -> Pipeline {
        self.passes = PassConfig::Skip;
        self
    }

    /// Installs a telemetry registry; pass [`Telemetry::enabled`] to
    /// collect per-stage metrics, which [`Pipeline::metrics`] exposes.
    #[must_use]
    pub fn telemetry(mut self, tm: Telemetry) -> Pipeline {
        self.tm = tm;
        self
    }

    /// Sets the consumer-side resource budgets applied by
    /// [`Pipeline::run`].
    #[must_use]
    pub fn limits(mut self, limits: ResourceLimits) -> Pipeline {
        self.limits = limits;
        self
    }

    /// Sets a wall-clock deadline for [`Pipeline::run`]: the VM checks
    /// the clock every fuel slice (see [`safetsa_vm::DEADLINE_SLICE`])
    /// and aborts with a `deadline_exceeded` failure once it passes.
    /// The serve daemon stamps each request with its admission deadline
    /// this way, so no request can hold a worker forever.
    #[must_use]
    pub fn deadline(mut self, deadline: std::time::Instant) -> Pipeline {
        self.deadline = Some(deadline);
        self
    }

    /// Turns on the VM sampling profiler for [`Pipeline::run`]: every
    /// `every_slices` fuel slices the VM records the current function
    /// and opcode window (see [`safetsa_vm::VmProfile`]), and the
    /// resulting profile is returned in [`RunOutcome::profile`].
    #[must_use]
    pub fn profile_every(mut self, every_slices: u32) -> Pipeline {
        self.profile_every = Some(every_slices);
        self
    }

    /// Attaches the method-granular incremental store rooted at `dir`
    /// (created if missing): [`Pipeline::compile_source`] /
    /// [`Pipeline::compile_sources`] then reuse per-method optimized
    /// sections whose body and dependency-signature hashes match a
    /// stored unit, recompiling only what an edit invalidated — with
    /// output byte-identical to a cold build. Per-unit outcomes land in
    /// [`Pipeline::cache_report`] and the `cache.unit.*` telemetry
    /// counters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the store directory cannot be opened.
    pub fn cache(mut self, dir: impl AsRef<Path>) -> Result<Pipeline, Error> {
        self.store = Some(Store::open(dir.as_ref())?);
        Ok(self)
    }

    /// The failure the compile-side stages report when the configured
    /// deadline has already passed — callers that run multi-stage work
    /// (the serve daemon's workers) call this between stages so compile
    /// requests respect deadlines too, not just VM execution.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Vm`] with
    /// [`VmError::DeadlineExceeded`] iff the deadline has passed.
    pub fn check_deadline(&self) -> Result<(), Error> {
        match self.deadline {
            Some(d) if std::time::Instant::now() >= d => Err(Error::Vm(VmError::DeadlineExceeded)),
            _ => Ok(()),
        }
    }

    /// The registry every stage records into.
    pub fn metrics(&self) -> &Telemetry {
        &self.tm
    }

    /// Consumes the pipeline, handing back its registry — the shape
    /// [`crate::batch::run_batch`] work closures return per task.
    pub fn into_metrics(self) -> Telemetry {
        self.tm
    }

    /// Front end only: source files to one resolved program (shared
    /// class space).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Compile`].
    pub fn frontend(&self, srcs: &[&str]) -> Result<Program, Error> {
        Ok(self.tm.span("frontend", || {
            safetsa_frontend::compile_sources(srcs, &self.tm)
        })?)
    }

    /// SSA construction only (no optimization, no verification).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Lower`].
    pub fn lower(&self, prog: &Program) -> Result<Lowered, Error> {
        Ok(self
            .tm
            .span("lower", || safetsa_ssa::construct(prog, &self.tm))?)
    }

    /// Compiles one source file to a verified (and, per the pipeline's
    /// configuration, optimized) SafeTSA module.
    ///
    /// # Errors
    ///
    /// Returns the first stage failure.
    pub fn compile_source(&self, src: &str) -> Result<Module, Error> {
        self.compile_sources(&[src])
    }

    /// Compiles several source files as one program: front end → SSA
    /// construction → producer optimization → verification.
    ///
    /// # Errors
    ///
    /// Returns the first stage failure.
    pub fn compile_sources(&self, srcs: &[&str]) -> Result<Module, Error> {
        self.tm.span("compile", || {
            // Deadline checks sit at stage boundaries: each stage is
            // bounded by the input size, so this is enough to keep compile
            // requests from holding a serve worker past their deadline.
            self.check_deadline()?;
            let prog = self.frontend(srcs)?;
            self.check_deadline()?;
            let mut module = self.lower(&prog)?.module;
            self.check_deadline()?;
            self.optimize(&mut module);
            self.check_deadline()?;
            self.verify(&module)?;
            Ok(module)
        })
    }

    /// Per-unit outcomes of the last cached compile (empty without a
    /// [`Pipeline::cache`] store): which methods were reused, which
    /// recompiled, and why.
    pub fn cache_report(&self) -> Vec<UnitOutcome> {
        self.unit_outcomes
            .lock()
            .map(|v| v.clone())
            .unwrap_or_default()
    }

    /// The incremental optimize stage: consult the store per unit,
    /// splice reused sections, recompile the rest, and store what was
    /// fresh. Metric totals (the `opt.*` plane) match a cold build
    /// exactly because reused units replay the per-unit [`OptStats`]
    /// the original compilation recorded.
    fn optimize_incremental(&self, store: &Store, m: &mut Module, passes: Passes) -> OptStats {
        self.tm.span("optimize", || {
            let Ok(plan) = store::unit_plan(m) else {
                // Planning failure (an unencodable body — never the
                // case for lowered modules) degrades to the plain path.
                return safetsa_opt::optimize(m, passes, &self.tm);
            };
            let fingerprint = passes_fingerprint(&passes);
            let mut outcomes = Vec::with_capacity(plan.len());
            let (mut hits, mut misses, mut invalidated) = (0u64, 0u64, 0u64);
            let total = self.tm.time("opt.optimize_ns", || {
                let mut total = OptStats::default();
                for u in &plan {
                    let mut content = [0u8; 16];
                    content[..8].copy_from_slice(&u.body_hash.to_le_bytes());
                    content[8..].copy_from_slice(&u.deps_hash.to_le_bytes());
                    let key = CacheKey::new(RecordKind::Unit, &fingerprint, &content);
                    let ident_key =
                        CacheKey::new(RecordKind::UnitIdentity, &fingerprint, u.name.as_bytes());
                    // A stored section that fails to decode against the
                    // fresh type table is corruption: treat as a miss.
                    let cached = store.get_unit(&key).and_then(|rec| {
                        decode_function_section(&rec.section, &mut m.types, u.class, u.method_idx)
                            .ok()
                            .map(|f| (f, rec))
                    });
                    match cached {
                        Some((f, rec)) => {
                            m.functions[u.func] = f;
                            total.add(&rec.stats);
                            hits += 1;
                            outcomes.push(UnitOutcome {
                                name: u.name.clone(),
                                reused: true,
                                why: "hit",
                            });
                        }
                        None => {
                            misses += 1;
                            let why = match store.get_identity(&ident_key) {
                                None => "new",
                                Some(prev) if prev.body_hash != u.body_hash => "body-changed",
                                Some(prev) if prev.deps_hash != u.deps_hash => {
                                    invalidated += 1;
                                    "dep-changed"
                                }
                                Some(_) => "evicted",
                            };
                            let g = &mut m.functions[u.func];
                            let stats = safetsa_opt::optimize_function(&m.types, g, passes);
                            if let Ok((section, _)) = encode_function_section(&m.types, g) {
                                store.put_unit_degrading(&key, &UnitRecord { section, stats });
                            }
                            total.add(&stats);
                            outcomes.push(UnitOutcome {
                                name: u.name.clone(),
                                reused: false,
                                why,
                            });
                        }
                    }
                    store.put_identity_degrading(
                        &ident_key,
                        &UnitIdentity {
                            body_hash: u.body_hash,
                            deps_hash: u.deps_hash,
                        },
                    );
                }
                total
            });
            record_stats(&total, &passes, &self.tm);
            self.tm.add("cache.unit.hits", hits);
            self.tm.add("cache.unit.misses", misses);
            self.tm.add("cache.unit.invalidated_by_dep", invalidated);
            if let Ok(mut slot) = self.unit_outcomes.lock() {
                *slot = outcomes;
            }
            total
        })
    }

    /// Runs the configured optimization passes in place (a no-op under
    /// [`Pipeline::no_optimize`]). With a [`Pipeline::cache`] store
    /// attached this is the incremental path: units whose body and
    /// dependency signatures match a stored record are spliced in
    /// instead of re-optimized.
    pub fn optimize(&self, m: &mut Module) -> OptStats {
        match (&self.store, self.passes) {
            (Some(store), PassConfig::Optimize(passes)) => {
                self.optimize_incremental(store, m, passes)
            }
            (None, PassConfig::Optimize(passes)) => self
                .tm
                .span("optimize", || safetsa_opt::optimize(m, passes, &self.tm)),
            (_, PassConfig::Skip) => OptStats::default(),
        }
    }

    /// Verifies a module, timing the pass under `verify.module_ns`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Verify`].
    pub fn verify(&self, m: &Module) -> Result<VerifyStats, Error> {
        Ok(self.tm.span("verify", || {
            self.tm.time("verify.module_ns", || verify_module(m))
        })?)
    }

    /// Encodes a module to its wire form, recording the codec plane.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Encode`].
    pub fn encode(&self, m: &Module) -> Result<Vec<u8>, Error> {
        Ok(self
            .tm
            .span("encode", || safetsa_codec::encode(m, &self.tm))?)
    }

    /// Decodes and verifies wire bytes against the standard host
    /// environment, timing the pass under `codec.decode_ns`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Decode`].
    pub fn decode(&self, bytes: &[u8]) -> Result<Module, Error> {
        self.tm.set("codec.total_bytes", bytes.len() as u64);
        let host = HostEnv::standard();
        Ok(self.tm.span("decode", || {
            self.tm.time("codec.decode_ns", || {
                safetsa_codec::decode_and_verify(bytes, &host)
            })
        })?)
    }

    /// Executes `entry` (`"Class.method"`) under the configured
    /// resource limits. Dynamic statistics collection is enabled iff
    /// the pipeline's telemetry is, and the VM plane (`vm.*`) is
    /// exported into the registry whether or not execution succeeded.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Vm`] when the module cannot be *loaded*;
    /// execution failures land in [`RunOutcome::result`] so the
    /// program's output survives them.
    pub fn run(&self, m: &Module, entry: &str) -> Result<RunOutcome, Error> {
        let mut vm = self.tm.span("vm.load", || Vm::load(m).map_err(Error::Vm))?;
        if self.tm.is_enabled() {
            vm.enable_stats();
        }
        vm.set_limits(self.limits);
        if let Some(d) = self.deadline {
            vm.set_deadline(d);
        }
        if let Some(every) = self.profile_every {
            vm.enable_profiler(every);
        }
        let result: Result<Option<Value>, VmError> = self.tm.span("vm.run", || vm.run_entry(entry));
        vm.export_metrics(&self.tm);
        let profile = self.profile_every.map(|_| vm.take_profile());
        Ok(RunOutcome {
            result: result.map_err(Error::Vm),
            output: vm.output.text().to_string(),
            profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "class A {
        static int main() {
            int[] v = new int[4];
            for (int i = 0; i < 4; i++) v[i] = i * i;
            return v[3];
        }
    }";

    #[test]
    fn facade_round_trips_source_to_result() {
        let p = Pipeline::new().telemetry(Telemetry::enabled());
        let module = p.compile_source(SRC).unwrap();
        let bytes = p.encode(&module).unwrap();
        let decoded = p.decode(&bytes).unwrap();
        let outcome = p.run(&decoded, "A.main").unwrap();
        assert_eq!(outcome.result.unwrap(), Some(Value::I(9)));
        // Every stage recorded into the one registry.
        for key in [
            "frontend.tokens",
            "ssa.instrs",
            "opt.instrs.after",
            "verify.module_ns",
            "codec.total_bytes",
            "vm.steps",
        ] {
            assert!(p.metrics().counter(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn no_optimize_skips_the_opt_plane() {
        let p = Pipeline::new()
            .no_optimize()
            .telemetry(Telemetry::enabled());
        p.compile_source(SRC).unwrap();
        assert_eq!(p.metrics().counter("opt.instrs.after"), None);
        assert!(p.metrics().counter("ssa.instrs").is_some());
    }

    #[test]
    fn stages_emit_a_nested_span_tree() {
        let p = Pipeline::new()
            .telemetry(Telemetry::with_trace())
            .profile_every(1);
        let module = p.compile_source(SRC).unwrap();
        let bytes = p.encode(&module).unwrap();
        let decoded = p.decode(&bytes).unwrap();
        let outcome = p.run(&decoded, "A.main").unwrap();
        assert_eq!(outcome.result.unwrap(), Some(Value::I(9)));
        assert!(outcome.profile.is_some());
        let spans = p.metrics().trace_spans();
        let find = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("no span {name}"))
        };
        let compile = find("compile");
        assert_eq!(compile.parent, None);
        for stage in ["frontend", "lower", "optimize", "verify"] {
            assert_eq!(find(stage).parent, Some(compile.id), "{stage}");
        }
        for stage in ["encode", "decode", "vm.load", "vm.run"] {
            assert_eq!(find(stage).parent, None, "{stage}");
        }
        // The metrics document is unchanged by tracing: no span leaks
        // into the counter plane.
        assert!(p.metrics().counter("vm.steps").is_some());
    }

    #[test]
    fn run_reports_limits_through_outcome_not_load() {
        let p = Pipeline::new().limits(ResourceLimits {
            fuel: Some(3),
            max_heap_bytes: None,
            max_call_depth: None,
        });
        let module = p.compile_source(SRC).unwrap();
        let outcome = p.run(&module, "A.main").unwrap();
        assert!(matches!(
            outcome.result,
            Err(Error::Vm(VmError::FuelExhausted))
        ));
    }
}
