//! Cross-thread daemon statistics.
//!
//! The pipeline's [`Telemetry`](safetsa_telemetry::Telemetry) registry
//! is `RefCell`-based and deliberately single-threaded, so the daemon
//! keeps its own counters as relaxed atomics: every reader and worker
//! thread bumps them lock-free, and the `stats` control op (or the
//! final [`crate::ServeSummary`]) snapshots them. Relaxed ordering is
//! fine — these are monotone counters, not synchronization.
//!
//! Three finer-grained views ride along behind mutexes (they are
//! touched once per request, not per instruction):
//!
//! * per-error-**kind** counters (`deadline_exceeded`, `panic`, …),
//! * per-**tenant** request/ok/error/shed/panic breakdowns, and
//! * one latency store: exact count/min/max/sum over every completed
//!   request, next to a bounded reservoir of raw samples from which
//!   the `stats` payload reports *exact* nearest-rank p50/p99 over the
//!   retained window. Both live under one lock, so an observation takes
//!   one lock.

use safetsa_telemetry::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How many raw latency samples the reservoir retains; once full, new
/// samples overwrite the oldest (a sliding window over recent load).
pub const LATENCY_SAMPLE_CAP: usize = 4096;

/// Per-tenant request accounting (tenant name `""` is reported as
/// `"default"`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Work requests that reached admission (admitted or shed).
    pub requests: u64,
    /// Completed with `status:"ok"`.
    pub ok: u64,
    /// Completed with `status:"error"`.
    pub errors: u64,
    /// Rejected at admission (queue full or draining).
    pub shed: u64,
    /// Worker panics isolated on this tenant's requests.
    pub panics: u64,
}

/// The daemon's one latency store: exact totals over every observation
/// plus the raw-sample sliding window behind exact percentiles.
#[derive(Debug, Default)]
struct LatencyReservoir {
    /// Observations ever recorded.
    count: u64,
    /// Smallest observation (0 when empty).
    min: u64,
    /// Largest observation.
    max: u64,
    /// Sum of observations (saturating).
    sum: u64,
    samples: Vec<u64>,
    /// Overwrite cursor once `samples` has reached capacity.
    next: usize,
}

impl LatencyReservoir {
    fn observe(&mut self, ns: u64) {
        if self.count == 0 || ns < self.min {
            self.min = ns;
        }
        self.max = self.max.max(ns);
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
        if self.samples.len() < LATENCY_SAMPLE_CAP {
            self.samples.push(ns);
        } else {
            self.samples[self.next] = ns;
            self.next = (self.next + 1) % LATENCY_SAMPLE_CAP;
        }
    }

    /// Exact nearest-rank percentiles over the retained window:
    /// `(p50, p99)`, `None` when empty.
    fn percentiles(&self) -> Option<(u64, u64)> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = |p: f64| {
            let n = sorted.len();
            let idx = ((p / 100.0) * n as f64).ceil() as usize;
            sorted[idx.clamp(1, n) - 1]
        };
        Some((rank(50.0), rank(99.0)))
    }
}

/// Live counters for one daemon instance. All methods are `&self` and
/// thread-safe.
#[derive(Debug)]
pub struct ServeStats {
    /// When this daemon instance started (drives `uptime_ms`).
    pub started: Instant,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Work requests admitted to the queue.
    pub accepted: AtomicU64,
    /// Work requests fully processed (one response written).
    pub completed: AtomicU64,
    /// Completed with `status:"ok"`.
    pub ok: AtomicU64,
    /// Completed with `status:"error"` (request-level failures).
    pub errors: AtomicU64,
    /// Admission rejections while the queue was full.
    pub shed: AtomicU64,
    /// Admission rejections while draining for shutdown.
    pub rejected_draining: AtomicU64,
    /// Frames that failed to parse as requests (includes over-long
    /// frames).
    pub malformed: AtomicU64,
    /// Worker panics caught at the request boundary.
    pub panics_isolated: AtomicU64,
    /// Requests that ran past their deadline.
    pub deadline_exceeded: AtomicU64,
    /// Requests that exhausted their fuel budget.
    pub fuel_exhausted: AtomicU64,
    /// Compile results served from the content-addressed cache.
    pub cache_hits: AtomicU64,
    /// Cache stores that failed and were degraded to cache-off.
    pub cache_degraded: AtomicU64,
    /// Inline control ops answered (ping/stats/trace/shutdown).
    pub control: AtomicU64,
    /// End-to-end latency of completed work requests, admission → last
    /// byte of the response, in nanoseconds.
    latency: Mutex<LatencyReservoir>,
    /// Error responses by stable `kind` token.
    kinds: Mutex<BTreeMap<String, u64>>,
    /// Per-tenant breakdowns.
    tenants: Mutex<BTreeMap<String, TenantCounters>>,
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats {
            started: Instant::now(),
            connections: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            panics_isolated: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            fuel_exhausted: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_degraded: AtomicU64::new(0),
            control: AtomicU64::new(0),
            latency: Mutex::new(LatencyReservoir::default()),
            kinds: Mutex::new(BTreeMap::new()),
            tenants: Mutex::new(BTreeMap::new()),
        }
    }
}

fn tenant_key(tenant: &str) -> &str {
    if tenant.is_empty() {
        "default"
    } else {
        tenant
    }
}

impl ServeStats {
    /// Increments a counter by one.
    pub fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments the per-kind counter for one error `kind` token.
    pub fn bump_kind(&self, kind: &str) {
        *self
            .kinds
            .lock()
            .unwrap()
            .entry(kind.to_string())
            .or_insert(0) += 1;
    }

    /// Updates one tenant's breakdown (`""` maps to `"default"`).
    pub fn tenant<F: FnOnce(&mut TenantCounters)>(&self, tenant: &str, f: F) {
        f(self
            .tenants
            .lock()
            .unwrap()
            .entry(tenant_key(tenant).to_string())
            .or_default());
    }

    /// Records one completed-request latency.
    pub fn observe_latency(&self, ns: u64) {
        self.latency.lock().unwrap().observe(ns);
    }

    /// Snapshots every counter into a JSON object (the `stats` control
    /// op's payload and the shutdown summary).
    pub fn to_json(&self) -> Json {
        let g = |c: &AtomicU64| Json::U64(c.load(Ordering::Relaxed));
        let mut o = Json::obj();
        o.set(
            "uptime_ms",
            Json::U64(self.started.elapsed().as_millis().min(u64::MAX as u128) as u64),
        );
        o.set("connections", g(&self.connections));
        o.set("accepted", g(&self.accepted));
        o.set("completed", g(&self.completed));
        o.set("ok", g(&self.ok));
        o.set("errors", g(&self.errors));
        o.set("shed", g(&self.shed));
        o.set("rejected_draining", g(&self.rejected_draining));
        o.set("malformed", g(&self.malformed));
        o.set("panics_isolated", g(&self.panics_isolated));
        o.set("deadline_exceeded", g(&self.deadline_exceeded));
        o.set("fuel_exhausted", g(&self.fuel_exhausted));
        o.set("cache_hits", g(&self.cache_hits));
        o.set("cache_degraded", g(&self.cache_degraded));
        o.set("control", g(&self.control));
        let mut kinds = Json::obj();
        for (kind, n) in self.kinds.lock().unwrap().iter() {
            kinds.set(kind, Json::U64(*n));
        }
        o.set("kinds", kinds);
        let mut tenants = Json::obj();
        for (name, c) in self.tenants.lock().unwrap().iter() {
            let mut t = Json::obj();
            t.set("requests", Json::U64(c.requests));
            t.set("ok", Json::U64(c.ok));
            t.set("errors", Json::U64(c.errors));
            t.set("shed", Json::U64(c.shed));
            t.set("panics", Json::U64(c.panics));
            tenants.set(name, t);
        }
        o.set("tenants", tenants);
        let lat = self.latency.lock().unwrap();
        let mut l = Json::obj();
        l.set("count", Json::U64(lat.count));
        l.set("min_ns", Json::U64(lat.min));
        l.set("max_ns", Json::U64(lat.max));
        let mean = if lat.count == 0 {
            0.0
        } else {
            lat.sum as f64 / lat.count as f64
        };
        l.set("mean_ns", Json::F64(mean));
        if let Some((p50, p99)) = lat.percentiles() {
            l.set("p50_ns", Json::U64(p50));
            l.set("p99_ns", Json::U64(p99));
        }
        o.set("latency", l);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps_and_latency() {
        let s = ServeStats::default();
        s.bump(&s.accepted);
        s.bump(&s.accepted);
        s.bump(&s.shed);
        s.observe_latency(1_000);
        s.observe_latency(3_000);
        let j = s.to_json();
        assert_eq!(j.get("accepted").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("shed").and_then(Json::as_u64), Some(1));
        let lat = j.get("latency").unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(lat.get("max_ns").and_then(Json::as_u64), Some(3_000));
        assert!(j.get("uptime_ms").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn stats_are_shareable_across_threads() {
        let s = std::sync::Arc::new(ServeStats::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.bump(&s.completed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let j = s.to_json();
        assert_eq!(j.get("completed").and_then(Json::as_u64), Some(4000));
    }

    #[test]
    fn percentiles_are_exact_not_bucketed() {
        let s = ServeStats::default();
        // 1..=100: nearest-rank p50 = 50, p99 = 99. A pow2 histogram
        // could only answer with a bucket boundary (64 / 128).
        for ns in 1..=100u64 {
            s.observe_latency(ns);
        }
        let j = s.to_json();
        let lat = j.get("latency").unwrap();
        assert_eq!(lat.get("p50_ns").and_then(Json::as_u64), Some(50));
        assert_eq!(lat.get("p99_ns").and_then(Json::as_u64), Some(99));
    }

    #[test]
    fn latency_reservoir_slides_once_full() {
        let mut r = LatencyReservoir::default();
        for _ in 0..LATENCY_SAMPLE_CAP {
            r.observe(1);
        }
        for _ in 0..LATENCY_SAMPLE_CAP {
            r.observe(1_000);
        }
        // The window now holds only recent samples.
        let (p50, p99) = r.percentiles().unwrap();
        assert_eq!((p50, p99), (1_000, 1_000));
        assert_eq!(r.samples.len(), LATENCY_SAMPLE_CAP);
    }

    #[test]
    fn kind_and_tenant_breakdowns_accumulate() {
        let s = ServeStats::default();
        s.bump_kind("panic");
        s.bump_kind("panic");
        s.bump_kind("deadline_exceeded");
        s.tenant("gold", |t| {
            t.requests += 1;
            t.ok += 1;
        });
        s.tenant("", |t| t.shed += 1);
        let j = s.to_json();
        let kinds = j.get("kinds").unwrap();
        assert_eq!(kinds.get("panic").and_then(Json::as_u64), Some(2));
        assert_eq!(
            kinds.get("deadline_exceeded").and_then(Json::as_u64),
            Some(1)
        );
        let tenants = j.get("tenants").unwrap();
        let gold = tenants.get("gold").unwrap();
        assert_eq!(gold.get("ok").and_then(Json::as_u64), Some(1));
        let default = tenants.get("default").unwrap();
        assert_eq!(default.get("shed").and_then(Json::as_u64), Some(1));
    }
}
