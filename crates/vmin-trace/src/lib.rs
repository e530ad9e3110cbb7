//! # vmin-trace
//!
//! Dependency-free, **deterministic** observability for the `cqr-vmin`
//! workspace: counters, gauges, fixed-bucket histograms and span timers,
//! plus the workspace's single sanctioned monotonic [`clock`].
//!
//! The paper's headline claims are statistical (coverage ≥ 1−α, the
//! on-chip-monitor interval shrink), so a serving stack built on this
//! reproduction needs runtime metrics that can be *trusted not to perturb
//! those numbers*. The design contract, enforced end to end by the root
//! `tests/determinism.rs` matrix and `ci.sh`:
//!
//! 1. **Tracing never changes results.** Metrics are observe-only; no API
//!    here returns anything a numeric path could branch on (the [`clock`]
//!    exists for timers and bench reports, which are decision-free).
//! 2. **Merged metrics are themselves deterministic.** Events land in
//!    thread-local shards and merge by exact commutative operations in
//!    name-sorted order (see [`metrics`]), so counter/gauge/histogram
//!    values are bit-identical across `VMIN_THREADS` settings. Span
//!    [`timers`](span) and [`topology_add`] counts are the two documented
//!    exemptions: wall-clock time and thread topology legitimately vary.
//! 3. **One clock owner.** The `vmin-lint` `det-wall-clock` deny rule
//!    allows `std::time::Instant` in this crate only; everything else —
//!    the `perfbench` timer included — goes through [`clock`].
//!
//! Recording is gated by [`enabled`] (the `VMIN_TRACE` environment
//! variable, default on; `VMIN_TRACE=0` disables) and is cheap either way:
//! a thread-local `BTreeMap` update per event at call-site granularity,
//! never inside inner numeric loops.
//!
//! ## Example
//!
//! ```
//! # vmin_trace::set_enabled(true); // pin the flag: doctests must pass under VMIN_TRACE=0
//! let ((), snap) = vmin_trace::with_collector(|| {
//!     vmin_trace::counter_add("demo.events", 3);
//!     vmin_trace::gauge_max("demo.level", 0.75);
//!     vmin_trace::histogram_record("demo.coverage", 0.9);
//!     let _span = vmin_trace::span("demo.work");
//! });
//! assert_eq!(snap.counters["demo.events"], 3);
//! assert_eq!(snap.gauges["demo.level"], 0.75);
//! assert_eq!(snap.histograms["demo.coverage"].count, 1);
//! assert_eq!(snap.timers["demo.work"].count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod metrics;

pub use metrics::{
    current_context, enter_context, flush_current_thread, ContextGuard, DeterministicView,
    HistogramState, Snapshot, TimerState, TraceContext,
};

use metrics::Metric;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Reads the boolean environment flag `name` with the workspace-standard
/// semantics: unset → `default`; set to `0`, `false` or `off` (trimmed,
/// case-insensitive) → `false`; any other value → `true`.
///
/// Every `VMIN_*` on/off knob in the workspace goes through this helper
/// so the toggles behave identically, and every call site must pass a
/// string literal registered in the root `contracts.toml` — the
/// `contract-env` lint rule denies unregistered or computed names.
pub fn env_flag(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "false" | "off"
        ),
        Err(_) => default,
    }
}

/// Reads the numeric environment knob `name`: `None` when unset, empty
/// after trimming, or not a base-10 `usize`. Same registration contract
/// as [`env_flag`].
pub fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse::<usize>().ok()
}

/// Lazily initialized from `VMIN_TRACE` (default on; `0`/`false`/`off`
/// disable), overridable at runtime via [`set_enabled`].
fn enabled_flag() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| AtomicBool::new(env_flag("VMIN_TRACE", true)))
}

/// Whether metric recording is active.
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide (tests use this to run the
/// trace-on/off determinism matrix). Returns the previous state.
pub fn set_enabled(on: bool) -> bool {
    enabled_flag().swap(on, Ordering::Relaxed)
}

/// Adds `delta` to the deterministic counter `name`.
///
/// Counters must count *work*, never *topology*: a correct call site adds
/// the same total at any thread count (per-item or per-call increments in
/// `vmin-par` closures are fine — the shard sums are exact).
pub fn counter_add(name: &'static str, delta: u64) {
    if enabled() && delta > 0 {
        metrics::record(name, Metric::Counter(delta));
    }
}

/// Adds `delta` to the topology counter `name` — for counts that
/// legitimately depend on `VMIN_THREADS` (spawned tasks, serial
/// fallbacks). Exempt from every cross-thread-count identity check.
pub fn topology_add(name: &'static str, delta: u64) {
    if enabled() && delta > 0 {
        metrics::record(name, Metric::Topology(delta));
    }
}

/// Raises the gauge `name` to at least `value` (max-merge: exact and
/// commutative, so deterministic). Non-finite values are dropped.
pub fn gauge_max(name: &'static str, value: f64) {
    if enabled() && value.is_finite() {
        metrics::record(name, Metric::Gauge(value));
    }
}

/// Records `value` into the fixed-bucket histogram `name` (see
/// [`metrics::HISTOGRAM_EDGES`]). Non-finite values are dropped.
pub fn histogram_record(name: &'static str, value: f64) {
    if enabled() && value.is_finite() {
        metrics::record(name, Metric::Histogram(metrics::HistogramState::new(value)));
    }
}

/// An RAII span timer: records wall-clock nanoseconds under `name` when
/// dropped. Returns an inert guard when tracing is disabled, so the
/// disabled path never reads the clock.
///
/// Timers are observability-only and exempt from determinism checks;
/// nothing in the workspace may branch on them.
#[must_use = "a span records on drop; binding it to _ drops immediately"]
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: enabled().then(clock::now),
    }
}

/// Guard returned by [`span`].
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<clock::Tick>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            // Re-check enabled() so a span that straddles set_enabled(false)
            // doesn't record into a freshly reset test collector.
            if enabled() {
                metrics::record(
                    self.name,
                    Metric::Timer(TimerState {
                        count: 1,
                        total_ns: start.elapsed_ns(),
                    }),
                );
            }
        }
    }
}

/// Runs `f` with a fresh, isolated collector installed on this thread and
/// returns `f`'s result together with the metrics it recorded — including
/// metrics from `vmin-par` workers spawned inside `f`, which inherit the
/// spawning thread's context. Concurrent unrelated threads are *not*
/// captured, which is what makes per-test metric assertions possible in a
/// parallel test runner.
pub fn with_collector<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    let collector = std::sync::Arc::new(metrics::Collector::default());
    let ctx = TraceContext(std::sync::Arc::clone(&collector));
    let result = {
        let _guard = enter_context(&ctx);
        f()
        // Guard drop flushes this thread's shard into `collector`; worker
        // shards flushed when their threads exited inside `f`.
    };
    (result, collector.snapshot())
}

/// A snapshot of the **global** collector (the default target of every
/// thread), flushing the current thread's shard first. Shards of other
/// still-live threads are included only once they flush.
pub fn snapshot() -> Snapshot {
    flush_current_thread();
    metrics::global_collector().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The enabled flag is process-global and the default harness runs
    /// tests concurrently, so every test here pins the flag for its whole
    /// duration under this lock — both to survive `VMIN_TRACE=0` in the
    /// environment (the `ci.sh` trace-off pass) and to keep sibling tests
    /// from flipping the flag mid-assertion.
    static FLAG_LOCK: Mutex<()> = Mutex::new(());

    fn with_flag<R>(on: bool, f: impl FnOnce() -> R) -> R {
        let _guard = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = set_enabled(on);
        let result = f();
        set_enabled(prev);
        result
    }

    #[test]
    fn with_collector_isolates_and_captures() {
        with_flag(true, || {
            let ((), snap) = with_collector(|| {
                counter_add("t.iso.events", 2);
                counter_add("t.iso.events", 5);
                gauge_max("t.iso.peak", 1.0);
                gauge_max("t.iso.peak", 3.0);
                gauge_max("t.iso.peak", 2.0);
                histogram_record("t.iso.dist", 0.5);
                histogram_record("t.iso.dist", 70.0);
                topology_add("t.iso.topo", 4);
            });
            assert_eq!(snap.counters["t.iso.events"], 7);
            assert_eq!(snap.gauges["t.iso.peak"], 3.0);
            assert_eq!(snap.histograms["t.iso.dist"].count, 2);
            assert_eq!(snap.topology["t.iso.topo"], 4);
            // Nothing leaked into the global collector under these names.
            let global = snapshot();
            assert!(!global.counters.contains_key("t.iso.events"));
        });
    }

    #[test]
    fn nested_collectors_attribute_to_the_innermost() {
        with_flag(true, || {
            let ((), outer) = with_collector(|| {
                counter_add("t.nest.outer", 1);
                let ((), inner) = with_collector(|| counter_add("t.nest.inner", 1));
                assert_eq!(inner.counters["t.nest.inner"], 1);
                assert!(!inner.counters.contains_key("t.nest.outer"));
            });
            assert_eq!(outer.counters["t.nest.outer"], 1);
            assert!(!outer.counters.contains_key("t.nest.inner"));
        });
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        with_flag(false, || {
            let ((), snap) = with_collector(|| {
                counter_add("t.off.events", 1);
                gauge_max("t.off.gauge", 1.0);
                histogram_record("t.off.dist", 1.0);
                let _s = span("t.off.span");
            });
            assert!(snap.is_empty(), "{snap:?}");
        });
    }

    #[test]
    fn span_records_a_timer() {
        with_flag(true, || {
            let ((), snap) = with_collector(|| {
                let _s = span("t.span.work");
            });
            assert_eq!(snap.timers["t.span.work"].count, 1);
        });
    }

    #[test]
    fn context_propagates_to_spawned_threads_manually() {
        // What vmin-par does for every worker: capture the context before
        // spawning, enter it inside the worker.
        with_flag(true, || {
            let ((), snap) = with_collector(|| {
                let ctx = current_context();
                std::thread::scope(|s| {
                    for _ in 0..3 {
                        let ctx = &ctx;
                        s.spawn(move || {
                            let _g = enter_context(ctx);
                            counter_add("t.prop.worker_events", 1);
                        });
                    }
                });
            });
            assert_eq!(snap.counters["t.prop.worker_events"], 3);
        });
    }

    #[test]
    fn non_finite_values_are_dropped() {
        with_flag(true, || {
            let ((), snap) = with_collector(|| {
                gauge_max("t.fin.gauge", f64::NAN);
                histogram_record("t.fin.dist", f64::INFINITY);
                counter_add("t.fin.zero", 0);
            });
            assert!(snap.is_empty(), "{snap:?}");
        });
    }
}
