//! Metric storage: thread-local shards, collectors, and snapshots.
//!
//! ## The determinism contract, mechanically
//!
//! Every merge in this module is **exact and commutative**, so the merged
//! value is a function of the *multiset of recorded events* only — never of
//! thread interleaving, shard flush order, or `VMIN_THREADS`:
//!
//! - counters and topology counters: `u64` addition (associative, exact);
//! - gauges: `f64::max` (commutative, exact — no rounding);
//! - histograms: per-bucket `u64` addition plus `f64` min/max (exact);
//! - timers: `u64` nanosecond and count addition.
//!
//! Notably there is **no `f64` sum anywhere**: float addition is not
//! associative, so a summed statistic could differ between flush orders.
//! Histograms carry bucket counts and min/max instead of a mean.
//!
//! Metrics land in a per-thread shard (the private `ThreadState`) and are flushed
//! into the thread's target [`Collector`] when the thread exits, when a
//! collector scope ends, or explicitly. Shards and collectors key metrics
//! by `&'static str` name in a `BTreeMap`, so every snapshot and report is
//! name-sorted by construction.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Upper edges of the fixed histogram buckets, ascending. The final
/// implicit bucket is `+∞`. The grid covers the workspace's value ranges:
/// coverage fractions in `[0, 1]`, interval lengths in millivolts
/// (tens to hundreds), and generic counts.
pub const HISTOGRAM_EDGES: [f64; 20] = [
    0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0,
];

/// Number of histogram buckets including the `+∞` overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = HISTOGRAM_EDGES.len() + 1;

/// Index of the bucket a value falls into (first edge ≥ value; overflow
/// bucket otherwise). Pure, so bucketing never depends on execution order.
fn bucket_index(value: f64) -> usize {
    HISTOGRAM_EDGES
        .iter()
        .position(|&edge| value <= edge)
        .unwrap_or(HISTOGRAM_EDGES.len())
}

/// Merged histogram state: fixed bucket counts plus exact extrema.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramState {
    /// Count per bucket; index [`HISTOGRAM_EDGES`]`.len()` is overflow.
    pub buckets: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
}

impl HistogramState {
    pub(crate) fn new(value: f64) -> Self {
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        buckets[bucket_index(value)] = 1;
        HistogramState {
            buckets,
            count: 1,
            min: value,
            max: value,
        }
    }

    #[cfg(test)]
    fn record(&mut self, value: f64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn merge(&mut self, other: &HistogramState) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Merged timer state. Durations are wall-clock and therefore excluded
/// from every determinism contract; only the merge itself is well-defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerState {
    /// Number of recorded spans.
    pub count: u64,
    /// Total recorded time in nanoseconds.
    pub total_ns: u64,
}

/// One metric cell. The kind is fixed by the first record under a name;
/// later records of a different kind under the same name are dropped (and
/// counted in the `trace.kind_conflicts` counter) rather than panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Deterministic event count (identical across thread counts).
    Counter(u64),
    /// Thread-topology count (spawned tasks, serial fallbacks): legitimate
    /// to vary with `VMIN_THREADS`, so exempt from cross-thread-count
    /// identity checks, like timers.
    Topology(u64),
    /// Deterministic max-merged level.
    Gauge(f64),
    /// Deterministic fixed-bucket distribution.
    Histogram(HistogramState),
    /// Wall-clock span totals (never deterministic, never load-bearing).
    Timer(TimerState),
}

/// Name the kind-conflict counter is recorded under.
const KIND_CONFLICTS: &str = "trace.kind_conflicts";

/// Applies `incoming` to the cell under `name` in `map`, respecting kind
/// stability. Returns `false` on a kind conflict (the record is dropped).
fn apply(map: &mut BTreeMap<&'static str, Metric>, name: &'static str, incoming: Metric) -> bool {
    match map.entry(name) {
        std::collections::btree_map::Entry::Vacant(v) => {
            v.insert(incoming);
            true
        }
        std::collections::btree_map::Entry::Occupied(mut o) => match (o.get_mut(), incoming) {
            (Metric::Counter(a), Metric::Counter(b)) => {
                *a += b;
                true
            }
            (Metric::Topology(a), Metric::Topology(b)) => {
                *a += b;
                true
            }
            (Metric::Gauge(a), Metric::Gauge(b)) => {
                *a = a.max(b);
                true
            }
            (Metric::Histogram(a), Metric::Histogram(b)) => {
                a.merge(&b);
                true
            }
            (Metric::Timer(a), Metric::Timer(b)) => {
                a.count += b.count;
                a.total_ns += b.total_ns;
                true
            }
            _ => false,
        },
    }
}

/// A merge target for thread shards. The default target is the process
/// global; [`crate::with_collector`] installs a scoped one so a caller can
/// observe exactly the metrics its own work (including `vmin-par` workers)
/// produced, isolated from concurrent threads.
#[derive(Debug, Default)]
pub struct Collector {
    cells: Mutex<BTreeMap<&'static str, Metric>>,
}

impl Collector {
    /// Merges a drained shard into this collector.
    fn absorb(&self, shard: BTreeMap<&'static str, Metric>) {
        // A poisoned mutex only means another thread panicked mid-merge;
        // the map itself is still structurally sound, so recover it.
        let mut cells = self.cells.lock().unwrap_or_else(|p| p.into_inner());
        let mut conflicts = 0u64;
        for (name, metric) in shard {
            if !apply(&mut cells, name, metric) {
                conflicts += 1;
            }
        }
        if conflicts > 0 {
            apply(&mut cells, KIND_CONFLICTS, Metric::Counter(conflicts));
        }
    }

    /// Copies the merged state out as a [`Snapshot`].
    pub(crate) fn snapshot(&self) -> Snapshot {
        let cells = self.cells.lock().unwrap_or_else(|p| p.into_inner());
        let mut snap = Snapshot::default();
        for (&name, metric) in cells.iter() {
            match metric {
                Metric::Counter(v) => {
                    snap.counters.insert(name.to_string(), *v);
                }
                Metric::Topology(v) => {
                    snap.topology.insert(name.to_string(), *v);
                }
                Metric::Gauge(v) => {
                    snap.gauges.insert(name.to_string(), *v);
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.to_string(), h.clone());
                }
                Metric::Timer(t) => {
                    snap.timers.insert(name.to_string(), *t);
                }
            }
        }
        snap
    }
}

/// The process-global collector, target of every thread that is not inside
/// a [`crate::with_collector`] scope.
pub(crate) fn global_collector() -> &'static Arc<Collector> {
    static GLOBAL: OnceLock<Arc<Collector>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Collector::default()))
}

/// Per-thread recording state: the shard plus the collector it flushes to.
struct ThreadState {
    target: Arc<Collector>,
    shard: BTreeMap<&'static str, Metric>,
}

impl ThreadState {
    fn flush(&mut self) {
        if !self.shard.is_empty() {
            self.target.absorb(std::mem::take(&mut self.shard));
        }
    }
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static STATE: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
}

/// Runs `f` with the thread's state, initializing it against the global
/// collector on first touch.
fn with_state<R>(f: impl FnOnce(&mut ThreadState) -> R) -> R {
    STATE.with(|s| {
        let mut slot = s.borrow_mut();
        let state = slot.get_or_insert_with(|| ThreadState {
            target: Arc::clone(global_collector()),
            shard: BTreeMap::new(),
        });
        f(state)
    })
}

/// Records one metric event into the current thread's shard.
pub(crate) fn record(name: &'static str, incoming: Metric) {
    with_state(|state| {
        if !apply(&mut state.shard, name, incoming) {
            apply(&mut state.shard, KIND_CONFLICTS, Metric::Counter(1));
        }
    });
}

/// Flushes the current thread's shard into its target collector.
pub fn flush_current_thread() {
    with_state(ThreadState::flush);
}

/// A handle to the collector metrics on this thread currently flow into.
/// Cheap to clone; pass it to worker threads (as `vmin-par` does) so their
/// shards merge into the same place as the spawning thread's.
#[derive(Debug, Clone)]
pub struct TraceContext(pub(crate) Arc<Collector>);

/// The collector the current thread records into.
pub fn current_context() -> TraceContext {
    TraceContext(with_state(|state| Arc::clone(&state.target)))
}

/// Redirects the current thread's metrics to `ctx` until the returned
/// guard drops (flushing first in both directions, so no event is ever
/// attributed to the wrong collector).
pub fn enter_context(ctx: &TraceContext) -> ContextGuard {
    let prev = with_state(|state| {
        state.flush();
        std::mem::replace(&mut state.target, Arc::clone(&ctx.0))
    });
    ContextGuard { prev: Some(prev) }
}

/// Restores the previous trace context on drop. See [`enter_context`].
#[derive(Debug)]
pub struct ContextGuard {
    prev: Option<Arc<Collector>>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            with_state(|state| {
                state.flush();
                state.target = prev;
            });
        }
    }
}

/// A point-in-time, name-sorted copy of a collector's merged metrics.
///
/// `counters`, `gauges` and `histograms` are the **deterministic view**:
/// with tracing enabled they are bit-identical across `VMIN_THREADS`
/// values for a deterministic workload. `topology` and `timers` are
/// explicitly exempt (thread-count-dependent and wall-clock respectively).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Deterministic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Thread-topology counts (exempt from determinism checks).
    pub topology: BTreeMap<String, u64>,
    /// Max-merged levels.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket distributions.
    pub histograms: BTreeMap<String, HistogramState>,
    /// Wall-clock span totals (exempt from determinism checks).
    pub timers: BTreeMap<String, TimerState>,
}

/// The deterministic sections of a [`Snapshot`] — what two snapshots must
/// agree on across thread counts when tracing is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeterministicView<'a> {
    /// Deterministic event counts.
    pub counters: &'a BTreeMap<String, u64>,
    /// Max-merged levels.
    pub gauges: &'a BTreeMap<String, f64>,
    /// Fixed-bucket distributions.
    pub histograms: &'a BTreeMap<String, HistogramState>,
}

impl Snapshot {
    /// The deterministic sections only — topology and timers excluded.
    pub fn deterministic_view(&self) -> DeterministicView<'_> {
        DeterministicView {
            counters: &self.counters,
            gauges: &self.gauges,
            histograms: &self.histograms,
        }
    }

    /// True when no metric of any kind was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.topology.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.timers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_covers_overflow() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(0.001), 0);
        assert_eq!(bucket_index(0.9), 8);
        assert_eq!(bucket_index(1.0), 10);
        assert_eq!(bucket_index(1e9), HISTOGRAM_EDGES.len());
        let mut prev = 0usize;
        for &e in &HISTOGRAM_EDGES {
            let b = bucket_index(e);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn apply_merges_matching_kinds() {
        let mut m = BTreeMap::new();
        assert!(apply(&mut m, "c", Metric::Counter(2)));
        assert!(apply(&mut m, "c", Metric::Counter(3)));
        assert_eq!(m.get("c"), Some(&Metric::Counter(5)));
        assert!(apply(&mut m, "g", Metric::Gauge(1.5)));
        assert!(apply(&mut m, "g", Metric::Gauge(0.5)));
        assert_eq!(m.get("g"), Some(&Metric::Gauge(1.5)));
    }

    #[test]
    fn apply_rejects_kind_conflicts() {
        let mut m = BTreeMap::new();
        assert!(apply(&mut m, "x", Metric::Counter(1)));
        assert!(!apply(&mut m, "x", Metric::Gauge(2.0)));
        assert_eq!(m.get("x"), Some(&Metric::Counter(1)));
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = HistogramState::new(0.5);
        a.record(2.0);
        let mut b = HistogramState::new(700.0);
        b.record(0.5);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.min, 0.5);
        assert_eq!(a.max, 700.0);
        assert_eq!(a.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn collector_absorb_counts_conflicts() {
        let c = Collector::default();
        let mut s1 = BTreeMap::new();
        apply(&mut s1, "m", Metric::Counter(1));
        c.absorb(s1);
        let mut s2 = BTreeMap::new();
        apply(&mut s2, "m", Metric::Gauge(1.0));
        c.absorb(s2);
        let snap = c.snapshot();
        assert_eq!(snap.counters.get("m"), Some(&1));
        assert_eq!(snap.counters.get(KIND_CONFLICTS), Some(&1));
    }
}
