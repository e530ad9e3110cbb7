//! Per-layer attribution of a traced phase (a request, or the setup).
//!
//! Layer times come from the program's own `vmin-trace` spans; work counts
//! from its counters. The benchmark's span log supplies the phase's wall
//! time and the time spent inside its calls into the program, so
//!
//! ```text
//! wall = benchmark's own time + layer time + unattributed
//! ```
//!
//! where the unattributed part is time inside a public call that no
//! program span covers.

use vmin_trace::Snapshot;

/// The program's span and counter names this module reads. They are
/// looked up in snapshots, never recorded.
mod names {
    pub const STREAM_CHUNK: &str = "silicon.stream.chunk";
    pub const CAMPAIGN_RUN: &str = "silicon.campaign.run";
    pub const STREAM_CHIPS: &str = "silicon.stream.chips";
    pub const CHIPS_FABRICATED: &str = "silicon.chips.fabricated";
    pub const VMIN_SEARCHES: &str = "silicon.vmin.searches";
    pub const SERVE_BATCH: &str = "serve.batch";
    pub const SERVE_ROWS: &str = "serve.rows";
    pub const SERVE_BATCHES: &str = "serve.batches";
    pub const GBT_FIT: &str = "models.gbt.fit";
    pub const OBLIVIOUS_FIT: &str = "models.hist.oblivious_fit";
    pub const GBT_FITS: &str = "models.gbt.fits";
    pub const OBLIVIOUS_FITS: &str = "models.oblivious.fits";
    pub const GBT_ROUNDS: &str = "models.gbt.rounds";
    pub const OBLIVIOUS_ROUNDS: &str = "models.oblivious.rounds";
    pub const TREE_NODES: &str = "models.tree.nodes";
    pub const CHILD_SUBTRACTED: &str = "models.hist.child_subtracted";
    pub const CHILD_ACCUMULATED: &str = "models.hist.child_accumulated";
    pub const FITPLAN_BUILD: &str = "models.fitplan.build";
    pub const FITPLAN_REUSE: &str = "models.fitplan.reuse";
    pub const CQR_FIT_CALIBRATE: &str = "conformal.cqr.fit_calibrate";
    pub const CQR_CALIBRATIONS: &str = "conformal.cqr.calibrations";
    pub const EVAL_COVERED: &str = "conformal.eval.covered";
    pub const EVAL_POINTS: &str = "conformal.eval.points";
    pub const FLEET_SCREEN: &str = "fleet.screen";
    pub const REGION_CELL: &str = "core.run_region_cell";
    pub const REGION_CELLS: &str = "core.cells.region";
    pub const KIND_CONFLICTS: &str = "trace.kind_conflicts";
}

fn timer_ns(snap: &Snapshot, name: &str) -> u64 {
    snap.timers.get(name).map_or(0, |t| t.total_ns)
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Time and work of one traced phase, or the sum of several.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// Wall time of the phase (the benchmark's root span).
    pub wall_ns: u64,
    /// Time inside the benchmark's calls into the program.
    pub call_ns: u64,
    silicon_ns: u64,
    serve_ns: u64,
    models_ns: u64,
    /// `conformal.cqr.fit_calibrate` minus the model fits inside it.
    conformal_self_ns: i64,
    /// Core spans minus the layers they enclose.
    core_self_ns: i64,
    chips: u64,
    /// Vmin searches as the benchmark counts them.
    searches: u64,
    /// Vmin searches as the program counts them.
    program_searches: u64,
    serve_rows: u64,
    serve_calls: u64,
    fits: u64,
    rounds: u64,
    tree_nodes: u64,
    hist_subtracted: u64,
    hist_accumulated: u64,
    fitplan_builds: u64,
    fitplan_reuses: u64,
    calibrations: u64,
    covered: u64,
    scored: u64,
    cells: u64,
    kind_conflicts: u64,
}

fn signed(ns: u64) -> i64 {
    i64::try_from(ns).unwrap_or(i64::MAX)
}

impl Sample {
    /// Attributes one phase: `snap` is what the program recorded during
    /// it, `searches` the Vmin searches it performed, `wall_ns` its wall
    /// time and `call_ns` the time inside public calls.
    pub fn from_phase(snap: &Snapshot, searches: u64, wall_ns: u64, call_ns: u64) -> Sample {
        use names::*;
        let silicon_ns = timer_ns(snap, STREAM_CHUNK) + timer_ns(snap, CAMPAIGN_RUN);
        let serve_ns = timer_ns(snap, SERVE_BATCH);
        let models_ns = timer_ns(snap, GBT_FIT) + timer_ns(snap, OBLIVIOUS_FIT);
        let cqr_ns = timer_ns(snap, CQR_FIT_CALIBRATE);
        // Every model fit in these workloads runs inside a CQR fit.
        let conformal_self_ns = if cqr_ns > 0 {
            signed(cqr_ns) - signed(models_ns)
        } else {
            0
        };
        let core_ns = timer_ns(snap, FLEET_SCREEN) + timer_ns(snap, REGION_CELL);
        let core_self_ns = if core_ns > 0 {
            signed(core_ns)
                - signed(silicon_ns)
                - signed(serve_ns)
                - signed(models_ns)
                - conformal_self_ns
        } else {
            0
        };
        Sample {
            wall_ns,
            call_ns,
            silicon_ns,
            serve_ns,
            models_ns,
            conformal_self_ns,
            core_self_ns,
            chips: counter(snap, STREAM_CHIPS) + counter(snap, CHIPS_FABRICATED),
            searches,
            program_searches: counter(snap, VMIN_SEARCHES),
            serve_rows: counter(snap, SERVE_ROWS),
            serve_calls: counter(snap, SERVE_BATCHES),
            fits: counter(snap, GBT_FITS) + counter(snap, OBLIVIOUS_FITS),
            rounds: counter(snap, GBT_ROUNDS) + counter(snap, OBLIVIOUS_ROUNDS),
            tree_nodes: counter(snap, TREE_NODES),
            hist_subtracted: counter(snap, CHILD_SUBTRACTED),
            hist_accumulated: counter(snap, CHILD_ACCUMULATED),
            fitplan_builds: counter(snap, FITPLAN_BUILD),
            fitplan_reuses: counter(snap, FITPLAN_REUSE),
            calibrations: counter(snap, CQR_CALIBRATIONS),
            covered: counter(snap, EVAL_COVERED),
            scored: counter(snap, EVAL_POINTS),
            cells: counter(snap, REGION_CELLS),
            kind_conflicts: counter(snap, KIND_CONFLICTS),
        }
    }

    /// Adds `other` into this sample.
    pub fn add(&mut self, o: &Sample) {
        self.wall_ns += o.wall_ns;
        self.call_ns += o.call_ns;
        self.silicon_ns += o.silicon_ns;
        self.serve_ns += o.serve_ns;
        self.models_ns += o.models_ns;
        self.conformal_self_ns += o.conformal_self_ns;
        self.core_self_ns += o.core_self_ns;
        self.chips += o.chips;
        self.searches += o.searches;
        self.program_searches += o.program_searches;
        self.serve_rows += o.serve_rows;
        self.serve_calls += o.serve_calls;
        self.fits += o.fits;
        self.rounds += o.rounds;
        self.tree_nodes += o.tree_nodes;
        self.hist_subtracted += o.hist_subtracted;
        self.hist_accumulated += o.hist_accumulated;
        self.fitplan_builds += o.fitplan_builds;
        self.fitplan_reuses += o.fitplan_reuses;
        self.calibrations += o.calibrations;
        self.covered += o.covered;
        self.scored += o.scored;
        self.cells += o.cells;
        self.kind_conflicts += o.kind_conflicts;
    }

    /// Time attributed to the program's layers.
    pub fn layer_ns(&self) -> f64 {
        (self.silicon_ns + self.serve_ns + self.models_ns) as f64
            + self.conformal_self_ns as f64
            + self.core_self_ns as f64
    }

    /// Share of the wall time inside public calls that no program span
    /// covers.
    pub fn unattributed_share(&self) -> f64 {
        ratio(self.call_ns as f64 - self.layer_ns(), self.wall_ns as f64)
    }

    /// Records dropped because a metric name was recorded as two kinds.
    pub fn kind_conflicts(&self) -> u64 {
        self.kind_conflicts
    }

    /// Vmin searches the program itself counted, against the benchmark's
    /// count — the two differ where the streaming engine generates chips.
    pub fn searches_counted(&self) -> (u64, u64) {
        (self.program_searches, self.searches)
    }

    /// The per-layer metrics of this sample, names prefixed by `prefix`.
    /// Layers that did no work report zero.
    pub fn metrics(&self, prefix: &str) -> Vec<(String, f64, &'static str)> {
        let wall = self.wall_ns as f64;
        let secs = |ns: f64| ns / 1e9;
        let us_per = |ns: f64, n: u64| ratio(ns / 1e3, n as f64);
        let silicon = self.silicon_ns as f64;
        let serve = self.serve_ns as f64;
        let models = self.models_ns as f64;
        let conformal = self.conformal_self_ns as f64;
        let core = self.core_self_ns as f64;
        let m: Vec<(&str, f64, &'static str)> = vec![
            ("silicon.busy_s", secs(silicon), "s"),
            ("silicon.share", ratio(silicon, wall), "fraction"),
            ("silicon.chips", self.chips as f64, "count"),
            ("silicon.searches", self.searches as f64, "count"),
            ("silicon.us_per_chip", us_per(silicon, self.chips), "us"),
            (
                "silicon.us_per_search",
                us_per(silicon, self.searches),
                "us",
            ),
            ("serve.busy_s", secs(serve), "s"),
            ("serve.share", ratio(serve, wall), "fraction"),
            ("serve.rows", self.serve_rows as f64, "count"),
            ("serve.calls", self.serve_calls as f64, "count"),
            ("serve.us_per_row", us_per(serve, self.serve_rows), "us"),
            ("models.busy_s", secs(models), "s"),
            ("models.share", ratio(models, wall), "fraction"),
            ("models.fits", self.fits as f64, "count"),
            ("models.rounds", self.rounds as f64, "count"),
            ("models.tree_nodes", self.tree_nodes as f64, "count"),
            ("models.us_per_round", us_per(models, self.rounds), "us"),
            (
                "models.hist_subtracted_share",
                ratio(
                    self.hist_subtracted as f64,
                    (self.hist_subtracted + self.hist_accumulated) as f64,
                ),
                "fraction",
            ),
            (
                "models.fitplan_reuse_share",
                ratio(
                    self.fitplan_reuses as f64,
                    (self.fitplan_builds + self.fitplan_reuses) as f64,
                ),
                "fraction",
            ),
            ("conformal.self_s", secs(conformal), "s"),
            ("conformal.share", ratio(conformal, wall), "fraction"),
            ("conformal.calibrations", self.calibrations as f64, "count"),
            (
                "conformal.coverage",
                ratio(self.covered as f64, self.scored as f64),
                "fraction",
            ),
            ("core.self_s", secs(core), "s"),
            ("core.share", ratio(core, wall), "fraction"),
            ("core.cells", self.cells as f64, "count"),
            ("trace.kind_conflicts", self.kind_conflicts as f64, "count"),
            (
                "bench.unattributed_share",
                self.unattributed_share(),
                "fraction",
            ),
        ];
        m.into_iter()
            .map(|(name, value, unit)| (format!("{prefix}{name}"), value, unit))
            .collect()
    }

    /// A human-readable stage table: each layer's time and share.
    pub fn stage_table(&self) -> String {
        let wall = self.wall_ns as f64;
        let own = wall - self.call_ns as f64;
        let rows = [
            ("silicon", self.silicon_ns as f64),
            ("serve", self.serve_ns as f64),
            ("models", self.models_ns as f64),
            ("conformal (self)", self.conformal_self_ns as f64),
            ("core (self)", self.core_self_ns as f64),
            ("benchmark (own)", own),
            ("unattributed", self.call_ns as f64 - self.layer_ns()),
        ];
        let mut out = format!("{:<18} {:>12} {:>8}\n", "layer", "seconds", "share");
        for (name, ns) in rows {
            out.push_str(&format!(
                "{name:<18} {:>12.6} {:>7.2}%\n",
                ns / 1e9,
                100.0 * ratio(ns, wall)
            ));
        }
        out.push_str(&format!(
            "{:<18} {:>12.6} {:>7.2}%\n",
            "total",
            wall / 1e9,
            100.0
        ));
        out
    }
}

/// `num / den`, or 0 when the denominator is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmin_trace::TimerState;

    fn timer(ns: u64) -> TimerState {
        TimerState {
            count: 1,
            total_ns: ns,
        }
    }

    /// A table3-shaped phase: a region cell enclosing a CQR fit that
    /// encloses the model fits.
    fn region_cell_snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.timers.insert(names::REGION_CELL.into(), timer(1000));
        snap.timers
            .insert(names::CQR_FIT_CALIBRATE.into(), timer(900));
        snap.timers.insert(names::GBT_FIT.into(), timer(600));
        snap.timers.insert(names::OBLIVIOUS_FIT.into(), timer(200));
        snap.counters.insert(names::CHILD_SUBTRACTED.into(), 3);
        snap.counters.insert(names::CHILD_ACCUMULATED.into(), 1);
        snap.counters.insert(names::FITPLAN_BUILD.into(), 1);
        snap.counters.insert(names::FITPLAN_REUSE.into(), 3);
        snap.counters.insert(names::EVAL_COVERED.into(), 9);
        snap.counters.insert(names::EVAL_POINTS.into(), 10);
        snap
    }

    fn metric(m: &[(String, f64, &str)], name: &str) -> f64 {
        m.iter().find(|(n, _, _)| n == name).map(|x| x.1).unwrap()
    }

    #[test]
    fn self_times_nest_and_account_for_the_call() {
        let s = Sample::from_phase(&region_cell_snapshot(), 0, 1100, 1000);
        assert_eq!(s.conformal_self_ns, 100);
        assert_eq!(s.core_self_ns, 100);
        assert_eq!(s.layer_ns(), 1000.0);
        assert_eq!(s.unattributed_share(), 0.0);
        let m = s.metrics("");
        assert_eq!(metric(&m, "models.hist_subtracted_share"), 0.75);
        assert_eq!(metric(&m, "models.fitplan_reuse_share"), 0.75);
        assert_eq!(metric(&m, "conformal.coverage"), 0.9);
        assert_eq!(metric(&m, "core.share"), 100.0 / 1100.0);
    }

    #[test]
    fn uncovered_call_time_is_unattributed() {
        let mut snap = Snapshot::default();
        snap.timers.insert(names::SERVE_BATCH.into(), timer(900));
        let s = Sample::from_phase(&snap, 0, 1000, 950);
        assert_eq!(s.core_self_ns, 0);
        assert!((s.unattributed_share() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn sums_and_setup_prefix() {
        let mut total = Sample::default();
        let one = Sample::from_phase(&region_cell_snapshot(), 5, 1100, 1000);
        total.add(&one);
        total.add(&one);
        assert_eq!(total.layer_ns(), 2000.0);
        let m = total.metrics("setup.");
        assert_eq!(metric(&m, "setup.silicon.searches"), 10.0);
        // Empty layers report zero rather than dividing by zero.
        assert_eq!(metric(&m, "setup.serve.us_per_row"), 0.0);
        assert!(total.stage_table().contains("unattributed"));
    }
}
