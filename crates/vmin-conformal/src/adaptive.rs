//! Streaming in-field recalibration: an *online* conformal layer for chips
//! that keep reporting monitor readings after they ship.
//!
//! The batch machinery ([`crate::Cqr`], [`crate::GuardedCqr`]) calibrates
//! once and assumes exchangeability forever after. In the field that
//! assumption decays: aging shifts the score distribution between
//! recalibrations, and a frozen `q̂` silently loses its 1−α promise. This
//! module defends the guarantee online:
//!
//! - a **bounded rolling calibration window** of nonconformity scores with
//!   deterministic online quantile tracking (sorted multiset maintained by
//!   binary insertion/eviction — no re-sort per observation, no wall clock,
//!   no hashing);
//! - **adaptive conformal inference** (ACI, Gibbs & Candès style): the
//!   effective miscoverage `α_t` is steered by coverage-error feedback
//!   `α_{t+1} = clamp(α_t + γ(α − err_t))`, so intervals widen while drift
//!   produces misses and tighten back once it subsides;
//! - a **drift detector**: a windowed score-shift statistic (standardized
//!   mean shift and log-dispersion shift of the most recent scores against
//!   the calibration baseline, both in σ units) that escalates a typed
//!   degradation ladder `Nominal → Widened → Recalibrating → Rejecting`;
//! - the **terminal safety valve**: completing a recalibration replays
//!   [`crate::GuardedCqr`]'s widen-or-reject audit over the rebuilt window,
//!   so a stream whose post-drift scores cannot re-certify α ends in a loud
//!   `Rejecting` state instead of a silently miscalibrated one.
//!
//! Everything is bit-deterministic: the stream is consumed in caller order,
//! all statistics are sequential folds, and the only state is the window
//! itself. The frozen static CQR calibration the layer starts from stays
//! readable ([`AdaptiveCalibrator::frozen_qhat`]), so callers can tally it
//! next to the adaptive one (`run_stream` reports both).

use std::collections::VecDeque;
use std::fmt;

use crate::guard::{audit_widen_or_reject, AuditDecision, GuardConfig};
use crate::interval::{check_alpha, CalibrationError, ConformalError, PredictionInterval, Result};
use crate::quantile::{conformal_quantile, min_calibration_size};

// ---------------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------------

/// The typed degradation ladder of the streaming calibrator, ordered by
/// severity (`Nominal < Widened < Recalibrating < Rejecting` under `Ord`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LadderState {
    /// Coverage healthy; intervals use the ACI-steered `α_t` quantile.
    Nominal,
    /// Drift detected but mild: intervals pinned to the most conservative
    /// quantile (`α_floor`) until the stream calms down or escalates.
    Widened,
    /// The score distribution shifted hard enough that pre-drift scores are
    /// evidence about the wrong distribution: the window was flushed to the
    /// post-drift tail and is refilling. Intervals are whole-line (the
    /// small-window guarantee) until the rebuilt window passes the audit.
    Recalibrating,
    /// Terminal: the rebuilt window failed the widen-or-reject audit or the
    /// drift statistic exceeded the reject threshold. No further intervals
    /// are certified; the fleet needs a physical re-test.
    Rejecting,
}

impl LadderState {
    /// Stable snake_case name (used in logs, traces and reports).
    pub fn name(&self) -> &'static str {
        match self {
            LadderState::Nominal => "nominal",
            LadderState::Widened => "widened",
            LadderState::Recalibrating => "recalibrating",
            LadderState::Rejecting => "rejecting",
        }
    }
}

impl fmt::Display for LadderState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One ladder transition, for the audit trail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderTransition {
    /// 1-based observation count at which the transition fired.
    pub observation: u64,
    /// State before.
    pub from: LadderState,
    /// State after.
    pub to: LadderState,
    /// The drift statistic (σ units) at the moment of transition.
    pub drift_score: f64,
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration of the adaptive conformal layer.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Target miscoverage α of the stream.
    pub alpha: f64,
    /// Hard bound on the rolling calibration window (FIFO eviction).
    pub window_capacity: usize,
    /// Scores required before a rebuilt window may attempt the
    /// recalibration audit (also the effective floor for finite intervals).
    pub min_window: usize,
    /// ACI learning rate γ of the coverage-error feedback.
    pub gamma: f64,
    /// Lower clamp for `α_t` — also the conservative quantile the
    /// [`LadderState::Widened`] state pins intervals to.
    pub alpha_floor: f64,
    /// Upper clamp for `α_t` (keeps calm streams from tightening forever).
    pub alpha_ceil: f64,
    /// How many of the most recent scores feed the drift statistic.
    pub drift_window: usize,
    /// Drift statistic (σ) at which the ladder enters `Widened`.
    pub widen_sds: f64,
    /// Drift statistic (σ) at which the window is flushed and the ladder
    /// enters `Recalibrating`.
    pub recalibrate_sds: f64,
    /// Drift statistic (σ) at which the ladder jumps straight to the
    /// terminal `Rejecting` state.
    pub reject_sds: f64,
    /// Consecutive calm observations (drift below `widen_sds`) required to
    /// de-escalate `Widened → Nominal`.
    pub calm_observations: usize,
    /// The widen-or-reject audit contract applied when a rebuilt window
    /// finishes recalibrating — shared with [`crate::GuardedCqr`].
    pub guard: GuardConfig,
}

impl AdaptiveConfig {
    /// Defaults tuned for fleet streams of a few hundred observations per
    /// read point at miscoverage `alpha`. The window holds 128 scores, or
    /// `min_window` where that is larger (every `alpha < 0.016`): at a
    /// capacity of twice `min_calibration_size(alpha)` the round-robin
    /// audit (stride ≥ 2) still leaves a certifiable proper slice.
    pub fn for_alpha(alpha: f64) -> Self {
        let min_window = min_calibration_size(alpha).saturating_mul(2).max(12);
        AdaptiveConfig {
            alpha,
            window_capacity: 128.max(min_window),
            min_window,
            gamma: 0.05,
            alpha_floor: (alpha / 4.0).max(1e-3),
            alpha_ceil: (2.0 * alpha).min(0.45),
            drift_window: 16,
            widen_sds: 4.0,
            recalibrate_sds: 8.0,
            reject_sds: 25.0,
            calm_observations: 12,
            guard: GuardConfig {
                // The rolling window is far smaller than a batch calibration
                // set; a batch-sized audit quorum would make recalibration
                // unreachable.
                min_audit: 4,
                ..GuardConfig::default()
            },
        }
    }

    fn validate(&self) -> Result<()> {
        check_alpha(self.alpha)?;
        let bad = |msg: String| Err(ConformalError::InvalidArgument(msg));
        if !(self.alpha_floor > 0.0 && self.alpha_floor <= self.alpha) {
            return bad(format!(
                "alpha_floor {} must be in (0, alpha = {}]",
                self.alpha_floor, self.alpha
            ));
        }
        if !(self.alpha_ceil >= self.alpha && self.alpha_ceil < 1.0) {
            return bad(format!(
                "alpha_ceil {} must be in [alpha = {}, 1)",
                self.alpha_ceil, self.alpha
            ));
        }
        if self.min_window == 0 || self.window_capacity < self.min_window {
            return bad(format!(
                "window_capacity {} must be at least min_window {} ≥ 1",
                self.window_capacity, self.min_window
            ));
        }
        if !(self.gamma.is_finite() && self.gamma >= 0.0) {
            return bad(format!("gamma must be finite and ≥ 0, got {}", self.gamma));
        }
        if self.drift_window < 2 || self.drift_window > self.window_capacity {
            return bad(format!(
                "drift_window {} must be in 2..=window_capacity {}",
                self.drift_window, self.window_capacity
            ));
        }
        if !(self.widen_sds >= 0.0
            && self.recalibrate_sds >= self.widen_sds
            && self.reject_sds >= self.recalibrate_sds)
        {
            return bad(format!(
                "thresholds must satisfy 0 ≤ widen ({}) ≤ recalibrate ({}) ≤ reject ({})",
                self.widen_sds, self.recalibrate_sds, self.reject_sds
            ));
        }
        if self.calm_observations == 0 {
            return bad("calm_observations must be at least 1".into());
        }
        self.guard.validate()?;
        // The audit must be reachable: at full capacity the round-robin
        // split has to yield both a certifiable proper slice and an audit
        // quorum, otherwise Recalibrating could never complete.
        let stride = self.guard.audit_stride();
        let audit_at_cap = self.window_capacity.div_ceil(stride);
        let proper_at_cap = self.window_capacity - audit_at_cap;
        if audit_at_cap < self.guard.min_audit || proper_at_cap < min_calibration_size(self.alpha) {
            return bad(format!(
                "window_capacity {} cannot satisfy the audit at alpha {}: \
                 audit {audit_at_cap} (need ≥ {}), proper {proper_at_cap} (need ≥ {})",
                self.window_capacity,
                self.alpha,
                self.guard.min_audit,
                min_calibration_size(self.alpha)
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Observation record
// ---------------------------------------------------------------------------

/// What one streamed observation produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamObservation {
    /// The certified interval — `None` in the terminal `Rejecting` state.
    pub interval: Option<PredictionInterval>,
    /// Whether the target fell inside the issued interval (`None` when no
    /// interval was issued).
    pub covered: Option<bool>,
    /// The nonconformity score of this observation.
    pub score: f64,
    /// The correction `q̂` the interval used (NaN when rejected; +∞ while a
    /// flushed window is refilling — the whole-line interval).
    pub qhat: f64,
    /// The ACI miscoverage `α_t` after this observation's feedback.
    pub alpha: f64,
    /// Ladder state after this observation.
    pub state: LadderState,
    /// The drift statistic after this observation (σ units).
    pub drift_score: f64,
    /// The transition this observation fired, if any.
    pub transition: Option<(LadderState, LadderState)>,
}

// ---------------------------------------------------------------------------
// The calibrator
// ---------------------------------------------------------------------------

/// The streaming adaptive conformal calibrator.
///
/// Model-agnostic by design: the caller predicts a raw quantile band per
/// chip (e.g. [`crate::Cqr::predict_raw_band`]) and feeds `(band, y)` pairs
/// in a fixed order; the calibrator owns only scores. That keeps the layer
/// reusable over any regressor pair and makes determinism trivial — the
/// state is a pure fold over the observation sequence.
///
/// # Examples
///
/// ```
/// use vmin_conformal::{AdaptiveCalibrator, AdaptiveConfig, LadderState,
///                      PredictionInterval};
///
/// // Initial calibration window: scores from a held-out batch split.
/// let initial: Vec<f64> = (0..40).map(|i| (i as f64 * 0.37).sin()).collect();
/// let mut cal = AdaptiveCalibrator::new(&initial, AdaptiveConfig::for_alpha(0.2))?;
/// // Stream: one (raw band, observed Vmin) pair per chip telemetry packet.
/// // The packet's score (−0.5 here) is exchangeable with the window above.
/// let obs = cal.observe(PredictionInterval::new(545.0, 551.0), 550.5)?;
/// assert_eq!(obs.state, LadderState::Nominal);
/// assert!(obs.interval.is_some());
/// # Ok::<(), vmin_conformal::ConformalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveCalibrator {
    cfg: AdaptiveConfig,
    /// FIFO of scores, oldest first.
    window: VecDeque<f64>,
    /// The same multiset, ascending by `total_cmp` — the online quantile
    /// tracker. Insert/evict are O(window) binary-search + shift, never a
    /// full re-sort.
    sorted: Vec<f64>,
    alpha_t: f64,
    state: LadderState,
    worst_state: LadderState,
    /// Reference score distribution the drift statistic compares against —
    /// frozen at construction, refreshed on successful recalibration.
    baseline_mean: f64,
    baseline_sd: f64,
    calm_streak: usize,
    /// `q̂` of the initial window at the target α — the static CQR
    /// calibration the layer started from.
    frozen_qhat: f64,
    observations: u64,
    evictions: u64,
    recalibrations: u64,
    transitions: Vec<LadderTransition>,
}

/// Mean and sample standard deviation of a score slice; the sd is floored
/// away from zero so a degenerate (constant) baseline cannot turn the drift
/// z-score into ±∞.
fn mean_sd(scores: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let n = scores.clone().count().max(1) as f64;
    let mean = scores.clone().sum::<f64>() / n;
    let var = scores.map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1.0).max(1.0);
    let floor = 1e-9 * mean.abs().max(1.0);
    (mean, var.sqrt().max(floor))
}

impl AdaptiveCalibrator {
    /// Builds the calibrator from an initial batch of calibration scores
    /// (e.g. [`crate::Cqr::scores`] over the held-out calibration split).
    /// Only the most recent `window_capacity` scores are retained.
    ///
    /// # Errors
    ///
    /// - [`ConformalError::Calibration`] for an empty initial window or one
    ///   containing any non-finite score — the typed degenerate path.
    /// - [`ConformalError::InvalidArgument`] for an inconsistent config.
    pub fn new(initial_scores: &[f64], cfg: AdaptiveConfig) -> Result<Self> {
        cfg.validate()?;
        if initial_scores.is_empty() {
            return Err(ConformalError::Calibration(CalibrationError::EmptyWindow));
        }
        let non_finite = initial_scores.iter().filter(|s| !s.is_finite()).count();
        if non_finite > 0 {
            // Stricter than the batch quantile: the rolling window feeds
            // mean/sd drift statistics, so even an isolated ∞ would poison
            // every subsequent drift decision.
            return Err(ConformalError::Calibration(
                CalibrationError::NonFiniteScores {
                    non_finite,
                    total: initial_scores.len(),
                },
            ));
        }
        let frozen_qhat = conformal_quantile(initial_scores, cfg.alpha)?;
        let start = initial_scores.len().saturating_sub(cfg.window_capacity);
        let window: VecDeque<f64> = initial_scores[start..].iter().copied().collect();
        let mut sorted: Vec<f64> = window.iter().copied().collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let (baseline_mean, baseline_sd) = mean_sd(window.iter().copied());
        let alpha_t = cfg.alpha;
        vmin_trace::counter_add("conformal.adaptive.calibrators", 1);
        Ok(AdaptiveCalibrator {
            cfg,
            window,
            sorted,
            alpha_t,
            state: LadderState::Nominal,
            worst_state: LadderState::Nominal,
            baseline_mean,
            baseline_sd,
            calm_streak: 0,
            frozen_qhat,
            observations: 0,
            evictions: 0,
            recalibrations: 0,
            transitions: Vec::new(),
        })
    }

    /// Consumes one streamed observation: issues the interval the current
    /// window certifies for `band`, records the coverage outcome, applies
    /// the ACI feedback, pushes the score into the rolling window and steps
    /// the degradation ladder.
    ///
    /// In the terminal [`LadderState::Rejecting`] state no interval is
    /// issued (`interval: None`) but the stream keeps being consumed, so a
    /// fleet driver can account for every chip.
    ///
    /// # Errors
    ///
    /// [`ConformalError::Calibration`] when `y` or the band is non-finite —
    /// a malformed telemetry packet, typed instead of poisoning the window.
    pub fn observe(&mut self, band: PredictionInterval, y: f64) -> Result<StreamObservation> {
        if !y.is_finite() || !band.lo().is_finite() || !band.hi().is_finite() {
            return Err(ConformalError::Calibration(
                CalibrationError::NonFiniteScores {
                    non_finite: 1,
                    total: 1,
                },
            ));
        }
        let score = (band.lo() - y).max(y - band.hi());
        self.observations += 1;
        vmin_trace::counter_add("conformal.adaptive.observations", 1);

        if self.state == LadderState::Rejecting {
            vmin_trace::counter_add("conformal.adaptive.rejected_observations", 1);
            return Ok(StreamObservation {
                interval: None,
                covered: None,
                score,
                qhat: f64::NAN,
                alpha: self.alpha_t,
                state: LadderState::Rejecting,
                drift_score: self.drift_score(),
                transition: None,
            });
        }

        let qhat = self.current_qhat();
        let covered = score <= qhat;
        self.count_coverage(covered);
        if qhat.is_finite() {
            vmin_trace::gauge_max("conformal.adaptive.qhat.max", qhat);
        }

        // ACI feedback — suspended while a flushed window refills, because
        // the whole-line intervals of that phase would feed the controller
        // a stream of vacuous "covered" signals.
        if self.state != LadderState::Recalibrating {
            let err = if covered { 0.0 } else { 1.0 };
            self.alpha_t = (self.alpha_t + self.cfg.gamma * (self.cfg.alpha - err))
                .clamp(self.cfg.alpha_floor, self.cfg.alpha_ceil);
        }

        self.push_score(score);
        let drift = self.drift_score();
        vmin_trace::gauge_max("conformal.adaptive.drift.max", drift);
        let transition = self.step_ladder(drift);

        Ok(StreamObservation {
            interval: Some(PredictionInterval::new(band.lo() - qhat, band.hi() + qhat)),
            covered: Some(covered),
            score,
            qhat,
            alpha: self.alpha_t,
            state: self.state,
            drift_score: drift,
            transition,
        })
    }

    fn count_coverage(&self, covered: bool) {
        if covered {
            vmin_trace::counter_add("conformal.adaptive.covered", 1);
        } else {
            vmin_trace::counter_add("conformal.adaptive.misses", 1);
        }
    }

    /// The correction the *next* interval will use: the tracked window
    /// quantile at the effective miscoverage of the current ladder state.
    pub fn current_qhat(&self) -> f64 {
        let alpha_eff = match self.state {
            LadderState::Widened => self.cfg.alpha_floor,
            _ => self.alpha_t,
        };
        self.quantile_at(alpha_eff)
    }

    /// The tracked-window conformal quantile at miscoverage `alpha` — the
    /// same `⌈(M+1)(1−α)⌉` rank as [`conformal_quantile`], read from the
    /// maintained sorted multiset instead of re-sorting.
    fn quantile_at(&self, alpha: f64) -> f64 {
        let m = self.sorted.len();
        let rank = ((m as f64 + 1.0) * (1.0 - alpha)).ceil() as usize;
        if rank > m {
            f64::INFINITY
        } else {
            self.sorted[rank - 1]
        }
    }

    fn push_score(&mut self, s: f64) {
        if self.window.len() == self.cfg.window_capacity {
            if let Some(old) = self.window.pop_front() {
                let pos = self
                    .sorted
                    .partition_point(|v| v.total_cmp(&old) == std::cmp::Ordering::Less);
                // invariant: `old` came out of `window`, so its exact bit
                // pattern is present in `sorted` at `pos`.
                self.sorted.remove(pos);
                self.evictions += 1;
                vmin_trace::counter_add("conformal.adaptive.evictions", 1);
            }
        }
        self.window.push_back(s);
        let pos = self
            .sorted
            .partition_point(|v| v.total_cmp(&s) == std::cmp::Ordering::Less);
        self.sorted.insert(pos, s);
        vmin_trace::counter_add("conformal.adaptive.quantile_updates", 1);
    }

    /// The windowed score-shift statistic, in σ units: the larger of the
    /// standardized mean shift of the `drift_window` most recent scores
    /// against the baseline (`z = (m̄ − μ₀)/(σ₀/√k)`) and the normalized
    /// log-dispersion shift (`|ln(s/σ₀)|·√(2(k−1))`, the asymptotic σ of a
    /// log sample-sd). Zero until the window holds `drift_window` scores.
    pub fn drift_score(&self) -> f64 {
        let k = self.cfg.drift_window;
        if self.window.len() < k {
            return 0.0;
        }
        let recent = self.window.iter().skip(self.window.len() - k).copied();
        let (mean, sd) = mean_sd(recent);
        let z = ((mean - self.baseline_mean) / (self.baseline_sd / (k as f64).sqrt())).abs();
        let disp = (sd / self.baseline_sd).ln().abs() * (2.0 * (k as f64 - 1.0)).sqrt();
        z.max(disp)
    }

    fn step_ladder(&mut self, drift: f64) -> Option<(LadderState, LadderState)> {
        match self.state {
            LadderState::Nominal | LadderState::Widened => {
                if drift >= self.cfg.reject_sds {
                    self.transition_to(LadderState::Rejecting, drift)
                } else if drift >= self.cfg.recalibrate_sds {
                    self.begin_recalibration(drift)
                } else if drift >= self.cfg.widen_sds {
                    self.calm_streak = 0;
                    if self.state == LadderState::Nominal {
                        self.transition_to(LadderState::Widened, drift)
                    } else {
                        None
                    }
                } else if self.state == LadderState::Widened {
                    self.calm_streak += 1;
                    if self.calm_streak >= self.cfg.calm_observations {
                        self.calm_streak = 0;
                        self.transition_to(LadderState::Nominal, drift)
                    } else {
                        None
                    }
                } else {
                    None
                }
            }
            LadderState::Recalibrating => self.try_finish_recalibration(drift),
            LadderState::Rejecting => None,
        }
    }

    /// Flush the window down to the `drift_window` most recent scores — the
    /// post-drift evidence — and start refilling.
    fn begin_recalibration(&mut self, drift: f64) -> Option<(LadderState, LadderState)> {
        let keep = self.cfg.drift_window.min(self.window.len());
        let flushed = self.window.len() - keep;
        for _ in 0..flushed {
            if let Some(old) = self.window.pop_front() {
                let pos = self
                    .sorted
                    .partition_point(|v| v.total_cmp(&old) == std::cmp::Ordering::Less);
                self.sorted.remove(pos);
            }
        }
        self.evictions += flushed as u64;
        vmin_trace::counter_add("conformal.adaptive.evictions", flushed as u64);
        vmin_trace::counter_add("conformal.adaptive.window_flushes", 1);
        self.calm_streak = 0;
        self.transition_to(LadderState::Recalibrating, drift)
    }

    /// Once the rebuilt window can field both a certifiable proper slice
    /// and an audit quorum, replay the guarded widen-or-reject audit over
    /// it: pass → `Nominal` with a refreshed baseline, widen → `Widened`,
    /// reject → terminal `Rejecting`.
    fn try_finish_recalibration(&mut self, drift: f64) -> Option<(LadderState, LadderState)> {
        let stride = self.cfg.guard.audit_stride();
        let mut audit = Vec::new();
        let mut proper = Vec::new();
        for (i, &s) in self.window.iter().enumerate() {
            if i % stride == 0 {
                audit.push(s);
            } else {
                proper.push(s);
            }
        }
        if self.window.len() < self.cfg.min_window
            || audit.len() < self.cfg.guard.min_audit
            || proper.len() < min_calibration_size(self.cfg.alpha)
        {
            return None; // keep refilling
        }
        self.recalibrations += 1;
        vmin_trace::counter_add("conformal.adaptive.recalibrations", 1);
        let decision = conformal_quantile(&proper, self.cfg.alpha).and_then(|qhat_proper| {
            audit_widen_or_reject(qhat_proper, &audit, self.cfg.alpha, &self.cfg.guard)
        });
        // The stream is now judged against its post-drift distribution:
        // reset the feedback and the drift reference to the rebuilt window.
        self.alpha_t = self.cfg.alpha;
        let (mean, sd) = mean_sd(self.window.iter().copied());
        self.baseline_mean = mean;
        self.baseline_sd = sd;
        self.calm_streak = 0;
        match decision {
            Ok(AuditDecision::Pass { .. }) => self.transition_to(LadderState::Nominal, drift),
            Ok(AuditDecision::Widen { .. }) => self.transition_to(LadderState::Widened, drift),
            Err(_) => self.transition_to(LadderState::Rejecting, drift),
        }
    }

    fn transition_to(&mut self, to: LadderState, drift: f64) -> Option<(LadderState, LadderState)> {
        let from = self.state;
        if from == to {
            return None;
        }
        self.state = to;
        self.worst_state = self.worst_state.max(to);
        self.transitions.push(LadderTransition {
            observation: self.observations,
            from,
            to,
            drift_score: drift,
        });
        vmin_trace::counter_add("conformal.adaptive.transitions", 1);
        // One call per arm so every metric name stays a registerable
        // literal (the contract-metric lint rejects computed names).
        match to {
            LadderState::Nominal => vmin_trace::counter_add("conformal.adaptive.enter.nominal", 1),
            LadderState::Widened => vmin_trace::counter_add("conformal.adaptive.enter.widened", 1),
            LadderState::Recalibrating => {
                vmin_trace::counter_add("conformal.adaptive.enter.recalibrating", 1)
            }
            LadderState::Rejecting => {
                vmin_trace::counter_add("conformal.adaptive.enter.rejecting", 1)
            }
        }
        Some((from, to))
    }

    /// Current ladder state.
    pub fn state(&self) -> LadderState {
        self.state
    }

    /// The most severe state the stream has reached.
    pub fn worst_state(&self) -> LadderState {
        self.worst_state
    }

    /// The ACI miscoverage `α_t` currently in force.
    pub fn alpha(&self) -> f64 {
        self.alpha_t
    }

    /// The frozen static-CQR correction: `q̂` of the initial window at the
    /// target α, which a non-adaptive calibration would keep forever.
    pub fn frozen_qhat(&self) -> f64 {
        self.frozen_qhat
    }

    /// Number of scores currently in the rolling window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Observations consumed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// FIFO evictions (capacity and recalibration flushes).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Completed recalibration audits (pass, widen or reject).
    pub fn recalibrations(&self) -> u64 {
        self.recalibrations
    }

    /// Every ladder transition, in stream order.
    pub fn transitions(&self) -> &[LadderTransition] {
        &self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn band(lo: f64, hi: f64) -> PredictionInterval {
        PredictionInterval::new(lo, hi)
    }

    /// A deterministic pseudo-noise sequence in (-1, 1) without any RNG
    /// dependency: the fractional part of i·φ, folded to ±1.
    fn noise(i: usize) -> f64 {
        let x = (i as f64 * 0.618_033_988_749_895).fract();
        2.0 * x - 1.0
    }

    /// Initial calibration scores drawn from the *same* law as the calm
    /// stream below (`y = 550 + 0.9·noise`, band `[549, 551]`), so the
    /// drift baseline matches the stream it will judge — exactly the
    /// exchangeability a real batch split provides.
    fn initial_scores(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.9 * noise(i).abs() - 1.0).collect()
    }

    fn cfg() -> AdaptiveConfig {
        AdaptiveConfig::for_alpha(0.2)
    }

    #[test]
    fn construction_requires_usable_window() {
        assert_eq!(
            AdaptiveCalibrator::new(&[], cfg()).unwrap_err(),
            ConformalError::Calibration(CalibrationError::EmptyWindow)
        );
        let mut scores = initial_scores(20);
        scores[3] = f64::INFINITY;
        match AdaptiveCalibrator::new(&scores, cfg()).unwrap_err() {
            ConformalError::Calibration(CalibrationError::NonFiniteScores {
                non_finite,
                total,
            }) => {
                assert_eq!((non_finite, total), (1, 20));
            }
            other => panic!("expected NonFiniteScores, got {other:?}"),
        }
    }

    #[test]
    fn config_validation_rejects_inconsistencies() {
        let scores = initial_scores(30);
        for bad in [
            AdaptiveConfig {
                alpha: 0.0,
                ..cfg()
            },
            AdaptiveConfig {
                alpha_floor: 0.5,
                ..cfg()
            },
            AdaptiveConfig {
                alpha_ceil: 0.1,
                ..cfg()
            },
            AdaptiveConfig {
                drift_window: 1,
                ..cfg()
            },
            AdaptiveConfig {
                widen_sds: 9.0,
                ..cfg()
            },
            AdaptiveConfig {
                window_capacity: 6,
                min_window: 6,
                ..cfg()
            },
            AdaptiveConfig {
                calm_observations: 0,
                ..cfg()
            },
        ] {
            assert!(
                AdaptiveCalibrator::new(&scores, bad.clone()).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn levels_outside_the_unit_interval_are_typed_errors_not_hangs() {
        // `for_alpha` sizes its windows from `min_calibration_size`, which
        // once looped forever at α ≤ 0.
        for alpha in [0.0, -0.1, f64::NAN, 1.0] {
            match AdaptiveCalibrator::new(&initial_scores(30), AdaptiveConfig::for_alpha(alpha)) {
                Err(ConformalError::InvalidArgument(_)) => {}
                other => panic!("alpha {alpha}: expected InvalidArgument, got {other:?}"),
            }
        }
    }

    #[test]
    fn default_configs_are_accepted_at_every_level() {
        // A fixed 128-score window once fell below `min_window` for every
        // α < 0.016 (132 at α = 0.015, 1,998 at α = 0.001).
        let scores = initial_scores(30);
        for k in 0..=60 {
            let alpha = 1e-3 * (450.0f64).powf(f64::from(k) / 60.0);
            let cfg = AdaptiveConfig::for_alpha(alpha);
            if alpha >= 0.016 {
                assert_eq!(cfg.window_capacity, 128, "alpha {alpha}");
            }
            if let Err(e) = AdaptiveCalibrator::new(&scores, cfg) {
                panic!("alpha {alpha}: {e}");
            }
        }
    }

    #[test]
    fn calm_stream_stays_nominal_and_covers() {
        let mut cal = AdaptiveCalibrator::new(&initial_scores(60), cfg()).unwrap();
        let mut covered = 0;
        let n = 300;
        for i in 0..n {
            let y = 550.0 + 0.9 * noise(i + 7);
            let obs = cal.observe(band(549.0, 551.0), y).unwrap();
            assert_eq!(obs.state, LadderState::Nominal, "obs {i}: {obs:?}");
            if obs.covered == Some(true) {
                covered += 1;
            }
        }
        assert_eq!(cal.worst_state(), LadderState::Nominal);
        assert!(
            covered as f64 / n as f64 >= 0.75,
            "calm coverage {covered}/{n}"
        );
        assert!(cal.evictions() > 0, "capacity eviction must have kicked in");
    }

    #[test]
    fn tracked_quantile_matches_batch_quantile() {
        let mut cal = AdaptiveCalibrator::new(&initial_scores(40), cfg()).unwrap();
        for i in 0..200 {
            let y = 550.0 + 1.5 * noise(i);
            cal.observe(band(549.5, 550.5), y).unwrap();
            let window: Vec<f64> = cal.window.iter().copied().collect();
            let batch = conformal_quantile(&window, cal.alpha()).unwrap();
            assert_eq!(
                cal.quantile_at(cal.alpha()).to_bits(),
                batch.to_bits(),
                "online tracker diverged from batch quantile at obs {i}"
            );
        }
    }

    #[test]
    fn sudden_huge_shift_escalates_to_rejecting() {
        let mut cal = AdaptiveCalibrator::new(&initial_scores(60), cfg()).unwrap();
        for i in 0..40 {
            cal.observe(band(549.0, 551.0), 550.0 + 0.9 * noise(i))
                .unwrap();
        }
        assert_eq!(cal.state(), LadderState::Nominal);
        // A 100σ jump in the score distribution: the detector must slam the
        // terminal valve within one drift window.
        let mut rejected_at = None;
        for i in 0..80 {
            let obs = cal.observe(band(549.0, 551.0), 620.0 + noise(i)).unwrap();
            if obs.state == LadderState::Rejecting {
                rejected_at = Some(i);
                break;
            }
        }
        let at = rejected_at.expect("massive shift must reach Rejecting");
        assert!(at <= 2 * cal.cfg.drift_window, "took {at} observations");
        // Terminal: no more intervals, but the stream keeps draining.
        let obs = cal.observe(band(549.0, 551.0), 620.0).unwrap();
        assert_eq!(obs.interval, None);
        assert_eq!(obs.covered, None);
        assert_eq!(cal.worst_state(), LadderState::Rejecting);
    }

    #[test]
    fn moderate_shift_recalibrates_and_recovers() {
        let mut config = cfg();
        config.reject_sds = 200.0; // park the terminal valve out of reach
        let mut cal = AdaptiveCalibrator::new(&initial_scores(60), config).unwrap();
        for i in 0..40 {
            cal.observe(band(549.0, 551.0), 550.0 + 0.9 * noise(i))
                .unwrap();
        }
        // A persistent ~8σ score shift: enough to force a window flush.
        let mut post_recal_covered = 0;
        let mut post_recal_total = 0;
        let mut recalibrated = false;
        for i in 0..400 {
            let obs = cal
                .observe(band(549.0, 551.0), 554.0 + 0.9 * noise(i))
                .unwrap();
            if recalibrated {
                post_recal_total += 1;
                if obs.covered == Some(true) {
                    post_recal_covered += 1;
                }
            }
            if obs.transition == Some((LadderState::Recalibrating, LadderState::Nominal))
                || obs.transition == Some((LadderState::Recalibrating, LadderState::Widened))
            {
                recalibrated = true;
            }
        }
        assert!(recalibrated, "shifted stream must complete a recalibration");
        assert!(cal.recalibrations() >= 1);
        assert_ne!(cal.state(), LadderState::Rejecting);
        assert!(
            post_recal_total > 100 && post_recal_covered as f64 / post_recal_total as f64 >= 0.7,
            "post-recalibration coverage {post_recal_covered}/{post_recal_total}"
        );
    }

    #[test]
    fn aci_widens_under_misses_and_tightens_back() {
        let mut config = cfg();
        // Isolate the ACI controller from the ladder.
        config.widen_sds = 1e6;
        config.recalibrate_sds = 1e6;
        config.reject_sds = 1e6;
        let mut cal = AdaptiveCalibrator::new(&initial_scores(60), config).unwrap();
        let a0 = cal.alpha();
        // A burst of misses: α_t must fall (wider rank → wider intervals).
        for i in 0..12 {
            cal.observe(band(549.0, 551.0), 570.0 + noise(i)).unwrap();
        }
        let a_miss = cal.alpha();
        assert!(a_miss < a0, "misses must lower α_t: {a_miss} vs {a0}");
        // Calm again: α_t must drift back up toward (and past) the target.
        for i in 0..400 {
            cal.observe(band(549.0, 551.0), 550.0 + 0.5 * noise(i))
                .unwrap();
        }
        assert!(
            cal.alpha() > a_miss,
            "calm stream must tighten back: {} vs {a_miss}",
            cal.alpha()
        );
    }

    #[test]
    fn layer_adapts_where_frozen_static_cqr_would_not() {
        // On a drifting stream the layer must actually adapt: the intervals
        // it returns must differ from the frozen static CQR calibration,
        // band ± frozen q̂.
        let stream: Vec<f64> = (0..120)
            .map(|i| 550.0 + 6.0 * noise(i) + if i > 60 { 8.0 } else { 0.0 })
            .collect();
        let mut cal = AdaptiveCalibrator::new(&initial_scores(60), cfg()).unwrap();
        let q = cal.frozen_qhat();
        let frozen = ((548.0 - q).to_bits(), (552.0 + q).to_bits());
        let mut adapted = 0;
        for &y in &stream {
            let obs = cal.observe(band(548.0, 552.0), y).unwrap();
            let bits = obs
                .interval
                .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()));
            if bits != Some(frozen) {
                adapted += 1;
            }
        }
        assert!(adapted > 0, "adaptive layer had no effect");
    }

    #[test]
    fn observe_rejects_malformed_packets() {
        let mut cal = AdaptiveCalibrator::new(&initial_scores(30), cfg()).unwrap();
        for bad_y in [f64::NAN, f64::INFINITY] {
            assert!(matches!(
                cal.observe(band(0.0, 1.0), bad_y).unwrap_err(),
                ConformalError::Calibration(CalibrationError::NonFiniteScores { .. })
            ));
        }
        assert!(cal.observe(band(f64::NAN, 1.0), 0.5).is_err());
        // The window must be untouched by rejected packets.
        assert_eq!(cal.window_len(), 30);
    }

    #[test]
    fn ladder_order_is_severity_order() {
        assert!(LadderState::Nominal < LadderState::Widened);
        assert!(LadderState::Widened < LadderState::Recalibrating);
        assert!(LadderState::Recalibrating < LadderState::Rejecting);
        assert_eq!(LadderState::Recalibrating.to_string(), "recalibrating");
    }

    #[test]
    fn transitions_are_recorded_in_order() {
        let mut cal = AdaptiveCalibrator::new(&initial_scores(60), cfg()).unwrap();
        for i in 0..200 {
            cal.observe(band(549.0, 551.0), 553.0 + 0.9 * noise(i))
                .unwrap();
        }
        let ts = cal.transitions();
        assert!(!ts.is_empty(), "a 3σ-ish shift must move the ladder");
        for w in ts.windows(2) {
            assert!(w[0].observation <= w[1].observation);
            assert_eq!(
                w[0].to, w[1].from,
                "transition chain must be contiguous: {ts:?}"
            );
        }
        assert_eq!(ts[0].from, LadderState::Nominal);
    }
}
