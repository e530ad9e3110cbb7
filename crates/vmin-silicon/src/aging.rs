//! Transistor aging under burn-in stress: NBTI and HCI threshold-voltage
//! degradation, workload-dependent per chip.
//!
//! The paper stresses chips with a dynamic Dhrystone workload at elevated
//! voltage in a burn-in oven for 1008 h, pausing at read points to test. We
//! model the induced ΔVth as the sum of:
//!
//! - **NBTI** (negative-bias temperature instability): power law in time with
//!   exponent ≈ 0.16, exponential voltage acceleration, Arrhenius temperature
//!   acceleration, and a small recovery fraction at each (unbiased) read.
//! - **HCI** (hot-carrier injection): power law with exponent ≈ 0.45 scaled
//!   by switching activity.
//!
//! Stress is **not** one shared schedule: each chip carries a
//! [`WorkloadProfile`] — its own duty cycle (fraction of time under bias),
//! switching activity and junction-temperature trajectory (self-heating
//! offset plus a workload-induced swing, integrated through the Arrhenius
//! law). Together with log-normal chip-to-chip rate variation and per-path
//! sensitivity spread, this makes degradation slopes heteroscedastic across
//! the population — the structure that motivates adaptive intervals.

use crate::config::{AgingSpec, StressSpec, WorkloadSpec};
use crate::sampling::{lognormal, normal, skip_normal, standard_normal};
use crate::units::{Celsius, Hours, Volt};
use vmin_rng::Rng;

/// Boltzmann constant in eV/K.
const K_B_EV: f64 = 8.617333262e-5;

/// Reference temperature (K) the NBTI amplitude is calibrated at.
const T_REF_K: f64 = 398.15; // 125 °C

/// Reference time (h) the NBTI/HCI amplitudes are calibrated at.
const T_REF_HOURS: f64 = 1000.0;

/// Phase points used to integrate the Arrhenius law over one period of the
/// workload's junction-temperature oscillation.
const TRAJECTORY_PHASES: usize = 8;

/// One chip's stress workload: how it actually exercises the silicon
/// during burn-in.
///
/// The nominal profile ([`WorkloadProfile::nominal`]) reproduces the shared
/// burn-in schedule exactly (full duty, schedule activity, oven
/// temperature); sampled profiles ([`WorkloadProfile::sample`]) spread the
/// population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Fraction of calendar time spent under stress bias (0, 1].
    pub duty_cycle: f64,
    /// This chip's switching-activity factor (drives HCI).
    pub activity: f64,
    /// Junction self-heating above the oven setpoint (°C).
    pub self_heating_c: f64,
    /// Amplitude of the workload-induced junction-temperature swing (°C).
    pub temp_swing_c: f64,
}

impl WorkloadProfile {
    /// The shared-schedule workload: always on, schedule activity, no
    /// self-heating and no temperature swing. An [`AgingModel`] built on
    /// this profile is bit-identical to one without workload awareness.
    pub fn nominal(stress: &StressSpec) -> Self {
        WorkloadProfile {
            duty_cycle: 1.0,
            activity: stress.activity,
            self_heating_c: 0.0,
            temp_swing_c: 0.0,
        }
    }

    /// Draws one chip's workload from the population spec.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, spec: &WorkloadSpec, stress: &StressSpec) -> Self {
        let duty_cycle = (spec.duty_cycle_mean + spec.duty_cycle_sigma * standard_normal(rng))
            .clamp(spec.duty_cycle_floor, 1.0);
        let activity = (stress.activity * lognormal(rng, 0.0, spec.activity_sigma_log)).min(1.0);
        let self_heating_c =
            normal(rng, spec.self_heating_mean_c, spec.self_heating_sigma_c).max(0.0);
        let temp_swing_c = rng.gen::<f64>() * spec.temp_swing_max_c;
        WorkloadProfile {
            duty_cycle,
            activity,
            self_heating_c,
            temp_swing_c,
        }
    }

    /// Advances `rng` past exactly the words [`Self::sample`] consumes,
    /// its three normals and one uniform, without transforming them.
    /// Returns the number of normals skipped.
    pub(crate) fn skip<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        for _ in 0..3 {
            skip_normal(rng);
        }
        let _: f64 = rng.gen();
        3
    }
}

/// How a shard takes its chips' aging-only draws: each chip's workload
/// and log-rate normal, and the aging sensitivity of every path and ROD.
///
/// A campaign whose read points all lie at or before 0 h never observes
/// these draws. [`AgingModel::nbti`] and [`AgingModel::hci`] return `0.0`
/// at `t_eff = t · duty_cycle <= 0` (the duty cycle is positive) before
/// they read the workload's activity, the rate or the Arrhenius average,
/// so the unit shift is `0.0 + 0.0`, and every device shift a measurement
/// forms is `unit_shift × sensitivity`: `+0.0` both for a drawn
/// sensitivity, which is finite and positive, and for `1.0`. On such an
/// *inert* campaign each aging-only draw still advances the chip's stream
/// by exactly its words, so every later draw and every output bit stays
/// put, but none is transformed: the chip clones one nominal model and
/// every sensitivity is `1.0`.
#[derive(Debug)]
pub(crate) struct AgingDraws<'a> {
    /// The nominal model each chip of an inert campaign clones; `None`
    /// transforms every draw.
    inert: Option<&'a AgingModel>,
    /// Normals skipped since the last [`Self::flush_counters`].
    skipped_normals: u64,
}

impl<'a> AgingDraws<'a> {
    /// Draws that transform everything (`inert = None`) or skip the
    /// aging-only ones, handing each chip a clone of `inert`.
    pub(crate) fn new(inert: Option<&'a AgingModel>) -> Self {
        AgingDraws {
            inert,
            skipped_normals: 0,
        }
    }

    /// The nominal model of an inert campaign, or `None` when the draws
    /// are transformed.
    pub(crate) fn inert(&self) -> Option<&'a AgingModel> {
        self.inert
    }

    /// Skips a chip's [`WorkloadProfile::sample`] draws.
    pub(crate) fn skip_workload<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.skipped_normals += WorkloadProfile::skip(rng);
    }

    /// Skips one normal (see [`skip_normal`]).
    pub(crate) fn skip_normal<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        skip_normal(rng);
        self.skipped_normals += 1;
    }

    /// A device's aging sensitivity: a log-normal draw of median 1 and log
    /// sigma `sigma_log`, or `1.0` with the draw's words skipped.
    pub(crate) fn sensitivity<R: Rng + ?Sized>(&mut self, rng: &mut R, sigma_log: f64) -> f64 {
        if self.inert.is_some() {
            self.skip_normal(rng);
            1.0
        } else {
            lognormal(rng, 0.0, sigma_log)
        }
    }

    /// Records the skipped normals and resets the count. The shard loop
    /// flushes once per shard, with the search counters.
    pub(crate) fn flush_counters(&mut self) {
        vmin_trace::counter_add("silicon.aging.skipped_normals", self.skipped_normals);
        self.skipped_normals = 0;
    }
}

/// Per-chip aging model: stress conditions, this chip's workload and its
/// rate factor.
///
/// # Examples
///
/// ```
/// use vmin_silicon::{AgingModel, AgingSpec, Hours, StressSpec};
///
/// let model = AgingModel::new(AgingSpec::default(), StressSpec::default(), 1.0);
/// let early = model.delta_vth(Hours(24.0), 1.0);
/// let late = model.delta_vth(Hours(1008.0), 1.0);
/// assert!(late.0 > early.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AgingModel {
    spec: AgingSpec,
    /// Elevated stress supply (V), captured from the stress schedule.
    stress_voltage: Volt,
    /// Nominal operating voltage used as the aging reference (V).
    nominal_voltage: Volt,
    /// This chip's workload under stress.
    workload: WorkloadProfile,
    /// This chip's multiplicative aging-rate factor (log-normal, median 1).
    chip_rate: f64,
    /// Arrhenius acceleration averaged over the workload's junction-
    /// temperature trajectory, precomputed at construction so the hot
    /// measurement loops never re-integrate it.
    temp_acc: f64,
}

impl AgingModel {
    /// Builds the model for one chip on the **nominal** workload (the
    /// shared burn-in schedule).
    ///
    /// `chip_rate` is the chip's log-normal rate multiplier (1.0 = median
    /// chip).
    pub fn new(spec: AgingSpec, stress: StressSpec, chip_rate: f64) -> Self {
        let workload = WorkloadProfile::nominal(&stress);
        Self::with_workload(spec, &stress, chip_rate, workload)
    }

    /// Builds the model for one chip with an explicit per-chip workload.
    ///
    /// Takes the stress schedule by reference and captures only its
    /// scalars, so per-chip construction performs no heap allocation.
    pub fn with_workload(
        spec: AgingSpec,
        stress: &StressSpec,
        chip_rate: f64,
        workload: WorkloadProfile,
    ) -> Self {
        let temp_acc = trajectory_arrhenius(&spec, stress.stress_temperature, &workload);
        AgingModel {
            spec,
            stress_voltage: stress.stress_voltage,
            nominal_voltage: stress.nominal_voltage,
            workload,
            chip_rate,
            temp_acc,
        }
    }

    /// NBTI component of ΔVth (V) at cumulative calendar stress time `t`.
    ///
    /// The chip only accumulates damage while under bias, so the effective
    /// stress time is `t · duty_cycle`; temperature acceleration is the
    /// Arrhenius factor averaged over the junction trajectory.
    pub fn nbti(&self, t: Hours) -> Volt {
        let t_eff = t.0 * self.workload.duty_cycle;
        if t_eff <= 0.0 {
            return Volt(0.0);
        }
        let s = &self.spec;
        let v_acc = (s.nbti_voltage_gamma * (self.stress_voltage.0 - self.nominal_voltage.0)).exp();
        let raw =
            s.nbti_amplitude * v_acc * self.temp_acc * (t_eff / T_REF_HOURS).powf(s.nbti_exponent);
        // Partial recovery observed because the read happens after the
        // stress bias is removed.
        Volt(raw * (1.0 - s.nbti_recovery_fraction) * self.chip_rate)
    }

    /// HCI component of ΔVth (V) at cumulative calendar stress time `t`,
    /// scaled by this chip's switching activity.
    pub fn hci(&self, t: Hours) -> Volt {
        let t_eff = t.0 * self.workload.duty_cycle;
        if t_eff <= 0.0 {
            return Volt(0.0);
        }
        let s = &self.spec;
        let raw =
            s.hci_amplitude * self.workload.activity * (t_eff / T_REF_HOURS).powf(s.hci_exponent);
        Volt(raw * self.chip_rate)
    }

    /// Unscaled ΔVth (V) at stress time `t`: `nbti(t) + hci(t)`, the part
    /// of [`Self::delta_vth`] every path and monitor of the chip shares.
    /// Measurement loops compute it once per read point and scale it per
    /// device.
    pub(crate) fn unit_shift(&self, t: Hours) -> f64 {
        self.nbti(t).0 + self.hci(t).0
    }

    /// Total ΔVth (V) at stress time `t`, scaled by a per-path (or
    /// per-monitor) `sensitivity` factor.
    pub fn delta_vth(&self, t: Hours, sensitivity: f64) -> Volt {
        Volt(self.unit_shift(t) * sensitivity)
    }

    /// Borrow of the aging spec.
    pub fn spec(&self) -> &AgingSpec {
        &self.spec
    }

    /// This chip's workload profile.
    pub fn workload(&self) -> &WorkloadProfile {
        &self.workload
    }

    /// The chip's rate multiplier.
    pub fn chip_rate(&self) -> f64 {
        self.chip_rate
    }
}

/// Averages the Arrhenius acceleration `exp(Ea/k · (1/T_ref − 1/T))` over
/// one period of the workload's junction-temperature oscillation
/// `T(φ) = T_oven + self_heating + swing · sin(2πφ)`.
///
/// With a nominal workload (no heating, no swing) every phase point
/// evaluates the same expression the shared-schedule model used, and the
/// 8-term mean of identical values is exact in IEEE-754, so nominal models
/// stay bit-identical to the pre-workload implementation.
fn trajectory_arrhenius(spec: &AgingSpec, oven: Celsius, w: &WorkloadProfile) -> f64 {
    let mut sum = 0.0;
    for j in 0..TRAJECTORY_PHASES {
        let phase = (j as f64 + 0.5) / TRAJECTORY_PHASES as f64;
        let swing = w.temp_swing_c * (2.0 * std::f64::consts::PI * phase).sin();
        let tk = Celsius(oven.0 + w.self_heating_c + swing).to_kelvin();
        sum += (spec.nbti_activation_ev / K_B_EV * (1.0 / T_REF_K - 1.0 / tk)).exp();
    }
    sum / TRAJECTORY_PHASES as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Celsius;
    use vmin_rng::ChaCha8Rng;
    use vmin_rng::RngCore;
    use vmin_rng::SeedableRng;

    fn model(rate: f64) -> AgingModel {
        AgingModel::new(AgingSpec::default(), StressSpec::default(), rate)
    }

    #[test]
    fn zero_time_means_zero_shift() {
        let m = model(1.0);
        assert_eq!(m.delta_vth(Hours(0.0), 1.0), Volt(0.0));
        assert_eq!(m.nbti(Hours(0.0)), Volt(0.0));
        assert_eq!(m.hci(Hours(0.0)), Volt(0.0));
    }

    #[test]
    fn degradation_is_monotone_in_time() {
        let m = model(1.0);
        let points = [24.0, 48.0, 168.0, 504.0, 1008.0];
        let mut prev = 0.0;
        for &t in &points {
            let d = m.delta_vth(Hours(t), 1.0).0;
            assert!(d > prev, "ΔVth must grow with stress time");
            prev = d;
        }
    }

    #[test]
    fn degradation_is_sublinear_saturating() {
        // Power-law with n < 1: doubling time must less-than-double ΔVth.
        let m = model(1.0);
        let d1 = m.nbti(Hours(100.0)).0;
        let d2 = m.nbti(Hours(200.0)).0;
        assert!(d2 < 2.0 * d1);
        assert!(d2 > d1);
    }

    #[test]
    fn magnitude_is_tens_of_millivolts_at_end_of_life() {
        let m = model(1.0);
        let d = m.delta_vth(Hours(1008.0), 1.0);
        let mv = d.to_millivolts();
        assert!(
            mv > 10.0 && mv < 120.0,
            "end-of-stress ΔVth should be tens of mV, got {mv} mV"
        );
    }

    #[test]
    fn voltage_acceleration_increases_damage() {
        let spec = AgingSpec::default();
        let hot = StressSpec {
            stress_voltage: Volt(1.05),
            ..StressSpec::default()
        };
        let base = AgingModel::new(spec.clone(), StressSpec::default(), 1.0);
        let accel = AgingModel::new(spec, hot, 1.0);
        assert!(accel.nbti(Hours(168.0)).0 > base.nbti(Hours(168.0)).0);
    }

    #[test]
    fn temperature_acceleration_increases_damage() {
        let spec = AgingSpec::default();
        let cool = StressSpec {
            stress_temperature: Celsius(85.0),
            ..StressSpec::default()
        };
        let base = AgingModel::new(spec.clone(), StressSpec::default(), 1.0);
        let cooler = AgingModel::new(spec, cool, 1.0);
        assert!(cooler.nbti(Hours(168.0)).0 < base.nbti(Hours(168.0)).0);
    }

    #[test]
    fn chip_rate_scales_linearly() {
        let slow = model(0.5);
        let fast = model(2.0);
        let t = Hours(504.0);
        assert!((fast.delta_vth(t, 1.0).0 / slow.delta_vth(t, 1.0).0 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sensitivity_scales_delta() {
        let m = model(1.0);
        let t = Hours(504.0);
        let d1 = m.delta_vth(t, 1.0).0;
        let d2 = m.delta_vth(t, 1.5).0;
        assert!((d2 / d1 - 1.5).abs() < 1e-9);
    }

    #[test]
    fn recovery_reduces_observed_nbti() {
        let no_rec = AgingSpec {
            nbti_recovery_fraction: 0.0,
            ..AgingSpec::default()
        };
        let base = AgingModel::new(AgingSpec::default(), StressSpec::default(), 1.0);
        let unrecovered = AgingModel::new(no_rec, StressSpec::default(), 1.0);
        assert!(base.nbti(Hours(100.0)).0 < unrecovered.nbti(Hours(100.0)).0);
    }

    // ---- workload-profile behavior ------------------------------------

    fn with_workload(w: WorkloadProfile) -> AgingModel {
        AgingModel::with_workload(AgingSpec::default(), &StressSpec::default(), 1.0, w)
    }

    #[test]
    fn nominal_workload_is_bit_identical_to_new() {
        let stress = StressSpec::default();
        let plain = AgingModel::new(AgingSpec::default(), stress.clone(), 1.3);
        let nominal = AgingModel::with_workload(
            AgingSpec::default(),
            &stress,
            1.3,
            WorkloadProfile::nominal(&stress),
        );
        for t in [0.0, 24.0, 168.0, 1008.0] {
            assert_eq!(
                plain.delta_vth(Hours(t), 1.2).0.to_bits(),
                nominal.delta_vth(Hours(t), 1.2).0.to_bits(),
                "t = {t}"
            );
        }
    }

    #[test]
    fn lower_duty_cycle_slows_degradation() {
        let stress = StressSpec::default();
        let full = with_workload(WorkloadProfile::nominal(&stress));
        let half = with_workload(WorkloadProfile {
            duty_cycle: 0.5,
            ..WorkloadProfile::nominal(&stress)
        });
        let t = Hours(504.0);
        assert!(half.delta_vth(t, 1.0).0 < full.delta_vth(t, 1.0).0);
        // Effective-time scaling: half duty at time t equals full duty at t/2.
        assert!((half.nbti(t).0 - full.nbti(Hours(252.0)).0).abs() < 1e-15);
    }

    #[test]
    fn higher_activity_accelerates_hci_only() {
        let stress = StressSpec::default();
        let base = with_workload(WorkloadProfile::nominal(&stress));
        let busy = with_workload(WorkloadProfile {
            activity: stress.activity * 2.0,
            ..WorkloadProfile::nominal(&stress)
        });
        let t = Hours(504.0);
        assert!(busy.hci(t).0 > base.hci(t).0);
        assert_eq!(busy.nbti(t).0.to_bits(), base.nbti(t).0.to_bits());
    }

    #[test]
    fn self_heating_accelerates_nbti() {
        let stress = StressSpec::default();
        let cool = with_workload(WorkloadProfile::nominal(&stress));
        let hot = with_workload(WorkloadProfile {
            self_heating_c: 10.0,
            ..WorkloadProfile::nominal(&stress)
        });
        assert!(hot.nbti(Hours(168.0)).0 > cool.nbti(Hours(168.0)).0);
    }

    #[test]
    fn temperature_swing_accelerates_on_net() {
        // Arrhenius is convex in temperature, so a symmetric swing around
        // the setpoint raises the *average* acceleration.
        let stress = StressSpec::default();
        let flat = with_workload(WorkloadProfile::nominal(&stress));
        let swingy = with_workload(WorkloadProfile {
            temp_swing_c: 15.0,
            ..WorkloadProfile::nominal(&stress)
        });
        assert!(swingy.nbti(Hours(168.0)).0 > flat.nbti(Hours(168.0)).0);
    }

    #[test]
    fn skips_leave_the_stream_where_the_transforming_draws_do() {
        // Every start offset in a 16-word ChaCha block, so skips that
        // straddle a refill are covered too.
        let spec = WorkloadSpec::default();
        let stress = StressSpec::default();
        for offset in 0..16 {
            let mut drawn = ChaCha8Rng::seed_from_u64(31);
            for _ in 0..offset {
                drawn.next_u32();
            }
            let mut skipped = drawn.clone();
            standard_normal(&mut drawn);
            skip_normal(&mut skipped);
            assert_eq!(skipped, drawn, "skip_normal at offset {offset}");
            WorkloadProfile::sample(&mut drawn, &spec, &stress);
            assert_eq!(WorkloadProfile::skip(&mut skipped), 3);
            assert_eq!(skipped, drawn, "WorkloadProfile::skip at offset {offset}");
        }
    }

    #[test]
    fn sampled_workloads_are_deterministic_and_spread() {
        let spec = WorkloadSpec::default();
        let stress = StressSpec::default();
        let draw = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..200)
                .map(|_| WorkloadProfile::sample(&mut rng, &spec, &stress))
                .collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11), "sampling must be seed-deterministic");
        for w in &a {
            assert!(w.duty_cycle >= spec.duty_cycle_floor && w.duty_cycle <= 1.0);
            assert!(w.activity > 0.0 && w.activity <= 1.0);
            assert!(w.self_heating_c >= 0.0);
            assert!(w.temp_swing_c >= 0.0 && w.temp_swing_c <= spec.temp_swing_max_c);
        }
        let duties: Vec<f64> = a.iter().map(|w| w.duty_cycle).collect();
        let min = duties.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = duties.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.1, "duty cycles should spread the population");
    }
}
