//! Per-chip state: process corner, critical-path population, defects and
//! the chip's aging model.

use crate::aging::{AgingDraws, AgingModel, WorkloadProfile};
use crate::config::DatasetSpec;
use crate::device::{dibl, mobility_at, DelayTerms, DeviceParams, LeakageTerms};
use crate::process::{ProcessSampler, ProcessState};
use crate::sampling::{lognormal, normal};
use crate::units::{Celsius, Hours, Picoseconds, Volt};
use vmin_rng::Rng;

/// One speed-limiting path of a chip.
///
/// A path is characterized by its local threshold-voltage mismatch, logic
/// depth, fixed wire delay, aging sensitivity and (rarely) a resistive
/// defect penalty.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Local (within-die) Vth mismatch of this path's dominant devices (V).
    pub local_vth_offset: Volt,
    /// Number of equivalent gate stages.
    pub depth: usize,
    /// Fixed, voltage-insensitive wire delay (ps).
    pub wire_delay_ps: f64,
    /// Log-normal sensitivity of this path to chip-level aging.
    pub aging_sensitivity: f64,
    /// Multiplicative delay penalty from a resistive defect (1.0 = clean).
    pub defect_penalty: f64,
}

/// A simulated die: global process state, aging model and critical paths.
#[derive(Debug, Clone, PartialEq)]
pub struct Chip {
    /// Zero-based chip index within the campaign.
    pub id: usize,
    /// Global process state.
    pub process: ProcessState,
    /// This chip's aging model (includes the chip-level rate factor).
    pub aging: AgingModel,
    /// Speed-limiting paths; SCAN Vmin is set by the worst of them.
    pub paths: Vec<CriticalPath>,
    /// Whether a latent defect was injected into one of the paths.
    pub defective: bool,
}

/// Voltage-independent delay terms of one critical path at one
/// (temperature, read point): its gate's [`DelayTerms`] plus its depth
/// and wire delay. [`Self::delay`] is the voltage kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PathTerms {
    pub(crate) gate: DelayTerms,
    /// Logic depth as a float (number of equivalent gate stages).
    pub(crate) depth: f64,
    /// Fixed wire delay (ps).
    pub(crate) wire_ps: f64,
}

impl PathTerms {
    /// Path delay at supply `v`: `gate · depth + wire`, or `None` when the
    /// gate does not switch.
    #[inline]
    pub(crate) fn delay(&self, v: Volt) -> Option<Picoseconds> {
        let gate = self.gate.gate_delay(v)?;
        Some(Picoseconds(gate.0 * self.depth + self.wire_ps))
    }

    /// Estimated supply at which the path delay equals `delay` ps (see
    /// [`DelayTerms::supply_at_delay`]).
    pub(crate) fn supply_at_delay(
        &self,
        delay: f64,
        start: f64,
        iterations: &mut u64,
    ) -> Option<f64> {
        self.gate
            .supply_at_delay((delay - self.wire_ps) / self.depth, start, iterations)
    }
}

/// Voltage-independent terms of a chip's leakage at one (temperature, read
/// point): the process leakage factor times the aged representative
/// device's [`LeakageTerms`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChipLeakage {
    factor: f64,
    device: LeakageTerms,
}

impl ChipLeakage {
    /// Chip leakage factor at the supply whose [`dibl`] factor is `dibl`.
    #[inline]
    pub(crate) fn current(&self, dibl: f64) -> f64 {
        self.factor * self.device.current(dibl)
    }
}

impl Chip {
    /// Device parameters of `path` at stress time `t`: base Vth plus global
    /// process shift plus local mismatch plus accumulated aging.
    pub fn path_device(&self, path: &CriticalPath, t: Hours) -> DeviceParams {
        self.aged_path_device(path, self.aging.unit_shift(t))
    }

    /// [`Self::path_device`] given the chip's unscaled aging shift
    /// ([`AgingModel::unit_shift`]), which the path's sensitivity scales.
    fn aged_path_device(&self, path: &CriticalPath, unit_shift: f64) -> DeviceParams {
        let aged = unit_shift * path.aging_sensitivity;
        DeviceParams {
            vth25: Volt(0.30 + self.process.vth_shift.0 + path.local_vth_offset.0 + aged),
            leff_factor: self.process.leff_factor * path.defect_penalty,
            mobility_factor: self.process.mobility_factor,
            unit_delay_ps: 8.0,
        }
    }

    /// `μ(T)` shared by every device of this chip (they all carry the
    /// process mobility factor).
    pub(crate) fn mobility_at(&self, temp: Celsius) -> f64 {
        mobility_at(self.process.mobility_factor, temp)
    }

    /// Voltage-independent delay terms of `path` at `temp`, given the
    /// chip's unscaled aging shift and its [`Self::mobility_at`] value.
    pub(crate) fn path_terms(
        &self,
        path: &CriticalPath,
        unit_shift: f64,
        temp: Celsius,
        mobility: f64,
    ) -> PathTerms {
        PathTerms {
            gate: self
                .aged_path_device(path, unit_shift)
                .delay_terms(temp, mobility),
            depth: path.depth as f64,
            wire_ps: path.wire_delay_ps,
        }
    }

    /// Delay of `path` at supply `v`, temperature `temp` and stress time `t`.
    ///
    /// Returns `None` when the path does not evaluate at this voltage (supply
    /// at or below the effective threshold).
    pub fn path_delay(
        &self,
        path: &CriticalPath,
        v: Volt,
        temp: Celsius,
        t: Hours,
    ) -> Option<Picoseconds> {
        self.path_terms(path, self.aging.unit_shift(t), temp, self.mobility_at(temp))
            .delay(v)
    }

    /// Worst (largest) path delay across the chip at the given conditions,
    /// or `None` if any path fails to evaluate.
    pub fn worst_path_delay(&self, v: Volt, temp: Celsius, t: Hours) -> Option<Picoseconds> {
        let unit_shift = self.aging.unit_shift(t);
        let mobility = self.mobility_at(temp);
        let mut worst = 0.0f64;
        for p in &self.paths {
            let d = self.path_terms(p, unit_shift, temp, mobility).delay(v)?;
            worst = worst.max(d.0);
        }
        Some(Picoseconds(worst))
    }

    /// Voltage-independent leakage terms at `temp`, given the chip's
    /// unscaled aging shift.
    pub(crate) fn leakage_terms(&self, temp: Celsius, unit_shift: f64) -> ChipLeakage {
        // Use the average aged device as the leakage representative; aging
        // raises Vth and therefore *reduces* leakage slightly. Its
        // sensitivity is 1, so its ΔVth is the unit shift itself.
        let dev = DeviceParams {
            vth25: Volt(0.30 + self.process.vth_shift.0 + unit_shift),
            leff_factor: self.process.leff_factor,
            mobility_factor: self.process.mobility_factor,
            unit_delay_ps: 8.0,
        };
        ChipLeakage {
            factor: self.process.leakage_factor,
            device: dev.leakage_terms(temp),
        }
    }

    /// Total chip leakage factor at the given conditions (drives IDDQ).
    pub fn chip_leakage(&self, v: Volt, temp: Celsius, t: Hours) -> f64 {
        self.leakage_terms(temp, self.aging.unit_shift(t))
            .current(dibl(v))
    }
}

/// Builds chip populations from a [`DatasetSpec`].
#[derive(Debug, Clone)]
pub struct ChipFactory {
    spec: DatasetSpec,
}

impl ChipFactory {
    /// Creates a factory for the given campaign spec.
    pub fn new(spec: DatasetSpec) -> Self {
        ChipFactory { spec }
    }

    /// Borrow of the spec.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// Fabricates `spec.chip_count` chips.
    pub fn fabricate<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Chip> {
        let spec = &self.spec;
        let states = ProcessSampler::new(spec.process.clone()).sample(rng, spec.chip_count);
        states
            .into_iter()
            .enumerate()
            .map(|(id, process)| self.fabricate_one(rng, id, process))
            .collect()
    }

    /// Fabricates a single chip from an externally supplied process state,
    /// drawing all remaining per-chip randomness (workload, aging rate,
    /// defect, paths) from `rng`.
    pub fn fabricate_one<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        id: usize,
        process: ProcessState,
    ) -> Chip {
        let mut paths = Vec::with_capacity(self.spec.paths_per_chip);
        let (aging, defective) =
            self.fabricate_parts(rng, &process, &mut paths, &mut AgingDraws::new(None));
        Chip {
            id,
            process,
            aging,
            paths,
            defective,
        }
    }

    /// Re-fabricates `chip` in place for index `id`, reusing its path
    /// vector's allocation. Draw order and results are identical to
    /// [`Self::fabricate_one`] — this is the scratch-friendly form whose
    /// body the streaming campaign's hot loop runs.
    pub fn refabricate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        id: usize,
        process: ProcessState,
        chip: &mut Chip,
    ) {
        self.refabricate_with(rng, id, process, chip, &mut AgingDraws::new(None));
    }

    /// [`Self::refabricate`] with the aging-only draws taken as `draws`
    /// directs.
    pub(crate) fn refabricate_with<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        id: usize,
        process: ProcessState,
        chip: &mut Chip,
        draws: &mut AgingDraws<'_>,
    ) {
        let mut paths = std::mem::take(&mut chip.paths);
        let (aging, defective) = self.fabricate_parts(rng, &process, &mut paths, draws);
        chip.id = id;
        chip.process = process;
        chip.aging = aging;
        chip.paths = paths;
        chip.defective = defective;
    }

    /// The shared per-chip draw sequence: workload, aging rate, defect,
    /// then paths, with the aging-only draws taken as `draws` directs.
    /// Clears and refills `paths`.
    fn fabricate_parts<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        process: &ProcessState,
        paths: &mut Vec<CriticalPath>,
        draws: &mut AgingDraws<'_>,
    ) -> (AgingModel, bool) {
        let spec = &self.spec;
        let aging = match draws.inert() {
            Some(nominal) => {
                draws.skip_workload(rng);
                draws.skip_normal(rng);
                nominal.clone()
            }
            None => self.sample_aging(rng, process),
        };
        let defective = rng.gen::<f64>() < spec.defect.defect_rate;
        let defect_path = if defective {
            rng.gen_range(0..spec.paths_per_chip)
        } else {
            usize::MAX
        };
        paths.clear();
        for pi in 0..spec.paths_per_chip {
            let local = normal(rng, 0.0, spec.process.sigma_vth_local);
            let depth_jitter: i64 = rng.gen_range(-4..=4);
            let depth = (spec.path_depth as i64 + depth_jitter).max(8) as usize;
            let wire = rng.gen_range(30.0..90.0);
            let sensitivity = draws.sensitivity(rng, spec.aging.sigma_path_sensitivity_log);
            let defect_penalty = if pi == defect_path {
                1.0 + spec.defect.mean_delay_penalty * lognormal(rng, 0.0, 0.4)
            } else {
                1.0
            };
            let sensitivity = if pi == defect_path {
                sensitivity * spec.defect.aging_multiplier
            } else {
                sensitivity
            };
            paths.push(CriticalPath {
                local_vth_offset: Volt(local),
                depth,
                wire_delay_ps: wire,
                aging_sensitivity: sensitivity,
                defect_penalty,
            });
        }
        (aging, defective)
    }

    /// Draws the chip's aging model: its workload, then its rate factor.
    fn sample_aging<R: Rng + ?Sized>(&self, rng: &mut R, process: &ProcessState) -> AgingModel {
        let spec = &self.spec;
        // Each chip runs its own stress workload (duty cycle, activity,
        // thermal trajectory), making degradation heteroscedastic across
        // the population.
        let workload = WorkloadProfile::sample(rng, &spec.workload, &spec.stress);
        // Total global Vth sigma, used to standardize the corner term.
        let sigma_global = (spec.process.sigma_vth_lot.powi(2)
            + spec.process.sigma_vth_wafer.powi(2)
            + spec.process.sigma_vth_die.powi(2))
        .sqrt();
        // Fast-corner (low Vth) chips age faster: split the log-rate
        // variance between a corner-driven part (observable from time-0
        // data) and an idiosyncratic part (only observable from later
        // monitor reads).
        let rho = spec.aging.rate_corner_fraction.clamp(0.0, 1.0);
        let corner = -process.vth_shift.0 / sigma_global.max(1e-9);
        let log_rate = spec.aging.sigma_rate_log
            * (rho.sqrt() * corner + (1.0 - rho).sqrt() * crate::sampling::standard_normal(rng));
        let chip_rate = log_rate.exp();
        AgingModel::with_workload(spec.aging.clone(), &spec.stress, chip_rate, workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmin_rng::ChaCha8Rng;
    use vmin_rng::SeedableRng;

    fn small_population(seed: u64) -> Vec<Chip> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        ChipFactory::new(DatasetSpec::small()).fabricate(&mut rng)
    }

    #[test]
    fn fabricates_requested_count() {
        let chips = small_population(1);
        assert_eq!(chips.len(), DatasetSpec::small().chip_count);
        for c in &chips {
            assert_eq!(c.paths.len(), DatasetSpec::small().paths_per_chip);
        }
    }

    #[test]
    fn path_delay_monotone_decreasing_in_voltage() {
        let chips = small_population(2);
        let chip = &chips[0];
        let p = &chip.paths[0];
        let d_low = chip
            .path_delay(p, Volt(0.5), Celsius(25.0), Hours(0.0))
            .unwrap();
        let d_high = chip
            .path_delay(p, Volt(0.8), Celsius(25.0), Hours(0.0))
            .unwrap();
        assert!(d_low.0 > d_high.0);
    }

    #[test]
    fn aging_slows_paths() {
        let chips = small_population(3);
        let chip = &chips[0];
        let fresh = chip
            .worst_path_delay(Volt(0.55), Celsius(25.0), Hours(0.0))
            .unwrap();
        let aged = chip
            .worst_path_delay(Volt(0.55), Celsius(25.0), Hours(1008.0))
            .unwrap();
        assert!(aged.0 > fresh.0, "aging must slow the chip");
    }

    #[test]
    fn worst_path_dominates_each_path() {
        let chips = small_population(4);
        let chip = &chips[1];
        let worst = chip
            .worst_path_delay(Volt(0.6), Celsius(25.0), Hours(0.0))
            .unwrap();
        for p in &chip.paths {
            let d = chip
                .path_delay(p, Volt(0.6), Celsius(25.0), Hours(0.0))
                .unwrap();
            assert!(d.0 <= worst.0 + 1e-12);
        }
    }

    #[test]
    fn sub_threshold_voltage_fails_to_evaluate() {
        let chips = small_population(5);
        let chip = &chips[0];
        assert!(chip
            .worst_path_delay(Volt(0.15), Celsius(-45.0), Hours(0.0))
            .is_none());
    }

    #[test]
    fn leakage_positive_and_varies_across_chips() {
        let chips = small_population(6);
        let leaks: Vec<f64> = chips
            .iter()
            .map(|c| c.chip_leakage(Volt(0.75), Celsius(25.0), Hours(0.0)))
            .collect();
        assert!(leaks.iter().all(|&l| l > 0.0));
        let min = leaks.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = leaks.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max / min > 1.5, "leakage spread should be material");
    }

    #[test]
    fn defect_rate_roughly_matches_spec() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut spec = DatasetSpec::small();
        spec.chip_count = 2000;
        let chips = ChipFactory::new(spec).fabricate(&mut rng);
        let frac = chips.iter().filter(|c| c.defective).count() as f64 / 2000.0;
        assert!((frac - 0.05).abs() < 0.02, "defect fraction {frac}");
    }

    #[test]
    fn defective_chips_have_penalized_path() {
        let chips = small_population(8);
        for c in &chips {
            let has_penalty = c.paths.iter().any(|p| p.defect_penalty > 1.0);
            assert_eq!(c.defective, has_penalty, "chip {}", c.id);
        }
    }

    #[test]
    fn deterministic_fabrication() {
        assert_eq!(small_population(42), small_population(42));
    }
}
