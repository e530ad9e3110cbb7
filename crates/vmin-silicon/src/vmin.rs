//! SCAN Vmin extraction.
//!
//! The minimum operating voltage of a chip at a given temperature and stress
//! time is the lowest supply at which every critical path still meets the
//! clock period. Two extraction procedures are provided:
//!
//! - [`VminTester::vmin_exact`]: bisection on the worst path delay — the
//!   "true" underlying Vmin of the silicon.
//! - [`VminTester::vmin_shmoo`]: the conventional ATE flow, stepping the
//!   supply down from a high voltage until the pattern fails, which
//!   quantizes Vmin to the shmoo step (§I of the paper describes this flow
//!   and its cost).
//!
//! Both add Gaussian repeatability noise, mirroring tester reproducibility.

use crate::chip::{Chip, ChipLeakage, PathTerms};
use crate::config::VminTestSpec;
use crate::device::{dibl, DeviceParams, LeakageTerms};
use crate::sampling::normal;
use crate::units::{Celsius, Hours, Picoseconds, Volt};
use vmin_rng::Rng;

/// Bisection steps of the reference search: the loop stops earlier once
/// the midpoint rounds onto an endpoint, never later.
const MAX_BISECTION_STEPS: usize = 60;

/// Voltage-independent terms of the power-delivery model at one (chip,
/// temperature, read point): the chip's leakage and a nominal device's.
#[derive(Debug, Clone, Copy, Default)]
struct SupplyTerms {
    chip: ChipLeakage,
    nominal: LeakageTerms,
}

impl SupplyTerms {
    fn new(chip: &Chip, temp: Celsius, unit_shift: f64) -> Self {
        SupplyTerms {
            chip: chip.leakage_terms(temp, unit_shift),
            nominal: DeviceParams::default().leakage_terms(temp),
        }
    }

    /// IR drop (V) at pad supply `v`; the chip and the nominal device share
    /// one DIBL `exp`.
    #[inline]
    fn ir_drop(&self, ir_drop_per_leakage: f64, v: Volt) -> f64 {
        let dibl = dibl(v);
        let nominal = self.nominal.current(dibl).max(1e-12);
        let relative = self.chip.current(dibl) / nominal;
        ir_drop_per_leakage * relative
    }
}

/// One path of a [`SearchTable`] with its ordering key.
#[derive(Debug, Clone, Copy)]
struct PathRow {
    terms: PathTerms,
    /// Delay (ps) at the last supply the path was evaluated at. After a
    /// search's first endpoint check it is the delay at `search_high`,
    /// the slowest-first ordering key.
    delay: f64,
}

/// Every voltage-independent term of the SCAN predicate for one chip at
/// one (temperature, read point), plus the work counters of the searches
/// run on it.
///
/// A search fills the table once; each predicate call then evaluates one
/// DIBL `exp`, the IR drop and one overdrive `powf` per path. Refilling
/// reuses the path vector, so a caller that keeps one table per worker
/// (the streaming engine's per-shard scratch) searches without heap
/// allocation.
#[derive(Debug, Default)]
pub(crate) struct SearchTable {
    paths: Vec<PathRow>,
    supply: SupplyTerms,
    /// Predicate calls since the last flush.
    steps: u64,
    /// Path-delay evaluations since the last flush.
    evals: u64,
}

impl SearchTable {
    /// Fills the table for `chip` at `temp` and stress time `t`: the aging
    /// shift and `μ(T)` once, then each path's terms.
    fn fill(&mut self, chip: &Chip, temp: Celsius, t: Hours) {
        let unit_shift = chip.aging.unit_shift(t);
        let mobility = chip.mobility_at(temp);
        self.paths.clear();
        self.paths.extend(chip.paths.iter().map(|p| PathRow {
            terms: chip.path_terms(p, unit_shift, temp, mobility),
            delay: 0.0,
        }));
        self.supply = SupplyTerms::new(chip, temp, unit_shift);
    }

    /// The path scan of the SCAN predicate at core supply `v_core`: false
    /// on the first path that does not evaluate or is over `clock`. A path
    /// over the clock decides the step in any order, because the running
    /// maximum never decreases; a path that does not evaluate fails the
    /// step outright.
    fn scan(&mut self, v_core: Volt, clock: f64) -> bool {
        let mut worst = 0.0f64;
        for row in self.paths.iter_mut() {
            self.evals += 1;
            let Some(d) = row.terms.delay(v_core) else {
                return false;
            };
            if d.0 > clock {
                return false;
            }
            row.delay = d.0;
            worst = worst.max(d.0);
        }
        worst <= clock
    }

    /// Orders the paths slowest-first by their last evaluated delay, so
    /// failing steps stop on the first path.
    fn rank_slowest_first(&mut self) {
        self.paths
            .sort_unstable_by(|a, b| b.delay.total_cmp(&a.delay));
    }

    /// Records the accumulated work counters and resets them. Callers
    /// flush once per chip, shard or public call — never per step.
    pub(crate) fn flush_counters(&mut self) {
        vmin_trace::counter_add("silicon.vmin.bisect_steps", self.steps);
        vmin_trace::counter_add("silicon.device.evals", self.evals);
        self.steps = 0;
        self.evals = 0;
    }
}

/// SCAN Vmin measurement engine with a fixed clock period.
#[derive(Debug, Clone, PartialEq)]
pub struct VminTester {
    spec: VminTestSpec,
    /// Target clock period every path must meet (ps).
    clock_period: Picoseconds,
}

impl VminTester {
    /// Calibrates the tester clock period so that a *nominal* chip's worst
    /// path exactly meets timing at the spec's calibration voltage and
    /// temperature.
    ///
    /// `reference` should be a typical (non-defective) chip; in the test-flow
    /// driver we synthesize a dedicated nominal chip for this purpose.
    pub fn calibrated(spec: VminTestSpec, reference: &Chip) -> Self {
        // The core sees the pad voltage minus the reference chip's IR drop,
        // so calibration bakes power delivery into the clock period.
        let (v, temp, t) = (
            spec.calibration_voltage,
            spec.calibration_temperature,
            Hours(0.0),
        );
        let ir = SupplyTerms::new(reference, temp, reference.aging.unit_shift(t))
            .ir_drop(spec.ir_drop_per_leakage.0, v);
        let d = reference
            .worst_path_delay(Volt(v.0 - ir), temp, t)
            .expect("calibration voltage must be above threshold for the reference chip");
        VminTester {
            spec,
            clock_period: d,
        }
    }

    /// Creates a tester with an explicit clock period (ps).
    pub fn with_clock_period(spec: VminTestSpec, clock_period: Picoseconds) -> Self {
        VminTester { spec, clock_period }
    }

    /// The calibrated clock period.
    pub fn clock_period(&self) -> Picoseconds {
        self.clock_period
    }

    /// Borrow of the test spec.
    pub fn spec(&self) -> &VminTestSpec {
        &self.spec
    }

    /// Core supply droop from power-delivery IR drop at pad voltage `v`:
    /// proportional to the chip's leakage relative to a nominal device at
    /// the same conditions. Delay monitors run at a forced core voltage and
    /// never see this term; IDDQ-style parametric tests measure the current
    /// that causes it.
    pub fn ir_drop(&self, chip: &Chip, v: Volt, temp: Celsius, t: Hours) -> Volt {
        let supply = SupplyTerms::new(chip, temp, chip.aging.unit_shift(t));
        Volt(supply.ir_drop(self.spec.ir_drop_per_leakage.0, v))
    }

    /// True whether the chip passes SCAN at pad supply `v` (the core sees
    /// `v` minus the chip's IR drop).
    pub fn passes(&self, chip: &Chip, v: Volt, temp: Celsius, t: Hours) -> bool {
        let mut table = SearchTable::default();
        table.fill(chip, temp, t);
        self.predicate(&mut table, v.0)
    }

    /// The SCAN predicate on a filled table at pad supply `v`.
    fn predicate(&self, table: &mut SearchTable, v: f64) -> bool {
        table.steps += 1;
        let ir = table
            .supply
            .ir_drop(self.spec.ir_drop_per_leakage.0, Volt(v));
        table.scan(Volt(v - ir), self.clock_period.0)
    }

    /// Noise-free Vmin by bisection, or `None` when the chip fails even at
    /// the top of the search window (a gross outlier).
    pub fn vmin_noiseless(&self, chip: &Chip, temp: Celsius, t: Hours) -> Option<Volt> {
        let mut table = SearchTable::default();
        let v = self.search(&mut table, chip, temp, t);
        table.flush_counters();
        v
    }

    /// The bisection behind [`Self::vmin_noiseless`] on a caller-owned
    /// table, which accumulates the search's work counters.
    fn search(
        &self,
        table: &mut SearchTable,
        chip: &Chip,
        temp: Celsius,
        t: Hours,
    ) -> Option<Volt> {
        table.fill(chip, temp, t);
        let mut hi = self.spec.search_high.0;
        let mut lo = self.spec.search_low.0;
        if !self.predicate(table, hi) {
            return None;
        }
        table.rank_slowest_first();
        if self.predicate(table, lo) {
            return Some(Volt(lo));
        }
        // Invariant: fails at lo, passes at hi. Once the midpoint rounds
        // onto an endpoint, every further step would re-test that
        // endpoint's known outcome and leave both unchanged.
        for _ in 0..MAX_BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            if mid == lo || mid == hi {
                break;
            }
            if self.predicate(table, mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(Volt(hi))
    }

    /// Measured Vmin with tester repeatability noise (bisection-based).
    ///
    /// Returns `None` for chips failing at the search ceiling.
    pub fn vmin_exact<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        chip: &Chip,
        temp: Celsius,
        t: Hours,
    ) -> Option<Volt> {
        let mut table = SearchTable::default();
        let v = self.vmin_exact_in(rng, &mut table, chip, temp, t);
        table.flush_counters();
        v
    }

    /// [`Self::vmin_exact`] on a caller-owned [`SearchTable`] (reused
    /// across searches; the caller flushes its counters).
    pub(crate) fn vmin_exact_in<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        table: &mut SearchTable,
        chip: &Chip,
        temp: Celsius,
        t: Hours,
    ) -> Option<Volt> {
        let v = self.search(table, chip, temp, t)?;
        Some(Volt(v.0 + normal(rng, 0.0, self.spec.measurement_noise)))
    }

    /// Conventional ATE shmoo: step the supply down from `search_high` in
    /// `shmoo_step` decrements until the pattern fails; Vmin is the last
    /// passing voltage. Returns the number of test evaluations alongside the
    /// result, demonstrating why the conventional flow is slow (§I).
    ///
    /// Returns `None` when the chip fails at the very first (highest) step.
    pub fn vmin_shmoo<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        chip: &Chip,
        temp: Celsius,
        t: Hours,
    ) -> Option<(Volt, usize)> {
        let mut table = SearchTable::default();
        table.fill(chip, temp, t);
        let mut v = self.spec.search_high.0;
        let mut evaluations = 0usize;
        let mut last_pass: Option<f64> = None;
        while v >= self.spec.search_low.0 - 1e-12 {
            evaluations += 1;
            if self.predicate(&mut table, v) {
                last_pass = Some(v);
            } else {
                break;
            }
            v -= self.spec.shmoo_step.0;
        }
        last_pass.map(|lp| {
            let noisy = lp + normal(rng, 0.0, self.spec.measurement_noise);
            (Volt(noisy), evaluations)
        })
    }

    /// True when a measured Vmin violates the product min-spec.
    pub fn violates_spec(&self, vmin: Volt) -> bool {
        vmin > self.spec.min_spec
    }
}

/// The physics as composed per call before the search kernel hoisted its
/// voltage-independent terms: device formulas, chip composition, IR drop,
/// the SCAN predicate and the unbroken 60-step bisection, kept verbatim as
/// the exactness oracle of the split kernel.
#[cfg(test)]
mod oracle {
    use super::VminTester;
    use crate::chip::{Chip, CriticalPath};
    use crate::device::{
        DeviceParams, ALPHA, MOBILITY_TEMP_EXP, SUBTHRESHOLD_SWING, VTH_TEMP_COEFF,
    };
    use crate::units::{Celsius, Hours, Picoseconds, Volt};

    fn vth_at(dev: &DeviceParams, t: Celsius) -> Volt {
        Volt(dev.vth25.0 + VTH_TEMP_COEFF * (t.0 - 25.0))
    }

    fn mobility_at(dev: &DeviceParams, t: Celsius) -> f64 {
        dev.mobility_factor * (t.to_kelvin() / 298.15).powf(MOBILITY_TEMP_EXP)
    }

    pub(super) fn gate_delay(dev: &DeviceParams, v: Volt, t: Celsius) -> Option<Picoseconds> {
        let vth = vth_at(dev, t);
        let overdrive = v.0 - vth.0;
        if overdrive <= 1e-6 {
            return None;
        }
        let mu = mobility_at(dev, t);
        let d = dev.unit_delay_ps * dev.leff_factor * v.0 / (mu * overdrive.powf(ALPHA));
        Some(Picoseconds(d))
    }

    pub(super) fn leakage(dev: &DeviceParams, v: Volt, t: Celsius) -> f64 {
        let tk = t.to_kelvin();
        // Subthreshold swing scales linearly with absolute temperature.
        let swing = SUBTHRESHOLD_SWING * tk / 298.15;
        let slope = swing / std::f64::consts::LN_10;
        let vth = vth_at(dev, t);
        // DIBL: leakage grows roughly exponentially with drain bias.
        let dibl = (1.2 * (v.0 - 0.75)).exp();
        // Reference: nominal Vth at 25 °C, nominal bias.
        let slope25 = SUBTHRESHOLD_SWING / std::f64::consts::LN_10;
        let i_ref = (-0.30 / slope25).exp();
        (-vth.0 / slope).exp() / i_ref * dibl / dev.leff_factor
    }

    fn delta_vth(chip: &Chip, t: Hours, sensitivity: f64) -> Volt {
        Volt((chip.aging.nbti(t).0 + chip.aging.hci(t).0) * sensitivity)
    }

    fn path_device(chip: &Chip, path: &CriticalPath, t: Hours) -> DeviceParams {
        let aged = delta_vth(chip, t, path.aging_sensitivity);
        DeviceParams {
            vth25: Volt(0.30 + chip.process.vth_shift.0 + path.local_vth_offset.0 + aged.0),
            leff_factor: chip.process.leff_factor * path.defect_penalty,
            mobility_factor: chip.process.mobility_factor,
            unit_delay_ps: 8.0,
        }
    }

    fn path_delay(
        chip: &Chip,
        path: &CriticalPath,
        v: Volt,
        temp: Celsius,
        t: Hours,
    ) -> Option<Picoseconds> {
        let dev = path_device(chip, path, t);
        let gate = gate_delay(&dev, v, temp)?;
        Some(Picoseconds(gate.0 * path.depth as f64 + path.wire_delay_ps))
    }

    pub(super) fn worst_path_delay(
        chip: &Chip,
        v: Volt,
        temp: Celsius,
        t: Hours,
    ) -> Option<Picoseconds> {
        let mut worst = 0.0f64;
        for p in &chip.paths {
            let d = path_delay(chip, p, v, temp, t)?;
            worst = worst.max(d.0);
        }
        Some(Picoseconds(worst))
    }

    pub(super) fn chip_leakage(chip: &Chip, v: Volt, temp: Celsius, t: Hours) -> f64 {
        let aged = delta_vth(chip, t, 1.0);
        let dev = DeviceParams {
            vth25: Volt(0.30 + chip.process.vth_shift.0 + aged.0),
            leff_factor: chip.process.leff_factor,
            mobility_factor: chip.process.mobility_factor,
            unit_delay_ps: 8.0,
        };
        chip.process.leakage_factor * leakage(&dev, v, temp)
    }

    pub(super) fn ir_drop(
        tester: &VminTester,
        chip: &Chip,
        v: Volt,
        temp: Celsius,
        t: Hours,
    ) -> Volt {
        let nominal = leakage(&DeviceParams::default(), v, temp).max(1e-12);
        let relative = chip_leakage(chip, v, temp, t) / nominal;
        Volt(tester.spec().ir_drop_per_leakage.0 * relative)
    }

    pub(super) fn passes(
        tester: &VminTester,
        chip: &Chip,
        v: Volt,
        temp: Celsius,
        t: Hours,
    ) -> bool {
        let v_core = Volt(v.0 - ir_drop(tester, chip, v, temp, t).0);
        match worst_path_delay(chip, v_core, temp, t) {
            Some(d) => d.0 <= tester.clock_period().0,
            None => false,
        }
    }

    pub(super) fn vmin_noiseless(
        tester: &VminTester,
        chip: &Chip,
        temp: Celsius,
        t: Hours,
    ) -> Option<Volt> {
        let mut hi = tester.spec().search_high.0;
        let mut lo = tester.spec().search_low.0;
        if !passes(tester, chip, Volt(hi), temp, t) {
            return None;
        }
        if passes(tester, chip, Volt(lo), temp, t) {
            return Some(Volt(lo));
        }
        // Invariant: fails at lo, passes at hi.
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if passes(tester, chip, Volt(mid), temp, t) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(Volt(hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipFactory;
    use crate::config::DatasetSpec;
    use crate::testflow::nominal_chip;
    use vmin_rng::ChaCha8Rng;
    use vmin_rng::SeedableRng;

    /// Clean and defective small-spec chips, the nominal reference chip and
    /// a gross outlier that fails at the top of the window, with a tester
    /// calibrated on the nominal chip.
    fn oracle_population() -> (Vec<Chip>, VminTester) {
        let spec = DatasetSpec::small();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let fabricated = ChipFactory::new(spec.clone()).fabricate(&mut rng);
        let mut chips: Vec<Chip> = fabricated
            .iter()
            .filter(|c| !c.defective)
            .take(4)
            .cloned()
            .collect();
        let defective: Vec<Chip> = fabricated.iter().filter(|c| c.defective).cloned().collect();
        assert!(
            !defective.is_empty(),
            "the population must hold a defective chip"
        );
        chips.extend(defective);
        let mut outlier = chips[0].clone();
        outlier.paths[0].defect_penalty = 4.0;
        chips.push(outlier);
        let nominal = nominal_chip(&spec);
        chips.push(nominal.clone());
        let tester = VminTester::calibrated(spec.vmin_test.clone(), &nominal);
        (chips, tester)
    }

    #[test]
    fn split_kernel_is_bit_identical_to_the_per_call_oracle() {
        let (chips, tester) = oracle_population();
        let spec = tester.spec().clone();
        let voltages = [
            Volt(0.10),
            Volt(0.25),
            spec.search_low,
            spec.calibration_voltage,
            spec.search_high,
        ];
        let bits = |v: Option<Volt>| v.map(|v| v.0.to_bits());
        let delay_bits = |d: Option<Picoseconds>| d.map(|d| d.0.to_bits());
        let mut ceiling_fails = 0;
        for chip in &chips {
            for &temp in &spec.temperatures {
                for t in [Hours(0.0), Hours(24.0), Hours(1008.0)] {
                    for &v in &voltages {
                        assert_eq!(
                            tester.passes(chip, v, temp, t),
                            oracle::passes(&tester, chip, v, temp, t),
                            "passes: chip {} v {} temp {} t {}",
                            chip.id,
                            v.0,
                            temp.0,
                            t.0
                        );
                        assert_eq!(
                            tester.ir_drop(chip, v, temp, t).0.to_bits(),
                            oracle::ir_drop(&tester, chip, v, temp, t).0.to_bits()
                        );
                        assert_eq!(
                            delay_bits(chip.worst_path_delay(v, temp, t)),
                            delay_bits(oracle::worst_path_delay(chip, v, temp, t))
                        );
                        assert_eq!(
                            chip.chip_leakage(v, temp, t).to_bits(),
                            oracle::chip_leakage(chip, v, temp, t).to_bits()
                        );
                        for p in &chip.paths {
                            let dev = chip.path_device(p, t);
                            assert_eq!(
                                delay_bits(dev.gate_delay(v, temp)),
                                delay_bits(oracle::gate_delay(&dev, v, temp))
                            );
                            assert_eq!(
                                dev.leakage(v, temp).to_bits(),
                                oracle::leakage(&dev, v, temp).to_bits()
                            );
                        }
                    }
                    let got = tester.vmin_noiseless(chip, temp, t);
                    assert_eq!(
                        bits(got),
                        bits(oracle::vmin_noiseless(&tester, chip, temp, t)),
                        "vmin: chip {} temp {} t {}",
                        chip.id,
                        temp.0,
                        t.0
                    );
                    ceiling_fails += usize::from(got.is_none());
                }
            }
        }
        assert!(ceiling_fails > 0, "the grid must reach the no-Vmin branch");
    }

    #[test]
    fn search_stops_once_the_midpoint_collapses() {
        let (chips, tester) = oracle_population();
        let chip = &chips[0];
        let mut table = SearchTable::default();
        let v = tester.search(&mut table, chip, Celsius(25.0), Hours(0.0));
        assert!(v.is_some());
        // Two endpoint checks plus the live bisection steps: fewer than the
        // reference loop's 60, but enough to reach adjacent floats.
        assert!(
            table.steps > 45 && table.steps < 62,
            "predicate calls {}",
            table.steps
        );
        // The first endpoint evaluates every path; later steps at most all.
        let paths = chip.paths.len() as u64;
        assert!(table.evals >= paths + table.steps - 1);
        assert!(table.evals <= paths * table.steps);
    }

    fn setup() -> (Vec<Chip>, VminTester) {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let spec = DatasetSpec::small();
        let chips = ChipFactory::new(spec.clone()).fabricate(&mut rng);
        // Calibrate against the median chip of the population.
        let tester = VminTester::calibrated(spec.vmin_test.clone(), &chips[0]);
        (chips, tester)
    }

    #[test]
    fn vmin_is_bracketed_by_search_window() {
        let (chips, tester) = setup();
        for chip in &chips {
            let v = tester
                .vmin_noiseless(chip, Celsius(25.0), Hours(0.0))
                .expect("healthy chip should have a Vmin");
            assert!(v.0 >= tester.spec().search_low.0);
            assert!(v.0 <= tester.spec().search_high.0);
        }
    }

    #[test]
    fn vmin_is_the_pass_fail_boundary() {
        let (chips, tester) = setup();
        let chip = &chips[3];
        let v = tester
            .vmin_noiseless(chip, Celsius(25.0), Hours(0.0))
            .unwrap();
        assert!(tester.passes(chip, Volt(v.0 + 0.002), Celsius(25.0), Hours(0.0)));
        assert!(!tester.passes(chip, Volt(v.0 - 0.002), Celsius(25.0), Hours(0.0)));
    }

    #[test]
    fn vmin_increases_with_aging() {
        let (chips, tester) = setup();
        let mut grew = 0;
        for chip in chips.iter().take(10) {
            let v0 = tester
                .vmin_noiseless(chip, Celsius(25.0), Hours(0.0))
                .unwrap();
            let v1 = tester
                .vmin_noiseless(chip, Celsius(25.0), Hours(1008.0))
                .unwrap();
            // Aging raises Vth, which slows paths (Vmin up) but also cuts
            // leakage and therefore IR drop — a leakage-dominated outlier
            // can genuinely improve by a few tens of mV.
            assert!(
                v1.0 >= v0.0 - 0.05,
                "implausible Vmin improvement with aging"
            );
            if v1.0 > v0.0 + 0.002 {
                grew += 1;
            }
        }
        assert!(
            grew >= 8,
            "most chips should degrade measurably, got {grew}/10"
        );
    }

    #[test]
    fn cold_is_the_worst_corner() {
        // Temperature inversion at low VDD: −45 °C Vmin ≥ 125 °C Vmin for
        // most chips (matches the paper's hardest corner).
        let (chips, tester) = setup();
        let mut cold_worse = 0;
        for chip in chips.iter().take(20) {
            let vc = tester
                .vmin_noiseless(chip, Celsius(-45.0), Hours(0.0))
                .unwrap();
            let vh = tester
                .vmin_noiseless(chip, Celsius(125.0), Hours(0.0))
                .unwrap();
            if vc.0 > vh.0 {
                cold_worse += 1;
            }
        }
        assert!(
            cold_worse >= 15,
            "cold should dominate, got {cold_worse}/20"
        );
    }

    #[test]
    fn shmoo_agrees_with_bisection_within_step() {
        let (chips, tester) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for chip in chips.iter().take(10) {
            let exact = tester
                .vmin_noiseless(chip, Celsius(25.0), Hours(0.0))
                .unwrap();
            let (shmoo, evals) = tester
                .vmin_shmoo(&mut rng, chip, Celsius(25.0), Hours(0.0))
                .unwrap();
            // Shmoo reports the last passing step, which is within one step
            // above the exact boundary (plus measurement noise ~1.5 mV).
            assert!(
                (shmoo.0 - exact.0).abs() < tester.spec().shmoo_step.0 + 0.01,
                "shmoo {} vs exact {}",
                shmoo.0,
                exact.0
            );
            // The conventional flow takes many evaluations — this is the
            // cost the ML predictor avoids.
            assert!(evals > 50, "expected a long shmoo, got {evals} evaluations");
        }
    }

    #[test]
    fn measurement_noise_perturbs_repeat_reads() {
        let (chips, tester) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = tester
            .vmin_exact(&mut rng, &chips[0], Celsius(25.0), Hours(0.0))
            .unwrap();
        let b = tester
            .vmin_exact(&mut rng, &chips[0], Celsius(25.0), Hours(0.0))
            .unwrap();
        assert_ne!(a, b, "repeat measurements should differ by noise");
        assert!((a.0 - b.0).abs() < 0.02, "but only slightly");
    }

    #[test]
    fn spec_violation_flag() {
        let (_, tester) = setup();
        assert!(tester.violates_spec(Volt(0.75)));
        assert!(!tester.violates_spec(Volt(0.55)));
    }

    #[test]
    fn vmin_values_are_plausible_for_the_node() {
        let (chips, tester) = setup();
        let v = tester
            .vmin_noiseless(&chips[0], Celsius(25.0), Hours(0.0))
            .unwrap();
        assert!(
            v.0 > 0.40 && v.0 < 0.70,
            "25 °C time-0 Vmin should be mid-hundreds of mV, got {}",
            v.0
        );
    }
}
