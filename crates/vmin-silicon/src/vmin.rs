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
use crate::device::{dibl, DeviceParams, LeakageTerms, DIBL_SLOPE};
use crate::sampling::normal;
use crate::units::{Celsius, Hours, Picoseconds, Volt};
use vmin_rng::Rng;

/// Bisection steps of the reference search: the loop stops earlier once
/// the midpoint rounds onto an endpoint, never later.
const MAX_BISECTION_STEPS: usize = 60;

/// Relative delay margin a certified bracket demands at both ends, far
/// above the delay kernel's ≲1e-14 rounding (DESIGN.md §15).
const CERT_MARGIN: f64 = 1e-12;

/// Half-width (V) of a certified bracket around the estimated threshold.
const CERT_HALF_WIDTH: f64 = 2e-12;

/// Threshold estimates per certificate: the slowest path's, then one per
/// path that turns out to bind instead.
const MAX_ESTIMATES: usize = 4;

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
/// DIBL `exp`, the IR drop and one overdrive `powf` per path it visits.
/// Refilling reuses the path vector, so a caller that keeps one table per
/// worker (the streaming engine's per-shard scratch) searches without
/// heap allocation.
#[derive(Debug, Default)]
pub(crate) struct SearchTable {
    paths: Vec<PathRow>,
    supply: SupplyTerms,
    /// Predicate calls since the last flush.
    steps: u64,
    /// Path-delay evaluations (threshold estimate iterations included)
    /// since the last flush.
    evals: u64,
    /// Searches whose bisection ran with a certified bracket since the
    /// last flush.
    certified: u64,
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

    /// Whether row `row` evaluates at core supply `v_core` with a delay of
    /// at most `limit` ps.
    fn meets(&mut self, row: usize, v_core: Volt, limit: f64) -> bool {
        self.evals += 1;
        self.paths[row]
            .terms
            .delay(v_core)
            .is_some_and(|d| d.0 <= limit)
    }

    /// The first path (in table order) other than row `skip` that does
    /// not evaluate at core supply `v_core` or is slower than `limit` ps,
    /// or `None` when every other path meets `limit`.
    fn first_other_over(&mut self, v_core: Volt, limit: f64, skip: usize) -> Option<usize> {
        (0..self.paths.len()).find(|&i| i != skip && !self.meets(i, v_core, limit))
    }

    /// Orders the paths slowest-first by their last evaluated delay, so
    /// failing steps stop on the first path.
    fn rank_slowest_first(&mut self) {
        self.paths
            .sort_unstable_by(|a, b| b.delay.total_cmp(&a.delay));
    }

    /// Records the accumulated work counters and resets them. The shard
    /// loop behind both campaign entry points flushes once per shard, and
    /// each public search or predicate call once — never per step.
    pub(crate) fn flush_counters(&mut self) {
        vmin_trace::counter_add("silicon.vmin.bisect_steps", self.steps);
        vmin_trace::counter_add("silicon.device.evals", self.evals);
        vmin_trace::counter_add("silicon.vmin.certified", self.certified);
        self.steps = 0;
        self.evals = 0;
        self.certified = 0;
    }
}

/// A certified bracket `(a, b)` around a search's pass/fail threshold
/// and the one row that can fail inside it (see [`VminTester::certify`]).
#[derive(Debug, Clone, Copy)]
struct Bracket {
    /// Every supply ≤ `a` fails as computed.
    a: f64,
    /// Every supply ≥ `b` passes as computed.
    b: f64,
    /// The binding row: every other path passes at every supply ≥ `a`,
    /// so a step inside `(a, b)` evaluates only this row.
    row: usize,
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
        let pass = self.predicate(&mut table, v.0);
        table.flush_counters();
        pass
    }

    /// Core supply at pad supply `v`: `v` minus the chip's IR drop.
    fn core_supply(&self, table: &SearchTable, v: f64) -> Volt {
        let ir = table
            .supply
            .ir_drop(self.spec.ir_drop_per_leakage.0, Volt(v));
        Volt(v - ir)
    }

    /// The SCAN predicate on a filled table at pad supply `v`.
    fn predicate(&self, table: &mut SearchTable, v: f64) -> bool {
        table.steps += 1;
        let v_core = self.core_supply(table, v);
        table.scan(v_core, self.clock_period.0)
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
        let hi = self.spec.search_high.0;
        let lo = self.spec.search_low.0;
        if !self.predicate(table, hi) {
            return None;
        }
        table.rank_slowest_first();
        if self.predicate(table, lo) {
            return Some(Volt(lo));
        }
        let bracket = self.certify(table, lo, hi);
        table.certified += u64::from(bracket.is_some());
        Some(Volt(self.bisect(table, lo, hi, bracket)))
    }

    /// Proves a bracket `(a, b)` strictly inside `(lo, hi)` around the
    /// pass/fail threshold: every supply ≥ `b` passes as computed, every
    /// supply ≤ `a` fails as computed, and in between every path but the
    /// bracket's row passes. `None` when a precondition or a margin check
    /// fails; the search then evaluates every step.
    ///
    /// The threshold is estimated on the slowest path at `hi`. The
    /// estimated path must miss the clock by [`CERT_MARGIN`] at `a` and
    /// meet it by that margin at `b`, and every other path must meet it
    /// by the margin at `a`. The first other path that does not binds
    /// instead and gets the next estimate. Why the margins decide every
    /// supply beyond them: DESIGN.md §15, "Certified bracket".
    fn certify(&self, table: &mut SearchTable, lo: f64, hi: f64) -> Option<Bracket> {
        let ir_hi = table
            .supply
            .ir_drop(self.spec.ir_drop_per_leakage.0, Volt(hi));
        // Monotonicity preconditions: every delay falls as the core supply
        // rises, and the core supply rises with the pad supply (the IR
        // drop grows at most at the DIBL slope times itself).
        let monotone = DIBL_SLOPE * ir_hi < 1.0
            && table.paths.iter().all(|r| r.terms.gate.falls_with_supply());
        if !monotone {
            return None;
        }
        let clock = self.clock_period.0;
        let (meet_limit, miss_limit) = (clock * (1.0 - CERT_MARGIN), clock * (1.0 + CERT_MARGIN));
        let mut row = 0;
        for _ in 0..MAX_ESTIMATES {
            let terms = table.paths[row].terms;
            let v_hat = terms.supply_at_delay(clock, hi - ir_hi, &mut table.evals)? + ir_hi;
            let (a, b) = (v_hat - CERT_HALF_WIDTH, v_hat + CERT_HALF_WIDTH);
            if !(lo < a && b < hi) {
                return None;
            }
            let (core_a, core_b) = (self.core_supply(table, a), self.core_supply(table, b));
            // The estimated path misses the clock by the margin at `a` and
            // meets it by the margin at `b`.
            table.evals += 1;
            let misses_at_a = terms.delay(core_a).is_some_and(|d| d.0 >= miss_limit);
            if !(misses_at_a && table.meets(row, core_b, meet_limit)) {
                return None;
            }
            // Every other path within the margin at `a` passes at every
            // supply above it: only the estimated path can fail inside.
            match table.first_other_over(core_a, meet_limit, row) {
                None => return Some(Bracket { a, b, row }),
                // Another path binds: the next estimate runs on it.
                Some(binding) => row = binding,
            }
        }
        None
    }

    /// Bisects between a failing `lo` and a passing `hi`. With a certified
    /// `bracket` `(a, b)`, a midpoint ≥ `b` takes the pass branch and one
    /// ≤ `a` the fail branch without evaluating, and one inside `(a, b)`
    /// evaluates only the bracket's row. Without a bracket every midpoint
    /// calls the full predicate. Each evaluated midpoint is one predicate
    /// call.
    fn bisect(
        &self,
        table: &mut SearchTable,
        mut lo: f64,
        mut hi: f64,
        bracket: Option<Bracket>,
    ) -> f64 {
        // Invariant: fails at lo, passes at hi. Once the midpoint rounds
        // onto an endpoint, every further step would re-test that
        // endpoint's known outcome and leave both unchanged.
        for _ in 0..MAX_BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            if mid == lo || mid == hi {
                break;
            }
            let pass = match bracket {
                Some(Bracket { a, b, row }) => {
                    mid >= b || (mid > a && self.bracketed_predicate(table, mid, row))
                }
                None => self.predicate(table, mid),
            };
            if pass {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// The SCAN predicate at pad supply `v` inside a certified bracket,
    /// where every path but `row` passes: that row's check, one IR drop
    /// and one delay.
    fn bracketed_predicate(&self, table: &mut SearchTable, v: f64, row: usize) -> bool {
        table.steps += 1;
        let v_core = self.core_supply(table, v);
        table.meets(row, v_core, self.clock_period.0)
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
        table.flush_counters();
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
    use crate::process::ProcessSampler;
    use crate::stream::{chip_stream_seed, process_state_at};
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

    /// Searches counted by [`search_against_oracle`].
    #[derive(Debug, Default)]
    struct Tally {
        searches: usize,
        certified: usize,
        /// Searches that bisected without a certificate.
        fallbacks: usize,
        /// Path-delay evaluations of all the searches.
        evals: u64,
    }

    impl Tally {
        fn evals_per_search(&self) -> f64 {
            self.evals as f64 / self.searches as f64
        }
    }

    /// Chips `0..count` of `spec` fabricated from their per-chip streams,
    /// as `Campaign::run` and `CampaignStream` fabricate them.
    fn stream_chips(spec: &DatasetSpec, seed: u64, count: usize) -> Vec<Chip> {
        let factory = ChipFactory::new(spec.clone());
        let sampler = ProcessSampler::new(spec.process.clone());
        (0..count)
            .map(|idx| {
                let mut rng = ChaCha8Rng::seed_from_u64(chip_stream_seed(seed, idx));
                let process = process_state_at(&sampler, seed, idx, &mut rng);
                factory.fabricate_one(&mut rng, idx, process)
            })
            .collect()
    }

    /// Asserts that every search on `chips` at every (read point,
    /// temperature) of `spec` returns the bits of the oracle's unbroken
    /// bisection, and counts how the searches ran.
    fn search_against_oracle(spec: &DatasetSpec, chips: &[Chip]) -> Tally {
        let tester = VminTester::calibrated(spec.vmin_test.clone(), &nominal_chip(spec));
        let lo = tester.spec().search_low.0;
        let bits = |v: Option<Volt>| v.map(|v| v.0.to_bits());
        let mut table = SearchTable::default();
        let mut tally = Tally::default();
        for chip in chips {
            for &t in &spec.stress.read_points {
                for &temp in &spec.vmin_test.temperatures {
                    let before = table.certified;
                    let got = tester.search(&mut table, chip, temp, t);
                    assert_eq!(
                        bits(got),
                        bits(oracle::vmin_noiseless(&tester, chip, temp, t)),
                        "chip {} temp {} t {}",
                        chip.id,
                        temp.0,
                        t.0
                    );
                    let certified = table.certified > before;
                    tally.searches += 1;
                    tally.certified += usize::from(certified);
                    tally.fallbacks += usize::from(!certified && got.is_some_and(|v| v.0 > lo));
                }
            }
        }
        tally.evals = table.evals;
        tally
    }

    #[test]
    fn certified_search_matches_the_oracle_bisection_at_scale() {
        // The default-spec campaign (156 chips × 6 read points × 3
        // temperatures) and 2,048 streamed screening chips.
        let spec = DatasetSpec::default();
        let chips = stream_chips(&spec, 2024, spec.chip_count);
        let paper = search_against_oracle(&spec, &chips);
        assert_eq!(paper.searches, 2808);
        let screening_spec = DatasetSpec::screening(2048);
        let screening =
            search_against_oracle(&screening_spec, &stream_chips(&screening_spec, 2024, 2048));
        assert_eq!(screening.searches, 2048);
        for (tally, max_evals) in [(&paper, 100.0), (&screening, 40.0)] {
            assert!(
                tally.certified * 100 >= tally.searches * 99,
                "the fast path must carry the test: {tally:?}"
            );
            assert!(
                tally.evals_per_search() <= max_evals,
                "path evaluations per search {}: {tally:?}",
                tally.evals_per_search()
            );
        }
        // Both grids certify every search, so a chip is built to reach the
        // loop without a certificate: one path's threshold falls below
        // zero at 125 °C, which voids the monotonicity precondition there.
        let mut chip = chips[0].clone();
        chip.paths[1].local_vth_offset = Volt(-0.25);
        let forced = search_against_oracle(&spec, &[chip]);
        assert!(forced.fallbacks > 0, "{forced:?}");
        assert!(forced.certified > 0, "{forced:?}");
    }

    #[test]
    fn a_near_twin_inside_the_bracket_gets_no_certificate() {
        let (chips, tester) = oracle_population();
        let (temp, t) = (Celsius(25.0), Hours(0.0));
        let mut chip = chips[0].clone();
        // Move the binding path (the slowest one at Vmin) to the front.
        let vmin = tester.vmin_noiseless(&chip, temp, t).unwrap();
        let v_core = Volt(vmin.0 - tester.ir_drop(&chip, vmin, temp, t).0);
        let delays: Vec<f64> = chip
            .paths
            .iter()
            .map(|p| chip.path_delay(p, v_core, temp, t).unwrap().0)
            .collect();
        let binding = (0..delays.len())
            .max_by(|&i, &j| delays[i].total_cmp(&delays[j]))
            .unwrap();
        chip.paths.swap(0, binding);
        // Path 1 becomes its near-twin with local Vth raised by 1e-13 V:
        // the twin's threshold sits just above path 0's, inside any
        // bracket estimated on path 0, so the twin sets Vmin.
        let mut twin = chip.paths[0].clone();
        twin.local_vth_offset = Volt(twin.local_vth_offset.0 + 1e-13);
        chip.paths[1] = twin;
        let expected = oracle::vmin_noiseless(&tester, &chip, temp, t).unwrap();
        assert!(expected.0 > vmin.0, "the twin must bind");

        // The search's endpoint checks without the slowest-first ranking
        // (which would put the twin first): the estimate runs on row 0,
        // the lower twin. The twin fails at that bracket's `a`, so it
        // takes the next estimate, whose `a` the lower twin fails in turn:
        // no bracket can hold one twin alone.
        let (lo, hi) = (tester.spec().search_low.0, tester.spec().search_high.0);
        let mut table = SearchTable::default();
        table.fill(&chip, temp, t);
        assert!(tester.predicate(&mut table, hi));
        assert!(!tester.predicate(&mut table, lo));
        let bracket = tester.certify(&mut table, lo, hi);
        assert!(bracket.is_none(), "{bracket:?}");
        // The search bisects without a certificate and still matches.
        let mut table = SearchTable::default();
        let searched = tester.search(&mut table, &chip, temp, t).unwrap();
        assert_eq!(table.certified, 0);
        assert_eq!(searched.0.to_bits(), expected.0.to_bits());
    }

    #[test]
    fn certified_search_makes_at_most_24_predicate_calls() {
        let (chips, tester) = oracle_population();
        let mut table = SearchTable::default();
        let v = tester.search(&mut table, &chips[0], Celsius(25.0), Hours(0.0));
        assert!(v.is_some());
        assert_eq!(table.certified, 1);
        // Two endpoint checks plus the steps whose midpoint falls inside
        // the certified bracket.
        assert!(table.steps <= 24, "predicate calls {}", table.steps);
    }

    #[test]
    fn uncertified_search_stops_once_the_midpoint_collapses() {
        let (chips, tester) = oracle_population();
        let chip = &chips[0];
        let (temp, t) = (Celsius(25.0), Hours(0.0));
        let (lo, hi) = (tester.spec().search_low.0, tester.spec().search_high.0);
        // The search's endpoint checks, then its loop without a certificate.
        let mut table = SearchTable::default();
        table.fill(chip, temp, t);
        assert!(tester.predicate(&mut table, hi));
        table.rank_slowest_first();
        assert!(!tester.predicate(&mut table, lo));
        let v = tester.bisect(&mut table, lo, hi, None);
        let certified = tester.vmin_noiseless(chip, temp, t).unwrap();
        assert_eq!(v.to_bits(), certified.0.to_bits());
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

    #[test]
    fn passes_and_shmoo_flush_their_work_counters() {
        let (chips, tester) = setup();
        let (temp, t) = (Celsius(25.0), Hours(0.0));
        let prev = vmin_trace::set_enabled(true);
        let (shmoo, shmoo_snap) = vmin_trace::with_collector(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            tester.vmin_shmoo(&mut rng, &chips[0], temp, t)
        });
        let (_, passes_snap) = vmin_trace::with_collector(|| {
            tester.passes(&chips[0], tester.spec().search_high, temp, t)
        });
        vmin_trace::set_enabled(prev);
        let (_, evaluations) = shmoo.expect("a healthy chip passes at the ceiling");
        assert_eq!(
            shmoo_snap.counters.get("silicon.vmin.bisect_steps"),
            Some(&(evaluations as u64))
        );
        assert!(shmoo_snap.counters.get("silicon.device.evals") >= Some(&(evaluations as u64)));
        assert_eq!(
            passes_snap.counters.get("silicon.vmin.bisect_steps"),
            Some(&1)
        );
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
