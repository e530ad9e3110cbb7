//! The full data-collection campaign of §IV-A: fabricate chips, run burn-in
//! stress, pause at each read point to test SCAN Vmin, run the parametric
//! program (time 0) and read the on-chip monitors.

use crate::aging::AgingModel;
use crate::chip::{Chip, ChipFactory, CriticalPath};
use crate::config::DatasetSpec;
use crate::monitor::MonitorBank;
use crate::parametric::ParametricProgram;
use crate::process::{ProcessSampler, ProcessState};
use crate::units::{Celsius, Hours, Volt};
use crate::vmin::{SearchTable, VminTester};
use vmin_rng::ChaCha8Rng;
use vmin_rng::Rng;
use vmin_rng::SeedableRng;

/// Minimum chips before the campaign spawns measurement workers; a chip is
/// a coarse work item (hundreds of Vmin bisection searches), so the
/// threshold is low.
const MIN_PAR_CHIPS: usize = 4;

/// Everything measured for one chip during the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipMeasurements {
    /// Chip index within the campaign.
    pub chip_id: usize,
    /// Ground truth: whether a defect was injected (not observable by the
    /// predictor; used for analysis only).
    pub defective: bool,
    /// Parametric test results at time 0 (program order).
    pub parametric: Vec<f64>,
    /// ROD readouts per read point: `rod[k][j]` = oscillator `j` at read
    /// point `k`.
    pub rod: Vec<Vec<f64>>,
    /// CPD readouts per read point: `cpd[k][j]`.
    pub cpd: Vec<Vec<f64>>,
    /// Measured SCAN Vmin in millivolts: `vmin_mv[k][t]` = read point `k`,
    /// temperature index `t`.
    pub vmin_mv: Vec<Vec<f64>>,
}

/// The result of a full burn-in campaign on a chip population.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// The specification the campaign ran under.
    pub spec: DatasetSpec,
    /// Stress read points, ascending.
    pub read_points: Vec<Hours>,
    /// Vmin test temperatures, in spec order.
    pub temperatures: Vec<Celsius>,
    /// Names of the parametric features, program order.
    pub parametric_names: Vec<String>,
    /// Per-chip measurements, chip order.
    pub chips: Vec<ChipMeasurements>,
    /// The calibrated tester clock period (ps), for reference.
    pub clock_period_ps: f64,
}

impl Campaign {
    /// Runs the campaign with a deterministic seed.
    ///
    /// All randomness (fabrication, measurement noise) flows from `seed`, so
    /// two calls with equal `spec` and `seed` produce identical data.
    ///
    /// Chips are fabricated *and* measured in parallel (see `vmin-par`):
    /// the master stream draws only the shared parametric program, and
    /// every other draw comes from a counter-derived substream — per-lot
    /// and per-wafer streams for the shared shifts, one private stream per
    /// chip for everything else (see `stream::chip_stream_seed`). No
    /// chip's randomness depends on any other chip's, so the campaign is
    /// bit-identical at any `VMIN_THREADS` value and, chunk for chunk, to
    /// the streaming engine (`CampaignStream`).
    pub fn run(spec: &DatasetSpec, seed: u64) -> Campaign {
        let _span = vmin_trace::span("silicon.campaign.run");
        vmin_trace::counter_add("silicon.campaign.runs", 1);
        vmin_trace::counter_add("silicon.chips.fabricated", spec.chip_count as u64);
        vmin_trace::counter_add(
            "silicon.vmin.searches",
            (spec.chip_count as u64)
                * (spec.stress.read_points.len() as u64)
                * (spec.vmin_test.temperatures.len() as u64),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let program = ParametricProgram::generate(&mut rng, &spec.parametric);
        let tester = VminTester::calibrated(spec.vmin_test.clone(), &nominal_chip(spec));

        let factory = ChipFactory::new(spec.clone());
        let sampler = ProcessSampler::new(spec.process.clone());
        let read_points = spec.stress.read_points.clone();
        let temperatures = spec.vmin_test.temperatures.clone();

        let indices: Vec<usize> = (0..spec.chip_count).collect();
        let results = vmin_par::par_map(&indices, MIN_PAR_CHIPS, |_, &idx| {
            let mut rng = ChaCha8Rng::seed_from_u64(crate::stream::chip_stream_seed(seed, idx));
            let process = crate::stream::process_state_at(&sampler, seed, idx, &mut rng);
            let chip = factory.fabricate_one(&mut rng, idx, process);
            // Each die gets its own monitor instantiation (local mismatch).
            let bank = MonitorBank::instantiate(
                &mut rng,
                &spec.monitors,
                spec.paths_per_chip,
                spec.process.sigma_vth_local,
            );
            let parametric = program.run(&mut rng, &chip, Hours(0.0));
            let mut rod = Vec::with_capacity(read_points.len());
            let mut cpd = Vec::with_capacity(read_points.len());
            let mut vmin_mv = Vec::with_capacity(read_points.len());
            let mut table = SearchTable::default();
            for &rp in &read_points {
                rod.push(bank.read_rods(&mut rng, &chip, rp));
                cpd.push(bank.read_cpds(&mut rng, &chip, rp));
                let mut per_temp = Vec::with_capacity(temperatures.len());
                for &temp in &temperatures {
                    let v = measure_vmin(&mut rng, &tester, &mut table, &chip, temp, rp);
                    per_temp.push(v.to_millivolts());
                }
                vmin_mv.push(per_temp);
            }
            table.flush_counters();
            ChipMeasurements {
                chip_id: chip.id,
                defective: chip.defective,
                parametric,
                rod,
                cpd,
                vmin_mv,
            }
        });

        Campaign {
            spec: spec.clone(),
            read_points,
            temperatures,
            parametric_names: program.names(),
            chips: results,
            clock_period_ps: tester.clock_period().0,
        }
    }

    /// Number of chips measured.
    pub fn chip_count(&self) -> usize {
        self.chips.len()
    }

    /// Vmin vector (mV) across chips for `(read_point_idx, temp_idx)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn vmin_column(&self, read_point_idx: usize, temp_idx: usize) -> Vec<f64> {
        self.chips
            .iter()
            .map(|c| c.vmin_mv[read_point_idx][temp_idx])
            .collect()
    }

    /// ROD feature names for read point `k`.
    pub fn rod_names(&self, read_point_idx: usize) -> Vec<String> {
        let h = self.read_points[read_point_idx].0;
        (0..self.spec.monitors.rod_count)
            .map(|j| rod_name(j, h))
            .collect()
    }

    /// CPD feature names for read point `k`.
    pub fn cpd_names(&self, read_point_idx: usize) -> Vec<String> {
        let h = self.read_points[read_point_idx].0;
        (0..self.spec.monitors.cpd_count)
            .map(|j| cpd_name(j, h))
            .collect()
    }
}

/// Canonical ROD feature name — shared by the campaign accessors and the
/// streaming CSV writer so their headers stay byte-identical.
pub(crate) fn rod_name(j: usize, h: f64) -> String {
    format!("rod_{j:03}_h{h:.0}")
}

/// Canonical CPD feature name (see [`rod_name`]).
pub(crate) fn cpd_name(j: usize, h: f64) -> String {
    format!("cpd_{j:02}_h{h:.0}")
}

/// Measures Vmin, falling back to the search ceiling for gross outliers that
/// fail even at the highest voltage (these would be yield fails in a real
/// flow; the campaign records them at the ceiling). `table` is the caller's
/// reusable search scratch; the caller flushes its counters.
pub(crate) fn measure_vmin<R: Rng + ?Sized>(
    rng: &mut R,
    tester: &VminTester,
    table: &mut SearchTable,
    chip: &Chip,
    temp: Celsius,
    t: Hours,
) -> Volt {
    tester
        .vmin_exact_in(rng, table, chip, temp, t)
        .unwrap_or(tester.spec().search_high)
}

/// Synthesizes a perfectly nominal chip for tester calibration: nominal
/// process corner, median paths, no defect, no aging variation.
pub fn nominal_chip(spec: &DatasetSpec) -> Chip {
    let process = ProcessState {
        vth_shift: Volt(0.0),
        leff_factor: 1.0,
        mobility_factor: 1.0,
        leakage_factor: 1.0,
        lot: 0,
        wafer: 0,
        die: 0,
    };
    let aging = AgingModel::new(spec.aging.clone(), spec.stress.clone(), 1.0);
    let paths = (0..spec.paths_per_chip)
        .map(|_| CriticalPath {
            local_vth_offset: Volt(0.0),
            depth: spec.path_depth,
            wire_delay_ps: 60.0,
            aging_sensitivity: 1.0,
            defect_penalty: 1.0,
        })
        .collect();
    Chip {
        id: usize::MAX,
        process,
        aging,
        paths,
        defective: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign() -> Campaign {
        Campaign::run(&DatasetSpec::small(), 2024)
    }

    #[test]
    fn campaign_shape_matches_spec() {
        let c = campaign();
        let spec = DatasetSpec::small();
        assert_eq!(c.chip_count(), spec.chip_count);
        assert_eq!(c.read_points.len(), 6);
        assert_eq!(c.temperatures.len(), 3);
        for chip in &c.chips {
            assert_eq!(chip.parametric.len(), spec.parametric.total_tests());
            assert_eq!(chip.rod.len(), 6);
            assert_eq!(chip.cpd.len(), 6);
            assert_eq!(chip.vmin_mv.len(), 6);
            for k in 0..6 {
                assert_eq!(chip.rod[k].len(), spec.monitors.rod_count);
                assert_eq!(chip.cpd[k].len(), spec.monitors.cpd_count);
                assert_eq!(chip.vmin_mv[k].len(), 3);
            }
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = Campaign::run(&DatasetSpec::small(), 7);
        let b = Campaign::run(&DatasetSpec::small(), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_campaign_is_bit_identical_to_serial() {
        let serial = vmin_par::with_threads(1, || Campaign::run(&DatasetSpec::small(), 7));
        for threads in [2, 3, 8] {
            let par = vmin_par::with_threads(threads, || Campaign::run(&DatasetSpec::small(), 7));
            assert_eq!(par, serial, "threads {threads}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Campaign::run(&DatasetSpec::small(), 1);
        let b = Campaign::run(&DatasetSpec::small(), 2);
        assert_ne!(a.chips[0].vmin_mv, b.chips[0].vmin_mv);
    }

    #[test]
    fn vmin_mostly_degrades_with_stress() {
        let c = campaign();
        let temp25 = 1; // index of 25 °C
        let mut grew = 0;
        for chip in &c.chips {
            if chip.vmin_mv[5][temp25] > chip.vmin_mv[0][temp25] {
                grew += 1;
            }
        }
        let frac = grew as f64 / c.chip_count() as f64;
        assert!(frac > 0.85, "most chips should degrade, got {frac}");
    }

    #[test]
    fn vmin_population_spread_is_tens_of_millivolts() {
        let c = campaign();
        let col = c.vmin_column(0, 1);
        let mean = col.iter().sum::<f64>() / col.len() as f64;
        let sd =
            (col.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (col.len() - 1) as f64).sqrt();
        assert!(
            sd > 3.0 && sd < 80.0,
            "population Vmin sigma should be O(10 mV), got {sd} mV"
        );
        assert!(mean > 400.0 && mean < 700.0, "mean Vmin {mean} mV");
    }

    #[test]
    fn cold_corner_has_highest_vmin_on_average() {
        let c = campaign();
        let mean = |tidx: usize| {
            let col = c.vmin_column(0, tidx);
            col.iter().sum::<f64>() / col.len() as f64
        };
        let cold = mean(0);
        let room = mean(1);
        let hot = mean(2);
        assert!(cold > room, "cold {cold} should exceed room {room}");
        assert!(cold > hot, "cold {cold} should exceed hot {hot}");
    }

    #[test]
    fn feature_names_are_well_formed() {
        let c = campaign();
        assert_eq!(
            c.parametric_names.len(),
            DatasetSpec::small().parametric.total_tests()
        );
        let rods = c.rod_names(1);
        assert!(rods[0].contains("h24"));
        let cpds = c.cpd_names(5);
        assert!(cpds[0].contains("h1008"));
    }

    #[test]
    fn nominal_chip_meets_timing_at_calibration_point() {
        let spec = DatasetSpec::small();
        let chip = nominal_chip(&spec);
        let tester = VminTester::calibrated(spec.vmin_test.clone(), &chip);
        // By construction, the nominal chip's Vmin equals the calibration
        // voltage (up to bisection resolution).
        let v = tester
            .vmin_noiseless(&chip, spec.vmin_test.calibration_temperature, Hours(0.0))
            .unwrap();
        assert!((v.0 - spec.vmin_test.calibration_voltage.0).abs() < 1e-6);
    }
}
