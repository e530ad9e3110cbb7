//! Parametric ATE tests: IDDQ vectors, trip IDD and pin leakage across
//! three temperatures, plus process-insensitive "artifact" tests.
//!
//! Real production parametric data is huge (1800 tests here, per Table II),
//! highly redundant (hundreds of IDDQ vectors all riding the same chip
//! leakage factor) and noisy. The generator reproduces that structure: each
//! test has a fixed *signature* (loadings onto the chip's latent leakage,
//! Vth, Leff and mobility state plus an idiosyncratic noise level), shared
//! across all chips of a campaign.

use crate::chip::Chip;
use crate::config::ParametricSpec;
use crate::device::dibl;
use crate::sampling::{lognormal, normal};
use crate::units::{Celsius, Hours, Volt};
use vmin_rng::Rng;

/// The category of a parametric test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParametricKind {
    /// Quiescent supply current under a scan vector.
    Iddq,
    /// Dynamic trip supply current under a functional pattern.
    TripIdd,
    /// Single-pin leakage.
    PinLeakage,
    /// Process-insensitive tester artifact (contact resistance, etc.).
    Artifact,
}

/// Immutable description of one parametric test in the program.
#[derive(Debug, Clone, PartialEq)]
pub struct ParametricTest {
    /// Category.
    pub kind: ParametricKind,
    /// Temperature the test runs at.
    pub temperature: Celsius,
    /// Vector-specific scale factor (how much of the chip the vector
    /// exercises).
    pub scale: f64,
    /// Loading onto the chip's dynamic (mobility/activity) component, used
    /// by trip-IDD tests.
    pub dynamic_loading: f64,
    /// Idiosyncratic relative noise of this test.
    pub noise_rel: f64,
    /// Test name, e.g. `iddq_v017_25C`.
    pub name: String,
}

/// A fixed parametric test program: the same tests applied to every chip.
#[derive(Debug, Clone, PartialEq)]
pub struct ParametricProgram {
    tests: Vec<ParametricTest>,
    spec: ParametricSpec,
}

impl ParametricProgram {
    /// Generates the test program (test signatures) for a campaign.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, spec: &ParametricSpec) -> Self {
        let mut tests = Vec::with_capacity(spec.total_tests());
        for &temp in &spec.temperatures {
            let tag = format_temp(temp);
            for i in 0..spec.iddq_per_temp {
                tests.push(ParametricTest {
                    kind: ParametricKind::Iddq,
                    temperature: temp,
                    scale: lognormal(rng, 0.0, 0.5),
                    dynamic_loading: 0.0,
                    noise_rel: spec.noise_rel * lognormal(rng, 0.0, 0.3),
                    name: format!("iddq_v{i:03}_{tag}"),
                });
            }
            for i in 0..spec.trip_idd_per_temp {
                tests.push(ParametricTest {
                    kind: ParametricKind::TripIdd,
                    temperature: temp,
                    scale: lognormal(rng, 0.0, 0.3),
                    dynamic_loading: rng.gen_range(0.5..0.9),
                    noise_rel: spec.noise_rel * lognormal(rng, 0.0, 0.3),
                    name: format!("trip_idd_p{i:03}_{tag}"),
                });
            }
            for i in 0..spec.leakage_per_temp {
                tests.push(ParametricTest {
                    kind: ParametricKind::PinLeakage,
                    temperature: temp,
                    scale: lognormal(rng, 0.0, 0.8),
                    dynamic_loading: 0.0,
                    noise_rel: spec.noise_rel * 2.0 * lognormal(rng, 0.0, 0.3),
                    name: format!("pin_leak_{i:03}_{tag}"),
                });
            }
            for i in 0..spec.artifact_per_temp {
                tests.push(ParametricTest {
                    kind: ParametricKind::Artifact,
                    temperature: temp,
                    scale: lognormal(rng, 0.0, 0.2),
                    dynamic_loading: 0.0,
                    noise_rel: 0.10,
                    name: format!("artifact_{i:03}_{tag}"),
                });
            }
        }
        ParametricProgram {
            tests,
            spec: spec.clone(),
        }
    }

    /// Number of tests in the program.
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// True when the program contains no tests.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// Borrow of the test descriptors.
    pub fn tests(&self) -> &[ParametricTest] {
        &self.tests
    }

    /// Test names, in feature order.
    pub fn names(&self) -> Vec<String> {
        self.tests.iter().map(|t| t.name.clone()).collect()
    }

    /// Runs the full program on `chip` at stress time `t`, returning one
    /// value per test (in program order) with measurement noise.
    pub fn run<R: Rng + ?Sized>(&self, rng: &mut R, chip: &Chip, t: Hours) -> Vec<f64> {
        let mut out = vec![0.0; self.tests.len()];
        self.run_into(rng, chip, t, &mut out);
        out
    }

    /// [`Self::run`] into a caller-provided slice (`out.len()` must equal
    /// the program length) — same draws, no allocation.
    pub fn run_into<R: Rng + ?Sized>(&self, rng: &mut R, chip: &Chip, t: Hours, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.tests.len());
        let vdd = Volt(0.75);
        let bias = dibl(vdd);
        let unit_shift = chip.aging.unit_shift(t);
        // Chip leakage and its pin-leakage power depend only on the test
        // temperature; the program lists tests grouped by temperature, so
        // each group computes them once.
        let mut leak_at: Option<(Celsius, f64, f64)> = None;
        for (slot, test) in out.iter_mut().zip(&self.tests) {
            let (leak, leak_pow) = match leak_at {
                Some((temp, leak, leak_pow)) if temp == test.temperature => (leak, leak_pow),
                _ => {
                    let leak = chip
                        .leakage_terms(test.temperature, unit_shift)
                        .current(bias);
                    let leak_pow = leak.powf(0.7);
                    leak_at = Some((test.temperature, leak, leak_pow));
                    (leak, leak_pow)
                }
            };
            let base = match test.kind {
                ParametricKind::Iddq => {
                    // Quiescent current rides the chip leakage state.
                    test.scale * leak
                }
                ParametricKind::TripIdd => {
                    // Dynamic + leakage mix; dynamic part rides mobility
                    // (fast chips draw more switching current).
                    let dynamic = chip.process.mobility_factor / chip.process.leff_factor;
                    test.scale
                        * (test.dynamic_loading * dynamic + (1.0 - test.dynamic_loading) * leak)
                }
                ParametricKind::PinLeakage => test.scale * leak_pow,
                ParametricKind::Artifact => test.scale,
            };
            *slot = base * (1.0 + normal(rng, 0.0, test.noise_rel));
        }
    }
}

fn format_temp(t: Celsius) -> String {
    if t.0 < 0.0 {
        format!("m{:.0}C", -t.0)
    } else {
        format!("{:.0}C", t.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipFactory;
    use crate::config::DatasetSpec;
    use vmin_rng::ChaCha8Rng;
    use vmin_rng::SeedableRng;

    fn setup() -> (Vec<Chip>, ParametricProgram) {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let spec = DatasetSpec::small();
        let chips = ChipFactory::new(spec.clone()).fabricate(&mut rng);
        let program = ParametricProgram::generate(&mut rng, &spec.parametric);
        (chips, program)
    }

    #[test]
    fn program_size_matches_spec() {
        let (_, program) = setup();
        assert_eq!(program.len(), DatasetSpec::small().parametric.total_tests());
        assert!(!program.is_empty());
    }

    #[test]
    fn default_program_is_1800_tests() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let program = ParametricProgram::generate(&mut rng, &ParametricSpec::default());
        assert_eq!(program.len(), 1800);
    }

    #[test]
    fn names_are_unique_and_tagged_by_temperature() {
        let (_, program) = setup();
        let names = program.names();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "test names must be unique");
        assert!(names.iter().any(|n| n.ends_with("m45C")));
        assert!(names.iter().any(|n| n.ends_with("125C")));
    }

    #[test]
    fn iddq_correlates_with_chip_leakage() {
        let (chips, program) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let iddq_idx = program
            .tests()
            .iter()
            .position(|t| t.kind == ParametricKind::Iddq && t.temperature == Celsius(25.0))
            .unwrap();
        let values: Vec<f64> = chips
            .iter()
            .map(|c| program.run(&mut rng, c, Hours(0.0))[iddq_idx])
            .collect();
        let leaks: Vec<f64> = chips
            .iter()
            .map(|c| c.chip_leakage(Volt(0.75), Celsius(25.0), Hours(0.0)))
            .collect();
        let r = pearson(&values, &leaks);
        assert!(r > 0.8, "IDDQ should track chip leakage, r={r}");
    }

    #[test]
    fn artifacts_do_not_track_process() {
        let (chips, program) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let idx = program
            .tests()
            .iter()
            .position(|t| t.kind == ParametricKind::Artifact)
            .unwrap();
        let values: Vec<f64> = chips
            .iter()
            .map(|c| program.run(&mut rng, c, Hours(0.0))[idx])
            .collect();
        let shifts: Vec<f64> = chips.iter().map(|c| c.process.vth_shift.0).collect();
        let r = pearson(&values, &shifts);
        assert!(r.abs() < 0.5, "artifact should be near-noise, r={r}");
    }

    #[test]
    fn hot_iddq_exceeds_cold_iddq() {
        let (chips, program) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let chip = &chips[0];
        let values = program.run(&mut rng, chip, Hours(0.0));
        let mean_at = |temp: Celsius| {
            let idx: Vec<usize> = program
                .tests()
                .iter()
                .enumerate()
                .filter(|(_, t)| t.kind == ParametricKind::Iddq && t.temperature == temp)
                .map(|(i, _)| i)
                .collect();
            idx.iter().map(|&i| values[i]).sum::<f64>() / idx.len() as f64
        };
        assert!(mean_at(Celsius(125.0)) > mean_at(Celsius(-45.0)));
    }

    #[test]
    fn all_outputs_finite_and_positive() {
        let (chips, program) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for chip in chips.iter().take(5) {
            for v in program.run(&mut rng, chip, Hours(0.0)) {
                assert!(v.is_finite());
                assert!(v > 0.0, "currents must be positive");
            }
        }
    }

    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let (mut c, mut va, mut vb) = (0.0, 0.0, 0.0);
        for i in 0..a.len() {
            c += (a[i] - ma) * (b[i] - mb);
            va += (a[i] - ma).powi(2);
            vb += (b[i] - mb).powi(2);
        }
        c / (va.sqrt() * vb.sqrt())
    }
}
