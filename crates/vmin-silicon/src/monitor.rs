//! On-chip monitors: ring-oscillator delay (ROD) sensors and in-situ
//! critical-path-delay (CPD) sensors.
//!
//! The paper's chip carries 168 ROD monitors (read on ATE at 25 °C) and 10
//! CPD monitors (read in the burn-in oven at 80 °C). Both sense the same
//! gate-level state as the SCAN-limiting paths:
//!
//! - Each **ring oscillator** has a Vth *flavour* offset, a stage count and a
//!   local mismatch term. It measures the chip's global process corner and —
//!   because it is read at every read point — the chip's aging *rate*.
//! - Each **CPD monitor** is a replica of one of the chip's real critical
//!   paths (that is what "in-situ critical path" means), so it carries local
//!   path information that no chip-average measurement can see.

use crate::aging::AgingDraws;
use crate::chip::{Chip, PathTerms};
use crate::config::MonitorSpec;
use crate::device::DeviceParams;
use crate::sampling::normal;
use crate::units::{Hours, Volt};
use vmin_rng::Rng;

/// Design parameters of one ring oscillator.
#[derive(Debug, Clone, PartialEq)]
pub struct RingOscillator {
    /// Flavour offset added to the chip Vth (V): LVT < 0, SVT = 0, HVT > 0.
    pub flavor_vth_offset: Volt,
    /// Number of inverter stages.
    pub stages: usize,
    /// This RO's local Vth mismatch (V), fixed at fabrication.
    pub local_vth_offset: Volt,
    /// Log-normal aging sensitivity of the RO devices.
    pub aging_sensitivity: f64,
    /// Fraction of the stage delay that is wire-dominated (ages less,
    /// responds less to voltage).
    pub wire_fraction: f64,
}

/// Design parameters of one in-situ critical-path-delay monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct CpdMonitor {
    /// Index of the chip path this monitor replicates.
    pub path_index: usize,
    /// Replica mismatch: the monitor copy differs from the functional path
    /// by this local Vth offset (V).
    pub replica_offset: Volt,
}

/// The monitor instrumentation of a single chip.
///
/// Monitors are *per chip* (each die's monitors have their own mismatch) but
/// share the same design inventory across the population.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorBank {
    /// Ring oscillators, length = `MonitorSpec::rod_count`.
    pub rods: Vec<RingOscillator>,
    /// CPD monitors, length = `MonitorSpec::cpd_count`.
    pub cpds: Vec<CpdMonitor>,
    spec: MonitorSpec,
}

impl MonitorBank {
    /// Instantiates the monitor bank for one chip.
    ///
    /// The flavour pattern cycles LVT/SVT/HVT with varying stage counts so
    /// that the 168 RODs span distinct device populations, as on the real
    /// chip.
    pub fn instantiate<R: Rng + ?Sized>(
        rng: &mut R,
        spec: &MonitorSpec,
        paths_per_chip: usize,
        sigma_vth_local: f64,
    ) -> Self {
        let mut bank = Self::empty(spec);
        bank.reinstantiate(rng, paths_per_chip, sigma_vth_local);
        bank
    }

    /// A bank with capacity reserved but no monitors drawn yet — scratch
    /// for [`Self::reinstantiate`].
    pub(crate) fn empty(spec: &MonitorSpec) -> Self {
        MonitorBank {
            rods: Vec::with_capacity(spec.rod_count),
            cpds: Vec::with_capacity(spec.cpd_count),
            spec: spec.clone(),
        }
    }

    /// Redraws this bank's per-die mismatch in place for a new chip,
    /// reusing the rod/cpd allocations. Draw order and results are
    /// identical to [`Self::instantiate`] — this is the scratch-friendly
    /// form whose body the streaming campaign's hot loop runs.
    pub fn reinstantiate<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        paths_per_chip: usize,
        sigma_vth_local: f64,
    ) {
        self.reinstantiate_with(
            rng,
            paths_per_chip,
            sigma_vth_local,
            &mut AgingDraws::new(None),
        );
    }

    /// [`Self::reinstantiate`] with each ROD's aging sensitivity taken as
    /// `draws` directs.
    pub(crate) fn reinstantiate_with<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        paths_per_chip: usize,
        sigma_vth_local: f64,
        draws: &mut AgingDraws<'_>,
    ) {
        let flavors = [-0.03, 0.0, 0.03]; // LVT, SVT, HVT offsets (V)
        let stage_options = [11, 15, 21, 31];
        self.rods.clear();
        for i in 0..self.spec.rod_count {
            self.rods.push(RingOscillator {
                flavor_vth_offset: Volt(flavors[i % flavors.len()]),
                stages: stage_options[(i / flavors.len()) % stage_options.len()],
                local_vth_offset: Volt(normal(rng, 0.0, sigma_vth_local * 0.6)),
                aging_sensitivity: draws.sensitivity(rng, 0.15),
                wire_fraction: 0.1 + 0.2 * ((i % 5) as f64 / 4.0),
            });
        }
        self.cpds.clear();
        for i in 0..self.spec.cpd_count {
            self.cpds.push(CpdMonitor {
                path_index: i % paths_per_chip.max(1),
                replica_offset: Volt(normal(rng, 0.0, sigma_vth_local * 0.3)),
            });
        }
    }

    /// Borrow of the monitor spec.
    pub fn spec(&self) -> &MonitorSpec {
        &self.spec
    }

    /// Noise-free ROD readout (per-stage delay in ps) of oscillator `ro` on
    /// `chip` at stress time `t`, at the spec's ROD voltage/temperature.
    ///
    /// Returns `f64::NAN`-free values: if the RO cannot oscillate at the
    /// readout point (never happens at nominal voltage), the stage delay
    /// saturates at a large sentinel handled by the caller.
    pub fn rod_value(&self, chip: &Chip, ro: &RingOscillator, t: Hours) -> f64 {
        let mobility = chip.mobility_at(self.spec.rod_temperature);
        self.rod_value_at(chip, ro, chip.aging.unit_shift(t), mobility)
    }

    /// [`Self::rod_value`] given the chip's unscaled aging shift and its
    /// `μ` at the ROD temperature, which a read computes once for the bank.
    fn rod_value_at(
        &self,
        chip: &Chip,
        ro: &RingOscillator,
        unit_shift: f64,
        mobility: f64,
    ) -> f64 {
        let aged = unit_shift * ro.aging_sensitivity;
        let dev = DeviceParams {
            vth25: Volt(
                0.30 + chip.process.vth_shift.0
                    + ro.flavor_vth_offset.0
                    + ro.local_vth_offset.0
                    + aged,
            ),
            leff_factor: chip.process.leff_factor,
            mobility_factor: chip.process.mobility_factor,
            unit_delay_ps: 8.0,
        };
        let terms = dev.delay_terms(self.spec.rod_temperature, mobility);
        match terms.gate_delay(self.spec.rod_voltage) {
            Some(d) => d.0 * (1.0 - ro.wire_fraction) + d.0 * ro.wire_fraction * 0.5,
            None => 1e6,
        }
    }

    /// Noise-free CPD readout (path delay in ps) of monitor `m` on `chip` at
    /// stress time `t`, at the spec's CPD voltage/temperature.
    pub fn cpd_value(&self, chip: &Chip, m: &CpdMonitor, t: Hours) -> f64 {
        let mobility = chip.mobility_at(self.spec.cpd_temperature);
        self.cpd_value_at(chip, m, chip.aging.unit_shift(t), mobility)
    }

    /// [`Self::cpd_value`] given the chip's unscaled aging shift and its
    /// `μ` at the CPD temperature.
    fn cpd_value_at(&self, chip: &Chip, m: &CpdMonitor, unit_shift: f64, mobility: f64) -> f64 {
        let path = &chip.paths[m.path_index.min(chip.paths.len() - 1)];
        // The replica copies the functional path but with its own mismatch
        // and without the defect penalty (the replica is physically separate).
        let aged = unit_shift * path.aging_sensitivity;
        let dev = DeviceParams {
            vth25: Volt(
                0.30 + chip.process.vth_shift.0
                    + path.local_vth_offset.0
                    + m.replica_offset.0
                    + aged,
            ),
            leff_factor: chip.process.leff_factor,
            mobility_factor: chip.process.mobility_factor,
            unit_delay_ps: 8.0,
        };
        let replica = PathTerms {
            gate: dev.delay_terms(self.spec.cpd_temperature, mobility),
            depth: path.depth as f64,
            wire_ps: path.wire_delay_ps,
        };
        match replica.delay(self.spec.cpd_voltage) {
            Some(d) => d.0,
            None => 1e6,
        }
    }

    /// All ROD readouts at stress time `t`, with measurement noise.
    pub fn read_rods<R: Rng + ?Sized>(&self, rng: &mut R, chip: &Chip, t: Hours) -> Vec<f64> {
        let mut out = vec![0.0; self.rods.len()];
        self.read_rods_into(rng, chip, t, &mut out);
        out
    }

    /// [`Self::read_rods`] into a caller-provided slice (`out.len()` must
    /// equal the ROD count) — same draws, no allocation.
    pub fn read_rods_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        chip: &Chip,
        t: Hours,
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), self.rods.len());
        let unit_shift = chip.aging.unit_shift(t);
        let mobility = chip.mobility_at(self.spec.rod_temperature);
        for (slot, ro) in out.iter_mut().zip(&self.rods) {
            let v = self.rod_value_at(chip, ro, unit_shift, mobility);
            *slot = v * (1.0 + normal(rng, 0.0, self.spec.rod_noise_rel));
        }
    }

    /// All CPD readouts at stress time `t`, with measurement noise.
    pub fn read_cpds<R: Rng + ?Sized>(&self, rng: &mut R, chip: &Chip, t: Hours) -> Vec<f64> {
        let mut out = vec![0.0; self.cpds.len()];
        self.read_cpds_into(rng, chip, t, &mut out);
        out
    }

    /// [`Self::read_cpds`] into a caller-provided slice (`out.len()` must
    /// equal the CPD count) — same draws, no allocation.
    pub fn read_cpds_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        chip: &Chip,
        t: Hours,
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), self.cpds.len());
        let unit_shift = chip.aging.unit_shift(t);
        let mobility = chip.mobility_at(self.spec.cpd_temperature);
        for (slot, m) in out.iter_mut().zip(&self.cpds) {
            let v = self.cpd_value_at(chip, m, unit_shift, mobility);
            *slot = v * (1.0 + normal(rng, 0.0, self.spec.cpd_noise_rel));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipFactory;
    use crate::config::DatasetSpec;
    use vmin_rng::ChaCha8Rng;
    use vmin_rng::SeedableRng;

    fn setup() -> (Vec<Chip>, MonitorBank) {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let spec = DatasetSpec::small();
        let chips = ChipFactory::new(spec.clone()).fabricate(&mut rng);
        let bank = MonitorBank::instantiate(
            &mut rng,
            &spec.monitors,
            spec.paths_per_chip,
            spec.process.sigma_vth_local,
        );
        (chips, bank)
    }

    #[test]
    fn bank_sizes_match_spec() {
        let (_, bank) = setup();
        let spec = DatasetSpec::small();
        assert_eq!(bank.rods.len(), spec.monitors.rod_count);
        assert_eq!(bank.cpds.len(), spec.monitors.cpd_count);
    }

    #[test]
    fn rod_tracks_aging() {
        let (chips, bank) = setup();
        let chip = &chips[0];
        let ro = &bank.rods[0];
        let fresh = bank.rod_value(chip, ro, Hours(0.0));
        let aged = bank.rod_value(chip, ro, Hours(1008.0));
        assert!(aged > fresh, "RO must slow down with aging");
    }

    #[test]
    fn cpd_tracks_aging() {
        let (chips, bank) = setup();
        let chip = &chips[0];
        let m = &bank.cpds[0];
        assert!(bank.cpd_value(chip, m, Hours(504.0)) > bank.cpd_value(chip, m, Hours(0.0)));
    }

    #[test]
    fn slow_corner_chips_have_slow_monitors() {
        let (chips, bank) = setup();
        // Correlate chip speed (worst path delay at nominal bias) with mean
        // RO delay: the RO senses the same global corner, so r should be
        // high. (Vth shift alone is the wrong target — mobility and Leff
        // also move both quantities.)
        let shifts: Vec<f64> = chips
            .iter()
            .map(|c| {
                c.worst_path_delay(Volt(0.75), crate::units::Celsius(25.0), Hours(0.0))
                    .unwrap()
                    .0
            })
            .collect();
        let means: Vec<f64> = chips
            .iter()
            .map(|c| {
                bank.rods
                    .iter()
                    .map(|ro| bank.rod_value(c, ro, Hours(0.0)))
                    .sum::<f64>()
                    / bank.rods.len() as f64
            })
            .collect();
        let n = shifts.len() as f64;
        let ms = shifts.iter().sum::<f64>() / n;
        let mm = means.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut vs = 0.0;
        let mut vm = 0.0;
        for i in 0..shifts.len() {
            cov += (shifts[i] - ms) * (means[i] - mm);
            vs += (shifts[i] - ms).powi(2);
            vm += (means[i] - mm).powi(2);
        }
        let r = cov / (vs.sqrt() * vm.sqrt());
        assert!(r > 0.6, "RO delay should track process corner, r={r}");
    }

    #[test]
    fn flavors_differ() {
        let (chips, bank) = setup();
        let chip = &chips[0];
        // LVT (index 0) is faster than HVT (index 2) at the same conditions.
        let lvt = bank.rod_value(chip, &bank.rods[0], Hours(0.0));
        let hvt = bank.rod_value(chip, &bank.rods[2], Hours(0.0));
        assert!(lvt < hvt, "LVT RO should be faster than HVT RO");
    }

    #[test]
    fn noisy_reads_are_near_true_value() {
        let (chips, bank) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let chip = &chips[2];
        let noisy = bank.read_rods(&mut rng, chip, Hours(0.0));
        for (ro, nv) in bank.rods.iter().zip(&noisy) {
            let tv = bank.rod_value(chip, ro, Hours(0.0));
            assert!((nv - tv).abs() / tv < 0.05, "noise should be small");
        }
        let cpd_noisy = bank.read_cpds(&mut rng, chip, Hours(0.0));
        assert_eq!(cpd_noisy.len(), bank.cpds.len());
    }

    #[test]
    fn cpd_replicates_real_paths() {
        let (_, bank) = setup();
        let paths = DatasetSpec::small().paths_per_chip;
        for m in &bank.cpds {
            assert!(m.path_index < paths);
        }
    }
}
