//! First-order device models: gate delay (alpha-power law), temperature
//! dependence, and leakage currents.
//!
//! These are deliberately simple analytic models — the goal is to reproduce
//! the *statistical* structure that couples on-chip monitors, parametric
//! tests and SCAN Vmin, not SPICE accuracy. The key physical effects kept:
//!
//! - **Alpha-power-law saturation current**: gate delay ∝ `V / (V − Vth)^α`,
//!   which diverges as the supply approaches threshold — this is what makes
//!   Vmin a sharp, well-defined quantity.
//! - **Temperature inversion**: `Vth` falls with temperature while mobility
//!   falls too; near threshold the Vth term dominates, so the chip is slowest
//!   *cold* — matching the paper, where −45 °C Vmin is the hardest corner.
//! - **Exponential subthreshold leakage** in `−Vth/S` with strong temperature
//!   activation, which drives IDDQ-style parametric tests.

use crate::units::{Celsius, Picoseconds, Volt};

/// Velocity-saturation exponent of the alpha-power law (≈1.3 for deeply
/// scaled nodes).
pub const ALPHA: f64 = 1.3;

/// Vth temperature coefficient in V/°C (threshold drops when hot).
///
/// Chosen together with [`MOBILITY_TEMP_EXP`] so that the temperature
/// inversion point sits *above* the Vmin range: near threshold the Vth term
/// dominates and the chip is slowest cold, as on the paper's silicon.
pub const VTH_TEMP_COEFF: f64 = -0.0012;

/// Mobility temperature exponent: μ ∝ (T_K / 298.15)^MOBILITY_TEMP_EXP.
pub const MOBILITY_TEMP_EXP: f64 = -1.1;

/// Subthreshold swing at 25 °C in volts/decade, converted to the natural-log
/// slope internally.
pub const SUBTHRESHOLD_SWING: f64 = 0.075;

/// Electrical state of one "equivalent device" (a gate archetype): its
/// threshold voltage at 25 °C and multiplicative drive/geometry factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// Threshold voltage at 25 °C (V), including all process shifts and any
    /// accumulated aging ΔVth.
    pub vth25: Volt,
    /// Multiplicative channel-length factor (1.0 = nominal; >1 = longer,
    /// slower, lower leakage).
    pub leff_factor: f64,
    /// Multiplicative mobility factor (1.0 = nominal; >1 = faster).
    pub mobility_factor: f64,
    /// Unit delay scale of this gate archetype at the calibration point (ps).
    pub unit_delay_ps: f64,
}

impl Default for DeviceParams {
    fn default() -> Self {
        DeviceParams {
            vth25: Volt(0.30),
            leff_factor: 1.0,
            mobility_factor: 1.0,
            unit_delay_ps: 8.0,
        }
    }
}

impl DeviceParams {
    /// Effective threshold voltage at temperature `t` (V).
    pub fn vth_at(&self, t: Celsius) -> Volt {
        Volt(self.vth25.0 + VTH_TEMP_COEFF * (t.0 - 25.0))
    }

    /// Effective mobility factor at temperature `t` (dimensionless, relative
    /// to 25 °C nominal).
    pub fn mobility_at(&self, t: Celsius) -> f64 {
        mobility_at(self.mobility_factor, t)
    }

    /// The voltage-independent part of [`Self::gate_delay`] at temperature
    /// `t`; [`DelayTerms::gate_delay`] is the voltage kernel. `mobility`
    /// must be `self.mobility_at(t)`: devices sharing one mobility factor
    /// (every path of a chip) compute it once.
    pub(crate) fn delay_terms(&self, t: Celsius, mobility: f64) -> DelayTerms {
        DelayTerms {
            drive: self.unit_delay_ps * self.leff_factor,
            vth: self.vth_at(t).0,
            mobility,
        }
    }

    /// Gate delay at supply `v` and temperature `t` via the alpha-power law:
    ///
    /// `d(V, T) = d_unit · Leff · V / (μ(T) · (V − Vth(T))^α)`
    ///
    /// Returns `None` when `v` is at or below the effective threshold (the
    /// gate does not switch — infinite delay).
    ///
    /// # Examples
    ///
    /// ```
    /// use vmin_silicon::{Celsius, DeviceParams, Volt};
    ///
    /// let dev = DeviceParams::default();
    /// let fast = dev.gate_delay(Volt(0.75), Celsius(25.0)).unwrap();
    /// let slow = dev.gate_delay(Volt(0.45), Celsius(25.0)).unwrap();
    /// assert!(slow.0 > fast.0);
    /// assert!(dev.gate_delay(Volt(0.25), Celsius(25.0)).is_none());
    /// ```
    pub fn gate_delay(&self, v: Volt, t: Celsius) -> Option<Picoseconds> {
        self.delay_terms(t, self.mobility_at(t)).gate_delay(v)
    }

    /// The voltage-independent part of [`Self::leakage`] at temperature
    /// `t`; [`LeakageTerms::current`] is the voltage kernel.
    pub(crate) fn leakage_terms(&self, t: Celsius) -> LeakageTerms {
        let tk = t.to_kelvin();
        // Subthreshold swing scales linearly with absolute temperature.
        let swing = SUBTHRESHOLD_SWING * tk / 298.15;
        let slope = swing / std::f64::consts::LN_10;
        let vth = self.vth_at(t);
        // Reference: nominal Vth at 25 °C, nominal bias.
        let slope25 = SUBTHRESHOLD_SWING / std::f64::consts::LN_10;
        let i_ref = (-0.30 / slope25).exp();
        LeakageTerms {
            prefactor: (-vth.0 / slope).exp() / i_ref,
            leff: self.leff_factor,
        }
    }

    /// Subthreshold leakage current factor, normalized so a nominal device
    /// (Vth = 0.30 V) at 25 °C and VDD = 0.75 V reads 1.0.
    ///
    /// `I ∝ exp(−Vth(T)/S(T)) · DIBL(V) / Leff` where the subthreshold slope
    /// `S` widens linearly with absolute temperature — so hot leakage is
    /// orders of magnitude above cold, as in real silicon.
    pub fn leakage(&self, v: Volt, t: Celsius) -> f64 {
        self.leakage_terms(t).current(dibl(v))
    }
}

/// `μ(T)` of a device with mobility factor `factor` — the one
/// implementation behind [`DeviceParams::mobility_at`] and the per-chip
/// search tables, which share it across every path.
pub(crate) fn mobility_at(factor: f64, t: Celsius) -> f64 {
    factor * (t.to_kelvin() / 298.15).powf(MOBILITY_TEMP_EXP)
}

/// Exponential slope (1/V) of the DIBL factor [`dibl`].
pub(crate) const DIBL_SLOPE: f64 = 1.2;

/// DIBL factor of the leakage model at drain bias `v`: leakage grows
/// roughly exponentially with drain bias. One value serves every device
/// evaluated at the same supply.
pub(crate) fn dibl(v: Volt) -> f64 {
    (DIBL_SLOPE * (v.0 - 0.75)).exp()
}

/// Voltage-independent terms of one device's alpha-power-law delay at one
/// temperature (see [`DeviceParams::delay_terms`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DelayTerms {
    /// `d_unit · Leff` (ps).
    drive: f64,
    /// `Vth(T)` (V).
    vth: f64,
    /// `μ(T)`.
    mobility: f64,
}

impl DelayTerms {
    /// The voltage kernel of [`DeviceParams::gate_delay`]: one overdrive
    /// `powf` per call, operands combined in the same order as the
    /// closed-form `((d_unit · Leff) · V) / (μ · (V − Vth)^α)`.
    #[inline]
    pub(crate) fn gate_delay(&self, v: Volt) -> Option<Picoseconds> {
        let overdrive = v.0 - self.vth;
        if overdrive <= 1e-6 {
            return None;
        }
        let d = self.drive * v.0 / (self.mobility * overdrive.powf(ALPHA));
        Some(Picoseconds(d))
    }

    /// Whether the delay strictly falls as the supply rises wherever the
    /// gate switches: `V·(V − Vth)^−α` decreases for `V > Vth` when
    /// `(1 − α)·V < Vth`, which `Vth > 0` guarantees because `α > 1`.
    pub(crate) fn falls_with_supply(&self) -> bool {
        self.vth > 0.0
    }

    /// Estimates the supply at which the gate delay equals `target` ps,
    /// starting from `start`, a supply where the delay is at most
    /// `target`. Returns `None` unless the Newton step falls below 1e-15 V
    /// within 16 iterations; `iterations` counts the iterations made, one
    /// `powf` each.
    ///
    /// The root is found on `φ(u) = u − Vth − (K·u)^{1/α}` with
    /// `K = d_unit·Leff / (μ·target)`, which is zero exactly where the
    /// delay is `target`. `φ` is convex and increasing right of its root,
    /// so Newton from the right descends onto the root without
    /// overshooting. Newton on the delay itself would overshoot below
    /// `Vth`, where the delay does not exist. This is an estimate, not a
    /// kernel: callers certify what they use it for.
    pub(crate) fn supply_at_delay(
        &self,
        target: f64,
        start: f64,
        iterations: &mut u64,
    ) -> Option<f64> {
        let k = self.drive / (self.mobility * target);
        let mut u = start;
        for _ in 0..16 {
            *iterations += 1;
            let root = (k * u).powf(1.0 / ALPHA);
            let step = (u - self.vth - root) / (1.0 - root / (ALPHA * u));
            u -= step;
            if step.abs() < 1e-15 {
                return Some(u);
            }
        }
        None
    }
}

/// Voltage-independent terms of one device's leakage at one temperature
/// (see [`DeviceParams::leakage_terms`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LeakageTerms {
    /// `exp(−Vth(T)/S(T)) / i_ref`.
    prefactor: f64,
    /// Channel-length factor `Leff`.
    leff: f64,
}

impl LeakageTerms {
    /// The voltage kernel of [`DeviceParams::leakage`], given the supply's
    /// [`dibl`] factor: `(prefactor · DIBL) / Leff`.
    #[inline]
    pub(crate) fn current(&self, dibl: f64) -> f64 {
        self.prefactor * dibl / self.leff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_decreases_with_voltage() {
        let dev = DeviceParams::default();
        let mut prev = f64::INFINITY;
        for mv in (400..=900).step_by(50) {
            let d = dev
                .gate_delay(Volt(mv as f64 / 1000.0), Celsius(25.0))
                .unwrap()
                .0;
            assert!(d < prev, "delay must fall monotonically with supply");
            prev = d;
        }
    }

    #[test]
    fn delay_diverges_near_threshold() {
        let dev = DeviceParams::default();
        let near = dev.gate_delay(Volt(0.305), Celsius(25.0)).unwrap().0;
        let far = dev.gate_delay(Volt(0.75), Celsius(25.0)).unwrap().0;
        assert!(near > 100.0 * far, "near-threshold delay should explode");
        assert!(dev.gate_delay(Volt(0.30), Celsius(25.0)).is_none());
        assert!(dev.gate_delay(Volt(0.10), Celsius(25.0)).is_none());
    }

    #[test]
    fn temperature_inversion_at_low_voltage() {
        let dev = DeviceParams::default();
        // Near threshold: cold is slower (higher Vth dominates).
        let cold = dev.gate_delay(Volt(0.45), Celsius(-45.0)).unwrap().0;
        let hot = dev.gate_delay(Volt(0.45), Celsius(125.0)).unwrap().0;
        assert!(
            cold > hot,
            "temperature inversion: cold ({cold}) should exceed hot ({hot}) at low VDD"
        );
        // At high voltage mobility dominates: hot is slower.
        let cold_hi = dev.gate_delay(Volt(0.95), Celsius(-45.0)).unwrap().0;
        let hot_hi = dev.gate_delay(Volt(0.95), Celsius(125.0)).unwrap().0;
        assert!(
            hot_hi > cold_hi,
            "at high VDD mobility should dominate: hot ({hot_hi}) > cold ({cold_hi})"
        );
    }

    #[test]
    fn higher_vth_slows_gate() {
        let nominal = DeviceParams::default();
        let shifted = DeviceParams {
            vth25: Volt(0.33),
            ..nominal
        };
        let d0 = nominal.gate_delay(Volt(0.55), Celsius(25.0)).unwrap().0;
        let d1 = shifted.gate_delay(Volt(0.55), Celsius(25.0)).unwrap().0;
        assert!(d1 > d0);
    }

    #[test]
    fn leakage_grows_hot_and_with_lower_vth() {
        let dev = DeviceParams::default();
        let cold = dev.leakage(Volt(0.75), Celsius(-45.0));
        let room = dev.leakage(Volt(0.75), Celsius(25.0));
        let hot = dev.leakage(Volt(0.75), Celsius(125.0));
        assert!(
            cold < room && room < hot,
            "leakage must grow with temperature"
        );

        let leaky = DeviceParams {
            vth25: Volt(0.27),
            ..dev
        };
        assert!(leaky.leakage(Volt(0.75), Celsius(25.0)) > room);
    }

    #[test]
    fn leakage_grows_with_bias() {
        let dev = DeviceParams::default();
        assert!(dev.leakage(Volt(0.9), Celsius(25.0)) > dev.leakage(Volt(0.6), Celsius(25.0)));
    }

    #[test]
    fn nominal_leakage_is_order_one() {
        let dev = DeviceParams::default();
        let l = dev.leakage(Volt(0.75), Celsius(25.0));
        assert!(
            l > 0.5 && l < 2.0,
            "nominal leakage factor should be ~1, got {l}"
        );
    }

    #[test]
    fn longer_channel_slower_and_less_leaky() {
        let long = DeviceParams {
            leff_factor: 1.1,
            ..DeviceParams::default()
        };
        let nom = DeviceParams::default();
        assert!(
            long.gate_delay(Volt(0.55), Celsius(25.0)).unwrap().0
                > nom.gate_delay(Volt(0.55), Celsius(25.0)).unwrap().0
        );
        assert!(long.leakage(Volt(0.75), Celsius(25.0)) < nom.leakage(Volt(0.75), Celsius(25.0)));
    }
}
