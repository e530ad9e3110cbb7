//! CV+ (cross-conformal) prediction intervals (Barber et al. 2021).
//!
//! Splitting 156 chips 75/25 costs CQR both training data and calibration
//! resolution. CV+ removes the dedicated split: the data is partitioned
//! into K folds, a model is fit on each fold-complement, and every sample
//! contributes an out-of-fold residual. Intervals aggregate the per-fold
//! models' predictions ± residuals exactly like jackknife+, at K model fits
//! instead of n. Its guarantee is `1 − 2α` in the worst case but ≈ `1 − α`
//! in practice — which the ablation benches measure against split CP/CQR.

use crate::interval::{check_alpha, ConformalError, PredictionInterval, Result};
use vmin_data::KFold;
use vmin_linalg::Matrix;
use vmin_models::Regressor;

/// CV+ predictor built from a model factory.
#[derive(Debug)]
pub struct CvPlus {
    alpha: f64,
    k: usize,
    seed: u64,
    state: Option<CvState>,
}

#[derive(Debug)]
struct CvState {
    /// One model per fold, fit on that fold's complement.
    models: Vec<Box<dyn Regressor>>,
    /// Out-of-fold absolute residual and the index of the model that
    /// produced it, for every training sample.
    residuals: Vec<(f64, usize)>,
}

impl CvPlus {
    /// Creates a CV+ predictor at miscoverage `alpha` with `k` folds.
    pub fn new(alpha: f64, k: usize, seed: u64) -> Self {
        CvPlus {
            alpha,
            k,
            seed,
            state: None,
        }
    }

    /// Fits `k` fold-complement models via `factory` and records every
    /// sample's out-of-fold residual. Folds are independent, so they fit on
    /// `vmin-par` worker threads (hence `factory: Sync`) and the result is
    /// bit-identical to a serial fit at any thread count.
    ///
    /// # Errors
    ///
    /// [`ConformalError::InvalidArgument`] on bad `alpha`, `k < 2`, or too
    /// few samples; model errors otherwise.
    pub fn fit<F>(&mut self, x: &Matrix, y: &[f64], factory: F) -> Result<()>
    where
        F: Fn() -> Box<dyn Regressor> + Sync,
    {
        check_alpha(self.alpha)?;
        let n = x.rows();
        if self.k < 2 || self.k > n || n != y.len() {
            return Err(ConformalError::InvalidArgument(format!(
                "cv+ needs 2 <= k <= n and matched targets (k = {}, n = {}, targets = {})",
                self.k,
                n,
                y.len()
            )));
        }
        let kf = KFold::new(n, self.k, self.seed);
        let splits: Vec<_> = kf.iter().collect();
        type FoldFit = Result<(Box<dyn Regressor>, Vec<(usize, f64)>)>;
        let per_fold = vmin_par::par_map(&splits, 2, |_, split| -> FoldFit {
            let x_tr = x.select_rows(&split.train)?;
            let y_tr: Vec<f64> = split.train.iter().map(|&i| y[i]).collect();
            let mut model = factory();
            // One plan per fold: the fold-complement design is shared by
            // everything the model memoizes (bins, designs). fit_with_plan
            // is exact, so fold models are unchanged.
            if model.wants_fit_plan() {
                let plan = vmin_models::FitPlan::build(&x_tr);
                model.fit_with_plan(&x_tr, &y_tr, &plan)?;
            } else {
                model.fit(&x_tr, &y_tr)?;
            }
            let mut fold_residuals = Vec::with_capacity(split.test.len());
            for &i in &split.test {
                let p = model.predict_row(x.row(i))?;
                fold_residuals.push((i, (y[i] - p).abs()));
            }
            Ok((model, fold_residuals))
        });
        let mut models = Vec::with_capacity(self.k);
        let mut residuals = vec![(0.0, 0usize); n];
        for (fold_idx, fold) in per_fold.into_iter().enumerate() {
            let (model, fold_residuals) = fold?;
            for (i, r) in fold_residuals {
                residuals[i] = (r, fold_idx);
            }
            models.push(model);
        }
        self.state = Some(CvState { models, residuals });
        Ok(())
    }

    /// CV+ interval: quantiles of `{μ_fold(i)(x) ± R_i}` over all training
    /// samples `i`, with the jackknife+ rank rule.
    ///
    /// # Errors
    ///
    /// [`ConformalError::NotCalibrated`] before `fit`.
    pub fn predict_interval(&self, row: &[f64]) -> Result<PredictionInterval> {
        let st = self.state.as_ref().ok_or(ConformalError::NotCalibrated)?;
        // One prediction per fold model, reused for all its fold's samples.
        let fold_preds: Vec<f64> = st
            .models
            .iter()
            .map(|m| m.predict_row(row))
            .collect::<std::result::Result<_, _>>()?;
        let n = st.residuals.len();
        let mut lows: Vec<f64> = Vec::with_capacity(n);
        let mut highs: Vec<f64> = Vec::with_capacity(n);
        for &(r, fold) in &st.residuals {
            lows.push(fold_preds[fold] - r);
            highs.push(fold_preds[fold] + r);
        }
        lows.sort_by(|a, b| a.total_cmp(b));
        highs.sort_by(|a, b| a.total_cmp(b));
        let k_lo = ((self.alpha * (n as f64 + 1.0)).floor() as usize).max(1) - 1;
        let k_hi = (((1.0 - self.alpha) * (n as f64 + 1.0)).ceil() as usize).min(n) - 1;
        Ok(PredictionInterval::new(lows[k_lo], highs[k_hi]))
    }

    /// Intervals for every row of `x`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::predict_interval`].
    pub fn predict_intervals(&self, x: &Matrix) -> Result<Vec<PredictionInterval>> {
        let rows: Vec<usize> = (0..x.rows()).collect();
        vmin_par::par_map(&rows, 32, |_, &i| self.predict_interval(x.row(i)))
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::evaluate_intervals;
    use vmin_models::LinearRegression;
    use vmin_rng::ChaCha8Rng;
    use vmin_rng::Rng;
    use vmin_rng::SeedableRng;

    fn data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..4.0);
            rows.push(vec![x]);
            y.push(2.0 * x + rng.gen_range(-0.6..0.6));
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn factory() -> Box<dyn Regressor> {
        Box::new(LinearRegression::new())
    }

    #[test]
    fn covers_on_average() {
        let mut total = 0.0;
        let reps = 15;
        for s in 0..reps {
            let (x, y) = data(100, s * 3000 + 1);
            let (x_te, y_te) = data(60, s * 3000 + 2);
            let mut cv = CvPlus::new(0.2, 4, s);
            cv.fit(&x, &y, factory).unwrap();
            total += evaluate_intervals(&cv.predict_intervals(&x_te).unwrap(), &y_te).coverage;
        }
        let avg = total / reps as f64;
        assert!(avg >= 0.78, "CV+ average coverage {avg}");
    }

    #[test]
    fn uses_all_data_for_residuals() {
        let (x, y) = data(24, 7);
        let mut cv = CvPlus::new(0.2, 4, 1);
        cv.fit(&x, &y, factory).unwrap();
        let st = cv.state.as_ref().unwrap();
        assert_eq!(st.residuals.len(), 24);
        assert_eq!(st.models.len(), 4);
        // Every fold index must appear.
        for fold in 0..4 {
            assert!(st.residuals.iter().any(|&(_, f)| f == fold));
        }
    }

    #[test]
    fn narrower_than_a_wasteful_split_on_small_n() {
        // With only 40 samples, split CP must burn 25% on calibration; CV+
        // uses everything. Expect comparable-or-narrower intervals at the
        // same (empirically achieved) level.
        let (x, y) = data(40, 9);
        let (x_te, _) = data(30, 10);
        let mut cv = CvPlus::new(0.2, 4, 2);
        cv.fit(&x, &y, factory).unwrap();
        let widths: Vec<f64> = cv
            .predict_intervals(&x_te)
            .unwrap()
            .iter()
            .map(PredictionInterval::length)
            .collect();
        assert!(widths.iter().all(|w| w.is_finite() && *w > 0.0));
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_serial() {
        let (x, y) = data(60, 11);
        let (x_te, _) = data(25, 12);
        let run_at = |threads: usize| {
            vmin_par::with_threads(threads, || {
                let mut cv = CvPlus::new(0.2, 5, 3);
                cv.fit(&x, &y, factory).unwrap();
                cv.predict_intervals(&x_te)
                    .unwrap()
                    .iter()
                    .map(|iv| (iv.lo(), iv.hi()))
                    .collect::<Vec<_>>()
            })
        };
        let serial = run_at(1);
        for threads in [2, 8] {
            assert_eq!(run_at(threads), serial, "threads {threads}");
        }
    }

    #[test]
    fn per_fold_plans_yield_bit_identical_intervals() {
        use vmin_models::{GradientBoost, GradientBoostParams, Loss};

        /// The same booster with plan use switched off: the trait defaults
        /// report `wants_fit_plan() == false`, so every fold fits plainly.
        #[derive(Debug)]
        struct Plain(GradientBoost);
        impl Regressor for Plain {
            fn fit(&mut self, x: &Matrix, y: &[f64]) -> vmin_models::Result<()> {
                self.0.fit(x, y)
            }
            fn predict_row(&self, row: &[f64]) -> vmin_models::Result<f64> {
                self.0.predict_row(row)
            }
        }

        let (x, y) = data(80, 21);
        let (x_te, _) = data(30, 22);
        let gbt = || {
            GradientBoost::with_params(
                Loss::Squared,
                GradientBoostParams {
                    n_rounds: 20,
                    ..GradientBoostParams::default()
                },
            )
        };
        let run = |factory: &(dyn Fn() -> Box<dyn Regressor> + Sync)| {
            let mut cv = CvPlus::new(0.2, 4, 5);
            cv.fit(&x, &y, factory).unwrap();
            cv.predict_intervals(&x_te)
                .unwrap()
                .iter()
                .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()))
                .collect::<Vec<_>>()
        };
        let planned = run(&|| -> Box<dyn Regressor> { Box::new(gbt()) });
        let plain = run(&|| -> Box<dyn Regressor> { Box::new(Plain(gbt())) });
        assert_eq!(planned, plain);
    }

    #[test]
    fn validation_errors() {
        let (x, y) = data(10, 1);
        let mut bad_alpha = CvPlus::new(0.0, 4, 0);
        assert!(bad_alpha.fit(&x, &y, factory).is_err());
        let mut bad_k = CvPlus::new(0.2, 1, 0);
        assert!(bad_k.fit(&x, &y, factory).is_err());
        let cv = CvPlus::new(0.2, 4, 0);
        assert!(matches!(
            cv.predict_interval(&[0.0]),
            Err(ConformalError::NotCalibrated)
        ));
    }
}
