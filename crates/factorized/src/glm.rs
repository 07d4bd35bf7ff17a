//! Factorized GLM training: gradient descent whose per-epoch linear maps run
//! through the normalized matrix instead of the materialized join.

use crate::schema::NormalizedMatrix;
use dm_ml::glm::{self, Family, GdConfig, GlmFit};
use dm_ml::MlError;

/// Train a GLM over the normalized matrix without materializing the join.
///
/// An intercept is handled by the caller (append a ones column to the fact
/// block if desired); this function trains exactly on the logical columns of
/// `nm`.
///
/// Per epoch this costs `O(n·d_S + Σ(n_k·d_k + n))` versus the materialized
/// `O(n·d)` — the factorized-learning speedup measured in experiment E3.
pub fn train_factorized(
    nm: &NormalizedMatrix,
    y: &[f64],
    family: Family,
    cfg: &GdConfig,
) -> Result<GlmFit, MlError> {
    glm::train_gd(|w| nm.gemv(w), |r| nm.vecmat(r), y, nm.cols(), family, cfg)
}

/// Baseline: materialize the join once, then train on the dense matrix.
pub fn train_materialized(
    nm: &NormalizedMatrix,
    y: &[f64],
    family: Family,
    cfg: &GdConfig,
) -> Result<GlmFit, MlError> {
    let x = nm.decompress();
    glm::train_gd(
        |w| dm_matrix::ops::gemv(&x, w),
        |r| dm_matrix::ops::tmv(&x, r),
        y,
        x.cols(),
        family,
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DimTable;
    use dm_matrix::Dense;

    /// Star schema with a known linear ground truth on the joined features.
    fn star(n: usize) -> (NormalizedMatrix, Vec<f64>, Vec<f64>) {
        let s = Dense::from_fn(n, 1, |r, _| ((r % 10) as f64) / 10.0);
        let nk = (n / 10).max(2);
        let rk = Dense::from_fn(nk, 2, |g, c| ((g * (c + 1)) % 5) as f64 / 5.0);
        let fk: Vec<usize> = (0..n).map(|r| (r * 3) % nk).collect();
        let nm = NormalizedMatrix::new(s, vec![DimTable::new(rk, fk).unwrap()]).unwrap();
        let truth = vec![2.0, -1.0, 0.5];
        let y = nm.gemv(&truth);
        (nm, truth, y)
    }

    #[test]
    fn factorized_recovers_linear_truth() {
        let (nm, truth, y) = star(300);
        let cfg =
            GdConfig { learning_rate: 0.5, max_iter: 50_000, tol: 1e-10, ..Default::default() };
        let fit = train_factorized(&nm, &y, Family::Gaussian, &cfg).unwrap();
        assert!(fit.converged);
        for (w, t) in fit.weights.iter().zip(&truth) {
            assert!((w - t).abs() < 1e-3, "{:?} vs {:?}", fit.weights, truth);
        }
    }

    #[test]
    fn factorized_and_materialized_agree_exactly() {
        let (nm, _, y) = star(200);
        let cfg = GdConfig { learning_rate: 0.3, max_iter: 500, tol: 1e-12, ..Default::default() };
        let f = train_factorized(&nm, &y, Family::Gaussian, &cfg).unwrap();
        let m = train_materialized(&nm, &y, Family::Gaussian, &cfg).unwrap();
        // Same iterate sequence: identical weights to floating-point noise.
        assert_eq!(f.iterations, m.iterations);
        for (a, b) in f.weights.iter().zip(&m.weights) {
            assert!((a - b).abs() < 1e-9, "factorized and materialized GD must coincide");
        }
    }

    #[test]
    fn logistic_factorized_agrees_with_materialized() {
        let (nm, _, score) = star(200);
        let y: Vec<f64> = score.iter().map(|&s| if s > 0.5 { 1.0 } else { 0.0 }).collect();
        // Guard against a degenerate label split.
        let pos = y.iter().filter(|&&v| v == 1.0).count();
        assert!(pos > 10 && pos < 190);
        let cfg = GdConfig { learning_rate: 0.5, max_iter: 300, tol: 1e-12, ..Default::default() };
        let f = train_factorized(&nm, &y, Family::Binomial, &cfg).unwrap();
        let m = train_materialized(&nm, &y, Family::Binomial, &cfg).unwrap();
        for (a, b) in f.weights.iter().zip(&m.weights) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn factorized_handles_high_redundancy() {
        // 1000 fact rows over a 3-row dimension table: redundancy 333x.
        let s = Dense::from_fn(1000, 1, |r, _| (r % 7) as f64 / 7.0);
        let rk = Dense::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let fk = (0..1000).map(|r| r % 3).collect();
        let nm = NormalizedMatrix::new(s, vec![DimTable::new(rk, fk).unwrap()]).unwrap();
        let y = nm.gemv(&[1.0, 1.0]);
        let cfg =
            GdConfig { learning_rate: 0.2, max_iter: 20_000, tol: 1e-9, ..Default::default() };
        let fit = train_factorized(&nm, &y, Family::Gaussian, &cfg).unwrap();
        let pred = nm.gemv(&fit.weights);
        let mse: f64 =
            pred.iter().zip(&y).map(|(p, t)| (p - t) * (p - t)).sum::<f64>() / y.len() as f64;
        assert!(mse < 1e-6, "mse {mse}");
    }
}
