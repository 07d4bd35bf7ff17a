//! Property-based tests on the learners: solver agreement, invariance, and
//! recovery guarantees on well-posed random problems.

use dm_matrix::{ops, Dense};
use dm_ml::glm::Family;
use dm_ml::kmeans::{self, KMeansConfig};
use dm_ml::linreg::{LinearRegression, Solver};
use dm_ml::naive_bayes::GaussianNb;
use proptest::prelude::*;

/// Well-conditioned regression data: random features in [-1,1], labels from a
/// random linear truth (noiseless).
fn regression_data() -> impl Strategy<Value = (Dense, Vec<f64>, Vec<f64>)> {
    (10usize..60, 1usize..5).prop_flat_map(|(n, d)| {
        let feats = proptest::collection::vec(-1.0..1.0f64, n * d);
        let truth = proptest::collection::vec(-2.0..2.0f64, d + 1);
        (Just((n, d)), feats, truth).prop_map(|((n, d), f, t)| {
            let x = Dense::from_vec(n, d, f).unwrap();
            let y: Vec<f64> = (0..n).map(|r| t[0] + ops::dot(x.row(r), &t[1..])).collect();
            (x, y, t)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn normal_equations_and_cg_agree((x, y, _) in regression_data()) {
        // Ridge keeps both solvers well-posed even on near-degenerate draws.
        let ne = LinearRegression::fit(&x, &y, Solver::NormalEquations, 0.01);
        let cg = LinearRegression::fit(&x, &y, Solver::ConjugateGradient, 0.01);
        if let (Ok(ne), Ok(cg)) = (ne, cg) {
            prop_assert!((ne.intercept - cg.intercept).abs() < 1e-4);
            for (a, b) in ne.coefficients.iter().zip(&cg.coefficients) {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn noiseless_fit_predicts_exactly((x, y, _) in regression_data()) {
        if let Ok(m) = LinearRegression::fit(&x, &y, Solver::NormalEquations, 0.0) {
            prop_assert!(m.mse(&x, &y) < 1e-8, "mse {}", m.mse(&x, &y));
        }
    }

    #[test]
    fn glm_gaussian_gradient_vanishes_at_truth((x, y, t) in regression_data()) {
        // At the generating weights, the (unregularized) gradient is zero.
        let xa = Dense::filled(x.rows(), 1, 1.0).hcat(&x);
        let eta = ops::gemv(&xa, &t);
        let resid: Vec<f64> = eta.iter().zip(&y).map(|(e, yv)| Family::Gaussian.mean(*e) - yv).collect();
        let grad = ops::tmv(&xa, &resid);
        prop_assert!(ops::norm2(&grad) < 1e-7 * (1.0 + ops::norm2(&t)));
    }

    #[test]
    fn kmeans_inertia_nonincreasing_in_k(seed in 0u64..500) {
        let (x, _) = dm_data::labeled::blobs(60, 2, 3, 1.0, seed);
        let mut prev = f64::INFINITY;
        for k in [1usize, 2, 3] {
            let m = kmeans::fit(&x, &KMeansConfig { k, seed, ..Default::default() }).unwrap();
            prop_assert!(m.inertia <= prev + 1e-6, "k={k}: {} > {prev}", m.inertia);
            prev = m.inertia;
        }
    }

    #[test]
    fn kmeans_labels_are_nearest_centroids(seed in 0u64..200) {
        let (x, _) = dm_data::labeled::blobs(40, 2, 2, 2.0, seed);
        let m = kmeans::fit(&x, &KMeansConfig { k: 2, seed, ..Default::default() }).unwrap();
        // Fixed point: predicting the training data reproduces the labels.
        prop_assert_eq!(m.predict(&x), m.labels);
    }

    #[test]
    fn gaussian_nb_is_shift_invariant(seed in 0u64..200, shift in -50.0..50.0f64) {
        let (x, y) = dm_data::labeled::blobs(60, 3, 3, 1.0, seed);
        let shifted = x.map(|v| v + shift);
        let m1 = GaussianNb::fit(&x, &y).unwrap();
        let m2 = GaussianNb::fit(&shifted, &y).unwrap();
        prop_assert_eq!(m1.predict(&x), m2.predict(&shifted));
    }
}
