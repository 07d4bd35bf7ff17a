//! Integration coverage for the extension round: a key–foreign-key query
//! feeding training as a normalized matrix, polynomial features feeding SGD,
//! softmax + forest on shared data, compressed-matrix serialization through
//! the buffer codec path, and forward selection end to end.

use dmml::compress::planner::CompressionConfig;
use dmml::compress::serial;
use dmml::matrix::solve::solve_spd;
use dmml::ml::forest::{ForestConfig, RandomForest};
use dmml::ml::sgd::{train_sgd, SgdConfig};
use dmml::ml::softmax::{SoftmaxConfig, SoftmaxRegression};
use dmml::modelsel::columbus::{forward_select, SharedGram};
use dmml::pipeline::transform::{PolynomialFeatures, Transformer};
use dmml::prelude::*;
use dmml::rel::{JoinKind, Predicate, Query};

/// A key–foreign-key query feeds training without materializing its join:
/// `from_query` turns it into a normalized matrix, and the label column is
/// gathered with the fact rows the query selected.
#[test]
fn query_pipeline_feeds_model_training() {
    let star = dmml::data::star::generate(&dmml::data::star::StarConfig {
        fact_rows: 400,
        dim_rows: 8,
        ..Default::default()
    });
    let (fact, dim) = dmml::data::star::to_tables(&star);

    // Declarative preprocessing: join, filter on a fact and a dimension
    // column, keep the features.
    let features = ["s0", "s1", "r0", "r1", "r2", "r3"];
    let q = Query::scan(fact)
        .join(dim, "fk", "id", JoinKind::Inner)
        .filter(Predicate::gt("label", -10.0))
        .filter(Predicate::gt("r0", -0.5))
        .project(&features);
    let (nm, rows) = NormalizedMatrix::from_query(&q).unwrap();
    assert!(rows.len() > 300 && rows.len() < 400, "{} rows", rows.len());
    let label = q.base().column_by_name("label").unwrap();
    let labels: Vec<f64> = rows.iter().map(|&r| label.get_f64(r).unwrap()).collect();

    // The materialized query keeps the same rows and features.
    let joined = q.run().unwrap();
    assert_eq!(joined.to_dense(&features).unwrap(), nm.decompress());

    // Normal equations on the normalized form: XᵀX and Xᵀy are CLA's
    // kernels over the fact block and the dimension dictionary.
    let w = solve_spd(&nm.crossprod(), &nm.vecmat(&labels)).unwrap();
    let preds = nm.gemv(&w);
    let mean = labels.iter().sum::<f64>() / labels.len() as f64;
    let ss_res: f64 = preds.iter().zip(&labels).map(|(p, y)| (p - y) * (p - y)).sum();
    let ss_tot: f64 = labels.iter().map(|y| (y - mean) * (y - mean)).sum();
    let r2 = 1.0 - ss_res / ss_tot;
    assert!(r2 > 0.999, "r2 {r2}");
}

/// Polynomial expansion lets SGD learn a quadratic function.
#[test]
fn polynomial_sgd_learns_quadratic() {
    let x = Dense::from_fn(300, 1, |r, _| (r as f64) / 150.0 - 1.0);
    let y: Vec<f64> = (0..300)
        .map(|r| {
            let v = (r as f64) / 150.0 - 1.0;
            2.0 * v * v - v + 0.5
        })
        .collect();
    let mut poly = PolynomialFeatures::new();
    poly.fit(&x).unwrap();
    let z = poly.transform(&x).unwrap(); // [v, v^2]
    let za = Dense::filled(z.rows(), 1, 1.0).hcat(&z); // intercept column
    let cfg = SgdConfig { learning_rate: 0.3, epochs: 400, decay: 1.0, ..Default::default() };
    let fit = train_sgd(&za, &y, Family::Gaussian, &cfg).unwrap();
    // weights: [intercept, v, v^2] ≈ [0.5, -1, 2]
    assert!((fit.weights[0] - 0.5).abs() < 0.05, "{:?}", fit.weights);
    assert!((fit.weights[1] + 1.0).abs() < 0.05);
    assert!((fit.weights[2] - 2.0).abs() < 0.05);
}

/// Softmax and random forest agree on well-separated multi-class data.
#[test]
fn softmax_and_forest_agree_on_blobs() {
    let (x, y) = dmml::data::labeled::blobs(240, 3, 4, 1.0, 11);
    let sm = SoftmaxRegression::fit(&x, &y, &SoftmaxConfig::default()).unwrap();
    let rf = RandomForest::fit(&x, &y, &ForestConfig::default()).unwrap();
    assert!(sm.accuracy(&x, &y) > 0.97, "softmax {}", sm.accuracy(&x, &y));
    assert!(rf.accuracy(&x, &y) > 0.97, "forest {}", rf.accuracy(&x, &y));
    // They disagree on at most a small fraction of points.
    let disagreements =
        sm.predict(&x).iter().zip(rf.predict(&x)).filter(|(a, b)| **a != *b).count();
    assert!(disagreements < 24, "{disagreements} disagreements");
}

/// Compressed matrices survive a serialize/deserialize hop and still train.
#[test]
fn compressed_serialization_round_trip_trains() {
    let x = dmml::data::matgen::low_cardinality(1500, 3, 5, 31);
    let truth = [2.0, -1.0, 0.5];
    let y = dmml::matrix::ops::gemv(&x, &truth);
    let cm = CompressedMatrix::compress(&x, &CompressionConfig::default());
    let wire = serial::encode(&cm);
    let back = serial::decode(&wire).expect("valid wire format");
    assert_eq!(back, cm);

    let gd = GdConfig { learning_rate: 0.1, max_iter: 5000, tol: 1e-10, ..Default::default() };
    let fit =
        dmml::ml::glm::train_gd(|w| back.gemv(w), |r| back.vecmat(r), &y, 3, Family::Gaussian, &gd)
            .unwrap();
    for (w, t) in fit.weights.iter().zip(&truth) {
        assert!((w - t).abs() < 1e-3, "{:?}", fit.weights);
    }
}

/// Forward selection over polynomial features picks the true terms.
#[test]
fn forward_selection_over_polynomial_features() {
    // y = 3*x0 + x1^2 (feature 0 and the square of feature 1).
    let base = dmml::data::matgen::dense_uniform(400, 2, -2.0, 2.0, 41);
    let y: Vec<f64> = (0..400).map(|r| 3.0 * base.get(r, 0) + base.get(r, 1).powi(2)).collect();
    let mut poly = PolynomialFeatures::new();
    poly.fit(&base).unwrap();
    let z = poly.transform(&base).unwrap(); // [x0, x1, x0², x1², x0x1]
    let shared = SharedGram::build(&z, &y).unwrap();
    let (selected, fit) = forward_select(&shared, 3, 1e-4, 0.0).unwrap();
    let mut sorted = selected.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 3], "should pick x0 and x1²: {selected:?}");
    assert!(fit.r2 > 0.9999);
}
