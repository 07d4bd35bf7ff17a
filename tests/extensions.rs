//! Integration coverage for the extension round: a key–foreign-key query
//! feeding training as a normalized matrix, compressed-matrix serialization
//! through the buffer codec path, and forward selection over polynomial
//! features end to end.

use dmml::compress::planner::CompressionConfig;
use dmml::compress::serial;
use dmml::matrix::solve::solve_spd;
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
