//! Cross-crate integration: raw relational data through featurization,
//! factorized training, compression, and the model registry — the full round
//! trip the tutorial's three pillars compose into.

use dmml::compress::planner::CompressionConfig;
use dmml::factorized::glm::{train_factorized, train_materialized};
use dmml::pipeline::encode::{ColumnSpec, Featurizer};
use dmml::pipeline::metrics;
use dmml::pipeline::split::train_test_split;
use dmml::pipeline::transform::{ImputeStrategy, Imputer, Pipeline, StandardScaler};
use dmml::prelude::*;
use dmml::rel::{JoinKind, Query};
use std::collections::HashMap;

/// CSV -> table -> featurize -> pipeline -> train -> evaluate -> register.
#[test]
fn lifecycle_csv_to_registered_model() {
    let mut csv = String::from("x1,x2,group,label\n");
    for i in 0..300u64 {
        let x1 = (i % 20) as f64 / 20.0;
        let x2 = ((i * 7) % 13) as f64 / 13.0;
        let group = ["a", "b", "c"][(i % 3) as usize];
        let bump = (i % 3) as f64 * 0.5;
        let label = u8::from(x1 * 2.0 - x2 + bump > 1.0);
        if i % 23 == 0 {
            csv.push_str(&format!(",{x2:.4},{group},{label}\n"));
        } else {
            csv.push_str(&format!("{x1:.4},{x2:.4},{group},{label}\n"));
        }
    }
    let table = dmml::rel::csv::read_csv(csv.as_bytes(), "events").unwrap();
    assert_eq!(table.num_rows(), 300);

    let feat = Featurizer::fit(
        &table,
        &[
            ColumnSpec::Numeric("x1".into()),
            ColumnSpec::Numeric("x2".into()),
            ColumnSpec::OneHot("group".into()),
        ],
    )
    .unwrap();
    let x_raw = feat.transform(&table).unwrap();
    assert_eq!(x_raw.cols(), 5);
    let y: Vec<f64> = (0..300).map(|r| table.row(r).get("label").as_f64().unwrap()).collect();

    let split = train_test_split(300, 0.3, 1).unwrap();
    let mut pipe =
        Pipeline::new().add(Imputer::new(ImputeStrategy::Mean)).add(StandardScaler::new());
    let x_train = pipe.fit_transform(&x_raw.select_rows(&split.train)).unwrap();
    let x_test = pipe.transform(&x_raw.select_rows(&split.test)).unwrap();
    let y_train: Vec<f64> = split.train.iter().map(|&i| y[i]).collect();
    let y_test: Vec<f64> = split.test.iter().map(|&i| y[i]).collect();

    let model = LogisticRegression::fit(&x_train, &y_train, &LogRegConfig::default()).unwrap();
    let acc = metrics::accuracy(&model.predict(&x_test), &y_test);
    let auc = metrics::roc_auc(&model.predict_proba(&x_test), &y_test);
    assert!(acc > 0.85, "acc {acc}");
    assert!(auc > 0.9, "auc {auc}");

    let mut reg = ModelRegistry::new();
    let mut ms = HashMap::new();
    ms.insert("accuracy".into(), acc);
    let id = reg.register("e2e-logreg", HashMap::new(), ms, None, vec!["e2e".into()]);
    assert_eq!(reg.best_by("accuracy").unwrap().id, id);
}

/// Relational star schema -> NormalizedMatrix -> factorized training agrees
/// with the materialized path and beats it on physical data touched.
#[test]
fn factorized_training_from_relational_tables() {
    let star = dmml::data::star::generate(&dmml::data::star::StarConfig {
        fact_rows: 500,
        dim_rows: 20,
        fact_features: 2,
        dim_features: 3,
        noise: 0.0,
        seed: 5,
    });
    let (fact, dim) = dmml::data::star::to_tables(&star);

    let q = Query::scan(fact)
        .join(dim, "fk", "id", JoinKind::Inner)
        .project(&["s0", "s1", "r0", "r1", "r2"]);
    let (nm, rows) = NormalizedMatrix::from_query(&q).unwrap();
    assert_eq!(rows, (0..500).collect::<Vec<_>>());
    assert_eq!(nm.rows(), 500);
    assert_eq!(nm.cols(), 5);
    assert!(nm.redundancy_ratio() > 1.0);

    let gd = GdConfig { learning_rate: 0.3, max_iter: 2000, tol: 1e-10, ..Default::default() };
    let f = train_factorized(&nm, &star.y_regression, Family::Gaussian, &gd).unwrap();
    let m = train_materialized(&nm, &star.y_regression, Family::Gaussian, &gd).unwrap();
    for (a, b) in f.weights.iter().zip(&m.weights) {
        assert!((a - b).abs() < 1e-9);
    }
    // Recovered truth.
    for (w, t) in f.weights.iter().zip(&star.truth) {
        assert!((w - t).abs() < 1e-2, "weights {:?} truth {:?}", f.weights, star.truth);
    }
}

/// Compression composes with the matrix-free GLM trainer: gradient descent
/// over a CompressedMatrix equals gradient descent over the dense original.
#[test]
fn glm_training_on_compressed_matrix() {
    let x = dmml::data::matgen::low_cardinality(2000, 4, 6, 9);
    let truth = [1.0, -2.0, 0.5, 1.5];
    let y = dmml::matrix::ops::gemv(&x, &truth);
    let cm = CompressedMatrix::compress(&x, &CompressionConfig::default());
    assert!(cm.compression_ratio() > 2.0);

    let gd = GdConfig { learning_rate: 0.05, max_iter: 300, tol: 1e-12, ..Default::default() };
    let dense_fit = dmml::ml::glm::train_gd(
        |w| dmml::matrix::ops::gemv(&x, w),
        |r| dmml::matrix::ops::tmv(&x, r),
        &y,
        4,
        Family::Gaussian,
        &gd,
    )
    .unwrap();
    let comp_fit =
        dmml::ml::glm::train_gd(|w| cm.gemv(w), |r| cm.vecmat(r), &y, 4, Family::Gaussian, &gd)
            .unwrap();
    for (a, b) in dense_fit.weights.iter().zip(&comp_fit.weights) {
        assert!((a - b).abs() < 1e-9, "compressed and dense GD must coincide");
    }
}

/// The declarative layer evaluates models trained elsewhere: score a ridge
/// solution via a parsed expression and check against direct evaluation.
#[test]
fn declarative_layer_scores_trained_model() {
    use dmml::lang::{exec::Env, exec::Executor, parser};
    let d = dmml::data::labeled::regression(200, 3, 0.0, 11);
    let model = LinearRegression::fit(&d.x, &d.y, Solver::NormalEquations, 0.0).unwrap();

    // residual sum of squares via the DSL: sum((X %*% w + b - y) * (X %*% w + b - y))
    let (g, root) = parser::parse("sum((X %*% w + b - y) * (X %*% w + b - y))").unwrap();
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(d.x.clone()));
    env.bind("w", Matrix::Dense(Dense::column(&model.coefficients)));
    env.bind("y", Matrix::Dense(Dense::column(&d.y)));
    env.bind_scalar("b", model.intercept);
    let mut ex = Executor::new(&g);
    let rss = ex.eval(root, &env).unwrap().as_scalar().unwrap();
    let direct = model.mse(&d.x, &d.y) * d.y.len() as f64;
    assert!((rss - direct).abs() < 1e-6 * (1.0 + direct));
    assert!(rss < 1e-12, "noiseless data fits exactly");
}

/// A matrix round-trips through an evicting buffer pool as row panels and
/// still computes: the out-of-core gemv returns the in-memory bits.
#[test]
fn block_matrix_through_buffer_pool() {
    use dmml::buffer::{ooc, panel_bytes, policy::PolicyKind, storage::MemStore};
    use dmml::buffer::{BlockStore, SharedBufferPool};
    let x = dmml::data::matgen::dense_uniform(64, 32, -1.0, 1.0, 21);
    // Eight panels of 8 rows; the pool holds only 4 of them at a time.
    let pool = BufferPool::new(4 * panel_bytes(8, 32), PolicyKind::Lru, MemStore::default());
    let pool = SharedBufferPool::new(pool);
    let store = BlockStore::from_dense(&pool, &x, 8).unwrap();
    assert!(pool.stats().evictions > 0, "pressure must evict");

    // Fault the panels back in through the blocked gemv and compare bits.
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let v: Vec<f64> = (0..32).map(|i| i as f64 * 0.1).collect();
    let expect = bits(dmml::matrix::ops::gemv(&x, &v));
    for degree in [1, 2] {
        assert_eq!(bits(ooc::gemv(&store, &v, degree).unwrap()), expect, "degree {degree}");
    }
    assert_eq!(store.to_dense().unwrap(), x);
    pool.audit_quiescent().unwrap();
}
