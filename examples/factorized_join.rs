//! Factorized learning over a star-schema join: turn a key–foreign-key query
//! over relational tables into a normalized matrix, train a GLM over it
//! without materializing the join, compare against the materialized
//! baseline, and consult the join-avoidance rules.
//!
//! Run with: `cargo run --release --example factorized_join`

use dmml::factorized::glm::{train_factorized, train_materialized};
use dmml::factorized::hamlet::{profile_tables, risk_rule, tuple_ratio_rule};
use dmml::prelude::*;
use dmml::rel::{JoinKind, Query};
use std::time::Instant;

fn main() {
    // A high-redundancy star schema: 200k fact rows over a 100-row dimension
    // table (tuple ratio 2000).
    let cfg = dmml::data::star::StarConfig {
        fact_rows: 200_000,
        dim_rows: 100,
        fact_features: 2,
        dim_features: 20,
        noise: 0.01,
        seed: 7,
    };
    let d = dmml::data::star::generate(&cfg);
    // The star as relational tables, and the join as a query over them:
    // `from_query` reads the join's keys into codes instead of running it.
    let (fact, dim) = dmml::data::star::to_tables(&d);
    let features: Vec<String> = (0..cfg.fact_features)
        .map(|j| format!("s{j}"))
        .chain((0..cfg.dim_features).map(|j| format!("r{j}")))
        .collect();
    let features: Vec<&str> = features.iter().map(String::as_str).collect();
    let q = Query::scan(fact).join(dim, "fk", "id", JoinKind::Inner).project(&features);
    let t_query = Instant::now();
    let (nm, rows) = NormalizedMatrix::from_query(&q).expect("a key-foreign-key query");
    println!("from_query: {:?} for {} fact rows", t_query.elapsed(), rows.len());
    let y: Vec<f64> = rows.iter().map(|&r| d.y_regression[r]).collect();

    println!(
        "star schema: {} fact rows x {} logical features (redundancy ratio {:.1}x)",
        nm.rows(),
        nm.cols(),
        nm.redundancy_ratio()
    );

    // The join is a compressed matrix (fact block dense, dimension table
    // one DDC group): CLA's gemv pushes through it and agrees with the
    // materialized join.
    let w: Vec<f64> = (0..nm.cols()).map(|i| (i as f64 * 0.1).sin()).collect();
    let t0 = Instant::now();
    let fact_gemv = nm.gemv(&w);
    let fact_time = t0.elapsed();
    let t1 = Instant::now();
    let mat = nm.decompress();
    let mat_gemv = dmml::matrix::ops::gemv(&mat, &w);
    let mat_time = t1.elapsed();
    let max_diff = fact_gemv.iter().zip(&mat_gemv).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
    println!("gemv: factorized {fact_time:?} vs materialize+dense {mat_time:?} (max diff {max_diff:.1e})");
    assert!(max_diff < 1e-9, "factorized gemv disagrees with the materialized join");
    // The query's matrix is the one built from the generator's arrays.
    let direct = NormalizedMatrix::new(
        d.fact.clone(),
        vec![DimTable::new(d.dim.clone(), d.fk.clone()).expect("keys in range")],
    )
    .expect("valid star schema")
    .decompress();
    let same = mat.data().iter().zip(direct.data()).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same && mat.shape() == direct.shape(), "from_query differs from NormalizedMatrix::new");
    drop((mat, direct));

    // Train linear regression both ways with identical GD settings.
    let gd = GdConfig { learning_rate: 0.1, max_iter: 200, tol: 1e-9, ..Default::default() };
    let t2 = Instant::now();
    let f_fit = train_factorized(&nm, &y, Family::Gaussian, &gd).expect("factorized fit");
    let f_time = t2.elapsed();
    let t3 = Instant::now();
    let m_fit = train_materialized(&nm, &y, Family::Gaussian, &gd).expect("materialized fit");
    let m_time = t3.elapsed();
    let weight_gap =
        f_fit.weights.iter().zip(&m_fit.weights).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
    println!(
        "GLM training ({} epochs): factorized {f_time:?} vs materialized {m_time:?}",
        f_fit.iterations
    );
    println!("  identical iterates: max weight gap {weight_gap:.1e}");
    assert!(weight_gap < 1e-9, "factorized and materialized GD must take the same iterates");
    println!(
        "  speedup {:.1}x at tuple ratio {:.0}",
        m_time.as_secs_f64() / f_time.as_secs_f64().max(1e-12),
        cfg.fact_rows as f64 / cfg.dim_rows as f64
    );

    // Join avoidance: with 2000 training rows per dimension row, the FK alone
    // is statistically safe — the rules should both say "avoid".
    let profile = profile_tables(&nm)[0];
    println!(
        "hamlet: tuple ratio {:.0}; tuple-ratio rule -> {:?}, risk rule -> {:?}",
        profile.tuple_ratio(),
        tuple_ratio_rule(&profile, 20.0),
        risk_rule(&profile, 10.0),
    );
}
