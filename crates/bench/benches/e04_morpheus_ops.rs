//! E4 — normalized (pushed-through-the-join) linear algebra operator
//! speedups over the materialized baseline.
//!
//! The normalized matrix is a `CompressedMatrix` (the fact block one dense
//! group, the dimension table one DDC group), so every operator here is a
//! CLA kernel. The canonical per-operator shape: gemv/vecmat/rowsums win
//! roughly by the redundancy ratio; crossprod wins even more because the
//! quadratic blocks shrink from `n` rows to `n_dim` rows. Two shapes: the
//! E4 star (50k x 200, 2 + 20 columns) and a wider-dimension star (100k x
//! 1k, 4 + 16 columns).

use criterion::{criterion_group, criterion_main, Criterion};
use dm_factorized::{DimTable, NormalizedMatrix};
use dm_matrix::ops;

/// `(fact_rows, dim_rows, fact_features, dim_features)` of each star shape.
const SHAPES: [(usize, usize, usize, usize); 2] = [(50_000, 200, 2, 20), (100_000, 1_000, 4, 16)];

fn build(
    (fact_rows, dim_rows, fact_features, dim_features): (usize, usize, usize, usize),
) -> NormalizedMatrix {
    let d = dm_data::star::generate(&dm_data::star::StarConfig {
        fact_rows,
        dim_rows,
        fact_features,
        dim_features,
        noise: 0.0,
        seed: 31,
    });
    NormalizedMatrix::new(
        d.fact.clone(),
        vec![DimTable::new(d.dim.clone(), d.fk.clone()).expect("valid keys")],
    )
    .expect("valid schema")
}

fn print_table(nm: &NormalizedMatrix) {
    let x = nm.decompress();
    let w: Vec<f64> = (0..nm.cols()).map(|i| (i as f64) * 0.01 - 0.1).collect();
    let v: Vec<f64> = (0..nm.rows()).map(|i| ((i % 23) as f64) * 0.05).collect();
    let ones = vec![1.0; nm.cols()];

    println!(
        "\n=== E4: normalized vs materialized operators ({} x {}, redundancy {:.1}x) ===",
        nm.rows(),
        nm.cols(),
        nm.redundancy_ratio()
    );
    println!(
        "{:>12} {:>14} {:>14} {:>9}",
        "operator", "normalized(ms)", "material.(ms)", "speedup"
    );
    let rows: Vec<(&str, f64, f64)> = vec![
        (
            "gemv",
            dm_bench::time_mean(10, || nm.gemv(&w)),
            dm_bench::time_mean(10, || ops::gemv(&x, &w)),
        ),
        (
            "vecmat",
            dm_bench::time_mean(10, || nm.vecmat(&v)),
            dm_bench::time_mean(10, || ops::gevm(&v, &x)),
        ),
        (
            "crossprod",
            dm_bench::time_mean(3, || nm.crossprod()),
            dm_bench::time_mean(3, || ops::crossprod(&x)),
        ),
        (
            "rowsums",
            dm_bench::time_mean(10, || nm.gemv(&ones)),
            dm_bench::time_mean(10, || ops::row_sums(&x)),
        ),
        (
            "colsums",
            dm_bench::time_mean(10, || nm.col_sums()),
            dm_bench::time_mean(10, || ops::col_sums(&x)),
        ),
    ];
    for (name, tn, tm) in rows {
        println!("{name:>12} {:>14.3} {:>14.3} {:>8.1}x", tn * 1e3, tm * 1e3, tm / tn.max(1e-12));
    }
    // Correctness spot checks.
    assert!(nm.crossprod().approx_eq(&ops::crossprod(&x), 1e-6));
    println!();
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e04_morpheus");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(2));
    for (shape, suffix) in SHAPES.into_iter().zip(["", "_star100k"]) {
        let nm = build(shape);
        print_table(&nm);
        let x = nm.decompress();
        let w: Vec<f64> = (0..nm.cols()).map(|i| (i as f64) * 0.01 - 0.1).collect();
        g.bench_function(format!("gemv_normalized{suffix}"), |b| b.iter(|| nm.gemv(&w)));
        g.bench_function(format!("gemv_materialized{suffix}"), |b| b.iter(|| ops::gemv(&x, &w)));
        g.bench_function(format!("crossprod_normalized{suffix}"), |b| b.iter(|| nm.crossprod()));
        g.bench_function(format!("crossprod_materialized{suffix}"), |b| {
            b.iter(|| ops::crossprod(&x))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
