//! E3 — factorized vs materialized GLM training across tuple ratios.
//!
//! The canonical crossover: at tuple ratio ~1 (no redundancy) factorized and
//! materialized epochs cost about the same; as the ratio grows, the
//! factorized epoch cost stays flat in the dimension features while the
//! materialized cost scales with n·d — factorized wins by roughly the
//! feature-redundancy factor.

use criterion::{criterion_group, criterion_main, Criterion};
use dm_factorized::{DimTable, NormalizedMatrix};

const FACT_ROWS: usize = 50_000;
const FACT_FEATS: usize = 2;
const DIM_FEATS: usize = 30;

fn build(tuple_ratio: usize) -> (NormalizedMatrix, Vec<f64>) {
    let dim_rows = (FACT_ROWS / tuple_ratio).max(1);
    let d = dm_data::star::generate(&dm_data::star::StarConfig {
        fact_rows: FACT_ROWS,
        dim_rows,
        fact_features: FACT_FEATS,
        dim_features: DIM_FEATS,
        noise: 0.01,
        seed: 99,
    });
    let nm = NormalizedMatrix::new(
        d.fact.clone(),
        vec![DimTable::new(d.dim.clone(), d.fk.clone()).expect("valid keys")],
    )
    .expect("valid schema");
    (nm, d.y_regression)
}

/// One gradient-descent epoch over the factorized representation.
fn epoch_factorized(nm: &NormalizedMatrix, y: &[f64], w: &[f64]) -> Vec<f64> {
    let pred = nm.gemv(w);
    let resid: Vec<f64> = pred.iter().zip(y).map(|(p, t)| p - t).collect();
    nm.vecmat(&resid)
}

/// One epoch over the pre-materialized dense join.
fn epoch_materialized(x: &dm_matrix::Dense, y: &[f64], w: &[f64]) -> Vec<f64> {
    let pred = dm_matrix::ops::gemv(x, w);
    let resid: Vec<f64> = pred.iter().zip(y).map(|(p, t)| p - t).collect();
    dm_matrix::ops::tmv(x, &resid)
}

fn print_table() {
    println!("\n=== E3: per-epoch cost, factorized vs materialized (n={FACT_ROWS}, d_S={FACT_FEATS}, d_R={DIM_FEATS}) ===");
    println!(
        "{:>12} {:>14} {:>14} {:>9}",
        "tuple-ratio", "factorized(ms)", "material.(ms)", "speedup"
    );
    for &tr in &[1usize, 5, 20, 100, 500] {
        let (nm, y) = build(tr);
        let x = nm.decompress();
        let w: Vec<f64> = (0..nm.cols()).map(|i| (i as f64).cos() * 0.1).collect();
        let tf = dm_bench::time_mean(5, || epoch_factorized(&nm, &y, &w));
        let tm = dm_bench::time_mean(5, || epoch_materialized(&x, &y, &w));
        println!("{tr:>12} {:>14.3} {:>14.3} {:>8.1}x", tf * 1e3, tm * 1e3, tm / tf.max(1e-12));
        // Correctness: both epochs produce the same gradient.
        let gf = epoch_factorized(&nm, &y, &w);
        let gm = epoch_materialized(&x, &y, &w);
        for (a, b) in gf.iter().zip(&gm) {
            assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_table();
    let mut g = c.benchmark_group("e03_glm_epoch");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(2));
    for &tr in &[1usize, 100] {
        let (nm, y) = build(tr);
        let x = nm.decompress();
        let w: Vec<f64> = (0..nm.cols()).map(|i| (i as f64).cos() * 0.1).collect();
        g.bench_function(format!("factorized_tr{tr}"), |b| {
            b.iter(|| epoch_factorized(&nm, &y, &w))
        });
        g.bench_function(format!("materialized_tr{tr}"), |b| {
            b.iter(|| epoch_materialized(&x, &y, &w))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
