//! E9 — join avoidance: does dropping the KFK join (keeping only the
//! foreign key, dummy-coded) hurt accuracy?
//!
//! The canonical shape: at high tuple ratios (many training rows per FK
//! value) the FK-only model matches the joined model's held-out accuracy, so
//! the join can be safely avoided; at low tuple ratios the FK overfits and
//! the joined features win — exactly where the decision rules say KeepJoin.

use criterion::{criterion_group, criterion_main, Criterion};
use dm_factorized::hamlet::{fk_one_hot, risk_rule, tuple_ratio_rule, Decision, JoinProfile};
use dm_ml::logreg::{LogRegConfig, LogisticRegression};

const FACT_ROWS: usize = 4000;
const DIM_FEATS: usize = 4;

struct Variant {
    x_train: dm_matrix::Dense,
    y_train: Vec<f64>,
    x_test: dm_matrix::Dense,
    y_test: Vec<f64>,
}

fn accuracy(v: &Variant) -> f64 {
    let cfg = LogRegConfig { learning_rate: 0.5, max_iter: 400, tol: 0.0, l2: 1e-3 };
    LogisticRegression::fit(&v.x_train, &v.y_train, &cfg)
        .map_or(0.5, |m| m.accuracy(&v.x_test, &v.y_test))
}

/// Build joined-features and FK-only variants for one FK cardinality.
fn build(dim_rows: usize, seed: u64) -> (Variant, Variant, JoinProfile) {
    let d = dm_data::star::generate(&dm_data::star::StarConfig {
        fact_rows: FACT_ROWS,
        dim_rows,
        fact_features: 2,
        dim_features: DIM_FEATS,
        noise: 0.0,
        seed,
    });
    let split = dm_pipeline::split::train_test_split(FACT_ROWS, 0.3, seed).expect("split");

    // Joined representation: fact features + dimension features.
    let nm = dm_factorized::NormalizedMatrix::new(
        d.fact.clone(),
        vec![dm_factorized::DimTable::new(d.dim.clone(), d.fk.clone()).expect("keys")],
    )
    .expect("schema");
    let joined = nm.decompress();

    // FK-only representation: fact features + one-hot FK.
    let fk_only = d.fact.hcat(&fk_one_hot(&d.fk, dim_rows));

    let mk = |x: &dm_matrix::Dense| Variant {
        x_train: x.select_rows(&split.train),
        y_train: split.train.iter().map(|&i| d.y_binary[i]).collect(),
        x_test: x.select_rows(&split.test),
        y_test: split.test.iter().map(|&i| d.y_binary[i]).collect(),
    };
    let profile = JoinProfile { fact_rows: split.train.len(), dim_rows, dim_features: DIM_FEATS };
    (mk(&joined), mk(&fk_only), profile)
}

fn print_table() {
    println!("\n=== E9: join avoidance across FK cardinality (n={FACT_ROWS}) ===");
    println!(
        "{:>9} {:>12} {:>11} {:>9} {:>14} {:>12}",
        "dim-rows", "tuple-ratio", "joined-acc", "fk-acc", "tr-rule", "risk-rule"
    );
    let mut high_ratio_gap = None;
    let mut low_ratio_gap = None;
    for &dim_rows in &[5usize, 20, 100, 400, 1200] {
        let (joined, fk_only, profile) = build(dim_rows, 13);
        let ja = accuracy(&joined);
        let fa = accuracy(&fk_only);
        let tr = tuple_ratio_rule(&profile, 20.0);
        let rr = risk_rule(&profile, 10.0);
        println!(
            "{dim_rows:>9} {:>12.1} {:>11.3} {:>9.3} {:>14} {:>12}",
            profile.tuple_ratio(),
            ja,
            fa,
            format!("{tr:?}"),
            format!("{rr:?}")
        );
        if dim_rows == 5 {
            high_ratio_gap = Some(ja - fa);
            assert_eq!(tr, Decision::AvoidJoin);
        }
        if dim_rows == 1200 {
            low_ratio_gap = Some(ja - fa);
            assert_eq!(tr, Decision::KeepJoin);
        }
    }
    // Shape check: avoiding the join costs little at high tuple ratio and
    // more at low tuple ratio.
    let (hi, lo) = (high_ratio_gap.unwrap(), low_ratio_gap.unwrap());
    println!("accuracy cost of avoiding the join: {hi:.3} (high ratio) vs {lo:.3} (low ratio)");
    println!();
}

fn bench(c: &mut Criterion) {
    print_table();
    let (joined, fk_only, _) = build(100, 13);
    let mut g = c.benchmark_group("e09_hamlet");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(3));
    g.bench_function("train_joined", |b| b.iter(|| accuracy(&joined)));
    g.bench_function("train_fk_only", |b| b.iter(|| accuracy(&fk_only)));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
