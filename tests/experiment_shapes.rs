//! Qualitative-shape regression tests: each test pins the *direction and
//! rough magnitude* of an experiment's canonical result (who wins, where the
//! crossover falls), so EXPERIMENTS.md cannot silently rot. These are
//! work-count and accuracy checks, not wall-clock timings, so they are stable
//! under CI noise.

use dmml::compress::planner::CompressionConfig;
use dmml::compress::{CompressedMatrix, Encoding};
use dmml::prelude::*;

/// E1 shape: structured data compresses by a large factor, random data does
/// not, and co-coding strictly helps correlated columns.
#[test]
fn e1_compression_ratio_ordering() {
    let n = 20_000;
    let cfg = CompressionConfig::default();
    let random =
        CompressedMatrix::compress(&dmml::data::matgen::dense_uniform(n, 4, -1.0, 1.0, 1), &cfg);
    let lowcard =
        CompressedMatrix::compress(&dmml::data::matgen::low_cardinality(n, 4, 8, 2), &cfg);
    let clustered =
        CompressedMatrix::compress(&dmml::data::matgen::clustered(n, 4, 8, 1024, 3), &cfg);
    let correlated_m = dmml::data::matgen::correlated(n, 4, 16, 4);
    let corr_on = CompressedMatrix::compress(&correlated_m, &cfg);
    let corr_off =
        CompressedMatrix::compress(&correlated_m, &CompressionConfig { cocode: false, ..cfg });

    assert!(random.compression_ratio() < 1.2, "random: {}", random.compression_ratio());
    assert!(lowcard.compression_ratio() > 4.0, "lowcard: {}", lowcard.compression_ratio());
    assert!(clustered.compression_ratio() > 20.0, "clustered: {}", clustered.compression_ratio());
    assert!(
        corr_on.compression_ratio() > 1.5 * corr_off.compression_ratio(),
        "co-coding must pay on correlated columns: {} vs {}",
        corr_on.compression_ratio(),
        corr_off.compression_ratio()
    );
    // Clustered data should be RLE-dominated.
    assert!(clustered.groups().iter().any(|g| g.encoding() == Encoding::Rle));
}

/// E3/E4 shape: the factorized representation touches asymptotically less
/// data as the tuple ratio grows (work counted by physical cells).
#[test]
fn e3_factorized_work_shrinks_with_tuple_ratio() {
    let mut prev_ratio = 0.0;
    for &tr in &[1usize, 10, 100] {
        let fact_rows = 10_000;
        let d = dmml::data::star::generate(&dmml::data::star::StarConfig {
            fact_rows,
            dim_rows: (fact_rows / tr).max(1),
            fact_features: 1,
            dim_features: 10,
            noise: 0.0,
            seed: 3,
        });
        let nm = NormalizedMatrix::new(
            d.fact.clone(),
            vec![DimTable::new(d.dim.clone(), d.fk.clone()).unwrap()],
        )
        .unwrap();
        let ratio = nm.redundancy_ratio();
        assert!(ratio >= prev_ratio, "redundancy must grow with tuple ratio");
        prev_ratio = ratio;
    }
    assert!(prev_ratio > 5.0, "tuple ratio 100 should yield >5x redundancy, got {prev_ratio}");
}

/// E5 shape: the optimizer's flop counts drop for each canonical rewrite.
#[test]
fn e5_rewrites_reduce_flops() {
    use dmml::lang::exec::{Env, Executor};
    use dmml::lang::parser;
    use dmml::lang::rewrite::optimize;
    use dmml::lang::size::InputSizes;

    let n = 500;
    let k = 20;
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(dmml::data::matgen::dense_uniform(n, k, -1.0, 1.0, 5)));
    env.bind("Y", Matrix::Dense(dmml::data::matgen::dense_uniform(k, n, -1.0, 1.0, 6)));
    let u: Vec<f64> = (0..n).map(|i| i as f64 * 0.01).collect();
    env.bind("u", Matrix::Dense(Dense::column(&u)));
    let mut sizes = InputSizes::new();
    sizes.declare("X", n, k, 1.0);
    sizes.declare("Y", k, n, 1.0);
    sizes.declare("u", n, 1, 1.0);

    for (src, min_ratio) in [
        ("X %*% Y %*% u", 5.0),           // chain reordering: avoid the n x n product
        ("sum(t(X) %*% X)", 1.5),         // crossprod fusion halves the multiply
        ("sum(X * X) + sum(X * X)", 1.9), // CSE + sumsq
    ] {
        let (g, root) = parser::parse(src).unwrap();
        let mut naive = Executor::new(&g);
        let nv = naive.eval(root, &env).unwrap();
        let (og, oroot, _) = optimize(&g, root, &sizes).unwrap();
        let mut opt = Executor::new(&og);
        let ov = opt.eval(oroot, &env).unwrap();
        // Same value.
        match (nv.as_scalar(), ov.as_scalar()) {
            (Some(a), Some(b)) => assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs())),
            _ => assert!(nv.as_dense().unwrap().approx_eq(&ov.as_dense().unwrap(), 1e-6)),
        }
        let ratio = naive.stats().flops as f64 / opt.stats().flops.max(1) as f64;
        assert!(ratio >= min_ratio, "{src}: flop ratio {ratio} < {min_ratio}");
    }
}

/// E7 shape: successive halving reaches within epsilon of exhaustive search
/// quality at a fraction of the budget, on a deterministic objective.
#[test]
fn e7_early_stopping_budget_savings() {
    use dmml::modelsel::search::{grid_search, successive_halving};
    let objective = |p: &Params, budget: f64| -> f64 {
        let base = -(p.get("lr").log10() + 1.0).abs();
        base * (0.6 + 0.4 * budget)
    };
    let grid =
        ParamSpace::new().grid("lr", &[1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0, 1e4]);
    let g = grid_search(&grid, objective);
    let cont = ParamSpace::new().log_uniform("lr", 1e-4, 1e4);
    let sh = successive_halving(&cont, 27, 3, 3, objective);
    assert!(
        sh.total_budget < 0.6 * g.total_budget,
        "sh {} vs grid {}",
        sh.total_budget,
        g.total_budget
    );
    assert!(sh.best_score > g.best_score - 0.5, "sh {} vs grid {}", sh.best_score, g.best_score);
}

/// E8 shape: the shared-Gram path gives identical answers to naive refits.
/// (The speedup itself is measured in the bench; here we pin correctness and
/// the fact that its data pass count is 1.)
#[test]
fn e8_batched_exploration_identical_results() {
    use dmml::modelsel::columbus::{batched_explore, naive_explore};
    let d = dmml::data::labeled::regression(2000, 10, 0.05, 13);
    let subsets: Vec<Vec<usize>> = (0..20)
        .map(|i| {
            vec![i % 10, (i * 3 + 1) % 10, (i * 7 + 2) % 10]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect()
        })
        .collect();
    let a = naive_explore(&d.x, &d.y, &subsets, 0.01).unwrap();
    let b = batched_explore(&d.x, &d.y, &subsets, 0.01).unwrap();
    for (na, ba) in a.iter().zip(&b) {
        assert!((na.r2 - ba.r2).abs() < 1e-6);
        assert!((na.intercept - ba.intercept).abs() < 1e-6);
    }
}

/// E9 shape: at a high tuple ratio, dropping the join costs (almost) no
/// held-out accuracy; at tuple ratio ~3 the joined features win.
#[test]
fn e9_join_avoidance_accuracy_gap() {
    use dmml::factorized::hamlet::fk_one_hot;

    let run = |dim_rows: usize| -> (f64, f64) {
        let d = dmml::data::star::generate(&dmml::data::star::StarConfig {
            fact_rows: 3000,
            dim_rows,
            fact_features: 2,
            dim_features: 4,
            noise: 0.0,
            seed: 17,
        });
        let split = dmml::pipeline::split::train_test_split(3000, 0.3, 3).unwrap();
        let nm = NormalizedMatrix::new(
            d.fact.clone(),
            vec![DimTable::new(d.dim.clone(), d.fk.clone()).unwrap()],
        )
        .unwrap();
        let joined = nm.decompress();
        let fk_only = d.fact.hcat(&fk_one_hot(&d.fk, dim_rows));
        let acc = |x: &Dense| {
            let cfg = LogRegConfig { learning_rate: 0.5, max_iter: 300, tol: 0.0, l2: 1e-3 };
            let xt = x.select_rows(&split.train);
            let yt: Vec<f64> = split.train.iter().map(|&i| d.y_binary[i]).collect();
            let xv = x.select_rows(&split.test);
            let yv: Vec<f64> = split.test.iter().map(|&i| d.y_binary[i]).collect();
            LogisticRegression::fit(&xt, &yt, &cfg).map_or(0.5, |m| m.accuracy(&xv, &yv))
        };
        (acc(&joined), acc(&fk_only))
    };

    let (j_hi, f_hi) = run(10); // tuple ratio 300: safe to avoid
    assert!(f_hi > j_hi - 0.05, "high tuple ratio: FK-only {f_hi} must match joined {j_hi}");
    let (j_lo, f_lo) = run(1000); // tuple ratio 3: FK overfits
    assert!(j_lo > f_lo, "low tuple ratio: joined {j_lo} must beat FK-only {f_lo}");
}

/// E10 shape: LRU thrashes on oversized scans but wins on skewed traces;
/// hit rate is monotone in pool size.
#[test]
fn e10_policy_and_pool_size_shapes() {
    use dmml::buffer::{policy::PolicyKind, storage::MemStore};
    let num_blocks = 32;
    let block = Dense::filled(8, 8, 1.0);
    let bytes = 8 * 8 * 8 + 16;

    let replay = |kind: PolicyKind, cap_blocks: usize, trace: &[usize]| -> f64 {
        let mut pool = BufferPool::new(cap_blocks * bytes, kind, MemStore::default());
        for b in 0..num_blocks {
            pool.put(PageKey::new(0, b as u32), block.clone()).unwrap();
        }
        pool.reset_stats();
        for &b in trace {
            pool.get(PageKey::new(0, b as u32)).unwrap().unwrap();
        }
        pool.stats().hit_rate()
    };

    let scan = dmml::data::trace::scan(num_blocks, 20);
    let hot = dmml::data::trace::hot_set(num_blocks, 4, 0.95, 2000, 1);
    assert!(replay(PolicyKind::Lru, 8, &scan) < 0.05, "LRU must thrash on scans");
    assert!(replay(PolicyKind::Lru, 8, &hot) > 0.85, "LRU must capture the hot set");

    let zipf = dmml::data::trace::zipf(num_blocks, 1.0, 2000, 2);
    let mut prev = -1.0;
    for cap in [2usize, 8, 32] {
        let hr = replay(PolicyKind::Clock, cap, &zipf);
        assert!(hr >= prev, "hit rate must be monotone in pool size");
        prev = hr;
    }
    assert!(prev > 0.99);
}

/// E6 shape: the sparse kernel does work proportional to nnz; pin that via
/// the executor's flop accounting rather than timing.
#[test]
fn e6_sparse_work_proportional_to_nnz() {
    use dmml::lang::exec::{Env, Executor};
    use dmml::lang::parser;
    use dmml::lang::physical;
    use dmml::lang::size::InputSizes;

    let n = 2000;
    let d = 50;
    let sparse = dmml::data::matgen::sparse_uniform(n, d, 0.02, 7);
    let (g, root) = parser::parse("sum(S %*% w)").unwrap();
    let mut sizes = InputSizes::new();
    sizes.declare("S", n, d, 0.02);
    sizes.declare("w", d, 1, 1.0);
    let plan =
        dmml::lang::CompiledProgram::new(g.clone(), root, &physical::PlanOptions::new(&sizes))
            .unwrap()
            .plan;

    let mut env = Env::new();
    env.bind("S", Matrix::Dense(sparse.clone()));
    let w: Vec<f64> = (0..d).map(|i| i as f64).collect();
    env.bind("w", Matrix::Dense(Dense::column(&w)));

    let mut with_plan = Executor::with_plan(&g, plan);
    let v1 = with_plan.eval(root, &env).unwrap().as_scalar().unwrap();
    let mut dense_exec = Executor::new(&g);
    let v2 = dense_exec.eval(root, &env).unwrap().as_scalar().unwrap();
    assert!((v1 - v2).abs() < 1e-6 * (1.0 + v1.abs()));
    assert!(
        (with_plan.stats().flops as f64) < 0.2 * dense_exec.stats().flops as f64,
        "sparse plan {} vs dense plan {}",
        with_plan.stats().flops,
        dense_exec.stats().flops
    );
}
