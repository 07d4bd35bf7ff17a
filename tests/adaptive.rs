//! End-to-end acceptance of the adaptive cost feedback loop (ISSUE 7):
//! observe (profiled execution → persisted kernel profiles), calibrate
//! (`CostModel` over the persisted store), re-cost (`PlanOptions::cost`, the
//! prices `CompiledProgram::new` keeps) — with results bit-identical to the uncalibrated
//! plan — plus the live `/metrics` scrape endpoint serving the run's
//! `lang.exec.node_self_ns` quantiles.

use dm_lang::cost::{static_ns, CostModel};
use dm_lang::exec::{Env, Executor};
use dm_lang::physical::PlanOptions;
use dm_lang::size::InputSizes;
use dm_lang::{estimated_cost, parser, CompiledProgram};
use dm_matrix::{Dense, Matrix};
use dm_obs::profile::{ProfileError, ProfileStore, PROFILE_FILE};
use dm_obs::serve::MetricsServer;
use dm_obs::StatsRegistry;
use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::sync::Arc;

const SCRIPT: &str = "sum(t(X) %*% (X + X))";

fn workload() -> (dm_lang::Graph, dm_lang::NodeId, InputSizes, Env) {
    let (graph, root) = parser::parse(SCRIPT).unwrap();
    let mut sizes = InputSizes::new();
    sizes.declare("X", 300, 40, 1.0);
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(Dense::from_fn(300, 40, |r, c| ((r * 7 + c * 3) % 11) as f64)));
    (graph, root, sizes, env)
}

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dmml_adaptive_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The tentpole acceptance: run the workload profiled and persist the
/// throughput samples; a second "process" loads them, prices the plan with
/// the calibrated model, plans through the calibrated crossover, and
/// produces bit-identical results.
#[test]
fn second_run_loads_profiles_and_recosts_without_changing_results() {
    let dir = tempdir("e2e");
    let (graph, root, sizes, env) = workload();

    // --- Run 1: observe. Explicit APIs rather than DMML_PROFILE_DIR (env
    // vars are process-global and these tests run in parallel); the env
    // wiring is covered by `env_profile_dir_saves_on_drop`.
    let at_degree_2 = PlanOptions { degree: 2, ..PlanOptions::new(&sizes) };
    let plan1 = CompiledProgram::new(graph.clone(), root, &at_degree_2).unwrap().plan;
    let mut store = ProfileStore::new();
    let baseline = {
        let mut first = None;
        for _ in 0..dm_obs::profile::MIN_SAMPLES {
            let mut ex = Executor::with_plan(&graph, plan1.clone()).profiled();
            let v = ex.eval(root, &env).unwrap().as_scalar().unwrap();
            ex.record_kernel_profiles(&mut store);
            first.get_or_insert(v);
        }
        first.unwrap()
    };
    assert!(!store.is_empty(), "profiled run must yield throughput samples");
    store.save(&dir).unwrap();
    assert!(dir.join(PROFILE_FILE).exists());

    // --- Run 2: calibrate + re-cost from the persisted store.
    let model = CostModel::load(&dir).unwrap();
    assert!(!model.is_empty(), "second run sees the persisted profile");
    let opts2 = PlanOptions { cost: Some(&model), ..at_degree_2 };
    let prog2 = CompiledProgram::new(graph.clone(), root, &opts2).unwrap();
    let est = estimated_cost(&graph, root, &sizes).unwrap();
    assert_ne!(
        u128::from(prog2.est_cost_ns),
        static_ns(est),
        "with samples loaded, the calibrated price must move off the static one"
    );
    // Where samples exist the model prices the node off observations: the
    // heavy node (matmul at this shape) got MIN_SAMPLES samples above.
    let costs = prog2.costs.as_ref().expect("planned with a model");
    assert!(
        costs.values().any(|c| c.calibrated_ns.is_some()),
        "at least one node prices off the profile"
    );

    // --- Bit identity: the calibrated plan computes the same bits.
    let mut ex = Executor::with_plan(&graph, prog2.plan);
    let v = ex.eval(root, &env).unwrap().as_scalar().unwrap();
    assert_eq!(v.to_bits(), baseline.to_bits(), "re-costing must not change results");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The executor's env-driven path: DMML_PROFILE_DIR at construction enables
/// profiling and merge-saves the store on drop.
#[test]
fn env_profile_dir_saves_on_drop() {
    let dir = tempdir("envdrop");
    let (graph, root, _sizes, env) = workload();
    std::env::set_var(dm_obs::profile::PROFILE_DIR_ENV, &dir);
    {
        let mut ex = Executor::new(&graph);
        ex.eval(root, &env).unwrap();
        assert!(ex.profile().is_some(), "DMML_PROFILE_DIR implies profiling");
    } // drop saves
    std::env::remove_var(dm_obs::profile::PROFILE_DIR_ENV);
    let store = ProfileStore::load(&dir).unwrap();
    assert!(!store.is_empty(), "drop persisted this run's samples");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption paths: truncation, checksum mismatch, and version skew all
/// surface typed errors from the loader, and the cost model degrades to
/// static pricing (never panics) when handed no profile.
#[test]
fn corrupt_profiles_degrade_to_the_static_model() {
    let dir = tempdir("corrupt");
    let (graph, root, sizes, _env) = workload();
    let mut store = ProfileStore::new();
    for _ in 0..4 {
        store.record("matmul", "dense", 1 << 20, 1_000_000);
    }
    let good = store.to_bytes();
    let path = dir.join(PROFILE_FILE);

    // Truncated mid-body.
    std::fs::write(&path, &good[..good.len() - 7]).unwrap();
    assert!(matches!(
        CostModel::load(&dir),
        Err(ProfileError::Truncated | ProfileError::ChecksumMismatch { .. })
    ));

    // Bit flip under the checksum.
    let mut flipped = good.clone();
    let n = flipped.len();
    flipped[n - 15] ^= 1;
    std::fs::write(&path, &flipped).unwrap();
    assert!(matches!(CostModel::load(&dir), Err(ProfileError::ChecksumMismatch { .. })));

    // Version skew.
    let skewed =
        String::from_utf8(good.clone()).unwrap().replace("DMML-PROFILE v1", "DMML-PROFILE v9");
    std::fs::write(&path, skewed).unwrap();
    assert!(matches!(CostModel::load(&dir), Err(ProfileError::VersionSkew { .. })));

    // Degradation: the empty model prices exactly static, and planning
    // still works — no panic anywhere on the path.
    let model = CostModel::default();
    let opts = PlanOptions { degree: 2, cost: Some(&model), ..PlanOptions::new(&sizes) };
    let est = estimated_cost(&graph, root, &sizes).unwrap();
    let prog = CompiledProgram::new(graph, root, &opts).unwrap();
    assert_eq!(u128::from(prog.est_cost_ns), static_ns(est));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Scrape endpoint during execution: a profiled run's stats land in the
/// registry, and a raw-TCP `curl`-equivalent fetch of `/metrics` returns
/// parseable Prometheus text including the `lang_exec_node_self_ns`
/// quantile summary. `/stats.json` parses as JSON.
#[test]
fn metrics_endpoint_serves_node_self_ns_quantiles() {
    let (graph, root, _sizes, env) = workload();
    let reg = Arc::new(StatsRegistry::new());
    let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&reg)).unwrap();

    let mut ex = Executor::new(&graph).profiled();
    ex.eval(root, &env).unwrap();
    ex.record_stats(reg.as_ref());

    let fetch = |path: &str| -> String {
        let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    };

    let metrics = fetch("/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
    let body = metrics.split("\r\n\r\n").nth(1).unwrap();
    assert!(body.contains("# TYPE dmml_lang_exec_node_self_ns summary"), "{body}");
    for q in ["0.5", "0.95", "0.99"] {
        let series = format!("dmml_lang_exec_node_self_ns{{quantile=\"{q}\"}}");
        let line = body
            .lines()
            .find(|l| l.starts_with(&series))
            .unwrap_or_else(|| panic!("missing {series} in:\n{body}"));
        let value = line.rsplit(' ').next().unwrap();
        assert!(value.parse::<f64>().is_ok(), "unparseable sample {line:?}");
    }
    // Every line is a comment or a `name[{labels}] value` sample.
    for line in body.lines() {
        if line.starts_with('#') {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(value.parse::<f64>().is_ok(), "{line:?}");
    }

    let json = fetch("/stats.json");
    let json_body = json.split("\r\n\r\n").nth(1).unwrap();
    let parsed = dm_obs::json::parse(json_body).expect("stats.json parses");
    assert!(
        parsed.get("histograms").unwrap().get("lang.exec.node_self_ns").is_some(),
        "{json_body}"
    );

    server.shutdown();
}
