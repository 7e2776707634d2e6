//! Workspace-level determinism guarantees (DESIGN.md §7): every algorithm
//! produces bit-identical results across (a) repeated runs and (b)
//! sequential vs rayon-parallel execution, also under injected faults.

use hierminimax::core::algorithms::{
    Algorithm, HierMinimax, HierMinimaxConfig, Hyper, Method, MethodRun, RunOpts,
};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::core::RunResult;
use hierminimax::data::generators::synthetic_images::ImageConfig;
use hierminimax::data::scenarios::{similarity_scenario, tiny_problem, SimilarityOptions};
use hierminimax::nn::SimpleCnn;
use hierminimax::optim::ProjectionOp;
use hierminimax::simnet::{FaultPlan, Parallelism};
use std::sync::Arc;

fn opts(par: Parallelism) -> RunOpts {
    RunOpts {
        eval_every: 2,
        parallelism: par,
        ..Default::default()
    }
}

/// The eight `--method` algorithms, parameterised by executor and fault
/// plan. Every one runs on the shared round driver and honours the plan.
fn all_algorithms(par: Parallelism, fault: &FaultPlan) -> Vec<(&'static str, MethodRun)> {
    let opts = RunOpts {
        fault: fault.clone(),
        ..opts(par)
    };
    let h = Hyper {
        rounds: 5,
        tau2: 3,
        eta_w: 0.1,
        eta_p: 0.05,
        loss_batch: 4,
        ..Hyper::default()
    };
    Method::ALL
        .into_iter()
        .map(|m| {
            let h = match m {
                Method::HierMinimax | Method::HierFavg => h.clone(),
                // The three-layer tree: groups of one edge.
                Method::MultiLevel => Hyper {
                    rounds: 3,
                    tau2: 2,
                    upper: Vec::new(),
                    eta_w: 0.05,
                    eta_p: 0.02,
                    ..h.clone()
                },
                _ => Hyper { m: 4, ..h.clone() },
            };
            (m.name(), m.build(&h, opts.clone()))
        })
        .collect()
}

fn assert_identical(name: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.final_w, b.final_w, "{name}: final_w differs");
    assert_eq!(a.final_p, b.final_p, "{name}: final_p differs");
    assert_eq!(a.avg_w, b.avg_w, "{name}: avg_w differs");
    assert_eq!(a.comm, b.comm, "{name}: comm stats differ");
    assert_eq!(a.faults, b.faults, "{name}: fault stats differ");
    for (ra, rb) in a.history.rounds.iter().zip(&b.history.rounds) {
        assert_eq!(
            ra.p, rb.p,
            "{name}: history p differs at round {}",
            ra.round
        );
        assert_eq!(
            ra.eval.as_ref().map(|e| e.per_edge_accuracy.clone()),
            rb.eval.as_ref().map(|e| e.per_edge_accuracy.clone()),
            "{name}: eval differs at round {}",
            ra.round
        );
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let sc = tiny_problem(3, 2, 11);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    for (name, alg) in all_algorithms(Parallelism::Sequential, &FaultPlan::default()) {
        let a = alg.run(&fp, 5);
        let b = alg.run(&fp, 5);
        assert_identical(name, &a, &b);
    }
}

#[test]
fn parallel_matches_sequential_for_every_algorithm() {
    let sc = tiny_problem(3, 2, 12);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let seq = all_algorithms(Parallelism::Sequential, &FaultPlan::default());
    let par = all_algorithms(Parallelism::Rayon, &FaultPlan::default());
    for ((name, a), (_, b)) in seq.into_iter().zip(par) {
        let ra = a.run(&fp, 9);
        let rb = b.run(&fp, 9);
        assert_identical(name, &ra, &rb);
    }
}

#[test]
fn parallel_matches_sequential_for_mlp() {
    // Non-convex path: exercises the MLP backward pass under rayon.
    let sc = tiny_problem(3, 2, 13);
    let fp = FederatedProblem::mlp_from_scenario(&sc, &[12, 6]);
    let cfg = |par| HierMinimaxConfig {
        rounds: 4,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
        eta_w: 0.05,
        eta_p: 0.02,
        batch_size: 2,
        loss_batch: 4,
        weight_update_model: Default::default(),
        quantizer: Default::default(),
        opts: opts(par),
    };
    let a = HierMinimax::new(cfg(Parallelism::Sequential)).run(&fp, 3);
    let b = HierMinimax::new(cfg(Parallelism::Rayon)).run(&fp, 3);
    assert_identical("HierMinimax-MLP", &a, &b);
}

#[test]
fn workspace_grad_is_bit_identical_to_legacy_path() {
    // `loss_grad_ws` with a long-lived workspace must be bit-identical to
    // `loss_grad` (which allocates fresh scratch every call), for every
    // in-tree model. The workspace is REUSED across calls with varying
    // batch sizes and parameters — exactly the hot-loop pattern of
    // `local_sgd` — so stale-buffer bugs (undersized or leftover scratch
    // contents influencing a later call) fail this test. Running the same
    // comparison under `Parallelism::Rayon` exercises the kernels' parallel
    // paths from worker threads.
    use hierminimax::data::rng::{Purpose, StreamKey};
    use hierminimax::data::{Dataset, StreamRng};
    use hierminimax::nn::{Mlp, Model, MulticlassLogistic, SimpleCnn, Workspace};
    use hierminimax::tensor::Matrix;

    fn batch_of(dim: usize, classes: usize, n: usize, seed: u64) -> Dataset {
        let mut rng = StreamRng::for_key(StreamKey::new(seed, Purpose::Misc, n as u64, 0));
        let x = Matrix::from_fn(n, dim, |_, _| rng.normal() as f32 * 0.6);
        let y = (0..n).map(|_| rng.below(classes)).collect();
        Dataset::new(x, y, classes)
    }

    let models: Vec<(&str, Box<dyn Model>, usize, usize)> = vec![
        ("logistic", Box::new(MulticlassLogistic::new(16, 4)), 16, 4),
        ("mlp", Box::new(Mlp::new(16, &[12, 8], 4)), 16, 4),
        ("cnn", Box::new(SimpleCnn::new(10, 3, 2, 3, 16, 3)), 100, 3),
    ];

    for par in [Parallelism::Sequential, Parallelism::Rayon] {
        par.map_ref(&models, |(name, model, dim, classes)| {
            let mut ws = Workspace::new(); // one workspace for all 5 calls
            let mut g_ws = vec![0.0_f32; model.num_params()];
            let mut g_legacy = vec![0.0_f32; model.num_params()];
            // Batch sizes deliberately shrink and grow so buffer resizes in
            // both directions are covered.
            for (call, &n) in [5usize, 2, 7, 1, 4].iter().enumerate() {
                let batch = batch_of(*dim, *classes, n, 31 + call as u64);
                let mut rng = StreamRng::for_key(StreamKey::new(77, Purpose::Init, call as u64, 0));
                let params: Vec<f32> = (0..model.num_params())
                    .map(|_| rng.normal() as f32 * 0.3)
                    .collect();
                let l_ws = model.loss_grad_ws(&params, &batch, &mut g_ws, &mut ws);
                let l_legacy = model.loss_grad(&params, &batch, &mut g_legacy);
                assert_eq!(
                    l_ws.to_bits(),
                    l_legacy.to_bits(),
                    "{name} ({par:?}): loss differs on call {call}"
                );
                assert_eq!(
                    g_ws, g_legacy,
                    "{name} ({par:?}): gradient differs on call {call}"
                );
            }
        });
    }
}

#[test]
fn hierarchical_algorithms_match_across_executors_under_faults() {
    // The block phase (fault prepass, one task chain per edge, pooled
    // scratch, batched metering, event replay) gives the same models,
    // weights, comm totals, fault counters and history on both executors,
    // for every algorithm, fault-free and under the chaos preset.
    let sc = tiny_problem(4, 2, 21);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let plans = [
        ("none", FaultPlan::preset("none").unwrap()),
        ("chaos", FaultPlan::preset("chaos").unwrap()),
    ];
    for (plan_name, plan) in &plans {
        let sequential = all_algorithms(Parallelism::Sequential, plan);
        let rayon = all_algorithms(Parallelism::Rayon, plan);
        for ((name, a), (_, b)) in sequential.into_iter().zip(rayon) {
            let ra = a.run(&fp, 17);
            let rb = b.run(&fp, 17);
            assert_identical(&format!("{name} [{plan_name}]"), &ra, &rb);
            if !plan.is_none() {
                assert!(ra.faults.total() > 0, "{name}: chaos injected no fault");
            }
        }
    }
}

#[test]
fn different_seeds_differ() {
    let sc = tiny_problem(3, 2, 14);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    for (name, alg) in all_algorithms(Parallelism::Sequential, &FaultPlan::default()) {
        let a = alg.run(&fp, 1);
        let b = alg.run(&fp, 2);
        assert_ne!(a.final_w, b.final_w, "{name}: seeds do not change the run");
    }
}

#[test]
fn pooled_worker_scratch_survives_between_runs() {
    // The rayon shim's workers live for the whole process, so each keeps
    // its `hm_nn::with_scratch` bundles across rounds and runs (DESIGN.md
    // §7b). A CNN run and a logistic run leave those bundles sized and
    // filled for other models; the MLP run after them must not notice.
    let images = |edges, seed| {
        let opts = SimilarityOptions::default();
        similarity_scenario(
            ImageConfig::fashion_mnist_like(),
            edges,
            2,
            40,
            0.5,
            0.25,
            &opts,
            seed,
        )
    };
    let mlp = FederatedProblem::mlp_from_scenario(&images(4, 6), &[100, 50]);
    let sc = images(3, 7);
    let model = Arc::new(SimpleCnn::new(16, 3, 4, 8, 32, sc.num_classes));
    let cnn = FederatedProblem::new(
        sc,
        model,
        ProjectionOp::Unconstrained,
        ProjectionOp::Simplex,
    );
    let logistic = FederatedProblem::logistic_from_scenario(&tiny_problem(4, 2, 21));
    let train = |fp: &FederatedProblem| {
        let alg = HierMinimax::new(HierMinimaxConfig {
            rounds: 4,
            batch_size: 8,
            eta_p: 0.005,
            opts: opts(Parallelism::Rayon),
            ..Default::default()
        });
        alg.run(fp, 11)
    };
    let first = train(&mlp);
    train(&cnn);
    train(&logistic);
    let last = train(&mlp);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&first.final_w), bits(&last.final_w), "final_w differs");
    assert_eq!(bits(&first.final_p), bits(&last.final_p), "final_p differs");
    // `Debug` prints each float's shortest round-trip form, so equal text
    // means equal bits.
    assert_eq!(
        format!("{:?}", first.history),
        format!("{:?}", last.history),
        "history differs"
    );
}
