//! Quickstart: build a small hierarchical problem, run HierMinimax, and
//! inspect the fairness metrics.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use hierminimax::core::algorithms::{Algorithm, HierMinimax, HierMinimaxConfig, RunOpts};
use hierminimax::core::metrics::evaluate;
use hierminimax::core::problem::FederatedProblem;
use hierminimax::data::scenarios;
use hierminimax::simnet::Parallelism;

fn main() {
    // 1. Data: a miniature client-edge-cloud scenario — 4 edge areas of
    //    2 clients each, one image class per edge area (maximally
    //    heterogeneous, like the paper's §6.1 setup).
    let scenario = scenarios::tiny_problem(4, 2, 42);

    // 2. Problem: multinomial logistic regression (convex), W = R^d,
    //    P = the probability simplex over edge areas.
    let problem = FederatedProblem::logistic_from_scenario(&scenario);
    println!(
        "problem: {} edges x {} clients, d = {} parameters",
        problem.num_edges(),
        problem.clients_per_edge(),
        problem.num_params()
    );

    // 3. Algorithm 1 with tau1 = tau2 = 2 (two local SGD steps per
    //    client-edge aggregation, two aggregations per round).
    let cfg = HierMinimaxConfig {
        rounds: 150,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
        eta_w: 0.1,
        eta_p: 0.005,
        batch_size: 4,
        loss_batch: 16,
        weight_update_model: Default::default(),
        quantizer: Default::default(),
        opts: RunOpts {
            eval_every: 25,
            parallelism: Parallelism::Rayon,
            ..Default::default()
        },
    };
    let result = HierMinimax::new(cfg).run(&problem, 7);

    // 4. Results: per-edge fairness and communication cost.
    let eval = evaluate(&problem, &result.final_w, Parallelism::Rayon);
    println!("\nper-edge test accuracy: {:?}", eval.per_edge_accuracy);
    println!(
        "average = {:.3}, worst = {:.3}, variance = {:.2} pp^2",
        eval.average, eval.worst, eval.variance_pp
    );
    println!("learned edge weights p = {:?}", result.final_p);
    println!(
        "communication: {} cloud rounds, {} client-edge rounds, {} floats moved",
        result.comm.cloud_rounds(),
        result.comm.rounds(hierminimax::simnet::Link::ClientEdge),
        result.comm.total_floats()
    );
}
