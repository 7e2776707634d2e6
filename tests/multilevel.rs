//! Integration tests of the multi-level (≥4-layer) generalisation.

use hierminimax::core::algorithms::{Algorithm, Hyper, Method, RunOpts, UpperLevel};
use hierminimax::core::metrics::evaluate;
use hierminimax::core::problem::FederatedProblem;
use hierminimax::core::RunResult;
use hierminimax::data::generators::synthetic_images::ImageConfig;
use hierminimax::data::scenarios::{linear_sizes, one_class_per_edge_sized};
use hierminimax::simnet::{Link, Parallelism};

fn problem(edges: usize) -> FederatedProblem {
    let cfg = ImageConfig {
        side: 8,
        num_classes: edges,
        bumps_per_class: 3,
        separation: 1.0,
        noise: 0.3,
        prototype_overlap: 0.0,
        pair_similarity: 0.0,
        noise_spread: 0.2,
        separation_spread: 0.4,
    };
    let sizes = linear_sizes(30, 0.3, edges);
    let sc = one_class_per_edge_sized(cfg, edges, 2, &sizes, 100, 71);
    FederatedProblem::logistic_from_scenario(&sc)
}

/// `rounds` rounds of the tree with `upper` above the edges, two
/// top-level groups sampled per round.
fn cfg(upper: Vec<UpperLevel>, rounds: usize) -> Hyper {
    Hyper {
        rounds,
        upper,
        eta_w: 0.05,
        eta_p: 0.005,
        loss_batch: 8,
        ..Hyper::default()
    }
}

/// MultiLevel's run of `h`.
fn run(fp: &FederatedProblem, h: &Hyper, seed: u64) -> RunResult {
    let opts = RunOpts {
        eval_every: 0,
        parallelism: Parallelism::Rayon,
        ..Default::default()
    };
    Method::MultiLevel.build(h, opts).run(fp, seed)
}

#[test]
fn deeper_tree_trades_cloud_rounds_for_local_rounds() {
    let fp = problem(8);
    let slots = 1600;
    let three = cfg(vec![], slots / 4);
    let four = cfg(
        vec![UpperLevel {
            group_size: 4,
            tau: 2,
        }],
        slots / 8,
    );
    let r3 = run(&fp, &three, 5);
    let r4 = run(&fp, &four, 5);
    // Matched slot budgets.
    assert_eq!(
        r3.history.rounds.last().unwrap().slots_done,
        r4.history.rounds.last().unwrap().slots_done
    );
    // The 4-layer tree halves cloud rounds and adds local rounds.
    assert_eq!(r4.comm.cloud_rounds() * 2, r3.comm.cloud_rounds());
    assert!(r4.comm.rounds(Link::ClientEdge) > r3.comm.rounds(Link::ClientEdge));
}

#[test]
fn four_layer_still_learns_to_high_accuracy() {
    let fp = problem(4);
    let h = cfg(
        vec![UpperLevel {
            group_size: 2,
            tau: 2,
        }],
        300,
    );
    let r = run(&fp, &h, 7);
    let e = evaluate(&fp, &r.final_w, Parallelism::Rayon);
    assert!(
        e.average > 0.85,
        "4-layer run only reached {:.3}",
        e.average
    );
}

#[test]
fn group_weights_track_group_losses_when_frozen() {
    // Frozen-model vertex-climb at the group level (the multi-level
    // analogue of the Phase-2 property test for HierMinimax).
    let fp = {
        let sc = hierminimax::data::scenarios::tiny_problem(4, 2, 72);
        FederatedProblem::mlp_from_scenario(&sc, &[6])
    };
    let mut c = cfg(
        vec![UpperLevel {
            group_size: 2,
            tau: 2,
        }],
        1200,
    );
    c.eta_w = 0.0;
    c.eta_p = 0.004;
    c.loss_batch = 64;
    let r = run(&fp, &c, 4);
    // Group losses at the (frozen) init model.
    let losses = fp.edge_losses(&r.final_w);
    let g0 = (losses[0] + losses[1]) / 2.0;
    let g1 = (losses[2] + losses[3]) / 2.0;
    let hardest = usize::from(g1 > g0);
    let p_max = usize::from(r.final_p[1] > r.final_p[0]);
    assert_eq!(
        p_max, hardest,
        "p {:?} did not track group losses ({g0:.3}, {g1:.3})",
        r.final_p
    );
}
