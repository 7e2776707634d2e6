//! Client-dropout robustness: the hierarchical algorithms tolerate crashed
//! or deadline-cut clients.

use hierminimax::core::algorithms::{Algorithm, HierMinimax, HierMinimaxConfig, RunOpts};
use hierminimax::core::metrics::evaluate;
use hierminimax::core::problem::FederatedProblem;
use hierminimax::data::scenarios::tiny_problem;
use hierminimax::simnet::{FaultPlan, Link, Parallelism};

/// A HierMinimax config whose clients crash in a `dropout` share of
/// blocks.
fn cfg(dropout: f32, rounds: usize) -> HierMinimaxConfig {
    HierMinimaxConfig {
        rounds,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
        eta_w: 0.1,
        eta_p: 0.005,
        batch_size: 2,
        loss_batch: 8,
        weight_update_model: Default::default(),
        quantizer: Default::default(),
        opts: RunOpts {
            fault: FaultPlan {
                client_crash: dropout,
                ..FaultPlan::default()
            },
            eval_every: 0,
            parallelism: Parallelism::Rayon,
            ..Default::default()
        },
    }
}

#[test]
fn learns_through_twenty_percent_dropout() {
    let sc = tiny_problem(3, 2, 95);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let r = HierMinimax::new(cfg(0.2, 300)).run(&fp, 5);
    let e = evaluate(&fp, &r.final_w, Parallelism::Rayon);
    assert!(
        e.average > 0.9,
        "20% dropout run only reached {:.3}",
        e.average
    );
    // Weights remain a distribution.
    let sum: f32 = r.final_p.iter().sum();
    assert!((sum - 1.0).abs() < 1e-4);
}

#[test]
fn dropout_reduces_uplink_traffic_proportionally() {
    let sc = tiny_problem(3, 2, 96);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let clean = HierMinimax::new(cfg(0.0, 40)).run(&fp, 5);
    let lossy = HierMinimax::new(cfg(0.5, 40)).run(&fp, 5);
    let up = |r: &hierminimax::core::RunResult| r.comm.uplink_msgs(Link::ClientEdge);
    // Phase-1 uploads shrink by roughly the survival rate (Phase-2 scalar
    // reports are unaffected), so well below the clean count but nonzero.
    assert!(
        up(&lossy) < up(&clean) * 4 / 5,
        "{} vs {}",
        up(&lossy),
        up(&clean)
    );
    assert!(up(&lossy) > 0);
    // Downlink broadcasts are NOT reduced by dropout (the edge pushes
    // before knowing who will survive); they differ between the runs only
    // through the diverging participation sampling, so bound loosely.
    let down = |r: &hierminimax::core::RunResult| r.comm.downlink_msgs(Link::ClientEdge);
    assert!(
        down(&lossy) * 2 > down(&clean),
        "{} vs {}",
        down(&lossy),
        down(&clean)
    );
}

#[test]
fn dropout_is_deterministic() {
    let sc = tiny_problem(3, 2, 97);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let a = HierMinimax::new(cfg(0.3, 10)).run(&fp, 9);
    let b = HierMinimax::new(cfg(0.3, 10)).run(&fp, 9);
    assert_eq!(a.final_w, b.final_w);
    assert_eq!(a.comm, b.comm);
    // And sequential matches parallel under dropout too.
    let mut c_cfg = cfg(0.3, 10);
    c_cfg.opts.parallelism = Parallelism::Sequential;
    let c = HierMinimax::new(c_cfg).run(&fp, 9);
    assert_eq!(a.final_w, c.final_w);
}

#[test]
fn extreme_dropout_still_terminates() {
    // 90% dropout: most blocks lose most clients, some edges lose all of
    // them; the run must still complete with finite parameters.
    let sc = tiny_problem(3, 2, 98);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let r = HierMinimax::new(cfg(0.9, 30)).run(&fp, 11);
    assert!(r.final_w.iter().all(|x| x.is_finite()));
    assert!(r.final_p.iter().all(|x| x.is_finite()));
}

#[test]
fn total_dropout_is_robust() {
    // dropout = 1.0: every client drops every block, so no edge ever
    // uploads and the global model can only stay at its initialization.
    // The run must complete without panicking or dividing by zero, keep
    // all parameters finite, and record zero client->edge uplink traffic.
    let sc = tiny_problem(3, 2, 99);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let init = hm_testkit::reference_init_w(&fp, 13);
    let r = HierMinimax::new(cfg(1.0, 5)).run(&fp, 13);
    assert!(r.final_w.iter().all(|x| x.is_finite()));
    assert!(r.final_p.iter().all(|x| x.is_finite()));
    assert_eq!(
        r.final_w, init,
        "with no surviving uploads the model must not move"
    );
    let up = r.comm.uplink_floats(Link::ClientEdge);
    // Phase 2 still uploads one loss scalar per sampled client; block
    // uploads (d floats each) must all be gone.
    assert!(
        up < 5 * 2 * 2 * fp.num_params() as u64,
        "client->edge uplink should carry no model deltas, got {up} floats"
    );
}
