//! End-to-end behaviour of the Hier-Local-QSGD quantization extension:
//! quantized runs still learn, cost proportionally less uplink, and the
//! codec leaves the default (exact) path bit-identical.

use hierminimax::core::algorithms::{Algorithm, HierMinimax, HierMinimaxConfig, RunOpts};
use hierminimax::core::metrics::evaluate;
use hierminimax::core::problem::FederatedProblem;
use hierminimax::data::scenarios::tiny_problem;
use hierminimax::simnet::{Link, Parallelism, Quantizer};

fn cfg(quantizer: Quantizer, rounds: usize) -> HierMinimaxConfig {
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
        quantizer,
        opts: RunOpts {
            eval_every: 0,
            parallelism: Parallelism::Rayon,
            ..Default::default()
        },
    }
}

#[test]
fn quantized_run_still_learns() {
    let sc = tiny_problem(3, 2, 71);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let r = HierMinimax::new(cfg(Quantizer::Stochastic { bits: 8 }, 250)).run(&fp, 5);
    let e = evaluate(&fp, &r.final_w, Parallelism::Rayon);
    assert!(
        e.average > 0.9,
        "8-bit quantized run reached only {:.3}",
        e.average
    );
}

#[test]
fn uplink_floats_shrink_with_bits() {
    let sc = tiny_problem(3, 2, 72);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let exact = HierMinimax::new(cfg(Quantizer::Exact, 10)).run(&fp, 5);
    let q8 = HierMinimax::new(cfg(Quantizer::Stochastic { bits: 8 }, 10)).run(&fp, 5);
    let q2 = HierMinimax::new(cfg(Quantizer::Stochastic { bits: 2 }, 10)).run(&fp, 5);
    let up = |r: &hierminimax::core::RunResult| {
        r.comm.uplink_floats(Link::ClientEdge) + r.comm.uplink_floats(Link::EdgeCloud)
    };
    assert!(
        up(&exact) > up(&q8) * 3,
        "8-bit saves ≥3x: {} vs {}",
        up(&exact),
        up(&q8)
    );
    assert!(
        up(&q8) > up(&q2) * 2,
        "2-bit saves more: {} vs {}",
        up(&q8),
        up(&q2)
    );
    // Downlink (broadcasts) stays full precision.
    assert_eq!(
        exact.comm.downlink_floats(Link::ClientEdge),
        q2.comm.downlink_floats(Link::ClientEdge)
    );
    // Round counts are unchanged by the codec.
    assert_eq!(exact.comm.cloud_rounds(), q2.comm.cloud_rounds());
}

#[test]
fn quantization_is_deterministic_and_parallel_safe() {
    let sc = tiny_problem(3, 2, 73);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let mut a_cfg = cfg(Quantizer::Stochastic { bits: 4 }, 6);
    a_cfg.opts.parallelism = Parallelism::Sequential;
    let b_cfg = cfg(Quantizer::Stochastic { bits: 4 }, 6);
    let a = HierMinimax::new(a_cfg).run(&fp, 9);
    let b = HierMinimax::new(b_cfg).run(&fp, 9);
    assert_eq!(a.final_w, b.final_w);
    assert_eq!(a.final_p, b.final_p);
}

#[test]
fn coarser_quantization_degrades_gracefully_not_catastrophically() {
    let sc = tiny_problem(3, 2, 74);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let acc = |q: Quantizer| {
        let r = HierMinimax::new(cfg(q, 250)).run(&fp, 11);
        evaluate(&fp, &r.final_w, Parallelism::Rayon).average
    };
    let exact = acc(Quantizer::Exact);
    let q4 = acc(Quantizer::Stochastic { bits: 4 });
    assert!(
        q4 > exact - 0.15,
        "4-bit quantization lost too much accuracy: {q4:.3} vs {exact:.3}"
    );
}
