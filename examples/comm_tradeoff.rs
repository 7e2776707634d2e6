//! The communication–convergence tradeoff of Theorems 1–2, hands on.
//!
//! Sweeps the tradeoff exponent α: larger α means more local work per
//! round (`τ1 τ2 = ⌈T^α⌉`), hence fewer edge-cloud communication rounds
//! (`Θ(T^{1−α})`), at a gently degrading duality gap — the knob that lets
//! a deployment trade cloud bandwidth for convergence speed.
//!
//! ```bash
//! cargo run --release --example comm_tradeoff
//! ```

use hierminimax::core::algorithms::{Algorithm, HierMinimax, HierMinimaxConfig, RunOpts};
use hierminimax::core::duality::{duality_gap, GapConfig};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::data::scenarios::tiny_problem;
use hierminimax::optim::schedules::{schedule, split_tau, LossClass};
use hierminimax::simnet::{Link, Parallelism};

fn main() {
    let total_slots = 1024;
    let scenario = tiny_problem(5, 2, 3);
    let problem = FederatedProblem::logistic_from_scenario(&scenario);
    let gap_cfg = GapConfig::default();

    println!("T = {total_slots} slots on a 5-edge toy problem\n");
    println!(
        "{:<8}{:<12}{:<10}{:<20}{:<14}",
        "alpha", "tau1 x tau2", "rounds", "edge-cloud rounds", "duality gap"
    );
    for &alpha in &[0.0, 0.3, 0.6] {
        let s = schedule(LossClass::Convex, total_slots, alpha, 2.0, 1.0);
        let (tau1, tau2) = split_tau(s.tau_product);
        let cfg = HierMinimaxConfig {
            rounds: s.rounds,
            tau1,
            tau2,
            m_edges: 3,
            eta_w: (s.eta_w as f32).min(0.1),
            eta_p: (s.eta_p as f32).min(0.05),
            batch_size: 2,
            loss_batch: 8,
            weight_update_model: Default::default(),
            quantizer: Default::default(),
            opts: RunOpts {
                eval_every: 0,
                parallelism: Parallelism::Rayon,
                ..Default::default()
            },
        };
        let r = HierMinimax::new(cfg).run(&problem, 11);
        let gap = duality_gap(&problem, &r.avg_w, &r.avg_p, &gap_cfg);
        println!(
            "{:<8.2}{:<12}{:<10}{:<20}{:<14.4}",
            alpha,
            format!("{tau1} x {tau2}"),
            s.rounds,
            r.comm.rounds(Link::EdgeCloud),
            gap.gap
        );
    }
    println!("\nHigher alpha: fewer cloud rounds, looser gap — Theorem 1's tradeoff.");
}
