//! Table 1 / Theorems 1–2: the communication–convergence tradeoff.
//!
//! For a fixed time-slot budget `T`, sweeping the tradeoff exponent
//! `α ∈ {0, 1/4, 1/2, 3/4}` with `τ1 τ2 = ⌈T^α⌉` must show edge-cloud
//! communication shrinking like `Θ(T^{1−α})` (exactly: the number of
//! training rounds) while the duality gap of the averaged iterate degrades
//! gently — the paper's `O(1/T^{(1−α)/2})` convex rate. `α = 0` recovers
//! Stochastic-AFL's `O(T)`-communication point; `τ2 = 1` recovers the DRFA
//! regime (Section 5 discussion).
//!
//! `--split-sweep` additionally runs the τ1/τ2-split ablation: the same
//! τ1·τ2 budget factored different ways, exposing the separate client-edge
//! and edge-cloud divergence terms of Theorem 1.

use hm_bench::results::{parse_scale_flags, write_result};
use hm_bench::table::TextTable;
use hm_core::algorithms::{Algorithm, HierMinimax, HierMinimaxConfig, RunOpts};
use hm_core::duality::{duality_gap, GapConfig};
use hm_core::stationarity::{moreau_grad_norm, MoreauConfig};
use hm_core::FederatedProblem;
use hm_data::generators::synthetic_images::ImageConfig;
use hm_data::scenarios::one_class_per_edge;
use hm_optim::schedules::{schedule, split_tau, LossClass};
use hm_simnet::Parallelism;

fn main() {
    let (quick, _full) = parse_scale_flags();
    let split_sweep = std::env::args().any(|a| a == "--split-sweep");
    let nonconvex = std::env::args().any(|a| a == "--nonconvex");
    let total_slots: usize = if quick { 512 } else { 4096 };

    // Small convex problem so the duality gap is cheap to estimate.
    let mut cfg = ImageConfig::emnist_digits_like();
    cfg.side = 8; // d = 650 parameters
    let scenario = one_class_per_edge(cfg, 10, 3, 40, 60, 77);
    let problem = FederatedProblem::logistic_from_scenario(&scenario);
    let gap_cfg = GapConfig {
        gd_iters: if quick { 100 } else { 250 },
        ..Default::default()
    };

    println!("Table 1 / Theorem 1 reproduction: alpha sweep at T = {total_slots} slots\n");
    let mut t = TextTable::new(vec![
        "alpha",
        "tau1 x tau2",
        "rounds K",
        "edge-cloud rounds",
        "theory comm  T^(1-a)",
        "duality gap",
        "theory rate  T^-(1-a)/2",
    ]);
    let mut csv = String::from("alpha,tau1,tau2,rounds,cloud_rounds,gap,theory_comm,theory_rate\n");

    for &alpha in &[0.0, 0.25, 0.5, 0.75] {
        let s = schedule(LossClass::Convex, total_slots, alpha, 2.0, 1.0);
        let (tau1, tau2) = split_tau(s.tau_product);
        let hm = HierMinimax::new(HierMinimaxConfig {
            rounds: s.rounds,
            tau1,
            tau2,
            m_edges: 5,
            eta_w: (s.eta_w as f32).min(0.1),
            eta_p: (s.eta_p as f32).min(0.1),
            batch_size: 2,
            loss_batch: 16,
            weight_update_model: Default::default(),
            quantizer: Default::default(),
            opts: RunOpts {
                eval_every: 0,
                parallelism: Parallelism::Rayon,
                ..Default::default()
            },
        });
        let r = hm.run(&problem, 3);
        let gap = duality_gap(&problem, &r.avg_w, &r.avg_p, &gap_cfg);
        t.row(vec![
            format!("{alpha:.2}"),
            format!("{tau1} x {tau2}"),
            s.rounds.to_string(),
            r.comm.rounds(hm_simnet::Link::EdgeCloud).to_string(),
            format!("{:.0}", s.predicted_comm),
            format!("{:.4}", gap.gap),
            format!("{:.4}", s.predicted_rate),
        ]);
        csv.push_str(&format!(
            "{alpha},{tau1},{tau2},{},{},{:.6},{:.2},{:.6}\n",
            s.rounds,
            r.comm.rounds(hm_simnet::Link::EdgeCloud),
            gap.gap,
            s.predicted_comm,
            s.predicted_rate
        ));
    }
    println!("{}", t.render());
    println!(
        "expected shape: edge-cloud rounds fall ~T^(1-alpha); the gap grows slowly with alpha.\n"
    );

    if split_sweep {
        println!("tau1/tau2 split ablation at fixed tau1*tau2 = 8:\n");
        let mut st = TextTable::new(vec![
            "tau1 x tau2",
            "client-edge rounds",
            "edge-cloud rounds",
            "duality gap",
        ]);
        for (tau1, tau2) in [(8usize, 1usize), (4, 2), (2, 4), (1, 8)] {
            let rounds = total_slots / (tau1 * tau2);
            let hm = HierMinimax::new(HierMinimaxConfig {
                rounds,
                tau1,
                tau2,
                m_edges: 5,
                eta_w: 0.02,
                eta_p: 0.01,
                batch_size: 2,
                loss_batch: 16,
                weight_update_model: Default::default(),
                quantizer: Default::default(),
                opts: RunOpts {
                    eval_every: 0,
                    parallelism: Parallelism::Rayon,
                    ..Default::default()
                },
            });
            let r = hm.run(&problem, 3);
            let gap = duality_gap(&problem, &r.avg_w, &r.avg_p, &gap_cfg);
            st.row(vec![
                format!("{tau1} x {tau2}"),
                r.comm.rounds(hm_simnet::Link::ClientEdge).to_string(),
                r.comm.rounds(hm_simnet::Link::EdgeCloud).to_string(),
                format!("{:.4}", gap.gap),
            ]);
        }
        println!("{}", st.render());
        println!("Theorem 1 charges client-edge divergence ~tau1^2 and edge-cloud");
        println!("divergence ~tau1^2 tau2^2, so at fixed tau1*tau2 the bound prefers");
        println!("large tau1 / small tau2; at this scale the measured effect is small");
        println!("compared to sampling noise (all splits share the same cloud-round");
        println!("count and slot budget).\n");
    }

    if nonconvex {
        // Theorem 2: the same α-sweep with an MLP, measured by the
        // Moreau-envelope gradient norm of the averaged iterate.
        println!("Theorem 2 (non-convex) alpha sweep: Moreau-envelope gradient norm\n");
        let mlp_problem = FederatedProblem::mlp_from_scenario(&problem.scenario, &[16]);
        let m_cfg = MoreauConfig {
            lambda: 0.1,
            prox_iters: if quick { 60 } else { 150 },
            prox_lr: 0.02,
        };
        let mut nt = TextTable::new(vec![
            "alpha",
            "tau1 x tau2",
            "edge-cloud rounds",
            "moreau grad norm",
            "theory rate  T^-(1-a)/4",
        ]);
        for &alpha in &[0.0, 0.25, 0.5, 0.75] {
            let s = schedule(LossClass::NonConvex, total_slots, alpha, 20.0, 10.0);
            let (tau1, tau2) = split_tau(s.tau_product);
            let hm = HierMinimax::new(HierMinimaxConfig {
                rounds: s.rounds,
                tau1,
                tau2,
                m_edges: 5,
                eta_w: (s.eta_w as f32).min(0.1),
                eta_p: (s.eta_p as f32).min(0.05),
                batch_size: 2,
                loss_batch: 16,
                weight_update_model: Default::default(),
                quantizer: Default::default(),
                opts: RunOpts {
                    eval_every: 0,
                    parallelism: Parallelism::Rayon,
                    ..Default::default()
                },
            });
            let r = hm.run(&mlp_problem, 3);
            let norm = moreau_grad_norm(&mlp_problem, &r.avg_w, &m_cfg);
            nt.row(vec![
                format!("{alpha:.2}"),
                format!("{tau1} x {tau2}"),
                r.comm.rounds(hm_simnet::Link::EdgeCloud).to_string(),
                format!("{norm:.4}"),
                format!("{:.4}", s.predicted_rate),
            ]);
        }
        println!("{}", nt.render());
        println!("expected shape: communication falls with alpha while the envelope");
        println!("norm degrades gently (Theorem 2's O(T^(-(1-a)/4)) regime).\n");
    }

    let path = write_result("tradeoff.csv", &csv);
    println!("series written to {}", path.display());
}
