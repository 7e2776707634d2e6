//! The method table (DESIGN.md §7c) against the runs it builds: a
//! hyper-parameter that `Method::reads` says a method ignores leaves its
//! run bit for bit as it was, and one it reads changes the run. The CLI
//! consumes a method's algorithm flags by the same table, so this also
//! pins which flags `hierminimax run` accepts for each method. HierMinimax's
//! two entry points, its config and `Method::build`, give the same run.

use hierminimax::core::algorithms::{
    Algorithm, HierMinimax, HierMinimaxConfig, Hyper, Method, Param, RunOpts, WeightUpdateModel,
};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::data::scenarios::tiny_problem;
use hierminimax::simnet::{FaultPlan, Parallelism, Quantizer};

const PARAMS: [Param; 9] = [
    Param::Tau1,
    Param::Tau2,
    Param::EtaP,
    Param::LossBatch,
    Param::Mu,
    Param::Q,
    Param::Upper,
    Param::WeightUpdate,
    Param::Quantizer,
];

/// `h` with `param` moved off its value.
fn change(h: &Hyper, param: Param) -> Hyper {
    let mut h = h.clone();
    match param {
        Param::Tau1 => h.tau1 = 3,
        Param::Tau2 => h.tau2 = 3,
        Param::EtaP => h.eta_p = 0.5,
        Param::LossBatch => h.loss_batch = 1,
        Param::Mu => h.mu = 5.0,
        Param::Q => h.q = 5.0,
        Param::Upper => h.upper[0].tau = 3,
        Param::WeightUpdate => h.weight_update_model = WeightUpdateModel::FinalModel,
        Param::Quantizer => h.quantizer = Quantizer::Stochastic { bits: 2 },
    }
    h
}

#[test]
fn every_method_reads_exactly_its_params() {
    let fp = FederatedProblem::logistic_from_scenario(&tiny_problem(4, 2, 3));
    let base = Hyper {
        rounds: 3,
        eta_w: 0.1,
        eta_p: 0.1,
        ..Hyper::default()
    };
    let run = |m: Method, h: &Hyper| {
        let opts = RunOpts {
            parallelism: Parallelism::Sequential,
            ..Default::default()
        };
        let r = m.build(h, opts).run(&fp, 5);
        (r.final_w, r.final_p)
    };
    for m in Method::ALL {
        let reference = run(m, &base);
        for param in PARAMS {
            let same = run(m, &change(&base, param)) == reference;
            assert_eq!(same, !m.reads(param), "{m:?} {param:?}");
        }
    }
}

#[test]
fn hierminimax_config_and_method_table_give_the_same_run() {
    let fp = FederatedProblem::logistic_from_scenario(&tiny_problem(4, 2, 5));
    let opts = RunOpts {
        eval_every: 2,
        parallelism: Parallelism::Sequential,
        fault: FaultPlan::preset("chaos").unwrap(),
        ..Default::default()
    };
    let cfg = HierMinimaxConfig {
        rounds: 6,
        tau1: 3,
        tau2: 2,
        m_edges: 3,
        eta_w: 0.1,
        eta_p: 0.05,
        batch_size: 2,
        loss_batch: 4,
        weight_update_model: WeightUpdateModel::RoundStart,
        quantizer: Quantizer::Stochastic { bits: 4 },
        opts: opts.clone(),
    };
    let h = Hyper {
        rounds: 6,
        tau1: 3,
        m: 3,
        eta_w: 0.1,
        eta_p: 0.05,
        loss_batch: 4,
        weight_update_model: WeightUpdateModel::RoundStart,
        quantizer: Quantizer::Stochastic { bits: 4 },
        ..Hyper::default()
    };
    let a = HierMinimax::new(cfg).run(&fp, 9);
    let b = Method::HierMinimax.build(&h, opts).run(&fp, 9);
    assert!(a.faults.total() > 0, "the plan injected no fault");
    // `Debug` prints each float's shortest round-trip form, so equal text
    // means equal bits.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
