//! Cross-algorithm communication-accounting invariants: for every method,
//! the metered traffic must satisfy the structural identities its protocol
//! implies (floor bounds from participation, link discipline, cumulative
//! monotonicity). These catch "forgot to meter an exchange" bugs when
//! algorithms change.

use hierminimax::core::algorithms::{Algorithm, Hyper, Method, MethodRun, Param, RunOpts};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::data::scenarios::tiny_problem;
use hierminimax::simnet::{Link, Parallelism};

fn opts() -> RunOpts {
    RunOpts {
        eval_every: 1,
        parallelism: Parallelism::Sequential,
        ..Default::default()
    }
}

/// The two-layer baselines, or (`!two_layer`) HierFAVG and HierMinimax.
fn algorithms(two_layer: bool) -> Vec<MethodRun> {
    let h = Hyper {
        rounds: 6,
        tau2: 3,
        eta_w: 0.1,
        eta_p: 0.01,
        loss_batch: 4,
        ..Hyper::default()
    };
    let m = if two_layer { 4 } else { 2 };
    Method::ALL
        .into_iter()
        .filter(|&method| method != Method::MultiLevel && method.reads(Param::Tau2) != two_layer)
        .map(|method| method.build(&Hyper { m, ..h.clone() }, opts()))
        .collect()
}

#[test]
fn two_layer_methods_use_only_the_client_cloud_link() {
    let sc = tiny_problem(3, 2, 101);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    for alg in algorithms(true) {
        let r = alg.run(&fp, 3);
        let s = r.comm;
        assert_eq!(s.rounds(Link::ClientEdge), 0, "{}", alg.name());
        assert_eq!(s.rounds(Link::EdgeCloud), 0, "{}", alg.name());
        assert_eq!(s.uplink_floats(Link::ClientEdge), 0, "{}", alg.name());
        assert_eq!(s.uplink_floats(Link::EdgeCloud), 0, "{}", alg.name());
        assert_eq!(s.cloud_rounds(), 6, "{}", alg.name());
    }
}

#[test]
fn three_layer_methods_never_touch_the_client_cloud_link() {
    let sc = tiny_problem(3, 2, 102);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    for alg in algorithms(false) {
        let r = alg.run(&fp, 3);
        let s = r.comm;
        assert_eq!(s.rounds(Link::ClientCloud), 0, "{}", alg.name());
        assert_eq!(s.uplink_floats(Link::ClientCloud), 0, "{}", alg.name());
        assert_eq!(s.downlink_floats(Link::ClientCloud), 0, "{}", alg.name());
        assert_eq!(s.cloud_rounds(), 6, "{}", alg.name());
    }
}

#[test]
fn model_traffic_floor_bounds_hold() {
    // Every method must at minimum broadcast d floats to each participant
    // per round and get d floats back per model sync.
    let sc = tiny_problem(3, 2, 103);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let d = fp.num_params() as u64;
    for alg in algorithms(true) {
        let r = alg.run(&fp, 3);
        let s = r.comm;
        // m = 4 participants, 6 rounds: ≥ 4·6·d down and up (AFL's union
        // broadcast can exceed).
        assert!(
            s.downlink_floats(Link::ClientCloud) >= 4 * 6 * d,
            "{}: downlink {}",
            alg.name(),
            s.downlink_floats(Link::ClientCloud)
        );
        // Uplink: with-replacement samplers (AFL, DRFA) upload once per
        // *distinct* client, so the guaranteed floor is one model per
        // round.
        assert!(
            s.uplink_floats(Link::ClientCloud) >= 6 * d,
            "{}: uplink {}",
            alg.name(),
            s.uplink_floats(Link::ClientCloud)
        );
    }
}

#[test]
fn cumulative_counters_are_monotone_across_history() {
    let sc = tiny_problem(3, 2, 104);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let mut algs = algorithms(true);
    algs.extend(algorithms(false));
    for alg in algs {
        let r = alg.run(&fp, 5);
        for w in r.history.rounds.windows(2) {
            // `since` panics if any counter decreased.
            let delta = w[1].comm.since(&w[0].comm);
            assert!(
                delta.cloud_rounds() >= 1,
                "{}: a round passed without cloud communication",
                alg.name()
            );
        }
    }
}
